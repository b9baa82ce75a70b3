"""Bit-level goldens for the row-normalizer survey.

The sha256 of every survey output over nine CEFs must match the recorded
value: the raw sums, mismatched rows and worst spread of validate_cef, the
mef_check verdict, row_log_partitions at several row-block sizes, the realized
transition matrices and mean_parameter. Arrays hash as their float64 bytes
and floats as their hex form, so any change in the last bit shows.
Re-record only for an intended numerical change: print `_digests()` and
paste the dict.
"""

import hashlib
from types import GeneratorType
from unittest import mock

import numpy as np

from pumc import core
from pumc.core import build_generic_space
from pumc.errors import TheoremViolationError
from pumc.expfam import (
    DENSITY_LOGIT,
    NATURAL,
    CefSpec,
    MefSpec,
    ParameterMap,
    cef_transition_matrix,
    default_probes,
    mean_parameter,
    mef_check,
    row_log_partitions,
    validate_cef,
)
from pumc.models import gani_cef, reciprocity_cef, stability_mef, transitivity_cef

BLOCK_ROWS = (1, 3, 64, None)  # rows per survey block; None is the default BLOCK_ENTRIES


def _random_cef(size: int, l: int, seed: int, zero_rows: int) -> CefSpec:
    """Seeded CEF with scattered zero carriers and `zero_rows` empty rows."""
    gen = np.random.default_rng(seed)
    kappa = gen.random((size, size)) * (gen.random((size, size)) > 0.3)
    kappa[gen.choice(size, zero_rows, replace=False)] = 0.0
    tau = gen.normal(size=(size, size, l)) * 3.0
    space = build_generic_space(tuple(f"s{i}" for i in range(size)))
    return CefSpec(space=space, kappa=kappa, tau=tau, eta=ParameterMap(kind=NATURAL, l=l))


def _cefs() -> dict:
    return {
        "reciprocity3": reciprocity_cef(3),
        "reciprocity4": reciprocity_cef(4),
        "transitivity4": transitivity_cef(4),
        "stability_mef4": stability_mef(4),
        "gani": gani_cef(),
        "random_l2_zero_rows": _random_cef(37, 2, 11, 3),
        "random_l3": _random_cef(29, 3, 12, 0),
        "random_l5": _random_cef(23, 5, 14, 1),
        "random_l1_wide": _random_cef(1100, 1, 13, 0),
    }


def _feed(h, value):
    """Add value's canonical bytes to the hash h, one array at a time."""
    if isinstance(value, np.ndarray):
        h.update(str(value.dtype).encode() + repr(value.shape).encode())
        h.update(np.ascontiguousarray(value))
    elif isinstance(value, (float, np.floating)):
        h.update(float(value).hex().encode())
    elif isinstance(value, (tuple, list, GeneratorType)):
        h.update(b"(")
        for i, v in enumerate(value):
            h.update(b"," if i else b"")
            _feed(h, v)
        h.update(b")")
    else:
        h.update(repr(value).encode())


def _sha(value) -> str:
    """sha256 of value's canonical bytes; a generator is hashed as the list of its items."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _outcome(fn):
    """Value of fn(), or its exception class and message."""
    try:
        return fn()
    except (ValueError, TheoremViolationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _mean(mef: MefSpec, theta) -> tuple:
    m = mean_parameter(mef, theta)
    return m.value, m.per_row, m.fd_gradient


def _probes(cef: CefSpec) -> list:
    """The default probes plus one whose eta coordinates are all inexact."""
    if cef.eta.kind == NATURAL:
        extra = np.arange(1, cef.eta.l + 1) * 0.37 - 0.9
        return default_probes(cef.eta) + [extra[0] if cef.eta.l == 1 else extra]
    return default_probes(cef.eta) + [0.37 if cef.eta.kind == DENSITY_LOGIT else 1.7]


def _digests() -> dict:
    out = {}
    for name, cef in _cefs().items():
        probes = _probes(cef)
        val = validate_cef(cef, probes)
        out[f"{name}:validate"] = _sha(
            (val.raw_sums, val.mismatched_rows, val.worst_rel_spread, val.shared_normalizer)
        )
        res = mef_check(cef, probes)
        out[f"{name}:mef_check"] = _sha((res.ok, res.worst_rel_dev, res.probe, res.row))
        for rows in BLOCK_ROWS:
            entries = core.BLOCK_ENTRIES if rows is None else rows * cef.space.size
            with mock.patch.object(core, "BLOCK_ENTRIES", entries):
                psi = [row_log_partitions(cef, theta) for theta in probes]
            out[f"{name}:psi:{rows}"] = _sha(psi)
        # Generators: a reciprocity4 matrix is 128 MiB, so one is held at a time.
        out[f"{name}:matrix"] = _sha(_outcome(lambda: cef_transition_matrix(cef, theta).P) for theta in probes)
        # Promote without checking so non-MEFs reach the row-spread test.
        mef = MefSpec(space=cef.space, kappa=cef.kappa, tau=cef.tau, eta=cef.eta, verified_mef=True)
        out[f"{name}:mean"] = _sha(_outcome(lambda: _mean(mef, theta)) for theta in probes)
    return out


GOLDEN = {
    "reciprocity3:validate": "06f57c9ad78ebbd009c5d2b696785829bed474fcc96279fe693810e1985ebfbd",
    "reciprocity3:mef_check": "c2dacd8b3a61169e6910d93954545054e143e011beeae128790898a7691477bc",
    "reciprocity3:psi:1": "3d1de162f551f49a3799dfb0a1196f5d5db887b69e660cfd3c085da87c593968",
    "reciprocity3:psi:3": "3d1de162f551f49a3799dfb0a1196f5d5db887b69e660cfd3c085da87c593968",
    "reciprocity3:psi:64": "3d1de162f551f49a3799dfb0a1196f5d5db887b69e660cfd3c085da87c593968",
    "reciprocity3:psi:None": "3d1de162f551f49a3799dfb0a1196f5d5db887b69e660cfd3c085da87c593968",
    "reciprocity3:matrix": "6b8d4498519588d7fd860f3837d29d7cc46c3123dd4384511215f3ce14cdfa13",
    "reciprocity3:mean": "33af2976c39342e090c80de66239e18c3d170bc22cd0ecaa98443e23c8ef8266",
    "reciprocity4:validate": "7a8188325b0fa6be75cb180e1f2e7dd77a697631fb14cfc30cc8a736a0ddd4de",
    "reciprocity4:mef_check": "f618caa30b9c5541211047accba990b2a790858b9264a5bdec17111b69df6aec",
    "reciprocity4:psi:1": "de811bb4cb88ecb9cd2ee95f124958e4b8ae1930d2194ca9fa89c6ad9e203665",
    "reciprocity4:psi:3": "de811bb4cb88ecb9cd2ee95f124958e4b8ae1930d2194ca9fa89c6ad9e203665",
    "reciprocity4:psi:64": "de811bb4cb88ecb9cd2ee95f124958e4b8ae1930d2194ca9fa89c6ad9e203665",
    "reciprocity4:psi:None": "de811bb4cb88ecb9cd2ee95f124958e4b8ae1930d2194ca9fa89c6ad9e203665",
    "reciprocity4:matrix": "2f1ac916c2581d84340fcb981c3199c04c736edd9bf57bb025e5022ef6492b3d",
    "reciprocity4:mean": "7d4d4a7ae7b11ee8446b883d02db0fdec7cf60f5dc0db6acb9b5e06cad35b0c4",
    "transitivity4:validate": "44ec3de040fd16700267bf61ce9b788b3a9fc2d218933b024bb2e2d47d6356ab",
    "transitivity4:mef_check": "e098e03ef342cad54f60efcbfa4a2cabf8da26cd237928fd0869fd0d8bc23bdc",
    "transitivity4:psi:1": "2fe76656a923eeae03e876cb68c8316fc776f53da5876c9eb69acc524d115657",
    "transitivity4:psi:3": "2fe76656a923eeae03e876cb68c8316fc776f53da5876c9eb69acc524d115657",
    "transitivity4:psi:64": "2fe76656a923eeae03e876cb68c8316fc776f53da5876c9eb69acc524d115657",
    "transitivity4:psi:None": "2fe76656a923eeae03e876cb68c8316fc776f53da5876c9eb69acc524d115657",
    "transitivity4:matrix": "831f7b3018b5c214c52059676ed60727a22c39ea2d60b29cd68617dfce1d21d0",
    "transitivity4:mean": "c9709990931213b36dc2e81a7e23df543394d0e13ccbd47b0d4fb91ff83c375d",
    "stability_mef4:validate": "0d2732e9ad51dbf1454a32050eb391448e471af0c09551c8614067c5ac7dc059",
    "stability_mef4:mef_check": "4962120071c01bc436f165e6e6660283731c211cf350db86866fd322b053695b",
    "stability_mef4:psi:1": "d661d160d35f766573ef696a59f11f6fb0967243ef6cb45cecf859a968ac2b9f",
    "stability_mef4:psi:3": "d661d160d35f766573ef696a59f11f6fb0967243ef6cb45cecf859a968ac2b9f",
    "stability_mef4:psi:64": "d661d160d35f766573ef696a59f11f6fb0967243ef6cb45cecf859a968ac2b9f",
    "stability_mef4:psi:None": "d661d160d35f766573ef696a59f11f6fb0967243ef6cb45cecf859a968ac2b9f",
    "stability_mef4:matrix": "9b5c8245e7ba5de0b0a496f4e6f37caf8c118130848c3d1ed59087284dd346aa",
    "stability_mef4:mean": "993544ae4b3760b8d30fe295b792fe89a1ff7fc76a2e98c506fb6b7a8cef05e7",
    "gani:validate": "e9a0be308cdd6d06f06a877187f3f7491ab3f0832cbe927357b62f5a998cbce5",
    "gani:mef_check": "a8cfed93f360648316820799735506340ea70acbe344af2b0a17f29460044837",
    "gani:psi:1": "140dbb3b0c26d608f1358a276b25ec6dbd0286f2e9a747ae48a8a274a6b717f7",
    "gani:psi:3": "140dbb3b0c26d608f1358a276b25ec6dbd0286f2e9a747ae48a8a274a6b717f7",
    "gani:psi:64": "140dbb3b0c26d608f1358a276b25ec6dbd0286f2e9a747ae48a8a274a6b717f7",
    "gani:psi:None": "140dbb3b0c26d608f1358a276b25ec6dbd0286f2e9a747ae48a8a274a6b717f7",
    "gani:matrix": "50a503786cbff7d646f48c9aec7d0824ba182d3363ab879aa9fb25e60a6204a1",
    "gani:mean": "643840db53042df373fc936e455940db73af02b344ad8a81162a2c586d1429e2",
    "random_l2_zero_rows:validate": "1f1151a7df8fa10acf80e89fec965ba62e2815c6a29dc1458bd28ab97328b319",
    "random_l2_zero_rows:mef_check": "c4022664173ec8560f4dc55f4ac50db3235812cbfe18ae12317f79fbf798c135",
    "random_l2_zero_rows:psi:1": "77897efc51383c15d7ca7e1d2908aa25a03698bedf598f85fe5934b9d15dc077",
    "random_l2_zero_rows:psi:3": "77897efc51383c15d7ca7e1d2908aa25a03698bedf598f85fe5934b9d15dc077",
    "random_l2_zero_rows:psi:64": "77897efc51383c15d7ca7e1d2908aa25a03698bedf598f85fe5934b9d15dc077",
    "random_l2_zero_rows:psi:None": "77897efc51383c15d7ca7e1d2908aa25a03698bedf598f85fe5934b9d15dc077",
    "random_l2_zero_rows:matrix": "20845126d976f6b2e71bd11936b3a08a010608cfe0d8694f2ef6c282de539a22",
    "random_l2_zero_rows:mean": "20845126d976f6b2e71bd11936b3a08a010608cfe0d8694f2ef6c282de539a22",
    "random_l3:validate": "3a15513f3b78d9fb87c654053802a9062c4652934a6dcd9c58b4822867c23b62",
    "random_l3:mef_check": "7b23be3eeb631090103bd801af508efb3c9adc6b243c1a20b333ac80926daaee",
    "random_l3:psi:1": "9ff449541637d136971d3d5e9495da155efd3ace439c3c43c87a751701dca167",
    "random_l3:psi:3": "9ff449541637d136971d3d5e9495da155efd3ace439c3c43c87a751701dca167",
    "random_l3:psi:64": "9ff449541637d136971d3d5e9495da155efd3ace439c3c43c87a751701dca167",
    "random_l3:psi:None": "9ff449541637d136971d3d5e9495da155efd3ace439c3c43c87a751701dca167",
    "random_l3:matrix": "e18ed6cc9878b6f0c9ec455aeb35c1f15f3396e7d7daebe01f43faf558b18583",
    "random_l3:mean": "c7553f4f5c698cc45a62f771256d5f2b5102171252e8c644d420457affa5a4d4",
    "random_l5:validate": "17829433ede0e9da4821e47b86dc5fffb12f6ceafe134f75329f8efa043a8cb6",
    "random_l5:mef_check": "a53cd9bf3853cfb963251f638792b738b61848fb34f41db68a461d3bbbbfe66b",
    "random_l5:psi:1": "21ae9e7374286c453c69a718b2b2d81329b2550c0cb60e68d6b631dffdce3ac0",
    "random_l5:psi:3": "21ae9e7374286c453c69a718b2b2d81329b2550c0cb60e68d6b631dffdce3ac0",
    "random_l5:psi:64": "21ae9e7374286c453c69a718b2b2d81329b2550c0cb60e68d6b631dffdce3ac0",
    "random_l5:psi:None": "21ae9e7374286c453c69a718b2b2d81329b2550c0cb60e68d6b631dffdce3ac0",
    "random_l5:matrix": "69a879cf6c11b1121ccb5a6a9d75f130949295d89d9996992db1a2a89267a81f",
    "random_l5:mean": "69a879cf6c11b1121ccb5a6a9d75f130949295d89d9996992db1a2a89267a81f",
    "random_l1_wide:validate": "19c9a08981d1d66217156f19ef99aced29cb45f801f5f09002d1f63739177f92",
    "random_l1_wide:mef_check": "1d546eb09f7e9b4eea30898151fbac690bc6b96af1c54555a9b18f0a467d96f6",
    "random_l1_wide:psi:1": "19f47e277f576dae835f566f239ce20abddbb2ec9c8f496c7805aba216c6ecda",
    "random_l1_wide:psi:3": "19f47e277f576dae835f566f239ce20abddbb2ec9c8f496c7805aba216c6ecda",
    "random_l1_wide:psi:64": "19f47e277f576dae835f566f239ce20abddbb2ec9c8f496c7805aba216c6ecda",
    "random_l1_wide:psi:None": "19f47e277f576dae835f566f239ce20abddbb2ec9c8f496c7805aba216c6ecda",
    "random_l1_wide:matrix": "c7b936eb4a7b69c26bc3e1acd7a4c7aeaf8d6a46948e2406c03d1f7f670fbcf8",
    "random_l1_wide:mean": "b337e146a8785c531008c7bb1ecf906964b504c2b594ca58c24e04d7b5853aff",
}


def test_survey_outputs_match_goldens():
    digests = _digests()
    changed = sorted(k for k in GOLDEN.keys() | digests.keys() if GOLDEN.get(k) != digests.get(k))
    assert not changed, f"survey output bits changed: {changed}"
