"""Byte-level goldens for the command line.

Each command below runs in-process at a tiny size; the sha256 of its stdout
and of every file it writes (--out, --csv, JSONL streams) must match the
recorded value. Inputs are written here from literal data and plain numpy,
never through pumc, so a change in the library cannot move both sides.
Re-record only for an intended format change: print `_run_all(...)` and
paste the dict.
"""

import hashlib
import json

import numpy as np

from pumc.cli import main


def _stability_matrix(n, p):
    """Stability chain on G(n, 1) in closed form: P[a, b] = mu[~(a ^ b)]."""
    nd = n * (n - 1) // 2
    size = 2 ** nd
    edges = np.array([bin(b).count("1") for b in range(size)])
    mu = p ** edges * (1.0 - p) ** (nd - edges)
    idx = np.arange(size)
    return mu[(idx[:, None] ^ idx[None, :]) ^ (size - 1)]


def _write_inputs():
    with open("pos.json", "w") as fp:
        json.dump({"matrix": _stability_matrix(3, 0.3).tolist()}, fp)
    with open("neg.json", "w") as fp:
        json.dump({"matrix": [[0.5, 0.25, 0.25], [0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]}, fp)
    with open("walk.csv", "w") as fp:
        fp.write("0.5,0.5,0,0\n0,0.5,0.5,0\n0,0,0.5,0.5\n0.5,0,0,0.5\n")
    with open("g32.json", "w") as fp:
        json.dump({
            "n": 3,
            "t": 2,
            "eta": {"kind": "natural", "l": 1},
            "tau_f": [[[0.0], [1.0], [2.0]]] * 3,
            "kappa_f": [[1.0, 2.0, 1.0], [1.0, 1.5, 0.5], [2.0, 1.0, 1.0]],
        }, fp)


# (name, argv, files the command writes)
COMMANDS = (
    ("simulate_stability", "simulate --model stability --n 3 --p 0.3 --steps 200 --seed 9 "
     "--x0 2 --out s.jsonl", ("s.jsonl",)),
    ("simulate_density_expand", "simulate --model density --n 4 --p 0.4 --steps 150 --seed 5 "
     "--expand --out d.jsonl", ("d.jsonl",)),
    ("simulate_modular", "simulate --model modular --n 5 --mu 0.1,0.2,0.3,0.4,0 --steps 60 "
     "--seed 3 --out m.jsonl", ("m.jsonl",)),
    ("simulate_custom", "simulate --model custom --matrix walk.csv --steps 80 --seed 8 "
     "--out w.jsonl", ("w.jsonl",)),
    ("chain2iid", "transform --traj s.jsonl --direction chain2iid --family stability "
     "--out z.jsonl", ("z.jsonl",)),
    ("iid2chain", "transform --traj z.jsonl --direction iid2chain --family stability --x0 2 "
     "--out back.jsonl", ("back.jsonl",)),
    ("fit_density", "fit --traj d.jsonl --stat density", ()),
    ("fit_stability", "fit --traj s.jsonl --stat stability --out fit.json", ("fit.json",)),
    ("diagnose_density", "diagnose --traj d.jsonl --stat density --p 0.4", ()),
    ("diagnose_stability", "diagnose --traj s.jsonl --stat stability --p 0.3 --csv run.csv",
     ("run.csv",)),
    ("diagnose_degseq", "diagnose --traj d.jsonl --stat degseq --target 1,2,2,3", ()),
    ("diagnose_transitivity", "diagnose --traj d.jsonl --stat transitivity --target 1.5", ()),
    ("diagnose_reciprocity", "diagnose --traj w.jsonl --stat reciprocity --n 2 --target 1.0", ()),
    ("detect_positive", "detect --matrix pos.json", ()),
    ("detect_negative", "detect --matrix neg.json --out det.json", ("det.json",)),
    ("exchangeability", "exchangeability --model density --n 4 --p 0.3", ()),
    ("partition_brute", "partition --model g32.json --theta=-1,0,0.5,2 --brute", ()),
    ("sample", "sample --model g32.json --theta 0.5 --seed 4 --count 20", ()),
)

GOLDEN = {
    "simulate_stability:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate_stability:s.jsonl": "6d91eff40632f80c46af517c8d8e4048d0d578db8bb2099923f3e88cf5d027db",
    "simulate_density_expand:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate_density_expand:d.jsonl": "58b0195216d46e2d6ce11b131f84fae90ae453fb2bf0d54d09e3e1cfa681b085",
    "simulate_modular:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate_modular:m.jsonl": "84453cb3c3bf7379430c900957f30c36f2a1db4ea934e51e060d97dbd97653b3",
    "simulate_custom:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate_custom:w.jsonl": "2a069893949b72ff749ba45227922bb501ce6524f41f0fa0e66a98d2bbbd0e93",
    "chain2iid:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "chain2iid:z.jsonl": "669b675404291e77684b08e5eba27cd86c56aa4b105f7ec72a7de5343bd15309",
    "iid2chain:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "iid2chain:back.jsonl": "6d91eff40632f80c46af517c8d8e4048d0d578db8bb2099923f3e88cf5d027db",
    "fit_density:stdout": "fc52c5aa05c03af9672b14861c9267a431f54685bbde74dee7ff7828b74f2250",
    "fit_stability:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fit_stability:fit.json": "e9aa88ac6b62f4003a11c9d2991de221905533394cc836079a85c4ceab1c0475",
    "diagnose_density:stdout": "12cf614e37bd3137d14444ba6fab659e1cc7d1744f43e372c27d134186f92775",
    "diagnose_stability:stdout": "e4160da9535c2e2b700c8c847856f7e951b1483af46df9873ea875b5ed1e5bcd",
    "diagnose_stability:run.csv": "a644fb3bf4d0c7189fc35603a4f92bb4a12bf84ed84f8d8990851afaff8cf1d6",
    "diagnose_degseq:stdout": "8b48e20a82c39193cd82820e4c54bcf133f6fecd06fe598c492437e03e49f0f2",
    "diagnose_transitivity:stdout": "897a690e2e2926f40bcb7f4bc64e53b3711c9a957c38036f06ad9506c80984ed",
    "diagnose_reciprocity:stdout": "16ac6cc2ad0c719276117544f4469ada2cbd0d3e157d4fe8791cc5b5b32ea1b2",
    "detect_positive:stdout": "e7fed93be0f037c3ffe0e2df5143dc73c325367faf35924b83faef18d67f5c16",
    "detect_negative:stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "detect_negative:det.json": "7519af85effde33e78dca760c6b4bb19526fe136043c9cf1d90de33e39c65fa8",
    "exchangeability:stdout": "7145085011c1255407abc7e2496568ae831d39c38e89e6716cdfe4e76efd4e45",
    "partition_brute:stdout": "5803e8d57b9c8ac245430d76a98af4d09de8caadaf68a0a20ff4913c1e7e1b20",
    "sample:stdout": "2eb4401bdd965869299180ba62800e6943aba59095478a4fd8254ae8321af210",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_all(tmp_path, capsys, monkeypatch) -> dict:
    monkeypatch.chdir(tmp_path)
    _write_inputs()
    digests = {}
    for name, argv, files in COMMANDS:
        code = main(argv.split())
        out = capsys.readouterr().out
        assert code == 0, name
        digests[f"{name}:stdout"] = _sha(out.encode())
        for path in files:
            with open(path, "rb") as fp:
                digests[f"{name}:{path}"] = _sha(fp.read())
    return digests


def test_cli_outputs_match_goldens(tmp_path, capsys, monkeypatch):
    digests = _run_all(tmp_path, capsys, monkeypatch)
    changed = sorted(k for k in GOLDEN.keys() | digests.keys() if GOLDEN.get(k) != digests.get(k))
    assert not changed, f"CLI output bytes changed: {changed}"


def test_round_trip_golden_is_the_simulated_path():
    assert GOLDEN["iid2chain:back.jsonl"] == GOLDEN["simulate_stability:s.jsonl"]
