import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from pumc import models, serialize
from pumc.core import (
    Multigraph,
    StochasticMatrix,
    build_generic_space,
    build_modular_space,
    build_multigraph_space,
    builtin_family,
    edge_total_table,
    num_dyads,
)
from pumc.ermgm import from_factorization
from pumc.expfam import ParameterMap
from pumc.netstat import DyadicFactorization, factor_dyadditive
from pumc.puniform import Trajectory


def test_dumps_float_precision_round_trips():
    vals = [0.1, 1 / 3, 2**-52, 1e300, -0.0, math.pi]
    text = serialize.dumps(vals)
    back = json.loads(text)
    for a, b in zip(vals, back):
        assert a == b  # bit-exact through 17 significant digits


def test_dumps_special_tokens_and_types():
    assert serialize.dumps(float("nan")) == "NaN"
    assert serialize.dumps(float("inf")) == "Infinity"
    assert serialize.dumps(float("-inf")) == "-Infinity"
    assert serialize.dumps({"a": [1, True, None]}) == '{"a":[1,true,null]}'
    assert serialize.dumps(np.array([1.5])) == "[1.5]"
    assert serialize.dumps(np.int64(7)) == "7"
    with pytest.raises(TypeError):
        serialize.dumps(object())


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.floats()), max_size=6),
    indent=st.sampled_from([None, 2]),
)
def test_dumps_flat_numeric_lists_match_per_item_path(values, indent):
    # numpy scalars are not plain int/float, so this list takes the per-item path
    slow = [np.int64(v) if type(v) is int else np.float64(v) for v in values]
    for obj, ref in ((values, slow), ([values, {"k": values}], [slow, {"k": slow}])):
        assert serialize.dumps(obj, indent=indent) == serialize.dumps(ref, indent=indent)


def test_dumps_indent_layout():
    text = serialize.dumps({"a": [1, 2]}, indent=2)
    assert text == '{\n  "a": [\n    1,\n    2\n  ]\n}'
    assert serialize.dumps({}) == "{}"
    assert serialize.dumps([]) == "[]"


def test_space_round_trip_all_kinds():
    for space in (
        build_multigraph_space(3, 2),
        build_modular_space(5),
        build_generic_space(("x", "y", "z")),
    ):
        again = serialize.space_from_dict(serialize.space_to_dict(space))
        assert again == space
    with pytest.raises(ValueError):
        serialize.space_from_dict({"kind": "nope"})


def test_multigraph_round_trip_and_validation():
    space = build_multigraph_space(4, 2)
    g = space.decode(137)
    d = serialize.multigraph_to_dict(g)
    assert all(u > v for u, v, _ in d["dyads"])  # 1-based, row-major order
    assert serialize.multigraph_from_dict(d) == g

    shuffled = dict(d, dyads=list(reversed(d["dyads"])))
    assert serialize.multigraph_from_dict(shuffled) == g

    flipped = dict(d, dyads=[[v, u, m] for u, v, m in d["dyads"]])
    assert serialize.multigraph_from_dict(flipped) == g

    with pytest.raises(ValueError):
        serialize.multigraph_from_dict(dict(d, dyads=d["dyads"][:-1]))
    with pytest.raises(ValueError):
        serialize.multigraph_from_dict(dict(d, dyads=d["dyads"] + [d["dyads"][0]]))
    with pytest.raises(ValueError):
        serialize.multigraph_from_dict(dict(d, dyads=[[9, 1, 0]] + d["dyads"][1:]))


def test_family_round_trip():
    fam = builtin_family(build_multigraph_space(3, 1), "stability")
    again = serialize.family_from_dict(serialize.family_to_dict(fam))
    assert np.array_equal(again.sigma, fam.sigma)
    assert again.tag == "stability"


def test_family_sigma_must_be_json_integers():
    good = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert serialize.family_from_dict({"sigma": good}).sigma.tolist() == good
    bad = ([0, 1, 2.9], [0, 1, 2.0], [0, True, 2], [0, 1, "2"], [0, 1, None], 0,
           [0, 1, 3], [0, 1, -1], [0, 1, 2**70])
    for row0 in bad:
        with pytest.raises(ValueError, match='"sigma" must be a 2-D array of integer state indices'):
            serialize.family_from_dict({"sigma": [row0] + good[1:]})
    with pytest.raises(ValueError, match='"sigma" must be a 2-D array of integer state indices'):
        serialize.family_from_dict({"sigma": "0,1,2"})


def test_matrix_csv_and_json(tmp_path):
    P = models.density_chain(3, 0.3).matrix()
    csv_path = str(tmp_path / "m.csv")
    json_path = str(tmp_path / "m.json")
    serialize.save_matrix(csv_path, P)
    serialize.save_matrix(json_path, P)
    assert np.array_equal(serialize.load_matrix(csv_path).P, P.P)
    assert np.array_equal(serialize.load_matrix(json_path).P, P.P)

    bare = str(tmp_path / "bare.json")
    with open(bare, "w") as fp:
        json.dump(P.P.tolist(), fp)
    assert np.array_equal(serialize.load_matrix(bare).P, P.P)


def test_eta_round_trip_all_kinds():
    maps = [
        ParameterMap("natural", l=2),
        ParameterMap("scalar_log"),
        ParameterMap("density_logit", n=4),
        ParameterMap("table", l=1, thetas=(0.5, 1.0, 2.0), etas=((0.1,), (0.2,), (0.3,))),
    ]
    for pm in maps:
        again = serialize.eta_from_dict(serialize.eta_to_dict(pm))
        assert again.kind == pm.kind
        assert again.l == pm.l
        for theta in (pm.thetas or (1.0,)) if pm.kind != "density_logit" else (0.3,):
            probe = theta if pm.kind != "natural" else np.zeros(pm.l)
            assert np.allclose(again.evaluate(probe), pm.evaluate(probe))
    with pytest.raises(ValueError):
        serialize.eta_from_dict({"kind": "mystery"})


def test_cef_and_expfam_round_trip():
    cef = models.gani_cef()
    again = serialize.cef_from_dict(serialize.cef_to_dict(cef))
    assert again.space == cef.space
    assert np.array_equal(again.tau, cef.tau)
    assert np.array_equal(again.kappa, cef.kappa)

    fam = models.er_family(3)
    back = serialize.expfam_from_dict(serialize.expfam_to_dict(fam))
    assert back.space == fam.space
    assert np.array_equal(back.tau, fam.tau)
    assert back.eta.kind == "density_logit"


def test_factorization_round_trip():
    space = build_multigraph_space(3, 1)
    fact = factor_dyadditive(space, edge_total_table(space).astype(float)[:, None]).factorization
    d = serialize.factorization_to_dict(fact)
    again = serialize.factorization_from_dict(d)
    assert again.n == fact.n and again.t == fact.t
    assert np.allclose(again.tau_f, fact.tau_f)

    kappa_only = DyadicFactorization(n=3, t=1, kappa_f=np.ones((3, 2)))
    back = serialize.factorization_from_dict(serialize.factorization_to_dict(kappa_only))
    assert back.tau_f is None and np.allclose(back.kappa_f, 1.0)


def test_ermgm_round_trip_with_default_kappa():
    space = build_multigraph_space(3, 1)
    fact = factor_dyadditive(space, edge_total_table(space).astype(float)[:, None]).factorization
    model = from_factorization(fact, ParameterMap("natural", l=1))
    d = serialize.ermgm_to_dict(model)
    again = serialize.ermgm_from_dict(d)
    assert np.allclose(again.tau_f, model.tau_f)
    assert np.allclose(again.kappa_f, model.kappa_f)

    d.pop("kappa_f")
    filled = serialize.ermgm_from_dict(d)
    assert np.array_equal(filled.kappa_f, np.ones((num_dyads(3), 2)))


def test_readers_require_integer_size_fields():
    """Every *_from_dict reader takes n, t, l and dyad fields as JSON integers only."""
    graph = serialize.multigraph_to_dict(build_multigraph_space(3, 1).decode(5))
    fact = serialize.factorization_to_dict(DyadicFactorization(n=3, t=1, kappa_f=np.ones((3, 2))))
    cases = [
        (serialize.space_from_dict, {"kind": "multigraph", "n": 3, "t": 1}, ("n", "t")),
        (serialize.space_from_dict, {"kind": "modular", "n": 4}, ("n",)),
        (serialize.multigraph_from_dict, graph, ("n", "t")),
        (serialize.eta_from_dict, {"kind": "natural", "l": 2}, ("l",)),
        (serialize.eta_from_dict, {"kind": "density_logit", "n": 3}, ("n",)),
        (serialize.eta_from_dict,
         {"kind": "table", "l": 1, "thetas": [0.5], "etas": [0.1]}, ("l",)),
        (serialize.factorization_from_dict, fact, ("n", "t")),
        (serialize.ermgm_from_dict,
         {"n": 3, "t": 1, "eta": {"kind": "natural", "l": 1}, "tau_f": [[[0.0], [1.0]]] * 3},
         ("n", "t")),
    ]
    for reader, good, keys in cases:
        reader(good)
        for key in keys:
            for bad in (None, 3.0, 3.7, "3", True):
                with pytest.raises(ValueError, match=f'"{key}" must be an integer'):
                    reader(dict(good, **{key: bad}))
    for k, name in ((0, "dyad vertex"), (1, "dyad vertex"), (2, "dyad multiplicity")):
        for bad in (None, 1.0, "1", True):
            dyads = [list(d) for d in graph["dyads"]]
            dyads[0][k] = bad
            with pytest.raises(ValueError, match=f'"{name}" must be an integer'):
                serialize.multigraph_from_dict(dict(graph, dyads=dyads))
    with pytest.raises(ValueError, match='"n" must be an integer'):
        serialize.cef_from_dict(dict(serialize.cef_to_dict(models.gani_cef()),
                                     space={"kind": "modular", "n": 3.0}))


def test_states_jsonl_round_trip(tmp_path):
    space = build_multigraph_space(3, 1)
    states = np.array([0, 7, 3, 5])
    path = str(tmp_path / "t.jsonl")
    serialize.write_states_jsonl(path, space, states)
    kind, space2, back = serialize.read_states_jsonl(path)
    assert kind == "trajectory" and space2 == space
    assert np.array_equal(back, states)

    lines = open(path).read().splitlines()
    assert json.loads(lines[0])["kind"] == "trajectory"
    assert [json.loads(l)["i"] for l in lines[1:]] == [0, 1, 2, 3]


def test_states_jsonl_expand_dyads(tmp_path):
    space = build_multigraph_space(3, 2)
    path = str(tmp_path / "e.jsonl")
    serialize.write_states_jsonl(path, space, [11], expand=True)
    rec = json.loads(open(path).read().splitlines()[1])
    g = space.decode(11)
    assert serialize.multigraph_from_dict({"n": 3, "t": 2, "dyads": rec["dyads"]}) == g

    with pytest.raises(ValueError):
        serialize.write_states_jsonl(
            str(tmp_path / "bad.jsonl"), build_modular_space(3), [0], expand=True
        )


def test_states_jsonl_rejects_out_of_range(tmp_path):
    space = build_multigraph_space(3, 1)
    path = str(tmp_path / "r.jsonl")
    serialize.write_states_jsonl(path, space, [0, 99])
    with pytest.raises(ValueError):
        serialize.read_states_jsonl(path)


def test_states_jsonl_rejects_swapped_and_gapped_lines(tmp_path):
    space = build_multigraph_space(3, 1)
    path = str(tmp_path / "ok.jsonl")
    serialize.write_states_jsonl(path, space, [0, 7, 3, 5])
    header, *records = open(path).read().splitlines()
    swapped = [records[0], records[2], records[1], records[3]]
    gapped = [records[0], records[1], records[3]]
    for name, body in (("swapped", swapped), ("gapped", gapped)):
        bad = str(tmp_path / f"{name}.jsonl")
        with open(bad, "w") as fp:
            fp.write("\n".join([header, *body]) + "\n")
        with pytest.raises(ValueError, match=r'"i": 1|"i": 2'):
            serialize.read_states_jsonl(bad)


def test_trajectory_kind_check(tmp_path):
    space = build_multigraph_space(3, 1)
    traj = Trajectory(space=space, states=np.array([0, 1, 5]))
    path = str(tmp_path / "traj.jsonl")
    serialize.write_trajectory(path, traj)
    again = serialize.read_trajectory(path)
    assert np.array_equal(again.states, traj.states)

    other = str(tmp_path / "draws.jsonl")
    serialize.write_states_jsonl(other, space, [0, 1], kind="draws")
    with pytest.raises(ValueError):
        serialize.read_trajectory(other)


def _reference_state_lines(space, states, expand):
    """The state lines pumc writes, built with plain json."""
    lines = []
    for i, s in enumerate(states):
        rec = {"i": i, "state": int(s)}
        if expand:
            rec["dyads"] = [
                [u + 1, v + 1, int(m)]
                for (u, v), m in zip([(u, v) for u in range(1, space.n) for v in range(u)],
                                     space.decode(int(s)).counts)
            ]
        lines.append(json.dumps(rec, separators=(",", ":")) + "\n")
    return lines


# Each example writes up to 2 * CHUNK + 3 lines, so a failure is reported
# unshrunk rather than rerun hundreds of times.
@settings(max_examples=12, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    length=st.sampled_from([1, serialize.CHUNK - 1, serialize.CHUNK, serialize.CHUNK + 1,
                            2 * serialize.CHUNK + 3]),
    expand=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    blanks=st.lists(st.integers(0, 3 * serialize.CHUNK), max_size=8),
)
def test_states_jsonl_round_trip_across_chunks(tmp_path_factory, length, expand, seed, blanks):
    space = build_multigraph_space(4, 1)
    states = np.random.default_rng(seed).integers(0, space.size, length)
    path = str(tmp_path_factory.mktemp("chunks") / "t.jsonl")
    serialize.write_states_jsonl(path, space, states, expand=expand)
    header, *lines = open(path).read().splitlines(keepends=True)
    reference = _reference_state_lines(space, states, expand)
    assert len(lines) == len(reference)
    assert next((k for k, (a, b) in enumerate(zip(lines, reference)) if a != b), None) is None

    for at in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), "\n" if at % 2 else "  \n")
    with open(path, "w") as fp:
        fp.write(header + "".join(lines))
    kind, again, back = serialize.read_states_jsonl(path)
    assert kind == "trajectory" and again == space
    assert np.array_equal(back, states)


def test_states_jsonl_bad_record_in_second_chunk_reports_its_line(tmp_path):
    space = build_multigraph_space(3, 1)
    path = str(tmp_path / "t.jsonl")
    serialize.write_states_jsonl(path, space, np.zeros(serialize.CHUNK + 50, dtype=int))
    header, *lines = open(path).read().splitlines(keepends=True)
    lines[3:3] = ["\n", "\n"]  # blank lines in the first chunk still count
    bad = serialize.CHUNK + 20  # index into lines: second chunk
    lines[bad] = lines[bad].replace('"state":0', '"state":8')
    with open(path, "w") as fp:
        fp.write(header + "".join(lines))
    with pytest.raises(ValueError, match=rf":{bad + 2}: state index 8 out of range"):
        serialize.read_states_jsonl(path)

    lines[bad] = "{not json\n"
    with open(path, "w") as fp:
        fp.write(header + "".join(lines))
    with pytest.raises(ValueError, match=rf":{bad + 2}: "):
        serialize.read_states_jsonl(path)


def test_states_jsonl_rejects_non_integer_fields(tmp_path):
    space = build_multigraph_space(3, 1)
    header = json.dumps({"kind": "trajectory", "space": serialize.space_to_dict(space)})
    for rest in ('{"i":1,"state":2.7}', '{"i":true,"state":2}', '{"i":1.0,"state":2}',
                 '{"i":1,"state":"2"}', '{"i":1,"state":true}', '{"i":1}', '[1,2]'):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fp:
            fp.write("\n".join([header, '{"i":0,"state":1}', rest, '{"i":2,"state":3}']) + "\n")
        with pytest.raises(ValueError, match=":3: "):
            serialize.read_states_jsonl(path)


def test_states_jsonl_rejects_records_that_straddle_lines(tmp_path):
    # Joined into one array these lines parse as three sequential records,
    # but the first record spans two lines and the last line holds two.
    space = build_multigraph_space(3, 1)
    header = json.dumps({"kind": "trajectory", "space": serialize.space_to_dict(space)})
    body = ['{"i":0,"x":[{}', '{}],"state":1}', '{"i":1,"state":2},{"i":2,"state":3}']
    path = str(tmp_path / "straddle.jsonl")
    with open(path, "w") as fp:
        fp.write("\n".join([header, *body]) + "\n")
    with pytest.raises(ValueError, match=":2: "):
        serialize.read_states_jsonl(path)


def test_states_jsonl_reader_memory_stays_bounded(tmp_path):
    space = build_multigraph_space(4, 1)
    states = np.random.default_rng(3).integers(0, space.size, 200_000)
    path = str(tmp_path / "big.jsonl")
    serialize.write_states_jsonl(path, space, states)
    tracemalloc.start()
    try:
        _, _, back = serialize.read_states_jsonl(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, states)
    assert peak <= 8 * 2**20, f"reader peak {peak / 2**20:.1f} MiB"
