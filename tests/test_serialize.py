import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from pumc.netstat import factor_dyadditive
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
    cases = [
        (serialize.space_from_dict, {"kind": "multigraph", "n": 3, "t": 1}, ("n", "t")),
        (serialize.space_from_dict, {"kind": "modular", "n": 4}, ("n",)),
        (serialize.multigraph_from_dict, graph, ("n", "t")),
        (serialize.eta_from_dict, {"kind": "natural", "l": 2}, ("l",)),
        (serialize.eta_from_dict, {"kind": "density_logit", "n": 3}, ("n",)),
        (serialize.eta_from_dict,
         {"kind": "table", "l": 1, "thetas": [0.5], "etas": [0.1]}, ("l",)),
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


def _with_first_leaf(value, leaf):
    """A copy of a nested list with its first scalar replaced by leaf."""
    if type(value) is list:
        return [_with_first_leaf(value[0], leaf), *value[1:]]
    return leaf


def test_readers_require_number_arrays():
    """tau_f, kappa_f, thetas and etas take JSON numbers only, never strings or booleans."""
    model = {"n": 3, "t": 1, "eta": {"kind": "natural", "l": 1},
             "tau_f": [[[0.0], [1.0]]] * 3, "kappa_f": [[1.0, 1.0]] * 3}
    cases = [
        (serialize.ermgm_from_dict, model, ("tau_f", "kappa_f")),
        (serialize.eta_from_dict, {"kind": "table", "l": 1, "thetas": [0.5], "etas": [[0.1]]},
         ("thetas", "etas")),
    ]
    for reader, good, keys in cases:
        reader(good)
        for key in keys:
            for bad in ("0.5", True, None):
                with pytest.raises(ValueError, match=f'"{key}" must be an array of JSON numbers'):
                    reader(dict(good, **{key: _with_first_leaf(good[key], bad)}))
            with pytest.raises(ValueError, match=f'"{key}" must be an array of JSON numbers'):
                reader(dict(good, **{key: "1"}))


def test_states_jsonl_round_trip(tmp_path):
    space = build_multigraph_space(3, 1)
    states = np.array([0, 7, 3, 5])
    path = str(tmp_path / "t.jsonl")
    serialize.write_states_jsonl(path, space, states)
    kind, space2, back = serialize.read_states_jsonl(path)
    assert kind == "trajectory" and space2 == space
    assert np.array_equal(back, states)

    lines = Path(path).read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "trajectory"
    assert [json.loads(l)["i"] for l in lines[1:]] == [0, 1, 2, 3]


def test_states_jsonl_expand_dyads(tmp_path):
    space = build_multigraph_space(3, 2)
    path = str(tmp_path / "e.jsonl")
    serialize.write_states_jsonl(path, space, [11], expand=True)
    rec = json.loads(Path(path).read_text().splitlines()[1])
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
    for expand in (False, True):
        with pytest.raises(ValueError, match="state index out of range"):
            serialize.write_states_jsonl(path, space, [0, -1], expand=expand)


def test_states_jsonl_rejects_swapped_and_gapped_lines(tmp_path):
    space = build_multigraph_space(3, 1)
    path = str(tmp_path / "ok.jsonl")
    serialize.write_states_jsonl(path, space, [0, 7, 3, 5])
    header, *records = Path(path).read_text().splitlines()
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
    header, *lines = Path(path).read_text().splitlines(keepends=True)
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
    header, *lines = Path(path).read_text().splitlines(keepends=True)
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
                 '{"i":1,"state":"2"}', '{"i":1,"state":true}', '{"i":1}', '[1,2]',
                 '{"i":null,"state":null}'):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fp:
            fp.write("\n".join([header, '{"i":0,"state":1}', rest, '{"i":2,"state":3}']) + "\n")
        with pytest.raises(ValueError, match=":3: "):
            serialize.read_states_jsonl(path)
    # A chunk that opens like a state line but holds no digit at all.
    with open(path, "w") as fp:
        fp.write(header + '\n{"i":null,"state":null}\n')
    with pytest.raises(ValueError, match=":2: "):
        serialize.read_states_jsonl(path)


def test_states_jsonl_rejects_records_that_straddle_lines(tmp_path):
    # Each record must open and close on its own line: here the first record
    # spans two lines and the last line holds two, though the braces balance.
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


@settings(max_examples=80, deadline=None)
@given(
    # first offsets whose chunk crosses a digit-count boundary (9 -> 10, 99999 -> 100000)
    first=st.sampled_from([0, 1, 5, 95, 99_990, 99_999, 10**12 - 3]) | st.integers(0, 10**15),
    states=st.lists(st.sampled_from([0, 9, 10, 99, 100, 2**62 - 1]) | st.integers(0, 2**62 - 1),
                    max_size=20),
)
def test_render_lines_matches_the_template(first, states):
    expected = "".join(serialize._STATE_LINE % row for row in zip(range(first, first + len(states)), states))
    assert serialize._render_lines(first, np.array(states, dtype=np.int64)) == expected.encode()


# Pieces between slots; equal-length but different pieces join one run.
_PIECES = st.sampled_from(["", ",", "\n  ", "],[9,8,", "],[10,1,", "],[3,1,", "]]}\n", '{"i":'])
_VALUES = st.sampled_from([0, 9, 10, 99, 100, 2**63 - 1, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@settings(max_examples=150, deadline=None)
@given(pieces=st.lists(_PIECES, min_size=1, max_size=7), data=st.data())
def test_render_rows_matches_percent_formatting(pieces, data):
    template, k = "%d".join(pieces), len(pieces) - 1
    rows = data.draw(st.lists(st.lists(_VALUES, min_size=k, max_size=k), max_size=5))
    expected = "".join(template % tuple(row) for row in rows).encode()
    values = np.array(rows, dtype=np.uint64).reshape(len(rows), k)
    assert serialize._render_rows(template, values) == expected
    if values.size and values.max() < 2**63:
        assert serialize._render_rows(template, values.astype(np.int64)) == expected


def test_expand_lines_on_one_vertex_match_plain_json(tmp_path):
    """G(1, t) has one state and no dyads: every line carries "dyads":[]."""
    for t in (1, 3):
        space = build_multigraph_space(1, t)
        path = tmp_path / f"one{t}.jsonl"
        serialize.write_states_jsonl(str(path), space, [0] * 12, expand=True)
        lines = path.read_text().splitlines(keepends=True)[1:]
        assert lines == _reference_state_lines(space, [0] * 12, True)
        assert serialize.read_states_jsonl(str(path))[2].tolist() == [0] * 12


def test_states_jsonl_round_trip_on_the_largest_modular_space(tmp_path, monkeypatch):
    space = build_modular_space(2**62)
    states = [0, 2**62 - 1, 9, 10, 0, 2**62 - 1]
    path = tmp_path / "z.jsonl"
    serialize.write_states_jsonl(str(path), space, states)
    body = path.read_text().split("\n", 1)[1]
    assert body == "".join(serialize._STATE_LINE % row for row in enumerate(states))
    # Canonical bytes never reach the per-line JSON parser.
    monkeypatch.setattr(serialize, "_check_lines", None)
    kind, again, back = serialize.read_states_jsonl(str(path))
    assert again == space and back.tolist() == states


def _read_line_by_line(path):
    """read_states_jsonl's result through _check_lines alone: states, or the error text."""
    with open(path) as fp:
        space = serialize.space_from_dict(json.loads(fp.readline())["space"])
        try:
            return serialize._check_lines(path, list(fp), 2, 0, space.size)
        except ValueError as exc:
            return str(exc)


EDITS = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(0, 2**16),
    st.sampled_from(["-", " ", "\r\n", "\r", "\n", "0", "7", "{", "}", '"', ",", ":", ".", "e", "x"]),
)


@settings(max_examples=150, deadline=None)
@given(
    states=st.lists(st.integers(0, 12), min_size=1, max_size=14),
    edits=st.lists(EDITS, min_size=1, max_size=3),
    chunk=st.sampled_from([1, 3, serialize.CHUNK]),
)
def test_edited_state_files_read_as_the_per_line_checks_do(tmp_path_factory, states, edits, chunk):
    # states up to 12 on an 8-state space: some files are out of range as written
    file = tmp_path_factory.mktemp("edits") / "t.jsonl"
    path = str(file)
    serialize.write_states_jsonl(path, build_multigraph_space(3, 1), states)
    header, body = file.read_bytes().split(b"\n", 1)
    for op, at, text in edits:
        at %= len(body) + (op == "insert")
        body = body[:at] + (text.encode() if op != "delete" else b"") + body[at + (op != "insert"):]
    file.write_bytes(header + b"\n" + body)
    expected = _read_line_by_line(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "CHUNK", chunk)
        try:
            got = serialize.read_states_jsonl(path)[2].tolist()
        except ValueError as exc:
            got = str(exc)
    assert got == expected


# ------------------------------------------------ load_json's number memo

_NUMBER_TEXTS = st.one_of(
    st.integers().map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "-0.0", "0.0", "1e400", "-1e400", "1E-400", "2.5E+3",
                     "NaN", "Infinity", "-Infinity", "9" * 4300, "9" * 4301]),
)
_JSON_TEXTS = st.recursive(
    _NUMBER_TEXTS | st.sampled_from(["true", "false", "null"]) | st.text(max_size=3).map(json.dumps),
    lambda inner: (
        st.lists(inner, max_size=5).map(lambda xs: "[" + ",".join(xs) + "]")
        | st.dictionaries(st.text(max_size=3), inner, max_size=3).map(
            lambda d: "{" + ",".join(json.dumps(k) + ": " + v for k, v in d.items()) + "}")
    ),
    max_leaves=40,
)


def _loaded(load, arg):
    """repr of what load(arg) returns (repr tells 1 from 1.0 and -0.0 from 0.0), or its exception."""
    try:
        return "value", repr(load(arg))
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)


def _assert_loads_alike(path, text):
    with open(path, "w") as fp:
        fp.write(text)
    assert _loaded(serialize.load_json, path) == _loaded(json.loads, text)


@settings(max_examples=300, deadline=None)
@given(text=_JSON_TEXTS, cut=st.none() | st.integers(0, 60))
def test_load_json_returns_what_json_loads_returns(tmp_path_factory, text, cut):
    """Nested values, repeated numbers, ints past 4300 digits and, cut short, malformed text."""
    _assert_loads_alike(tmp_path_factory.mktemp("j") / "v.json", text if cut is None else text[:cut])


@pytest.mark.parametrize("extra", [0, 1])
def test_load_json_memo_budget_boundary(tmp_path, monkeypatch, extra):
    """A 4-row table has 5 "["; 5 distinct float texts parse in one pass, 6 fall back
    to a second. Integers keep json's own conversion and do not count."""
    floats = ["0.5", "-0.0", "1e400", "0.50", "1.0", "1E-3"][:5 + extra]
    cells = (floats + ["1", "-0", "100000000000000000000"]) * 3
    text = "{\"matrix\": [" + ",".join("[" + ",".join(cells[r::4]) + "]" for r in range(4)) + "]}"
    calls = []
    plain = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(k) or plain(*a, **k))
    _assert_loads_alike(tmp_path / "t.json", text)
    assert len(calls) == 1 + 1 + extra  # the reference parse, then load_json's one or two


def test_load_json_all_distinct_matrix_falls_back(tmp_path, monkeypatch):
    P = np.random.default_rng(2).random((8, 8))
    P /= P.sum(axis=1, keepdims=True)
    path = str(tmp_path / "r.json")
    with open(path, "w") as fp:
        json.dump({"matrix": P.tolist()}, fp)
    calls = []
    plain = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(k) or plain(*a, **k))
    assert np.array_equal(serialize.load_matrix(path).P, P)
    assert [sorted(k) for k in calls] == [["parse_float"], []]


# ------------------------------------------- 2-D integer arrays as a block

def _nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


_INT_TABLES = [
    np.array([[9, 10], [99, 100]]),
    np.array([[0]]),
    np.array([[-1, 5], [-100, 99], [0, -10]]),
    np.arange(-3, 4).reshape(1, 7),
    np.arange(999, 1004).reshape(5, 1),
    np.zeros((0, 3), dtype=np.int64),
    np.zeros((3, 0), dtype=np.int64),
    np.zeros((0, 0), dtype=np.int64),
    np.array([[-128, 127], [0, -1]], dtype=np.int8),
    np.array([[65535, 0], [9, 10]], dtype=np.uint16),
    np.array([[-2**63, 2**63 - 1]], dtype=np.int64),
    np.array([[2**64 - 1, 0]], dtype=np.uint64),
]


@pytest.mark.parametrize("table", _INT_TABLES, ids=lambda t: f"{t.dtype}{t.shape}")
def test_int_tables_render_as_their_tolist(table):
    for indent in (None, 2):
        for depth in range(4):
            block = serialize.dumps(_nested(table, depth), indent=indent)
            assert block == serialize.dumps(_nested(table.tolist(), depth), indent=indent)


@settings(max_examples=150, deadline=None)
@given(
    table=hnp.arrays(
        dtype=st.sampled_from([np.int8, np.uint16, np.int64, np.uint64]),
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
    ),
    indent=st.sampled_from([None, 0, 2]),
    depth=st.integers(0, 3),
)
def test_int_tables_render_as_their_tolist_for_any_values(table, indent, depth):
    payload = {"sigma": _nested(table, depth)}
    assert serialize.dumps(payload, indent=indent) == serialize.dumps(
        {"sigma": _nested(table.tolist(), depth)}, indent=indent)


def test_family_sigma_past_int64_is_out_of_range():
    good = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    for row0 in ([0, 1, -2**63 - 1], [-1, 1, 2**63], [0, 1, 2**63], [0, 2**64, 1]):
        with pytest.raises(ValueError, match='"sigma" must be a 2-D array of integer state indices'):
            serialize.family_from_dict({"sigma": [row0] + good[1:]})
