"""Malformed input driven through cli.main in process.

Every run must end in exit 0, 2 or 3, and an exit 2 must print exactly one
"error: " line: no traceback, no exit 1, no allocation past the budget.
Sizes are drawn either small enough to run quickly or far past a cap, so no
example builds a large table.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from pumc.cli import main

HUGE = [2 ** 27, 10 ** 12, 10 ** 30]
SIZES = st.sampled_from([-3, -1, 0, 1, 2, 3, *HUGE])
# Values that stand where a JSON number belongs.
JUNK_SCALARS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), True, False, None, "0.5", "", -1, 0, 1, *HUGE]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10 ** 30), 10 ** 30),
    st.text(max_size=4),
)
JUNK = st.recursive(
    JUNK_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

MATRIX = {"matrix": [[0.5, 0.5], [0.25, 0.75]]}
MODEL = {"n": 3, "t": 1, "tau_f": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]], "eta": {"kind": "natural"}}
HEADER = {"kind": "trajectory", "space": {"kind": "multigraph", "n": 3, "t": 1}}
STATES = [{"i": 0, "state": 1}, {"i": 1, "state": 6}, {"i": 2, "state": 3}]


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), (argv, code, lines)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return code


def _replace(doc, path, value):
    """A deep copy of doc with the entry at `path` (a key/index list) set to value."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w") as fp:
        fp.write(text)
    return path


def _document(data, base, paths):
    """The base document with one entry swapped for junk, or cut short."""
    text = json.dumps(_replace(base, data.draw(st.sampled_from(paths)), data.draw(JUNK)))
    if data.draw(st.booleans()):
        text = text[: data.draw(st.integers(0, len(text)))]
    return text


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_malformed_files_exit_cleanly(data):
    kind = data.draw(st.sampled_from(["matrix", "model", "trajectory", "family", "pmf", "config"]))
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "out.jsonl")
        if kind == "matrix":
            path = _write(d, "m.json", _document(data, MATRIX, [[], ["matrix"], ["matrix", 0], ["matrix", 0, 1]]))
            run("detect", "--matrix", path)
            run("simulate", "--model", "custom", "--matrix", path, "--steps", 5, "--seed", 1, "--out", out)
        elif kind == "model":
            paths = [[], ["n"], ["t"], ["tau_f"], ["tau_f", 1], ["tau_f", 1, 1], ["eta"], ["eta", "kind"], ["kappa_f"]]
            path = _write(d, "model.json", _document(data, MODEL, paths))
            run("partition", "--model", path, "--theta", "0.5,-1", "--brute")
            run("sample", "--model", path, "--theta", 0.5, "--seed", 2, "--count", 3)
        elif kind == "trajectory":
            header = _document(data, HEADER, [[], ["kind"], ["space"], ["space", "n"], ["space", "t"], ["space", "kind"]])
            lines = [json.dumps(s) for s in STATES]
            lines[1] = _document(data, STATES[1], [[], ["i"], ["state"]])
            path = _write(d, "t.jsonl", "\n".join([header, *lines]) + "\n")
            run("fit", "--traj", path, "--stat", "stability")
            run("transform", "--traj", path, "--direction", "chain2iid", "--family", "stability",
                "--expand", "--out", out)
            run("diagnose", "--traj", path, "--stat", "density", "--p", 0.3)
        elif kind == "family":
            base = {"sigma": [[0, 1], [1, 0]], "tag": "swap"}
            fam = _write(d, "fam.json", _document(data, base, [[], ["sigma"], ["sigma", 1], ["sigma", 1, 0]]))
            traj = _write(d, "t.jsonl", json.dumps({"kind": "trajectory", "space": {"kind": "modular", "n": 2}})
                          + '\n{"i":0,"state":1}\n{"i":1,"state":0}\n')
            run("transform", "--traj", traj, "--direction", "chain2iid", "--family", fam, "--out", out)
        elif kind == "pmf":
            base = {"p": [0.125] * 8}
            path = _write(d, "mu.json", _document(data, base, [[], ["p"], ["p", 3]]))
            run("exchangeability", "--model", "custom", "--n", 3, "--mu", path)
        else:
            base = {"n": 3, "p": 0.3, "steps": 5, "seed": 1, "x0": 0, "expand": True}
            path = _write(d, "c.json", _document(data, base, [[], ["n"], ["p"], ["steps"], ["seed"], ["x0"], ["expand"]]))
            run("simulate", "--model", "stability", "--n", 3, "--p", 0.3, "--steps", 5, "--seed", 1,
                "--out", out, "--config", path)


@given(
    command=st.sampled_from(["density", "stability", "modular", "exchangeability", "sample", "reciprocity",
                             "diagnose", "detect"]),
    n=SIZES,
    steps=st.sampled_from([-1, 0, 5, *HUGE]),
    count=st.sampled_from([-1, 0, 1, 3, *HUGE]),
    p=st.sampled_from([float("nan"), float("inf"), -1.0, 0.0, 0.3, 1.0, 2.0]),
    seed=st.sampled_from([-1, 0, 7, 10 ** 30]),
    x0=st.sampled_from([-1, 0, 5, 10 ** 30]),
)
@settings(max_examples=80, deadline=None)
def test_extreme_sizes_exit_cleanly(command, n, steps, count, p, seed, x0):
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "out.jsonl")
        if command in ("density", "stability", "modular"):
            code = run("simulate", "--model", command, "--n", n, "--p", p, "--steps", steps, "--seed", seed,
                       "--x0", x0, "--expand", "--out", out)
        elif command == "exchangeability":
            code = run("exchangeability", "--model", "stability", "--n", n, "--p", p)
        elif command == "sample":
            model = dict(MODEL, n=n) if n > 3 else MODEL
            path = _write(d, "model.json", json.dumps(model))
            code = run("sample", "--model", path, "--theta", p, "--seed", seed, "--count", count, "--out", out)
        elif command == "detect":
            path = _write(d, "m.json", json.dumps(MATRIX))
            code = run("detect", "--matrix", path, f"--tol={p}")
            assert code == (0 if p >= 0 and math.isfinite(p) else 2)
        else:
            traj = _write(d, "t.jsonl", json.dumps(HEADER) + '\n{"i":0,"state":1}\n{"i":1,"state":6}\n')
            if command == "reciprocity":
                code = run("diagnose", "--traj", traj, "--stat", "reciprocity", "--n", n, "--target", 1)
                assert code == 2  # an 8-state trajectory is no directed space
            else:
                code = run("diagnose", "--traj", traj, "--stat", "stability", "--p", p)
                assert run("diagnose", "--traj", traj, "--stat", "density", "--target", p) == code
        if command in ("density", "stability", "exchangeability", "sample", "diagnose") and not math.isfinite(p):
            assert code == 2
