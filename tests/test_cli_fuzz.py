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
TABLE_MODEL = dict(MODEL, eta={"kind": "table", "thetas": [0.5, -1.0], "etas": [[0.5], [-1.0]]})
HEADER = {"kind": "trajectory", "space": {"kind": "multigraph", "n": 3, "t": 1}}
GENERIC_HEADER = {"kind": "trajectory", "space": {"kind": "generic", "labels": ["a", "b", "c"]}}
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
    with open(path, "wb" if isinstance(text, bytes) else "w") as fp:
        fp.write(text)
    return path


def _document(data, base, paths):
    """The base document with one entry swapped for junk, or cut short."""
    text = json.dumps(_replace(base, data.draw(st.sampled_from(paths)), data.draw(JUNK)))
    if data.draw(st.booleans()):
        text = text[: data.draw(st.integers(0, len(text)))]
    return text


FAMILY = {"sigma": [[0, 1], [1, 0]], "tag": "swap"}
PMF = {"p": [0.125] * 8}
CONFIG = {"n": 3, "p": 0.3, "steps": 5, "seed": 1, "x0": 0, "expand": True}


def _lines(header, states):
    return "\n".join(json.dumps(line) for line in [header, *states]) + "\n"


# Per file kind: its file name, a valid text (with integer entries in its
# number arrays, where an edit can make a huge integer), and the commands
# that read it.
KINDS = {
    "matrix": ("m.json", json.dumps({"matrix": [[1, 0], [0.25, 0.75]]}), lambda path, out: [
        ("detect", "--matrix", path),
        ("simulate", "--model", "custom", "--matrix", path, "--steps", 5, "--seed", 1, "--out", out),
    ]),
    "model": ("model.json", json.dumps(dict(TABLE_MODEL, tau_f=[[0, 1]] * 3, kappa_f=[[1, 2]] * 3, eta={
        "kind": "table", "thetas": [0.5, -1], "etas": [[0.5], [-1]]})), lambda path, out: [
        ("partition", "--model", path, "--theta", "0.5,-1", "--brute"),
        ("sample", "--model", path, "--theta", 0.5, "--seed", 2, "--count", 3),
    ]),
    "trajectory": ("t.jsonl", _lines(HEADER, STATES), lambda path, out: [
        ("fit", "--traj", path, "--stat", "stability"),
        ("transform", "--traj", path, "--direction", "chain2iid", "--family", "stability", "--expand", "--out", out),
        ("diagnose", "--traj", path, "--stat", "density", "--p", 0.3),
    ]),
    "generic_trajectory": ("t.jsonl", _lines(GENERIC_HEADER, STATES[:1] + [{"i": 1, "state": 2}]), lambda path, out: [
        ("transform", "--traj", path, "--direction", "chain2iid", "--family", "identity", "--out", out),
        ("fit", "--traj", path, "--stat", "density"),
    ]),
    "family": ("fam.json", json.dumps(FAMILY), lambda path, out: [
        ("transform", "--traj", _write(os.path.dirname(out), "pair.jsonl", _lines(
            {"kind": "trajectory", "space": {"kind": "modular", "n": 2}}, [{"i": 0, "state": 1}, {"i": 1, "state": 0}])),
         "--direction", "chain2iid", "--family", path, "--out", out),
    ]),
    "pmf": ("mu.json", json.dumps({"p": [0.5, 0, 0, 0.5, 0, 0, 0, 0]}), lambda path, out: [
        ("exchangeability", "--model", "custom", "--n", 3, "--mu", path),
    ]),
    "config": ("c.json", json.dumps(CONFIG), lambda path, out: [
        ("simulate", "--model", "stability", "--n", 3, "--p", 0.3, "--steps", 5, "--seed", 1, "--out", out,
         "--config", path),
    ]),
}


def _run_kind(kind, directory, text):
    """Write text as the kind's file and run every command that reads it."""
    name, _, commands = KINDS[kind]
    path = _write(directory, name, text)
    for argv in commands(path, os.path.join(directory, "out.jsonl")):
        run(*argv)


@given(st.data())
@settings(max_examples=140, deadline=None)
def test_malformed_files_exit_cleanly(data):
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    if kind == "matrix":
        text = _document(data, MATRIX, [[], ["matrix"], ["matrix", 0], ["matrix", 0, 1]])
    elif kind == "model":
        base, paths = data.draw(st.sampled_from([
            (MODEL, [[], ["n"], ["t"], ["tau_f"], ["tau_f", 1], ["tau_f", 1, 1], ["eta"], ["eta", "kind"], ["kappa_f"]]),
            (TABLE_MODEL, [["eta", "thetas"], ["eta", "thetas", 1], ["eta", "etas"], ["eta", "etas", 1, 0]]),
        ]))
        text = _document(data, base, paths)
    elif kind == "generic_trajectory":
        header = _document(data, GENERIC_HEADER, [["space", "labels"], ["space", "labels", 1]])
        text = header + '\n{"i":0,"state":1}\n{"i":1,"state":2}\n'
    elif kind == "trajectory":
        header = _document(data, HEADER, [[], ["kind"], ["space"], ["space", "n"], ["space", "t"], ["space", "kind"]])
        lines = [json.dumps(s) for s in STATES]
        lines[1] = _document(data, STATES[1], [[], ["i"], ["state"]])
        text = "\n".join([header, *lines]) + "\n"
    elif kind == "family":
        text = _document(data, FAMILY, [[], ["sigma"], ["sigma", 1], ["sigma", 1, 0]])
    elif kind == "pmf":
        text = _document(data, PMF, [[], ["p"], ["p", 3]])
    else:
        text = _document(data, CONFIG, [[], ["n"], ["p"], ["steps"], ["seed"], ["x0"], ["expand"]])
    with tempfile.TemporaryDirectory() as d:
        _run_kind(kind, d, text)


@st.composite
def _raw_edits(draw, text: bytes) -> bytes:
    """text cut at a byte, or with a run of "[", a 300-5000-digit integer or one flipped bit at a byte."""
    # Half the edits land where a value starts, so an inserted integer often stands alone.
    starts = [i for i in range(1, len(text)) if text[i - 1] in b"[ ,-:"]
    at = draw(st.integers(0, len(text)) | st.sampled_from(starts))
    edit = draw(st.sampled_from(["cut", "brackets", "integer", "flip"]))
    if edit == "cut":
        return text[:at]
    if edit == "brackets":
        return text[:at] + b"[" * draw(st.integers(1, 10 ** 5)) + text[at:]
    if edit == "integer":
        digits = str(draw(st.integers(1, 9))).encode() + draw(st.sampled_from([b"0", b"7", b"9"])) * draw(
            st.integers(299, 4999))
        return text[:at] + digits + text[at:]
    at = min(at, len(text) - 1)
    return text[:at] + bytes([text[at] ^ 1 << draw(st.integers(0, 7))]) + text[at + 1:]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_raw_byte_edits_exit_cleanly(data):
    """Valid files of every kind with their bytes edited: deep nesting, integers past
    the float range and bytes that are not UTF-8 exit 2 with one line, like any other
    malformed text."""
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    text = data.draw(_raw_edits(KINDS[kind][1].encode()))
    with tempfile.TemporaryDirectory() as d:
        _run_kind(kind, d, text)


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
            code = run("exchangeability", "--model", "density", "--n", n, "--p", p)
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
