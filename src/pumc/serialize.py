"""File formats: JSON object schemas, JSONL state streams, dense matrices.

All floats are emitted with 17 significant digits so every value round-trips
bit-exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import re
import warnings
from functools import partial
from itertools import chain, islice
from math import isfinite, isqrt
from typing import IO

import numpy as np

from .core import (
    DENSE_ENTRY_CAP,
    GENERIC,
    MODULAR,
    MULTIGRAPH,
    Multigraph,
    PermutationFamily,
    Pmf,
    StateSpace,
    StochasticMatrix,
    build_generic_space,
    build_modular_space,
    build_multigraph_space,
    canonical_dyads,
    dyad_counts,
    dyad_index,
    num_dyads,
)
from .expfam import ParameterMap
from .ermgm import ErmgmModel
from .puniform import Trajectory


def _format_float(x: float) -> str:
    if not isfinite(x):
        raise TypeError(f"cannot serialize the non-finite float {x!r}")
    return format(x, ".17g")


def dumps(obj, indent: int | None = None) -> str:
    """Serialize to JSON with 17 significant digits on every float."""
    out: list[str] = []
    _emit(obj, out, indent, 0)
    return "".join(out)


def _emit(obj, out: list, indent, depth):
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif _is_int_table(obj):
        _int_table(obj, out.append, indent, depth)
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out, indent, depth)
    elif isinstance(obj, dict):
        _emit_items(
            ((json.dumps(str(k)) + (": " if indent else ":")) for k in obj),
            obj.values(), "{}", out, indent, depth,
        )
    elif isinstance(obj, (list, tuple)):
        _emit_items(("" for _ in obj), obj, "[]", out, indent, depth)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_items(prefixes, values, braces, out, indent, depth):
    values = list(values)
    if not values:
        out.append(braces)
        return
    out.append(braces[0])
    pad, closing = _padding(indent, depth)
    for i, (prefix, value) in enumerate(zip(prefixes, values)):
        out.append(("," if i else "") + pad + prefix)
        _emit(value, out, indent, depth + 1)
    out.append(closing + braces[1])


def _padding(indent, depth) -> tuple[str, str]:
    """Text before each item and before the closing brace at this depth."""
    if not indent:
        return "", ""
    return "\n" + " " * (indent * (depth + 1)), "\n" + " " * (indent * depth)


def _is_int_table(obj) -> bool:
    """A 2-D array of integers >= 0, which _int_table renders."""
    return isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind in "iu" and not (obj.size and obj.min() < 0)


def _int_table(table: np.ndarray, write, indent, depth):
    """Write a 2-D array of integers >= 0 as _emit writes its tolist(), one
    _render_chunks chunk at a time.

    Every table row renders as ",<pad>[" and its items; the first comma is dropped.
    """
    if not len(table):
        write("[]")
        return
    row_pad, row_close = _padding(indent, depth)
    pad, close = _padding(indent, depth + 1)
    cols = table.shape[1]
    template = "," + row_pad + "[" + ",".join([pad + "%d"] * cols) + (close if cols else "") + "]"
    write("[")
    for i, chunk in enumerate(_render_chunks(template, table)):
        write(str(memoryview(chunk)[0 if i else 1:], "ascii"))
    write(row_close + "]")


def dump(obj, fp: IO):
    """Write dumps(obj, indent=2) and a newline, a dict one entry at a time.

    A 2-D integer table (detect's sigma) is written one rendered row chunk
    at a time, so its text is never held whole. Every other entry is
    dumps' text indented one level: dumps puts a newline only before
    padding, and bench/traced.py times dumps as the emit layer.
    """
    if not isinstance(obj, dict) or not obj:
        fp.write(dumps(obj, indent=2) + "\n")
        return
    pad, closing = _padding(2, 0)
    for i, (key, value) in enumerate(obj.items()):
        fp.write(("," if i else "{") + pad + json.dumps(str(key)) + ": ")
        if _is_int_table(value):
            _int_table(value, fp.write, 2, 1)
        else:
            fp.write(dumps(value, indent=2).replace("\n", pad))
    fp.write(closing + "}\n")


# Every row of a p-uniform matrix is a relabelling of one pmf, so a matrix
# under the dense budget holds no more distinct numbers than this.
FLOAT_MEMO_CAP = isqrt(DENSE_ENTRY_CAP)


class _Fields(dict):
    """A JSON object read from a file: a missing field raises ValueError naming both, not KeyError."""

    def __init__(self, pairs, where: str):
        super().__init__(pairs)
        self.where = where

    def __missing__(self, key):
        raise ValueError(f'{self.where}: missing field "{key}"')


class _FloatMemo(dict):
    """Float text -> float(text), each distinct text converted once; past
    FLOAT_MEMO_CAP texts, a new text is converted and not kept."""

    def __missing__(self, text: str) -> float:
        value = float(text)
        if len(self) < FLOAT_MEMO_CAP:
            self[text] = value
        return value


JSON_BLOCK = 2 ** 19  # characters of JSON text read at a time
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # json's own whitespace set
# A number cut inside its fraction or exponent ("1.", "1e", "1e+") still
# parses as its leading digits; at most this many characters dangle.
_NUMBER_TAIL = 2


class _JsonBlocks:
    """The JSON value of a file read JSON_BLOCK characters at a time.

    raw_decode parses each value that fits in the unread text; a container
    that does not fit is walked here one item at a time. A value is taken
    only when more than _NUMBER_TAIL characters follow it, or at the end of
    the file. Malformed text raises ValueError, or RecursionError when
    nested too deeply; neither carries json's message.
    """

    def __init__(self, fp: IO, parse_float, object_pairs_hook):
        self.fp = fp
        self.decode = json.JSONDecoder(parse_float=parse_float, object_pairs_hook=object_pairs_hook).raw_decode
        self.object = object_pairs_hook
        self.text, self.pos, self.eof = "", 0, False

    def document(self):
        value = self._value()
        if self._next():
            raise ValueError("extra data")
        return value

    def _read(self):
        """Append a block: at least JSON_BLOCK characters and at least as many
        as are unread, so a value parsed again after each read costs linear time."""
        size = max(JSON_BLOCK, len(self.text) - self.pos)
        block = self.fp.read(size)
        self.text = self.text[self.pos:] + block
        self.pos = 0
        self.eof = len(block) < size  # a text read is short only at the end of the file

    def _next(self) -> str:
        """The next character that is not whitespace; "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos:self.pos + 1]
            self._read()

    def _value(self):
        first = self._next()
        while True:
            try:
                value, end = self.decode(self.text, self.pos)
            except ValueError:
                if self.eof:
                    raise
                # Cut short by the end of the unread text, or larger than a block.
                if first in "[{" and len(self.text) - self.pos >= JSON_BLOCK:
                    return self._container(first)
            else:
                if end + _NUMBER_TAIL < len(self.text) or self.eof:
                    self.pos = end
                    return value
            self._read()

    def _container(self, first: str):
        """The array or object opening at self.pos, one item at a time."""
        close = "]" if first == "[" else "}"
        items = []
        self.pos += 1
        if self._next() == close:
            self.pos += 1
            return [] if first == "[" else self.object([])
        while True:
            if first == "[":
                items.append(self._value())
            else:
                if self._next() != '"':
                    raise ValueError("expected a key")
                key = self._value()
                if self._next() != ":":
                    raise ValueError("expected ':'")
                self.pos += 1
                items.append((key, self._value()))
            sep = self._next()
            self.pos += 1
            if sep == close:
                return items if first == "[" else self.object(items)
            if sep != ",":
                raise ValueError("expected ',' or a closing bracket")


def load_json(path: str):
    """The value of a JSON file, as json.load gives it, each object a _Fields.

    The text is read JSON_BLOCK characters at a time and is never held
    whole, except to report an error: any failure parses the whole file
    once more with json.loads, so the error is json's own text, after the
    file's path. Each distinct float text is converted once, up to
    FLOAT_MEMO_CAP texts, which covers any p-uniform matrix under the dense
    budget; later new texts are converted each time. Integers keep json's
    own conversion, which is faster than a memo lookup.
    """
    fields = partial(_Fields, where=path)
    try:
        try:
            with open(path, encoding="utf-8") as fp:
                return _JsonBlocks(fp, _FloatMemo().__getitem__, fields).document()
        except (ValueError, RecursionError):
            with open(path, encoding="utf-8") as fp:
                return json.loads(fp.read(), object_pairs_hook=fields)
    except UnicodeDecodeError as exc:
        raise ValueError(_decode_error_line(path, exc)) from None
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- spaces

def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    return value


def _json_int(value, name: str) -> int:
    """A size or index field read from JSON: an integer, not a bool, float or string."""
    if type(value) is not int:
        raise ValueError(f"\"{name}\" must be an integer, got {json.dumps(value, default=repr)}")
    return value


def space_to_dict(space: StateSpace) -> dict:
    if space.kind == MULTIGRAPH:
        return {"kind": MULTIGRAPH, "n": space.n, "t": space.t}
    if space.kind == MODULAR:
        return {"kind": MODULAR, "n": space.n}
    return {"kind": GENERIC, "labels": list(space.labels)}


def space_from_dict(d: dict) -> StateSpace:
    kind = _json_object(d, "\"space\"").get("kind")
    if kind == MULTIGRAPH:
        return build_multigraph_space(_json_int(d["n"], "n"), _json_int(d["t"], "t"))
    if kind == MODULAR:
        return build_modular_space(_json_int(d["n"], "n"))
    if kind == GENERIC:
        labels = d["labels"]
        if type(labels) is not list or not all(type(label) is str for label in labels):
            raise ValueError("\"labels\" must be an array of strings")
        return build_generic_space(tuple(labels))
    raise ValueError(f"unknown space kind {kind!r}")


# ------------------------------------------------------------ multigraphs

def multigraph_to_dict(g: Multigraph) -> dict:
    dyads = [
        [u + 1, v + 1, int(m)]
        for (u, v), m in zip(canonical_dyads(g.n), g.counts)
    ]
    return {"n": g.n, "t": g.t, "dyads": dyads}


def multigraph_from_dict(d: dict) -> Multigraph:
    n, t = _json_int(d["n"], "n"), _json_int(d["t"], "t")
    counts = np.zeros(num_dyads(n), dtype=np.int64)
    seen = set()
    for u, v, m in d["dyads"]:
        # stored 1-based
        u, v = _json_int(u, "dyad vertex") - 1, _json_int(v, "dyad vertex") - 1
        if u < v:
            u, v = v, u
        if not 0 <= v < u < n:
            raise ValueError(f"dyad ({u + 1},{v + 1}) out of range")
        f = dyad_index(u, v)
        if f in seen:
            raise ValueError("duplicate dyad")
        seen.add(f)
        counts[f] = _json_int(m, "dyad multiplicity")
    if len(seen) != num_dyads(n):
        raise ValueError("dyad list must cover every dyad")
    return Multigraph(n=n, t=t, counts=counts)


# --------------------------------------------------------------- families

def family_to_dict(fam: PermutationFamily) -> dict:
    return {"tag": fam.tag, "sigma": fam.sigma.tolist()}


def family_from_dict(d: dict) -> PermutationFamily:
    sigma = _json_object(d, "a family")["sigma"]
    flat = (
        list(chain.from_iterable(sigma))
        if type(sigma) is list and set(map(type, sigma)) <= {list} and len(set(map(len, sigma))) <= 1
        else [None]
    )
    # An int past int64 makes np.array an object or float64 array; either
    # still compares out of range.
    table = np.array(sigma) if set(map(type, flat)) <= {int} else None
    if table is None or table.size and not (table.min() >= 0 and table.max() < len(sigma)):
        raise ValueError("\"sigma\" must be a 2-D array of integer state indices")
    return PermutationFamily(sigma=table.astype(np.int64, copy=False), tag=d.get("tag", ""))


# --------------------------------------------------------------- matrices

def _json_numbers(value, name: str) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as float64.

    Strings, booleans, nulls, objects and rows of unequal length raise
    ValueError; np.array would parse "0.5" and turn true into 1.0. So does
    an integer past the float64 range. An ndarray, as the *_to_dict writers
    leave in a dict that never went through JSON, is taken as it is.
    """
    if isinstance(value, np.ndarray):
        return value.astype(np.float64)
    if type(value) is not list:
        raise ValueError(f"{name} must be an array of JSON numbers")
    # Of JSON leaves, numpy infers an integer or float array only from
    # numbers and booleans, and a boolean among numbers becomes exactly 0
    # or 1: an array with neither entry is numbers alone. Anything else,
    # ragged rows and a leaf beside a list included, is checked leaf by
    # leaf below.
    try:
        inferred = np.array(value)
    except ValueError:
        inferred = None
    if inferred is not None and inferred.dtype.kind in "iuf" and not ((inferred == 0) | (inferred == 1)).any():
        return inferred.astype(np.float64, copy=False)
    del inferred  # not held beside the float64 array built below
    # The lists of one depth at a time; the leaves are checked one innermost
    # list at a time, never gathered into one list.
    rows = [value]
    while any(rows) and all(type(item) is list for row in rows for item in row):
        if len({len(item) for row in rows for item in row}) > 1:
            raise ValueError(f"{name} must be a rectangular array of JSON numbers")
        rows = list(chain.from_iterable(rows))
    if not all(set(map(type, row)) <= {int, float} for row in rows):
        raise ValueError(f"{name} must be an array of JSON numbers")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} holds an integer past the float64 range") from None


def load_matrix(path: str) -> StochasticMatrix:
    """Dense matrix from .csv (row-major) or .json ({"matrix": rows} or bare rows)."""
    if path.endswith(".csv"):
        with warnings.catch_warnings():
            # An empty file is refused below, as a JSON one is; no warning line.
            warnings.simplefilter("ignore")
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    else:
        obj = load_json(path)
        data = _json_numbers(obj["matrix"] if isinstance(obj, dict) else obj, "\"matrix\"")
    return StochasticMatrix(P=data)


def load_pmf(path: str) -> Pmf:
    """A pmf from a JSON file {"p": [masses]}."""
    return Pmf(_json_numbers(_json_object(load_json(path), "a pmf file")["p"], "\"p\""))


def save_matrix(path: str, P: StochasticMatrix):
    if path.endswith(".csv"):
        rows = [",".join(_format_float(float(x)) for x in row) for row in P.P]
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("\n".join(rows) + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fp:
            dump({"matrix": P.P}, fp)


# ------------------------------------------------------- parameter maps

def eta_to_dict(pm: ParameterMap) -> dict:
    d: dict = {"kind": pm.kind}
    if pm.kind == "natural":
        d["l"] = pm.l
    elif pm.kind == "density_logit":
        d["n"] = pm.n
    elif pm.kind == "table":
        d["thetas"] = [np.asarray(t).tolist() for t in pm.thetas]
        d["etas"] = [np.asarray(e).tolist() for e in pm.etas]
        d["l"] = pm.l
    return d


def eta_from_dict(d: dict) -> ParameterMap:
    kind = _json_object(d, "\"eta\"")["kind"]
    if kind == "natural":
        return ParameterMap(kind=kind, l=_json_int(d.get("l", 1), "l"))
    if kind == "scalar_log":
        return ParameterMap(kind=kind)
    if kind == "density_logit":
        return ParameterMap(kind=kind, n=_json_int(d["n"], "n"))
    if kind == "table":
        thetas = _json_numbers(d["thetas"], "\"thetas\"").tolist()
        etas = _json_numbers(d["etas"], "\"etas\"").tolist()
        return ParameterMap(
            kind=kind,
            l=_json_int(d.get("l", 1), "l"),
            thetas=tuple(tuple(t) if isinstance(t, list) else t for t in thetas),
            etas=tuple(tuple(e) if isinstance(e, list) else (e,) for e in etas),
        )
    raise ValueError(f"unknown parameter map kind {kind!r}")


# ----------------------------------------------------------- dyadic models

def ermgm_to_dict(model: ErmgmModel) -> dict:
    return {
        "n": model.n,
        "t": model.t,
        "eta": eta_to_dict(model.eta),
        "tau_f": model.tau_f,
        "kappa_f": model.kappa_f,
    }


def ermgm_from_dict(d: dict) -> ErmgmModel:
    n, t = _json_int(_json_object(d, "a dyadic model")["n"], "n"), _json_int(d["t"], "t")
    tau_f = _json_numbers(d["tau_f"], "\"tau_f\"")
    kappa_f = None if d.get("kappa_f") is None else _json_numbers(d["kappa_f"], "\"kappa_f\"")
    eta = eta_from_dict(d["eta"])
    if not num_dyads(n) and t >= 0:  # G(1, t) has no dyads, and a JSON [] carries no shape
        tau_f = tau_f if tau_f.size else np.empty((0, t + 1, eta.l))
        kappa_f = kappa_f if kappa_f is None or kappa_f.size else np.empty((0, t + 1))
    return ErmgmModel(n=n, t=t, tau_f=tau_f, kappa_f=kappa_f, eta=eta)


# ------------------------------------------------------------- JSONL paths

# Lines formatted, or parsed, per call; bounds the reader's working set.
CHUNK = 8192

_STATE_LINE = '{"i":%d,"state":%d}\n'
# bytes.translate table: ASCII digits stay, every other byte becomes a space.
_DIGITS_ONLY = bytes(c if 48 <= c < 58 else 32 for c in range(256))
RENDER_BYTES = 2 ** 20  # padded bytes of one rendered block; more rows render in chunks


def _render_rows(template: str, values) -> bytes:
    """template % row for every row of a (rows, k) integer array, as bytes."""
    return b"".join(_render_chunks(template, values))


def _render_chunks(template: str, values):
    """Yield the bytes of template % row for every row of a (rows, k) integer
    array, in row chunks.

    template holds k "%d" slots and no other % directive; every value is
    >= 0. Each rendered row is one row of a uint8 block with every number
    zero-padded, and one boolean mask drops the padding. Consecutive slots
    whose following pieces have equal length form a run, written through one
    (rows, run, width + piece) view with digits as wide as the run's largest
    value. Each chunk's block stays under RENDER_BYTES, so the block and its
    mask stay small.
    """
    values = np.asarray(values)
    if not len(values):
        return
    pieces = template.encode().split(b"%d")
    runs = []  # [first slot, end slot]
    for slot in range(len(pieces) - 1):
        if runs and len(pieces[slot + 1]) == len(pieces[slot]):
            runs[-1][1] = slot + 1
        else:
            runs.append([slot, slot + 1])
    # A chunk's padded line is no longer than the whole table's.
    step = max(1, RENDER_BYTES // max(1, len(_padded_line(pieces, runs, values)[0])))
    for start in range(0, len(values), step):
        yield _render_block(pieces, runs, values[start:start + step])


def _padded_line(pieces: list, runs: list, values: np.ndarray):
    """One row's bytes with every slot zero-padded to its run's width, the
    runs' largest values and those widths."""
    tops = [int(values[:, a:b].max()) for a, b in runs]
    widths = [len(str(top)) for top in tops]
    line = pieces[0] + b"".join(
        b"0" * width + pieces[slot + 1] for (a, b), width in zip(runs, widths) for slot in range(a, b)
    )
    return line, tops, widths


def _render_block(pieces: list, runs: list, values: np.ndarray) -> bytes:
    """One chunk of _render_chunks: its rows as one zero-padded uint8 block, padding dropped."""
    line, tops, widths = _padded_line(pieces, runs, values)
    block = np.empty((len(values), len(line)), dtype=np.uint8)
    block[:] = np.frombuffer(line, dtype=np.uint8)
    keep = np.ones(block.shape, dtype=bool)
    at = len(pieces[0])
    for (a, b), width, top in zip(runs, widths, tops):
        cell = width + len(pieces[a + 1])
        end = at + (b - a) * cell
        # Splitting a row into (slot, byte) axes gives views, never copies.
        digits = block[:, at:end].reshape(-1, b - a, cell)
        marks = keep[:, at:end].reshape(-1, b - a, cell)
        # Digit arithmetic in the narrowest type that holds them: uint16 is ~6x faster than uint64.
        rest = values[:, a:b].astype(np.min_scalar_type(top))
        for col in range(width - 1, -1, -1):
            quotient = rest // 10  # a scalar divisor; an array of powers is ~5x slower
            digits[..., col] = rest - quotient * 10 + 48
            marks[..., col] = rest != 0
            rest = quotient
        marks[..., width - 1] = True  # 0 renders as "0"
        at = end
    return block[keep].tobytes()


def _render_lines(first: int, states) -> bytes:
    """_STATE_LINE for i = first, first + 1, ... and states (all >= 0), as bytes."""
    states = np.asarray(states, dtype=np.int64)
    return _render_rows(_STATE_LINE, np.column_stack((np.arange(first, first + states.size), states)))


def _dyads_template(n: int) -> str:
    """multigraph_to_dict's "dyads" list as a %-template over the counts."""
    return "[" + ",".join(f"[{u + 1},{v + 1},%d]" for u, v in canonical_dyads(n)) + "]"


def write_states_jsonl(
    path: str, space: StateSpace, states, kind: str = "trajectory", expand: bool = False
):
    """One header line, then one state per line, index-encoded.

    With expand=True (multigraph spaces only) each line also carries the
    dyad multiplicities as [u, v, m] triples, 1-based vertices.
    """
    states = np.asarray(states, dtype=np.int64)
    if states.size and states.min() < 0:  # _render_rows writes digits only
        raise ValueError("state index out of range")
    line = _STATE_LINE
    if expand:
        if space.kind != MULTIGRAPH:
            raise ValueError("dyad expansion needs a multigraph space")
        if states.size and states.max() >= space.size:
            raise ValueError("state index out of range")
        line = '{"i":%d,"state":%d,"dyads":' + _dyads_template(space.n) + "}\n"
    with open(path, "wb") as fp:
        fp.write((dumps({"kind": kind, "space": space_to_dict(space)}) + "\n").encode())
        for start in range(0, states.size, CHUNK):
            chunk = states[start:start + CHUNK]
            columns = [np.arange(start, start + chunk.size), chunk]
            if expand:
                columns.append(dyad_counts(space, chunk))
            fp.write(_render_rows(line, np.column_stack(columns)))


def read_states_jsonl(path: str):
    """Returns (kind, space, states array).

    Every state line is a JSON object with integer "i" and "state"; "i"
    runs 0, 1, 2, ... in file order, so a reordered, skipped or repeated
    line raises ValueError, as does a state outside the declared space.
    Blank lines are skipped. Lines are read CHUNK at a time: a chunk in the
    layout write_states_jsonl writes is parsed as one block, any other
    chunk one line at a time.
    """
    try:
        with open(path, encoding="utf-8") as fp:
            line = fp.readline()
            try:
                header = json.loads(line, object_pairs_hook=partial(_Fields, where=f"{path}:1"))
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
                raise ValueError(f"{path}:1: {exc}") from None
            space = space_from_dict(_json_object(header, f"{path}:1: the header")["space"])
            parts = []
            count, lineno = 0, 2
            while chunk := list(islice(fp, CHUNK)):
                states = _parse_canonical(chunk, count, space.size)
                if states is None:
                    states = _check_lines(path, chunk, lineno, count, space.size)
                parts.append(np.array(states, dtype=np.int64))
                count += len(states)
                lineno += len(chunk)
    except UnicodeDecodeError as exc:
        raise ValueError(_decode_error_line(path, exc)) from None
    arr = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    return header.get("kind", "trajectory"), space, arr


def _decode_error_line(path: str, exc: UnicodeDecodeError) -> str:
    """`<path>:<line>: <codec message>` for the first line that is not UTF-8.

    The text decoder works on whole buffers, so its error knows no line.
    A newline byte never sits inside a UTF-8 sequence, so decoding line by
    line fails on the same bytes; the line is found that way.
    """
    with open(path, "rb") as fp:
        for lineno, raw in enumerate(fp, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                return f"{path}:{lineno}: {line_exc}"
    return f"{path}: {exc}"


def _parse_canonical(chunk: list, first: int, size: int):
    """States of a chunk in exactly _render_lines' layout, or None.

    The digit pass reads every run of digits as a number, so it accepts
    much that is not a state line; the chunk is taken only if re-rendering
    those numbers gives back its exact bytes.
    """
    # The first line alone turns away other layouts (json.dumps' spaces,
    # --expand's dyads, a digitless '{"i":null') before the whole-chunk pass.
    line, prefix = chunk[0], '{"i":%d,"state":' % first
    if not (line.startswith(prefix) and line.endswith("}\n") and line[len(prefix):-2].isdigit()):
        return None
    text = "".join(chunk).encode()
    numbers = np.fromstring(text.translate(_DIGITS_ONLY), dtype=np.int64, sep=" ")
    states = numbers[1::2]
    if _render_lines(first, states) != text or states.max() >= size:
        return None
    return states


def _check_lines(path: str, chunk: list, first_line: int, first: int, size: int) -> list:
    """One line at a time, raising ValueError at the first bad line."""
    states = []
    for lineno, line in enumerate(chunk, start=first_line):
        if line.isspace():
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        expected = first + len(states)
        if not isinstance(rec, dict) or type(rec.get("i")) is not int or rec["i"] != expected:
            raise ValueError(f"{where}: expected a record with \"i\": {expected}")
        state = rec.get("state")
        if type(state) is not int:
            raise ValueError(f"{where}: \"state\" must be an integer, got {json.dumps(state)}")
        if not 0 <= state < size:
            raise ValueError(f"{where}: state index {state} out of range for the declared space")
        states.append(state)
    return states


def write_multigraph_lines(fp: IO, n: int, t: int, counts):
    """One multigraph_to_dict record per row of a (draws, num_dyads) array.

    Every record ends with a newline; with no rows nothing is written.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[1] != num_dyads(n):
        raise ValueError("need one multiplicity per dyad in every row")
    if counts.size and (counts.min() < 0 or counts.max() > t):
        raise ValueError("multiplicities must lie in 0..t")
    line = f'{{"n":{n},"t":{t},"dyads":{_dyads_template(n)}}}\n'
    for chunk in _render_chunks(line, counts):
        fp.write(chunk.decode("ascii"))


def write_running_means_csv(path: str, running_mean):
    """`step,running_mean` header, then step k and the k-step means per line."""
    running_mean = np.asarray(running_mean, dtype=np.float64)
    line = "%d" + ",%.17g" * running_mean.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("step,running_mean\n")
        for start in range(0, len(running_mean), CHUNK):
            chunk = running_mean[start:start + CHUNK]
            steps = range(start + 1, start + 1 + len(chunk))
            fp.write("".join(map(line.__mod__, zip(steps, *chunk.T.tolist()))))


def write_trajectory(path: str, traj: Trajectory, expand: bool = False):
    write_states_jsonl(path, traj.space, traj.states, kind="trajectory", expand=expand)


def read_trajectory(path: str) -> Trajectory:
    kind, space, states = read_states_jsonl(path)
    if kind != "trajectory":
        raise ValueError(f"expected a trajectory stream, found {kind!r}")
    return Trajectory(space=space, states=states)
