"""File formats: JSON object schemas, JSONL state streams, dense matrices.

All floats are emitted with 17 significant digits so every value round-trips
bit-exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import IO

import numpy as np

from .core import (
    GENERIC,
    MODULAR,
    MULTIGRAPH,
    Multigraph,
    PermutationFamily,
    StateSpace,
    StochasticMatrix,
    build_generic_space,
    build_modular_space,
    build_multigraph_space,
    canonical_dyads,
    num_dyads,
)
from .expfam import CefSpec, ExpFamilySpec, ParameterMap
from .ermgm import ErmgmModel
from .puniform import Trajectory


def _format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
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
    pad = "\n" + " " * (indent * (depth + 1)) if indent else ""
    closing = "\n" + " " * (indent * depth) if indent else ""
    for i, (prefix, value) in enumerate(zip(prefixes, values)):
        out.append(("," if i else "") + pad + prefix)
        _emit(value, out, indent, depth + 1)
    out.append(closing + braces[1])


def dump(obj, fp: IO, indent: int | None = 2):
    fp.write(dumps(obj, indent=indent))
    fp.write("\n")


# ---------------------------------------------------------------- spaces

def space_to_dict(space: StateSpace) -> dict:
    if space.kind == MULTIGRAPH:
        return {"kind": MULTIGRAPH, "n": space.n, "t": space.t}
    if space.kind == MODULAR:
        return {"kind": MODULAR, "n": space.n}
    return {"kind": GENERIC, "labels": list(space.labels)}


def space_from_dict(d: dict) -> StateSpace:
    kind = d.get("kind")
    if kind == MULTIGRAPH:
        return build_multigraph_space(int(d["n"]), int(d["t"]))
    if kind == MODULAR:
        return build_modular_space(int(d["n"]))
    if kind == GENERIC:
        return build_generic_space(tuple(d["labels"]))
    raise ValueError(f"unknown space kind {kind!r}")


# ------------------------------------------------------------ multigraphs

def multigraph_to_dict(g: Multigraph) -> dict:
    dyads = [
        [u + 1, v + 1, int(m)]
        for (u, v), m in zip(canonical_dyads(g.n), g.counts)
    ]
    return {"n": g.n, "t": g.t, "dyads": dyads}


def multigraph_from_dict(d: dict) -> Multigraph:
    n, t = int(d["n"]), int(d["t"])
    counts = np.zeros(num_dyads(n), dtype=np.int64)
    seen = set()
    for u, v, m in d["dyads"]:
        u, v = int(u) - 1, int(v) - 1  # stored 1-based
        if u < v:
            u, v = v, u
        f = u * (u - 1) // 2 + v
        if not 0 <= v < u < n:
            raise ValueError(f"dyad ({u + 1},{v + 1}) out of range")
        if f in seen:
            raise ValueError("duplicate dyad")
        seen.add(f)
        counts[f] = int(m)
    if len(seen) != num_dyads(n):
        raise ValueError("dyad list must cover every dyad")
    return Multigraph(n=n, t=t, counts=counts)


# --------------------------------------------------------------- families

def family_to_dict(fam: PermutationFamily) -> dict:
    return {"tag": fam.tag, "sigma": fam.sigma.tolist()}


def family_from_dict(d: dict) -> PermutationFamily:
    return PermutationFamily(sigma=np.array(d["sigma"], dtype=np.int64), tag=d.get("tag", ""))


# --------------------------------------------------------------- matrices

def load_matrix(path: str) -> StochasticMatrix:
    """Dense matrix from .csv (row-major) or .json ({"matrix": rows} or bare rows)."""
    if path.endswith(".csv"):
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    else:
        with open(path) as fp:
            obj = json.load(fp)
        data = np.array(obj["matrix"] if isinstance(obj, dict) else obj, dtype=np.float64)
    return StochasticMatrix(P=data)


def save_matrix(path: str, P: StochasticMatrix):
    if path.endswith(".csv"):
        rows = [",".join(_format_float(float(x)) for x in row) for row in P.P]
        with open(path, "w") as fp:
            fp.write("\n".join(rows) + "\n")
    else:
        with open(path, "w") as fp:
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
    kind = d["kind"]
    if kind == "natural":
        return ParameterMap(kind=kind, l=int(d.get("l", 1)))
    if kind == "scalar_log":
        return ParameterMap(kind=kind)
    if kind == "density_logit":
        return ParameterMap(kind=kind, n=int(d["n"]))
    if kind == "table":
        return ParameterMap(
            kind=kind,
            l=int(d.get("l", 1)),
            thetas=tuple(tuple(t) if isinstance(t, list) else float(t) for t in d["thetas"]),
            etas=tuple(tuple(e) if isinstance(e, list) else (float(e),) for e in d["etas"]),
        )
    raise ValueError(f"unknown parameter map kind {kind!r}")


# ------------------------------------------------------------ CEF specs

def cef_to_dict(cef: CefSpec) -> dict:
    return {
        "space": space_to_dict(cef.space),
        "eta": eta_to_dict(cef.eta),
        "kappa": cef.kappa,
        "tau": cef.tau,
    }


def cef_from_dict(d: dict) -> CefSpec:
    return CefSpec(
        space=space_from_dict(d["space"]),
        kappa=np.array(d["kappa"], dtype=np.float64),
        tau=np.array(d["tau"], dtype=np.float64),
        eta=eta_from_dict(d["eta"]),
    )


def expfam_to_dict(fam: ExpFamilySpec) -> dict:
    return {
        "space": space_to_dict(fam.space),
        "eta": eta_to_dict(fam.eta),
        "kappa": fam.kappa,
        "tau": fam.tau,
    }


def expfam_from_dict(d: dict) -> ExpFamilySpec:
    return ExpFamilySpec(
        space=space_from_dict(d["space"]),
        kappa=np.array(d["kappa"], dtype=np.float64),
        tau=np.array(d["tau"], dtype=np.float64),
        eta=eta_from_dict(d["eta"]),
    )


# ----------------------------------------------------------- dyadic models

def factorization_to_dict(fact) -> dict:
    return {
        "n": fact.n,
        "t": fact.t,
        "tau_f": fact.tau_f,
        "kappa_f": fact.kappa_f,
    }


def factorization_from_dict(d: dict):
    from .netstat import DyadicFactorization

    return DyadicFactorization(
        n=int(d["n"]),
        t=int(d["t"]),
        tau_f=None if d.get("tau_f") is None else np.array(d["tau_f"], dtype=np.float64),
        kappa_f=None if d.get("kappa_f") is None else np.array(d["kappa_f"], dtype=np.float64),
    )


def ermgm_to_dict(model: ErmgmModel) -> dict:
    return {
        "n": model.n,
        "t": model.t,
        "eta": eta_to_dict(model.eta),
        "tau_f": model.tau_f,
        "kappa_f": model.kappa_f,
    }


def ermgm_from_dict(d: dict) -> ErmgmModel:
    n, t = int(d["n"]), int(d["t"])
    tau_f = np.array(d["tau_f"], dtype=np.float64)
    if "kappa_f" in d and d["kappa_f"] is not None:
        kappa_f = np.array(d["kappa_f"], dtype=np.float64)
    else:
        kappa_f = np.ones((num_dyads(n), t + 1))
    return ErmgmModel(n=n, t=t, tau_f=tau_f, kappa_f=kappa_f, eta=eta_from_dict(d["eta"]))


# ------------------------------------------------------------- JSONL paths

def write_states_jsonl(
    path: str, space: StateSpace, states, kind: str = "trajectory", expand: bool = False
):
    """One header line, then one state per line, index-encoded.

    With expand=True (multigraph spaces only) each line also carries the
    dyad multiplicities as [u, v, m] triples, 1-based vertices.
    """
    states = np.asarray(states, dtype=np.int64)
    with open(path, "w") as fp:
        fp.write(dumps({"kind": kind, "space": space_to_dict(space)}) + "\n")
        for i, s in enumerate(states):
            rec: dict = {"i": i, "state": int(s)}
            if expand:
                if space.kind != MULTIGRAPH:
                    raise ValueError("dyad expansion needs a multigraph space")
                rec["dyads"] = multigraph_to_dict(space.decode(int(s)))["dyads"]
            fp.write(dumps(rec) + "\n")


def read_states_jsonl(path: str):
    """Returns (kind, space, states array).

    State lines must carry i = 0, 1, 2, ... in file order; a reordered,
    skipped or repeated line raises ValueError.
    """
    with open(path) as fp:
        header = json.loads(fp.readline())
        states = []
        for lineno, line in enumerate(fp, start=2):
            if not line.strip():
                continue
            rec = json.loads(line)
            if not isinstance(rec, dict) or rec.get("i") != len(states):
                raise ValueError(f"{path}:{lineno}: expected a record with \"i\": {len(states)}")
            states.append(rec["state"])
    space = space_from_dict(header["space"])
    arr = np.array(states, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= space.size):
        raise ValueError("state index out of range for the declared space")
    return header.get("kind", "trajectory"), space, arr


def write_trajectory(path: str, traj: Trajectory, expand: bool = False):
    write_states_jsonl(path, traj.space, traj.states, kind="trajectory", expand=expand)


def read_trajectory(path: str) -> Trajectory:
    kind, space, states = read_states_jsonl(path)
    if kind != "trajectory":
        raise ValueError(f"expected a trajectory stream, found {kind!r}")
    return Trajectory(space=space, states=states)
