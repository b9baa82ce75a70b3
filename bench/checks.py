"""Inputs and output checks of the benchmark: its own numpy reference code.

Usage (run.py starts these as child processes, between pumc commands):

    python3 checks.py inputs WORK SEED GROUPS_JSON
    python3 checks.py check WORK RESULTS_JSON [FIRST_DIGESTS_JSON]

GROUPS_JSON maps each command group the workload runs ("chain", "dense",
"dyad") to its sizes. `inputs` draws every input pumc sees from SEED and
writes it to WORK, with inputs.json holding the flag values run.py passes on. `check` reads the
outputs of one pass and writes [name, ok, detail] triples to RESULTS_JSON:
in full against closed forms for the first pass, byte for byte against the
first pass's digests for later ones. Nothing here imports pumc.

Keeping this work out of run.py keeps the orchestrating process small: a
child spawned by vfork reports in ru_maxrss the high-water mark of the
parent's memory as well as its own, so a parent that parsed a long
trajectory would become every later command's peak.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

P = 0.3                  # retention / edge probability of the chain models
PARTITION_PROBES = 9
REL_TOL = 1e-12          # closed forms of p_hat, final_mean, log partition
DETECT_TOL = 1e-10       # |mu[sigma] - P|
SURVEY_TOL = 1e-10       # mean parameter, normalizer sums, stationary law
SIGMAS = 6.0             # sampling-law checks: |mean - expected| <= 6 SE
GRAPH_CLASSES = {2: 2, 3: 4, 4: 11, 5: 34}   # unlabelled simple graphs on n vertices

OUTPUTS = {
    "chain": ("traj.jsonl", "z.jsonl", "back.jsonl", "fit.json", "diag_chain.json", "running.csv"),
    "dense": ("detect.json", "diag_stability.json", "diag_density.json", "diag_transitivity.json",
              "diag_degseq.json", "exchange.json", "survey.json"),
    "dyad": ("partition.json", "draws.jsonl"),
}


def num_dyads(n: int) -> int:
    return n * (n - 1) // 2


def popcounts(bits: int) -> np.ndarray:
    return np.array([bin(i).count("1") for i in range(1 << bits)], dtype=np.int64)


def stability_mu(n: int, p: float) -> np.ndarray:
    nd = num_dyads(n)
    edges = popcounts(nd)
    return p ** edges * (1.0 - p) ** (nd - edges)


# ------------------------------------------------------------------ inputs

def draw_inputs(groups: dict, seed: int):
    """(flag values, dense matrix, dense trajectory, dyadic model), all from `seed`.

    Only the groups present draw; the arrays and model are None otherwise.
    """
    rng = np.random.default_rng(seed)
    flags: dict = {"p": P}
    matrix = states = model = None
    if "chain" in groups:
        flags["sim_seed"] = int(rng.integers(2 ** 31))
        flags["sim_x0"] = int(rng.integers(1 << num_dyads(groups["chain"]["n"])))
    if "dense" in groups:
        n, steps = groups["dense"]["n"], groups["dense"]["steps"]
        size = 1 << num_dyads(n)
        mask = size - 1
        # Stability matrix P(a, b) = mu(~(a ^ b)), conjugated by a random
        # state relabelling: still p-uniform, and a fresh matrix per seed.
        mu = stability_mu(n, P)
        idx = np.arange(size)
        perm = rng.permutation(size)
        matrix = mu[(idx[:, None] ^ idx[None, :]) ^ mask][np.ix_(perm, perm)]
        # Stability chain by its iid coordinates: x_{i+1} = x_i ^ ~z_{i+1}.
        z = rng.choice(size, size=steps, p=mu)
        x0 = int(rng.integers(size))
        states = np.concatenate(([x0], x0 ^ np.bitwise_xor.accumulate(z ^ mask)))
    if "dyad" in groups:
        n, t = groups["dyad"]["n"], groups["dyad"]["t"]
        model = {
            "n": n,
            "t": t,
            "eta": {"kind": "natural", "l": 1},
            "tau_f": [[[float(m)] for m in range(t + 1)]] * num_dyads(n),
            "kappa_f": [[1.0] * (t + 1)] * num_dyads(n),
        }
        flags["thetas"] = sorted(float(th) for th in rng.uniform(-2.0, 2.0, PARTITION_PROBES))
        flags["sample_theta"] = float(rng.uniform(-1.0, 1.0))
        flags["sample_seed"] = int(rng.integers(2 ** 31))
    return flags, matrix, states, model


def write_inputs(work: Path, seed: int, groups: dict) -> dict:
    flags, matrix, states, model = draw_inputs(groups, seed)
    if matrix is not None:
        with open(work / "P.json", "w") as fp:
            json.dump({"matrix": matrix.tolist()}, fp)
        header = {"kind": "trajectory", "space": {"kind": "multigraph", "n": groups["dense"]["n"], "t": 1}}
        lines = [json.dumps(header, separators=(",", ":"))]
        lines += [f'{{"i":{i},"state":{s}}}' for i, s in enumerate(states.tolist())]
        with open(work / "dense.jsonl", "w") as fp:
            fp.write("\n".join(lines) + "\n")
    if model is not None:
        with open(work / "model.json", "w") as fp:
            json.dump(model, fp)
    with open(work / "inputs.json", "w") as fp:
        json.dump({"seed": seed, "groups": groups, "flags": flags}, fp)
    return flags


# ------------------------------------------------------------------ checks

class Checks:
    """Named pass/fail results; each one counts as an attempted operation."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok, detail: str = ""):
        self.results.append((name, bool(ok), detail))

    def group(self, name: str, fn, *args):
        """Run a check function; an exception while reading outputs is one failure."""
        try:
            fn(self, *args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.expect(name, False, f"{type(exc).__name__}: {exc}")


def rel_close(a, b, tol: float) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(np.abs(b), 1e-300)))


def read_states(path: Path):
    with open(path) as fp:
        lines = fp.read().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:]]
    index = np.array([r["i"] for r in records], dtype=np.int64)
    states = np.array([r["state"] for r in records], dtype=np.int64)
    return header, index, states


def load(work: Path, name: str):
    with open(work / name) as fp:
        return json.load(fp)


def stability_agree(states: np.ndarray, n: int) -> np.ndarray:
    """Dyads on which consecutive graphs agree, per transition."""
    nd = num_dyads(n)
    return nd - popcounts(nd)[states[:-1] ^ states[1:]]


def check_chain(c: Checks, work: Path, g: dict, flags: dict):
    n, steps = g["n"], g["steps"]
    nd = num_dyads(n)
    size = 1 << nd
    space = {"kind": "multigraph", "n": n, "t": 1}

    header, index, x = read_states(work / "traj.jsonl")
    c.expect("simulate header", header == {"kind": "trajectory", "space": space})
    c.expect("simulate i fields", np.array_equal(index, np.arange(steps + 1)))
    c.expect("simulate states", x.size == steps + 1 and x[0] == flags["sim_x0"]
             and x.min() >= 0 and x.max() < size)

    header, index, z = read_states(work / "z.jsonl")
    c.expect("chain2iid header", header == {"kind": "iid", "space": space})
    c.expect("chain2iid i fields", np.array_equal(index, np.arange(steps)))
    c.expect("chain2iid z = ~(x_i ^ x_i+1)", np.array_equal(z, (x[:-1] ^ x[1:]) ^ (size - 1)))

    c.expect("iid2chain round trip is byte-identical",
             (work / "traj.jsonl").read_bytes() == (work / "back.jsonl").read_bytes())

    agree = stability_agree(x, n)
    fit = load(work, "fit.json")
    p_hat = agree.sum() / (steps * nd)
    c.expect("fit p_hat closed form", rel_close(fit["p_hat"], p_hat, REL_TOL), f"{fit['p_hat']} vs {p_hat}")
    c.expect("fit stat_sum closed form", rel_close(fit["stat_sum"], agree.sum() / (n - 1), REL_TOL))
    c.expect("fit transitions", fit["transitions"] == steps and fit["boundary"] is False)
    c.expect("simulate law: p_hat within 6 SE of p",
             abs(p_hat - P) <= SIGMAS * math.sqrt(P * (1 - P) / (steps * nd)))

    stat = agree / (n - 1)
    running = np.cumsum(stat) / np.arange(1, steps + 1)
    diag = load(work, "diag_chain.json")
    c.expect("diagnose chain final_mean closed form", rel_close(diag["final_mean"], running[-1:], REL_TOL))
    c.expect("diagnose chain target", rel_close(diag["target"], [P * nd / (n - 1)], REL_TOL))
    c.expect("diagnose chain transitions", diag["transitions"] == steps)
    with open(work / "running.csv") as fp:
        lines = fp.read().splitlines()
    c.expect("diagnose csv header", lines[0] == "step,running_mean")
    rows = [line.split(",") for line in lines[1:]]
    c.expect("diagnose csv steps", [int(r[0]) for r in rows] == list(range(1, steps + 1)))
    c.expect("diagnose csv running means", rel_close([float(r[1]) for r in rows], running, REL_TOL))


def _dyad_bit(states: np.ndarray, u: int, v: int) -> np.ndarray:
    return (states >> (u * (u - 1) // 2 + v)) & 1    # dyad {u, v}, u > v


def transitivity_stat(x: np.ndarray, n: int) -> np.ndarray:
    """n * (two-paths i-j-k of a closed by {i,k} in b) / (two-paths of a), 0/0 -> 0.

    Two-paths run over vertex triples i < j < k with j the middle vertex.
    """
    a, b = x[:-1], x[1:]
    num = np.zeros(a.size, dtype=np.int64)
    den = np.zeros(a.size, dtype=np.int64)
    for i, j, k in itertools.combinations(range(n), 3):
        path = _dyad_bit(a, j, i) * _dyad_bit(a, k, j)
        den += path
        num += path * _dyad_bit(b, k, i)
    out = np.zeros(a.size)
    np.divide(n * num, den, out=out, where=den > 0)
    return out


def degree_sequences(states: np.ndarray, n: int) -> np.ndarray:
    deg = np.zeros((states.size, n), dtype=np.int64)
    for u in range(1, n):
        for v in range(u):
            on = _dyad_bit(states, u, v)
            deg[:, u] += on
            deg[:, v] += on
    return np.sort(deg, axis=1)


def check_dense(c: Checks, work: Path, g: dict, matrix: np.ndarray, x: np.ndarray):
    n = g["n"]
    nd = num_dyads(n)
    size = 1 << nd

    det = load(work, "detect.json")
    sigma = np.array(det["sigma"], dtype=np.int64)
    mu = np.array(det["mu"], dtype=np.float64)
    c.expect("detect finds a witness", det["puniform"] is True)
    c.expect("detect sigma rows are permutations", sigma.shape == (size, size)
             and np.array_equal(np.sort(sigma, axis=1), np.broadcast_to(np.arange(size), sigma.shape)))
    c.expect("detect reproduces P = mu[sigma]", np.abs(mu[sigma] - matrix).max() <= DETECT_TOL)

    expected = {
        "stability": stability_agree(x, n)[:, None] / (n - 1),
        "density": popcounts(nd)[x[1:]][:, None] / (n - 1),
        "transitivity": transitivity_stat(x, n)[:, None],
        "degseq": degree_sequences(x[1:], n).astype(np.float64),
    }
    for stat, series in expected.items():
        diag = load(work, f"diag_{stat}.json")
        mean = series.sum(axis=0) / series.shape[0]
        c.expect(f"diagnose {stat} final_mean closed form", rel_close(diag["final_mean"], mean, REL_TOL),
                 f"{diag['final_mean']} vs {mean.tolist()}")
        c.expect(f"diagnose {stat} transitions", diag["transitions"] == g["steps"])

    ex = load(work, "exchange.json")
    c.expect("exchangeability of the ER law", ex["mu_exchangeable"] is True and ex["equivalence_holds"] is True
             and ex["row_exchangeable"] == [True] * size and ex["mu_witness"] is None)
    c.expect("exchangeability classes", sum(ex["class_sizes"]) == size
             and len(ex["class_sizes"]) == GRAPH_CLASSES[n])

    sv = load(work, "survey.json")
    c.expect("survey mean parameter p N / (n - 1)",
             rel_close(sv["mean_parameter"], [P * nd / (n - 1)], SURVEY_TOL), str(sv["mean_parameter"]))
    recip_size = 1 << (g["recip_n"] * (g["recip_n"] - 1))
    c.expect("survey empty-graph row sums",
             rel_close(sv["empty_row_sums"], [recip_size] * len(sv["probes"]), SURVEY_TOL))
    c.expect("survey reciprocity rows share a normalizer only at theta = 0",
             sv["shared_normalizer"] == [t == 0.0 for t in sv["probes"]])
    pi = np.array(sv["stationary"])
    c.expect("survey stationary law is uniform", pi.size == size and np.abs(pi * size - 1).max() <= SURVEY_TOL)


def dyad_moments(theta: float, t: int):
    """Log normalizer, mean and variance of one dyad's multiplicity."""
    m = np.arange(t + 1, dtype=np.float64)
    w = np.exp(m * theta)
    p = w / w.sum()
    mean = float(p @ m)
    return math.log(w.sum()), mean, float(p @ m ** 2) - mean ** 2


def check_dyad(c: Checks, work: Path, g: dict, flags: dict):
    n, t, count = g["n"], g["t"], g["count"]
    nd = num_dyads(n)

    part = load(work, "partition.json")
    closed = [nd * dyad_moments(th, t)[0] for th in flags["thetas"]]
    c.expect("partition probes", part["theta"] == flags["thetas"])
    c.expect("partition N log(sum_m e^(m theta))", rel_close(part["log_partition"], closed, REL_TOL),
             f"{part['log_partition']} vs {closed}")
    c.expect("partition brute agrees", max(part["rel_error"]) <= 1e-10 and len(part["brute"]) == len(closed))
    c.expect("partition terms", part["terms"] == nd * (t + 1))

    dyads = [[u + 1, v + 1] for u in range(1, n) for v in range(u)]
    with open(work / "draws.jsonl") as fp:
        draws = [json.loads(line) for line in fp.read().splitlines()]
    c.expect("sample line count", len(draws) == count)
    c.expect("sample lines have every dyad once", all(
        d["n"] == n and d["t"] == t and [e[:2] for e in d["dyads"]] == dyads for d in draws))
    counts = np.array([[e[2] for e in d["dyads"]] for d in draws], dtype=np.int64)
    c.expect("sample multiplicities in 0..t", counts.min() >= 0 and counts.max() <= t)
    _, mean, var = dyad_moments(flags["sample_theta"], t)
    c.expect("sample law: mean multiplicity within 6 SE",
             abs(counts.mean() - mean) <= SIGMAS * math.sqrt(var / counts.size))


def digests(work: Path, groups: dict) -> dict:
    out = {}
    for name in (name for group in groups for name in OUTPUTS[group]):
        try:
            out[name] = hashlib.sha256((work / name).read_bytes()).hexdigest()
        except OSError:
            out[name] = None
    return out


def check_outputs(work: Path, first: dict | None) -> tuple[Checks, dict]:
    """Check one pass; the first in full, later ones against the first's digests."""
    c = Checks()
    record = load(work, "inputs.json")
    groups = record["groups"]
    now = digests(work, groups)
    if first is not None:
        for name, digest in now.items():
            c.expect(f"{name} stable across passes", digest is not None and digest == first[name])
        return c, now
    flags, matrix, states, _ = draw_inputs(groups, record["seed"])
    if "chain" in groups:
        c.group("chain outputs", check_chain, work, groups["chain"], flags)
    if "dense" in groups:
        c.group("dense outputs", check_dense, work, groups["dense"], matrix, states)
    if "dyad" in groups:
        c.group("dyad outputs", check_dyad, work, groups["dyad"], flags)
    return c, now


def main(argv: list[str]) -> int:
    command, work, *rest = argv
    work = Path(work)
    if command == "inputs":
        seed, groups = rest
        write_inputs(work, int(seed), json.loads(groups))
        return 0
    results_path, *first_path = rest
    first = json.loads(Path(first_path[0]).read_text()) if first_path else None
    c, now = check_outputs(work, first)
    with open(results_path, "w") as fp:
        json.dump({"results": c.results, "digests": now}, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
