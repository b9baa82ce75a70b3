"""Command-line front end.

Deterministic batch commands over JSON/JSONL files. Results go to stdout or
--out as JSON (floats at 17 significant digits); a one-line human summary
goes to stderr. Exit codes: 0 success, 2 invalid input or arguments, 3 a
numerical cross-check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import partial

import numpy as np

from . import ermgm, models, netstat, oracle, serialize, simulate
from .core import Pmf, build_generic_space, build_multigraph_space, builtin_family, check_dense_budget, num_dyads
from .errors import PowerIterationError, TheoremViolationError
from .puniform import DETECT_TOL, Trajectory, chain_to_iid, detect_puniform, detection_violation, iid_to_chain

BUILTIN_FAMILIES = ("identity", "symdiff", "stability", "modular")
PARTITION_REL_TOL = 1e-10


@contextmanager
def _output(path: str | None):
    """The --out file opened for writing, or stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fp:
            yield fp
    else:
        yield sys.stdout


def _emit(args, payload, summary: str):
    with _output(getattr(args, "out", None)) as fp:
        serialize.dump(payload, fp)
    print(summary, file=sys.stderr)


def _resolve_family(space, value: str, words: dict):
    """The family a --family value names, or None: `words` maps the command's own 'auto'/'none'
    to a builtin name or None; any other value is a builtin name or a family file, checked
    against the space. A model that fixes its own family passes no space."""
    if value not in words and (value in ("auto", "none") or space is None):
        takes = [*words] if space is None else [*words, "a builtin name or a family file"]
        raise ValueError(f"--family {value} is not accepted here; use {', '.join(takes)}")
    value = words.get(value, value)
    if value is None:
        return None
    if value in BUILTIN_FAMILIES:
        return builtin_family(space, value)
    fam = serialize.family_from_dict(serialize.load_json(value))
    if fam.size != space.size:
        raise ValueError("family file does not match the space")
    return fam


def _chain_model(args) -> models.ChainModel:
    """The built-in chain named by --model, after checking its flags."""
    if args.model in ("density", "stability") and not (args.n and args.p is not None):
        raise ValueError(f"--model {args.model} needs --n and --p")
    if args.model == "modular" and not args.n:
        raise ValueError("--model modular needs --n")
    if args.model == "density":
        return models.density_chain(args.n, args.p)
    if args.model == "stability":
        return models.stability_chain(args.n, args.p)
    if args.model == "modular":
        mu = None
        if args.mu:
            mu = Pmf(np.array([float(x) for x in args.mu.split(",")]))
        return models.modular_chain(args.n, mu)
    raise ValueError(f"unknown chain model {args.model!r}")


def _replicate_path(path: str, replicate: int, total: int) -> str:
    if total == 1:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}.r{replicate}{ext}"


def _simulate_range(args, start: int, stop: int) -> list[str]:
    """Sample and write replicates start..stop-1, building the chain once."""
    if args.model == "custom":
        P = serialize.load_matrix(args.matrix)
        space = build_generic_space(tuple(str(i) for i in range(P.size)))
        sample = partial(simulate.sample_chain, space, P, args.x0, args.steps, args.seed)
    else:
        cm = _chain_model(args)
        sample = partial(simulate.sample_puniform_chain, cm.space, cm.mu, cm.family, args.x0, args.steps, args.seed)
    paths = []
    for r in range(start, stop):
        paths.append(_replicate_path(args.out, r, args.replicates))
        serialize.write_trajectory(paths[-1], sample(r), expand=args.expand)
    return paths


def cmd_simulate(args) -> int:
    if args.replicates < 1 or args.jobs < 1:
        raise ValueError("--replicates and --jobs must be at least 1")
    if args.model == "custom" and not args.matrix:
        raise ValueError("--model custom needs --matrix")
    if not args.out:
        raise ValueError("simulate writes JSONL; pass --out")
    # One contiguous range of replicates per worker; serial is the one-range case.
    workers = min(args.jobs, args.replicates, os.cpu_count() or 1)
    bounds = [args.replicates * k // workers for k in range(workers + 1)]
    tasks = ([args] * workers, bounds[:-1], bounds[1:])
    if workers == 1:
        ranges = list(map(_simulate_range, *tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            ranges = list(pool.map(_simulate_range, *tasks))
    paths = [path for chunk in ranges for path in chunk]
    print(
        f"simulate: model={args.model} steps={args.steps} seed={args.seed} "
        f"replicates={args.replicates} -> {', '.join(paths)}",
        file=sys.stderr,
    )
    return 0


def cmd_detect(args) -> int:
    if not 0 <= args.tol < float("inf"):  # NaN fails too
        raise ValueError("--tol must be a finite number >= 0")
    P = serialize.load_matrix(args.matrix)
    witness = detect_puniform(P, tol=args.tol)
    if witness is None:
        violation = detection_violation(P, tol=args.tol)
        _emit(args, {"puniform": False, "violation": list(violation)}, "detect: not p-uniform")
        return 0
    payload = {
        "puniform": True,
        "mu": witness.mu.p,
        "sigma": witness.family.sigma,
    }
    _emit(args, payload, f"detect: p-uniform, {P.size} states")
    return 0


def cmd_transform(args) -> int:
    kind, space, states = serialize.read_states_jsonl(args.traj)
    fam = _resolve_family(space, args.family, {})
    want = "trajectory" if args.direction == "chain2iid" else "iid"
    if kind != want:
        raise ValueError(f"{args.direction} expects {'a' if want == 'trajectory' else 'an'} {want} stream")
    if args.direction == "chain2iid":
        z = chain_to_iid(Trajectory(space=space, states=states), fam)
        serialize.write_states_jsonl(args.out, space, z, kind="iid", expand=args.expand)
        print(f"transform: {states.size} states -> {z.size} iid values", file=sys.stderr)
        return 0
    if args.x0 is None:
        raise ValueError("iid2chain needs --x0")
    traj = iid_to_chain(args.x0, states, fam, space)
    serialize.write_trajectory(args.out, traj, expand=args.expand)
    print(f"transform: {states.size} iid values -> {traj.states.size} states", file=sys.stderr)
    return 0


def cmd_fit(args) -> int:
    traj = serialize.read_trajectory(args.traj)
    est = ermgm.mle_density_stability(traj, args.stat)
    payload = {
        "p_hat": est.p_hat,
        "boundary": est.boundary,
        "transitions": est.transitions,
        "stat_sum": est.stat_sum,
    }
    note = " (boundary estimate)" if est.boundary else ""
    _emit(args, payload, f"fit: {args.stat} p_hat={est.p_hat:.6f}{note}")
    return 0


def cmd_partition(args) -> int:
    model = serialize.ermgm_from_dict(serialize.load_json(args.model))
    probes = [float(x) for x in args.theta.split(",")]
    values, terms = [], 0
    for th in probes:
        value, terms = ermgm.fast_log_partition_instrumented(model, th)
        values.append(value)
    payload = {"theta": probes, "log_partition": values, "terms": terms}
    summary = f"partition: {len(probes)} probe(s), {terms} terms each"
    if args.brute:
        fam = ermgm.to_expfam(model)
        brutes = [oracle.brute_partition(fam, th) for th in probes]
        rels = [abs(v - b) / max(1.0, abs(b)) for v, b in zip(values, brutes)]
        payload["brute"] = brutes
        payload["rel_error"] = rels
        worst = max(rels)
        if not worst <= PARTITION_REL_TOL:  # a NaN error fails too
            _emit(args, payload, f"partition: MISMATCH, worst relative error {worst:.3e}")
            return 3
        summary += f", brute agrees to {worst:.1e}"
    _emit(args, payload, summary)
    return 0


def cmd_sample(args) -> int:
    model = serialize.ermgm_from_dict(serialize.load_json(args.model))
    blocks = ermgm.sample_blocks(model, args.theta, args.count, args.seed)  # refuses before --out opens
    with _output(args.out) as fp:
        for block in blocks:
            serialize.write_multigraph_lines(fp, model.n, model.t, block)
    print(f"sample: {args.count} draws, seed {args.seed}", file=sys.stderr)
    return 0


def _diagnose_table(args, space):
    """Statistic table plus the family (if any) certifying an iid view."""
    graph_space = space.kind == "multigraph" and space.t == 1
    if args.stat in ("density", "stability", "transitivity", "degseq") and not graph_space:
        raise ValueError(f"--stat {args.stat} needs a simple-graph trajectory")
    if args.stat in netstat.EDGE_STAT_FAMILY:
        table = netstat.density_stat_table if args.stat == "density" else netstat.stability_stat_table
        return table(space), netstat.EDGE_STAT_FAMILY[args.stat]
    if args.stat == "degseq":
        # float64 before the spread, so convergence_report's cast copies (size, n), not size x size x n.
        rows = netstat.sorted_degree_table(space).astype(np.float64)
        return builtin_family(space, "identity").spread(rows, "the statistic table"), "identity"
    if args.stat == "transitivity":
        return models.transitivity_table(space.n), None
    if args.n is None:
        raise ValueError("--stat reciprocity needs --n")
    # Sizes first: the directed space's labels are 2^(n(n-1)) strings.
    arcs = args.n * (args.n - 1)
    if arcs >= space.size.bit_length() or 2 ** arcs != space.size:
        raise ValueError("trajectory space does not match the directed space for --n")
    return models.reciprocity_table(args.n), None


def _finite_target(values):
    if not np.isfinite(values).all():
        raise ValueError("the diagnose target must be finite; check --target or --p")
    return values


def cmd_diagnose(args) -> int:
    # Inputs first: the trajectory read and the statistic table cost far more.
    if args.target is not None:
        target = _finite_target([float(x) for x in args.target.split(",")])
    elif args.p is not None and args.stat in ("density", "stability"):
        _finite_target(args.p)
    else:
        raise ValueError("pass --target (or --p for density/stability)")
    traj = serialize.read_trajectory(args.traj)
    space = traj.space
    table, fam_name = _diagnose_table(args, space)
    if args.target is None:
        # A finite --p near the float maximum can still overflow here.
        target = _finite_target(args.p * num_dyads(space.n) / (space.n - 1))
    fam = _resolve_family(space, args.family, {"auto": fam_name, "none": None})
    report = simulate.convergence_report(traj, table, target, fam)
    payload = {
        "stat": args.stat,
        "target": report.target,
        "final_mean": report.final_mean,
        "abs_error": report.abs_error,
        "stderr": report.stderr,
        "within_three_se": report.within_three_se,
        "transitions": report.transitions,
    }
    if args.csv:
        serialize.write_running_means_csv(args.csv, report.running_mean)
    _emit(args, payload, f"diagnose: |mean - target| = {report.abs_error.max():.3e}")
    return 0


def cmd_exchangeability(args) -> int:
    if args.model == "custom":
        if not (args.n and args.mu):
            raise ValueError("--model custom needs --n and --mu")
        space = build_multigraph_space(args.n, 1)
        mu = serialize.load_pmf(args.mu)
        if mu.size != space.size:
            raise ValueError("pmf file does not match the space")
        fam = _resolve_family(space, args.family, {"auto": "identity"})
        cm = models.ChainModel(space=space, family=fam, mu=mu)
    else:
        _resolve_family(None, args.family, {"auto": None})
        cm = _chain_model(args)
    # The dense matrix below must fit; refuse before the isomorphism pass.
    check_dense_budget(cm.space.size, "the transition matrix")
    classes = netstat.iso_classes(cm.space)
    report = netstat.exchangeability_transfer(cm.matrix(), cm.family, cm.mu, classes)
    payload = {
        "mu_exchangeable": report.mu_exchangeable,
        "row_exchangeable": list(report.row_exchangeable),
        "equivalence_holds": report.equivalence_holds,
        "class_sizes": [int(c.size) for c in classes.classes],
        "mu_witness": list(report.mu_witness) if report.mu_witness else None,
    }
    _emit(
        args,
        payload,
        f"exchangeability: mu {'is' if report.mu_exchangeable else 'is not'} exchangeable "
        f"over {len(classes.classes)} classes",
    )
    return 0


def _add_common(sub):
    sub.add_argument("--out", help="write the JSON result here instead of stdout")
    sub.add_argument("--config", help="JSON file of flag overrides for this command")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pumc",
        description="Permutation-uniform Markov chains and Markovian exponential families.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="sample a chain to a JSONL trajectory")
    p.add_argument("--model", required=True, choices=("density", "stability", "modular", "custom"))
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--mu", help="comma-separated masses for the modular model")
    p.add_argument("--matrix", help="transition matrix file for the custom model")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--expand", action="store_true", help="also write dyad lists per state")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("detect", help="find a p-uniform witness for a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tol", type=float, default=DETECT_TOL)
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = subs.add_parser("transform", help="move between chain and iid coordinates")
    p.add_argument("--traj", required=True)
    p.add_argument("--direction", required=True, choices=("chain2iid", "iid2chain"))
    p.add_argument("--family", required=True, help="builtin family name or JSON file")
    p.add_argument("--x0", type=int)
    p.add_argument("--expand", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_transform)

    p = subs.add_parser("fit", help="closed-form MLE from a trajectory")
    p.add_argument("--traj", required=True)
    p.add_argument("--stat", required=True, choices=("density", "stability"))
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("partition", help="fast log partition, optionally brute-checked")
    p.add_argument("--model", required=True, help="dyadic model JSON file")
    p.add_argument("--theta", required=True, help="probe value(s), comma-separated")
    p.add_argument("--brute", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = subs.add_parser("sample", help="draw multigraphs from a dyadic model")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("diagnose", help="time-average convergence report")
    p.add_argument("--traj", required=True)
    p.add_argument(
        "--stat",
        required=True,
        choices=("density", "stability", "reciprocity", "transitivity", "degseq"),
    )
    p.add_argument("--target", help="target value(s), comma-separated")
    p.add_argument("--p", type=float)
    p.add_argument("--n", type=int, help="vertex count, needed for --stat reciprocity")
    p.add_argument("--family", default="auto", help="'auto', 'none' (no stderr), a builtin name or a family file")
    p.add_argument("--csv", help="write running means here")
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)

    p = subs.add_parser("exchangeability", help="exchangeability transfer report")
    p.add_argument("--model", required=True, choices=("density", "custom"))
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--mu", help="pmf JSON file for the custom model")
    p.add_argument("--family", default="auto", help="'auto'; a custom model also takes a builtin name or a file")
    _add_common(p)
    p.set_defaults(func=cmd_exchangeability)

    return parser


def _apply_config(parser: argparse.ArgumentParser, args):
    """Override the command's flags from the --config JSON object.

    Values are held to the flag's type and choices; integers are accepted
    for float flags, booleans only for switches.
    """
    overrides = serialize.load_json(args.config)
    if not isinstance(overrides, dict):
        raise ValueError("config must be a JSON object")
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in subs.choices[args.command]._actions if a.option_strings}
    for key, value in overrides.items():
        action = flags.get(key)
        if action is None or key == "help":
            raise ValueError(f"unknown config key {key!r}")
        kind = bool if action.nargs == 0 else action.type or str
        if kind is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(f"config key {key!r} needs float, got an integer past the float64 range") from None
        if type(value) is not kind:
            raise ValueError(f"config key {key!r} needs {kind.__name__}, got {json.dumps(value)}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r} must be one of {', '.join(action.choices)}")
        setattr(args, key, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(parser, args)
        return args.func(args)
    except (TheoremViolationError, PowerIterationError) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
