"""Benchmark of the pumc command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload chain_pipeline --seed 1 --seconds 40 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics; units come from that
file. The exit code is 2, with no result, when pumc's sources are missing.

Load model: a closed loop with one client. The benchmark starts one pumc
command, waits for it to exit, then starts the next, so at most one child
process exists at a time and no command gets --jobs. Every command runs in a
fresh interpreter exactly as a user runs it (`python -m pumc.cli ...`), so no
lru_cache state carries from one command to the next; the library survey
step (survey.py) gets its own fresh process too. pumc only ever receives
files and flags that checks.py draws from --seed with the benchmark's own
numpy and json code, and checks.py checks every output against its own
numpy reference code, never against pumc. A pass runs the workload's
commands once; passes repeat while another one fits in --seconds, and at
least twice. The first pass is checked in full, later ones byte for byte
against it.

Workloads, each one group of commands:

    chain_pipeline  simulate, transform chain2iid, transform iid2chain,
        fit --stat stability, diagnose --stat stability --csv on a
        stability chain with n = 4 (64 states), p = 0.3, 1e5 steps. The
        paper's headline pipeline; the JSONL codec and the chain/iid replay
        do almost all of its work, the dense tables almost none.
    dense_tables    n = 5 (1024 states): detect on a written 1024 x 1024
        stability P.json; diagnose for stability, density, transitivity and
        degseq on a written 2e4-step trajectory; exchangeability --model
        density; the survey (stability MEF, mean parameter, reciprocity CEF
        on 4 vertices, stationary law). Stresses the size^2 family,
        statistic-table and row-normalizer layers and peak memory.
    dyadic_models   G(5, 2) edge-count model (59049 states): partition
        --brute at 9 probes and sample --count 5e4. Many small record
        writes instead of state streams, plus the oracle and ermgm layers
        that the other workloads never touch.

Sizes stop at n = 5: at n = 6 the dense stability family alone would take
32768^2 int64 entries (8 GiB) and the command dies with an allocation
traceback (exit 1). exchangeability uses the density model because the
stability family does not preserve isomorphism classes, so `--model
stability` exits 2 by design.

End-to-end metrics (--trace 0; medians over the passes of one run): wall_s
is one pass of the workload's commands; setup_s is the median cold start of
a fresh `python -c "import pumc.cli"`, which every command pays; peak_rss_mb
is the largest ru_maxrss that wait4 reports for the workload's own pumc
children; ok_ratio is 1 - failed/attempted over all checks (a fail ratio
reads 0 on every good run, and a metric that is 0 has no relative bound).
Every workload reports every end-to-end metric, so per-command wall times,
which exist only on the workload that runs the command, are per-layer
metrics (cmd.<command>_s, 0 where the command does not run).

Per-layer metrics (--trace 1): passes alternate untraced and traced. The
cmd.* wall times come from the untraced passes. A traced pass runs each
command under traced.py, which wraps pumc's public functions per module; a
layer's time is the self time of its spans (span duration minus the child
spans it covers), so the layer times of one command add up to its traced
wall time, with process.start_s the part no span covers (interpreter start
and exit). trace.overhead_s is the traced pass wall minus the untraced pass
wall of the same run. Which wall_s, and which command within it, each
layer should move:

    serialize  chain_pipeline (simulate, chain2iid, iid2chain, fit),
               dense_tables (detect), dyadic_models (sample)
    puniform   chain_pipeline (iid2chain, simulate; replay is a ~2% share,
               so it alone cannot move wall_s by more), dense_tables
               (detect, diagnose)
    core       dense_tables (diagnose, detect, exchangeability, survey,
               and peak_rss_mb); no change on chain_pipeline
    models, expfam  dense_tables (survey, and peak_rss_mb)
    netstat    dense_tables (diagnose, exchangeability)
    simulate, rng   chain_pipeline (simulate, a share under 2%),
               dense_tables (survey), dyadic_models (sample)
    ermgm, oracle   dyadic_models (partition, sample), chain_pipeline (fit)
    cli        dyadic_models (sample: the per-draw line loop),
               chain_pipeline (diagnose: the --csv writer)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 9        # cold imports per run; setup_s is their median
MIN_PASSES = 2           # later passes are checked against the first
COMMAND_TIMEOUT_S = 150

COMMANDS = (
    "simulate", "chain2iid", "iid2chain", "fit", "diagnose",
    "detect", "exchangeability", "survey", "partition", "sample",
)

# Command groups a workload runs, with their sizes (see the module docstring).
WORKLOADS = {
    "chain_pipeline": {"chain": {"n": 4, "steps": 100_000}},
    "dense_tables": {"dense": {"n": 5, "steps": 20_000, "recip_n": 4}},
    "dyadic_models": {"dyad": {"n": 5, "t": 2, "count": 50_000}},
}


@dataclass(frozen=True)
class Step:
    command: str          # one of COMMANDS
    args: tuple           # pumc.cli arguments, or survey.py's for "survey"


def steps_for(groups: dict, flags: dict, work: Path) -> list[Step]:
    """The commands of one pass, in order; `flags` come from checks.py inputs."""
    def f(name: str) -> str:
        return str(work / name)

    p = repr(flags["p"])
    steps = []
    if "chain" in groups:
        g = groups["chain"]
        steps += [
            Step("simulate", ("simulate", "--model", "stability", "--n", str(g["n"]), "--p", p,
                              "--steps", str(g["steps"]), "--seed", str(flags["sim_seed"]),
                              "--x0", str(flags["sim_x0"]), "--out", f("traj.jsonl"))),
            Step("chain2iid", ("transform", "--traj", f("traj.jsonl"), "--direction", "chain2iid",
                               "--family", "stability", "--out", f("z.jsonl"))),
            Step("iid2chain", ("transform", "--traj", f("z.jsonl"), "--direction", "iid2chain",
                               "--family", "stability", "--x0", str(flags["sim_x0"]), "--out", f("back.jsonl"))),
            Step("fit", ("fit", "--traj", f("traj.jsonl"), "--stat", "stability", "--out", f("fit.json"))),
            Step("diagnose", ("diagnose", "--traj", f("traj.jsonl"), "--stat", "stability", "--p", p,
                              "--csv", f("running.csv"), "--out", f("diag_chain.json"))),
        ]
    if "dense" in groups:
        g = groups["dense"]
        n = g["n"]
        traj = ("diagnose", "--traj", f("dense.jsonl"))
        degrees = ",".join([repr(flags["p"] * (n - 1))] * n)
        steps += [
            Step("detect", ("detect", "--matrix", f("P.json"), "--out", f("detect.json"))),
            Step("diagnose", (*traj, "--stat", "stability", "--p", p, "--out", f("diag_stability.json"))),
            Step("diagnose", (*traj, "--stat", "density", "--p", p, "--out", f("diag_density.json"))),
            Step("diagnose", (*traj, "--stat", "transitivity", f"--target={n}",
                              "--out", f("diag_transitivity.json"))),
            Step("diagnose", (*traj, "--stat", "degseq", f"--target={degrees}", "--out", f("diag_degseq.json"))),
            Step("exchangeability", ("exchangeability", "--model", "density", "--n", str(n), "--p", p,
                                     "--out", f("exchange.json"))),
            Step("survey", ("--n", str(n), "--recip-n", str(g["recip_n"]), "--p", p, "--out", f("survey.json"))),
        ]
    if "dyad" in groups:
        g = groups["dyad"]
        thetas = ",".join(repr(t) for t in flags["thetas"])
        steps += [
            Step("partition", ("partition", "--model", f("model.json"), f"--theta={thetas}", "--brute",
                               "--out", f("partition.json"))),
            Step("sample", ("sample", "--model", f("model.json"), f"--theta={flags['sample_theta']!r}",
                            "--seed", str(flags["sample_seed"]), "--count", str(g["count"]),
                            "--out", f("draws.jsonl"))),
        ]
    return steps


# --------------------------------------------------------------- processes

class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout(f"a command ran longer than {COMMAND_TIMEOUT_S} s")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"   # same set and dict layouts in every run
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, env: dict):
    """Run one child to completion; (exit code, wall seconds, max RSS in MB).

    The RSS comes from wait4 for this child alone. It includes this
    process's own high-water mark (the child starts as a vfork of it), which
    is why the input and check work runs in checks.py children instead.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def run_checks_py(args: list[str], work: Path, env: dict):
    argv = [sys.executable, str(BENCH_DIR / "checks.py"), *args]
    code, _, _ = spawn(argv, work / "checks.out", work / "checks.err", env)
    if code != 0:
        raise RuntimeError(f"checks.py {args[0]} exited {code}: {(work / 'checks.err').read_text()[-2000:]}")


def argv_for(step: Step, spans: Path | None) -> list[str]:
    py = sys.executable
    kind = "survey" if step.command == "survey" else "cli"
    if spans is not None:
        return [py, str(BENCH_DIR / "traced.py"), str(spans), kind, *step.args]
    if kind == "cli":
        return [py, "-m", "pumc.cli", *step.args]
    return [py, str(BENCH_DIR / "survey.py"), *step.args]


def measure_setup(work: Path, env: dict) -> float:
    argv = [sys.executable, "-c", "import pumc.cli"]
    spawn(argv, work / "setup.out", work / "setup.err", env)  # fills __pycache__
    walls = [spawn(argv, work / "setup.out", work / "setup.err", env)[1] for _ in range(SETUP_REPEATS)]
    return statistics.median(walls)


@dataclass
class PassResult:
    wall: float
    command_walls: dict
    exit_codes: list
    peak_rss_mb: float
    layers: dict | None   # per-layer totals of a traced pass


def run_pass(steps: list[Step], work: Path, env: dict, traced: bool) -> PassResult:
    walls = dict.fromkeys(COMMANDS, 0.0)
    codes, peak, step_walls = [], 0.0, []
    start = time.perf_counter()
    for i, step in enumerate(steps):
        spans = work / f"spans{i}.json" if traced else None
        code, wall, rss = spawn(argv_for(step, spans), work / f"{i}.out", work / f"{i}.err", env)
        walls[step.command] += wall
        codes.append(code)
        step_walls.append(wall)
        peak = max(peak, rss)
    pass_wall = time.perf_counter() - start
    layers = None
    if traced:
        layers = {}
        for i, (code, wall) in enumerate(zip(codes, step_walls)):
            if code != 0:
                continue
            record = json.loads((work / f"spans{i}.json").read_text())
            for name, value in command_layers(record, wall).items():
                layers[name] = layers.get(name, 0) + value
    return PassResult(pass_wall, walls, codes, peak, layers)


def command_layers(record: dict, wall: float) -> dict:
    """Self time per layer metric of one traced command, plus its counters.

    The times add up to `wall`: process.start_s is what no span covers.
    """
    spans = record["spans"]
    covered = [0.0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    for _, parent, _, seconds in record["aggregates"]:
        if parent >= 0:
            covered[parent] += seconds
    out: dict = {}
    for (metric, _, _, start, end), inner in zip(spans, covered):
        out[metric] = out.get(metric, 0.0) + (end - start) - inner
    for metric, _, _, seconds in record["aggregates"]:
        out[metric] = out.get(metric, 0.0) + seconds
    roots = sum(end - start for _, _, parent, start, end in spans if parent < 0)
    out["process.start_s"] = wall - roots
    out.update(record["counters"])
    return out


def check_pass(steps: list[Step], result: PassResult, work: Path, env: dict, first: bool) -> list:
    """[name, ok, detail] per check: exit codes here, outputs in checks.py."""
    results = [[f"{step.command} exits 0", code == 0, f"exit {code}"]
               for step, code in zip(steps, result.exit_codes)]
    args = ["check", str(work), str(work / "checked.json")]
    if not first:
        args.append(str(work / "digests.json"))
    run_checks_py(args, work, env)
    checked = json.loads((work / "checked.json").read_text())
    if first:
        (work / "digests.json").write_text(json.dumps(checked["digests"]))
    return results + checked["results"]


# ------------------------------------------------------------------ measurement

def run_benchmark(groups: dict, seed: int, seconds: float, trace: bool, work: Path):
    """Measure one workload; returns (check results, metric values by name)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # spawn() reaps the child
    env = child_env()
    work.mkdir(parents=True, exist_ok=True)
    run_checks_py(["inputs", str(work), str(seed), json.dumps(groups)], work, env)
    flags = json.loads((work / "inputs.json").read_text())["flags"]
    steps = steps_for(groups, flags, work)
    setup = None if trace else measure_setup(work, env)
    results: list = []
    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while True:
        result = run_pass(steps, work, env, traced=trace and len(passes) % 2 == 1)
        results += check_pass(steps, result, work, env, first=not passes)
        passes.append(result)
        # Start no pass that would end past the deadline, after the first two.
        typical = statistics.mean(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() + typical > deadline:
            break

    plain = [p for p in passes if p.layers is None]
    if not trace:
        return results, {
            "wall_s": statistics.median(p.wall for p in plain),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
            "ok_ratio": 1.0 - failures(results) / len(results),
        }

    traced = [p for p in passes if p.layers is not None]
    names = set().union(*(p.layers for p in traced))
    values = {name: statistics.median(p.layers.get(name, 0) for p in traced) for name in names}
    for command in COMMANDS:
        values[f"cmd.{command}_s"] = statistics.median(p.command_walls[command] for p in plain)
    values["trace.traced_wall_s"] = statistics.median(p.wall for p in traced)
    values["trace.untraced_wall_s"] = statistics.median(p.wall for p in plain)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    return results, values


def failures(results: list) -> int:
    return sum(not ok for _, ok, _ in results)


def result_line(spec: dict, results: list, values: dict, trace: bool) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    failed = failures(results)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pumc" / "cli.py").is_file():
        print(f"error: pumc sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC_PATH) as fp:
        spec = json.load(fp)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        results, values = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for name, ok, detail in results:
        if not ok:
            print(f"check failed: {name} {detail}", file=sys.stderr)
    print(json.dumps(result_line(spec, results, values, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
