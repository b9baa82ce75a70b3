"""Self-test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("pumc_bench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench    # dataclasses look their module up by name
_spec.loader.exec_module(bench)

SPEC = json.loads(bench.SPEC_PATH.read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COUNT_UNITS = ("count", "bytes")

# The workloads' command groups at sizes that take a few seconds a pass.
TINY = {
    "chain_pipeline": {"chain": {"n": 4, "steps": 3_000}},
    "dense_tables": {"dense": {"n": 4, "steps": 3_000, "recip_n": 3}},
    "dyadic_models": {"dyad": {"n": 4, "t": 2, "count": 2_000}},
}
SEED = 11


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced run and two traced runs, all with one seed."""
    out = {}
    for name, groups in TINY.items():
        work = tmp_path_factory.mktemp(name)
        out[name] = [
            bench.run_benchmark(groups, SEED, 0, trace, work / str(i))
            for i, trace in enumerate((False, True, True))
        ]
    return out


def test_workloads_match_the_spec():
    assert sorted(bench.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"]) == sorted(TINY)
    assert all(TINY[name].keys() == groups.keys() for name, groups in bench.WORKLOADS.items())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(runs, workload):
    results, values = runs[workload][0]
    line = json.loads(json.dumps(bench.result_line(SPEC, results, values, trace=False)))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == E2E
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_prints_every_layer_metric(runs, workload):
    for results, values in runs[workload][1:]:
        line = bench.result_line(SPEC, results, values, trace=True)
        assert line["correct"]
        assert {k: v["unit"] for k, v in line["metrics"].items()} == LAYERS
        assert set(values) <= set(LAYERS), set(values) - set(LAYERS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_exactly(runs, workload):
    (_, first), (_, second) = runs[workload][1:]
    counts = [name for name, unit in LAYERS.items() if unit in COUNT_UNITS]
    assert {n: first.get(n, 0) for n in counts} == {n: second.get(n, 0) for n in counts}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_layer_times_account_for_the_traced_pass(runs, workload):
    # Layer self times plus process.start_s add up to the commands' wall
    # times; the pass wall adds only the benchmark's own spawn bookkeeping.
    _, values = runs[workload][1]
    times = sum(v for n, v in values.items() if LAYERS[n] == "s" and not n.startswith(("trace.", "cmd.")))
    wall = values["trace.traced_wall_s"]
    assert times <= wall and times >= 0.97 * wall


def test_every_layer_metric_moves_on_some_workload(runs):
    seen = {name for per_workload in runs.values() for _, values in per_workload[1:]
            for name, value in values.items() if value != 0}
    assert seen >= set(LAYERS) - {"trace.overhead_s"}


def _corrupt_state(path: Path, line_no: int):
    lines = Path(path).read_text().splitlines(keepends=True)
    record = json.loads(lines[line_no])
    record["state"] = record["state"] ^ 1
    lines[line_no] = json.dumps(record, separators=(",", ":")) + "\n"
    Path(path).write_text("".join(lines))


# A corrupted first pass fails its closed-form check, and the clean second
# pass then differs from it; a corrupted second pass differs from the first.
@pytest.mark.parametrize("output, bad_pass, caught", [
    ("back.jsonl", 0, ["iid2chain round trip is byte-identical", "back.jsonl stable across passes"]),
    ("z.jsonl", 0, ["chain2iid z = ~(x_i ^ x_i+1)", "z.jsonl stable across passes"]),
    ("back.jsonl", 1, ["back.jsonl stable across passes"]),
])
def test_a_corrupted_state_is_caught(tmp_path, monkeypatch, output, bad_pass, caught):
    passes = []

    def run_pass_then_corrupt(steps, work, env, traced):
        result = run_pass(steps, work, env, traced)
        if len(passes) == bad_pass:
            _corrupt_state(work / output, 5)
        passes.append(result)
        return result

    run_pass = bench.run_pass
    monkeypatch.setattr(bench, "run_pass", run_pass_then_corrupt)
    results, values = bench.run_benchmark(TINY["chain_pipeline"], SEED, 0, False, tmp_path)
    assert [name for name, ok, _ in results if not ok] == caught
    line = bench.result_line(SPEC, results, values, trace=False)
    assert not line["correct"] and line["failed"] == len(caught)
    assert line["metrics"]["ok_ratio"]["value"] == 1.0 - len(caught) / line["attempted"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dense_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
