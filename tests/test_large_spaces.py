"""The chain pipeline on G(6, 1) and G(7, 1) under a 3 GB address-space cap.

The builtin families are formulas, so simulate, both transforms and fit
never build a 32768 x 32768 table (8 GiB as int64), and the commands that
need one (diagnose and exchangeability read dense statistic tables) exit 2
before allocating it. Dyad counts are computed per state, so the G(7, 1)
pipeline holds no 2^21 x 21 digit table either. Every run is a subprocess
with RLIMIT_AS set, so a regression fails fast with exit 1 instead of
taking the machine's memory. On G(5, 2), `sample` and `partition --brute`
hold one block of draws or of states, under tracemalloc.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pumc import models, serialize
from pumc.ermgm import ErmgmModel
from pumc.expfam import ParameterMap

SRC = Path(__file__).resolve().parents[1] / "src"
AS_LIMIT = 3 * 10 ** 9


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))


def _run(cwd, *argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=_env(), capture_output=True, text=True,
        preexec_fn=_limit_address_space, timeout=300,
    )


# Runs `python *argv` as its one child; prints the child's exit code and peak RSS in MB.
_PEAK_LAUNCHER = """
import resource, subprocess, sys
code = subprocess.run([sys.executable, *sys.argv[1:]], stdout=subprocess.DEVNULL, timeout=290).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


def peak_mb(cwd, *argv):
    """Run `python *argv`; return its exit code, stderr and peak RSS in MB.

    A child's ru_maxrss starts at its parent's resident size when it execs,
    so the run is started from a fresh interpreter, not from pytest. That
    launcher has one child, so RUSAGE_CHILDREN reads that child alone.
    """
    res = _run(cwd, "-c", _PEAK_LAUNCHER, *argv)
    code, mb = res.stdout.split()
    return int(code), res.stderr, float(mb)


def pumc(cwd, *argv):
    return _run(cwd, "-m", "pumc.cli", *argv)


def test_stability_pipeline_runs_at_n6(tmp_path):
    steps = [
        ("simulate", "--model", "stability", "--n", "6", "--p", "0.3", "--steps", "10000",
         "--seed", "6", "--x0", "5", "--out", "s.jsonl"),
        ("transform", "--traj", "s.jsonl", "--direction", "chain2iid", "--family", "stability",
         "--out", "z.jsonl"),
        ("transform", "--traj", "z.jsonl", "--direction", "iid2chain", "--family", "stability",
         "--x0", "5", "--out", "back.jsonl"),
        ("fit", "--traj", "s.jsonl", "--stat", "stability"),
    ]
    results = [pumc(tmp_path, *argv) for argv in steps]
    for argv, res in zip(steps, results):
        assert res.returncode == 0, (argv[0], res.stderr)
    assert (tmp_path / "back.jsonl").read_bytes() == (tmp_path / "s.jsonl").read_bytes()
    fit = json.loads(results[3].stdout)
    assert fit["transitions"] == 10000 and abs(fit["p_hat"] - 0.3) < 0.02


def test_expanded_pipeline_at_n7_stays_small(tmp_path):
    steps = [
        ("simulate", "--model", "stability", "--n", "7", "--p", "0.3", "--steps", "10000",
         "--seed", "7", "--x0", "5", "--expand", "--out", "s.jsonl"),
        ("transform", "--traj", "s.jsonl", "--direction", "chain2iid", "--family", "stability",
         "--out", "z.jsonl"),
        ("transform", "--traj", "z.jsonl", "--direction", "iid2chain", "--family", "stability",
         "--x0", "5", "--expand", "--out", "back.jsonl"),
        ("fit", "--traj", "s.jsonl", "--stat", "stability"),
    ]
    for argv in steps:
        code, err, mb = peak_mb(tmp_path, "-m", "pumc.cli", *argv)
        assert code == 0, (argv[0], err)
        assert mb <= 200, (argv[:3], f"{mb:.0f} MB")
    assert (tmp_path / "back.jsonl").read_bytes() == (tmp_path / "s.jsonl").read_bytes()


def test_dense_table_commands_exit_2_at_n6(tmp_path):
    assert pumc(tmp_path, "simulate", "--model", "density", "--n", "6", "--p", "0.3",
                "--steps", "100", "--seed", "1", "--out", "d.jsonl").returncode == 0
    for argv in (
        ("diagnose", "--traj", "d.jsonl", "--stat", "transitivity", "--target", "1"),
        ("diagnose", "--traj", "d.jsonl", "--stat", "stability", "--p", "0.3", "--csv", "run.csv"),
        ("diagnose", "--traj", "d.jsonl", "--stat", "stability", "--family", "symdiff",
         "--p", "0.3"),
        ("exchangeability", "--model", "density", "--n", "6", "--p", "0.3"),
    ):
        res = pumc(tmp_path, *argv)
        assert (res.returncode, res.stdout) == (2, ""), (argv, res.stderr)
        [line] = res.stderr.splitlines()
        assert line.startswith("error: ") and "32768 x 32768" in line, line
    assert not (tmp_path / "run.csv").exists()


def test_builtin_replay_at_n6_holds_no_table(tmp_path):
    script = """
import tracemalloc
import numpy as np
from pumc.core import build_multigraph_space, builtin_family
from pumc.puniform import Trajectory, chain_to_iid, iid_to_chain

space = build_multigraph_space(6, 1)
z = np.random.default_rng(1).integers(0, space.size, size=10_000)
tracemalloc.start()
fam = builtin_family(space, "stability")
x = iid_to_chain(3, z, fam, space)
back = chain_to_iid(x, fam)
peak = tracemalloc.get_traced_memory()[1]
assert np.array_equal(back, z)
print(peak)
"""
    res = _run(tmp_path, "-c", script)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 2 ** 20


def test_cli_import_leaves_the_process_pool_alone(tmp_path):
    res = _run(tmp_path, "-c", "import sys, pumc.cli; print('concurrent.futures' in sys.modules)")
    assert (res.returncode, res.stdout) == (0, "False\n")


def test_huge_replicate_count_runs_replicates_as_it_goes(tmp_path):
    """simulate holds one payload, not one per replicate, so a write failure
    at the third of 10^11 replicates ends the run with exit 2 and little memory."""
    script = """
import sys, tracemalloc
from pumc import cli, serialize

calls, write = [], serialize.write_trajectory

def write_then_fail(*args, **kwargs):
    calls.append(1)
    if len(calls) == 3:
        raise ValueError("disk full")
    return write(*args, **kwargs)

serialize.write_trajectory = write_then_fail
tracemalloc.start()
code = cli.main(sys.argv[1:])
print(code, len(calls), tracemalloc.get_traced_memory()[1])
"""
    res = _run(tmp_path, "-c", script, "simulate", "--model", "density", "--n", "3", "--p", "0.3",
               "--steps", "5", "--seed", "1", "--replicates", str(10 ** 11), "--out", "r.jsonl")
    assert res.returncode == 0, res.stderr
    code, calls, peak = map(int, res.stdout.split())
    assert (code, calls, res.stderr) == (2, 3, "error: disk full\n")
    assert peak < 4 * 2 ** 20, f"peak {peak} bytes"
    assert sorted(p.name for p in tmp_path.glob("r.r*.jsonl")) == ["r.r0.jsonl", "r.r1.jsonl"]


@pytest.fixture(scope="module")
def stability_p_json(tmp_path_factory):
    """The 1024-state stability matrix of G(5, 1) at p = 0.3, written as json.dump writes it."""
    path = tmp_path_factory.mktemp("detect") / "P.json"
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({"matrix": models.stability_chain(5, 0.3).matrix().P.tolist()}, fp)
    return path


def test_detect_holds_matrix_sigma_and_blocks(stability_p_json, tmp_path):
    """detect reads the 24 MB text in blocks, matches and checks rows in blocks and
    writes sigma in row chunks: its peak is the matrix and sigma (8 MiB each) plus
    a few MiB, where holding the text, a dense work table or the output text
    would each add 8-24 MiB."""
    script = """
import contextlib, io, sys, tracemalloc
from pumc import cli
tracemalloc.start()
with contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""
    res = _run(tmp_path, "-c", script, "detect", "--matrix", str(stability_p_json), "--out", "detect.json")
    assert res.returncode == 0, res.stderr
    code, peak = map(int, res.stdout.split())
    assert code == 0 and json.loads((tmp_path / "detect.json").read_text())["puniform"] is True
    assert peak <= 24 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_detect_child_rss_over_a_bare_import(stability_p_json, tmp_path):
    """tracemalloc sees no heap layout; the child's own ru_maxrss does. Holding the
    file's text once more puts the difference past 40 MB."""
    code, err, detect_mb = peak_mb(tmp_path, "-m", "pumc.cli", "detect", "--matrix", str(stability_p_json),
                                   "--out", "d.json")
    assert code == 0, err
    import_mb = peak_mb(tmp_path, "-c", "import pumc.cli")[2]
    assert detect_mb - import_mb <= 40, f"detect {detect_mb:.1f} MB, bare import {import_mb:.1f} MB"


@pytest.fixture(scope="module")
def edge_count_model_json(tmp_path_factory):
    """The G(5, 2) edge-count model, tau_f(m) = m on each of 10 dyads (59049 states)."""
    model = ErmgmModel(n=5, t=2, tau_f=np.tile(np.arange(3.0)[None, :, None], (10, 1, 1)), kappa_f=None,
                       eta=ParameterMap("natural"))
    path = tmp_path_factory.mktemp("dyadic") / "model.json"
    path.write_text(serialize.dumps(serialize.ermgm_to_dict(model)), encoding="utf-8")
    return path


_TRACED_MAIN = """
import contextlib, io, sys, tracemalloc
from pumc import cli
tracemalloc.start()
with contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("argv, budget_mib", [
    # 5e5 draws are 38 MiB of int64 and about 50 MiB of text; sample holds one block of each.
    (("sample", "--theta", "0.2", "--seed", "5", "--count", "500000", "--out", "draws.jsonl"), 4),
    # A whole-space rebuild would hold 59049 x 10 int64 counts and as many float64 gathers.
    (("partition", "--theta=-1,0.5,2", "--brute", "--out", "partition.json"), 5),
])
def test_dyadic_commands_hold_one_block(edge_count_model_json, tmp_path, argv, budget_mib):
    res = _run(tmp_path, "-c", _TRACED_MAIN, argv[0], "--model", str(edge_count_model_json), *argv[1:])
    assert res.returncode == 0, res.stderr
    code, peak = map(int, res.stdout.split())
    assert code == 0 and (tmp_path / argv[-1]).stat().st_size > 0
    assert peak <= budget_mib * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
