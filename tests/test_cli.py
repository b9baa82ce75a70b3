import argparse
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pumc.core
from pumc import models, netstat, serialize
from pumc.cli import _diagnose_table, main
from pumc.core import BLOCK_ENTRIES, build_multigraph_space, edge_total_table, num_dyads
from pumc.errors import PowerIterationError, SpaceTooLargeError, TheoremViolationError
from pumc.ermgm import ErmgmModel, from_factorization, mle_density_stability, sample_multigraphs
from pumc.expfam import CodeTable, ParameterMap
from pumc.netstat import factor_dyadditive
from pumc.simulate import sample_puniform_chain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(out):
    return json.loads(out)


def write_er_model(tmp_path, n=3):
    space = build_multigraph_space(n, 1)
    table = edge_total_table(space).astype(float)[:, None]
    fact = factor_dyadditive(space, table).factorization
    model = from_factorization(fact, ParameterMap("natural", l=1))
    path = str(tmp_path / "model.json")
    with open(path, "w") as fp:
        fp.write(serialize.dumps(serialize.ermgm_to_dict(model), indent=2))
    return path, model


def test_simulate_writes_jsonl_and_is_deterministic(tmp_path, capsys):
    out = str(tmp_path / "traj.jsonl")
    argv = [
        "simulate", "--model", "density", "--n", "3", "--p", "0.3",
        "--steps", "50", "--seed", "7", "--out", out,
    ]
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert "simulate:" in err
    first = Path(out).read_bytes()
    assert len(first.splitlines()) == 52  # header + 51 states

    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert Path(out).read_bytes() == first


def test_simulate_argument_validation(tmp_path, capsys):
    out = str(tmp_path / "t.jsonl")
    code, _, err = run(capsys, "simulate", "--model", "density", "--steps", "5",
                       "--seed", "1", "--out", out)
    assert code == 2 and "needs --n and --p" in err

    code, _, err = run(capsys, "simulate", "--model", "density", "--n", "3",
                       "--p", "0.3", "--steps", "5", "--seed", "1")
    assert code == 2 and "--out" in err

    for flags in (("--replicates", "0"), ("--replicates", "-3", "--jobs", "2"), ("--jobs", "0")):
        code, stdout, err = run(capsys, "simulate", "--model", "density", "--n", "3", "--p", "0.3",
                                "--steps", "5", "--seed", "1", "--out", out, *flags)
        assert (code, stdout, err) == (2, "", "error: --replicates and --jobs must be at least 1\n"), flags
    assert list(tmp_path.iterdir()) == []


def test_simulate_replicates_and_jobs_agree(tmp_path, capsys):
    base = [
        "simulate", "--model", "stability", "--n", "3", "--p", "0.4",
        "--steps", "30", "--seed", "11", "--replicates", "2",
    ]
    out1 = str(tmp_path / "a.jsonl")
    code, _, _ = run(capsys, *base, "--out", out1)
    assert code == 0
    seq = (tmp_path / "a.r0.jsonl").read_bytes(), (tmp_path / "a.r1.jsonl").read_bytes()
    assert seq[0] != seq[1]  # replicate lanes differ

    out2 = str(tmp_path / "b.jsonl")
    code, _, _ = run(capsys, *base, "--out", out2, "--jobs", "2")
    assert code == 0
    par = (tmp_path / "b.r0.jsonl").read_bytes(), (tmp_path / "b.r1.jsonl").read_bytes()
    assert par == seq  # fan-out does not change the draws


def test_simulate_custom_matrix(tmp_path, capsys):
    P = models.modular_chain(3).matrix()
    mpath = str(tmp_path / "P.csv")
    serialize.save_matrix(mpath, P)
    out = str(tmp_path / "c.jsonl")
    code, _, _ = run(capsys, "simulate", "--model", "custom", "--matrix", mpath,
                     "--steps", "20", "--seed", "3", "--out", out)
    assert code == 0
    kind, space, states = serialize.read_states_jsonl(out)
    assert space.size == 3 and states.size == 21


def test_detect_positive_and_negative(tmp_path, capsys):
    P = models.stability_chain(3, 0.3).matrix()
    mpath = str(tmp_path / "P.json")
    serialize.save_matrix(mpath, P)
    code, out, err = run(capsys, "detect", "--matrix", mpath)
    assert code == 0
    report = read_json(out)
    assert report["puniform"] is True
    mu = np.array(report["mu"])
    sigma = np.array(report["sigma"])
    assert sigma.shape == (8, 8)
    # witness is unique up to relabelling: same mass multiset, and it
    # reconstructs the matrix entrywise
    assert np.allclose(np.sort(mu), np.sort(models.stability_chain(3, 0.3).mu.p))
    assert np.abs(mu[sigma] - P.P).max() <= 1e-12

    neg = str(tmp_path / "neg.json")
    serialize.save_matrix(neg, type(P)(np.array([[1 / 3, 2 / 3], [3 / 7, 4 / 7]])))
    code, out, err = run(capsys, "detect", "--matrix", neg)
    assert code == 0
    report = read_json(out)
    assert report["puniform"] is False
    assert len(report["violation"]) == 3


def test_transform_round_trip_bytes(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3",
        "--steps", "40", "--seed", "9", "--x0", "2", "--out", traj_path)
    z_path = str(tmp_path / "z.jsonl")
    code, _, _ = run(capsys, "transform", "--traj", traj_path, "--direction",
                     "chain2iid", "--family", "stability", "--out", z_path)
    assert code == 0
    kind, _, z = serialize.read_states_jsonl(z_path)
    assert kind == "iid" and z.size == 40

    back = str(tmp_path / "back.jsonl")
    code, _, _ = run(capsys, "transform", "--traj", z_path, "--direction",
                     "iid2chain", "--family", "stability", "--x0", "2", "--out", back)
    assert code == 0
    assert Path(back).read_bytes() == Path(traj_path).read_bytes()

    code, _, err = run(capsys, "transform", "--traj", z_path, "--direction",
                       "iid2chain", "--family", "stability", "--out", back)
    assert code == 2 and "--x0" in err


def test_transform_direction_needs_its_stream_kind(tmp_path, capsys):
    traj_path, z_path = str(tmp_path / "x.jsonl"), str(tmp_path / "z.jsonl")
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3",
        "--steps", "20", "--seed", "9", "--out", traj_path)
    run(capsys, "transform", "--traj", traj_path, "--direction", "chain2iid", "--family", "stability",
        "--out", z_path)
    out_path = str(tmp_path / "out.jsonl")
    for path, direction, expects in ((traj_path, "iid2chain", "an iid"), (z_path, "chain2iid", "a trajectory")):
        code, out, err = run(capsys, "transform", "--traj", path, "--direction", direction,
                             "--family", "stability", "--x0", "0", "--out", out_path)
        assert (code, out, err) == (2, "", f"error: {direction} expects {expects} stream\n")


def test_transform_family_file_matches_the_builtin(tmp_path, capsys):
    """The stability family on G(3, 1) from literal numpy: sigma_a(b) = ~(a ^ b).

    transform and diagnose read it as they read the builtin name.
    """
    idx = np.arange(8)
    fam_path, small_path = str(tmp_path / "fam.json"), str(tmp_path / "fam4.json")
    with open(fam_path, "w") as fp:
        json.dump({"sigma": ((idx[:, None] ^ idx) ^ 7).tolist()}, fp)
    with open(small_path, "w") as fp:
        json.dump({"sigma": [[0, 1, 2, 3]] * 4}, fp)
    traj_path, z_path, back = (str(tmp_path / f) for f in ("x.jsonl", "z.jsonl", "back.jsonl"))
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3",
        "--steps", "40", "--seed", "9", "--x0", "2", "--out", traj_path)
    written = {}
    for family in ("stability", fam_path):
        codes = (
            run(capsys, "transform", "--traj", traj_path, "--direction", "chain2iid",
                "--family", family, "--out", z_path)[0],
            run(capsys, "transform", "--traj", z_path, "--direction", "iid2chain",
                "--family", family, "--x0", "2", "--out", back)[0],
        )
        written[family] = (codes, Path(z_path).read_bytes(), Path(back).read_bytes())
    assert written[fam_path] == written["stability"]
    assert written[fam_path][0] == (0, 0) and written[fam_path][2] == Path(traj_path).read_bytes()
    code, out, err = run(capsys, "transform", "--traj", traj_path, "--direction", "chain2iid",
                         "--family", small_path, "--out", z_path)
    assert (code, out, err) == (2, "", "error: family file does not match the space\n")

    report_path, csv_path = str(tmp_path / "report.json"), str(tmp_path / "run.csv")
    diagnosed = {}
    for family in ("stability", fam_path):
        argv = ("diagnose", "--traj", traj_path, "--stat", "stability", "--p", "0.3", "--csv", csv_path,
                "--family", family)
        printed = run(capsys, *argv)
        written = run(capsys, *argv, "--out", report_path)
        diagnosed[family] = (printed, written, Path(report_path).read_bytes(), Path(csv_path).read_bytes())
    assert diagnosed[fam_path] == diagnosed["stability"]
    assert diagnosed[fam_path][0][0] == 0 and read_json(diagnosed[fam_path][0][1])["stderr"] is not None
    code, out, err = run(capsys, "diagnose", "--traj", traj_path, "--stat", "stability", "--p", "0.3",
                         "--family", small_path)
    assert (code, out, err) == (2, "", "error: family file does not match the space\n")


def test_fit_matches_in_process_estimate(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "density", "--n", "3", "--p", "0.3",
        "--steps", "500", "--seed", "21", "--out", traj_path)
    code, out, err = run(capsys, "fit", "--traj", traj_path, "--stat", "density")
    assert code == 0
    report = read_json(out)

    cm = models.density_chain(3, 0.3)
    traj = sample_puniform_chain(cm.space, cm.mu, cm.family, 0, 500, seed=21)
    est = mle_density_stability(traj, "density")
    assert report["p_hat"] == est.p_hat
    assert report["transitions"] == 500
    assert report["boundary"] is False


def test_partition_with_brute_check(tmp_path, capsys):
    mpath, _ = write_er_model(tmp_path)
    code, out, err = run(capsys, "partition", "--model", mpath,
                         "--theta=-2,0,3", "--brute")
    assert code == 0
    report = read_json(out)
    assert report["theta"] == [-2.0, 0.0, 3.0]
    assert len(report["log_partition"]) == 3
    assert report["terms"] == 3 * 2  # dyads x (t+1) for G(3,1)
    assert max(report["rel_error"]) <= 1e-10
    # closed form: psi = 3 log(1 + e^gamma)
    for th, val in zip(report["theta"], report["log_partition"]):
        assert val == pytest.approx(3 * np.log1p(np.exp(th)), rel=1e-12)


def test_partition_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    mpath, _ = write_er_model(tmp_path)
    from pumc import oracle

    monkeypatch.setattr(oracle, "brute_partition", lambda fam, th: 123.0)
    code, out, err = run(capsys, "partition", "--model", mpath, "--theta", "1.0", "--brute")
    assert code == 3
    assert "MISMATCH" in err


def test_sample_single_and_batch(tmp_path, capsys):
    mpath, model = write_er_model(tmp_path)
    code, out, _ = run(capsys, "sample", "--model", mpath, "--theta", "0.5", "--seed", "4")
    assert code == 0
    g = serialize.multigraph_from_dict(read_json(out))
    assert g.n == 3 and g.t == 1

    batch = str(tmp_path / "draws.jsonl")
    code, _, _ = run(capsys, "sample", "--model", mpath, "--theta", "0.5",
                     "--seed", "4", "--count", "5", "--out", batch)
    assert code == 0
    lines = Path(batch).read_text().splitlines(keepends=True)
    assert len(lines) == 5
    assert out == lines[0]  # one draw is the head of the stream, in the same JSONL shape
    assert serialize.multigraph_from_dict(json.loads(lines[0])) == g


def _write_two_edge_model(tmp_path, eta=None):
    """G(3, 2) with tau_f(m) = m; literal JSON."""
    path = str(tmp_path / "g32.json")
    with open(path, "w") as fp:
        json.dump({"n": 3, "t": 2, "eta": eta or {"kind": "natural", "l": 1},
                   "tau_f": [[[0.0], [1.0], [2.0]]] * 3,
                   "kappa_f": [[1.0, 2.0, 1.0], [1.0, 1.5, 0.5], [2.0, 1.0, 1.0]]}, fp)
    return path


def test_weights_past_the_float_range_exit_2(tmp_path, capsys):
    path = _write_two_edge_model(tmp_path)
    for argv in (("partition", "--model", path, "--theta=1e308"),
                 ("sample", "--model", path, "--theta=1e308", "--seed", "1", "--count", "2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: the weights overflow the float range at this parameter"]


def test_weights_below_the_float_range_exit_2(tmp_path, capsys):
    """Every weight of a dyad at -inf is an overflow too: each dyad has a positive carrier."""
    path = str(tmp_path / "g32.json")
    with open(path, "w") as fp:
        json.dump({"n": 3, "t": 2, "eta": {"kind": "natural", "l": 1},
                   "tau_f": [[[2.0], [3.0], [4.0]]] * 3}, fp)
    for argv in (("partition", "--model", path, "--theta=-1e308"),
                 ("sample", "--model", path, "--theta=-1e308", "--seed", "1", "--count", "2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: the weights overflow the float range at this parameter"]


def test_table_maps_are_checked_when_read(tmp_path, capsys):
    for thetas, etas, message in (([0.5], [[0.5, 1.0]], "each table eta must have l = 1 values"),
                                  ([0.5, 0.5], [[0.5], [1.0]], "table thetas must lie more than 1e-12 apart"),
                                  ([0.5, 0.5 + 5e-13], [[0.5], [1.0]], "table thetas must lie more than 1e-12 apart")):
        path = _write_two_edge_model(tmp_path, {"kind": "table", "thetas": thetas, "etas": etas})
        code, out, err = run(capsys, "partition", "--model", path, "--theta", "0.5")
        assert (code, out, err) == (2, "", f"error: {message}\n"), thetas
    path = _write_two_edge_model(tmp_path, {"kind": "table", "thetas": [0.5, 0.5 + 3e-12], "etas": [[0.5], [1.0]]})
    code, out, _ = run(capsys, "partition", "--model", path, "--theta", "0.5")
    assert code == 0


def test_diagnose_stability_with_p(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3",
        "--steps", "2000", "--seed", "13", "--out", traj_path)
    csv_path = str(tmp_path / "run.csv")
    code, out, err = run(capsys, "diagnose", "--traj", traj_path, "--stat",
                         "stability", "--p", "0.3", "--csv", csv_path)
    assert code == 0
    report = read_json(out)
    assert report["target"] == [pytest.approx(0.45)]
    assert report["stderr"] is not None
    assert max(report["abs_error"]) < 0.1
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "step,running_mean"
    assert len(lines) == 2001


def test_diagnose_family_none_drops_se(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "density", "--n", "3", "--p", "0.3",
        "--steps", "100", "--seed", "13", "--out", traj_path)
    code, out, _ = run(capsys, "diagnose", "--traj", traj_path, "--stat",
                       "density", "--p", "0.3", "--family", "none")
    assert code == 0
    report = read_json(out)
    assert report["stderr"] is None and report["within_three_se"] is None


def test_diagnose_one_transition_has_no_iid_stderr(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3",
        "--steps", "1", "--seed", "13", "--out", traj_path)
    code, out, err = run(capsys, "diagnose", "--traj", traj_path, "--stat", "stability", "--p", "0.3")
    assert (code, out, err) == (2, "", "error: an iid standard error needs at least two transitions\n")
    code, out, _ = run(capsys, "diagnose", "--traj", traj_path, "--stat", "stability",
                       "--p", "0.3", "--family", "none")
    assert code == 0
    report = read_json(out)
    assert report["transitions"] == 1 and report["stderr"] is None


def test_diagnose_argument_errors(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "density", "--n", "3", "--p", "0.3",
        "--steps", "10", "--seed", "13", "--out", traj_path)
    code, _, err = run(capsys, "diagnose", "--traj", traj_path, "--stat", "degseq")
    assert code == 2 and "--target" in err
    code, _, err = run(capsys, "diagnose", "--traj", traj_path, "--stat",
                       "reciprocity", "--target", "1.0")
    assert code == 2 and "--n" in err


def test_diagnose_degseq_target_vector(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "density", "--n", "3", "--p", "0.5",
        "--steps", "800", "--seed", "17", "--out", traj_path)
    code, out, _ = run(capsys, "diagnose", "--traj", traj_path, "--stat",
                       "degseq", "--target", "0.4,1.0,1.6")
    assert code == 0
    report = read_json(out)
    assert len(report["final_mean"]) == 3
    assert report["stderr"] is not None


def test_exchangeability_density_and_custom(tmp_path, capsys):
    code, out, _ = run(capsys, "exchangeability", "--model", "density",
                       "--n", "3", "--p", "0.3")
    assert code == 0
    report = read_json(out)
    assert report["mu_exchangeable"] is True
    assert all(report["row_exchangeable"])
    assert report["equivalence_holds"] is True
    assert sorted(report["class_sizes"]) == [1, 1, 3, 3]

    w = np.full(8, 0.5 / 7)
    w[1] = 0.5
    mu_path = str(tmp_path / "mu.json")
    with open(mu_path, "w") as fp:
        json.dump({"p": w.tolist()}, fp)
    code, out, _ = run(capsys, "exchangeability", "--model", "custom",
                       "--n", "3", "--mu", mu_path)
    assert code == 0
    report = read_json(out)
    assert report["mu_exchangeable"] is False
    assert report["mu_witness"] is not None
    assert report["equivalence_holds"] is True


def test_family_words_each_command_refuses(tmp_path, capsys):
    traj_path, mu_path = str(tmp_path / "x.jsonl"), str(tmp_path / "mu.json")
    run(capsys, "simulate", "--model", "density", "--n", "3", "--p", "0.3", "--steps", "10", "--seed", "3",
        "--out", traj_path)
    with open(mu_path, "w") as fp:
        json.dump({"p": [0.125] * 8}, fp)
    cases = [
        (("transform", "--traj", traj_path, "--direction", "chain2iid", "--out", str(tmp_path / "z.jsonl"),
          "--family", word), f"{word} is not accepted here; use a builtin name or a family file")
        for word in ("auto", "none")
    ] + [
        (("exchangeability", "--model", "custom", "--n", "3", "--mu", mu_path, "--family", "none"),
         "none is not accepted here; use auto, a builtin name or a family file"),
        (("exchangeability", "--model", "density", "--n", "3", "--p", "0.3", "--family", "stability"),
         "stability is not accepted here; use auto"),
        (("exchangeability", "--model", "density", "--n", "3", "--p", "0.3", "--family", "none"),
         "none is not accepted here; use auto"),
    ]
    for argv, message in cases:
        assert run(capsys, *argv) == (2, "", f"error: --family {message}\n"), argv
    assert not (tmp_path / "z.jsonl").exists()


def test_diagnose_family_takes_any_builtin_name_or_a_file(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3", "--steps", "50", "--seed", "3",
        "--out", traj_path)
    code, out, _ = run(capsys, "diagnose", "--traj", traj_path, "--stat", "density", "--p", "0.3",
                       "--family", "identity")
    assert code == 0 and read_json(out)["stderr"] is not None
    code, out, err = run(capsys, "diagnose", "--traj", traj_path, "--stat", "density", "--p", "0.3",
                         "--family", "stability")
    assert (code, out) == (2, "") and err.startswith("error: statistic coordinate 0 is not p-uniform")
    missing = str(tmp_path / "nope.json")
    code, out, err = run(capsys, "diagnose", "--traj", traj_path, "--stat", "density", "--p", "0.3",
                         "--family", missing)
    assert (code, out, err) == (2, "", f"error: [Errno 2] No such file or directory: {missing!r}\n")


def test_exchangeability_model_needs_n_and_p(tmp_path, capsys):
    code, out, err = run(capsys, "exchangeability", "--model", "density", "--n", "3")
    assert (code, out, err) == (2, "", "error: --model density needs --n and --p\n")
    # modular could only refuse, and stability refuses from n = 3 on, so neither is a choice.
    for model in ("modular", "stability"):
        with pytest.raises(SystemExit) as exc:
            main(["exchangeability", "--model", model, "--n", "2", "--p", "0.3"])
        assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    # Stability's n = 2 answer: the ER law under its own family.
    mu_path = str(tmp_path / "er.json")
    with open(mu_path, "w") as fp:
        json.dump({"p": [0.7, 0.3]}, fp)
    code, out, _ = run(capsys, "exchangeability", "--model", "custom", "--n", "2", "--mu", mu_path,
                       "--family", "stability")
    assert code == 0 and read_json(out) == {"mu_exchangeable": True, "row_exchangeable": [True, True],
                                            "equivalence_holds": True, "class_sizes": [1, 1], "mu_witness": None}


@pytest.mark.parametrize("error", [TheoremViolationError("rows disagree"),
                                   PowerIterationError("no convergence", None, 10)])
def test_a_failed_numerical_check_exits_3(capsys, monkeypatch, error):
    def fail(*args):
        raise error

    monkeypatch.setattr(netstat, "exchangeability_transfer", fail)
    code, out, err = run(capsys, "exchangeability", "--model", "density", "--n", "3", "--p", "0.3")
    assert (code, out, err) == (3, "", f"numerical check failed: {error}\n")


def test_exchangeability_custom_needs_a_matching_pmf(tmp_path, capsys):
    mu_path = str(tmp_path / "mu.json")
    with open(mu_path, "w") as fp:
        json.dump({"p": [0.25] * 4}, fp)
    for flags, message in ((("--n", "3"), "--model custom needs --n and --mu"),
                           (("--mu", mu_path), "--model custom needs --n and --mu"),
                           (("--n", "3", "--mu", mu_path), "pmf file does not match the space")):
        code, out, err = run(capsys, "exchangeability", "--model", "custom", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n"), flags


def test_detect_non_finite_matrix_exits_2(tmp_path, capsys):
    path = str(tmp_path / "nan.json")
    with open(path, "w") as fp:
        fp.write('{"matrix": [[NaN, 1.0], [0.5, 0.5]]}')
    code, out, err = run(capsys, "detect", "--matrix", path)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err and err.count("\n") == 1


def test_non_integer_index_or_state_exits_2(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3",
        "--steps", "10", "--seed", "9", "--out", traj_path)
    header, *records = Path(traj_path).read_text().splitlines()
    for bad_record in ('{"i":3,"state":2.7}', '{"i":true,"state":2}'):
        bad = str(tmp_path / "bad.jsonl")
        with open(bad, "w") as fp:
            fp.write("\n".join([header, *records[:3], bad_record, *records[4:]]) + "\n")
        code, out, err = run(capsys, "fit", "--traj", bad, "--stat", "stability")
        assert code == 2 and out == "" and f"{bad}:5:" in err


def test_fit_on_a_space_that_is_not_a_simple_graph_names_the_statistic(tmp_path, capsys):
    matrix = str(tmp_path / "P.csv")
    serialize.save_matrix(matrix, models.modular_chain(3).matrix())
    for stat, model in (("stability", ("custom", "--matrix", matrix)), ("density", ("modular", "--n", "3"))):
        traj = str(tmp_path / f"{model[0]}.jsonl")
        run(capsys, "simulate", "--model", *model, "--steps", "10", "--seed", "4", "--out", traj)
        code, out, err = run(capsys, "fit", "--traj", traj, "--stat", stat)
        assert (code, out, err) == (2, "", f"error: {stat} needs a simple-graph space with n >= 2\n")


def test_non_integer_header_sizes_exit_2(tmp_path, capsys):
    traj = str(tmp_path / "h.jsonl")
    model = str(tmp_path / "m.json")
    for value in ("null", "3.7", '"3"', "true"):
        with open(traj, "w") as fp:
            fp.write('{"kind":"trajectory","space":{"kind":"multigraph","n":%s,"t":1}}\n'
                     '{"i":0,"state":1}\n{"i":1,"state":2}\n' % value)
        code, out, err = run(capsys, "fit", "--traj", traj, "--stat", "density")
        assert (code, out) == (2, "")
        assert err == f'error: "n" must be an integer, got {value}\n'
        with open(model, "w") as fp:
            fp.write('{"n":3,"t":%s,"eta":{"kind":"natural","l":1},'
                     '"tau_f":[[[0.0],[1.0]],[[0.0],[1.0]],[[0.0],[1.0]]]}' % value)
        code, out, err = run(capsys, "partition", "--model", model, "--theta", "0.5")
        assert (code, out) == (2, "")
        assert err == f'error: "t" must be an integer, got {value}\n'
    with open(model, "w") as fp:
        fp.write('{"n":3,"t":1,"eta":{"kind":"natural","l":1.0},'
                 '"tau_f":[[[0.0],[1.0]],[[0.0],[1.0]],[[0.0],[1.0]]]}')
    code, _, err = run(capsys, "partition", "--model", model, "--theta", "0.5")
    assert code == 2 and err == 'error: "l" must be an integer, got 1.0\n'


def test_unreadable_header_names_file_and_line(tmp_path, capsys):
    """An empty file or a non-JSON first line exits 2 with <path>:1:, as a bad body line does."""
    out = str(tmp_path / "out.jsonl")
    for text in ("", 'not json\n{"i":0,"state":1}\n'):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        for argv in (("fit", "--stat", "density"),
                     ("transform", "--direction", "chain2iid", "--family", "stability", "--out", out)):
            code, stdout, err = run(capsys, argv[0], "--traj", str(bad), *argv[1:])
            assert (code, stdout) == (2, "")
            assert err.startswith(f"error: {bad}:1: ") and err.count("\n") == 1


def test_non_utf8_trajectory_names_file_and_line(tmp_path, capsys):
    """A byte that is not UTF-8 exits 2 with one <path>:<line>: line naming the
    line that holds it, whether it sits in the header, just past it (where the
    decoder meets it while reading the header) or past the first chunk."""
    header = b'{"kind":"trajectory","space":{"kind":"multigraph","n":3,"t":1}}\n'
    states = b"".join(b'{"i":%d,"state":%d}\n' % (i, i % 8) for i in range(2 * serialize.CHUNK))
    out = str(tmp_path / "out.jsonl")
    for data, line in ((b'{"kind":"\xff"}\n' + states, 1), (header + b'{"i":0,"state":1}\n\xc3(\n', 3),
                       (header + states + b"\xff\n", 2 * serialize.CHUNK + 2)):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data)
        for argv in (("fit", "--stat", "density"),
                     ("transform", "--direction", "chain2iid", "--family", "stability", "--out", out)):
            code, stdout, err = run(capsys, argv[0], "--traj", str(bad), *argv[1:])
            assert (code, stdout) == (2, "")
            assert err.startswith(f"error: {bad}:{line}: 'utf-8' codec can't decode") and err.count("\n") == 1


def _first_difference(text, expected):
    """(line number, got, expected) of the first differing line, or None."""
    got, want = text.split("\n"), expected.split("\n")
    for k, (a, b) in enumerate(zip(got, want), 1):
        if a != b:
            return k, a, b
    return None if len(got) == len(want) else (min(len(got), len(want)) + 1, len(got), len(want))


def _plain_sample_lines(model, draws):
    dyads = [(u + 1, v + 1) for u in range(1, model.n) for v in range(u)]
    return "".join(
        json.dumps({"n": model.n, "t": model.t,
                    "dyads": [[u, v, int(m)] for (u, v), m in zip(dyads, row)]},
                   separators=(",", ":")) + "\n"
        for row in draws
    )


def test_sample_past_one_chunk_matches_plain_json(tmp_path, capsys):
    mpath, model = write_er_model(tmp_path, n=4)
    for count in (serialize.CHUNK + 5, 0):
        code, out, _ = run(capsys, "sample", "--model", mpath, "--theta", "0.3",
                           "--seed", "6", "--count", str(count))
        assert code == 0
        draws = sample_multigraphs(model, 0.3, count, 6)
        assert _first_difference(out, _plain_sample_lines(model, draws)) is None


def test_sample_on_one_and_on_two_digit_vertices_matches_plain_json(tmp_path, capsys):
    """n = 12 mixes one- and two-digit vertices (several piece lengths) and
    multiplicities up to 10; n = 1 has no dyads, so every record holds "dyads":[]."""
    gen = np.random.default_rng(8)
    models_by_n = {n: ErmgmModel(n=n, t=t, tau_f=gen.normal(size=(num_dyads(n), t + 1, 1)) * 2.0,
                                 kappa_f=None, eta=ParameterMap("natural", l=1))
                   for n, t in ((1, 2), (12, 10))}
    for n, model in models_by_n.items():
        mpath = str(tmp_path / f"model{n}.json")
        with open(mpath, "w") as fp:
            fp.write(serialize.dumps(serialize.ermgm_to_dict(model)))
        code, out, _ = run(capsys, "sample", "--model", mpath, "--theta", "0.5", "--seed", "3", "--count", "40")
        assert code == 0
        draws = sample_multigraphs(model, 0.5, 40, 3)
        assert draws.shape == (40, num_dyads(n))
        assert _first_difference(out, _plain_sample_lines(model, draws)) is None


def test_one_vertex_model_file_reads_back_for_partition(tmp_path, capsys):
    """G(1, 2) has one state, the empty graph, so psi = log 1 = 0 at every theta;
    its tau_f and kappa_f are written as [], which carries no shape."""
    model = ErmgmModel(n=1, t=2, tau_f=np.zeros((0, 3, 1)), kappa_f=None, eta=ParameterMap("natural", l=1))
    mpath = str(tmp_path / "model1.json")
    with open(mpath, "w") as fp:
        fp.write(serialize.dumps(serialize.ermgm_to_dict(model)))
    assert '"tau_f":[],"kappa_f":[]' in Path(mpath).read_text()
    code, out, _ = run(capsys, "partition", "--model", mpath, "--theta=0.5,-1", "--brute")
    assert code == 0
    report = read_json(out)
    assert report["log_partition"] == [0.0, 0.0] and report["brute"] == [0.0, 0.0]


def test_diagnose_csv_past_one_chunk_matches_plain_format(tmp_path, capsys):
    steps = serialize.CHUNK + 10
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3",
        "--steps", str(steps), "--seed", "21", "--out", traj_path)
    csv_path = str(tmp_path / "run.csv")
    code, _, _ = run(capsys, "diagnose", "--traj", traj_path, "--stat", "stability",
                     "--p", "0.3", "--csv", csv_path)
    assert code == 0

    # stability statistic on G(3, 1): dyads outside a xor b, over n - 1
    x = [json.loads(line)["state"] for line in Path(traj_path).read_text().splitlines()[1:]]
    series = np.array([(3 - bin(a ^ b).count("1")) / 2 for a, b in zip(x, x[1:])])
    running = np.cumsum(series) / np.arange(1, steps + 1)
    expected = "step,running_mean\n" + "".join(
        f"{k},{format(v, '.17g')}\n" for k, v in enumerate(running.tolist(), 1)
    )
    assert _first_difference(Path(csv_path).read_text(), expected) is None


def test_config_overrides_flags(tmp_path, capsys):
    out = str(tmp_path / "t.jsonl")
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fp:
        json.dump({"steps": 100, "p": 0.5}, fp)
    code, _, _ = run(capsys, "simulate", "--model", "density", "--n", "3",
                     "--p", "0.1", "--steps", "5", "--seed", "2",
                     "--out", out, "--config", cfg)
    assert code == 0
    _, _, states = serialize.read_states_jsonl(out)
    assert states.size == 101

    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fp:
        json.dump({"nonsense": 1}, fp)
    code, _, err = run(capsys, "simulate", "--model", "density", "--n", "3",
                       "--p", "0.1", "--steps", "5", "--seed", "2",
                       "--out", out, "--config", bad)
    assert code == 2 and "unknown config key" in err

    nondict = str(tmp_path / "list.json")
    with open(nondict, "w") as fp:
        json.dump([1, 2], fp)
    code, _, err = run(capsys, "simulate", "--model", "density", "--n", "3",
                       "--p", "0.1", "--steps", "5", "--seed", "2",
                       "--out", out, "--config", nondict)
    assert code == 2 and "JSON object" in err

    # values are held to the flag's type and choices, like the flags themselves
    for i, (overrides, message) in enumerate((
        ({"steps": "10"}, "'steps' needs int"),
        ({"func": 1}, "unknown config key 'func'"),
        ({"x0": "0", "expand": "yes"}, "'x0' needs int"),
        ({"expand": "yes"}, "'expand' needs bool"),
        ({"model": "bogus"}, "'model' must be one of"),
        ({"p": 10 ** 400}, "'p' needs float, got an integer past the float64 range"),
    )):
        path = str(tmp_path / f"typed{i}.json")
        with open(path, "w") as fp:
            json.dump(overrides, fp)
        code, _, err = run(capsys, "simulate", "--model", "density", "--n", "3",
                           "--p", "0.1", "--steps", "5", "--seed", "2",
                           "--out", out, "--config", path)
        assert code == 2 and message in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    # an integer is a valid value for a float flag
    matrix = str(tmp_path / "m.json")
    loose = str(tmp_path / "loose.json")
    with open(matrix, "w") as fp:
        json.dump([[0.5, 0.5], [0.25, 0.75]], fp)
    with open(loose, "w") as fp:
        json.dump({"tol": 1}, fp)
    code, out, _ = run(capsys, "detect", "--matrix", matrix, "--config", loose)
    assert code == 0 and read_json(out)["puniform"] is True


def test_missing_files_exit_2(capsys):
    code, _, err = run(capsys, "detect", "--matrix", "/nonexistent/m.json")
    assert code == 2
    code, _, err = run(capsys, "fit", "--traj", "/nonexistent/t.jsonl", "--stat", "density")
    assert code == 2
    code, _, err = run(capsys, "fit", "--traj", "/nonexistent/t.jsonl", "--stat", "density",
                       "--config", "/nonexistent/c.json")
    assert code == 2


def test_reordered_or_gapped_trajectory_exits_2(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3",
        "--steps", "10", "--seed", "9", "--out", traj_path)
    header, *records = Path(traj_path).read_text().splitlines()
    swapped = str(tmp_path / "swapped.jsonl")
    with open(swapped, "w") as fp:
        fp.write("\n".join([header, records[0], records[2], records[1], *records[3:]]) + "\n")
    code, _, err = run(capsys, "transform", "--traj", swapped, "--direction", "chain2iid",
                       "--family", "stability", "--out", str(tmp_path / "z.jsonl"))
    assert code == 2 and '"i": 1' in err

    gapped = str(tmp_path / "gapped.jsonl")
    with open(gapped, "w") as fp:
        fp.write("\n".join([header, *records[:4], *records[5:]]) + "\n")
    code, out, err = run(capsys, "fit", "--traj", gapped, "--stat", "stability")
    assert code == 2 and out == "" and '"i": 4' in err


def test_fractional_family_file_exits_2(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "modular", "--n", "3", "--steps", "10", "--seed", "4",
        "--out", traj_path)
    fam_path = str(tmp_path / "fam.json")
    with open(fam_path, "w") as fp:
        fp.write('{"sigma": [[0, 1, 2.9], [2, 0, 1], [1, 2, 0]]}')
    out_path = tmp_path / "z.jsonl"
    code, out, err = run(capsys, "transform", "--traj", traj_path, "--direction", "chain2iid",
                         "--family", fam_path, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == 'error: "sigma" must be a 2-D array of integer state indices\n'
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["matrix", "family", "model", "pmf", "config"])
def test_unreadable_json_files_are_named(tmp_path, capsys, kind):
    """A JSON input file that does not parse, or is not UTF-8, exits 2 with
    one line that names it: `<path>: ...` or `<path>:<line>: ...`."""
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "density", "--n", "3", "--p", "0.3", "--steps", "10", "--seed", "3",
        "--out", traj_path)
    path = str(tmp_path / "in.json")
    argv = {
        "matrix": ("detect", "--matrix", path),
        "family": ("transform", "--traj", traj_path, "--direction", "chain2iid", "--family", path,
                   "--out", str(tmp_path / "z.jsonl")),
        "model": ("partition", "--model", path, "--theta", "0.5"),
        "pmf": ("exchangeability", "--model", "custom", "--n", "3", "--mu", path),
        "config": ("detect", "--matrix", str(tmp_path / "absent.json"), "--config", path),
    }[kind]
    for text, message in (
        (b'{"p": [0.5,', f"{path}: Expecting value: line 1 column 12 (char 11)"),
        (b'{\n"p": [0.5, \xff]}', f"{path}:2: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
    ):
        Path(path).write_bytes(text)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), text
    assert not (tmp_path / "z.jsonl").exists()


_MODEL = {"n": 3, "t": 1, "tau_f": [[[0.0], [1.0]]] * 3, "eta": {"kind": "natural"}}
_HEADER = {"kind": "trajectory", "space": {"kind": "multigraph", "n": 3, "t": 1}}
# (file kind, a valid document, the key path of one required field)
REQUIRED_FIELDS = [
    ("matrix", {"matrix": [[1.0]]}, ("matrix",)),
    ("pmf", {"p": [0.125] * 8}, ("p",)),
    ("family", {"tag": "", "sigma": [[0]]}, ("sigma",)),
    *[("model", _MODEL, field) for field in (("n",), ("t",), ("tau_f",), ("eta",), ("eta", "kind"))],
    ("model", dict(_MODEL, eta={"kind": "density_logit", "n": 3}), ("eta", "n")),
    *[("model", dict(_MODEL, eta={"kind": "table", "thetas": [0.5], "etas": [[0.5]]}), ("eta", key))
      for key in ("thetas", "etas")],
    ("trajectory", _HEADER, ("space",)),
    *[("trajectory", _HEADER, ("space", key)) for key in ("n", "t")],
    ("trajectory", {"kind": "trajectory", "space": {"kind": "modular", "n": 3}}, ("space", "n")),
    ("trajectory", {"kind": "trajectory", "space": {"kind": "generic", "labels": ["a"]}}, ("space", "labels")),
]


@pytest.mark.parametrize("kind,doc,field", REQUIRED_FIELDS, ids=[f"{k}-{'.'.join(f)}" for k, _, f in REQUIRED_FIELDS])
def test_a_missing_required_field_names_the_file_and_the_field(tmp_path, capsys, kind, doc, field):
    doc = json.loads(json.dumps(doc))
    *parents, key = field
    node = doc
    for parent in parents:
        node = node[parent]
    del node[key]
    traj_path = tmp_path / "x.jsonl"
    traj_path.write_text(json.dumps(_HEADER) + '\n{"i":0,"state":0}\n')
    path = str(tmp_path / "in.json")
    argv = {
        "matrix": ("detect", "--matrix", path),
        "pmf": ("exchangeability", "--model", "custom", "--n", "3", "--mu", path),
        "family": ("transform", "--traj", str(traj_path), "--direction", "chain2iid", "--family", path,
                   "--out", str(tmp_path / "z.jsonl")),
        "model": ("partition", "--model", path, "--theta", "0.5"),
        "trajectory": ("fit", "--traj", path, "--stat", "density"),
    }[kind]
    where = f"{path}:1" if kind == "trajectory" else path
    Path(path).write_text(json.dumps(doc) + '\n{"i":0,"state":0}\n' * (kind == "trajectory"))
    assert run(capsys, *argv) == (2, "", f'error: {where}: missing field "{key}"\n')


@pytest.mark.parametrize("name,tables", [
    ("tau", {"tau_f": [[[0.0], [1e308]]] * 3}),
    ("kappa", {"tau_f": [[[0.0], [1.0]]] * 3, "kappa_f": [[1.0, 1e300]] * 3}),
])
def test_partition_brute_refuses_a_per_state_overflow_in_one_line(tmp_path, capsys, name, tables):
    """Finite per-dyad tables whose rebuilt per-state tau (3e308) or kappa
    (1e900) on G(3, 1) leaves the float range. pytest makes a numpy
    RuntimeWarning an error, so none may escape on the way to exit 2."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3, "t": 1, "eta": {"kind": "natural"}, **tables}))
    code, out, err = run(capsys, "partition", "--model", str(path), "--theta=0", "--brute")
    assert (code, out, err) == (2, "", f"error: the per-state {name} overflows the float range\n")


def test_ragged_json_arrays_name_their_field(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "density", "--n", "1", "--p", "0.3", "--steps", "4", "--seed", "3",
        "--out", traj_path)
    matrix, family = str(tmp_path / "m.json"), str(tmp_path / "f.json")
    Path(matrix).write_text('{"matrix": [[0.5,0.5],[0.5]]}')
    Path(family).write_text('{"sigma": [[0,1],[0]]}')
    for argv, message in (
        (("detect", "--matrix", matrix), '"matrix" must be a rectangular array of JSON numbers'),
        (("transform", "--traj", traj_path, "--direction", "chain2iid", "--family", family,
          "--out", str(tmp_path / "z.jsonl")), '"sigma" must be a 2-D array of integer state indices'),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv


def test_integers_past_the_float_range_name_their_field(tmp_path, capsys):
    huge = 7 * 10 ** 400
    model = {"n": 3, "t": 1, "tau_f": [[[0.0], [1.0]]] * 3, "eta": {"kind": "natural"}}
    table_eta = {"kind": "table", "thetas": [0.5, huge], "etas": [[0.5], [1.0]]}
    cases = [
        ("m.json", {"matrix": [[huge, 0.5], [0.5, 0.5]]}, ("detect", "--matrix"), '"matrix"'),
        ("mu.json", {"p": [huge] + [0.0] * 7}, ("exchangeability", "--model", "custom", "--n", "3", "--mu"), '"p"'),
        ("tau.json", dict(model, tau_f=[[[0.0], [-huge]]] * 3), ("partition", "--theta", "0.5", "--model"), '"tau_f"'),
        ("eta.json", dict(model, eta=table_eta), ("partition", "--theta", "0.5", "--model"), '"thetas"'),
    ]
    for name, doc, argv, field in cases:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert run(capsys, *argv, str(path)) == (2, "", f"error: {field} holds an integer past the float64 range\n")


def test_reciprocity_diagnose_table_holds_one_table():
    """diagnose --stat reciprocity builds its code table, one float64 row
    block of counts at a time, and no dense table or carrier."""
    args = argparse.Namespace(stat="reciprocity", n=4)
    space = models.directed_space(4)
    tracemalloc.start()
    try:
        table, fam = _diagnose_table(args, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam is None and isinstance(table, CodeTable) and table.shape == (space.size, space.size, 1)
    limit = table.codes.nbytes + BLOCK_ENTRIES * 8 + 2 * 2**20
    assert peak <= limit, f"peak {peak / 2**20:.1f} MiB"


def test_reciprocity_size_mismatch_is_found_before_the_labels(tmp_path, capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("directed_space called")

    monkeypatch.setattr(models, "directed_space", refuse)
    traj_path = str(tmp_path / "s.jsonl")
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3", "--steps", "10",
        "--seed", "2", "--out", traj_path)
    for n in ("2", "5", "40"):
        code, out, err = run(capsys, "diagnose", "--traj", traj_path, "--stat", "reciprocity",
                             "--n", n, "--target", "1")
        assert (code, out) == (2, "")
        assert err == "error: trajectory space does not match the directed space for --n\n"


def test_directed_space_shares_the_state_cap():
    with pytest.raises(SpaceTooLargeError, match=r"6 vertices: 2\^30 states, past the cap of 16777216"):
        models.directed_space(6)


def test_detect_checks_its_work_tables_against_the_budget(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "P.json")
    serialize.save_matrix(path, models.stability_chain(3, 0.3).matrix())
    monkeypatch.setattr(pumc.core, "DENSE_ENTRY_CAP", 63)
    code, out, err = run(capsys, "detect", "--matrix", path)
    assert (code, out) == (2, "")
    assert err == "error: detection's work tables would hold 8 x 8 entries, past the cap of 63\n"


def test_out_flag_writes_file_not_stdout(tmp_path, capsys):
    mpath, _ = write_er_model(tmp_path)
    result = str(tmp_path / "res.json")
    code, out, err = run(capsys, "partition", "--model", mpath, "--theta", "0.0",
                         "--out", result)
    assert code == 0
    assert out == ""
    report = json.loads(Path(result).read_text())
    assert report["log_partition"][0] == pytest.approx(3 * np.log(2), rel=1e-14)


def test_diagnose_needs_a_graph_space_under_any_family(tmp_path, capsys):
    traj_path = str(tmp_path / "m.jsonl")
    run(capsys, "simulate", "--model", "modular", "--n", "5", "--steps", "20", "--seed", "1",
        "--out", traj_path)
    for family in ("auto", "identity"):
        code, out, err = run(capsys, "diagnose", "--traj", traj_path, "--stat", "density",
                             "--p", "0.3", "--family", family)
        assert (code, out) == (2, "")
        assert err == "error: --stat density needs a simple-graph trajectory\n"


def test_string_and_bool_numbers_are_rejected(tmp_path, capsys):
    for rows in ([["0.5", "0.5"], ["0.5", "0.5"]], [[True, 0.0], [0.5, 0.5]], [[True, False], [False, True]],
                 [[0.5, None], [0.5, 0.5]]):
        path = str(tmp_path / "m.json")
        with open(path, "w") as fp:
            json.dump({"matrix": rows}, fp)
        code, out, err = run(capsys, "detect", "--matrix", path)
        assert (code, out) == (2, ""), rows
        assert err == 'error: "matrix" must be an array of JSON numbers\n'
    for masses in (["0.125"] * 8, [True] + [0.0] * 7, 0.125):
        path = str(tmp_path / "mu.json")
        with open(path, "w") as fp:
            json.dump({"p": masses}, fp)
        code, out, err = run(capsys, "exchangeability", "--model", "custom", "--n", "3",
                             "--mu", path)
        assert (code, out) == (2, ""), masses
        assert err == 'error: "p" must be an array of JSON numbers\n'
    path = str(tmp_path / "ints.json")
    with open(path, "w") as fp:
        json.dump([[1, 0], [0, 1]], fp)
    code, _, _ = run(capsys, "detect", "--matrix", path)
    assert code == 0


def test_huge_trajectory_space_reports_its_size(tmp_path, capsys):
    path = str(tmp_path / "big.jsonl")
    with open(path, "w") as fp:
        fp.write('{"kind":"trajectory","space":{"kind":"multigraph","n":2000,"t":1}}\n'
                 '{"i":0,"state":0}\n')
    code, out, err = run(capsys, "fit", "--traj", path, "--stat", "density")
    assert (code, out) == (2, "")
    assert err == "error: G(2000,1) has 2^1999000 states, past the cap of 16777216\n"


def test_dyadic_model_shape_is_checked_before_the_default_carrier(tmp_path, capsys):
    path = str(tmp_path / "m.json")
    with open(path, "w") as fp:
        json.dump({"n": 100000, "t": 1, "eta": {"kind": "natural", "l": 1},
                   "tau_f": [[[0.0], [1.0]]]}, fp)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "partition", "--model", path, "--theta", "0.5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: tau_f must be (num_dyads, t+1, l)\n"
    assert peak < 2 ** 20


def test_non_finite_model_tables_exit_2(tmp_path, capsys):
    head = '{"n": 3, "t": 1, "eta": {"kind": "natural", "l": 1}, '
    files = {
        "tau_f": head + '"tau_f": [[0, NaN], [0, 1], [0, 1]]}',
        "kappa_f": head + '"tau_f": [[0, 1], [0, 1], [0, 1]], "kappa_f": [[1, Infinity], [1, 1], [1, 1]]}',
    }
    for name, text in files.items():
        path = str(tmp_path / f"{name}.json")
        with open(path, "w") as fp:
            fp.write(text)
        for argv in (("partition", "--model", path, "--theta", "0.5", "--brute"),
                     ("sample", "--model", path, "--theta", "0.5", "--seed", "1", "--count", "3")):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {name} must be finite\n"), argv


def test_dyadic_model_sizes_exit_2(tmp_path, capsys):
    """n = -3 has "num_dyads" 6 and t = -1 has empty rows; both are refused, not evaluated."""
    eta = {"kind": "natural", "l": 1}
    files = {"n": {"n": -3, "t": 1, "eta": eta, "tau_f": [[0.0, 1.0]] * 6},
             "t": {"n": 3, "t": -1, "eta": eta, "tau_f": [[], [], []]}}
    for name, doc in files.items():
        path = str(tmp_path / f"{name}.json")
        with open(path, "w") as fp:
            json.dump(doc, fp)
        for argv in (("partition", "--model", path, "--theta", "0.5"),
                     ("sample", "--model", path, "--theta", "0.5", "--seed", "1", "--count", "3")):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", "error: need n >= 1 and t >= 0\n"), (name, argv)


def test_labels_thetas_and_etas_take_their_json_types(tmp_path, capsys):
    traj = str(tmp_path / "t.jsonl")
    for labels in (5, [[1], [2]], [1, 2], ["a", None]):
        with open(traj, "w") as fp:
            fp.write(json.dumps({"kind": "trajectory", "space": {"kind": "generic", "labels": labels}})
                     + '\n{"i":0,"state":0}\n{"i":1,"state":1}\n')
        code, out, err = run(capsys, "fit", "--traj", traj, "--stat", "stability")
        assert (code, out, err) == (2, "", 'error: "labels" must be an array of strings\n'), labels
    model = str(tmp_path / "m.json")
    for key, thetas, etas in (("thetas", [None], [[1.0]]), ("thetas", 5, [[1.0]]),
                              ("thetas", ["0.5"], [[1.0]]), ("etas", [0.5], [[True]])):
        with open(model, "w") as fp:
            json.dump({"n": 3, "t": 1, "tau_f": [[0.0, 1.0]] * 3,
                       "eta": {"kind": "table", "thetas": thetas, "etas": etas}}, fp)
        code, out, err = run(capsys, "partition", "--model", model, "--theta", "0.5")
        assert (code, out, err) == (2, "", f'error: "{key}" must be an array of JSON numbers\n'), thetas
    with open(model, "w") as fp:
        json.dump({"n": 3, "t": 1, "tau_f": [[0.0, 1.0]] * 3,
                   "eta": {"kind": "table", "thetas": [0.5], "etas": [2]}}, fp)
    code, out, _ = run(capsys, "partition", "--model", model, "--theta", "0.5")
    assert code == 0 and read_json(out)["log_partition"] == [pytest.approx(3 * np.log1p(np.exp(2.0)))]


def test_detect_tol_must_be_finite_and_non_negative(tmp_path, capsys):
    mpath = str(tmp_path / "P.json")
    serialize.save_matrix(mpath, models.stability_chain(4, 0.3).matrix())
    code, out, _ = run(capsys, "detect", "--matrix", mpath)
    assert code == 0 and read_json(out)["puniform"] is True
    for tol in ("nan", "-1", "inf", "-inf"):
        code, out, err = run(capsys, "detect", "--matrix", mpath, f"--tol={tol}")
        assert (code, out, err) == (2, "", "error: --tol must be a finite number >= 0\n"), tol


def test_diagnose_non_finite_target_exits_2(tmp_path, capsys):
    traj_path = str(tmp_path / "x.jsonl")
    run(capsys, "simulate", "--model", "stability", "--n", "3", "--p", "0.3",
        "--steps", "20", "--seed", "13", "--out", traj_path)
    for flags in (("density", "--target", "nan"), ("degseq", "--target", "0.4,inf,1"),
                  ("density", "--p", "nan"), ("stability", "--p", "nan"), ("stability", "--p", "1e308")):
        code, out, err = run(capsys, "diagnose", "--traj", traj_path, "--stat", *flags)
        assert code == 2 and out == "", flags
        assert err == "error: the diagnose target must be finite; check --target or --p\n", flags
    # A non-finite input is refused before the trajectory is read.
    for flags in (("density", "--target", "nan"), ("stability", "--p", "inf")):
        code, out, err = run(capsys, "diagnose", "--traj", str(tmp_path / "missing.jsonl"), "--stat", *flags)
        assert (code, out, err) == (2, "", "error: the diagnose target must be finite; check --target or --p\n")
