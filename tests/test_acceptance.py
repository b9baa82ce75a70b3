"""End-to-end gates, one test per guarantee the package makes.

Each test pins the tolerance it runs at; a failure here means a core
contract broke, not a flaky tolerance. Timing gates use generous budgets
measured after a warmup call.
"""

import itertools
import time

import numpy as np

from pumc import models, oracle
from pumc.core import (
    Pmf,
    StochasticMatrix,
    build_multigraph_space,
    builtin_family,
    edge_total_table,
    num_dyads,
)
from pumc.ermgm import (
    from_factorization,
    mle_density_stability,
    fast_log_partition_instrumented,
    to_expfam,
    union_expfam,
    union_log_probability,
)
from pumc.expfam import (
    ExpFamilySpec,
    ParameterMap,
    cef_transition_matrix,
    expfam_to_mef,
    gani_row_value_sets,
    grad_log_partition_fd,
    joint_log_pmf_from_counts,
    mean_parameter,
    mean_statistic,
    mef_check,
    mef_joint_log_pmf,
    pmf,
    transition_counts,
    validate_cef,
)
from pumc.netstat import (
    density_stat_table,
    dyad_count_table,
    exchangeability_transfer,
    factor_dyadditive,
    factor_dyadically_multiplicative,
    iso_classes,
    stability_stat_table,
)
from pumc.puniform import Trajectory, detect_puniform
from pumc.simulate import (
    convergence_report,
    sample_puniform_chain,
    trace_and_limit_checks,
)


def edge_count_model(n, t=1):
    space = build_multigraph_space(n, t)
    table = edge_total_table(space).astype(float)[:, None]
    fact = factor_dyadditive(space, table).factorization
    return from_factorization(fact, ParameterMap("natural", l=1))


def test_c01_two_state_detection_is_exact_and_fast():
    positives = [
        np.array([[0.2, 0.8], [0.8, 0.2]]),
        np.array([[0.7, 0.3], [0.3, 0.7]]),
        np.array([[1.0, 0.0], [1.0, 0.0]]),
    ]
    negative = np.array([[1 / 3, 2 / 3], [3 / 7, 4 / 7]])
    detect_puniform(StochasticMatrix(positives[0]))  # warmup

    for raw in positives:
        P = StochasticMatrix(raw)
        start = time.perf_counter()
        witness = detect_puniform(P)
        elapsed = time.perf_counter() - start
        assert witness is not None
        # exact: the witness reconstructs the matrix bit for bit
        assert np.array_equal(witness.mu.p[witness.family.sigma], raw)
        assert elapsed < 1e-3

    start = time.perf_counter()
    assert detect_puniform(StochasticMatrix(negative)) is None
    assert time.perf_counter() - start < 1e-3


def test_c02_relabelled_pairs_are_independent():
    start = time.perf_counter()
    chains = [
        models.density_chain(3, 0.3),
        models.density_chain(3, 0.5),
        models.stability_chain(3, 0.3),
        models.stability_chain(3, 0.5),
        models.modular_chain(3),
    ]
    for cm in chains:
        zlaw = oracle.pushforward_z_law(cm.matrix(), cm.family, 0, 2)
        plaw = oracle.product_law(cm.mu, 2)
        dev = max(abs(zlaw.prob(o) - plaw.prob(o)) for o in plaw.outcomes)
        assert dev <= 1e-12

    # negative control: a generic two-state chain has dependent pairs
    P = StochasticMatrix(np.array([[1 / 3, 2 / 3], [3 / 7, 4 / 7]]))
    fam = builtin_family(build_multigraph_space(2, 1), "identity")
    law = oracle.pushforward_z_law(P, fam, 0, 2)
    assert oracle.max_product_deviation(law, 2, 2) > 1e-2
    assert time.perf_counter() - start < 1.0


def test_c03_three_state_normalizer_survey():
    cef = models.gani_cef()
    probes = (0.5, 1.0, 2.0)
    report = validate_cef(cef, probes=probes)

    # the first two rows share the normalizer 3 theta + theta^3 at every
    # probe, so the literal rows are stochastic once divided by it
    for i, th in enumerate(probes):
        z = 3 * th + th**3
        assert np.abs(report.raw_sums[i, :2] / z - 1.0).max() <= 1e-12

    # at theta = 2 the last row sums to 15.5 against the shared 14
    at2 = validate_cef(cef, probes=(2.0,))
    assert at2.mismatched_rows == (2,)
    assert np.allclose(at2.raw_sums[0], [14.0, 14.0, 15.5], rtol=1e-12)

    mef = models.gani_two_row_mef()
    sets, all_equal = gani_row_value_sets(mef)
    assert all_equal
    for s in sets:
        assert np.array_equal(np.sort(np.asarray(s)), [1.0, 3.0])

    for th in probes:
        mp = mean_parameter(mef, th)
        closed = (3 * th + 3 * th**3) / (3 * th + th**3)
        assert abs(mp.value[0] - closed) <= 1e-12
        assert np.abs(mp.per_row - closed).max() <= 1e-12


def test_c04_joint_law_equals_counts_form():
    start = time.perf_counter()
    for mef, theta in ((models.density_mef(3), 0.3), (models.gani_two_row_mef(), 2.0)):
        P = cef_transition_matrix(mef, theta)
        size = mef.space.size
        for k in (1, 2, 3):
            for states in itertools.product(range(size), repeat=k + 1):
                x = Trajectory(space=mef.space, states=np.array(states))
                a = mef_joint_log_pmf(mef, theta, x)
                b = joint_log_pmf_from_counts(P, transition_counts(x))
                assert a.impossible == b.impossible
                if not a.impossible:
                    assert abs(a.value - b.value) <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_c05_partition_fast_path_matches_brute():
    spaces = ((3, 1), (4, 1), (3, 2))
    for n, t in spaces:
        model = edge_count_model(n, t)
        expected_terms = num_dyads(n) * (t + 1)
        for gamma in (-2.0, 0.0, 3.0):
            fast = fast_log_partition_instrumented(model, (gamma,))
            brute = oracle.brute_partition(to_expfam(model), (gamma,))
            rel = abs(fast.value - brute) / max(1.0, abs(brute))
            assert rel <= 1e-10
            assert fast.terms == expected_terms  # work scales with dyads, not states


def test_c06_union_law_three_ways():
    model = edge_count_model(3)
    gamma = (float(np.log(0.4 / 0.6)),)
    t = 3
    fibres = oracle.brute_union_fibres(model, gamma, t)
    law = oracle.brute_union_law(model, gamma, t)
    union_space = build_multigraph_space(3, t)
    assert len(fibres) == union_space.size == 64
    assert sum(mass.size for mass, _ in fibres.values()) == 8**t

    # sequences sharing a union are equally likely
    for mass, _ in fibres.values():
        assert mass.max() - mass.min() <= 1e-12

    uf = union_expfam(model, t)
    union_pmf = pmf(uf.family, gamma)
    for idx in range(union_space.size):
        target = law.mass[idx]
        direct = np.exp(union_log_probability(model, gamma, t, union_space.decode(idx)))
        assert abs(direct - target) <= 1e-12
        assert abs(union_pmf.p[idx] - target) <= 1e-12


def test_c07_long_run_time_averages_and_mle():
    start = time.perf_counter()
    cases = (
        (models.density_chain(4, 0.3), density_stat_table, "identity", "density"),
        (models.stability_chain(4, 0.3), stability_stat_table, "stability", "stability"),
    )
    for cm, table_fn, fam_name, stat in cases:
        traj = sample_puniform_chain(cm.space, cm.mu, cm.family, 0, 20000, seed=20260819)
        table = table_fn(cm.space)
        fam = builtin_family(cm.space, fam_name)
        report = convergence_report(traj, table, 0.6, fam)
        assert report.within_three_se is True
        est = mle_density_stability(traj, stat)
        assert abs(est.p_hat - 0.3) <= 0.02
    assert time.perf_counter() - start < 5.0


def test_c08_stability_matrix_structure():
    for p in (0.3, 0.9):
        report = trace_and_limit_checks(3, p)
        assert abs(report.trace - 8 * p**3) <= 1e-10
        assert report.symmetric
        assert report.uniform_stationary_residual <= 1e-10

    half = trace_and_limit_checks(3, 0.5)
    assert half.uniform_entry_deviation <= 1e-14  # every entry is 1/8


def test_c09_clustering_and_reciprocity_are_not_mefs():
    for cef in (models.transitivity_cef(4), models.reciprocity_cef(4)):
        assert np.all(cef.kappa == 1.0)
        sets, all_equal = gani_row_value_sets(cef)
        assert not all_equal
        # some row only sees the extremes, another sees the midpoint
        assert any(np.array_equal(np.sort(np.asarray(s)), [0.0, 4.0]) for s in sets)
        assert any(np.any(np.isclose(np.asarray(s), 2.0)) for s in sets)
        assert not mef_check(cef).ok
        assert detect_puniform(cef_transition_matrix(cef, 2.0)) is None


def test_c10_dyadic_factorization_boundaries():
    space = build_multigraph_space(3, 1)

    edges = edge_total_table(space).astype(float)
    assert factor_dyadditive(space, edges[:, None]).ok

    dc = dyad_count_table(space)
    deg = np.zeros((space.size, 3))
    for f, (u, v) in enumerate([(1, 0), (2, 0), (2, 1)]):
        deg[:, u] += dc[:, f]
        deg[:, v] += dc[:, f]
    assert factor_dyadditive(space, deg).ok

    tri = np.zeros(space.size)
    tri[7] = 1.0  # triangle count on three vertices
    res = factor_dyadditive(space, tri[:, None])
    assert not res.ok
    assert res.witness == space.decode(7)

    assert factor_dyadically_multiplicative(space, 2.0**edges).ok

    indicator = np.ones(space.size)
    indicator[7] = 3.0
    res = factor_dyadically_multiplicative(space, indicator)
    assert not res.ok and res.witness is not None


def test_c11_exchangeability_transfer():
    for n in (3, 4):
        cm = models.density_chain(n, 0.3)
        classes = iso_classes(cm.space)
        report = exchangeability_transfer(cm.matrix(), cm.family, cm.mu, classes)
        assert report.mu_exchangeable is True
        assert all(report.row_exchangeable)
        assert report.equivalence_holds is True

    # concentrating mass on one labelled graph breaks every row at once
    space = build_multigraph_space(3, 1)
    w = np.full(8, 0.5 / 7)
    w[1] = 0.5
    mu = Pmf(w)
    fam = builtin_family(space, "identity")
    P = StochasticMatrix(np.tile(mu.p, (8, 1)))
    report = exchangeability_transfer(P, fam, mu, iso_classes(space))
    assert report.mu_exchangeable is False
    assert not any(report.row_exchangeable)
    assert report.mu_witness is not None
    assert report.equivalence_holds is True


def test_c12_gradient_matches_mean():
    space = build_multigraph_space(4, 1)
    fam = ExpFamilySpec(
        space=space,
        kappa=np.ones(space.size),
        tau=edge_total_table(space).astype(float)[:, None],
        eta=ParameterMap("natural", l=1),
    )
    mef = expfam_to_mef(fam, builtin_family(space, "identity"))
    for gamma in (-1.0, 0.0, 2.0):
        fd = grad_log_partition_fd(fam, (gamma,))
        mean = mean_statistic(fam, (gamma,))
        assert np.abs(fd - mean).max() <= 1e-6
        mp = mean_parameter(mef, (gamma,))
        assert np.abs(mp.fd_gradient - mp.value).max() <= 1e-6
