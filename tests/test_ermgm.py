from math import comb

import numpy as np
import pytest

from pumc import models, oracle
from pumc.core import Multigraph, build_multigraph_space, edge_total_table
from pumc.ermgm import (
    ErmgmModel,
    _dyad_log_weights,
    dyad_pmf,
    fast_log_partition,
    fast_log_partition_instrumented,
    from_factorization,
    mle_density_stability,
    multigraph_log_pmf,
    sample_multigraphs,
    to_expfam,
    union_expfam,
    union_log_probability,
)
from pumc.expfam import CefSpec, ExpFamilySpec, ParameterMap, log_partition, pmf
from pumc.netstat import DyadicFactorization, factor_dyadditive
from pumc.puniform import Trajectory


def er_model(n):
    """Edge-count model with unit carrier: tau_f = [0, 1] per dyad."""
    space = build_multigraph_space(n, 1)
    fact = factor_dyadditive(space, edge_total_table(space).astype(float)[:, None]).factorization
    return from_factorization(fact, ParameterMap("natural", l=1))


def test_model_validation():
    with pytest.raises(ValueError):
        ErmgmModel(
            n=3,
            t=1,
            tau_f=np.zeros((3, 2, 1)),
            kappa_f=np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]),
            eta=ParameterMap("natural", l=1),
        )
    with pytest.raises(ValueError):
        ErmgmModel(
            n=3, t=1, tau_f=np.zeros((2, 2, 1)), kappa_f=np.ones((3, 2)),
            eta=ParameterMap("natural", l=1),
        )


def test_sizes_are_checked_before_the_tables():
    """n >= 1 and t >= 0 on both classes; tables sized by num_dyads(n) and t + 1 pass every other check."""
    eta = ParameterMap("natural", l=1)
    for n, t in ((-3, 1), (0, 1), (-1, 2), (3, -1)):
        nd = n * (n - 1) // 2
        tau_f, kappa_f = np.zeros((nd, t + 1, 1)), np.ones((nd, t + 1))
        with pytest.raises(ValueError, match=r"need n >= 1 and t >= 0"):
            DyadicFactorization(n=n, t=t, tau_f=tau_f, kappa_f=kappa_f)
        with pytest.raises(ValueError, match=r"need n >= 1 and t >= 0"):
            ErmgmModel(n=n, t=t, tau_f=tau_f, kappa_f=kappa_f, eta=eta)
    # One vertex has no dyads: a single state of mass 1.
    lone = ErmgmModel(n=1, t=2, tau_f=np.zeros((0, 3, 1)), kappa_f=np.ones((0, 3)), eta=eta)
    assert fast_log_partition(lone, (0.5,)) == 0.0


def test_model_tables_are_checked_as_a_factorization():
    """ErmgmModel adds the eta dimension and the all-zero carrier row to the factorization checks."""
    eta = ParameterMap("natural", l=1)
    model = ErmgmModel(n=3, t=1, tau_f=np.zeros((3, 2)), kappa_f=None, eta=eta)
    assert model.tau_f.shape == (3, 2, 1) and np.array_equal(model.kappa_f, np.ones((3, 2)))
    with pytest.raises(ValueError, match="kappa_f must be nonnegative"):
        ErmgmModel(n=3, t=1, tau_f=np.zeros((3, 2)), kappa_f=-np.ones((3, 2)), eta=eta)
    with pytest.raises(ValueError, match=r"tau_f must be \(num_dyads, t\+1, l\)"):
        ErmgmModel(n=3, t=1, tau_f=np.zeros((3, 2, 2)), kappa_f=None, eta=eta)
    with pytest.raises(ValueError, match="factorization must carry statistic tables"):
        ErmgmModel(n=3, t=1, tau_f=None, kappa_f=None, eta=eta)


def test_non_finite_tables_are_rejected():
    space = build_multigraph_space(3, 1)
    eta = ParameterMap("natural", l=1)
    for bad in (np.nan, np.inf, -np.inf):
        tau_f, kappa_f = np.zeros((3, 2, 1)), np.ones((3, 2))
        tau_f[0, 1, 0] = bad
        with pytest.raises(ValueError, match="tau_f must be finite"):
            ErmgmModel(n=3, t=1, tau_f=tau_f, kappa_f=np.ones((3, 2)), eta=eta)
        with pytest.raises(ValueError, match="tau_f must be finite"):
            DyadicFactorization(n=3, t=1, tau_f=tau_f)
        kappa_f[1, 0] = abs(bad)
        with pytest.raises(ValueError, match="kappa_f must be finite"):
            ErmgmModel(n=3, t=1, tau_f=np.zeros((3, 2, 1)), kappa_f=kappa_f, eta=eta)
        with pytest.raises(ValueError, match="kappa_f must be finite"):
            DyadicFactorization(n=3, t=1, kappa_f=kappa_f)
        tau, kappa = np.zeros(space.size), np.ones(space.size)
        tau[5], kappa[6] = bad, abs(bad)
        with pytest.raises(ValueError, match="tau must be finite"):
            ExpFamilySpec(space=space, kappa=np.ones(space.size), tau=tau, eta=eta)
        with pytest.raises(ValueError, match="kappa must be finite"):
            ExpFamilySpec(space=space, kappa=kappa, tau=np.zeros(space.size), eta=eta)
        with pytest.raises(ValueError, match="tau must be finite"):
            CefSpec(space=space, kappa=np.broadcast_to(1.0, (8, 8)), tau=np.full((8, 8), bad), eta=eta)
        with pytest.raises(ValueError, match="kappa must be finite"):
            CefSpec(space=space, kappa=np.broadcast_to(abs(bad), (8, 8)), tau=np.zeros((8, 8)), eta=eta)


def test_dyad_log_weights_keep_the_matmul_bits():
    """The shared log-weights formula gives the bits of tau_f @ eta + log kappa_f."""
    gen = np.random.default_rng(3)
    for l in (1, 2, 3):
        tau_f = gen.normal(size=(3, 4, l)) * 3.0
        kappa_f = gen.random((3, 4)) * (gen.random((3, 4)) > 0.3)
        kappa_f[:, 0] = 0.5
        model = ErmgmModel(n=3, t=3, tau_f=tau_f, kappa_f=kappa_f, eta=ParameterMap("natural", l=l))
        theta = gen.normal(size=l)
        with np.errstate(divide="ignore"):
            plain = tau_f @ theta + np.log(kappa_f)
        assert np.array_equal(_dyad_log_weights(model, theta), plain)


def test_a_dyad_with_every_weight_at_minus_inf_is_an_overflow():
    """Each dyad has a positive carrier entry, so all of its weights at -inf is an overflow."""
    model = ErmgmModel(n=3, t=2, tau_f=np.tile([[2.0], [3.0], [4.0]], (3, 1, 1)), kappa_f=None,
                       eta=ParameterMap("natural", l=1))
    zero = Multigraph(n=3, t=2, counts=np.zeros(3, dtype=np.int64))
    for call in (lambda th: fast_log_partition(model, th), lambda th: sample_multigraphs(model, th, 2, 1),
                 lambda th: multigraph_log_pmf(model, th, zero)):
        with pytest.raises(ValueError, match="overflow the float range"):
            call(-1e308)
        assert np.all(np.isfinite(call(-1e3)))


def test_dyad_pmf_bernoulli_closed_form():
    model = er_model(3)
    for gamma in (-1.0, 0.0, 2.0):
        expect_on = np.exp(gamma) / (1.0 + np.exp(gamma))
        for f in range(3):
            law = dyad_pmf(model, (gamma,), f)
            assert abs(law.p[1] - expect_on) <= 1e-14


def test_fast_partition_closed_form_and_brute():
    model = er_model(4)
    for gamma in (-2.0, 0.0, 3.0):
        fast, terms = fast_log_partition_instrumented(model, (gamma,))
        assert terms == 6 * 2 and fast_log_partition(model, (gamma,)) == fast
        closed = 6 * np.log1p(np.exp(gamma))
        assert abs(fast - closed) <= 1e-12
        brute = oracle.brute_partition(to_expfam(model), (gamma,))
        assert abs(fast - brute) <= 1e-10 * max(1.0, abs(brute))


def test_to_expfam_matches_er_law():
    # edge-count model at the logit point reproduces ER(p)
    model = er_model(3)
    p = 0.35
    gamma = np.log(p / (1 - p))
    law = pmf(to_expfam(model), (gamma,))
    assert np.abs(law.p - models.er_pmf(3, p).p).max() <= 1e-12


def test_multigraph_log_pmf_matches_expfam():
    model = er_model(3)
    space = model.space()
    law = pmf(to_expfam(model), (0.7,))
    for i in range(space.size):
        lp = multigraph_log_pmf(model, (0.7,), space.decode(i))
        assert abs(np.exp(lp) - law.p[i]) <= 1e-14


def test_zero_carrier_gives_minus_inf():
    model = ErmgmModel(
        n=3,
        t=1,
        tau_f=np.zeros((3, 2, 1)),
        kappa_f=np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]),
        eta=ParameterMap("natural", l=1),
    )
    w = Multigraph(n=3, t=1, counts=np.array([1, 0, 0]))
    assert multigraph_log_pmf(model, (0.0,), w) == -np.inf


def test_sampling_deterministic_and_seed_sensitive():
    model = er_model(4)
    a = sample_multigraphs(model, (0.3,), 50, seed=9)
    b = sample_multigraphs(model, (0.3,), 50, seed=9)
    c = sample_multigraphs(model, (0.3,), 50, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_prefix_stability():
    # drawing more samples extends the same per-dyad streams
    model = er_model(3)
    a = sample_multigraphs(model, (0.0,), 20, seed=4)
    b = sample_multigraphs(model, (0.0,), 60, seed=4)
    assert np.array_equal(a, b[:20])


def test_sampling_frequencies_near_dyad_law():
    model = er_model(3)
    gamma = np.log(0.3 / 0.7)
    draws = sample_multigraphs(model, (gamma,), 20000, seed=123)
    freq = draws.mean(axis=0)
    assert np.abs(freq - 0.3).max() < 0.02


def test_union_log_probability_binomial_closed_form():
    model = er_model(3)
    p = 0.4
    gamma = np.log(p / (1 - p))
    t = 3
    space = build_multigraph_space(3, t)
    for i in range(space.size):
        w = space.decode(i)
        direct = union_log_probability(model, (gamma,), t, w)
        expected = sum(
            np.log(comb(t, int(m)) * p ** int(m) * (1 - p) ** (t - int(m)))
            for m in w.counts
        )
        assert abs(direct - expected) <= 1e-12


def test_union_expfam_partition_is_t_times_base():
    model = er_model(3)
    t = 3
    uf = union_expfam(model, t)
    for gamma in (-1.0, 0.5, 2.0):
        base = fast_log_partition(model, (gamma,))
        assert abs(log_partition(uf.family, (gamma,)) - t * base) <= 1e-10
    assert uf.eta_affinely_independent


def test_union_expfam_matches_brute_law():
    model = er_model(3)
    t = 2
    gamma = 0.3
    uf = union_expfam(model, t)
    law = pmf(uf.family, (gamma,))
    brute = oracle.brute_union_law(model, (gamma,), t)
    for idx, mass in zip(brute.outcomes, brute.mass):
        assert abs(law.p[idx] - mass) <= 1e-12


def test_union_requires_simple_graph_model():
    space = build_multigraph_space(3, 2)
    fact = factor_dyadditive(space, edge_total_table(space).astype(float)[:, None]).factorization
    model = from_factorization(fact, ParameterMap("natural", l=1))
    with pytest.raises(ValueError):
        union_log_probability(model, (0.0,), 2, Multigraph(n=3, t=2, counts=np.zeros(3, dtype=np.int64)))
    with pytest.raises(ValueError):
        union_expfam(model, 2)


def test_mle_density_hand_counts():
    space = build_multigraph_space(3, 1)
    x = Trajectory(space=space, states=np.array([0, 7, 0]))
    est = mle_density_stability(x, "density")
    # 3 of 6 dyad slots on across two transitions
    assert est.p_hat == 0.5
    assert est.transitions == 2
    assert not est.boundary


def test_mle_stability_hand_counts():
    space = build_multigraph_space(3, 1)
    # staying put keeps every dyad: full agreement each step
    x = Trajectory(space=space, states=np.array([5, 5, 5]))
    est = mle_density_stability(x, "stability")
    assert est.p_hat == 1.0
    assert est.boundary


def test_mle_boundary_at_zero():
    space = build_multigraph_space(3, 1)
    x = Trajectory(space=space, states=np.array([0, 0]))
    est = mle_density_stability(x, "density")
    assert est.p_hat == 0.0
    assert est.boundary


def test_mle_rejects_unknown_kind_and_empty_path():
    space = build_multigraph_space(3, 1)
    x = Trajectory(space=space, states=np.array([0, 1]))
    with pytest.raises(ValueError):
        mle_density_stability(x, "reciprocity")
    with pytest.raises(ValueError):
        mle_density_stability(Trajectory(space=space, states=np.array([0])), "density")


def test_mle_recovers_logit_consistency():
    # estimate from a long sampled path, then map through the logit
    cm = models.density_chain(3, 0.42)
    traj_model = er_model(3)
    from pumc.simulate import sample_puniform_chain

    traj = sample_puniform_chain(cm.space, cm.mu, cm.family, 0, 5000, seed=77)
    est = mle_density_stability(traj, "density")
    assert abs(est.p_hat - 0.42) < 0.03
    assert np.isfinite(ParameterMap("density_logit", n=3).evaluate(est.p_hat)[0])
