from types import SimpleNamespace

import numpy as np
import pytest

from pumc import ermgm, models, oracle, simulate
from pumc.core import (
    Pmf,
    StochasticMatrix,
    build_generic_space,
    build_modular_space,
    build_multigraph_space,
    builtin_family,
    edge_total_table,
)
from pumc.errors import EnumerationCapError
from pumc.ermgm import ErmgmModel, from_factorization, union_log_probability
from pumc.expfam import (
    ExpFamilySpec,
    ParameterMap,
    cef_transition_matrix,
    joint_log_pmf_from_counts,
    log_partition,
    mef_joint_log_pmf,
    row_log_partitions,
    transition_counts,
)
from pumc.netstat import factor_dyadditive
from pumc.puniform import Trajectory, chain_to_iid, iid_to_chain


def er_edge_model(n):
    space = build_multigraph_space(n, 1)
    table = edge_total_table(space).astype(float)[:, None]
    fact = factor_dyadditive(space, table).factorization
    return from_factorization(fact, ParameterMap("natural", l=1))


def test_exact_law_validation_and_lookup():
    law = oracle.ExactLaw(outcomes=((0,), (1,)), mass=np.array([0.25, 0.75]))
    assert law.prob((1,)) == 0.75
    assert law.prob((2,)) == 0.0
    with pytest.raises(ValueError):
        oracle.ExactLaw(outcomes=((0,),), mass=np.array([0.5]))
    with pytest.raises(ValueError):
        oracle.ExactLaw(outcomes=((0,),), mass=np.array([0.5, 0.5]))


def test_trajectory_law_two_state_hand_case():
    P = StochasticMatrix(np.array([[0.2, 0.8], [0.6, 0.4]]))
    law = oracle.enumerate_trajectory_law(P, 0, 2)
    assert law.prob((1, 0)) == pytest.approx(0.8 * 0.6, abs=1e-15)
    assert law.prob((0, 0)) == pytest.approx(0.04, abs=1e-15)
    assert abs(law.mass.sum() - 1.0) <= 1e-12


def test_trajectory_law_argument_checks():
    P = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        oracle.enumerate_trajectory_law(P, 2, 1)
    with pytest.raises(ValueError):
        oracle.enumerate_trajectory_law(P, 0, 0)


def test_enumeration_cap_enforced():
    P = StochasticMatrix(np.full((4, 4), 0.25))
    with pytest.raises(EnumerationCapError):
        oracle.enumerate_trajectory_law(P, 0, 11)


def test_pushforward_matches_product_on_puniform_chain():
    cm = models.density_chain(3, 0.3)
    zlaw = oracle.pushforward_z_law(cm.matrix(), cm.family, 0, 2)
    plaw = oracle.product_law(cm.mu, 2)
    assert zlaw.outcomes == plaw.outcomes
    assert np.abs(zlaw.mass - plaw.mass).max() <= 1e-12


def test_pushforward_depends_on_start_for_generic_chain():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.1, 1.0, size=(4, 4))
    P = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
    fam = builtin_family(build_modular_space(4), "modular")
    a = oracle.pushforward_z_law(P, fam, 0, 2)
    b = oracle.pushforward_z_law(P, fam, 1, 2)
    assert np.abs(a.mass - b.mass).max() > 1e-3


def test_product_law_masses():
    mu = Pmf(np.array([0.2, 0.8]))
    law = oracle.product_law(mu, 3)
    assert law.prob((1, 0, 1)) == pytest.approx(0.8 * 0.2 * 0.8, abs=1e-15)
    assert len(law.outcomes) == 8


def test_max_product_deviation_zero_on_product():
    mu = Pmf(np.array([0.3, 0.7]))
    law = oracle.product_law(mu, 2)
    assert oracle.max_product_deviation(law, 2, 2) <= 1e-15


def test_max_product_deviation_negative_control():
    # normalized [[1,2],[3,4]]: pair law is visibly non-product
    P = StochasticMatrix(np.array([[1 / 3, 2 / 3], [3 / 7, 4 / 7]]))
    fam = builtin_family(build_multigraph_space(2, 1), "identity")
    law = oracle.pushforward_z_law(P, fam, 0, 2)
    dev = oracle.max_product_deviation(law, 2, 2)
    assert dev == pytest.approx(4 / 189, rel=1e-12)
    assert dev > 1e-2


def test_brute_partition_matches_fast_path():
    fam = models.er_family(3)
    for p in (0.2, 0.5, 0.8):
        lhs = oracle.brute_partition(fam, p)
        rhs = log_partition(fam, p)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_brute_partition_skips_zero_carrier():
    fam = models.er_family(3)
    kappa = fam.kappa.copy()
    kappa[0] = 0.0
    trimmed = type(fam)(space=fam.space, tau=fam.tau, kappa=kappa, eta=fam.eta)
    full = oracle.brute_partition(fam, 0.5)
    part = oracle.brute_partition(trimmed, 0.5)
    assert part < full


def test_union_fibres_cover_sequences():
    model = er_edge_model(3)
    gamma = np.log(0.4 / 0.6)
    fibres = oracle.brute_union_fibres(model, gamma, 3)
    assert len(fibres) == 64
    total = sum(mass.size for mass, _ in fibres.values())
    assert total == 8**3
    # masses inside a fibre agree: z-sequences sharing a union are
    # equally likely under the simple-graph pmf family
    for mass, logm in fibres.values():
        assert mass.max() - mass.min() <= 1e-12
        assert np.allclose(np.log(mass), logm, atol=1e-12)


def test_brute_union_law_matches_closed_form():
    model = er_edge_model(3)
    gamma = np.log(0.4 / 0.6)
    law = oracle.brute_union_law(model, gamma, 2)
    assert abs(law.mass.sum() - 1.0) <= 1e-12
    union_space = build_multigraph_space(3, 2)
    for w_idx in range(union_space.size):
        w = union_space.decode(w_idx)
        expect = union_log_probability(model, gamma, 2, w)
        got = law.mass[w_idx]
        if np.isfinite(expect):
            assert np.log(got) == pytest.approx(expect, abs=1e-12)
        else:
            assert got == 0.0


def test_row_log_partitions_match_brute_partition_per_row():
    for cef, theta in ((models.gani_cef(), 2.0), (models.transitivity_cef(3), -0.7), (models.density_mef(3), 0.3)):
        psi = row_log_partitions(cef, theta)
        for a in range(cef.space.size):
            row = ExpFamilySpec(space=cef.space, kappa=cef.kappa[a], tau=cef.tau[a], eta=cef.eta)
            assert abs(psi[a] - oracle.brute_partition(row, theta)) <= 1e-12 * max(1.0, abs(psi[a]))


def test_joint_log_pmfs_match_the_trajectory_law():
    """Both joint log laws of every path of up to 3 steps from every start equal
    the log of its enumerated mass."""
    for mef, theta in ((models.density_mef(3), 0.3), (models.gani_two_row_mef(), 2.0)):
        P = cef_transition_matrix(mef, theta)
        for x0 in range(mef.space.size):
            for steps in (1, 2, 3):
                law = oracle.enumerate_trajectory_law(P, x0, steps)
                for path, mass in zip(law.outcomes, law.mass):
                    x = Trajectory(space=mef.space, states=np.array((x0,) + path))
                    for got in (mef_joint_log_pmf(mef, theta, x), joint_log_pmf_from_counts(P, transition_counts(x))):
                        assert got.impossible == (mass == 0)
                        if mass:
                            assert abs(got.value - np.log(mass)) <= 1e-12, (x0, path)


def test_iid_replay_matches_the_trajectory_law():
    """iid_to_chain sends every z-tuple of product_law to a distinct path of
    enumerate_trajectory_law with the same mass, and chain_to_iid sends that
    path back to z, where pushforward_z_law puts the same mass."""
    steps = 3
    for cm, x0 in ((models.density_chain(3, 0.3), 5), (models.stability_chain(3, 0.3), 2), (models.modular_chain(5), 1)):
        P = cm.matrix()
        chain_law = oracle.enumerate_trajectory_law(P, x0, steps)
        z_law = oracle.pushforward_z_law(P, cm.family, x0, steps)
        iid_law = oracle.product_law(cm.mu, steps)
        paths = set()
        for z, mass in zip(iid_law.outcomes, iid_law.mass):
            x = iid_to_chain(x0, np.array(z), cm.family, cm.space)
            path = tuple(x.states[1:].tolist())
            assert abs(chain_law.prob(path) - mass) <= 1e-12
            assert tuple(chain_to_iid(x, cm.family).tolist()) == z
            assert abs(z_law.prob(z) - mass) <= 1e-12
            paths.add(path)
        assert len(paths) == len(chain_law.outcomes)


# Exact sampler checks. A sampler fed the centred uniforms (j + 0.5) / N in
# place of its random stream hits a cell of mass p between N p - 1 and N p + 1
# times, so each frequency is fixed and within 1 / N of the exact law: a
# bound, not a statistical test.


class _CentredDraws:
    """Stands in for rng.stream: each lane's k draws are the centred points (j + 0.5) / k."""

    def __init__(self, seed, *lanes, start=0):
        pass

    def random(self, k):
        return (np.arange(k) + 0.5) / k


def _centred_grid(m):
    """Stands in for rng.stream: lane r draws the r-th point, row-major, of the centred grid of
    m points per axis over [0, 1)^k, for k draws."""

    def stream(seed, lane):
        return SimpleNamespace(random=lambda k: (np.array(np.unravel_index(lane, (m,) * k)) + 0.5) / m)

    return stream


def _distinct_rows(size, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(size), size=size)


def test_sample_puniform_chain_iid_coordinates_follow_mu_exactly(monkeypatch):
    monkeypatch.setattr(simulate, "stream", _CentredDraws)
    space = build_multigraph_space(3, 1)
    mu, fam = Pmf(_distinct_rows(8, 1)[0]), builtin_family(space, "stability")
    N = 997
    z = chain_to_iid(simulate.sample_puniform_chain(space, mu, fam, 5, N, seed=1), fam)
    freq = np.bincount(z, minlength=8) / N
    law = oracle.product_law(mu, 1)
    assert law.outcomes == tuple((k,) for k in range(8))
    assert np.abs(freq - law.mass).max() <= 1 / N


def test_sample_chain_one_step_follows_its_row_exactly(monkeypatch):
    N = 500
    monkeypatch.setattr(simulate, "stream", _centred_grid(N))
    P = StochasticMatrix(_distinct_rows(4, 2))
    space = build_generic_space(tuple("abcd"))
    for x0 in range(4):
        hits = [simulate.sample_chain(space, P, x0, 1, seed=1, replicate=r).states[1] for r in range(N)]
        assert np.abs(np.bincount(hits, minlength=4) / N - P.P[x0]).max() <= 1 / N


def test_sample_chain_two_step_law_matches_the_enumeration(monkeypatch):
    """m x m replicates, one centred grid point each: each step resolves its cell to one of m
    points, so a path x0 -> a -> b is hit (m P[x0, a] + e1)(m P[a, b] + e2) times, |e1|, |e2| < 1."""
    m = 60
    monkeypatch.setattr(simulate, "stream", _centred_grid(m))
    P = StochasticMatrix(_distinct_rows(4, 3))
    space = build_generic_space(tuple("abcd"))
    x0 = 2
    counts = np.zeros((4, 4))
    for r in range(m * m):
        counts[tuple(simulate.sample_chain(space, P, x0, 2, seed=1, replicate=r).states[1:])] += 1
    law = oracle.enumerate_trajectory_law(P, x0, 2)
    for (a, b), mass in zip(law.outcomes, law.mass):
        bound = (P.P[x0, a] + P.P[a, b]) / m + 1 / m**2
        assert abs(counts[a, b] / m**2 - mass) <= bound, (a, b)


def test_sample_multigraphs_follow_each_dyad_pmf_exactly(monkeypatch):
    monkeypatch.setattr(ermgm, "stream", _CentredDraws)
    rng = np.random.default_rng(4)
    model = ErmgmModel(n=3, t=3, tau_f=rng.normal(size=(3, 4, 1)), kappa_f=rng.uniform(0.5, 2, size=(3, 4)),
                       eta=ParameterMap("natural", l=1))
    N = 1009
    draws = ermgm.sample_multigraphs(model, (0.7,), N, seed=1)
    for f in range(model.num_dyads):
        freq = np.bincount(draws[:, f], minlength=model.t + 1) / N
        assert np.abs(freq - ermgm.dyad_pmf(model, (0.7,), f).p).max() <= 1 / N, f


def test_dyadic_model_matches_the_enumerated_simple_graph_law(monkeypatch):
    """One draw of a simple-graph model is brute_union_law at t = 1: each state's
    multigraph_log_pmf, each dyad's marginal as dyad_pmf, and sample_multigraphs'
    per-dyad frequencies under centred draws (within 1/N) agree with it."""
    monkeypatch.setattr(ermgm, "stream", _CentredDraws)
    rng = np.random.default_rng(5)
    model = ErmgmModel(n=3, t=1, tau_f=rng.normal(size=(3, 2, 1)), kappa_f=rng.uniform(0.5, 2, size=(3, 2)),
                       eta=ParameterMap("natural", l=1))
    theta = (0.7,)
    law = oracle.brute_union_law(model, theta, 1)
    space = model.space()
    for idx, mass in zip(law.outcomes, law.mass):
        assert abs(np.exp(ermgm.multigraph_log_pmf(model, theta, space.decode(idx))) - mass) <= 1e-12
    N = 1009
    draws = ermgm.sample_multigraphs(model, theta, N, seed=1)
    for f in range(model.num_dyads):
        on = np.array([(idx >> f) & 1 for idx in law.outcomes], dtype=bool)
        marginal = np.array([law.mass[~on].sum(), law.mass[on].sum()])
        assert np.abs(ermgm.dyad_pmf(model, theta, f).p - marginal).max() <= 1e-12
        assert np.abs(np.bincount(draws[:, f], minlength=2) / N - marginal).max() <= 1 / N, f
