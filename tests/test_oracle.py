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
from pumc.expfam import ParameterMap, log_partition
from pumc.netstat import factor_dyadditive
from pumc.puniform import chain_to_iid


def er_edge_model(n):
    space = build_multigraph_space(n, 1)
    table = edge_total_table(space).astype(float)[:, None]
    fact = factor_dyadditive(space, table).factorization
    return from_factorization(fact, ParameterMap("natural", l=1))


def test_exact_law_validation_and_lookup():
    law = oracle.ExactLaw(outcomes=((0,), (1,)), mass=np.array([0.25, 0.75]))
    assert law.prob((1,)) == 0.75
    assert law.prob((2,)) == 0.0
    assert law.as_dict() == {(0,): 0.25, (1,): 0.75}
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


# Exact sampler checks. A sampler fed the centred uniforms (j + 0.5) / N in
# place of its random stream hits a cell of mass p between N p - 1 and N p + 1
# times, so each frequency is fixed and within 1 / N of the exact law: a
# bound, not a statistical test.


class _CentredDraws:
    """Stands in for rng.stream: each lane's k draws are the centred points (j + 0.5) / k."""

    def __init__(self, seed, *lanes):
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
