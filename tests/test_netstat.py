import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumc import models, netstat
from pumc.core import (
    BLOCK_ENTRIES,
    Multigraph,
    PermutationFamily,
    Pmf,
    StochasticMatrix,
    build_generic_space,
    build_multigraph_space,
    builtin_family,
    canonical_dyads,
    dyad_count_table,
    dyad_index,
    edge_total_table,
    identity_family,
    invert_family,
    num_dyads,
)
from pumc.errors import TheoremViolationError
from pumc.ermgm import ErmgmModel, to_expfam
from pumc.expfam import CodeTable, ParameterMap
from pumc.netstat import (
    DyadicFactorization,
    IsoClasses,
    degree_sequence,
    density_stat_table,
    edge_stat_counts,
    exchangeability_transfer,
    factor_dyadditive,
    factor_dyadically_multiplicative,
    is_finitely_exchangeable,
    is_relation_invariant,
    iso_classes,
    multigraph_union,
    sorted_degree_sequence,
    sorted_degree_table,
    stability_stat_table,
    stat_reciprocity,
    stat_transitivity,
)
from pumc.oracle import stat_density, stat_stability
from pumc.puniform import detect_puniform


def graph(n, *dyads):
    counts = np.zeros(num_dyads(n), dtype=np.int64)
    for u, v in dyads:
        counts[dyad_index(max(u, v), min(u, v))] = 1
    return Multigraph(n=n, t=1, counts=counts)


# ------------------------------------------------------------ statistics

def test_stat_density_values():
    empty = graph(3)
    tri = graph(3, (0, 1), (0, 2), (1, 2))
    assert stat_density(empty, tri) == 1.5
    assert stat_density(tri, empty) == 0.0
    assert stat_density(empty, graph(3, (0, 1))) == 0.5


def test_stat_stability_values():
    a = graph(3, (0, 1))
    assert stat_stability(a, a) == 1.5  # all three dyads agree
    assert stat_stability(a, graph(3)) == 1.0
    assert stat_stability(a, graph(3, (0, 2), (1, 2))) == 0.0


def test_stat_reciprocity_values():
    a = np.zeros((4, 4))
    b = np.zeros((4, 4))
    a[0, 1] = 1
    b[1, 0] = 1
    assert stat_reciprocity(a, b) == 4.0
    b[1, 0] = 0
    assert stat_reciprocity(a, b) == 0.0
    # two arcs, one reciprocated: 4 * 1 / 2
    a[2, 3] = 1
    b[1, 0] = 1
    assert stat_reciprocity(a, b) == 2.0


def test_stat_reciprocity_empty_source_is_zero():
    z = np.zeros((4, 4))
    assert stat_reciprocity(z, np.ones((4, 4)) - np.eye(4)) == 0.0


def test_stat_transitivity_values():
    # path 0-1-2 has one two-path (middle 1); closing edge {0,2}
    a = graph(4, (0, 1), (1, 2))
    assert stat_transitivity(a, graph(4, (0, 2))) == 4.0
    assert stat_transitivity(a, graph(4)) == 0.0
    # two two-paths, one closed
    a2 = graph(4, (0, 1), (1, 2), (2, 3))
    assert stat_transitivity(a2, graph(4, (0, 2))) == 2.0


def test_stat_transitivity_empty_source_is_zero():
    assert stat_transitivity(graph(4), graph(4, (0, 1))) == 0.0
    assert not np.isnan(stat_transitivity(graph(4), graph(4)))


def test_degree_sequences():
    g = graph(4, (0, 1), (0, 2), (0, 3))
    assert degree_sequence(g).tolist() == [3, 1, 1, 1]
    assert sorted_degree_sequence(g) == (1, 1, 1, 3)


def test_stat_tables_match_pairwise_functions():
    space = build_multigraph_space(3, 1)
    dens = density_stat_table(space)
    stab = stability_stat_table(space)
    for i in range(space.size):
        for j in range(space.size):
            a, b = space.decode(i), space.decode(j)
            assert dens[i, j] == stat_density(a, b)
            assert stab[i, j] == stat_stability(a, b)
            assert edge_stat_counts(space, "density", i, j) == 2 * stat_density(a, b)
            assert edge_stat_counts(space, "stability", i, j) == 2 * stat_stability(a, b)


def test_edge_stat_counts_are_the_edges_of_sigma():
    """Density counts the edges of b; stability the dyads where b agrees with
    a, N - |a xor b|. The statistic tables are those counts over n - 1."""
    for n in (2, 3, 4):
        space = build_multigraph_space(n, 1)
        a, b = np.divmod(np.arange(space.size ** 2), space.size)
        edges = np.array([bin(i).count("1") for i in range(space.size)])
        agree = num_dyads(n) - np.array([bin(i).count("1") for i in a ^ b])
        for kind, counts, table in (("density", edges[b], density_stat_table(space)),
                                    ("stability", agree, stability_stat_table(space))):
            assert np.array_equal(edge_stat_counts(space, kind, a, b), counts), (n, kind)
            assert np.array_equal(table.reshape(-1), counts / (n - 1)), (n, kind)


def _directed_adjacency(n, state):
    """0/1 adjacency of a state of models.directed_space(n), built from its bitmask."""
    adj = np.zeros((n, n))
    for f, (i, j) in enumerate(models.directed_pairs(n)):
        adj[i, j] = (state >> f) & 1
    return adj


def _pairwise(stat, states) -> np.ndarray:
    return np.array([[stat(a, b) for b in states] for a in states])


def test_cef_tables_match_pairwise_functions():
    """The statistic table and the CEF's tau hold the same codes and values,
    and every pair, read as values[codes] and through the table's indexing,
    is the per-pair statistic."""
    cases = [(n, models.reciprocity_table(n), models.reciprocity_cef(n).tau,
              _pairwise(stat_reciprocity, [_directed_adjacency(n, s) for s in range(2 ** (n * (n - 1)))]))
             for n in (2, 3)]
    for n in (3, 4, 5):
        space = build_multigraph_space(n, 1)
        cases.append((n, models.transitivity_table(n), models.transitivity_cef(n).tau,
                      _pairwise(stat_transitivity, [space.decode(i) for i in range(space.size)])))
    for n, table, tau, want in cases:
        assert np.array_equal(table.codes, tau.codes) and np.array_equal(table.values, tau.values), n
        for coded in (table, tau):
            assert isinstance(coded, CodeTable) and coded.codes.dtype == np.uint8, n
            assert coded.shape == (*want.shape, 1), n
            assert np.array_equal(coded.values[coded.codes], want), n
            assert np.array_equal(coded[:, :, 0], want), n


def test_sorted_degree_table_matches_per_state_sequences():
    for n, t in ((1, 1), (2, 1), (3, 2), (5, 1)):
        space = build_multigraph_space(n, t)
        table = sorted_degree_table(space)
        assert table.dtype == np.int64 and table.shape == (space.size, n)
        for i in range(space.size):
            assert tuple(table[i].tolist()) == sorted_degree_sequence(space.decode(i))


# ----------------------------------------------------------- factorization

def test_edge_count_factors_dyadditively():
    space = build_multigraph_space(3, 1)
    res = factor_dyadditive(space, edge_total_table(space).astype(float)[:, None])
    assert res.ok
    # canonical split: the empty graph's value spreads evenly
    assert np.allclose(res.factorization.tau_f[:, 0], 0.0)
    assert np.allclose(res.factorization.tau_f[:, 1], 1.0)


def test_degree_sequence_factors_dyadditively():
    space = build_multigraph_space(3, 1)
    dy = canonical_dyads(3)
    dc = dyad_count_table(space)
    deg = np.zeros((space.size, 3))
    for f, (u, v) in enumerate(dy):
        deg[:, u] += dc[:, f]
        deg[:, v] += dc[:, f]
    res = factor_dyadditive(space, deg)
    assert res.ok
    for i in range(space.size):
        rebuilt = res.factorization.reconstruct_tau(space.decode(i))
        assert np.abs(rebuilt - deg[i]).max() <= 1e-12


def test_triangle_count_not_dyadditive():
    space = build_multigraph_space(3, 1)
    tri = np.zeros(space.size)
    tri[7] = 1.0  # only the complete graph holds a triangle
    res = factor_dyadditive(space, tri[:, None])
    assert not res.ok
    assert res.witness == space.decode(7)


def test_dyadditive_multigraph_statistic():
    # total multiplicity on G(3,2)
    space = build_multigraph_space(3, 2)
    res = factor_dyadditive(space, edge_total_table(space).astype(float)[:, None])
    assert res.ok
    assert np.allclose(res.factorization.tau_f[:, 2], 2.0)


def test_probe_budget_requires_seed():
    space = build_multigraph_space(3, 1)
    with pytest.raises(ValueError):
        factor_dyadditive(space, edge_total_table(space).astype(float)[:, None], probes=10)


def test_power_carrier_factors_multiplicatively():
    space = build_multigraph_space(3, 1)
    edges = edge_total_table(space)
    res = factor_dyadically_multiplicative(space, 2.0**edges)
    assert res.ok
    for i in range(space.size):
        assert abs(res.factorization.reconstruct_kappa(space.decode(i)) - 2.0 ** edges[i]) <= 1e-12


def test_triangle_indicator_not_multiplicative():
    space = build_multigraph_space(3, 1)
    kappa = np.ones(space.size)
    kappa[7] = 3.0
    res = factor_dyadically_multiplicative(space, kappa)
    assert not res.ok and res.witness is not None


def test_multiplicative_with_zero_at_empty_graph():
    # product of multiplicities: zero on any graph missing a dyad
    space = build_multigraph_space(3, 2)
    dc = dyad_count_table(space)
    kappa = dc.prod(axis=1).astype(np.float64)
    res = factor_dyadically_multiplicative(space, kappa)
    assert res.ok
    for i in range(space.size):
        assert abs(res.factorization.reconstruct_kappa(space.decode(i)) - kappa[i]) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("state", [3, 7])  # states with two and three edges
def test_dyadic_factorizations_refuse_non_finite_input(bad, state):
    """A NaN deviation compares false and an infinite carrier scales its own
    tolerance to infinity, so either would verify; both are refused on entry."""
    space = build_multigraph_space(3, 1)
    edges = edge_total_table(space).astype(float)
    tau, kappa = edges.copy(), 2.0 ** edges
    tau[state] = kappa[state] = bad
    with pytest.raises(ValueError, match="tau must be finite"):
        factor_dyadditive(space, tau)
    with pytest.raises(ValueError, match="kappa must be finite"):
        factor_dyadically_multiplicative(space, kappa)


def test_dyadic_factorizations_refuse_a_reconstruction_that_overflows_to_nan():
    """Finite inputs whose rebuilt values reach inf - inf or inf * 0 give a NaN
    deviation, which fails the reconstruction check like any other miss."""
    space = build_multigraph_space(5, 1)  # ten dyads: the sum pairs dyads 0+1 and 2+3
    tau = np.zeros(space.size)
    tau[[1, 2]], tau[[4, 8]] = 1.7e308, -1.7e308  # dyads 0, 1 and dyads 2, 3 alone
    space3 = build_multigraph_space(3, 1)
    kappa = np.ones(space3.size)
    kappa[[1, 2]], kappa[4] = 1e200, 0.0  # 1e200 * 1e200 * 0 at the triangle
    added = factor_dyadditive(space, tau)  # no RuntimeWarning escapes: pytest makes one an error
    multiplied = factor_dyadically_multiplicative(space3, kappa)
    assert not added.ok and added.witness.counts.tolist() == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    assert not multiplied.ok and multiplied.witness.counts.tolist() == [1, 1, 1]


def test_dyadic_factorizations_on_the_one_vertex_space():
    """G(1, t) has one state and no dyads: an empty sum is 0 and an empty
    product 1, so only those values factor, and the split of the empty
    graph's value over no dyads raises no division warning."""
    space = build_multigraph_space(1, 2)
    assert factor_dyadditive(space, [0.0]).ok and factor_dyadically_multiplicative(space, [1.0]).ok
    for res in (factor_dyadditive(space, [3.0]), factor_dyadically_multiplicative(space, [2.0])):
        assert not res.ok and res.witness.counts.size == 0


def test_factorization_table_shapes():
    fact = DyadicFactorization(n=3, t=1, tau_f=np.zeros((3, 2)), kappa_f=np.ones((3, 2)))
    assert fact.tau_f.shape == (3, 2, 1)
    with pytest.raises(ValueError):
        DyadicFactorization(n=3, t=1, kappa_f=-np.ones((3, 2)))


# ------------------------------------------------------------------- unions

def test_union_of_simple_graphs():
    a = graph(3, (0, 1))
    b = graph(3, (0, 1), (1, 2))
    u = multigraph_union([a, b])
    assert u.t == 2
    assert u.counts.tolist() == [2, 0, 1]


def test_union_commutative_associative():
    space = build_multigraph_space(3, 1)
    gs = [space.decode(i) for i in (1, 5, 7)]
    u123 = multigraph_union(gs)
    for perm in itertools.permutations(gs):
        assert multigraph_union(perm) == u123


# --------------------------------------------------------------- iso classes

def test_iso_classes_small_graph_counts():
    cls3 = iso_classes(build_multigraph_space(3, 1))
    assert sorted(len(c) for c in cls3.classes) == [1, 1, 3, 3]
    cls4 = iso_classes(build_multigraph_space(4, 1))
    assert len(cls4.classes) == 11
    assert sum(len(c) for c in cls4.classes) == 64


def test_iso_classes_multigraph():
    cls = iso_classes(build_multigraph_space(3, 2))
    assert sum(len(c) for c in cls.classes) == 27
    # sorted degree sequence constant within each class
    space = cls.space
    for members in cls.classes:
        seqs = {sorted_degree_sequence(space.decode(int(i))) for i in members}
        assert len(seqs) == 1


def test_er_mass_is_exchangeable():
    cls = iso_classes(build_multigraph_space(3, 1))
    ok, witness = is_finitely_exchangeable(models.er_pmf(3, 0.3).p, cls)
    assert ok and witness is None


def test_degree_coordinate_not_exchangeable():
    space = build_multigraph_space(3, 1)
    cls = iso_classes(space)
    first_degree = np.array([float(degree_sequence(space.decode(i))[0]) for i in range(8)])
    ok, witness = is_finitely_exchangeable(first_degree, cls)
    assert not ok
    b, c = witness
    assert first_degree[b] != first_degree[c]
    # sorting repairs it only as a scalar summary; check the full sorted tuple
    sorted_sum = np.array(
        [sum(sorted_degree_sequence(space.decode(i))) for i in range(8)], dtype=float
    )
    assert is_finitely_exchangeable(sorted_sum, cls)[0]


def test_relation_invariance_examples():
    space = build_multigraph_space(3, 1)
    cls = iso_classes(space)
    assert is_relation_invariant(identity_family(8), cls)[0]
    comp = PermutationFamily(sigma=np.broadcast_to(np.arange(8) ^ 7, (8, 8)).copy())
    assert is_relation_invariant(comp, cls)[0]
    # swapping a one-edge graph with the empty graph in a single row breaks it
    sigma = np.broadcast_to(np.arange(8), (8, 8)).copy()
    sigma[3, 0], sigma[3, 1] = 1, 0
    ok, witness = is_relation_invariant(PermutationFamily(sigma=sigma), cls)
    assert not ok and witness[0] == 3


def test_stability_family_not_relation_invariant():
    space = build_multigraph_space(3, 1)
    cls = iso_classes(space)
    ok, _ = is_relation_invariant(builtin_family(space, "stability"), cls)
    assert not ok


def _ref_is_finitely_exchangeable(h, classes, tol=1e-12):
    """Class-by-class loop that is_finitely_exchangeable must agree with; tol applies
    at h's scale, tol * max(1, max |h|)."""
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    for members in classes.classes:
        dev = np.abs(h[members] - h[members[0]])
        if dev.max() > tol * max(1.0, np.abs(h).max()):
            return False, (int(members[0]), int(members[int(np.argmax(dev))]))
    return True, None


def _ref_is_relation_invariant(perm, classes):
    """Row-by-row, class-by-class loop that is_relation_invariant must agree with."""
    cid = classes.class_id
    for a in range(perm.size):
        mapped = cid[perm.sigma[a]]
        for members in classes.classes:
            vals = mapped[members]
            if (vals != vals[0]).any():
                return False, (a, int(members[0]), int(members[int(np.argmax(vals != vals[0]))]))
    return True, None


def _relabelling_family(space, seed):
    """Each row relabels the vertices by its own random permutation."""
    gen = np.random.default_rng(seed)
    digits = dyad_count_table(space)
    powers = (space.t + 1) ** np.arange(digits.shape[1])
    dyads = canonical_dyads(space.n)
    sigma = np.empty((space.size, space.size), dtype=np.int64)
    for a in range(space.size):
        perm = gen.permutation(space.n)
        dmap = [dyad_index(perm[u], perm[v]) for u, v in dyads]
        relabelled = np.empty_like(digits)
        relabelled[:, dmap] = digits
        sigma[a] = relabelled @ powers
    return PermutationFamily(sigma=sigma)


def test_relation_invariance_matches_loop_reference():
    space = build_multigraph_space(4, 1)
    cls = iso_classes(space)
    gen = np.random.default_rng(3)
    invariant = _relabelling_family(space, 4)
    families = [identity_family(space.size), builtin_family(space, "stability"), invariant]
    for _ in range(20):
        families.append(PermutationFamily(sigma=np.array(
            [gen.permutation(space.size) for _ in range(space.size)])))
    for _ in range(20):
        # an invariant family with two targets swapped in one random row
        sigma = invariant.sigma.copy()
        a, b, c = gen.integers(space.size, size=3)
        sigma[a, [b, c]] = sigma[a, [c, b]]
        families.append(PermutationFamily(sigma=sigma))
    verdicts = [is_relation_invariant(fam, cls) for fam in families]
    assert verdicts == [_ref_is_relation_invariant(fam, cls) for fam in families]
    assert verdicts[0] == verdicts[2] == (True, None) and not verdicts[1][0]
    assert sum(ok for ok, _ in verdicts) < len(families) - 20


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_family_preserves_classes_iff_its_inverse_does(data):
    """Each sigma_a is a bijection of a finite set: mapping classes into classes,
    it induces an onto, hence one-to-one, map on classes, so sigma_a^-1
    preserves them too. Rows are class-preserving by construction or arbitrary."""
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    size, starts = sum(sizes), np.cumsum([0] + sizes[:-1])
    relabel = np.array(data.draw(st.permutations(range(size))))  # state -> position
    place = np.argsort(relabel)                                  # position -> state
    class_id = np.repeat(np.arange(len(sizes)), sizes)[relabel]
    members = tuple(np.flatnonzero(class_id == c) for c in range(len(sizes)))
    classes = IsoClasses(space=build_generic_space(tuple(map(str, range(size)))), class_id=class_id,
                         representatives=np.array([m[0] for m in members]), classes=members)
    arbitrary = data.draw(st.sets(st.integers(0, size - 1), max_size=2))
    sigma = np.empty((size, size), dtype=np.int64)
    for a in range(size):
        if a in arbitrary:
            sigma[a] = data.draw(st.permutations(range(size)))
            continue
        target = np.empty(size, dtype=np.int64)  # position -> position, class onto class
        for width in set(sizes):
            same = [c for c, m in enumerate(sizes) if m == width]
            for c, d in zip(same, data.draw(st.permutations(same))):
                target[starts[c]:starts[c] + width] = starts[d] + np.array(data.draw(st.permutations(range(width))))
        sigma[a] = place[target[relabel]]
    fam = PermutationFamily(sigma=sigma)
    forward = is_relation_invariant(fam, classes)[0]
    assert forward == is_relation_invariant(invert_family(fam), classes)[0]
    assert forward or arbitrary


def test_exchangeability_matches_loop_reference_with_ties_and_nan():
    space = build_multigraph_space(4, 1)
    cls = iso_classes(space)
    gen = np.random.default_rng(5)
    for trial in range(200):
        # class-constant values, some moved by 1, some nudged inside or past the tolerance at h's scale
        h = gen.integers(0, 3, size=len(cls.classes)).astype(float)[cls.class_id]
        h[gen.random(space.size) < 0.01] += 1.0
        nudge = gen.random(space.size) < 0.02
        h[nudge] += gen.choice([0.5e-12, 2e-12], size=nudge.sum()) * max(1.0, h.max())
        if trial % 3 == 0:
            h[gen.integers(space.size, size=gen.integers(1, 4))] = np.nan
            with pytest.raises(ValueError, match="h must be finite"):
                is_finitely_exchangeable(h, cls)
        else:
            assert is_finitely_exchangeable(h, cls) == _ref_is_finitely_exchangeable(h, cls)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_exchangeability_refuses_non_finite_input(bad):
    """A NaN class deviation compared false against the tolerance and inf - inf
    warned; a raw vector holding either is refused on entry."""
    space = build_multigraph_space(3, 1)
    h = models.er_pmf(3, 0.3).p.copy()
    h[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="h must be finite"):
            is_finitely_exchangeable(h, iso_classes(space))


def test_transfer_rows_match_loop_reference():
    space = build_multigraph_space(4, 1)
    cls = iso_classes(space)
    fam = _relabelling_family(space, 6)
    gen = np.random.default_rng(7)
    class_mass = gen.random(len(cls.classes))
    for mu in (
        models.er_pmf(4, 0.3),
        Pmf(class_mass[cls.class_id] / class_mass[cls.class_id].sum()),
        Pmf(gen.dirichlet(np.ones(space.size))),
    ):
        P = StochasticMatrix(mu.p[fam.sigma])
        rep = exchangeability_transfer(P, fam, mu, cls)
        ref = tuple(_ref_is_finitely_exchangeable(P.P[a], cls)[0] for a in range(space.size))
        assert rep.row_exchangeable == ref
        assert all(type(r) is bool for r in rep.row_exchangeable)
        assert (rep.mu_exchangeable, rep.mu_witness) == _ref_is_finitely_exchangeable(mu.p, cls)


def test_iso_classes_checks_degree_sequences_per_orbit(monkeypatch):

    space = build_multigraph_space(3, 1)
    split = sorted_degree_table(space).copy()
    split[7] = [0, 0, 0]  # the triangle, alone in its orbit: still consistent
    monkeypatch.setattr(netstat, "sorted_degree_table", lambda s: split)
    iso_classes(space)
    split[4] = [0, 0, 0]  # a one-edge graph, in an orbit of three
    with pytest.raises(TheoremViolationError):
        iso_classes(space)


# ------------------------------------------------------------------ transfer

def test_transfer_density_chain_all_exchangeable():
    cm = models.density_chain(3, 0.3)
    cls = iso_classes(cm.space)
    rep = exchangeability_transfer(cm.matrix(), cm.family, cm.mu, cls)
    assert rep.mu_exchangeable and all(rep.row_exchangeable) and rep.equivalence_holds


def test_transfer_concentrated_mu_none_exchangeable():
    space = build_multigraph_space(3, 1)
    weights = np.full(8, 0.5 / 7)
    weights[1] = 0.5  # one labeled single-edge graph
    mu = Pmf(weights)
    fam = identity_family(8)
    P = StochasticMatrix(mu.p[fam.sigma])
    rep = exchangeability_transfer(P, fam, mu, iso_classes(space))
    assert not rep.mu_exchangeable
    assert not any(rep.row_exchangeable)
    assert rep.equivalence_holds
    assert rep.mu_witness is not None


def test_transfer_refuses_non_invariant_family():
    cm = models.stability_chain(3, 0.3)
    cls = iso_classes(cm.space)
    with pytest.raises(ValueError):
        exchangeability_transfer(cm.matrix(), cm.family, cm.mu, cls)


def test_transfer_refuses_inconsistent_triple():
    cm = models.density_chain(3, 0.3)
    cls = iso_classes(cm.space)
    with pytest.raises(ValueError):
        exchangeability_transfer(cm.matrix(), cm.family, Pmf(np.full(8, 0.125)), cls)


def test_single_state_space_vacuous():
    space = build_multigraph_space(2, 1)
    cls = iso_classes(space)
    mu = Pmf(np.array([0.4, 0.6]))
    fam = identity_family(2)
    rep = exchangeability_transfer(StochasticMatrix(mu.p[fam.sigma]), fam, mu, cls)
    # each class is a singleton on G(2,1), so everything is exchangeable
    assert rep.mu_exchangeable and rep.equivalence_holds


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_union_encoding_is_digit_sum(i, j):
    space1 = build_multigraph_space(3, 1)
    space2 = build_multigraph_space(3, 2)
    u = multigraph_union([space1.decode(i), space1.decode(j)])
    assert np.array_equal(u.counts, space1.decode(i).counts + space1.decode(j).counts)
    assert 0 <= space2.encode(u) < 27


def test_transfer_accepts_a_detected_witness_within_tolerance():
    """Rows 5e-10 apart are detected at DETECT_TOL, and the witness's own triple
    passes exchangeability_transfer's hypothesis check at the same tolerance."""
    w = detect_puniform(StochasticMatrix(np.array([[0.3, 0.7], [0.3 + 5e-10, 0.7 - 5e-10]])))
    rep = exchangeability_transfer(w.matrix, w.family, w.mu, iso_classes(build_multigraph_space(2, 1)))
    assert rep.mu_exchangeable and all(rep.row_exchangeable) and rep.equivalence_holds


def test_transfer_reports_an_equivalence_that_fails_within_tolerance():
    """Row 0 moved by 5e-11 inside the class {1, 2} keeps the triple within
    DETECT_TOL but leaves the row past EXCHANGE_TOL: the report says the
    equivalence fails there, and nothing raises, since the triple is not exact."""
    cm = models.density_chain(3, 0.3)
    P = cm.matrix().P.copy()
    P[0, 1] += 5e-11
    P[0, 2] -= 5e-11
    rep = exchangeability_transfer(StochasticMatrix(P), cm.family, cm.mu, iso_classes(cm.space))
    assert rep.mu_exchangeable and rep.row_exchangeable == (False,) + (True,) * 7
    assert not rep.equivalence_holds


def test_transfer_raises_when_exact_premises_fail_the_equivalence(monkeypatch):
    """An exact triple under a family that (wrongly) passes the invariance check:
    the rows judged at deviation 0 then disagree with mu, which raises."""

    cm = models.stability_chain(3, 0.3)
    monkeypatch.setattr(netstat, "is_relation_invariant", lambda perm, classes: (True, None))
    with pytest.raises(TheoremViolationError, match="equivalence failed"):
        exchangeability_transfer(cm.matrix(), cm.family, cm.mu, iso_classes(cm.space))


@pytest.mark.parametrize("n, t, l", [(3, 2, 2), (4, 2, 1), (4, 2, 2), (5, 1, 1), (5, 1, 2)])
def test_the_blocked_rebuild_matches_the_one_shot_rebuild_bit_for_bit(monkeypatch, n, t, l):
    """to_expfam and the factorizations' verdicts rebuild one row block of states at a
    time; every block size gives the bits, tables and witnesses of one block over the whole
    space, and that block gives the bits of one rebuild over the whole dyad-count table."""
    gen = np.random.default_rng(100 * n + 10 * t + l)
    model = ErmgmModel(n=n, t=t, tau_f=gen.normal(size=(num_dyads(n), t + 1, l)),
                       kappa_f=gen.uniform(0.5, 2.0, size=(num_dyads(n), t + 1)), eta=ParameterMap("natural", l=l))
    space = model.space()
    noise = np.zeros(space.size)
    noise[gen.choice(space.size, 5, replace=False)] = gen.uniform(1e-6, 1e-3, 5)

    def outcomes():
        fam = to_expfam(model)
        results = [factor_dyadditive(space, fam.tau), factor_dyadditive(space, fam.tau + noise[:, None]),
                   factor_dyadically_multiplicative(space, fam.kappa),
                   factor_dyadically_multiplicative(space, fam.kappa * (1 + noise))]
        verdicts = [(r.witness.counts.tobytes() if r.witness else None,
                     r.factorization and (r.factorization.tau_f if r.factorization.tau_f is not None
                                          else r.factorization.kappa_f).tobytes()) for r in results]
        return fam.tau.tobytes(), fam.kappa.tobytes(), verdicts

    monkeypatch.setattr(netstat, "BLOCK_ENTRIES", 2 ** 40)
    one_block = outcomes()
    digits = dyad_count_table(space)
    assert one_block[:2] == (netstat._dyadic_rebuild(model.tau_f, digits, np.add).tobytes(),
                             netstat._dyadic_rebuild(model.kappa_f, digits, np.multiply).tobytes())
    assert [w is None for w, _ in one_block[2]] == [True, False, True, False]
    for entries in (1, 7, 64, BLOCK_ENTRIES):
        monkeypatch.setattr(netstat, "BLOCK_ENTRIES", entries)
        assert outcomes() == one_block, entries
