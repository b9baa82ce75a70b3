import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pumc import models
from pumc.core import (
    StochasticMatrix,
    build_multigraph_space,
    builtin_family,
    edge_total_table,
    identity_family,
    num_dyads,
)
from pumc.errors import PowerIterationError, SpaceTooLargeError
from pumc.expfam import CodeTable
from pumc.netstat import density_stat_table, edge_stat_counts
from pumc.puniform import Trajectory, chain_to_iid
from pumc.simulate import (
    convergence_report,
    sample_chain,
    sample_puniform_chain,
    stability_transition_matrix,
    stationary_distribution,
    trace_and_limit_checks,
)


def test_sample_chain_shape_and_determinism():
    cm = models.density_chain(3, 0.3)
    a = sample_chain(cm.space, cm.matrix(), 0, 100, seed=5)
    b = sample_chain(cm.space, cm.matrix(), 0, 100, seed=5)
    c = sample_chain(cm.space, cm.matrix(), 0, 100, seed=6)
    assert a.states.size == 101 and a.states[0] == 0
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_replicate_lanes_are_independent_streams():
    cm = models.density_chain(3, 0.3)
    r0 = sample_chain(cm.space, cm.matrix(), 0, 50, seed=5, replicate=0)
    r1 = sample_chain(cm.space, cm.matrix(), 0, 50, seed=5, replicate=1)
    assert not np.array_equal(r0.states, r1.states)


def test_sample_puniform_chain_iid_view_matches_mu_frequencies():
    cm = models.stability_chain(3, 0.3)
    traj = sample_puniform_chain(cm.space, cm.mu, cm.family, 0, 20000, seed=3)
    z = chain_to_iid(traj, cm.family)
    freqs = np.bincount(z, minlength=8) / z.size
    assert np.abs(freqs - cm.mu.p).max() < 0.02


def test_sample_chain_empirical_transition_frequencies():
    cm = models.modular_chain(3, np.array([0.2, 0.5, 0.3]))
    traj = sample_chain(cm.space, cm.matrix(), 0, 30000, seed=11)
    s = traj.states
    counts = np.zeros((3, 3))
    np.add.at(counts, (s[:-1], s[1:]), 1.0)
    freq = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(freq - cm.matrix().P).max() < 0.02


def test_zero_steps_and_validation():
    cm = models.density_chain(3, 0.3)
    t = sample_chain(cm.space, cm.matrix(), 4, 0, seed=1)
    assert t.states.tolist() == [4]
    with pytest.raises(ValueError):
        sample_chain(cm.space, cm.matrix(), 99, 5, seed=1)
    with pytest.raises(ValueError):
        sample_chain(cm.space, cm.matrix(), 0, -1, seed=1)


def test_convergence_report_running_mean_hand_check():
    space = build_multigraph_space(3, 1)
    table = density_stat_table(space)
    x = Trajectory(space=space, states=np.array([0, 7, 0, 1]))
    rep = convergence_report(x, table, target=0.5)
    series = [table[0, 7], table[7, 0], table[0, 1]]
    expect = np.cumsum(series) / np.arange(1, 4)
    assert np.allclose(rep.running_mean[:, 0], expect)
    assert rep.stderr is None and rep.within_three_se is None
    assert rep.transitions == 3


def test_convergence_report_se_needs_puniform_certificate():
    space = build_multigraph_space(3, 1)
    x = Trajectory(space=space, states=np.array([0, 7, 0, 1]))
    table = density_stat_table(space)
    rep = convergence_report(x, table, 0.5, identity_family(8))
    assert rep.stderr is not None
    # source-index statistic varies across rows: no single g exists
    bad = np.broadcast_to(np.arange(8.0)[:, None], (8, 8)).copy()
    with pytest.raises(ValueError):
        convergence_report(x, bad, 0.5, identity_family(8))


def test_convergence_report_reads_a_code_table_as_its_dense_form():
    """A CodeTable gives the report of the dense table it stands for, bit for
    bit: with no family, under a family that certifies it, and under one
    that does not, where both refuse with the same triple."""
    cm = models.stability_chain(4, 0.3)
    x = sample_puniform_chain(cm.space, cm.mu, cm.family, 0, 500, seed=4)
    idx = np.arange(cm.space.size)
    agree = edge_stat_counts(cm.space, "stability", idx[:, None], idx).astype(np.uint8)
    stability = CodeTable(codes=agree, values=np.arange(num_dyads(4) + 1) / 3.0)
    transitivity = models.transitivity_table(4)

    def outcome(table, fam):
        try:
            rep = convergence_report(x, table, 1.5, fam)
        except ValueError as exc:
            return str(exc)
        stderr = None if rep.stderr is None else rep.stderr.tobytes()
        return rep.running_mean.tobytes(), rep.final_mean.tobytes(), stderr

    cases = ((transitivity, None), (stability, None), (stability, cm.family),
             (transitivity, builtin_family(cm.space, "identity")))
    for table, fam in cases:
        coded = outcome(table, fam)
        assert coded == outcome(np.asarray(table), fam)
        assert (type(coded) is str) == (table is transitivity and fam is not None)
        assert (fam is cm.family) == (type(coded) is tuple and coded[2] is not None)
    assert "is not p-uniform under the family: (0, " in coded


def test_convergence_report_reads_a_view_of_a_large_table_along_the_path():
    """G(6, 1) has 32768 states, so a dense table would hold 2^30 entries. A read-only
    broadcast view of tau(a, b) = edges of b is read only at the 1000 visited
    transitions, with no family check and so no dense coordinate; with a family,
    the check that forms one refuses first."""
    space = build_multigraph_space(6, 1)
    edges = edge_total_table(space).astype(np.float64)
    table = np.broadcast_to(edges, (space.size, space.size))
    x = Trajectory(space=space, states=np.random.default_rng(3).integers(0, space.size, size=1001))
    tracemalloc.start()
    try:
        rep = convergence_report(x, table, 7.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert np.isclose(rep.final_mean[0], edges[x.states[1:]].mean()) and rep.stderr is None
    with pytest.raises(SpaceTooLargeError, match="32768 x 32768"):
        convergence_report(x, table, 7.5, builtin_family(space, "stability"))


def test_convergence_report_dimension_checks():
    space = build_multigraph_space(3, 1)
    x = Trajectory(space=space, states=np.array([0, 7]))
    with pytest.raises(ValueError):
        convergence_report(x, np.zeros((4, 4)), 0.0)
    with pytest.raises(ValueError):
        convergence_report(x, density_stat_table(space), [0.1, 0.2])
    with pytest.raises(ValueError):
        convergence_report(Trajectory(space=space, states=np.array([3])), density_stat_table(space), 0.5)


def test_stationary_two_state_swap():
    P = StochasticMatrix(np.array([[0.3, 0.7], [0.7, 0.3]]))
    res = stationary_distribution(P)
    assert np.abs(res.pi.p - 0.5).max() <= 1e-10
    assert res.unique_hint


def test_stationary_density_chain_is_mu():
    cm = models.density_chain(3, 0.3)
    res = stationary_distribution(cm.matrix())
    assert np.abs(res.pi.p - cm.mu.p).max() <= 1e-10
    assert res.residual <= 1e-12


def test_stationary_periodic_chain_raises_with_iterate():
    P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    # the deterministic swap fixes the uniform start, so the failure path
    # needs a slow-mixing chain plus a tiny iteration cap
    slow = StochasticMatrix(np.array([[0.999, 0.001], [0.0005, 0.9995]]))
    with pytest.raises(PowerIterationError) as err:
        stationary_distribution(slow, tol=1e-13, max_iter=3)
    assert err.value.last_iterate.shape == (2,)
    assert err.value.iterations == 3
    res = stationary_distribution(P)
    assert np.abs(res.pi.p - 0.5).max() <= 1e-12


def test_stationary_swap_is_unique_and_max_iter_is_checked():
    swap = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    res = stationary_distribution(swap)
    assert res.unique_hint and res.iterations == 1
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        stationary_distribution(swap, max_iter=0)


def test_stationary_walk_escapes_a_transient_argmax():
    """Converged at iteration 1 with its argmax on transient state 1; the walk must reach state 2."""
    P = StochasticMatrix(np.array([[1 - 1e-13, 1e-13, 0.0], [0.0, 1 - 1e-14, 1e-14], [0.0, 0.0, 1.0]]))
    res = stationary_distribution(P)
    assert res.iterations == 1 and int(np.argmax(res.pi.p)) == 1
    assert res.unique_hint


def _one_closed_class(P: np.ndarray) -> bool:
    """Reference: closed classes read off the reachability matrix (I + A)^n > 0."""
    n = P.shape[0]
    reach = np.linalg.matrix_power(np.eye(n, dtype=np.int64) + (P > 0), n) > 0
    closed = [i for i in range(n) if not (reach[i] & ~reach[:, i]).any()]
    return len({tuple(reach[i] & reach[:, i]) for i in closed}) == 1


@st.composite
def sparse_chains(draw):
    n = draw(st.integers(1, 6))
    weights = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0])
    W = np.array(draw(st.lists(st.lists(weights, min_size=n, max_size=n), min_size=n, max_size=n)))
    for i in np.flatnonzero(W.sum(axis=1) == 0):
        W[i, draw(st.integers(0, n - 1))] = 1.0
    return W / W.sum(axis=1, keepdims=True)


@settings(max_examples=200, deadline=None)
@example(P=np.array([[0.0, 1.0], [1.0, 0.0]]))
@example(P=np.array([[1.0, 0.0], [0.0, 1.0]]))
@given(P=sparse_chains())
def test_unique_hint_is_one_closed_class(P):
    try:
        res = stationary_distribution(StochasticMatrix(P), max_iter=2000)
    except PowerIterationError:
        assume(False)
    assert res.unique_hint == _one_closed_class(P)


def test_stability_matrix_entries_closed_form():
    P = stability_transition_matrix(3, 0.3).P
    space = build_multigraph_space(3, 1)
    nd = num_dyads(3)
    for a in range(space.size):
        for b in range(space.size):
            agree = nd - bin(a ^ b).count("1")
            assert abs(P[a, b] - 0.3**agree * 0.7 ** (nd - agree)) <= 1e-15


def test_stability_matrix_matches_chain_model():
    P1 = stability_transition_matrix(3, 0.4).P
    P2 = models.stability_chain(3, 0.4).matrix().P
    assert np.abs(P1 - P2).max() == 0.0


def test_trace_and_limit_checks_values():
    rep = trace_and_limit_checks(3, 0.3)
    assert abs(rep.trace - 8 * 0.3**3) <= 1e-10
    assert rep.symmetric
    assert rep.uniform_stationary_residual <= 1e-12

    rep_half = trace_and_limit_checks(3, 0.5)
    assert rep_half.uniform_entry_deviation <= 1e-14

    rep_high = trace_and_limit_checks(3, 0.95)
    assert rep_high.diagonal_margin > 0


def test_trace_check_rejects_bad_p():
    with pytest.raises(ValueError):
        stability_transition_matrix(3, 0.0)
