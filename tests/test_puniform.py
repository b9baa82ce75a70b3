from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumc import core, models
from pumc.core import (
    PermutationFamily,
    Pmf,
    StochasticMatrix,
    build_modular_space,
    build_multigraph_space,
    builtin_family,
    identity_family,
    invert_family,
)
from pumc.errors import TheoremViolationError
from pumc.puniform import (
    PuniformWitness,
    _matched_family,
    Trajectory,
    chain_to_iid,
    check_puniform,
    check_triple,
    detect_puniform,
    detection_violation,
    iid_to_chain,
    induced_function,
    symmetry_transfer_check,
)


def two_state(theta):
    return StochasticMatrix(np.array([[theta, 1 - theta], [1 - theta, theta]]))


def test_check_puniform_accepts_swap_family():
    P = two_state(0.2)
    fam = PermutationFamily(sigma=np.array([[0, 1], [1, 0]]))
    ok, witness = check_puniform(P, fam)
    assert ok and witness is None


def test_check_puniform_rejects_with_triple():
    bad = np.array([[1.0, 2.0], [3.0, 4.0]])
    bad /= bad.sum(axis=1, keepdims=True)
    ok, triple = check_puniform(bad, identity_family(2))
    assert not ok
    a, b, c = triple
    assert abs(bad[a, c] - bad[b, c]) > 1e-9


def test_detect_two_state_swap():
    for theta in (0.2, 0.7):
        w = detect_puniform(two_state(theta))
        assert w is not None
        assert np.allclose(np.sort(w.mu.p), sorted([theta, 1 - theta]))


def test_detect_degenerate_equal_rows():
    w = detect_puniform(StochasticMatrix(np.array([[1.0, 0.0], [1.0, 0.0]])))
    assert w is not None
    # equal rows admit the identity matching
    assert np.array_equal(w.family.sigma, identity_family(2).sigma)


def test_detect_rejects_unbalanced_rows():
    bad = np.array([[1.0, 2.0], [3.0, 4.0]])
    bad /= bad.sum(axis=1, keepdims=True)
    assert detect_puniform(StochasticMatrix(bad)) is None
    triple = detection_violation(bad)
    assert triple is not None and len(triple) == 3


def test_detection_violation_none_on_uniform_matrix():
    assert detection_violation(two_state(0.3).P) is None


def test_detect_reproduces_known_chain_families():
    for cm in (models.density_chain(3, 0.3), models.stability_chain(3, 0.4), models.modular_chain(4)):
        w = detect_puniform(cm.matrix())
        assert w is not None
        # the witness must reproduce the matrix even if sigma differs from
        # the generating family on tie blocks
        assert np.abs(w.mu.p[w.family.sigma] - cm.matrix().P).max() <= 1e-12


@st.composite
def near_tie_matrices(draw):
    """A p-uniform matrix whose mu has exact ties, with some rows nudged.

    A nudge moves eps from one entry of a row to another, so rows still sum
    to 1; eps runs from 1e-12 to 3e-9, across every tolerance tested.
    """
    size = draw(st.integers(2, 6))
    levels = np.array(draw(st.lists(st.integers(1, 3), min_size=size, max_size=size)), float)
    mu = levels / levels.sum()
    perms = [draw(st.permutations(range(size))) for _ in range(size)]
    P = mu[np.array(perms)]
    eps = st.one_of(st.sampled_from([1e-12, 1e-10, 0.999e-9, 1e-9, 1.001e-9, 3e-9]),
                    st.floats(1e-12, 3e-9))
    for _ in range(draw(st.integers(0, 3))):
        a, i, j = (draw(st.integers(0, size - 1)) for _ in range(3))
        e = draw(eps)
        P[a, i] += e
        P[a, j] -= e
    return P


@given(near_tie_matrices(), st.sampled_from([1e-12, 1e-9, 1e-8]))
@settings(max_examples=300, deadline=None)
def test_detection_and_violation_agree_on_near_ties(P, tol):
    witness = detect_puniform(StochasticMatrix(P), tol)
    violation = detection_violation(P, tol)
    assert (witness is None) == (violation is not None)
    if witness is not None:
        check_triple(witness.matrix, witness.family, witness.mu, witness.tol)
        assert np.array_equal(witness.family.sigma[0], np.arange(P.shape[0]))


def test_witness_rejects_inconsistent_triple():
    P = two_state(0.2)
    with pytest.raises(ValueError):
        PuniformWitness(matrix=P, family=identity_family(2), mu=Pmf(np.array([0.2, 0.8])))


def test_chain_to_iid_values():
    space = build_multigraph_space(3, 1)
    fam = builtin_family(space, "symdiff")
    x = Trajectory(space=space, states=np.array([0, 3, 5, 5]))
    z = chain_to_iid(x, fam)
    assert z.tolist() == [0 ^ 3, 3 ^ 5, 5 ^ 5]


def test_iid_to_chain_inverts_chain_to_iid():
    space = build_multigraph_space(3, 1)
    fam = builtin_family(space, "stability")
    x = Trajectory(space=space, states=np.array([2, 7, 0, 1, 6]))
    z = chain_to_iid(x, fam)
    back = iid_to_chain(2, z, fam, space)
    assert np.array_equal(back.states, x.states)


@given(st.integers(0, 7), st.lists(st.integers(0, 7), min_size=1, max_size=30), st.sampled_from(["symdiff", "stability"]))
@settings(max_examples=80, deadline=None)
def test_round_trip_exact_property(x0, zs, name):
    space = build_multigraph_space(3, 1)
    fam = builtin_family(space, name)
    z = np.array(zs, dtype=np.int64)
    x = iid_to_chain(x0, z, fam, space)
    assert np.array_equal(chain_to_iid(x, fam), z)


def test_trajectory_validation():
    space = build_multigraph_space(3, 1)
    with pytest.raises(ValueError):
        Trajectory(space=space, states=np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        Trajectory(space=space, states=np.array([0, 8]))
    t = Trajectory(space=space, states=np.array([4]))
    assert t.transitions == 0


def test_induced_function_values_and_distinctness():
    space = build_modular_space(4)
    fam = builtin_family(space, "modular")
    inv = invert_family(fam)
    for z in range(4):
        fz = induced_function(fam, z)
        assert np.array_equal(fz, inv.sigma[:, z])
    # distinct z produce distinct maps: collect and compare
    maps = np.array([induced_function(fam, z) for z in range(4)])
    assert np.unique(maps, axis=0).shape[0] == 4


def test_induced_function_fixed_point_free_composition():
    # for the modular family, f_z(b) = b + z, so f_z o f_w = f_{z+w}
    space = build_modular_space(5)
    fam = builtin_family(space, "modular")
    f1 = induced_function(fam, 1)
    f2 = induced_function(fam, 2)
    f3 = induced_function(fam, 3)
    assert np.array_equal(f1[f2], f3)


def test_symmetry_transfer_symmetric_family():
    cm = models.stability_chain(3, 0.3)
    rep = symmetry_transfer_check(cm.matrix(), cm.family, cm.mu)
    assert rep.family_symmetric and rep.matrix_symmetric
    assert rep.matrix_deviation == 0.0


def test_symmetry_transfer_asymmetric_family():
    cm = models.modular_chain(3, np.array([0.2, 0.5, 0.3]))
    rep = symmetry_transfer_check(cm.matrix(), cm.family, cm.mu)
    assert not rep.family_symmetric
    assert not rep.matrix_symmetric
    assert rep.mu_entries_distinct


def test_symmetry_transfer_ties_allow_asymmetric_family():
    # symmetric matrix whose mu has tied entries: the converse needs
    # distinct masses, so an asymmetric family is not flagged
    space = build_modular_space(3)
    fam = builtin_family(space, "modular")
    mu = Pmf(np.full(3, 1.0 / 3.0))
    P = StochasticMatrix(mu.p[fam.sigma])
    rep = symmetry_transfer_check(P, fam, mu)
    assert rep.matrix_symmetric and not rep.family_symmetric
    assert not rep.mu_entries_distinct


def test_symmetry_transfer_rejects_bad_triple():
    cm = models.stability_chain(3, 0.3)
    with pytest.raises(ValueError):
        symmetry_transfer_check(cm.matrix(), cm.family, Pmf(np.full(8, 0.125)))


def test_detected_witness_on_reciprocity_matrix_is_absent():
    import pumc

    rc = models.reciprocity_cef(3)
    P = pumc.cef_transition_matrix(rc, 2.0)
    assert detect_puniform(P) is None


# ------------------------------------------- row blocks against the dense code

def _dense_sigma(table):
    """Detection's matching as one size x size argsort."""
    order = np.argsort(table, axis=1, kind="stable")
    sigma = np.empty_like(order)
    sigma[np.arange(table.shape[0])[:, None], order] = order[0]
    return sigma


def _dense_check(table, fam, tol):
    """check_puniform with the whole relabelled table in memory."""
    idx = np.arange(table.shape[0])
    relabelled = np.empty_like(table)
    relabelled[idx[:, None], fam.apply(idx[:, None], idx)] = table
    relabelled -= relabelled[0].copy()
    dev = np.abs(relabelled)
    if dev.max() <= tol:
        return True, None
    a, c = np.unravel_index(np.argmax(dev), dev.shape)
    return False, (0, int(a), int(c))


@st.composite
def _square_tables(draw):
    """p-uniform tables, perturbed ones, ones with exact ties in mu, and ones with NaN."""
    size = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["puniform", "perturbed", "ties", "nan"]))
    mu = rng.integers(0, 3, size).astype(float) if kind == "ties" else rng.random(size)
    table = mu[np.array([rng.permutation(size) for _ in range(size)])]
    if kind in ("perturbed", "nan"):
        for _ in range(draw(st.integers(1, 3))):
            a, b = rng.integers(size, size=2)
            table[a, b] = np.nan if kind == "nan" else table[a, b] + rng.choice([1e-12, 1e-6, 0.5])
    return table


@settings(max_examples=200, deadline=None)
@given(table=_square_tables(), rows=st.sampled_from([1, 3]), tol=st.sampled_from([0.0, 1e-9]))
def test_blocked_detection_matches_the_dense_tables(table, rows, tol):
    """sigma and (ok, triple) from row blocks of 1 and 3 rows equal the dense code's,
    the first worst (a, c) in row-major order and NaN included."""
    size = table.shape[0]
    with mock.patch.object(core, "BLOCK_ENTRIES", rows * size):
        _, fam, result = _matched_family(table, tol)
        formula = builtin_family(build_modular_space(size), "modular")
        by_formula = check_puniform(table, formula, tol)
    assert np.array_equal(fam.sigma, _dense_sigma(table))
    assert result == _dense_check(table, fam, tol)
    assert by_formula == _dense_check(table, formula, tol)


def test_blocked_triple_check_reports_the_dense_error(monkeypatch):
    cm = models.stability_chain(3, 0.3)
    P, fam, mu = cm.matrix(), cm.family, cm.mu
    bumped = P.P.copy()
    bumped[5, [2, 3]] += [1e-6, -1e-6]
    err = np.abs(bumped - mu.p[fam.sigma]).max()
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 3 * P.size)
    check_triple(P, fam, mu)
    with pytest.raises(ValueError, match=f"error {err:.3e}$"):
        check_triple(StochasticMatrix(bumped), fam, mu)
    with pytest.raises(ValueError, match="every row must be a permutation"):
        PermutationFamily(sigma=np.array([[0, 1, 2], [1, 2, 0], [2, 2, 1]]))


# ------------------------------------------- one tolerance, exact premises

NEAR_TIE = StochasticMatrix(np.array([[0.3, 0.7], [0.3 + 5e-10, 0.7 - 5e-10]]))


def test_check_triple_returns_its_worst_deviation():
    cm = models.stability_chain(3, 0.3)
    assert check_triple(cm.matrix(), cm.family, cm.mu) == 0.0
    w = detect_puniform(NEAR_TIE)
    assert w.tol == 1e-9
    assert np.isclose(check_triple(w.matrix, w.family, w.mu), 5e-10, rtol=1e-3, atol=0)


def test_a_detected_witness_passes_the_symmetry_check():
    """Rows 5e-10 apart are detected at DETECT_TOL; the witness's own triple is
    accepted by symmetry_transfer_check at the same tolerance."""
    w = detect_puniform(NEAR_TIE)
    rep = symmetry_transfer_check(w.matrix, w.family, w.mu)
    assert not rep.matrix_symmetric and rep.mu_entries_distinct and not rep.family_symmetric


def test_symmetry_transfer_reports_a_triple_within_tolerance_without_raising():
    """P is 9e-11 from mu relabelled by the symmetric symdiff family, and
    |P - P^T| = 1.8e-10: the premises hold only within a tolerance, so the
    flags report and nothing raises."""
    e = 9e-11
    P = StochasticMatrix(np.array([[0.3 - e, 0.7 + e], [0.7 - e, 0.3 + e]]))
    fam = builtin_family(build_multigraph_space(2, 1), "symdiff")
    rep = symmetry_transfer_check(P, fam, Pmf(np.array([0.3, 0.7])))
    assert rep.family_symmetric and rep.matrix_symmetric and rep.mu_entries_distinct
    assert 0 < rep.matrix_deviation <= 1e-9


def test_symmetry_transfer_raises_when_exact_premises_fail_their_conclusion():
    """An exact triple whose family is (wrongly) called symmetric, or whose exactly
    symmetric P and distinct mu meet a family (wrongly) called asymmetric, raises."""
    cm = models.modular_chain(3, np.array([0.2, 0.5, 0.3]))
    with mock.patch("pumc.puniform.is_symmetric_family", return_value=(True, None)):
        with pytest.raises(TheoremViolationError, match="asymmetric matrix"):
            symmetry_transfer_check(cm.matrix(), cm.family, cm.mu)
    P = StochasticMatrix(np.array([[0.3, 0.7], [0.7, 0.3]]))
    fam = builtin_family(build_multigraph_space(2, 1), "symdiff")
    with mock.patch("pumc.puniform.is_symmetric_family", return_value=(False, (0, 1))):
        with pytest.raises(TheoremViolationError, match="requires a symmetric family"):
            symmetry_transfer_check(P, fam, Pmf(np.array([0.3, 0.7])))
