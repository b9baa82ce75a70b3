"""Permutation-uniform transition structure.

A transition function f on S x S is permutation-uniform (p-uniform) when
there is one function g and a family of permutations sigma with
f(a, b) = g(sigma_a(b)) for every a, b; equivalently all rows of f agree
after the per-row relabelling. For a stochastic f the common g is a pmf mu,
and the chain X becomes an iid sequence under Z_{i+1} = sigma_{X_i}(X_{i+1}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Pmf,
    PermutationFamily,
    StateSpace,
    StochasticMatrix,
    check_dense_budget,
    is_symmetric_family,
)
from .errors import TheoremViolationError

DETECT_TOL = 1e-9
WITNESS_TOL = 1e-10


@dataclass(frozen=True)
class Trajectory:
    """Chain path as state indices, start included; length >= 1."""

    space: StateSpace
    states: np.ndarray

    def __post_init__(self):
        states = np.ascontiguousarray(self.states, dtype=np.int64)
        object.__setattr__(self, "states", states)
        if states.ndim != 1 or states.size == 0:
            raise ValueError("a trajectory holds at least its start state")
        if states.min() < 0 or states.max() >= self.space.size:
            raise ValueError("state index out of range for the space")

    @property
    def transitions(self) -> int:
        return self.states.size - 1


def check_triple(P: StochasticMatrix, fam: PermutationFamily, mu: Pmf, tol: float = WITNESS_TOL):
    """Raise ValueError unless P(a, b) = mu(sigma_a(b)) entrywise within tol."""
    if fam.size != P.size or mu.size != P.size:
        raise ValueError("(P, family, mu) must share one state space size")
    err = np.abs(P.P - fam.spread(mu.p, "the transition matrix")).max()
    if err > tol:
        raise ValueError(f"(P, family, mu) is not a p-uniform triple, error {err:.3e}")


@dataclass(frozen=True)
class PuniformWitness:
    """Certificate that matrix rows are per-row relabellings of one pmf.

    Construction re-checks P(a, b) = mu(sigma_a(b)) entrywise against `tol`.
    """

    matrix: StochasticMatrix
    family: PermutationFamily
    mu: Pmf
    tol: float = WITNESS_TOL

    def __post_init__(self):
        check_triple(self.matrix, self.family, self.mu, self.tol)


def _as_table(P) -> np.ndarray:
    if isinstance(P, StochasticMatrix):
        return P.P
    table = np.asarray(P, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError("need a square table")
    return table


def check_puniform(P, fam: PermutationFamily, tol: float = DETECT_TOL):
    """Test the defining condition against a given family.

    Accepts a StochasticMatrix or any square real table. Returns (True, None)
    or (False, (a, b, c)) where rows a and b disagree at relabelled target c,
    i.e. P(a, sigma_a^-1(c)) != P(b, sigma_b^-1(c)).
    """
    table = _as_table(P)
    if fam.size != table.shape[0]:
        raise ValueError("family size does not match the table")
    idx = np.arange(table.shape[0])
    relabelled = np.empty_like(table)
    relabelled[idx[:, None], fam.apply(idx[:, None], idx)] = table  # [a, c] = P(a, sigma_a^-1(c))
    dev = np.abs(relabelled - relabelled[0])
    worst = dev.max()
    if worst <= tol:
        return True, None
    a, c = np.unravel_index(np.argmax(dev), dev.shape)
    return False, (0, int(a), int(c))


def _matched_family(P, tol: float):
    """Match every row to row 0 by stable sort on (value, index), then test it.

    sigma sends row a's k-th smallest entry to the position of row 0's k-th
    smallest, which picks the lexicographically smallest assignment inside
    exact-tie blocks and makes sigma_0 the identity. Returns the table, the
    family and check_puniform's (ok, triple) under it.
    """
    table = _as_table(P)
    check_dense_budget(table.shape[0], "detection's work tables")
    order = np.argsort(table, axis=1, kind="stable")
    sigma = np.empty_like(order)
    sigma[np.arange(table.shape[0])[:, None], order] = order[0]
    fam = PermutationFamily(sigma=sigma, tag="detected")
    return table, fam, check_puniform(table, fam, tol)


def detect_puniform(P: StochasticMatrix, tol: float = DETECT_TOL):
    """Find a p-uniform witness for P, or None.

    Rows are matched to row 0 by stable sort on (value, index), and
    check_puniform tests the defining condition once under that matching.
    The matching puts row a's k-th smallest entry against row 0's k-th
    smallest, so that test is also the comparison of sorted rows. The
    witness has sigma_0 = identity and mu = row 0.
    """
    table, fam, (ok, _) = _matched_family(P, tol)
    if not ok:
        return None
    return PuniformWitness(matrix=P, family=fam, mu=Pmf(table[0].copy()), tol=max(tol, WITNESS_TOL))


def detection_violation(P, tol: float = DETECT_TOL):
    """Concrete violating triple (a, b, c) for a matrix detection rejected.

    Uses the matching detection uses and reports where the defining
    condition breaks under it. For a matrix that is in fact p-uniform
    within tol this returns None.
    """
    _, _, (ok, triple) = _matched_family(P, tol)
    return None if ok else triple


def chain_to_iid(x: Trajectory, fam: PermutationFamily) -> np.ndarray:
    """Map transitions to the iid coordinates: z_{i+1} = sigma_{x_i}(x_{i+1})."""
    if fam.size != x.space.size:
        raise ValueError("family does not match the trajectory's space")
    s = x.states
    return fam.apply(s[:-1], s[1:])


def iid_to_chain(x0: int, z: np.ndarray, fam: PermutationFamily, space: StateSpace) -> Trajectory:
    """Rebuild the chain path: x_{i+1} = sigma_{x_i}^{-1}(z_{i+1})."""
    z = np.ascontiguousarray(z, dtype=np.int64)
    if z.size and (z.min() < 0 or z.max() >= fam.size):
        raise ValueError("iid value out of range")
    if not 0 <= x0 < fam.size:
        raise ValueError("x0 out of range")
    return Trajectory(space=space, states=fam.walk(x0, z))


def induced_function(fam: PermutationFamily, z: int) -> np.ndarray:
    """The map b -> sigma_b^-1(z) induced by a fixed iid value z.

    Also asserts the two structural facts: distinct z induce distinct maps,
    and for each fixed b the assignment z -> sigma_b^-1(z) is a bijection.
    The second holds by construction (rows of the inverse family are
    permutations); the first is checked across the whole family.
    """
    if not 0 <= z < fam.size:
        raise ValueError("z out of range")
    check_dense_budget(fam.size, "the induced maps")
    idx = np.arange(fam.size)
    full = fam.unapply(idx, idx[:, None])  # full[z, b] = sigma_b^-1(z)
    if np.unique(full, axis=0).shape[0] != fam.size:
        raise TheoremViolationError("induced maps are not pairwise distinct")
    return full[z].copy()


@dataclass(frozen=True)
class SymmetryReport:
    family_symmetric: bool
    matrix_symmetric: bool
    mu_entries_distinct: bool
    family_counterexample: tuple | None = None
    matrix_deviation: float = 0.0


def symmetry_transfer_check(P: StochasticMatrix, fam: PermutationFamily, mu: Pmf) -> SymmetryReport:
    """Check the symmetry transfer between family and matrix.

    A symmetric family (sigma_a(b) = sigma_b(a)) forces a symmetric matrix;
    conversely a symmetric matrix with pairwise-distinct mu entries forces a
    symmetric family. Either implication failing raises, since it cannot
    fail for a consistent p-uniform triple. Every comparison uses WITNESS_TOL.
    """
    check_triple(P, fam, mu)
    fam_sym, pair = is_symmetric_family(fam)
    dev = float(np.abs(P.P - P.P.T).max())
    mat_sym = dev <= WITNESS_TOL
    gaps = np.diff(np.sort(mu.p))
    distinct = bool(gaps.size == 0 or gaps.min() > WITNESS_TOL)
    if fam_sym and not mat_sym:
        raise TheoremViolationError("symmetric family produced an asymmetric matrix")
    if mat_sym and distinct and not fam_sym:
        raise TheoremViolationError(
            "symmetric matrix with distinct mu entries requires a symmetric family"
        )
    return SymmetryReport(
        family_symmetric=fam_sym,
        matrix_symmetric=mat_sym,
        mu_entries_distinct=distinct,
        family_counterexample=pair,
        matrix_deviation=dev,
    )
