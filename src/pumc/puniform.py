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
    magnitude,
    row_blocks,
)
from .errors import TheoremViolationError

DETECT_TOL = 1e-9


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


def check_triple(P: StochasticMatrix, fam: PermutationFamily, mu: Pmf, tol: float = DETECT_TOL) -> float:
    """Raise ValueError unless P(a, b) = mu(sigma_a(b)) entrywise within tol; return the worst deviation."""
    if fam.size != P.size or mu.size != P.size:
        raise ValueError("(P, family, mu) must share one state space size")
    err = _worst_deviation(P.P, fam, mu.p)[0]
    if not err <= tol:
        raise ValueError(f"(P, family, mu) is not a p-uniform triple, error {err:.3e}")
    return err


@dataclass(frozen=True)
class PuniformWitness:
    """Certificate that matrix rows are per-row relabellings of one pmf.

    Construction re-checks P(a, b) = mu(sigma_a(b)) entrywise against `tol`.
    """

    matrix: StochasticMatrix
    family: PermutationFamily
    mu: Pmf
    tol: float = DETECT_TOL

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

    Accepts a StochasticMatrix or any square real table; tol applies at the table's
    scale, tol * magnitude(table). Returns (True, None) or (False, (a, b, c)) where rows
    a and b disagree at relabelled target c, i.e. P(a, sigma_a^-1(c)) != P(b, sigma_b^-1(c)).
    Every row is compared with row 0, one block of rows at a time; (a, c) is the first
    worst deviation in row-major order, NaN before any number.
    """
    table = _as_table(P)
    size = table.shape[0]
    if fam.size != size:
        raise ValueError("family size does not match the table")
    first = np.empty(size)
    first[fam.apply(0, np.arange(size))] = table[0]
    worst, at = _worst_deviation(table, fam, first)
    if worst <= tol * magnitude(table):
        return True, None
    return False, (0, *at)


def _worst_deviation(table: np.ndarray, fam: PermutationFamily, ref: np.ndarray):
    """Worst |table(a, sigma_a^-1(c)) - ref(c)| and its first (a, c), NaN first."""
    size = table.shape[0]
    idx = np.arange(size)
    blocks = row_blocks(size)
    buf = np.empty((blocks[0].stop, size))
    worst, at = None, None
    for rows in blocks:
        dev = buf[: rows.stop - rows.start]
        dev[np.arange(len(dev))[:, None], fam.apply(idx[rows, None], idx)] = table[rows]  # [a, c] = P(a, sigma_a^-1(c))
        dev -= ref
        np.abs(dev, out=dev)
        k = int(np.argmax(dev))  # the block's first largest entry, or its first NaN
        value = dev.flat[k]
        # An earlier block keeps a tie; a NaN outranks every number.
        if worst is None or value > worst or (np.isnan(value) and not np.isnan(worst)):
            worst, at = value, (rows.start + k // size, k % size)
    return worst, at


def _matched_family(P, tol: float):
    """Match every row to row 0 by stable sort on (value, index), then test it.

    sigma sends row a's k-th smallest entry to the position of row 0's k-th
    smallest, which picks the lexicographically smallest assignment inside
    exact-tie blocks and makes sigma_0 the identity. Rows are sorted one
    block at a time. Returns the table, the family and check_puniform's
    (ok, triple) under it.
    """
    table = _as_table(P)
    size = table.shape[0]
    check_dense_budget(size, "detection's work tables")
    first = np.argsort(table[0], kind="stable")
    sigma = np.empty((size, size), dtype=np.int64)
    for rows in row_blocks(size):
        order = np.argsort(table[rows], axis=1, kind="stable")
        sigma[rows][np.arange(len(order))[:, None], order] = first
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
    return PuniformWitness(matrix=P, family=fam, mu=Pmf(table[0].copy()), tol=tol)


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
    symmetric family. The flags compare at DETECT_TOL; an implication raises
    only when its premises hold exactly, the one case where it cannot fail.
    """
    exact = check_triple(P, fam, mu) == 0
    fam_sym, pair = is_symmetric_family(fam)
    dev = float(np.abs(P.P - P.P.T).max())
    mat_sym = dev <= DETECT_TOL
    gap = np.diff(np.sort(mu.p)).min(initial=np.inf)
    distinct = bool(gap > DETECT_TOL)
    if exact and fam_sym and dev != 0:
        raise TheoremViolationError("symmetric family produced an asymmetric matrix")
    if exact and dev == 0 and gap > 0 and not fam_sym:
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
