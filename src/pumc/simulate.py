"""Chain sampling and long-run diagnostics.

Trajectories are generated sequentially (Markov dependence), one uniform per
step from the (seed, replicate) stream; p-uniform chains can instead draw
their iid coordinates up front and replay them through the inverse family,
which is the faster path and exercises the transformation in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .core import DENSE_ENTRY_CAP, Pmf, PermutationFamily, StateSpace, StochasticMatrix, check_dense_budget, num_dyads
from .errors import PowerIterationError, TheoremViolationError
from .expfam import CodeTable
from .puniform import Trajectory, check_puniform, iid_to_chain
from .rng import inverse_cdf, stream

STATIONARY_TOL = 1e-12
STATIONARY_MAX_ITER = 10 ** 6
TRACE_TOL = 1e-10
UNIFORM_ENTRY_TOL = 1e-14


def sample_chain(
    space: StateSpace, P: StochasticMatrix, x0: int, steps: int, seed: int, replicate: int = 0
) -> Trajectory:
    """Walk the chain for `steps` transitions from x0."""
    if P.size != space.size:
        raise ValueError("matrix does not match the space")
    if not 0 <= x0 < space.size:
        raise ValueError("x0 out of range")
    if not 0 <= steps < DENSE_ENTRY_CAP:
        raise ValueError(f"steps must lie in 0..{DENSE_ENTRY_CAP - 1}")
    cum = np.cumsum(P.P, axis=1)
    u = stream(seed, replicate).random(steps)
    states = np.empty(steps + 1, dtype=np.int64)
    states[0] = x0
    cur = int(x0)
    for i in range(steps):
        cur = int(inverse_cdf(cum[cur], u[i : i + 1])[0])
        states[i + 1] = cur
    return Trajectory(space=space, states=states)


def sample_puniform_chain(
    space: StateSpace,
    mu: Pmf,
    fam: PermutationFamily,
    x0: int,
    steps: int,
    seed: int,
    replicate: int = 0,
) -> Trajectory:
    """Sample the iid coordinates from mu, then replay them through the family."""
    if mu.size != space.size or fam.size != space.size:
        raise ValueError("pmf and family must match the space")
    if not 0 <= steps < DENSE_ENTRY_CAP:
        raise ValueError(f"steps must lie in 0..{DENSE_ENTRY_CAP - 1}")
    u = stream(seed, replicate).random(steps)
    z = inverse_cdf(np.cumsum(mu.p), u)
    return iid_to_chain(x0, z, fam, space)


@dataclass(frozen=True)
class ConvergenceReport:
    """Time-average behaviour of a transition statistic along one path."""

    target: np.ndarray
    final_mean: np.ndarray
    abs_error: np.ndarray
    stderr: np.ndarray | None
    within_three_se: bool | None
    transitions: int
    running_mean: np.ndarray  # (transitions, l)


def convergence_report(
    x: Trajectory, stat_table: np.ndarray | CodeTable, target, fam: PermutationFamily | None = None
) -> ConvergenceReport:
    """Running time-average of a transition statistic against its target.

    stat_table is (size, size) or (size, size, l), indexed by (source,
    target) state. It is read only along the path, so a CodeTable or a float64
    view is not realized; only the family check forms a dense coordinate, and
    only it is held to the dense budget. The iid standard error is only
    reported when a family is supplied and every statistic coordinate
    passes the p-uniformity check under it; without that certificate the
    column would be meaningless for a dependent sequence, so it stays None.
    """
    size = x.space.size
    table = stat_table if isinstance(stat_table, CodeTable) else np.asarray(stat_table, dtype=np.float64)
    if table.ndim == 2:
        table = table[:, :, None]
    if table.shape[:2] != (size, size):
        raise ValueError("stat table must be (size, size, l)")
    if x.transitions < 1:
        raise ValueError("need at least one transition")
    target = np.atleast_1d(np.asarray(target, dtype=np.float64))
    if target.shape != (table.shape[2],):
        raise ValueError("target dimension mismatch")
    series = table[x.states[:-1], x.states[1:]]
    running = np.cumsum(series, axis=0) / np.arange(1, x.transitions + 1)[:, None]
    final = running[-1]
    stderr = None
    within = None
    if fam is not None:
        check_dense_budget(size, "the statistic table")
        for j in range(table.shape[2]):
            ok, triple = check_puniform(table[:, :, j], fam)
            if not ok:
                raise ValueError(
                    f"statistic coordinate {j} is not p-uniform under the family: {triple}"
                )
        if x.transitions < 2:
            raise ValueError("an iid standard error needs at least two transitions")
        stderr = series.std(axis=0, ddof=1) / np.sqrt(x.transitions)
        within = bool(np.all(np.abs(final - target) <= 3 * stderr))
    return ConvergenceReport(
        target=target,
        final_mean=final,
        abs_error=np.abs(final - target),
        stderr=stderr,
        within_three_se=within,
        transitions=x.transitions,
        running_mean=running,
    )


@dataclass(frozen=True)
class StationaryResult:
    pi: Pmf
    residual: float
    iterations: int
    unique_hint: bool


def _reachable(edges: np.ndarray, start: int) -> np.ndarray:
    """Mask of the states reachable from start (itself included) along a boolean adjacency."""
    seen = np.zeros(edges.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def stationary_distribution(
    P: StochasticMatrix, tol: float = STATIONARY_TOL, max_iter: int = STATIONARY_MAX_ITER
) -> StationaryResult:
    """Power iteration pi <- pi P from the uniform start.

    Convergence is ||pi P - pi||_1 <= tol; failure raises, carrying the last
    iterate. unique_hint is exact: pi is unique iff the support graph P > 0
    has one closed class. A walk from argmax(pi) to reached states that
    cannot reach back shrinks its reachable set, so it ends in a closed
    class, the only one iff every state reaches it.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    pi = np.full(P.size, 1.0 / P.size)
    for iters in range(1, max_iter + 1):
        nxt = pi @ P.P
        resid = float(np.abs(nxt - pi).sum())
        pi = nxt / nxt.sum()  # renormalize against drift
        if resid <= tol:
            break
    else:
        raise PowerIterationError(
            f"no convergence after {iters} iterations, residual {resid:.3e}",
            last_iterate=pi,
            iterations=iters,
        )
    edges = P.P > 0
    r = int(np.argmax(pi))
    while True:
        reaches_r = _reachable(edges.T, r)
        escape = _reachable(edges, r) & ~reaches_r
        if not escape.any():
            break
        r = int(np.argmax(escape))
    return StationaryResult(pi=Pmf(pi), residual=resid, iterations=iters, unique_hint=bool(reaches_r.all()))


def stability_transition_matrix(n: int, p: float) -> StochasticMatrix:
    """Transition matrix of the stability chain on G(n, 1) at retention p."""
    return models.stability_chain(n, p).matrix()


@dataclass(frozen=True)
class StabilityMatrixReport:
    n: int
    p: float
    trace: float
    trace_expected: float
    symmetric: bool
    diagonal_margin: float          # min over rows of diag - max off-diagonal
    uniform_entry_deviation: float  # max |entry - 2^-N|, meaningful at p = 1/2
    uniform_stationary_residual: float


def trace_and_limit_checks(n: int, p: float) -> StabilityMatrixReport:
    """Closed-form checks on the stability chain's transition matrix.

    The diagonal is constant p^N, so the trace is 2^N p^N; the matrix is
    symmetric, hence doubly stochastic, hence uniform-stationary; at
    p = 1/2 every entry is 2^-N; as p -> 1 the diagonal dominates. Trace or
    symmetry failing raises; at p = 1/2 so does a non-uniform entry; for
    p >= 0.9 so does a non-dominant diagonal.
    """
    P = stability_transition_matrix(n, p).P
    size = P.shape[0]
    nd = num_dyads(n)
    trace = float(np.trace(P))
    expected = size * p ** nd
    symmetric = bool(np.array_equal(P, P.T))
    # Off-diagonal row maxima: shove the diagonal below zero, then take max.
    margin = float((np.diag(P) - (P - 2 * np.diag(np.diag(P))).max(axis=1)).min())
    uniform_dev = float(np.abs(P - 1.0 / size).max())
    u = np.full(size, 1.0 / size)
    stationary_resid = float(np.abs(u @ P - u).sum())
    if not abs(trace - expected) <= TRACE_TOL:
        raise TheoremViolationError("trace must equal 2^N p^N for the stability chain")
    if not symmetric:
        raise TheoremViolationError("stability matrices are symmetric")
    if p == 0.5 and not uniform_dev <= UNIFORM_ENTRY_TOL:
        raise TheoremViolationError("at p = 1/2 every entry must be 2^-N")
    if p >= 0.9 and margin <= 0:
        raise TheoremViolationError("diagonal must dominate rows for p near 1")
    return StabilityMatrixReport(
        n=n,
        p=p,
        trace=trace,
        trace_expected=expected,
        symmetric=symmetric,
        diagonal_margin=margin,
        uniform_entry_deviation=uniform_dev,
        uniform_stationary_residual=stationary_resid,
    )
