"""Exponential families on states and conditional families on transitions.

An iid family assigns mass kappa(b) exp(eta(theta) . tau(b) - psi(theta)) to
each state b. A conditional family (CEF) does the same per row with tables
kappa(a, b), tau(a, b); it is Markovian (MEF) when the row log-partitions
psi(a, theta) agree across rows for all theta, in which case the joint law
of a path depends on the path only through the summed transition statistic
and the visited carrier values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    Pmf,
    PermutationFamily,
    StateSpace,
    StochasticMatrix,
    check_dense_budget,
    check_finite,
    distinct_entries,
    magnitude,
    row_blocks,
)
from .errors import NotAnMefError, TheoremViolationError
from .puniform import DETECT_TOL, Trajectory, check_puniform

MEF_REL_TOL = 1e-9
ROW_CONSISTENCY_TOL = 1e-10
AFFINE_RANK_TOL = 1e-10
FD_STEP = 1e-5
FD_TOL = 1e-6
TABLE_ATOL = 1e-12

NATURAL = "natural"
SCALAR_LOG = "scalar_log"
DENSITY_LOGIT = "density_logit"
TABLE = "table"


@dataclass(frozen=True)
class ParameterMap:
    """Parameter function theta -> eta(theta) in R^l.

    Kinds: "natural" (identity on R^l), "scalar_log" (log theta on theta > 0),
    "density_logit" ((n-1) log(p/(1-p)) on 0 < p < 1, needs n), and "table"
    (sampled (theta, eta) pairs, exact lookup: l values per eta, thetas over TABLE_ATOL apart).
    """

    kind: str
    l: int = 1
    n: int = 0
    thetas: tuple = ()
    etas: tuple = ()

    def __post_init__(self):
        if self.kind not in (NATURAL, SCALAR_LOG, DENSITY_LOGIT, TABLE):
            raise ValueError(f"unknown parameter map kind '{self.kind}'")
        if self.l < 1:
            raise ValueError("eta dimension must be >= 1")
        if self.kind in (SCALAR_LOG, DENSITY_LOGIT) and self.l != 1:
            raise ValueError("scalar parameter maps have l = 1")
        if self.kind == DENSITY_LOGIT and self.n < 2:
            raise ValueError("density_logit needs n >= 2")
        if self.kind == TABLE:
            if len(self.thetas) != len(self.etas) or not self.thetas:
                raise ValueError("table map needs matching nonempty samples")
            if any(np.shape(np.atleast_1d(eta)) != (self.l,) for eta in self.etas):
                raise ValueError(f"each table eta must have l = {self.l} values")
            thetas = np.array(self.thetas, dtype=np.float64)
            object.__setattr__(self, "_thetas", thetas.reshape(len(thetas), -1))
            if any(self._hits(th)[:i].any() for i, th in enumerate(self.thetas)):
                raise ValueError(f"table thetas must lie more than {TABLE_ATOL:g} apart")

    def _hits(self, theta) -> np.ndarray:
        """Mask of the table's thetas within TABLE_ATOL of theta in every coordinate."""
        return np.isclose(self._thetas, np.reshape(theta, -1), rtol=0, atol=TABLE_ATOL).all(axis=1)

    def evaluate(self, theta) -> np.ndarray:
        if self.kind == NATURAL:
            eta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
            if eta.shape != (self.l,):
                raise ValueError(f"natural parameter must have shape ({self.l},)")
            if not np.isfinite(eta).all():
                raise ValueError("natural parameter must be finite")
            return eta
        if self.kind == TABLE:
            hits = np.flatnonzero(self._hits(theta))
            if not hits.size:
                raise ValueError("table map evaluated off its sample points")
            return np.atleast_1d(np.asarray(self.etas[hits[0]], dtype=np.float64))
        theta = float(theta)
        if self.kind == SCALAR_LOG:
            if not 0 < theta < np.inf:
                raise ValueError("scalar_log needs finite theta > 0")
            return np.array([np.log(theta)])
        if not 0 < theta < 1:
            raise ValueError("density_logit needs 0 < p < 1")
        return np.array([(self.n - 1) * np.log(theta / (1.0 - theta))])


def default_probes(pm: ParameterMap) -> list:
    """Five (or l+2 if larger) parameter values spread over the domain."""
    if pm.kind == SCALAR_LOG:
        return [0.25, 0.5, 1.0, 2.0, 4.0]
    if pm.kind == DENSITY_LOGIT:
        return [0.1, 0.3, 0.5, 0.7, 0.9]
    if pm.kind == TABLE:
        return list(pm.thetas)
    if pm.l == 1:
        return [-2.0, -1.0, 0.0, 1.0, 2.0]
    probes = [np.zeros(pm.l)]
    probes.extend(np.eye(pm.l))
    probes.append(-np.ones(pm.l))
    k = 2.0
    while len(probes) < 5:
        probes.append(k * np.eye(pm.l)[0])
        k += 1.0
    return probes


def _row_max(logits: np.ndarray) -> np.ndarray:
    """Row maxima of a 2-D array of log weights; +inf or NaN raises."""
    m = logits.max(axis=1)
    if not (m < np.inf).all():
        raise ValueError("the weights overflow the float range at this parameter")
    return m


def _logsumexp_rows(logits: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-D array, max-shifted; a row of all -inf gives -inf.

    With `overwrite`, a float64 `logits` serves as the scratch space and is
    left holding exp(logits - row max), an empty row's max counted as 0.
    """
    m = _row_max(logits)
    m[m == -np.inf] = 0.0
    shifted = np.subtract(logits, m[:, None], out=logits if overwrite else None)
    sums = np.exp(shifted, out=shifted).sum(axis=1)
    with np.errstate(divide="ignore"):
        return m + np.log(sums, out=sums)


def _log_weights(kappa: np.ndarray, tau, eta: np.ndarray, out=None, rows=slice(None)) -> np.ndarray:
    """log kappa + tau . eta over `rows`, written into `out` when given.

    For l = 1 the product is elementwise, which gives the bits of the
    (..., 1) @ (1,) matmul at a fraction of its cost. A CodeTable multiplies
    its value table by eta and gathers the products by code: each entry is
    the IEEE product the dense table would give. The log is taken of the
    carrier's distinct entries only, which the addition broadcasts back.
    IEEE addition commutes, so the bits are those of log kappa + product.
    Overflow is left for _row_max to refuse.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if isinstance(tau, CodeTable):
            # Codes are checked against the value table when it is built, so
            # "clip" never moves one; it only spares np.take a buffered copy.
            out = np.take(tau.values * eta[0], tau.codes[rows], out=out, mode="clip")
        elif eta.size == 1:
            out = np.multiply(tau[rows][..., 0], eta[0], out=out)
        else:
            out = np.matmul(tau[rows], eta, out=out)
        out += np.log(distinct_entries(kappa[rows]))
    return out


@dataclass(frozen=True)
class ExpFamilySpec:
    """Exponential family over the states of one space."""

    space: StateSpace
    kappa: np.ndarray
    tau: np.ndarray
    eta: ParameterMap

    def __post_init__(self):
        kappa = np.ascontiguousarray(self.kappa, dtype=np.float64)
        tau = np.ascontiguousarray(self.tau, dtype=np.float64)
        if tau.ndim == 1:
            tau = tau[:, None]
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "tau", tau)
        size = self.space.size
        if kappa.shape != (size,):
            raise ValueError("kappa must have one entry per state")
        check_finite(kappa, "kappa")
        if kappa.min() < 0 or kappa.max() == 0:
            raise ValueError("kappa must be nonnegative and not identically zero")
        if tau.shape != (size, self.eta.l):
            raise ValueError("tau must be (size, l)")
        check_finite(tau, "tau")


def log_partition(fam: ExpFamilySpec, theta) -> float:
    """psi(theta) = log sum_b kappa(b) exp(eta . tau(b)), max-shifted."""
    return float(_logsumexp_rows(_log_weights(fam.kappa, fam.tau, fam.eta.evaluate(theta))[None, :])[0])


def pmf(fam: ExpFamilySpec, theta) -> Pmf:
    logits = _log_weights(fam.kappa, fam.tau, fam.eta.evaluate(theta))
    return Pmf(np.exp(logits - _logsumexp_rows(logits[None, :])[0]))


def mean_statistic(fam: ExpFamilySpec, theta) -> np.ndarray:
    """E_theta[tau(X)] under the family's pmf."""
    return pmf(fam, theta).p @ fam.tau


def grad_log_partition_fd(fam: ExpFamilySpec, theta) -> np.ndarray:
    """Central differences of psi in theta, step FD_STEP / magnitude(tau): psi^(k) grows as |tau|^k."""
    if fam.eta.kind != NATURAL:
        raise ValueError("finite-difference gradient is defined for the natural kind")
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    step = FD_STEP / magnitude(fam.tau)
    grad = np.empty(fam.eta.l)
    for j in range(fam.eta.l):
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += step
        lo[j] -= step
        grad[j] = (log_partition(fam, hi) - log_partition(fam, lo)) / (2 * step)
    return grad


@dataclass(frozen=True, eq=False)
class CodeTable:
    """A scalar transition statistic held as tau(a, b) = values[codes[a, b]].

    A statistic with few distinct values keeps one small unsigned code per
    transition and one float64 entry per code. It stands in for the (size,
    size, 1) array values[codes][..., None]: shape, ndim and size are that
    array's, indexing returns what indexing it returns, and np.asarray
    realizes it whole.
    """

    codes: np.ndarray   # (size, size), unsigned
    values: np.ndarray  # float64, one entry per code

    ndim = 3

    def __post_init__(self):
        if self.codes.ndim != 2 or self.codes.dtype.kind != "u":
            raise ValueError("codes must be a 2-D array of unsigned integers")
        if self.values.ndim != 1 or self.values.dtype != np.float64:
            raise ValueError("values must be a 1-D float64 array")
        if self.codes.size and self.codes.max() >= self.values.size:
            raise ValueError("every code must index the value table")

    @property
    def shape(self) -> tuple:
        return (*self.codes.shape, 1)

    @property
    def size(self) -> int:
        return self.codes.size

    def __getitem__(self, key):
        return self.values[self.codes[..., None][key]]

    def __array__(self, dtype=None, copy=None):
        return self[...] if dtype is None else self[...].astype(dtype)


@dataclass(frozen=True)
class CefSpec:
    """Conditional exponential family: one exponential family per row.

    tau is a (size, size, l) float64 array, or a CodeTable when l = 1.
    """

    space: StateSpace
    kappa: np.ndarray
    tau: np.ndarray | CodeTable
    eta: ParameterMap

    def __post_init__(self):
        # A read-only view (a broadcast unit carrier) is kept as it is.
        kappa = np.asarray(self.kappa, dtype=np.float64)
        tau = self.tau
        if not isinstance(tau, CodeTable):
            tau = np.ascontiguousarray(tau, dtype=np.float64)
            if tau.ndim == 2:
                tau = tau[:, :, None]
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "tau", tau)
        size = self.space.size
        if kappa.shape != (size, size):
            raise ValueError("kappa must be a (size, size) table")
        check_finite(kappa, "kappa")
        if distinct_entries(kappa).min() < 0:
            raise ValueError("kappa must be nonnegative")
        if tau.shape != (size, size, self.eta.l):
            raise ValueError("tau must be (size, size, l)")
        check_finite(tau.values if isinstance(tau, CodeTable) else tau, "tau")


@dataclass(frozen=True)
class MefSpec(CefSpec):
    """CEF whose rows share one log-partition; see mef_check / as_mef."""

    verified_mef: bool = False


def _row_blocks(cef: CefSpec, theta, out: np.ndarray | None = None):
    """Yield (start, stop, logits) over blocks of rows of the CEF's logits.

    Blocks are core.row_blocks. Their logits are written into
    out[start:stop] when `out` is given, otherwise into one buffer reused
    for every block, which the caller may overwrite before asking for the
    next block.
    """
    eta = cef.eta.evaluate(theta)
    size = cef.space.size
    blocks = row_blocks(size)
    buf = np.empty((blocks[0].stop, size)) if out is None else None
    for rows in blocks:
        logits = buf[: rows.stop - rows.start] if out is None else out[rows]
        yield rows.start, rows.stop, _log_weights(cef.kappa, cef.tau, eta, logits, rows)


def row_log_partitions(cef: CefSpec, theta) -> np.ndarray:
    """psi(a, theta) for every row a, computed one row block at a time.

    Each block's logits are formed, max-shifted and exponentiated in place
    in one reused block buffer, so the survey adds one block of memory
    however many rows the CEF has.
    """
    out = np.empty(cef.space.size)
    for start, stop, logits in _row_blocks(cef, theta):
        out[start:stop] = _logsumexp_rows(logits, overwrite=True)
    return out


def cef_transition_matrix(cef: CefSpec, theta) -> StochasticMatrix:
    """Realize the transition matrix P_theta(a, b) by row-wise normalization."""
    size = cef.space.size
    check_dense_budget(size, "the transition matrix")
    P = np.empty((size, size))
    for start, stop, logits in _row_blocks(cef, theta, out=P):
        psi = _logsumexp_rows(logits)
        if np.isneginf(psi).any():
            raise ValueError(f"row {start + int(np.argmax(np.isneginf(psi)))} has no mass (kappa identically zero)")
        logits -= psi[:, None]
        np.exp(logits, out=logits)
    return StochasticMatrix(P=P)


def _row0_gaps(cef: CefSpec, probes):
    """psi(a, theta) at every probe and each row's gap from row 0, as (probes, rows) arrays.

    The gap is |psi - psi0| / max(1, |psi0|). Equal values, both -inf for rows
    without mass included, are 0 apart; a gap that would be NaN is infinitely far.
    """
    psi = np.empty((len(probes), cef.space.size))
    for i, theta in enumerate(probes):
        psi[i] = row_log_partitions(cef, theta)
    ref = psi[:, :1]
    with np.errstate(invalid="ignore"):
        rel = np.abs(psi - ref) / np.maximum(1.0, np.abs(ref))
    rel[psi == ref] = 0.0
    rel[np.isnan(rel)] = np.inf
    return psi, rel


@dataclass(frozen=True)
class CefValidation:
    """Per-row normalizer survey across parameter probes."""

    probes: tuple
    raw_sums: np.ndarray            # (num_probes, size), exp(psi(a, theta)); reported only
    zero_rows: np.ndarray           # rows whose kappa vanishes identically
    shared_normalizer: np.ndarray   # per probe: rows agree within rel tol
    worst_rel_spread: float         # mef_check's worst_rel_dev
    mismatched_rows: tuple          # rows deviating from row 0 at some probe


def validate_cef(cef: CefSpec, probes=None) -> CefValidation:
    """Survey row normalizers; flags rows that break the shared-psi property.

    Rows are compared through psi by mef_check's rule. Rows with identically
    zero kappa are reported rather than raised, since a CEF stays well
    defined on the remaining rows.
    """
    if probes is None:
        probes = default_probes(cef.eta)
    psi, rel = _row0_gaps(cef, probes)
    row_max = distinct_entries(cef.kappa).max(axis=1)  # one per row once broadcast back
    bad = ~(rel <= MEF_REL_TOL)
    with np.errstate(over="ignore"):
        raw = np.exp(psi)
    return CefValidation(
        probes=tuple(probes),
        raw_sums=raw,
        zero_rows=np.flatnonzero(np.broadcast_to(row_max, cef.space.size) == 0),
        shared_normalizer=~bad.any(axis=1),
        worst_rel_spread=float(rel.max(initial=0.0)),
        mismatched_rows=tuple(int(b) for b in np.flatnonzero(bad.any(axis=0))),
    )


class MefCheckResult(NamedTuple):
    ok: bool
    worst_rel_dev: float
    probe: object
    row: int


def mef_check(cef: CefSpec, probes=None) -> MefCheckResult:
    """Do all row log-partitions agree within MEF_REL_TOL (relative) at every probe?"""
    if probes is None:
        probes = default_probes(cef.eta)
    rel = _row0_gaps(cef, probes)[1]
    worst = float(rel.max(initial=0.0))
    # The first row at the first probe holding the worst gap; none: (None, 0).
    k, row = divmod(int(np.argmax(rel)), rel.shape[1]) if worst else (None, 0)
    return MefCheckResult(ok=worst <= MEF_REL_TOL, worst_rel_dev=worst, probe=None if k is None else probes[k], row=row)


def as_mef(cef: CefSpec) -> MefSpec:
    """Promote a CEF to a verified MEF at the default probes, or raise with the offending row."""
    res = mef_check(cef)
    if not res.ok:
        raise NotAnMefError(
            f"row {res.row} log-partition deviates by {res.worst_rel_dev:.3e} "
            f"(relative) at theta = {res.probe!r}"
        )
    return MefSpec(space=cef.space, kappa=cef.kappa, tau=cef.tau, eta=cef.eta, verified_mef=True)


def gani_row_value_sets(cef: CefSpec, tol: float = MEF_REL_TOL):
    """Per-row sets of scalar statistic values, and whether all rows agree.

    A scalar MEF with some nonzero eta value needs every row of tau to take
    the same set of values, so unequal sets certify non-MEF for l = 1.
    Values within tol * magnitude(tau), tol at tau's scale, collapse to one representative.
    """
    if cef.eta.l != 1:
        raise ValueError("row value sets are defined for scalar statistics")
    scale = magnitude(cef.tau.values if isinstance(cef.tau, CodeTable) else cef.tau)
    sets = []
    for a in range(cef.space.size):
        # Repeated values never start a new representative, so the greedy
        # collapse runs over each row's distinct values only. One row is
        # read at a time, so a CodeTable is never realized whole.
        vals = np.unique(cef.tau[a, :, 0])
        keep = [vals[0]]
        for v in vals[1:]:
            if v - keep[-1] > tol * scale:
                keep.append(v)
        sets.append(np.array(keep))
    equal = all(
        s.size == sets[0].size and np.abs(s - sets[0]).max() <= tol * scale for s in sets[1:]
    )
    return sets, equal


def transition_counts(x: Trajectory) -> np.ndarray:
    """Matrix N with N[a, b] = number of a -> b steps in the path."""
    size = x.space.size
    check_dense_budget(size, "the transition count matrix")
    N = np.zeros((size, size), dtype=np.int64)
    np.add.at(N, (x.states[:-1], x.states[1:]), 1)
    return N


class JointLogPmf(NamedTuple):
    value: float
    impossible: bool


def joint_log_pmf_from_counts(P: StochasticMatrix, N: np.ndarray) -> JointLogPmf:
    """sum_{a,b} N(a,b) log P(a,b) with the 0 log 0 := 0 convention.

    A positive count on a zero transition probability marks the path
    impossible and returns the -inf sentinel instead of raising.
    """
    N = np.asarray(N)
    mask = N > 0
    probs = P.P[mask]
    if np.any(probs == 0):
        return JointLogPmf(value=-np.inf, impossible=True)
    return JointLogPmf(value=float((N[mask] * np.log(probs)).sum()), impossible=False)


def mef_joint_log_pmf(mef: MefSpec, theta, x: Trajectory) -> JointLogPmf:
    """Joint log law of a path under a verified MEF.

    eta . (summed transition statistic) - T psi + summed log carrier, with
    psi the shared row log-partition. Zero carrier on a visited transition
    returns the -inf sentinel with the impossible flag.
    """
    if not mef.verified_mef:
        raise NotAnMefError("run mef_check / as_mef before evaluating joint laws")
    eta = mef.eta.evaluate(theta)
    a, b = x.states[:-1], x.states[1:]
    kap = mef.kappa[a, b]
    if np.any(kap == 0):
        return JointLogPmf(value=-np.inf, impossible=True)
    stat = mef.tau[a, b].sum(axis=0) if a.size else np.zeros(mef.eta.l)
    psi = float(row_log_partitions(mef, theta)[0])
    value = float(eta @ stat - x.transitions * psi + np.log(kap).sum())
    return JointLogPmf(value=value, impossible=False)


@dataclass(frozen=True)
class MeanParameter:
    value: np.ndarray     # shared row expectation of tau
    per_row: np.ndarray   # (size, l) table of row expectations
    fd_gradient: np.ndarray | None = None


def mean_parameter(mef: MefSpec, theta) -> MeanParameter:
    """E[tau(X_i, X_{i+1})], identical across source states for an MEF.

    For the natural parameter kind the value is cross-checked against the
    finite-difference gradient of the shared log-partition; a mismatch is an
    internal failure, not a data condition.
    """
    if not mef.verified_mef:
        raise NotAnMefError("run mef_check / as_mef before taking mean parameters")
    P = cef_transition_matrix(mef, theta).P
    per_row = np.einsum("ab,abl->al", P, mef.tau)
    spread = np.abs(per_row - per_row[0]).max()
    if not spread <= ROW_CONSISTENCY_TOL * magnitude(per_row[0]):
        raise NotAnMefError(f"row expectations spread {spread:.3e}, not an MEF")
    value = per_row[0].copy()
    fd = None
    if mef.eta.kind == NATURAL:
        fam = ExpFamilySpec(
            space=mef.space, kappa=mef.kappa[0], tau=mef.tau[0], eta=mef.eta
        )
        fd = grad_log_partition_fd(fam, theta)
        if not np.abs(fd - value).max() <= FD_TOL * magnitude(value):
            raise TheoremViolationError(
                "finite-difference gradient disagrees with the mean parameter"
            )
    return MeanParameter(value=value, per_row=per_row, fd_gradient=fd)


def puniform_cef_to_expfam(cef: CefSpec, fam: PermutationFamily) -> ExpFamilySpec:
    """Collapse a p-uniform CEF to the iid family of its relabelled targets.

    kappa'(c) = kappa(a, sigma_a^-1(c)) and likewise for tau, which must not
    depend on a. The CEF is refused exactly when kappa_tau_puniformity at the default
    probes reports a failure: a realized matrix first, since the exponent can amplify a
    tau deviation the table check lets through, then kappa or a tau coordinate.
    """
    rep = kappa_tau_puniformity(cef, fam)
    if rep.matrix_violation is not None:
        theta, triple = rep.matrix_violation
        raise ValueError(f"realized matrix is not p-uniform at theta={theta!r}: {triple}")
    if not (rep.kappa_puniform and all(rep.tau_puniform)):
        raise ValueError("rows disagree after relabelling; tables are not p-uniform")
    inv = fam.unapply(0, np.arange(fam.size))
    return ExpFamilySpec(space=cef.space, kappa=cef.kappa[0, inv].copy(), tau=cef.tau[0, inv].copy(), eta=cef.eta)


def _table_puniformity(cef: CefSpec, fam: PermutationFamily, tol: float):
    """The flags of check_puniform on kappa over its largest entry, since a carrier's p-uniformity
    does not depend on its scale, and on each tau coordinate; then kappa's violation."""
    top = distinct_entries(cef.kappa).max()
    kappa_ok, kappa_bad = check_puniform(cef.kappa if top in (0, 1) else cef.kappa / top, fam, tol)
    return (kappa_ok, *(check_puniform(cef.tau[:, :, j], fam, tol)[0] for j in range(cef.eta.l))), kappa_bad


def expfam_to_mef(fam: ExpFamilySpec, perm: PermutationFamily) -> MefSpec:
    """Spread an iid family along a permutation family into an MEF.

    kappa'(a, b) = kappa(sigma_a(b)) and likewise for tau; every row then
    shares the iid family's partition function, which mef_check re-verifies.
    """
    if perm.size != fam.space.size:
        raise ValueError("permutation family does not match the state space")
    kappa, tau = (perm.spread(table, "the MEF tables") for table in (fam.kappa, fam.tau))
    return as_mef(CefSpec(space=fam.space, kappa=kappa, tau=tau, eta=fam.eta))


def affinely_independent_entries(eta_samples: np.ndarray) -> bool:
    """Are the coordinates of eta affinely independent over these samples?

    Tests whether delta . eta = h can hold with (delta, h) != 0 by ranking
    the differences v_i - v_0; needs at least l+1 samples to certify.
    """
    samples = np.atleast_2d(np.asarray(eta_samples, dtype=np.float64))
    k, l = samples.shape
    if k < l + 1:
        return False
    diffs = samples[1:] - samples[0]
    s = np.linalg.svd(diffs, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return l == 0
    return int((s > AFFINE_RANK_TOL * s[0]).sum()) == l


@dataclass(frozen=True)
class PuniformityReport:
    kappa_puniform: bool
    tau_puniform: tuple
    matrix_puniform: tuple
    kappa_positive: bool
    eta_affinely_independent: bool
    kappa_violation: tuple | None = None
    matrix_violation: tuple | None = None  # (theta, (a, b, c)) at the first failing probe


def kappa_tau_puniformity(cef: CefSpec, perm: PermutationFamily, probes=None) -> PuniformityReport:
    """Check p-uniformity of the ingredient tables and the realized matrices.

    When kappa and every tau coordinate are exactly p-uniform under `perm`, every realized
    matrix must be too; that implication failing raises. Tables p-uniform only within
    DETECT_TOL need not realize p-uniform matrices: the exponent scales a tau deviation by theta.
    """
    if probes is None:
        probes = default_probes(cef.eta)
    (kappa_ok, *tau_ok), kappa_bad = _table_puniformity(cef, perm, DETECT_TOL)
    matrix = [check_puniform(cef_transition_matrix(cef, theta), perm) for theta in probes]
    matrix_ok = tuple(ok for ok, _ in matrix)
    if not all(matrix_ok) and all(_table_puniformity(cef, perm, 0.0)[0]):
        raise TheoremViolationError("p-uniform kappa and tau must realize p-uniform matrices")
    eta_samples = np.array([cef.eta.evaluate(theta) for theta in probes])
    return PuniformityReport(
        kappa_puniform=kappa_ok,
        tau_puniform=tuple(tau_ok),
        matrix_puniform=matrix_ok,
        kappa_positive=bool(distinct_entries(cef.kappa).min() > 0),
        eta_affinely_independent=affinely_independent_entries(eta_samples),
        kappa_violation=kappa_bad,
        matrix_violation=next(((theta, bad) for theta, (_, bad) in zip(probes, matrix) if bad), None),
    )
