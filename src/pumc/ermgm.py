"""Dyadically independent exponential-family multigraph models.

A model assigns each dyad f an exponential family over multiplicities
0..t with statistic table tau_f and carrier kappa_f, sharing one parameter
function eta. Dyadic independence makes the partition function a product of
per-dyad sums (N(t+1) terms instead of (t+1)^N), sampling a per-dyad
inverse-CDF draw, and unions of iid simple-graph draws again a model of the
same kind. Sampling and to_expfam work one block of draws or states at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .core import (
    BLOCK_ENTRIES,
    DENSE_ENTRY_CAP,
    Multigraph,
    Pmf,
    StateSpace,
    build_multigraph_space,
    num_dyads,
)
from .expfam import (
    ExpFamilySpec,
    ParameterMap,
    _log_weights,
    _logsumexp_rows,
    _row_max,
    affinely_independent_entries,
    default_probes,
)
from .netstat import DyadicFactorization, _dyadic_rebuild, _rebuild_states, edge_stat_counts
from .puniform import Trajectory
from .rng import inverse_cdf, stream

# Rows per sample_blocks block, whatever the dyads, so the per-dyad calls per draw stay flat: 4096
# rows keep `pumc sample`'s traced peak near 3 MiB on G(5, 2) and 8 MiB on G(12, 2).
SAMPLE_ROWS = BLOCK_ENTRIES // 32


@dataclass(frozen=True)
class ErmgmModel:
    """Dyadically independent model on G(n, t); a kappa_f of None is the unit carrier."""

    n: int
    t: int
    tau_f: np.ndarray          # (num_dyads, t+1, l)
    kappa_f: np.ndarray | None  # (num_dyads, t+1)
    eta: ParameterMap

    def __post_init__(self):
        fact = DyadicFactorization(n=self.n, t=self.t, tau_f=self.tau_f, kappa_f=self.kappa_f)
        if fact.tau_f is None:
            raise ValueError("factorization must carry statistic tables")
        if fact.tau_f.shape[2:] != (self.eta.l,):
            raise ValueError("tau_f must be (num_dyads, t+1, l)")
        kappa_f = np.ones(fact.tau_f.shape[:2]) if fact.kappa_f is None else fact.kappa_f
        if (kappa_f.max(axis=1) == 0).any():
            raise ValueError("each dyad needs nonnegative, not identically zero carrier")
        object.__setattr__(self, "tau_f", fact.tau_f)
        object.__setattr__(self, "kappa_f", kappa_f)

    @property
    def num_dyads(self) -> int:
        return num_dyads(self.n)

    def space(self) -> StateSpace:
        return build_multigraph_space(self.n, self.t)


def from_factorization(fact: DyadicFactorization, eta: ParameterMap) -> ErmgmModel:
    """Assemble a model from factored tables; missing carrier defaults to 1."""
    return ErmgmModel(n=fact.n, t=fact.t, tau_f=fact.tau_f, kappa_f=fact.kappa_f, eta=eta)


def _dyad_log_weights(model: ErmgmModel, theta) -> np.ndarray:
    """(num_dyads, t+1) table of log kappa_f(m) + eta . tau_f(m).

    Every dyad has a positive carrier entry, so a dyad whose weights are all
    -inf can only have overflowed; it raises as _row_max does for +inf.
    """
    logw = _log_weights(model.kappa_f, model.tau_f, model.eta.evaluate(theta))
    if (logw.max(axis=1) == -np.inf).any():
        raise ValueError("the weights overflow the float range at this parameter")
    return logw


def dyad_pmf(model: ErmgmModel, theta, f: int) -> Pmf:
    """Law of the multiplicity of dyad f."""
    if not 0 <= f < model.num_dyads:
        raise ValueError("dyad index out of range")
    return Pmf(_dyad_pmf_table(model, theta)[f])


def _dyad_pmf_table(model: ErmgmModel, theta) -> np.ndarray:
    """(num_dyads, t+1) table of per-dyad multiplicity laws."""
    logw = _dyad_log_weights(model, theta)
    w = np.exp(logw - _row_max(logw)[:, None])
    return w / w.sum(axis=1, keepdims=True)


class InstrumentedLogPartition(NamedTuple):
    value: float
    terms: int


def fast_log_partition(model: ErmgmModel, theta) -> float:
    """log of the partition function, summing t+1 terms per dyad; a total past the float range raises."""
    with np.errstate(over="ignore"):
        total = float(_logsumexp_rows(_dyad_log_weights(model, theta)).sum())
    if not np.isfinite(total):
        raise ValueError("the log partition overflows the float range at this parameter")
    return total


def fast_log_partition_instrumented(model: ErmgmModel, theta) -> InstrumentedLogPartition:
    """Product-form log partition with the number of summands it touches."""
    return InstrumentedLogPartition(
        value=fast_log_partition(model, theta), terms=model.num_dyads * (model.t + 1)
    )


def to_expfam(model: ErmgmModel) -> ExpFamilySpec:
    """Materialize the model as a per-state family over the whole space, one row block of states at a time."""
    space = model.space()
    tau = _rebuild_states(space, model.tau_f, np.add, np.arange(space.size), "tau")
    kappa = _rebuild_states(space, model.kappa_f, np.multiply, np.arange(space.size), "kappa")
    return ExpFamilySpec(space=space, kappa=kappa, tau=tau, eta=model.eta)


def multigraph_log_pmf(model: ErmgmModel, theta, w: Multigraph) -> float:
    """Log mass of one multigraph; -inf only when it hits a zero-carrier count."""
    if w.n != model.n or w.t != model.t:
        raise ValueError("multigraph does not belong to this model's space")
    logw = _dyad_log_weights(model, theta)
    value = float(_dyadic_rebuild(logw - _logsumexp_rows(logw)[:, None], w.counts, np.add))
    if value == -np.inf and (model.kappa_f[np.arange(model.num_dyads), w.counts] > 0).all():
        raise ValueError("the log mass overflows the float range at this parameter")
    return value


def sample_multigraphs(model: ErmgmModel, theta, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Draw `count` multigraphs as a (count, num_dyads) multiplicity array, or only its rows
    start..count-1.

    Dyad f consumes draws from the (seed, f) stream, one step per sample, so any dyad subset
    can be regenerated independently, and any row range alone: sample_blocks draws in blocks.
    """
    cap = DENSE_ENTRY_CAP // max(model.num_dyads, 1)
    if not 0 <= count <= cap:
        raise ValueError(f"count must lie in 0..{cap}")
    if not 0 <= start <= count:
        raise ValueError(f"start must lie in 0..{count}")
    out = np.empty((count - start, model.num_dyads), dtype=np.int64)
    for f, probs in enumerate(_dyad_pmf_table(model, theta)):
        out[:, f] = inverse_cdf(np.cumsum(probs), stream(seed, f, start=start).random(count - start))
    return out


def sample_blocks(model: ErmgmModel, theta, count: int, seed: int):
    """The rows of sample_multigraphs(model, theta, count, seed), SAMPLE_ROWS at a time. Its
    checks of count, theta and seed run at the call, by an empty draw from row count."""
    sample_multigraphs(model, theta, count, seed, start=count)
    return (sample_multigraphs(model, theta, min(start + SAMPLE_ROWS, count), seed, start)
            for start in range(0, count, SAMPLE_ROWS))


def _union_model(model: ErmgmModel, t: int) -> ErmgmModel:
    """The law of W = Z_1 + .. + Z_t, t iid draws of a simple-graph model.

    W is again dyadically independent on G(n, t), with the same parameter
    function, statistic tau_f(m) = m tau_f(1) + (t - m) tau_f(0) and carrier
    kappa_f(m) = C(t, m) kappa_f(1)^m kappa_f(0)^(t - m).
    """
    if model.t != 1:
        raise ValueError("union law needs a simple-graph model")
    if t < 1:
        raise ValueError("need at least one draw")
    m = np.arange(t + 1, dtype=np.float64)
    binom = np.array([comb(t, k) for k in range(t + 1)], dtype=np.float64)
    k0, k1 = model.kappa_f[:, 0:1], model.kappa_f[:, 1:2]
    with np.errstate(over="ignore", invalid="ignore"):  # ErmgmModel refuses a non-finite table
        tau_f = m[None, :, None] * model.tau_f[:, 1:2] + (t - m)[None, :, None] * model.tau_f[:, 0:1]
        kappa_f = binom * k1 ** m * k0 ** (t - m)
    # k1 ** m is 0 only for k1 = 0 < m, and k0 ** (t - m) only for k0 = 0 < t - m; any other 0 underflowed.
    if ((kappa_f == 0) & ((k1 > 0) | (m == 0)) & ((k0 > 0) | (m == t))).any():
        raise ValueError("the union carrier underflows the float range")
    return ErmgmModel(n=model.n, t=t, tau_f=tau_f, kappa_f=kappa_f, eta=model.eta)


def union_log_probability(model: ErmgmModel, theta, t: int, w: Multigraph) -> float:
    """Log mass of w in G(n, t) as a union of t iid simple-graph draws from the model."""
    return multigraph_log_pmf(_union_model(model, t), theta, w)


@dataclass(frozen=True)
class UnionFamily:
    """Exponential family of the t-fold union, with the eta hypothesis flag."""

    family: ExpFamilySpec
    eta_affinely_independent: bool


def union_expfam(model: ErmgmModel, t: int) -> UnionFamily:
    """Exponential family of W = Z_1 + .. + Z_t on G(n, t).

    The union of t draws is again a dyadic model with the same parameter
    function, materialized over G(n, t). Whether eta's entries look
    affinely independent over the default probes is recorded, not enforced.
    """
    fam = to_expfam(_union_model(model, t))
    probes = default_probes(model.eta)
    samples = np.array([model.eta.evaluate(th) for th in probes])
    return UnionFamily(family=fam, eta_affinely_independent=affinely_independent_entries(samples))


@dataclass(frozen=True)
class MleEstimate:
    p_hat: float
    boundary: bool
    transitions: int
    stat_sum: float


def mle_density_stability(x: Trajectory, kind: str) -> MleEstimate:
    """Closed-form MLE of p from a density or stability chain path.

    p_hat = (n-1) / (T N) * sum_i tau(x_i, x_{i+1}), the on-fraction of the
    T*N per-step dyad draws. Boundary estimates (0 or 1) are flagged, since
    the logit parameter diverges there; the estimate is not clamped.
    """
    space = x.space
    if x.transitions < 1:
        raise ValueError("need at least one transition")
    per_step = edge_stat_counts(space, kind, x.states[:-1], x.states[1:])
    stat_sum = float(per_step.sum()) / (space.n - 1)
    p_hat = (space.n - 1) * stat_sum / (x.transitions * num_dyads(space.n))
    return MleEstimate(
        p_hat=p_hat,
        boundary=p_hat in (0.0, 1.0),
        transitions=x.transitions,
        stat_sum=stat_sum,
    )
