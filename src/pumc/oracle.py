"""Exhaustive brute-force references.

Everything here enumerates outcomes directly with plain Python loops and
exactly-rounded accumulation (math.fsum), deliberately avoiding the fast
paths it exists to validate: trajectory laws multiply row entries step by
step, partition functions sum over whole state spaces, union laws walk
every tuple of simple graphs, and the density and stability statistics are
counted on one pair of graphs at a time. Budgets cap enumeration at 2^20
outcomes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import exp, fsum, log

import numpy as np

from .core import Multigraph, PermutationFamily, Pmf, StochasticMatrix, build_multigraph_space, dyad_count_table
from .errors import EnumerationCapError
from .expfam import ExpFamilySpec
from .ermgm import ErmgmModel, to_expfam
from .netstat import _require_simple

ENUM_CAP = 2 ** 20


@dataclass(frozen=True)
class ExactLaw:
    """Finite law as parallel outcome/mass sequences; masses fsum to 1."""

    outcomes: tuple
    mass: np.ndarray

    def __post_init__(self):
        mass = np.ascontiguousarray(self.mass, dtype=np.float64)
        object.__setattr__(self, "mass", mass)
        if len(self.outcomes) != mass.size:
            raise ValueError("outcomes and masses must align")
        if mass.size and abs(fsum(mass.tolist()) - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1 within 1e-12")

    def prob(self, outcome) -> float:
        try:
            return float(self.mass[self.outcomes.index(outcome)])
        except ValueError:
            return 0.0


def _check_cap(count: int):
    if count > ENUM_CAP:
        raise EnumerationCapError(f"{count} outcomes exceed the cap of {ENUM_CAP}")


def enumerate_trajectory_law(P: StochasticMatrix, x0: int, steps: int) -> ExactLaw:
    """Exact law of (X_1, .., X_steps) given X_0 = x0, by full enumeration."""
    size = P.size
    if not 0 <= x0 < size:
        raise ValueError("x0 out of range")
    if steps < 1:
        raise ValueError("need at least one step")
    _check_cap(size ** steps)
    table = P.P
    outcomes = []
    masses = []
    for path in itertools.product(range(size), repeat=steps):
        prob = 1.0
        prev = x0
        for state in path:
            prob *= table[prev, state]
            prev = state
        outcomes.append(path)
        masses.append(prob)
    return ExactLaw(outcomes=tuple(outcomes), mass=np.array(masses))


def pushforward_z_law(P: StochasticMatrix, fam: PermutationFamily, x0: int, steps: int) -> ExactLaw:
    """Exact law of (Z_1, .., Z_steps) where Z_{i+1} = sigma_{X_i}(X_{i+1}).

    Every path of enumerate_trajectory_law is relabelled step by step through
    the sigma table, and masses landing on the same z-tuple are combined with fsum.
    """
    law = enumerate_trajectory_law(P, x0, steps)
    sigma = fam.sigma
    buckets: dict[tuple, list] = {}
    for path, prob in zip(law.outcomes, law.mass.tolist()):
        zs = tuple(int(sigma[a, b]) for a, b in zip((x0,) + path, path))
        buckets.setdefault(zs, []).append(prob)
    outcomes = tuple(sorted(buckets))
    masses = np.array([fsum(buckets[z]) for z in outcomes])
    return ExactLaw(outcomes=outcomes, mass=masses)


def product_law(mu: Pmf, steps: int) -> ExactLaw:
    """The iid law mu^(x)steps over tuples, enumerated directly."""
    if steps < 1:
        raise ValueError("need at least one step")
    _check_cap(mu.size ** steps)
    outcomes = []
    masses = []
    for tup in itertools.product(range(mu.size), repeat=steps):
        prob = 1.0
        for z in tup:
            prob *= mu.p[z]
        outcomes.append(tup)
        masses.append(prob)
    return ExactLaw(outcomes=tuple(outcomes), mass=np.array(masses))


def max_product_deviation(law: ExactLaw, steps: int, size: int) -> float:
    """Largest entrywise gap between a tuple law and its own marginal product.

    Zero exactly when the coordinates are independent; used as the
    factorization residual for negative controls.
    """
    marginals = np.zeros((steps, size))
    for tup, m in zip(law.outcomes, law.mass):
        for i, z in enumerate(tup):
            marginals[i, z] += m
    worst = 0.0
    for tup, m in zip(law.outcomes, law.mass):
        prod = 1.0
        for i, z in enumerate(tup):
            prod *= marginals[i, z]
        worst = max(worst, abs(float(m) - prod))
    return worst


def brute_partition(fam: ExpFamilySpec, theta) -> float:
    """log partition by direct max-shifted summation over every state."""
    eta = fam.eta.evaluate(theta)
    exponents = []
    for b in range(fam.space.size):
        k = float(fam.kappa[b])
        if k == 0:
            continue
        exponents.append(float(eta @ fam.tau[b]) + log(k))
    if not exponents:
        raise ValueError("family has no mass anywhere")
    m = max(exponents)
    return m + log(fsum(exp(e - m) for e in exponents))


def brute_union_fibres(model: ErmgmModel, theta, t: int) -> dict:
    """Per-union lists of sequence masses and log masses.

    Enumerates every t-tuple of simple graphs, scoring each by the fully
    materialized per-state pmf (no per-dyad shortcuts), and groups by the
    encoded union in G(n, t). Keys are union state indices; values are
    (masses, log_masses) arrays over the fibre.
    """
    if model.t != 1:
        raise ValueError("union law needs a simple-graph model")
    if t < 1:
        raise ValueError("need at least one draw")
    simple = to_expfam(model)
    size = simple.space.size
    _check_cap(size ** t)
    eta = model.eta.evaluate(theta)
    psi = brute_partition(simple, theta)
    log_mu = []
    for b in range(size):
        k = float(simple.kappa[b])
        log_mu.append(float(eta @ simple.tau[b]) + log(k) - psi if k > 0 else float("-inf"))
    digits = dyad_count_table(simple.space)
    union_space = build_multigraph_space(model.n, t)
    powers = (t + 1) ** np.arange(digits.shape[1], dtype=np.int64)
    buckets: dict[int, list] = {}
    for tup in itertools.product(range(size), repeat=t):
        logp = fsum(log_mu[z] for z in tup)
        u_idx = int((digits[list(tup)].sum(axis=0) * powers).sum())
        buckets.setdefault(u_idx, []).append(logp)
    assert union_space.size >= len(buckets)
    return {
        u: (np.exp(np.array(logs)), np.array(logs)) for u, logs in sorted(buckets.items())
    }


def brute_union_law(model: ErmgmModel, theta, t: int) -> ExactLaw:
    """Exact law of the t-fold union, indexed by union state in G(n, t)."""
    fibres = brute_union_fibres(model, theta, t)
    union_space = build_multigraph_space(model.n, t)
    outcomes = tuple(range(union_space.size))
    masses = np.zeros(union_space.size)
    for u, (mass, _) in fibres.items():
        masses[u] = fsum(mass.tolist())
    return ExactLaw(outcomes=outcomes, mass=masses)


def stat_density(a: Multigraph, b: Multigraph) -> float:
    """Edge count of the target over n - 1; ignores the source."""
    _require_simple(b, "density")
    if b.n < 2:
        raise ValueError("density needs n >= 2")
    return b.total_multiplicity() / (b.n - 1)


def stat_stability(a: Multigraph, b: Multigraph) -> float:
    """Edges of complement(a xor b) over n - 1: dyads where b agrees with a."""
    _require_simple(a, "stability")
    _require_simple(b, "stability")
    if a.n != b.n or a.n < 2:
        raise ValueError("stability needs matching n >= 2")
    agree = int((a.counts == b.counts).sum())
    return agree / (a.n - 1)
