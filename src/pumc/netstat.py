"""Network statistics, dyadic structure, and exchangeability machinery.

Transition statistics take a source graph a and target graph b; several of
them ignore a. Dyadditive statistics split into one table per dyad, and
dyadically multiplicative carriers factor the same way in the product sense;
both factorizations use the empty graph as base point, splitting its value
evenly across dyads so the components reassemble exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    MULTIGRAPH,
    Multigraph,
    PermutationFamily,
    Pmf,
    StateSpace,
    StochasticMatrix,
    builtin_family,
    canonical_dyads,
    check_finite,
    dyad_count_table,
    dyad_counts,
    dyad_index,
    edge_total_table,
    num_dyads,
    place_values,
)
from .errors import TheoremViolationError
from .puniform import check_triple
from .rng import stream

RECONSTRUCTION_TOL = 1e-10
EXCHANGE_TOL = 1e-12
ISO_MAX_N = 8
DEFAULT_PROBE_BUDGET = 1000


def _require_simple(g: Multigraph, name: str):
    if g.t != 1:
        raise ValueError(f"{name} is defined on simple graphs (t = 1)")


def stat_reciprocity(a: np.ndarray, b: np.ndarray) -> float:
    """n * (reciprocated weight of b against a) / (arc count of a), 0/0 -> 0.

    Inputs are 0/1 adjacency matrices of directed graphs, shape (n, n).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need two square adjacency matrices of equal size")
    n = a.shape[0]
    denom = int(a.sum())
    if denom == 0:
        return 0.0
    return n * float((b.T * a).sum()) / denom


@lru_cache(maxsize=None)
def _two_paths(n: int) -> tuple:
    """Dyad indices (ij, jk, ik) of each two-path i - j - k, i < j < k, and its closing dyad."""
    return tuple((dyad_index(i, j), dyad_index(j, k), dyad_index(i, k))
                 for i, j, k in itertools.combinations(range(n), 3))


def stat_transitivity(a: Multigraph, b: Multigraph) -> float:
    """Closed two-paths of a in b over two-paths of a, scaled by n; 0/0 -> 0.

    Two-paths run i - j - k over vertex triples i < j < k with j the middle
    vertex; the closing edge is {i, k}.
    """
    _require_simple(a, "transitivity")
    _require_simple(b, "transitivity")
    n = a.n
    if a.n != b.n or n < 3:
        raise ValueError("transitivity needs matching n >= 3")
    num = 0
    den = 0
    ac, bc = a.counts.tolist(), b.counts.tolist()
    for ij, jk, ik in _two_paths(n):
        path = ac[ij] * ac[jk]
        den += path
        num += path * bc[ik]
    if den == 0:
        return 0.0
    return n * num / den


def _dyad_incidence(n: int) -> np.ndarray:
    """(num_dyads, n) 0/1 matrix: dyad f touches vertices u and v."""
    inc = np.zeros((num_dyads(n), n), dtype=np.int64)
    for f, (u, v) in enumerate(canonical_dyads(n)):
        inc[f, u] = inc[f, v] = 1
    return inc


def degree_sequence(g: Multigraph) -> np.ndarray:
    """Multiplicity-weighted degree of each vertex."""
    return g.counts @ _dyad_incidence(g.n)


def sorted_degree_sequence(g: Multigraph) -> tuple:
    return tuple(sorted(degree_sequence(g).tolist()))


def sorted_degree_table(space: StateSpace) -> np.ndarray:
    """(size, n) table; row b is the sorted degree sequence of state b."""
    if space.kind != MULTIGRAPH:
        raise ValueError("degree sequences need a multigraph space")
    return np.sort(dyad_count_table(space) @ _dyad_incidence(space.n), axis=1)


# Both statistics count the edges of sigma_a(b): of b under the identity, of
# complement(a xor b), the dyads where b agrees with a, under stability.
EDGE_STAT_FAMILY = {"density": "identity", "stability": "stability"}


def _edge_stat_family(space: StateSpace, kind: str) -> PermutationFamily:
    if space.kind != MULTIGRAPH or space.t != 1 or space.n < 2:
        raise ValueError(f"{kind} needs a simple-graph space with n >= 2")
    if kind not in EDGE_STAT_FAMILY:
        raise ValueError("kind must be 'density' or 'stability'")
    return builtin_family(space, EDGE_STAT_FAMILY[kind])


def edge_stat_counts(space: StateSpace, kind: str, source, target) -> np.ndarray:
    """Edge counts of sigma_a(b) behind the density and stability statistics.

    `source` and `target` are broadcastable arrays of state indices; the
    statistic is the count over n - 1.
    """
    fam = _edge_stat_family(space, kind)
    return edge_total_table(space)[fam.apply(source, target)]


def _edge_stat_table(space: StateSpace, kind: str) -> np.ndarray:
    counts = _edge_stat_family(space, kind).spread(edge_total_table(space), f"the {kind} statistic table")
    return counts / (space.n - 1)


def density_stat_table(space: StateSpace) -> np.ndarray:
    """Transition table of the density statistic: rows constant in the source."""
    return _edge_stat_table(space, "density")


def stability_stat_table(space: StateSpace) -> np.ndarray:
    """Transition table of the stability statistic: dyads outside a xor b."""
    return _edge_stat_table(space, "stability")


@dataclass(frozen=True)
class DyadicFactorization:
    """Per-dyad tables; tau_f is (N, t+1, l), kappa_f is (N, t+1)."""

    n: int
    t: int
    tau_f: np.ndarray | None = None
    kappa_f: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1 or self.t < 0:
            raise ValueError("need n >= 1 and t >= 0")
        nd = num_dyads(self.n)
        if self.tau_f is not None:
            tau_f = np.ascontiguousarray(self.tau_f, dtype=np.float64)
            if tau_f.ndim == 2:
                tau_f = tau_f[:, :, None]
            if tau_f.shape[:2] != (nd, self.t + 1):
                raise ValueError("tau_f must be (num_dyads, t+1, l)")
            check_finite(tau_f, "tau_f")
            object.__setattr__(self, "tau_f", tau_f)
        if self.kappa_f is not None:
            kappa_f = np.ascontiguousarray(self.kappa_f, dtype=np.float64)
            if kappa_f.shape != (nd, self.t + 1):
                raise ValueError("kappa_f must be (num_dyads, t+1)")
            check_finite(kappa_f, "kappa_f")
            if (kappa_f < 0).any():
                raise ValueError("kappa_f must be nonnegative")
            object.__setattr__(self, "kappa_f", kappa_f)

    def reconstruct_tau(self, g: Multigraph) -> np.ndarray:
        return _dyadic_rebuild(self.tau_f, g.counts, np.add)

    def reconstruct_kappa(self, g: Multigraph) -> float:
        return float(_dyadic_rebuild(self.kappa_f, g.counts, np.multiply))


def _dyadic_rebuild(tables: np.ndarray, counts: np.ndarray, combine: np.ufunc) -> np.ndarray:
    """Each dyad's (N, t+1, ...) table read at its count in (..., N) counts, then summed
    (np.add: a statistic) or multiplied (np.multiply: a carrier) over the dyads. A value
    past the float range comes back as inf or NaN with no numpy warning; callers refuse it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return combine.reduce(tables[np.arange(tables.shape[0]), counts], axis=counts.ndim - 1)


@dataclass(frozen=True)
class FactorResult:
    """Outcome of a factorization attempt: tables or a counterexample."""

    factorization: DyadicFactorization | None
    witness: Multigraph | None

    @property
    def ok(self) -> bool:
        return self.factorization is not None


def _probe_states(space: StateSpace, probes, seed) -> np.ndarray:
    if probes is None:
        if space.size > 4 * DEFAULT_PROBE_BUDGET:
            raise ValueError("space too large for exhaustive verification; pass a probe budget")
        return np.arange(space.size)
    if seed is None:
        raise ValueError("probe budget needs a seed")
    return stream(seed).integers(0, space.size, size=int(probes))


def factor_dyadditive(space: StateSpace, tau, probes=None, seed=None) -> FactorResult:
    """Split a statistic, an array indexed by state, into per-dyad summands, if possible.

    tau is (size,) or (size, l). Component tables come from single-dyad
    states: tau_f(m) is the value of the graph with dyad f at multiplicity
    m, shifted so the empty graph's value spreads evenly. Verification is
    exhaustive by default, or over a seeded random probe budget; the first
    failing state is the witness.
    """
    if space.kind != MULTIGRAPH:
        raise ValueError("dyadic factorization needs a multigraph space")
    vals = np.asarray(tau, dtype=np.float64)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != space.size:
        raise ValueError("statistic must cover every state")
    check_finite(vals, "tau")
    # The empty graph (state 0) splits its value evenly over the dyads, if there are any;
    # the graph with dyad f alone, at multiplicity m, has index m (t+1)^f.
    share = vals[0] / max(num_dyads(space.n), 1)
    tau_f = vals[np.arange(space.t + 1) * place_values(space)[:, None]] - vals[0] + share
    tau_f[:, 0] = share
    fact = DyadicFactorization(n=space.n, t=space.t, tau_f=tau_f)
    return _verdict(space, fact, tau_f, np.add, vals, _probe_states(space, probes, seed), RECONSTRUCTION_TOL)


def factor_dyadically_multiplicative(space: StateSpace, kappa, probes=None, seed=None) -> FactorResult:
    """Split a carrier, an array indexed by state, into per-dyad factors, if possible.

    The candidate anchors at the empty graph when its carrier is positive,
    otherwise at a maximal-carrier reference state; zeros at probe states
    survive into the candidate tables and the exhaustive (or budgeted)
    verification decides.
    """
    if space.kind != MULTIGRAPH:
        raise ValueError("dyadic factorization needs a multigraph space")
    vals = np.asarray(kappa, dtype=np.float64).reshape(-1)
    if vals.shape != (space.size,):
        raise ValueError("carrier must cover every state")
    check_finite(vals, "kappa")
    if vals.min() < 0:
        raise ValueError("carrier values must be nonnegative")
    nd = num_dyads(space.n)
    ref = 0 if vals[0] > 0 else int(np.argmax(vals))
    ref_val = vals[ref]
    if ref_val == 0:
        return FactorResult(factorization=None, witness=space.decode(int(np.argmax(vals > 0))))
    scale = ref_val ** ((nd - 1) / nd) if nd else 1.0
    # The reference state with dyad f moved to multiplicity m.
    shift = np.arange(space.t + 1) - dyad_counts(space, ref)[:, None]
    kappa_f = vals[ref + shift * place_values(space)[:, None]] / scale
    fact = DyadicFactorization(n=space.n, t=space.t, kappa_f=kappa_f)
    check = _probe_states(space, probes, seed)
    tol = RECONSTRUCTION_TOL * max(1.0, float(np.abs(vals[check]).max()))
    return _verdict(space, fact, kappa_f, np.multiply, vals, check, tol)


def _verdict(space: StateSpace, fact: DyadicFactorization, tables, combine, vals, check, tol) -> FactorResult:
    """The factorization, or the first worst probe state (NaN ranks worst) if the rebuild misses tol there."""
    dev = np.abs(_dyadic_rebuild(tables, dyad_counts(space, check), combine) - vals[check])
    dev = dev.reshape(check.size, -1).max(axis=1)
    bad = None if dev.max() <= tol else space.decode(int(check[int(np.argmax(dev))]))
    return FactorResult(factorization=fact if bad is None else None, witness=bad)


def multigraph_union(zs) -> Multigraph:
    """Dyad-wise sum of multigraphs sharing (n, s); the result lives in G(n, s*len)."""
    zs = list(zs)
    if not zs:
        raise ValueError("union of zero multigraphs is undefined")
    n, s = zs[0].n, zs[0].t
    if any(z.n != n or z.t != s for z in zs):
        raise ValueError("all parts must share n and dyad cap")
    total = np.sum([z.counts for z in zs], axis=0)
    return Multigraph(n=n, t=s * len(zs), counts=total)


@dataclass(frozen=True)
class IsoClasses:
    """Partition of a multigraph space into isomorphism classes."""

    space: StateSpace
    class_id: np.ndarray       # (size,) class index per state
    representatives: np.ndarray  # canonical (minimal) state index per class
    classes: tuple              # tuple of index arrays


def iso_classes(space: StateSpace) -> IsoClasses:
    """Brute-force isomorphism classes over all vertex bijections.

    b ~ c when some relabelling of the vertices carries b to c. Canonical
    representative is the minimal state index in the orbit. The sorted degree
    sequence is checked as an invariant on every orbit.
    """
    if space.kind != MULTIGRAPH:
        raise ValueError("isomorphism classes need a multigraph space")
    if space.n > ISO_MAX_N:
        raise ValueError(f"brute-force isomorphism is capped at n = {ISO_MAX_N}")
    digits = dyad_count_table(space)
    place = place_values(space)
    dyads = canonical_dyads(space.n)
    canon = np.full(space.size, np.iinfo(np.int64).max, dtype=np.int64)
    for perm in itertools.permutations(range(space.n)):
        # Relabelling moves dyad f to dmap[f], so its digit takes that place value.
        dmap = [dyad_index(perm[u], perm[v]) for u, v in dyads]
        np.minimum(canon, digits @ place[dmap], out=canon)
    reps, class_id = np.unique(canon, return_inverse=True)
    classes = tuple(np.where(class_id == c)[0] for c in range(reps.size))
    iso = IsoClasses(space=space, class_id=class_id, representatives=reps, classes=classes)
    # Degree sequences are isomorphism invariants; any split orbit is a bug.
    degrees = sorted_degree_table(space)
    if (degrees != degrees[reps[class_id]]).any():
        raise TheoremViolationError("orbit mixes degree sequences")
    return iso


def _class_max_deviation(H: np.ndarray, classes: IsoClasses) -> np.ndarray:
    """(rows, classes) max over each class of |H[r, b] - H[r, first member]|."""
    sizes = [members.size for members in classes.classes]
    starts = np.cumsum([0] + sizes[:-1])
    dev = H[:, np.concatenate(classes.classes)]
    dev -= dev[:, np.repeat(starts, sizes)]
    np.abs(dev, out=dev)
    return np.maximum.reduceat(dev, starts, axis=1)


def is_finitely_exchangeable(h, classes: IsoClasses):
    """Is h constant on every isomorphism class, within EXCHANGE_TOL?

    h is a vector indexed by state. Returns (True, None) or (False, (b, c))
    with b the class representative and c the first deviating member.
    """
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    if h.shape != (classes.space.size,):
        raise ValueError("h must assign a value to every state")
    check_finite(h, "h")
    failing = np.flatnonzero(~(_class_max_deviation(h[None, :], classes)[0] <= EXCHANGE_TOL))
    if failing.size == 0:
        return True, None
    members = classes.classes[failing[0]]
    bad = int(members[int(np.argmax(np.abs(h[members] - h[members[0]])))])
    return False, (int(members[0]), bad)


def is_relation_invariant(perm: PermutationFamily, classes: IsoClasses):
    """Does every sigma_a map equivalent states to equivalent states?

    Returns (True, None) or (False, (a, b, c)) with b ~ c but
    sigma_a(b) !~ sigma_a(c).
    """
    if perm.size != classes.space.size:
        raise ValueError("family and classes must share a space")
    cid = classes.class_id
    first = classes.representatives[cid]
    mapped = perm.spread(cid, "the class map")
    split = mapped != mapped[:, first]
    rows = np.flatnonzero(split.any(axis=1))
    if rows.size == 0:
        return True, None
    a = int(rows[0])
    # The first split class in class order, and its first split member.
    cols = np.flatnonzero(split[a])
    bad = int(cols[int(np.argmin(cid[cols]))])
    return False, (a, int(first[bad]), bad)


@dataclass(frozen=True)
class ExchangeReport:
    mu_exchangeable: bool
    row_exchangeable: tuple
    mu_witness: tuple | None
    equivalence_holds: bool


def exchangeability_transfer(
    P: StochasticMatrix, perm: PermutationFamily, mu: Pmf, classes: IsoClasses
) -> ExchangeReport:
    """Exchangeability passes between mu and the rows of a p-uniform matrix.

    Requires (P, perm, mu) to be a consistent p-uniform triple and the
    relation to be invariant under the family and its inverse. Under those
    hypotheses mu is exchangeable iff every row is iff any row is; a
    numerical violation of that equivalence raises. Only the family is
    checked: each sigma_a is a bijection of a finite set, so if it maps
    classes into classes the map it induces on classes is onto, hence
    one-to-one, and sigma_a^-1 preserves the classes too.
    """
    check_triple(P, perm, mu)
    ok, witness = is_relation_invariant(perm, classes)
    if not ok:
        raise ValueError(f"family does not preserve the relation: {witness}")
    mu_ok, mu_wit = is_finitely_exchangeable(mu.p, classes)
    rows = tuple((_class_max_deviation(P.P, classes) <= EXCHANGE_TOL).all(axis=1).tolist())
    equivalent = (all(rows) == mu_ok) and (any(rows) == mu_ok)
    if not equivalent:
        raise TheoremViolationError("exchangeability equivalence failed on consistent inputs")
    return ExchangeReport(
        mu_exchangeable=mu_ok,
        row_exchangeable=rows,
        mu_witness=mu_wit,
        equivalence_holds=equivalent,
    )
