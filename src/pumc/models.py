"""Ready-made model fixtures.

The scalar three-state family with hand-picked carrier and statistic tables
(the classic actuarial example, called "gani" here) ships verbatim: rows 0
and 1 share the normalizer 3 theta + theta^3 while row 2 does not, which is
exactly what validate_cef is for. The graph-chain builders cover the edge
density and stability models, the modular-increment chain, and the two
statistics (transitivity, reciprocity) whose conditional families are not
Markovian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DENSE_ENTRY_CAP,
    ENUMERATION_CAP,
    PermutationFamily,
    Pmf,
    StateSpace,
    StochasticMatrix,
    build_generic_space,
    build_modular_space,
    build_multigraph_space,
    builtin_family,
    check_dense_budget,
    dyad_count_table,
    edge_total_table,
    identity_family,
    num_dyads,
    row_blocks,
)
from .errors import SpaceTooLargeError
from .expfam import (
    NATURAL,
    SCALAR_LOG,
    DENSITY_LOGIT,
    CefSpec,
    CodeTable,
    ExpFamilySpec,
    MefSpec,
    ParameterMap,
    as_mef,
    expfam_to_mef,
)
from .netstat import _two_paths

GANI_TAU = np.array([[1.0, 1.0, 3.0], [3.0, 3.0, 1.0], [1.0, 3.0, 3.0]])
GANI_KAPPA = np.array([[2.0, 1.0, 1.0], [1.0 / 3.0, 2.0 / 3.0, 3.0], [2.75, 1.0, 0.25]])


def gani_space() -> StateSpace:
    return build_generic_space(("1", "2", "3"))


def gani_cef() -> CefSpec:
    """Three-state scalar CEF with one inconsistent row.

    Rows 0 and 1 normalize to 3 theta + theta^3, row 2 to
    11 theta / 4 + 5 theta^3 / 4; the two agree only at theta = 1.
    """
    return CefSpec(
        space=gani_space(),
        kappa=GANI_KAPPA.copy(),
        tau=GANI_TAU.copy(),
        eta=ParameterMap(kind=SCALAR_LOG),
    )


def gani_two_row_mef() -> MefSpec:
    """The consistent two rows, closed into a genuine MEF.

    Row 2 duplicates row 1 so that every row shares the rows-0/1 normalizer;
    trajectories whose sources stay in {0, 1} see the original tables only.
    """
    kappa = GANI_KAPPA.copy()
    tau = GANI_TAU.copy()
    kappa[2] = kappa[1]
    tau[2] = tau[1]
    cef = CefSpec(space=gani_space(), kappa=kappa, tau=tau, eta=ParameterMap(kind=SCALAR_LOG))
    return as_mef(cef)


def er_family(n: int) -> ExpFamilySpec:
    """Edge-density family on G(n, 1): kappa = 1, tau = |E| / (n-1).

    At parameter p its pmf is the Erdos-Renyi law with edge probability p.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    space = build_multigraph_space(n, 1)
    edges = edge_total_table(space)
    return ExpFamilySpec(
        space=space,
        kappa=np.ones(space.size),
        tau=edges / (n - 1),
        eta=ParameterMap(kind=DENSITY_LOGIT, n=n),
    )


def er_pmf(n: int, p: float) -> Pmf:
    """Erdos-Renyi law on G(n, 1) computed directly from edge counts."""
    if not 0 < p < 1:
        raise ValueError("need 0 < p < 1")
    edges = edge_total_table(build_multigraph_space(n, 1))
    return Pmf(p ** edges * (1.0 - p) ** (num_dyads(n) - edges))


@dataclass(frozen=True)
class ChainModel:
    """A p-uniform chain presented as (space, family, mu)."""

    space: StateSpace
    family: PermutationFamily
    mu: Pmf

    def matrix(self) -> StochasticMatrix:
        return StochasticMatrix(P=self.family.spread(self.mu.p, "the transition matrix"))


def density_chain(n: int, p: float) -> ChainModel:
    """Targets drawn fresh from ER(p); the family is the identity."""
    space = build_multigraph_space(n, 1)
    return ChainModel(space=space, family=identity_family(space.size), mu=er_pmf(n, p))


def stability_chain(n: int, p: float) -> ChainModel:
    """Each dyad keeps its state with probability p, independently."""
    space = build_multigraph_space(n, 1)
    return ChainModel(space=space, family=builtin_family(space, "stability"), mu=er_pmf(n, p))


def modular_chain(n: int, mu=None) -> ChainModel:
    """Additive-increment walk on residues: X_{i+1} = X_i + Z_{i+1} mod n."""
    space = build_modular_space(n)
    if n > DENSE_ENTRY_CAP:
        raise SpaceTooLargeError(f"a pmf on Z/{n} would hold {n} entries, past the cap of {DENSE_ENTRY_CAP}")
    if mu is None:
        weights = np.zeros(n)
        weights[: min(2, n)] = 1.0
        mu = Pmf(weights / weights.sum())
    elif not isinstance(mu, Pmf):
        mu = Pmf(np.asarray(mu, dtype=np.float64))
    if mu.size != n:
        raise ValueError("mu must have one mass per residue")
    return ChainModel(space=space, family=builtin_family(space, "modular"), mu=mu)


def density_mef(n: int) -> MefSpec:
    return expfam_to_mef(er_family(n), identity_family(2 ** num_dyads(n)))


def stability_mef(n: int) -> MefSpec:
    space = build_multigraph_space(n, 1)
    return expfam_to_mef(er_family(n), builtin_family(space, "stability"))


def _ratio_statistic(coeff: np.ndarray, digits: np.ndarray, denom: np.ndarray, n: int) -> CodeTable:
    """tau(a, b) = n * k(a, b) / d(a), 0/0 -> 0, as a CodeTable.

    k(a, b) = coeff[a] . digits[b] and d(a) = denom[a] are counts with
    k <= d, so every entry is one cell of the (d, k) grid, coded as
    d * (D + 1) + k with D the largest d; the cell holds k * n / d. Counts
    are formed one row block at a time, exact in float64, so the codes are
    the only size^2 array.
    """
    size = digits.shape[0]
    width = int(denom.max()) + 1
    d = np.arange(width, dtype=np.float64)[:, None]
    values = np.divide(np.arange(width, dtype=np.float64) * n, d, out=np.zeros((width, width)), where=d > 0)
    codes = np.empty((size, size), dtype=np.min_scalar_type(values.size - 1))
    targets = digits.T.astype(np.float64)
    blocks = row_blocks(size)
    buf = np.empty((blocks[0].stop, size))
    for rows in blocks:
        counts = np.matmul(coeff[rows], targets, out=buf[: rows.stop - rows.start])
        counts += denom[rows, None] * width
        codes[rows] = counts
    return CodeTable(codes=codes, values=values.reshape(-1))


def transitivity_table(n: int) -> CodeTable:
    """Closed-two-path statistic on G(n, 1), held as a CodeTable.

    tau(a, b) = n * (two-paths of a closed by b) / (two-paths of a), with
    0/0 -> 0.
    """
    if n < 3:
        raise ValueError("transitivity needs n >= 3")
    space = build_multigraph_space(n, 1)
    check_dense_budget(space.size, "the transitivity table")
    digits = dyad_count_table(space)
    coeff = np.zeros((digits.shape[0], num_dyads(n)))
    denom = np.zeros(digits.shape[0])
    for ij, jk, ik in _two_paths(n):
        path = digits[:, ij] * digits[:, jk]
        coeff[:, ik] += path
        denom += path
    return _ratio_statistic(coeff, digits, denom, n)


def _natural_cef(tau: CodeTable, space: StateSpace) -> CefSpec:
    """Unit-carrier CEF whose natural scalar parameter multiplies tau directly."""
    unit = np.broadcast_to(1.0, (space.size, space.size))
    return CefSpec(space=space, kappa=unit, tau=tau, eta=ParameterMap(kind=NATURAL))


def transitivity_cef(n: int) -> CefSpec:
    """Closed-two-path CEF on G(n, 1) with unit carrier; not an MEF. tau is transitivity_table(n)."""
    return _natural_cef(transitivity_table(n), build_multigraph_space(n, 1))


def directed_pairs(n: int) -> list[tuple[int, int]]:
    """Ordered vertex pairs (i, j), i != j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _directed_size(n: int) -> int:
    """2^(n(n-1)), the number of loop-free directed graphs, held to the state cap."""
    m = n * (n - 1)
    if m >= ENUMERATION_CAP.bit_length() or 2 ** m > ENUMERATION_CAP:
        raise SpaceTooLargeError(f"directed graphs on {n} vertices: 2^{m} states, past the cap of {ENUMERATION_CAP}")
    return 2 ** m


def directed_space(n: int) -> StateSpace:
    """Loop-free directed graphs on n vertices as a generic labelled space.

    State index is the little-endian arc bitmask over directed_pairs(n);
    labels spell the bitmask most-significant-arc first.
    """
    m = n * (n - 1)
    labels = tuple(format(i, f"0{m}b") for i in range(_directed_size(n)))
    return build_generic_space(labels)


def reciprocity_table(n: int) -> CodeTable:
    """Reciprocated-arc statistic over directed_space(n), held as a CodeTable.

    tau(a, b) = n * sum_{(i,j)} b(j,i) a(i,j) / (arc count of a), 0/0 -> 0.
    """
    if n < 2:
        raise ValueError("reciprocity needs n >= 2")
    size = _directed_size(n)
    check_dense_budget(size, "the reciprocity table")
    pairs = directed_pairs(n)
    m = len(pairs)
    lookup = {pair: f for f, pair in enumerate(pairs)}
    tp = np.array([lookup[(j, i)] for (i, j) in pairs], dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    bits = np.empty((size, m), dtype=np.float64)
    for f in range(m):
        bits[:, f] = (idx >> f) & 1
    return _ratio_statistic(bits, bits[:, tp], bits.sum(axis=1), n)


def reciprocity_cef(n: int) -> CefSpec:
    """Reciprocated-arc CEF over loop-free directed graphs; not an MEF. tau is reciprocity_table(n)."""
    return _natural_cef(reciprocity_table(n), directed_space(n))
