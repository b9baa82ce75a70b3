"""Finite state spaces, multigraphs, permutation families, probability objects.

States are indexed 0..size-1 throughout. The heavier modules work on index
arrays and decode to concrete objects only at the edges. Multigraph spaces
use a base-(t+1) positional codec over the canonical dyad order with dyad 0
as the least significant digit, so for simple graphs (t = 1) the state index
is the edge bitmask and symmetric-difference families reduce to integer XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpaceTooLargeError

ENUMERATION_CAP = 2 ** 24
# Entries of one dense table, size x size or states x dyads: reciprocity on
# 4 vertices (2^24) fits, G(6, 1) (2^30) does not.
DENSE_ENTRY_CAP = 2 ** 26
# Largest modulus: the sum of two residues must stay inside int64.
MODULAR_CAP = 2 ** 62
PMF_TOL = 1e-12

MULTIGRAPH = "multigraph"
MODULAR = "modular"
GENERIC = "generic"


def check_dense_budget(size: int, what: str):
    """Raise SpaceTooLargeError before a size x size table passes DENSE_ENTRY_CAP."""
    if size * size > DENSE_ENTRY_CAP:
        raise SpaceTooLargeError(
            f"{what} would hold {size} x {size} entries, past the cap of {DENSE_ENTRY_CAP}"
        )


def distinct_entries(table: np.ndarray) -> np.ndarray:
    """table with each stride-0 axis sliced to length 1: the entries of a
    broadcast view (a unit carrier) once each; a full table as it is."""
    return table[tuple(slice(None, 1) if step == 0 else slice(None) for step in table.strides)]


def check_finite(table: np.ndarray, what: str):
    """Raise ValueError when a table holds NaN or an infinity.

    min() and max() carry either through in two passes over the distinct
    entries, with no bool temporary the size of the table.
    """
    table = distinct_entries(table)
    if table.size and not (np.isfinite(table.min()) and np.isfinite(table.max())):
        raise ValueError(f"{what} must be finite")


def num_dyads(n: int) -> int:
    return n * (n - 1) // 2


def canonical_dyads(n: int) -> list[tuple[int, int]]:
    """Unordered dyads {u, v} with v < u, sorted by (u, v). Vertices 0-based."""
    return [(u, v) for u in range(1, n) for v in range(u)]


def dyad_index(u: int, v: int) -> int:
    """Position of dyad {u, v} in the canonical order."""
    if u == v:
        raise ValueError("a dyad joins two distinct vertices")
    if u < v:
        u, v = v, u
    return u * (u - 1) // 2 + v


@dataclass(frozen=True, eq=False)
class Multigraph:
    """Multigraph on n vertices; counts[f] is the multiplicity of dyad f.

    Multiplicities live in 0..t and follow the canonical dyad order.
    """

    n: int
    t: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if self.n < 1 or self.t < 0:
            raise ValueError("need n >= 1 and t >= 0")
        if counts.shape != (num_dyads(self.n),):
            raise ValueError("counts must have one entry per dyad")
        if counts.size and (counts.min() < 0 or counts.max() > self.t):
            raise ValueError("multiplicities must lie in 0..t")

    def total_multiplicity(self) -> int:
        """Number of edges counted with multiplicity."""
        return int(self.counts.sum())

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.t == other.t
            and np.array_equal(self.counts, other.counts)
        )

    def __hash__(self):
        return hash((self.n, self.t, self.counts.tobytes()))


@dataclass(frozen=True)
class StateSpace:
    """Enumerable state space with an integer codec.

    kind is one of "multigraph" (states are Multigraph objects), "modular"
    (states are residues 0..n-1) or "generic" (states are opaque labels).
    """

    kind: str
    size: int
    n: int = 0
    t: int = 0
    labels: tuple[str, ...] = ()

    def encode(self, state) -> int:
        if self.kind == MULTIGRAPH:
            if not isinstance(state, Multigraph) or state.n != self.n or state.t != self.t:
                raise ValueError("state does not belong to this space")
            return int(state.counts @ place_values(self))
        if self.kind == MODULAR:
            if not isinstance(state, (int, np.integer)) or isinstance(state, bool):
                raise ValueError("state does not belong to this space")
            if not 0 <= state < self.size:
                raise ValueError("residue out of range")
            return int(state)
        idx = self._label_index.get(state)
        if idx is None:
            raise ValueError("state does not belong to this space")
        return idx

    def decode(self, idx: int):
        if not 0 <= idx < self.size:
            raise ValueError("state index out of range")
        if self.kind == MULTIGRAPH:
            return Multigraph(self.n, self.t, dyad_counts(self, idx))
        if self.kind == MODULAR:
            return int(idx)
        return self.labels[idx]

    @cached_property
    def _label_index(self) -> dict:
        """Position of every label, built on the first generic encode."""
        return {lab: i for i, lab in enumerate(self.labels)}


def place_values(space: StateSpace) -> np.ndarray:
    """(t+1)^f for every dyad f: a state's index is its counts @ place_values."""
    if space.kind != MULTIGRAPH:
        raise ValueError("dyad counts exist only for multigraph spaces")
    return (space.t + 1) ** np.arange(num_dyads(space.n), dtype=np.int64)


def _digit_columns(space: StateSpace, states: np.ndarray):
    """The multiplicity of dyad 0, 1, ..., N-1 in each state, one array at a time."""
    return (states // place % (space.t + 1) for place in place_values(space))


def dyad_counts(space: StateSpace, states) -> np.ndarray:
    """Dyad multiplicities of the given state indices, shape states.shape + (N,)."""
    states = np.asarray(states, dtype=np.int64)
    nd = num_dyads(space.n)
    if states.size * nd > DENSE_ENTRY_CAP:
        raise SpaceTooLargeError(f"{states.size} x {nd} dyad counts pass the cap of {DENSE_ENTRY_CAP} entries")
    out = np.empty(states.shape + (nd,), dtype=np.int64)
    for f, column in enumerate(_digit_columns(space, states)):
        out[..., f] = column
    return out


def dyad_count_table(space: StateSpace) -> np.ndarray:
    """(size, num_dyads) matrix of dyad multiplicities by state index."""
    return dyad_counts(space, np.arange(space.size))


def edge_total_table(space: StateSpace) -> np.ndarray:
    """Total edge multiplicity of every state, indexed by state."""
    total = np.zeros(space.size, dtype=np.int64)
    for column in _digit_columns(space, np.arange(space.size)):
        total += column
    return total


def build_multigraph_space(n: int, t: int) -> StateSpace:
    """The space G(n, t) of multigraphs on n vertices with dyad caps t."""
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    nd = num_dyads(n)
    # With t >= 1 there are at least 2^nd states, so past the cap's bit
    # length the count (t + 1)^nd is never built.
    if t and (nd >= ENUMERATION_CAP.bit_length() or (t + 1) ** nd > ENUMERATION_CAP):
        raise SpaceTooLargeError(
            f"G({n},{t}) has {t + 1}^{nd} states, past the cap of {ENUMERATION_CAP}"
        )
    return StateSpace(kind=MULTIGRAPH, size=(t + 1) ** nd, n=n, t=t)


def build_modular_space(n: int) -> StateSpace:
    """Residues modulo n; n <= MODULAR_CAP keeps index sums inside int64."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MODULAR_CAP:
        raise SpaceTooLargeError(f"Z/{n} has {n} states, past the modular cap of 2^62")
    return StateSpace(kind=MODULAR, size=n, n=n)


def build_generic_space(labels) -> StateSpace:
    """Opaque labelled states; labels must be distinct strings."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("need at least one label")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    return StateSpace(kind=GENERIC, size=len(labels), labels=labels)


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over state indices."""

    p: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("pmf must be a nonempty vector")
        check_finite(p, "pmf entries")
        if p.min() < 0:
            raise ValueError("pmf entries must be nonnegative")
        if abs(p.sum() - 1.0) > PMF_TOL:
            raise ValueError("pmf must sum to 1 within 1e-12")

    @property
    def size(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic square matrix; rows sum to 1 within 1e-12."""

    P: np.ndarray

    def __post_init__(self):
        P = np.ascontiguousarray(self.P, dtype=np.float64)
        object.__setattr__(self, "P", P)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
            raise ValueError("need a nonempty square matrix")
        check_finite(P, "entries")
        if P.min() < 0:
            raise ValueError("entries must be nonnegative")
        err = np.abs(P.sum(axis=1) - 1.0).max()
        if err > PMF_TOL:
            raise ValueError(f"rows must sum to 1 within 1e-12, worst error {err:.3e}")

    @property
    def size(self) -> int:
        return self.P.shape[0]


class PermutationFamily:
    """One permutation of the state indices per state: sigma_a(b).

    This class holds sigma as a (size, size) index matrix whose rows are
    checked to be permutations; family files and detected families are
    tables. The builtin families are formulas (see builtin_family) and
    build sigma only when it is read. Elsewhere families are used through
    spread (size x size tables) and apply, unapply, walk (over index arrays).
    """

    def __init__(self, sigma, tag: str = ""):
        sigma = np.ascontiguousarray(sigma, dtype=np.int64)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] == 0:
            raise ValueError("need a nonempty square index matrix")
        size = sigma.shape[0]
        # Every row must hit each index exactly once.
        if not np.array_equal(np.sort(sigma, axis=1), np.broadcast_to(np.arange(size), sigma.shape)):
            raise ValueError("every row must be a permutation of 0..size-1")
        self._sigma = sigma
        self.size = size
        self.tag = tag

    @property
    def sigma(self) -> np.ndarray:
        """The (size, size) table sigma[a, b] = sigma_a(b)."""
        return self._sigma

    def spread(self, values, what: str) -> np.ndarray:
        """values[sigma_a(b)] for every (a, b): the p-uniform table of a state-indexed
        array, trailing axes kept. Refuses with check_dense_budget(size, what) first."""
        check_dense_budget(self.size, what)
        return values[self._sigma]

    def apply(self, a, b):
        """sigma_a(b) over broadcastable index arrays."""
        return self._sigma[a, b]

    def unapply(self, a, z):
        """sigma_a^-1(z) over broadcastable index arrays."""
        return _inverse_table(self._sigma)[a, z]

    def walk(self, x0: int, z: np.ndarray) -> np.ndarray:
        """The path x_0 = x0, x_{i+1} = sigma_{x_i}^-1(z_{i+1}), start included."""
        inv = _inverse_table(self._sigma)
        states = np.empty(z.size + 1, dtype=np.int64)
        states[0] = x0
        cur = int(x0)
        for i, zi in enumerate(z):
            cur = int(inv[cur, zi])
            states[i + 1] = cur
        return states


class _GroupFamily(PermutationFamily):
    """A builtin family as a formula on an abelian group of state indices.

    "identity" is sigma_a(b) = b; "xor" is sigma_a(b) = a ^ b ^ mask on
    bitmask states (symdiff with mask 0, stability with the all-ones mask),
    which is its own inverse; "mod" is sigma_a(b) = (b - a) mod size. The
    chain replay is then a prefix scan instead of a per-step lookup.
    """

    def __init__(self, size: int, tag: str, op: str, mask: int = 0):
        self.size = size
        self.tag = tag
        self._op = op
        self._mask = mask

    @property
    def sigma(self) -> np.ndarray:
        return np.ascontiguousarray(self.spread(np.arange(self.size, dtype=np.int64), f"the {self.tag} family table"))

    def spread(self, values, what: str) -> np.ndarray:
        check_dense_budget(self.size, what)
        if self._op == "identity":
            # Every row is values itself: a read-only view, not a size^2 copy.
            return np.broadcast_to(values, (self.size,) + values.shape)
        idx = np.arange(self.size, dtype=np.int64)
        return values[self.apply(idx[:, None], idx)]

    def apply(self, a, b):
        if self._op == "identity":
            shape = np.broadcast_shapes(np.shape(a), np.shape(b))
            # A path gets a fresh, writable array like the other families; an
            # index grid stays a read-only view, since a copy would cost size^2.
            return np.array(b) if shape == np.shape(b) else np.broadcast_to(b, shape)
        if self._op == "xor":
            out = np.bitwise_xor(a, b)
            out ^= self._mask
        else:
            out = np.subtract(b, a)
            out %= self.size
        return out

    def unapply(self, a, z):
        if self._op == "mod":
            out = np.add(a, z)
            out %= self.size
            return out
        return self.apply(a, z)

    def walk(self, x0: int, z: np.ndarray) -> np.ndarray:
        states = np.empty(z.size + 1, dtype=np.int64)
        states[0] = x0
        states[1:] = z
        if self._op == "xor":
            states[1:] ^= self._mask
            np.bitwise_xor.accumulate(states, out=states)
        elif self._op == "mod":
            # Blocks short enough that no partial sum leaves int64.
            block = max(1, 2 ** 62 // self.size)
            for start in range(0, states.size, block):
                part = states[start:start + block]
                if start:
                    part[0] += states[start - 1]
                np.cumsum(part, out=part)
                part %= self.size
        return states


def _inverse_table(sigma: np.ndarray) -> np.ndarray:
    """Row-wise inverse permutations of an index table."""
    size = sigma.shape[0]
    inv = np.empty_like(sigma)
    inv[np.arange(size)[:, None], sigma] = np.broadcast_to(np.arange(size), sigma.shape)
    return inv


def invert_family(fam: PermutationFamily) -> PermutationFamily:
    """Family of row-wise inverse permutations, as a table."""
    check_dense_budget(fam.size, "the inverse family table")
    tag = f"{fam.tag}^-1" if fam.tag else ""
    return PermutationFamily(sigma=_inverse_table(fam.sigma), tag=tag)


def is_symmetric_family(fam: PermutationFamily):
    """Check sigma_a(b) == sigma_b(a) for all a, b.

    Returns (True, None) or (False, (a, b)) with the first counterexample in
    row-major order.
    """
    sigma = fam.sigma
    mismatch = sigma != sigma.T
    if not mismatch.any():
        return True, None
    a, b = np.argwhere(mismatch)[0]
    return False, (int(a), int(b))


def identity_family(size: int) -> PermutationFamily:
    return _GroupFamily(size, "identity", "identity")


def builtin_family(space: StateSpace, name: str) -> PermutationFamily:
    """Construct a named permutation family on `space`, as a formula.

    identity   sigma_a = id on any space
    symdiff    sigma_a(b) = a xor b, simple-graph spaces only
    stability  sigma_a(b) = complement(a xor b), simple-graph spaces only
    modular    sigma_i(j) = (j - i) mod n on modular spaces
    """
    if name == "identity":
        return identity_family(space.size)
    if name in ("symdiff", "stability"):
        if space.kind != MULTIGRAPH or space.t != 1:
            raise ValueError(f"family '{name}' needs a simple-graph space (t = 1)")
        # t = 1 makes indices bitmasks; xor with size - 1 complements.
        return _GroupFamily(space.size, name, "xor", space.size - 1 if name == "stability" else 0)
    if name == "modular":
        if space.kind != MODULAR:
            raise ValueError("family 'modular' needs a modular space")
        return _GroupFamily(space.size, name, "mod")
    raise ValueError(f"unknown builtin family '{name}'")
