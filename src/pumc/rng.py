"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by a 64-bit seed plus a small tuple of lane indices. Stream layout:

    stream(seed)                 one lane, e.g. a single trajectory
    stream(seed, replicate)      replicate fan-out
    stream(seed, dyad)           per-dyad draws for graph sampling

The k-th draw from a stream is the value at step k, so draws are fully
determined by (seed, lanes, step) and independent lanes can be consumed in
any order without interference. `inverse_cdf` is the one lookup that turns
a stream's uniforms into state or multiplicity indices.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# Mixing constants for lane separation (splitmix64 increment and mix).
_LANE_MULT = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _lane_key(lanes: tuple[int, ...]) -> int:
    h = 0x2545F4914F6CDD1D
    for i, lane in enumerate(lanes):
        h ^= (int(lane) + 1) * _LANE_MULT[i % len(_LANE_MULT)] & _MASK64
        h = (h * 0xD6E8FEB86659FD93 + i) & _MASK64
        h ^= h >> 32
    return h & _MASK64


def stream(seed: int, *lanes: int, start: int = 0) -> np.random.Generator:
    """Return the Philox stream for (seed, lanes), at step `start` (one step per 64-bit draw)."""
    if not 0 <= int(seed) <= _MASK64:
        raise ValueError("seed must fit in 64 bits")
    key = np.array([int(seed) & _MASK64, _lane_key(lanes)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=start // 4))
    gen.random(start % 4)  # Philox draws four 64-bit words per counter value
    return gen


def inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn by uniforms u through the cumulative masses cum.

    Index k is drawn when cum[k-1] <= u < cum[k]; a u at or past a rounded
    total below 1 falls on the last index.
    """
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
