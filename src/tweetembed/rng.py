"""Explicit pseudo-random primitives for reproducible shuffling.

Dataset splits and per-epoch reshuffles must reproduce bit for bit across
platforms and interpreter versions, so they cannot rely on the runtime's
own shuffle. Everything here is built on SplitMix64 (Steele, Lea & Flood;
the generator behind Java's SplittableRandom):

    state <- state + 0x9E3779B97F4A7C15   (mod 2^64)
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB
    output z xor (z >> 31)

The k-th state is seed + k * GAMMA, so the draws need no loop: `_mix`, the
one copy of the output function, maps a uint64 array of states to their
draws, and numpy's uint64 arithmetic wraps mod 2^64 like the formula.

Shuffles are Fisher-Yates, drawing j = next_u64() mod (i + 1) while walking
i from n - 1 down to 1. The modulo draw has negligible bias for the sizes
involved and keeps the algorithm trivially portable.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on a uint64 array of states."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def permutation(n: int, seed: int) -> np.ndarray:
    """Deterministic permutation of range(n) for the given seed, as int64.

    The n - 1 draws are computed at once; the swaps stay a sequential
    Fisher-Yates walk over a Python list.
    """
    z = np.arange(1, n, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)  # the generator's state after each step
    _mix(z)
    z %= np.arange(n, 1, -1, dtype=np.uint64)  # j = next_u64() mod (i + 1)
    idx = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), z.tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx, dtype=np.int64)


def derive_seed(seed: int, stream: int) -> int:
    """Derive an independent sub-seed, e.g. one per training epoch.

    Defined as the first SplitMix64 draw from `seed`, plus stream * GAMMA
    (mod 2^64), so that (seed, stream) pairs map to well-separated states.
    """
    base = int(_mix(np.array([(seed + _GAMMA) & _MASK64], dtype=np.uint64))[0])
    return (base + (stream & _MASK64) * _GAMMA) & _MASK64
