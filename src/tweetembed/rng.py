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
# `permutation` draws this many swaps at a time.
_SWAP_CHUNK = 1 << 16


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

    The swaps stay a sequential Fisher-Yates walk, made through a
    memoryview of the int64 result; the draws are computed _SWAP_CHUNK at
    a time and read through a memoryview too, so no Python int outlives
    its swap and no list of n ints is built.
    """
    out = np.arange(n, dtype=np.int64)
    idx = memoryview(out)
    for k in range(1, n, _SWAP_CHUNK):  # draws k .. stop - 1 swap at i = n - k, n - k - 1, ...
        stop = min(k + _SWAP_CHUNK, n)
        z = np.arange(k, stop, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(seed & _MASK64)  # the generator's state after each step
        _mix(z)
        z %= np.arange(n - k + 1, n - stop + 1, -1, dtype=np.uint64)  # j = next_u64() mod (i + 1)
        for i, j in zip(range(n - k, n - stop, -1), memoryview(z)):
            idx[i], idx[j] = idx[j], idx[i]
    return out


def derive_seed(seed: int, stream: int) -> int:
    """Derive an independent sub-seed, e.g. one per training epoch.

    Defined as the first SplitMix64 draw from `seed`, plus stream * GAMMA
    (mod 2^64), so that (seed, stream) pairs map to well-separated states.
    """
    base = int(_mix(np.array([(seed + _GAMMA) & _MASK64], dtype=np.uint64))[0])
    return (base + (stream & _MASK64) * _GAMMA) & _MASK64
