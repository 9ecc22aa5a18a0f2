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

Shuffles are Fisher-Yates, drawing j = next_u64() mod (i + 1) while walking
i from n - 1 down to 1. The modulo draw has negligible bias for the sizes
involved and keeps the algorithm trivially portable.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit counter-based generator; one multiply-xor-shift chain per draw."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


def permutation(n: int, seed: int) -> list[int]:
    """Deterministic permutation of range(n) for the given seed.

    The n - 1 SplitMix64 draws are computed at once in uint64 arithmetic,
    which wraps mod 2^64 exactly like the scalar generator; the swaps stay
    a sequential Fisher-Yates walk.
    """
    idx = list(range(n))
    if n < 2:
        return idx
    z = np.arange(1, n, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)  # the generator's state after each step
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z %= np.arange(n, 1, -1, dtype=np.uint64)  # j = next_u64() mod (i + 1)
    for i, j in zip(range(n - 1, 0, -1), z.tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def derive_seed(seed: int, stream: int) -> int:
    """Derive an independent sub-seed, e.g. one per training epoch.

    Defined as splitmix64(seed).next_u64() + stream * GAMMA (mod 2^64) so
    that (seed, stream) pairs map to well-separated states.
    """
    base = SplitMix64(seed).next_u64()
    return (base + (stream & _MASK64) * _GAMMA) & _MASK64
