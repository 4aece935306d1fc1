"""Deterministic stream-split randomness.

Every consumer derives its generator as stream(seed, *path) where the path
components name the purpose (split tag, sample index, group index, draw kind).
Philox is counter-based, so distinct paths give independent streams and the
same path always replays identically, independent of draw order elsewhere.

Integer draws that feed exact-uniformity claims go through ``randbelow``,
which rejects on raw bits instead of trusting float rounding, and accepts
arbitrary-precision bounds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "randbelow", "choice_weighted"]


def stream(seed: int, *path: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))


def randbelow(gen: np.random.Generator, n: int) -> int:
    """Exact uniform integer in [0, n); n may exceed machine precision.

    Each try reads ceil(nbytes / 4) raw 32-bit words from the bit generator
    and keeps the first nbytes of their little-endian bytes, which is what
    ``gen.bytes(nbytes)`` returns and consumes, without its array round trip.
    """
    if n <= 0:
        raise ValueError(f"randbelow needs a positive bound, got {n}")
    if n == 1:
        return 0
    bits = int(n - 1).bit_length()
    nbytes = (bits + 7) // 8
    nwords = (nbytes + 3) // 4
    excess = nbytes * 8 - bits
    bitgen = gen.bit_generator
    raw = bitgen.ctypes
    next_uint32, state = raw.next_uint32, raw.state
    with bitgen.lock:
        while True:
            word = next_uint32(state)
            for i in range(1, nwords):
                word |= next_uint32(state) << (32 * i)
            x = int.from_bytes(word.to_bytes(4 * nwords, "little")[:nbytes], "big") >> excess
            if x < n:
                return x


def choice_weighted(gen: np.random.Generator, weights: list[int]) -> int:
    """Index drawn proportionally to non-negative integer weights, exactly."""
    total = sum(weights)
    r = randbelow(gen, total)
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    raise AssertionError("weights changed during draw")
