"""Deterministic stream-split randomness.

Every consumer derives its generator as stream(seed, *path) where the path
components name the purpose (split tag, sample index, group index, draw kind).
Philox is counter-based, so distinct paths give independent streams and the
same path always replays identically, independent of draw order elsewhere.

``stream`` serves single uses.  Where many paths of one shape are drawn in
turn, as the trip-planning generator does, ``streams(seed, paths)`` yields the
same generators in path order: it derives every Philox key in one vectorized
pass over the paths, reproducing ``SeedSequence``'s mixing, instead of one
``SeedSequence`` per path.  The two give identical draws.

Integer draws that feed exact-uniformity claims go through ``randbelow``,
which rejects on raw bits instead of trusting float rounding, and accepts
arbitrary-precision bounds.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["stream", "streams", "randbelow", "choice_weighted"]

# SeedSequence's constants (O'Neill 2015, as numpy implements it)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 2**32


def stream(seed: int, *path: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))


@cache
def _key_sequence() -> type:
    """A seed-sequence class whose only state is one precomputed Philox key.

    Defined on first use: its base lives in numpy.random, which importing
    this module would otherwise load before any stream is drawn.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return Key


def _hasher(const: int, mult: int):
    """SeedSequence's word hash: each call steps ``const`` by ``mult``."""

    def hash_word(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult % _WORD
        value = value * const
        return value ^ (value >> 16)

    return hash_word


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _philox_keys(seed: int, parts: np.ndarray) -> np.ndarray:
    """Philox key of each row of ``parts`` (paths of one length, words below
    2**32), as ``Philox(SeedSequence(seed, spawn_key=row))`` sets it; shape (n, 2).

    The seed's little-endian 32-bit words, zero-padded to the pool size, come
    first and the path's words after them. Each column is one entropy word
    across all paths; uint32 arithmetic wraps as SeedSequence's does.
    """
    words = [seed % _WORD]
    while seed >= _WORD:
        seed //= _WORD
        words.append(seed % _WORD)
    n = len(parts)
    entropy = [np.full(n, w, np.uint32) for w in words + [0] * (_POOL - len(words))]
    entropy += list(parts.T)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(2, uint64): four output words, read in little-endian pairs
    hash_out = _hasher(_INIT_B, _MULT_B)
    out = np.stack([hash_out(pool[i]) for i in range(4)], axis=1)
    return out.astype("<u4").view("<u8").astype(np.uint64)


def streams(seed: int, paths: Iterable[Sequence[int]]) -> Iterator[np.random.Generator]:
    """``stream(seed, *path)`` for each path in turn, keys derived in bulk.

    The paths share one length, the first path's. Each generator is built
    only when it is reached, so few are held at once. A path of another
    length, or with a part outside [0, 2**32), goes through ``stream`` itself,
    which also raises its error for a negative part or seed.
    """
    paths = [tuple(path) for path in paths]
    length = len(paths[0]) if paths else 0
    fast = [
        isinstance(seed, int) and seed >= 0 and len(path) == length
        and all(isinstance(p, int) and 0 <= p < _WORD for p in path)
        for path in paths
    ]
    rows = [path for path, ok in zip(paths, fast) if ok]
    keys = iter(_philox_keys(seed, np.array(rows, np.uint32).reshape(len(rows), length))
                if rows else ())
    key_sequence = _key_sequence()
    for path, ok in zip(paths, fast):
        if ok:
            yield np.random.Generator(np.random.Philox(key_sequence(next(keys))))
        else:
            yield stream(seed, *path)


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
