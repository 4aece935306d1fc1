"""Deterministic stream-split randomness.

Every consumer derives its generator as stream(seed, *path) where the path
components name the purpose (split tag, sample index, group index, draw kind).
Philox is counter-based, so distinct paths give independent streams and the
same path always replays identically, independent of draw order elsewhere.

``stream`` serves uses that read a generator more than once.  Where many paths
of one shape each feed a single draw, as the trip-planning coins and indices
and the grid bypass coins do, ``first_words(seed, paths)`` gives each path's
first raw 64-bit word without building a generator: it derives every Philox
key in one vectorized pass over the paths, reproducing ``SeedSequence``'s
mixing, and runs Philox4x64-10 on the first counter for all keys at once
(Salmon et al., SC 2011).  ``_first_random`` and ``_first_integers`` turn
those words into the draws ``Generator.random()`` and
``Generator.integers(0, k)`` would make first.  The results are identical.

Integer draws that feed exact-uniformity claims go through ``randbelow``,
which rejects on raw bits instead of trusting float rounding, and accepts
arbitrary-precision bounds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .hypergraph import InputError, _is_int

__all__ = ["stream", "first_words", "randbelow", "choice_weighted"]

# SeedSequence's constants (O'Neill 2015, as numpy implements it)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 2**32
_LOW, _HALF = np.uint64(_WORD - 1), np.uint64(32)

# Philox4x64-10's round multipliers and key bumps (Random123, as numpy implements
# it), as columns: one row per multiplied counter word and per key word
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], np.uint64)
_PHILOX_ROUNDS = 10


def stream(seed: int, *path: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))


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


def _mulhilo(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products x * m, in uint64 from 32-bit halves."""
    x_lo, x_hi = x & _LOW, x >> _HALF
    m_lo, m_hi = m & _LOW, m >> _HALF
    lo_lo, hi_lo, lo_hi = x_lo * m_lo, x_hi * m_lo, x_lo * m_hi
    mid = (lo_lo >> _HALF) + (hi_lo & _LOW) + (lo_hi & _LOW)
    hi = x_hi * m_hi + (hi_lo >> _HALF) + (lo_hi >> _HALF) + (mid >> _HALF)
    return hi, x * m


def _philox_first(keys: np.ndarray) -> np.ndarray:
    """Word 0 of Philox4x64-10's block at counter (1, 0, 0, 0) under each key.

    A fresh numpy ``Philox`` steps its zero counter once before its first
    block, so this is the first ``random_raw()`` of the generator keyed so.
    Counter words 0 and 2, the two that are multiplied, travel as the rows
    of one array, and the key words likewise.
    """
    key = keys.T.copy()
    even = np.zeros_like(key)
    even[0] = 1
    odd = np.zeros_like(key)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        hi, lo = _mulhilo(even, _PHILOX_M)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return even[0]


def first_words(seed: int, paths) -> np.ndarray:
    """``stream(seed, *path).bit_generator.random_raw()`` for each path, as uint64.

    When the paths are int sequences of one length and the seed is a
    non-negative int, the paths whose parts lie in [0, 2**32) are computed
    together. Every other path goes through ``stream`` itself, which also
    raises its error for a negative part or seed.
    """
    try:
        table = np.asarray(paths)
    except ValueError:  # paths of several lengths
        table = np.zeros(0)
    bulk = np.zeros(len(paths), bool)
    if isinstance(seed, int) and seed >= 0 and table.ndim == 2 and table.dtype.kind in "iu":
        bulk = ((table >= 0) & (table < _WORD)).all(axis=1)
    words = np.zeros(len(paths), np.uint64)
    if bulk.any():
        words[bulk] = _philox_first(_philox_keys(seed, table[bulk].astype(np.uint32)))
    for i in np.flatnonzero(~bulk):
        words[i] = stream(seed, *paths[i]).bit_generator.random_raw()
    return words


def _first_random(words: np.ndarray) -> np.ndarray:
    """The first ``Generator.random()`` of each stream, from its first word."""
    return (words >> np.uint64(11)) * 2.0**-53


def _first_integers(words: np.ndarray, bounds, seed: int,
                    paths: Sequence[Sequence[int]]) -> np.ndarray:
    """The first ``stream(seed, *path).integers(0, k)`` of each path, from its
    first word and bound k (one per path, or one for all).

    numpy draws a bound of at most 2**32 by Lemire's method on the word's low
    32 bits. A word that method would reject, and a bound outside [1, 2**32],
    are handed to ``stream`` itself, so every draw, and every error, is numpy's.
    """
    bounds = np.broadcast_to(np.asarray(bounds, np.int64), words.shape)
    redraw = (bounds < 1) | (bounds > _WORD)
    k = np.where(redraw, 1, bounds).astype(np.uint64)
    m = (words & _LOW) * k
    redraw |= (m & _LOW) < (np.uint64(_WORD) - k) % k
    out = (m >> _HALF).astype(np.int64)
    for i in np.flatnonzero(redraw):
        out[i] = stream(seed, *paths[i]).integers(0, int(bounds[i]))
    return out


def randbelow(gen: np.random.Generator, n: int) -> int:
    """Exact uniform integer in [0, n); n may exceed machine precision.

    Each try reads ceil(nbytes / 4) raw 32-bit words from the bit generator
    and keeps the first nbytes of their little-endian bytes, read big-endian
    and shifted right by the excess bits, which is what ``gen.bytes(nbytes)``
    returns and consumes, without its array round trip. A bound of at most
    32 bits reads one word per try and reverses its bytes arithmetically; a
    bound of 1 reads nothing. ``n`` must be an int (not a bool) of at least 1.
    """
    if type(n) is not int and not _is_int(n):
        raise InputError(f"randbelow needs an int bound, got {n!r}")
    if n <= 1:
        if n == 1:
            return 0
        raise InputError(f"randbelow needs a positive bound, got {n}")
    bits = (n - 1).bit_length()
    bitgen = gen.bit_generator
    raw = bitgen.ctypes
    next_uint32, state = raw.next_uint32, raw.state
    with bitgen.lock:
        if bits <= 32:  # the word's bytes reversed; the shift drops the unread ones too
            excess = 32 - bits
            while True:
                w = next_uint32(state)
                x = ((w & 0xFF) << 24 | (w & 0xFF00) << 8 | (w >> 8) & 0xFF00 | w >> 24) >> excess
                if x < n:
                    return x
        nbytes = (bits + 7) // 8
        nwords = (nbytes + 3) // 4
        excess = nbytes * 8 - bits
        while True:
            word = next_uint32(state)
            for i in range(1, nwords):
                word |= next_uint32(state) << (32 * i)
            x = int.from_bytes(word.to_bytes(4 * nwords, "little")[:nbytes], "big") >> excess
            if x < n:
                return x


def choice_weighted(gen: np.random.Generator, weights: list[int]) -> int:
    """Index drawn proportionally to non-negative integer weights, exactly: one
    ``randbelow`` draw x below the sum, then the first index whose weight,
    subtracted from x in order, takes it below 0 (the first whose running
    total exceeds x)."""
    for w in weights:
        if type(w) is not int and not _is_int(w) or w < 0:
            raise InputError(f"choice_weighted needs non-negative int weights, got {w!r}")
    x = randbelow(gen, sum(weights))
    for i, w in enumerate(weights):
        x -= w
        if x < 0:
            return i
