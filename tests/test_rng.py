import random
import re
from fractions import Fraction

import numpy as np
import pytest

from chaincover import InputError
from chaincover.rng import _first_integers, _first_random, choice_weighted, first_words, randbelow, stream


def bytes_randbelow(gen, n):
    """Reference: rejection on ``gen.bytes``, the draw ``randbelow`` must reproduce."""
    if n == 1:
        return 0
    bits = (n - 1).bit_length()
    nbytes = (bits + 7) // 8
    while True:
        x = int.from_bytes(gen.bytes(nbytes), "big") >> (nbytes * 8 - bits)
        if x < n:
            return x


# bounds with 1, 4, 5 and 9 random bytes, two of them above 2**64
PINNED = {
    200: [172, 106, 19],
    2**32 - 5: [2901401131, 1794526924, 321309668],
    2**32 + 7: [1795599817, 3589053848, 642619337],
    3**41: [24922845945879057628, 15414868904201194731, 2760029038282205646],
    2**72: [3190124281072519376437, 1973103219737752925647, 353283716900122322692],
}


@pytest.mark.parametrize("n", sorted(PINNED))
def test_randbelow_pinned(n):
    assert [randbelow(stream(34, i), n) for i in range(3)] == PINNED[n]


def test_randbelow_consumes_the_generator_like_bytes():
    # 1..17 bytes, powers of two (no rejection) and bounds just above them
    # (rejection on almost half the tries)
    bounds = [2, 3, 200, 256, 257]
    bounds += [2**b + d for b in range(9, 136, 7) for d in (0, 1)]
    for n in bounds:
        for i in range(12):
            ours, ref = stream(35, i), stream(35, i)
            assert [randbelow(ours, n) for _ in range(5)] == [bytes_randbelow(ref, n) for _ in range(5)]
            assert ours.random() == ref.random()


def test_randbelow_bound_checks():
    gen = stream(36)
    for n in (0, -3):
        with pytest.raises(ValueError):
            randbelow(gen, n)
    ref = stream(36)
    assert randbelow(gen, 1) == 0
    assert gen.random() == ref.random()  # a bound of one draws nothing


def test_randbelow_matches_bytes_at_every_bit_length_of_a_word():
    # among them 2**8 and 2**8 + 1 (one byte, two), 2**24 and 2**24 + 1 (three
    # bytes, four) and 2**32 and 2**32 + 1 (one word, two)
    for n in [2**b + d for b in range(34) for d in (-1, 0, 1) if 2**b + d >= 1]:
        for i in range(12):
            ours, ref = stream(38, n, i), stream(38, n, i)
            assert [randbelow(ours, n) for _ in range(5)] == [bytes_randbelow(ref, n) for _ in range(5)]
            assert ours.random() == ref.random()


@pytest.mark.parametrize("n", [2.5, 3.7, 2.0, True, False, "3", None, Fraction(3)])
def test_randbelow_refuses_a_bound_that_is_not_an_int(n):
    gen, ref = stream(40), stream(40)
    with pytest.raises(InputError, match=re.escape(f"randbelow needs an int bound, got {n!r}")):
        randbelow(gen, n)
    assert gen.random() == ref.random()  # refused before any word is read


@pytest.mark.parametrize("weights, bad", [
    ([3, -1, 5], -1), ([2.5, 1], 2.5), ([1, True], True), ([Fraction(1), 2], Fraction(1)), ([1, "2"], "2"),
])
def test_choice_weighted_refuses_weights_that_are_not_non_negative_ints(weights, bad):
    gen, ref = stream(41), stream(41)
    message = f"choice_weighted needs non-negative int weights, got {bad!r}"
    with pytest.raises(InputError, match=re.escape(message)):
        choice_weighted(gen, weights)
    assert gen.random() == ref.random()


def test_choice_weighted_pinned():
    gen = stream(37)
    draws = [choice_weighted(gen, [3, 0, 5, 1]) for _ in range(12)]
    assert draws == [0, 2, 0, 0, 0, 2, 2, 2, 0, 3, 2, 2]
    assert 1 not in draws


# ---------------------------------------------------------------- first words

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11]  # the last two span 3 and 5 words
BOUNDS = list(range(1, 17)) + [2**40 + 3]  # the last one above numpy's 32-bit draw


def _paths(seed: int, length: int) -> list[tuple[int, ...]]:
    """100 paths of one length, parts at and between the word ends."""
    r = random.Random(seed * 8 + length)
    return [tuple(r.choice([0, 1, 2**32 - 1, r.randrange(200), r.randrange(2**32)])
                  for _ in range(length))
            for _ in range(100)]


def _cases():
    """(seed, paths) for the 3,000 seeded paths of lengths 1 to 5."""
    return [(seed, _paths(seed, length)) for seed in SEEDS for length in range(1, 6)]


def _raw(seed: int, path) -> int:
    return stream(seed, *path).bit_generator.random_raw()


def test_streams_match_stream():
    # first_words reads each stream's first raw word without building it
    cases = 0
    for seed, paths in _cases():
        words = first_words(seed, paths)
        assert words.dtype == np.uint64
        for path, word in zip(paths, words.tolist()):
            assert word == _raw(seed, path), (seed, path)
            cases += 1
    assert cases == 3000


def test_first_draws_match_stream():
    for seed, paths in _cases():
        words = first_words(seed, paths)
        assert _first_random(words).tolist() == [stream(seed, *path).random() for path in paths]
        for k in BOUNDS:
            assert _first_integers(words, k, seed, paths).tolist() == [
                int(stream(seed, *path).integers(0, k)) for path in paths
            ], (seed, k)


def test_first_integers_redraws_what_lemire_rejects():
    # a low half of 0 leaves 0 < (2**32 - 6) % 6 = 4, which numpy's draw rejects
    seed, paths = 5, [(0, 1), (0, 2), (3, 4)]
    words = first_words(seed, paths)
    words[1] = np.uint64(0xABCD_0000_0000)
    ours = _first_integers(words, np.array([6, 6, 6]), seed, paths).tolist()
    assert ours == [int(stream(seed, *path).integers(0, 6)) for path in paths]
    with pytest.raises(ValueError) as ref:
        stream(seed, *paths[0]).integers(0, 0)
    with pytest.raises(ValueError, match=re.escape(str(ref.value))):
        _first_integers(words, 0, seed, paths)


def test_streams_hand_out_of_range_parts_to_stream():
    # paths of several lengths, or parts beyond a word, go to stream
    paths = [(3, 0), (2**32, 1), (1, 2**40), (0, 2**64 + 1), (2**32 - 1, 5), (4,), ()]
    for seed in (0, 2**32 + 5):
        words = first_words(seed, paths)
        assert words.tolist() == [_raw(seed, path) for path in paths]
        assert _first_integers(words, 7, seed, paths).tolist() == [
            int(stream(seed, *path).integers(0, 7)) for path in paths
        ]
    assert first_words(4, []).tolist() == []


@pytest.mark.parametrize("seed, path", [(4, (-1,)), (4, (2, -2**40)), (-3, (1,))],
                         ids=["part", "wide-part", "seed"])
def test_streams_raise_streams_error_on_negatives(seed, path):
    with pytest.raises(ValueError) as ref:
        stream(seed, *path)
    with pytest.raises(type(ref.value), match=re.escape(str(ref.value))):
        first_words(seed, [(0,), path])
