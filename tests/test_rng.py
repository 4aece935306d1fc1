import random
import re

import numpy as np
import pytest

from chaincover.rng import choice_weighted, randbelow, stream, streams


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


def test_choice_weighted_pinned():
    gen = stream(37)
    draws = [choice_weighted(gen, [3, 0, 5, 1]) for _ in range(12)]
    assert draws == [0, 2, 0, 0, 0, 2, 2, 2, 0, 3, 2, 2]
    assert 1 not in draws


# ---------------------------------------------------------------- streams

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11]  # the last two span 3 and 5 words


def _paths(seed: int, length: int) -> list[tuple[int, ...]]:
    """100 paths of one length, parts at and between the word ends."""
    r = random.Random(seed * 8 + length)
    return [tuple(r.choice([0, 1, 2**32 - 1, r.randrange(200), r.randrange(2**32)])
                  for _ in range(length))
            for _ in range(100)]


def _draws(gen: np.random.Generator, k: int) -> list:
    return [gen.random(), int(gen.integers(0, k)),
            gen.uniform(0.1, 2.0, size=3).tolist(), randbelow(gen, 2**40 + k)]


def _key(gen: np.random.Generator) -> list[int]:
    return gen.bit_generator.state["state"]["key"].tolist()


def test_streams_match_stream():
    cases = 0
    for seed in SEEDS:
        for length in range(1, 6):
            paths = _paths(seed, length)
            for k, (path, gen) in enumerate(zip(paths, streams(seed, paths)), start=1):
                ref = stream(seed, *path)
                assert _key(gen) == _key(ref), (seed, path)
                assert _draws(gen, k) == _draws(ref, k), (seed, path)
                cases += 1
    assert cases == 3000


def test_streams_hand_out_of_range_parts_to_stream():
    # the first path sets the length; a path of another length goes to stream too
    paths = [(3, 0), (2**32, 1), (1, 2**40), (0, 2**64 + 1), (2**32 - 1, 5), (4,), ()]
    for seed in (0, 2**32 + 5):
        gens = list(streams(seed, paths))
        assert len(gens) == len(paths)
        for path, gen in zip(paths, gens):
            ref = stream(seed, *path)
            assert _key(gen) == _key(ref)
            assert _draws(gen, 7) == _draws(ref, 7)


@pytest.mark.parametrize("seed, path", [(4, (-1,)), (4, (2, -2**40)), (-3, (1,))],
                         ids=["part", "wide-part", "seed"])
def test_streams_raise_streams_error_on_negatives(seed, path):
    with pytest.raises(ValueError) as ref:
        stream(seed, *path)
    gens = streams(seed, [(0,), path])
    if seed >= 0:
        assert _key(next(gens)) == _key(stream(seed, 0))
    with pytest.raises(type(ref.value), match=re.escape(str(ref.value))):
        list(gens)


def test_streams_are_independent():
    paths = [(0, s, g) for s in range(3) for g in range(2)]
    gens = streams(9, paths)
    first = next(gens)
    first.random(size=1000)
    held = [next(gens) for _ in paths[1:3]]
    first.random(size=1000)
    held[0].integers(0, 10, size=50)
    assert held[1].random() == stream(9, *paths[2]).random()
    for path, gen in zip(paths[3:], gens):
        assert gen.random() == stream(9, *path).random()
