import pytest

from chaincover.rng import choice_weighted, randbelow, stream


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
