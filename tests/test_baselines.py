import json
import math
import re
from fractions import Fraction

import pytest

from chaincover import InputError, forward_greedy, reverse_greedy
from chaincover.hypergraph import prefix_cover_counts
from chaincover.rng import stream

from conftest import run_child
from oracles import reverse_peel_reference

P1, P2, P3 = frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5, 6})
TRAIN = [P1] * 3 + [P2] * 3 + [P3] * 4


def _reached(result, phi, m):
    return result.coverage >= Fraction(math.ceil(phi * m), m)


def test_forward_order_and_coverages_frozen():
    results, order = forward_greedy(TRAIN, TRAIN, ["0.6", "0.7", "0.8"])
    assert order == (4, 5, 6, 0, 1, 2, 3)
    assert prefix_cover_counts(order, TRAIN) == [0, 0, 0, 4, 4, 7, 7, 10]
    assert results[Fraction(3, 5)].vertex_set == frozenset({4, 5, 6, 0, 1})
    assert results[Fraction(3, 5)].coverage == Fraction(7, 10)
    assert results[Fraction(7, 10)].vertex_set == frozenset({4, 5, 6, 0, 1})
    assert results[Fraction(4, 5)].vertex_set == frozenset(range(7))
    assert all(_reached(r, phi, len(TRAIN)) for phi, r in results.items())


def test_forward_unreachable_target():
    eval_samples = TRAIN + [frozenset({7})]
    results, _ = forward_greedy(TRAIN, eval_samples, [1])
    assert not _reached(results[Fraction(1)], 1, len(eval_samples))
    assert results[Fraction(1)].vertex_set == frozenset(range(7))
    assert results[Fraction(1)].coverage == Fraction(10, 11)


def test_reverse_peel_frozen():
    results, order = reverse_greedy(TRAIN, TRAIN, ["0.4", "0.7", "1"], 8)
    assert order == (7, 3, 2, 1, 0, 6, 5, 4)
    assert results[Fraction(7, 10)].vertex_set == frozenset({0, 1, 4, 5, 6})
    assert results[Fraction(7, 10)].coverage == Fraction(7, 10)
    assert results[Fraction(2, 5)].vertex_set == frozenset({4, 5, 6})
    assert results[Fraction(1)].vertex_set == frozenset(range(7))
    assert results[Fraction(1)].coverage == 1
    assert all(_reached(r, phi, len(TRAIN)) for phi, r in results.items())


def test_reverse_unreachable_target():
    # a sample outside the vertex range is never covered, even unpeeled
    eval_samples = TRAIN + [frozenset({9})]
    results, _ = reverse_greedy(TRAIN, eval_samples, [1], 8)
    assert not _reached(results[Fraction(1)], 1, len(eval_samples))
    assert results[Fraction(1)].vertex_set == frozenset(range(8))


@pytest.mark.parametrize("phi", [Fraction(3, 2), Fraction(-1, 10), "3/2", "-0.1"])
def test_phi_outside_unit_interval_rejected(phi):
    with pytest.raises(InputError, match="phi must lie in"):
        forward_greedy(TRAIN, TRAIN, [phi])
    with pytest.raises(InputError, match="phi must lie in"):
        reverse_greedy(TRAIN, TRAIN, [phi], 8)


def test_empty_eval_rejected():
    with pytest.raises(InputError):
        forward_greedy(TRAIN, [], [Fraction(1, 2)])
    with pytest.raises(InputError):
        reverse_greedy(TRAIN, [], [Fraction(1, 2)], 8)


def _random_samples(seed, t, n):
    gen = stream(seed)
    return [
        frozenset(int(v) for v in gen.choice(n, size=int(gen.integers(1, 4)), replace=False))
        for _ in range(t)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_both_selectors_nested_across_targets(seed):
    train = _random_samples(6000 + seed, 30, 8)
    eval_samples = _random_samples(6500 + seed, 20, 8)
    targets = [Fraction(j, 10) for j in range(11)]
    for fn, extra in ((forward_greedy, ()), (reverse_greedy, (8,))):
        results, order = fn(train, eval_samples, targets, *extra)
        sets = [results[t].vertex_set for t in targets]
        for a, b in zip(sets, sets[1:]):
            assert a <= b
        for t in targets:
            r = results[t]
            # short of the target only where the whole order falls short
            assert r.coverage >= t or r.vertex_set == frozenset(order)


def test_deterministic_given_inputs():
    train = _random_samples(42, 25, 6)
    eval_samples = _random_samples(43, 15, 6)
    a = forward_greedy(train, eval_samples, ["0.5"])
    b = forward_greedy(train, eval_samples, ["0.5"])
    assert a == b
    c = reverse_greedy(train, eval_samples, ["0.5"], 6)
    d = reverse_greedy(train, eval_samples, ["0.5"], 6)
    assert c == d


def test_reverse_peel_matches_the_rescanning_reference():
    # ids outside [0, n) keep a sample alive but never peel; duplicate and
    # empty samples count as drawn
    gen = stream(7100)
    for _ in range(1000):
        n = int(gen.integers(0, 9))
        train = [frozenset(int(v) for v in gen.integers(-2, n + 3, size=int(gen.integers(0, 4))))
                 for _ in range(int(gen.integers(0, 12)))]
        train += train[:int(gen.integers(0, 3))]
        assert reverse_greedy(train, [frozenset()], [], n)[1] == reverse_peel_reference(train, n)


def test_reverse_peel_at_n_100000():
    # the rescanning peel took about 3 s at n = 4,000 and grows as n squared;
    # the vertices on no sample go first, by descending id
    train = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2}), frozenset({0, 1, 2})]
    code = (
        "import json\n"
        "from chaincover import reverse_greedy\n"
        f"order = reverse_greedy({train!r}, [frozenset()], [], 100000)[1]\n"
        "print(json.dumps([order[:-3] == tuple(range(99999, 2, -1)), order[-3:]]))\n"
    )
    zeros_first, tail = json.loads(run_child(code, timeout=60))
    assert zeros_first
    assert tuple(tail) == reverse_peel_reference(train, 3)


@pytest.mark.parametrize("n, message", [
    (2.5, "vertex count must be an int, got 2.5"),
    (True, "vertex count must be an int, got True"),
    ("3", "vertex count must be an int, got '3'"),
    (-1, "vertex count must be >= 0, got -1"),
])
def test_reverse_greedy_vertex_count_is_checked(n, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        reverse_greedy([{0}], [{0}], ["1/2"], n)
