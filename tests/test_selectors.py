"""The shortest-prefix rule shared by every vertex-order selector, checked
against brute-force recounts; and the package's export lists."""

import importlib
import pkgutil
import random
from fractions import Fraction

import pytest

import chaincover
from chaincover import baselines, fixed_context_fit
from chaincover import experiments as xp
from chaincover.hypergraph import shortest_prefix

from oracles import fixed_fit_reference, selector_reference

METHODS = ("chain", "forward_greedy", "reverse_greedy")
PHIS = [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(7, 10),
        Fraction(9, 10), Fraction(1)]


def test_shortest_prefix():
    counts = [0, 0, 2, 2, 3]
    assert [shortest_prefix(counts, need) for need in range(5)] == [0, 2, 2, 4, 4]
    assert shortest_prefix([0], 0) == 0
    assert shortest_prefix([0], 1) == 0  # the empty order is its own whole order


def _instance(rng):
    n = rng.randint(1, 7)

    def sample(hi):
        return frozenset(rng.randint(0, hi) for _ in range(rng.randint(0, 3)))

    train = [sample(n - 1) for _ in range(rng.randint(2, 10))]
    # evaluation ids reach past [0, n): such samples are never covered
    test = [sample(n + 1) for _ in range(rng.randint(1, 8))]
    return n, train, test


@pytest.mark.parametrize("seed", range(30))
def test_comparison_methods_match_the_recount(seed):
    n, train, test = _instance(random.Random(seed))
    want = selector_reference(n, train, test, PHIS)
    rows = xp.run_comparison(n, train, test, PHIS, METHODS, seed)
    assert {(r.method, r.phi): (r.size, r.coverage) for r in rows} == {
        key: (len(kept), cov) for key, (kept, cov) in want.items()
    }
    got = {
        "chain": xp.chain_cover(n, train, test, PHIS),
        "forward_greedy": baselines.forward_greedy(train, test, PHIS)[0],
        "reverse_greedy": baselines.reverse_greedy(train, test, PHIS, n)[0],
    }
    for (method, phi), expected in want.items():
        assert got[method][phi] == expected, (method, phi)


def test_fixed_fits_match_the_recount():
    overflows = 0
    for seed in range(30):
        rng = random.Random(1000 + seed)
        n, samples, _ = _instance(rng)
        for phi in PHIS:
            fit = fixed_context_fit(samples, phi, n)
            want = fixed_fit_reference(samples, phi, n)
            assert (fit.vertex_set, fit.prefix_len, fit.level_count,
                    fit.second_half_coverage) == want, (seed, phi)
            if fit.level_count > len(samples) - len(samples) // 2:
                overflows += 1
                assert fit.prefix_len == n and fit.second_half_coverage == 1
    assert overflows >= 30  # phi = 1 overflows on every instance


def test_every_exported_name_resolves():
    modules = [chaincover] + [
        importlib.import_module(f"chaincover.{info.name}")
        for info in pkgutil.iter_modules(chaincover.__path__)
    ]
    exported = [module for module in modules if hasattr(module, "__all__")]
    # the click wiring in cli exports nothing
    assert {m.__name__ for m in modules} - {m.__name__ for m in exported} == {"chaincover.cli"}
    for module in exported:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert "GreedyTrace" not in namespace
    assert not hasattr(baselines, "GreedyTrace")
    assert baselines.GreedyResult._fields == ("vertex_set", "coverage")
