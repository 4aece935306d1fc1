"""Synthetic generators and the method-comparison harness."""

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

from chaincover import experiments as xp
from chaincover.baselines import reverse_greedy
from chaincover.chain import nested_chain
from chaincover.compress import select
from chaincover.hypergraph import InputError
from chaincover.io import result_csv

from conftest import child_env, run_child
from oracles import monotone_path_reference, trip_samples_reference


def test_default_phi_grid():
    grid = xp.default_phi_grid()
    assert len(grid) == 20
    assert grid[0] == Fraction(1, 20)
    assert grid[-1] == 1
    assert all(b - a == Fraction(1, 20) for a, b in zip(grid, grid[1:]))


# ---------------------------------------------------------------- grid routing


def _walk_monotone(cfg: xp.GridRoutingConfig, sample: frozenset[int]) -> bool:
    """Walk (0,0) -> (side-1,side-1); exactly one admissible move per cell."""
    side = cfg.side
    remaining = set(sample)
    i = j = 0
    while (i, j) != (side - 1, side - 1):
        right = i * (side - 1) + j if j < side - 1 else None
        down = side * (side - 1) + i * side + j if i < side - 1 else None
        take_right = right in remaining
        take_down = down in remaining
        if take_right == take_down:
            return False
        if take_right:
            remaining.remove(right)
            j += 1
        else:
            remaining.remove(down)
            i += 1
    return not remaining


def test_grid_config_validation():
    with pytest.raises(InputError):
        xp.GridRoutingConfig(side=1)
    with pytest.raises(InputError):
        xp.GridRoutingConfig(bypass_share=1.5)
    with pytest.raises(InputError):
        xp.GridRoutingConfig(bypass_share=-0.1)


def test_grid_dimensions():
    cfg = xp.GridRoutingConfig()
    assert cfg.n_grid_edges == 60
    assert cfg.n_vertices == 80
    data = xp.gen_grid_routes(cfg, 0)
    assert data.bypass == frozenset(range(60, 80))
    assert len(data.train) == 50 and len(data.test) == 50


def test_grid_determinism():
    cfg = xp.GridRoutingConfig()
    a = xp.gen_grid_routes(cfg, 11)
    b = xp.gen_grid_routes(cfg, 11)
    assert a.train == b.train and a.test == b.test
    c = xp.gen_grid_routes(cfg, 12)
    assert c.train != a.train


def test_grid_samples_are_bypass_or_paths():
    cfg = xp.GridRoutingConfig()
    for seed in (0, 1):
        data = xp.gen_grid_routes(cfg, seed)
        for sample in data.train + data.test:
            if sample == data.bypass:
                continue
            assert max(sample) < cfg.n_grid_edges
            assert len(sample) == 2 * (cfg.side - 1)
            assert _walk_monotone(cfg, sample)


def test_grid_frozen_seed_zero():
    data = xp.gen_grid_routes(xp.GridRoutingConfig(), 0)
    assert sorted(data.train[0]) == [0, 1, 12, 13, 29, 32, 38, 46, 52, 58]
    assert data.train[1] == data.bypass
    assert sorted(data.test[0]) == [10, 11, 12, 13, 14, 30, 36, 47, 53, 59]
    assert sum(1 for s in data.train if s == data.bypass) == 8
    assert sum(1 for s in data.test if s == data.bypass) == 4


def test_grid_bypass_rate():
    # binomial(500, 0.15): mean 75, sigma ~ 8
    cfg = xp.GridRoutingConfig()
    pooled = 0
    for seed in range(5):
        d = xp.gen_grid_routes(cfg, seed)
        pooled += sum(1 for s in d.train + d.test if s == d.bypass)
    assert pooled == 77
    assert 43 <= pooled <= 107


def test_grid_path_tie_break_prefers_small_ids():
    cfg = xp.GridRoutingConfig()
    path = xp._shortest_monotone_path(cfg, [1.0] * cfg.n_grid_edges)
    assert sorted(path) == [0, 1, 2, 3, 4, 35, 41, 47, 53, 59]


@pytest.mark.parametrize("side", [2, 3, 4, 6])
def test_grid_path_matches_enumeration_on_tied_weights(side):
    # small integer weights tie many paths exactly, so the id-sequence
    # tie-break decides; a numpy array and its list of floats give one path
    cfg = xp.GridRoutingConfig(side=side)
    gen = np.random.default_rng(side)
    for high in (1, 2, 3, 4):
        for _ in range(100):
            weights = gen.integers(0, high, cfg.n_grid_edges).astype(float)
            path = xp._shortest_monotone_path(cfg, weights.tolist())
            assert path == xp._shortest_monotone_path(cfg, weights)
            assert path == monotone_path_reference(side, weights)
    for _ in range(100):
        weights = gen.uniform(cfg.weight_low, cfg.weight_high, cfg.n_grid_edges)
        assert xp._shortest_monotone_path(cfg, weights.tolist()) == monotone_path_reference(side, weights)


# ---------------------------------------------------------------- trip planning


def test_trip_config_validation():
    for bad in ({"core_density": 0.0}, {"core_density": 1.5},
                {"core_mass": 0.0}, {"core_mass": 1.2}):
        with pytest.raises(InputError):
            xp.TripPlanConfig(**bad)


# sizes that would corrupt the draws: a negative n_train makes the test slice
# take training samples, a negative n_test empties the test split, a negative
# bypass draws grid edge ids past n, and empty groups divide by zero or draw
# from an empty range
@pytest.mark.parametrize("config, bad", [
    (xp.TripPlanConfig, {"n_train": -3}),
    (xp.TripPlanConfig, {"n_test": -1}),
    (xp.TripPlanConfig, {"groups": 0}),
    (xp.TripPlanConfig, {"groups": -1}),
    (xp.TripPlanConfig, {"group_size": 0}),
    (xp.GridRoutingConfig, {"n_train": -2}),
    (xp.GridRoutingConfig, {"n_test": -1}),
    (xp.GridRoutingConfig, {"bypass_len": -1}),
])
def test_config_sizes_checked(config, bad):
    (name, value), = bad.items()
    with pytest.raises(InputError, match=f"{name} must be >= .*, got {value}"):
        config(**bad)


# a float size escapes as a TypeError from range or numpy, and a bool size
# runs as 0 or 1
@pytest.mark.parametrize("config, bad", [
    (xp.TripPlanConfig, {"groups": 2.5}),
    (xp.TripPlanConfig, {"group_size": 3.0}),
    (xp.TripPlanConfig, {"n_train": True}),
    (xp.TripPlanConfig, {"n_test": False}),
    (xp.GridRoutingConfig, {"side": 2.5}),
    (xp.GridRoutingConfig, {"side": True}),
    (xp.GridRoutingConfig, {"bypass_len": 1.0}),
    (xp.GridRoutingConfig, {"n_train": True}),
])
def test_config_sizes_must_be_ints(config, bad):
    (name, value), = bad.items()
    with pytest.raises(InputError, match=f"{name} must be an int, got {value}"):
        config(**bad)


def test_grid_weight_range_checked():
    # numpy's uniform would raise its own ValueError at the first draw
    with pytest.raises(InputError, match="weight_low must be <= weight_high, got 2.0 > 0.1"):
        xp.GridRoutingConfig(weight_low=2.0, weight_high=0.1)
    assert xp.gen_grid_routes(xp.GridRoutingConfig(weight_low=1.0, weight_high=1.0, n_test=1), 0).test


def test_config_empty_splits_and_bypass_accepted():
    assert xp.gen_grid_routes(xp.GridRoutingConfig(bypass_len=0, n_test=0), 0).test == ()
    assert xp.gen_trip_samples(xp.TripPlanConfig(n_train=0, n_test=3), 0).train == ()


def test_trip_core_layout():
    cfg = xp.TripPlanConfig()
    assert cfg.core_per_group == 4
    data = xp.gen_trip_samples(cfg, 3)
    assert data.core == frozenset(
        g * 10 + a for g in range(5) for a in range(4)
    )
    assert len(data.core) == 20


def test_trip_determinism():
    cfg = xp.TripPlanConfig()
    a = xp.gen_trip_samples(cfg, 5)
    b = xp.gen_trip_samples(cfg, 5)
    assert a.train == b.train and a.test == b.test
    assert xp.gen_trip_samples(cfg, 6).train != a.train


def test_trip_one_pick_per_group():
    cfg = xp.TripPlanConfig()
    data = xp.gen_trip_samples(cfg, 3)
    for sample in data.train + data.test:
        assert len(sample) == cfg.groups
        assert sorted(v // cfg.group_size for v in sample) == list(range(cfg.groups))


def test_trip_frozen_seed_three():
    data = xp.gen_trip_samples(xp.TripPlanConfig(), 3)
    assert sorted(data.train[0]) == [3, 18, 25, 36, 43]
    assert data.degenerate_complement is False


def test_trip_pure_core_rate():
    # binomial(600, 0.8): mean 480, sigma ~ 10
    cfg = xp.TripPlanConfig()
    pure = 0
    for seed in range(3):
        d = xp.gen_trip_samples(cfg, seed)
        pure += sum(1 for s in d.train + d.test if s <= d.core)
    assert pure == 480
    assert 440 <= pure <= 520


def test_trip_full_core_falls_back():
    """core_density=1 leaves no complement; draws fall back and get flagged."""
    cfg = xp.TripPlanConfig(groups=2, group_size=3, core_density=1.0,
                            core_mass=0.5, n_train=30, n_test=10)
    data = xp.gen_trip_samples(cfg, 0)
    assert data.core == frozenset(range(6))
    assert data.degenerate_complement is True
    assert all(s <= data.core for s in data.train + data.test)


def test_trip_core_mass_one_is_all_pure():
    cfg = xp.TripPlanConfig(core_mass=1.0, n_train=20, n_test=5)
    data = xp.gen_trip_samples(cfg, 7)
    assert all(s <= data.core for s in data.train + data.test)
    assert data.degenerate_complement is False


@pytest.mark.parametrize("config", [
    {"core_density": 0.1}, {"core_density": 0.4}, {"core_density": 0.95},
    {"core_density": 1.0}, {"core_mass": 1.0},
], ids=["density-0.1", "density-0.4", "density-0.95", "density-1", "mass-1"])
def test_trip_matches_per_generator_reference(config):
    cfg = xp.TripPlanConfig(**config)
    for seed in (0, 7, 2**32, 2**64 + 3):
        data = xp.gen_trip_samples(cfg, seed)
        assert (data.train, data.test, data.degenerate_complement) == trip_samples_reference(cfg, seed)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random, 15 ms to import, loads only once a stream is built
    code = "import sys, chaincover.experiments\nprint('numpy.random' in sys.modules)"
    assert run_child(code).strip() == "False"


# ---------------------------------------------------------------- adversarial


def test_adversarial_structure():
    h = xp.gen_adversarial(6, 2, Fraction(1, 4))
    assert h.n == 8
    assert len(h.edges) == 3
    assert h.total_weight == 1
    assert h.edges[0].vertices == frozenset(range(6))
    assert h.edges[0].weight == Fraction(1, 4)
    for i, e in enumerate(h.edges[1:]):
        assert e.vertices == frozenset({6 + i})
        assert e.weight == Fraction(3, 8)


def test_adversarial_validation():
    with pytest.raises(InputError):
        xp.gen_adversarial(3, 3, Fraction(1, 4))
    with pytest.raises(InputError):
        xp.gen_adversarial(5, 0, Fraction(1, 4))
    with pytest.raises(InputError):
        xp.gen_adversarial(5, 2, 0)
    with pytest.raises(InputError):
        xp.gen_adversarial(5, 2, 1)


@pytest.mark.parametrize("a, b", [(30.0, 3), (6, 2.0), (True, 0), ("6", 2)])
def test_adversarial_sizes_must_be_ints(a, b):
    with pytest.raises(InputError, match=f"^{re.escape(f'a and b must be ints, got a={a!r}, b={b!r}')}$"):
        xp.gen_adversarial(a, b, "1/5")


def test_adversarial_size_order_message_kept():
    with pytest.raises(InputError, match=r"^need a > b >= 1, got a=3, b=3$"):
        xp.gen_adversarial(3, 3, "1/5")


@pytest.mark.parametrize("seed", [-1, 2.5, True, False, "1", None, np.int64(1)])
@pytest.mark.parametrize("generate", [
    lambda seed: xp.gen_trip_samples(xp.TripPlanConfig(), seed),
    lambda seed: xp.gen_grid_routes(xp.GridRoutingConfig(), seed),
    lambda seed: xp.comparison_rows("grid", [seed], ["1/2"]),
    lambda seed: xp.comparison_rows("trip", [seed], ["1/2"]),
], ids=["trip", "grid", "grid-rows", "trip-rows"])
def test_generator_seeds_must_be_non_negative_ints(generate, seed):
    message = "seed must be >= 0, got -1" if seed == -1 else f"seed must be an int, got {seed!r}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        generate(seed)


def test_adversarial_chain_vs_reverse_greedy():
    """Chain keeps the b singletons; count-based peeling keeps everything.

    Training counts tie at one path per edge, so the descending-id tie break
    peels a singleton first and immediately drops mass coverage below 1-eps.
    """
    a, b, eps = 6, 2, Fraction(1, 4)
    h = xp.gen_adversarial(a, b, eps)
    tau = 1 - eps

    chain = nested_chain(h)
    assert [len(s) for s in chain.sets] == [0, b, a + b]
    assert chain.residuals == (Fraction(1), eps, Fraction(0))
    sel = select(chain, tau, Fraction(1))
    assert sel.vertex_set == frozenset({6, 7})

    samples = [e.vertices for e in h.edges]
    # eval replicated by mass: path x2, each singleton x3 (denominator lcm 8)
    weighted_eval = [samples[0]] * 2 + [samples[1]] * 3 + [samples[2]] * 3
    results, _ = reverse_greedy(samples, weighted_eval, [tau], h.n)
    kept = results[tau]
    assert len(kept.vertex_set) == a + b
    assert kept.coverage == 1


@pytest.mark.parametrize("a, b, eps, kappa", [
    (5, 2, Fraction(1, 4), 3),                # (1 + kappa) * eps = 1
    (5, 2, Fraction(5, 7), Fraction(1, 10)),  # b * eps = a * (1 - eps)
    (30, 3, Fraction(19, 20), Fraction(1, 100)),
])
def test_adversarial_rows_outside_the_regime_build_no_chain(monkeypatch, a, b, eps, kappa):
    monkeypatch.setattr(xp, "nested_chain", lambda h: pytest.fail("chain built"))
    with pytest.raises(InputError, match=r"needs b\*eps < a\*\(1-eps\) and \(1\+kappa\)\*eps < 1"):
        xp.adversarial_rows(a, b, eps, kappa, [0])


def test_adversarial_rows_just_inside_the_regime():
    rows = xp.adversarial_rows(5, 2, Fraction(2, 3), Fraction(1, 10), [0])
    assert [(r.method, r.size) for r in rows] == [("chain", 2), ("reverse_greedy", 5)]


def test_adversarial_rows_do_not_grow_with_the_common_denominator():
    # D = 1000000007: a sweep that lists edges by their integer masses would
    # need about 3e9 entries; the child's address space is capped at 1 GiB
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from chaincover.experiments import adversarial_rows\n"
        "from chaincover.io import result_csv\n"
        "print(result_csv(adversarial_rows(30, 3, '1/1000000007', 1, [0])), end='')\n"
    )
    env = child_env()
    env["OPENBLAS_NUM_THREADS"] = "1"
    assert run_child(code, env).splitlines() == [
        "method,phi,size,coverage,seed",
        "chain,0.999999999,3,0.999999999,0",
        "reverse_greedy,0.999999999,33,1,0",
    ]


# ---------------------------------------------------------------- comparison


TRAIN = [frozenset({0}), frozenset({0}), frozenset({1}), frozenset({2, 3})]
TEST = [frozenset({0}), frozenset({1}), frozenset({4})]


def test_chain_cover_frozen():
    out = xp.chain_cover(5, TRAIN, TEST, [0, Fraction(1, 3), Fraction(2, 3), 1])
    assert out[Fraction(0)] == (frozenset(), Fraction(0))
    assert out[Fraction(1, 3)] == (frozenset({0}), Fraction(1, 3))
    assert out[Fraction(2, 3)] == (frozenset({0, 1}), Fraction(2, 3))
    # phi=1 needs vertex 4, which no chain set contains: augmentation kicks in
    assert out[Fraction(1)] == (frozenset(range(5)), Fraction(1))


def test_chain_cover_validation():
    with pytest.raises(InputError):
        xp.chain_cover(5, TRAIN, [], [Fraction(1, 2)])
    with pytest.raises(InputError):
        xp.chain_cover(5, TRAIN, TEST, [Fraction(3, 2)])


def test_run_comparison_rows_sorted_and_complete():
    phis = [Fraction(2, 3), Fraction(1, 3)]
    rows = xp.run_comparison(5, TRAIN, TEST, phis,
                             ("chain", "forward_greedy", "reverse_greedy"), 9)
    assert len(rows) == 6
    keys = [(r.method, r.phi, r.seed) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.coverage >= r.phi
        assert r.seed == 9


def test_run_comparison_method_filter():
    rows = xp.run_comparison(5, TRAIN, TEST, [Fraction(1, 2)], ("chain",), 0)
    assert [r.method for r in rows] == ["chain"]
    with pytest.raises(InputError):
        xp.run_comparison(5, TRAIN, TEST, [Fraction(1, 2)], ("chain", "pagerank"), 0)


@pytest.mark.parametrize("methods", [
    ("forward_greedy", "reverse_greedy"), ("forward_greedy",), ("reverse_greedy",), ("chain",),
])
def test_run_comparison_rejects_out_of_range_training_ids(methods):
    with pytest.raises(InputError, match=r"vertex id 9 outside \[0, 2\)"):
        xp.run_comparison(2, [frozenset({0, 9})], [frozenset({0, 9})], [1], methods, 0)
    # an evaluation sample past [0, n) is only never covered
    rows = xp.run_comparison(2, [frozenset({0, 1})], [frozenset({0, 9})], [1], methods, 0)
    assert {r.coverage for r in rows} == {0}


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (2.5, "seed must be an int, got 2.5"),
    (True, "seed must be an int, got True"),
])
def test_row_seeds_are_checked_before_any_chain(monkeypatch, seed, message):
    # a row's seed column took -1, 2.5 and True as given
    def no_chain(*args):
        raise AssertionError("a chain was built before the seed was checked")

    monkeypatch.setattr(xp, "nested_chain", no_chain)
    monkeypatch.setattr(xp, "_sample_chain", no_chain)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        xp.run_comparison(5, TRAIN, TEST, ["1/2"], ("chain", "forward_greedy", "reverse_greedy"), seed)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        xp.adversarial_rows(6, 2, "1/4", 1, [0, seed])


# sha256 of result_csv(comparison_rows(kind, [0, 1, 2], default_phi_grid())):
# every draw of both generators at seeds 0-2 feeds these bytes
CSV_SHA256 = {
    "trip": "a6c7a487a0571d3f9c792792012eca5990fc233629debbc9ebcbb74b3719f0ea",
    "grid": "3c8063e509ddfe1baec6a204b098f15407b64f1c2e25858e583ef903a190eb51",
}


def test_comparison_kind_checked_without_seeds():
    with pytest.raises(InputError, match="unknown comparison kind 'bogus'"):
        xp.comparison_rows("bogus", [], xp.default_phi_grid())


@pytest.mark.parametrize("kind", sorted(CSV_SHA256))
def test_comparison_csv_pinned(kind):
    csv = result_csv(xp.comparison_rows(kind, [0, 1, 2], xp.default_phi_grid()))
    assert hashlib.sha256(csv.encode()).hexdigest() == CSV_SHA256[kind]
