import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chaincover import (
    CalibrationState,
    InputError,
    LabeledPair,
    WeightedHypergraph,
    calibrate,
    calibrate_stage1,
    calibrate_stage2,
    conformal,
    distance_edge_symdiff,
    fixed_context_fit,
    nested_chain,
    predict,
    quantile_index,
    tau_threshold,
)
from chaincover import chain as chain_module
from chaincover.experiments import TripPlanConfig, chain_cover, default_phi_grid, gen_trip_samples
from chaincover.rng import stream

from conftest import run_child
from oracles import fixed_order_reference, random_hypergraph


def test_distance_edge_symdiff():
    assert distance_edge_symdiff(frozenset({1, 2, 3}), frozenset({1, 2, 3})) == 0
    assert distance_edge_symdiff(frozenset({1, 2, 3}), frozenset({2, 3, 4})) == 2
    assert distance_edge_symdiff(frozenset(), frozenset({0, 5})) == 2


def test_quantile_index_arithmetic():
    assert quantile_index(Fraction(9, 10), 99) == 90
    assert quantile_index(Fraction(1, 10), 1) == 1
    assert quantile_index(Fraction(7, 10), 100) == 71
    assert quantile_index(Fraction(3, 4), 6) == 6
    assert quantile_index(Fraction(1), 5) == 6  # overflow: beyond the sample
    assert quantile_index(Fraction(0), 5) == 0


def _uniform_universe() -> WeightedHypergraph:
    return WeightedHypergraph.build(
        8,
        [({0, 1}, 1), ({2, 3}, 1), ({4, 5, 6}, 1)],
    )


def _pair(pred, truth, universe=None):
    return LabeledPair(frozenset(pred), frozenset(truth), universe or _uniform_universe())


def test_stage1_quantiles_frozen():
    pairs = [
        _pair({0, 1}, {0, 1}),          # distance 0
        _pair({0, 1}, {0, 2}),          # distance 2
        _pair({0, 1}, {2, 3}),          # distance 4
    ]
    assert calibrate_stage1(pairs, Fraction(1, 4)) == 4   # index 3 of 3
    assert calibrate_stage1(pairs, Fraction(1, 2)) == 2   # index 2
    assert calibrate_stage1(pairs, Fraction(9, 10)) == 0  # index 1
    # index ceil(0.95 * 4) = 4 exceeds the three scores
    assert calibrate_stage1(pairs, Fraction(1, 20)) == math.inf


def test_stage1_all_equal_scores():
    pairs = [_pair({0, 1}, {0, 2})] * 5
    for delta in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
        assert calibrate_stage1(pairs, delta) == 2


def test_stage1_input_validation():
    with pytest.raises(InputError):
        calibrate_stage1([], Fraction(1, 10))
    pairs = [_pair({0}, {0})]
    for bad in (0, 1, 2, -1):
        with pytest.raises(InputError):
            calibrate_stage1(pairs, bad)


def test_stage2_scores_frozen():
    # uniform three-edge universe: chain [empty, {0..3}, {0..6}], W = 3;
    # entering at level 1 scores 1/2, level 2 scores 5/6, off-chain 1
    pairs = [
        _pair({0, 1}, {0, 1}),
        _pair({2, 3}, {2, 3}),
        _pair({4, 5, 6}, {4, 5, 6}),
        _pair({0, 1}, {0, 1}),
        _pair({7}, {7}),
    ]
    tau_star, etas = calibrate_stage2(pairs, math.inf, Fraction(1, 2), 1)
    assert [e.value for e in etas] == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(5, 6),
        Fraction(1, 2),
        Fraction(1),
    ]
    assert [e.censored for e in etas] == [False] * 5
    assert tau_star == Fraction(1, 2)
    assert calibrate_stage2(pairs, math.inf, Fraction(2, 3), 1)[0] == Fraction(5, 6)
    # quantile index overflows the five scores
    assert calibrate_stage2(pairs, math.inf, Fraction(9, 10), 1)[0] == 1


def test_stage2_tau_star_monotone_in_phi():
    # scores 1/2, 1/2, 1/2, 5/6, 1; index 0 (phi = 0) needs no score
    pairs = [_pair({0, 1}, {0, 1}), _pair({2, 3}, {2, 3}), _pair({4, 5, 6}, {4, 5, 6}),
             _pair({0, 1}, {0, 1}), _pair({7}, {7})]
    phis = [Fraction(0), Fraction(1, 100), Fraction(1, 6), Fraction(1, 2), Fraction(1)]
    taus = [calibrate_stage2(pairs, math.inf, phi, 1)[0] for phi in phis]
    assert taus == [0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 1]
    assert taus == sorted(taus)
    assert calibrate_stage2([], math.inf, 0, 1) == (0, ())


def test_stage2_censors_distant_truths():
    pairs = [_pair({0, 1}, {0, 1}), _pair({0, 1}, {2, 3})]
    _, etas = calibrate_stage2(pairs, 0, Fraction(1, 2), 1)
    assert not etas[0].censored
    assert etas[1].censored and etas[1].value == 1
    # kappa is checked even when every stage-2 pair is censored, so that
    # tau_threshold never runs: stage 1 gives d* = 0, stage 2 sees distance 4
    d1 = [_pair({0, 1}, {0, 1})] * 20
    d2 = [_pair({0, 1}, {2, 3})] * 4
    assert calibrate(d1, d2, "4/5", "1/10", 1).d_star == 0
    for kappa in (0, -3):
        with pytest.raises(InputError, match="slack"):
            calibrate(d1, d2, "4/5", "1/10", kappa)


def _skewed_universe() -> WeightedHypergraph:
    return WeightedHypergraph.build(
        7,
        [({0, 1}, Fraction(1, 100)), ({2, 3}, Fraction(1, 100)), ({4, 5, 6}, Fraction(98, 100))],
    )


SKEWED_D2 = [{0, 1}, {2, 3}, {4, 5, 6}, {0, 1}, {2, 3}]


def test_stage2_scores_the_universe_weights():
    # the family keeps the universe's masses: {4,5,6} carries 98/100 and
    # enters first, so it scores 1/2; the light pairs need the top set,
    # which the residual 2/100 of {4,5,6} reaches only at tau = 99/100
    # (with unit weights the order flips: 1/2, 1/2, 5/6, 1/2, 1/2)
    universe = _skewed_universe()
    pairs = [_pair(s, s, universe) for s in SKEWED_D2]
    tau_star, etas = calibrate_stage2(pairs, math.inf, Fraction(1, 2), 1)
    hi = Fraction(99, 100)
    assert [e.value for e in etas] == [hi, hi, Fraction(1, 2), hi, hi]
    assert not any(e.censored for e in etas)
    assert tau_star == hi


def test_calibrate_takes_no_family_argument():
    pairs = [_pair({0, 1}, {0, 1})] * 2
    family = lambda pair, d_star: pair.universe  # noqa: E731
    with pytest.raises(TypeError):
        calibrate(pairs, pairs, Fraction(1, 2), edge_source=family)
    with pytest.raises(TypeError):
        calibrate_stage2(pairs, math.inf, Fraction(1, 2), 1, family)


def test_stage2_builds_one_chain_per_distinct_family(monkeypatch):
    # a and a_copy are equal but distinct objects; b differs in one weight.
    # Under d* = 2 the prediction {0, 1} keeps {0,1} and {0,1,2}, {2, 3}
    # keeps {2,3} alone and {4, 5, 6} keeps {4,5,6} alone.
    edges = [({0, 1}, 1), ({2, 3}, 1), ({4, 5, 6}, 1), ({0, 1, 2}, 1)]
    a, a_copy = WeightedHypergraph.build(8, edges), WeightedHypergraph.build(8, edges)
    b = WeightedHypergraph.build(8, [({0, 1}, 2)] + edges[1:])
    assert a == a_copy and a is not a_copy and a != b
    pairs = [
        _pair({0, 1}, {0, 1}, a),
        _pair({0, 1}, {5, 6, 7}, a),           # censored
        _pair({0, 1}, {0, 1, 2}, a_copy),
        _pair({2, 3}, {2, 3}, a),
        _pair({0, 1}, {0, 1}, b),
        _pair({2, 3}, {2}, a_copy),
        _pair({4, 5, 6}, {1, 2, 3, 7}, b),     # censored
        _pair({4, 5, 6}, {4, 5}, a),
        _pair({0, 1}, {0, 1, 2}, b),
    ]
    d_star, kappa = 2, Fraction(1, 2)
    reference, families = [], set()
    for p in pairs:
        if distance_edge_symdiff(p.prediction, p.truth) > d_star:
            reference.append((Fraction(1), True))
            continue
        family = WeightedHypergraph(p.universe.n, tuple(
            e for e in p.universe.edges if distance_edge_symdiff(p.prediction, e.vertices) <= d_star
        ))
        families.add(family)
        reference.append((tau_threshold(nested_chain(family), p.truth, kappa), False))
    assert len(families) == 4
    built = []
    monkeypatch.setattr(conformal, "nested_chain", lambda h: built.append(h) or nested_chain(h))
    _, etas = calibrate_stage2(pairs, d_star, Fraction(1, 2), kappa)
    assert len(built) == len(families)
    assert set(built) == families
    assert [(e.value, e.censored) for e in etas] == reference


def test_stage2_empty_is_full_threshold():
    assert calibrate_stage2([], math.inf, Fraction(1, 2), 1) == (Fraction(1), ())


def test_calibrate_end_to_end_frozen():
    d1 = [
        _pair({0, 1}, {0, 1}),
        _pair({2, 3}, {2, 3}),
        _pair({0, 1}, {0, 2}),
    ]
    d2 = [
        _pair({0, 1}, {0, 1}),
        _pair({2, 3}, {2, 3}),
        _pair({4, 5, 6}, {4, 5, 6}),
    ]
    state = calibrate(d1, d2, Fraction(1, 2), delta=Fraction(1, 4), kappa=1)
    assert state.d_star == 2
    assert state.tau_star == Fraction(1, 2)
    assert state.delta == Fraction(1, 4)
    # default delta is a twentieth of phi; index then overflows three pairs
    state2 = calibrate(d1, d2, Fraction(1, 2), kappa=1)
    assert state2.delta == Fraction(1, 40)
    assert state2.d_star == math.inf


def test_predict_extremes_and_interior(three_path_instance):
    chain = nested_chain(three_path_instance)

    def state(tau):
        return CalibrationState(0.0, Fraction(tau), Fraction(1, 2), Fraction(1, 40), Fraction(1), ())

    assert predict(chain, state(0)) == frozenset()
    assert predict(chain, state(1)) == frozenset({0, 1, 2, 3, 4, 5, 6})
    assert predict(chain, state("11/20")) == frozenset({0, 1, 2, 3})


def _state_at(tau):
    return CalibrationState(0.0, Fraction(tau), Fraction(1, 2), Fraction(1, 40), Fraction(1), ())


def test_predict_covers_exact_score_boundary(three_path_instance):
    # a truth scoring exactly tau* must be covered; the non-strict selector
    # sits one level lower at this knife edge by design
    chain = nested_chain(three_path_instance)
    b = frozenset({0})
    eta = tau_threshold(chain, b, 1)
    assert eta == Fraction(1, 2)
    from chaincover import select

    assert not b <= select(chain, eta, 1).vertex_set
    assert b <= predict(chain, _state_at(eta))


@pytest.mark.parametrize("seed", range(4))
def test_predict_containment_region_closed(seed):
    rng = np.random.default_rng(4500 + seed)
    h = random_hypergraph(rng, 6, 7, allow_empty_edges=False)
    if h.total_weight == 0:
        return
    chain = nested_chain(h)
    top = sorted(chain.sets[-1])
    if not top:
        return
    grid = [Fraction(j, 100) for j in range(101)]
    for target in (frozenset(top[:1]), chain.sets[-1]):
        t = tau_threshold(chain, target, 1)
        for g in grid:
            contained = target <= predict(chain, _state_at(g))
            assert contained == (g >= t), (g, t)


@pytest.mark.parametrize("seed", range(5))
def test_threshold_monotone_under_subsets(seed):
    rng = np.random.default_rng(4000 + seed)
    h = random_hypergraph(rng, 6, 7, allow_empty_edges=False)
    chain = nested_chain(h)
    top = sorted(chain.sets[-1])
    if not top:
        return
    for _ in range(10):
        big = frozenset(int(v) for v in rng.choice(top, size=rng.integers(1, len(top) + 1), replace=False))
        small = frozenset(v for v in big if rng.random() < 0.5)
        assert tau_threshold(chain, small, 1) <= tau_threshold(chain, big, 1)


# ------------------------------------------------------- synthetic pipeline


def _random_context(gen):
    """Universe with per-context random weights, one edge drawn as the truth."""
    n = 6
    edges = []
    for _ in range(5):
        size = int(gen.integers(2, 5))
        verts = frozenset(int(v) for v in gen.choice(n, size=size, replace=False))
        edges.append((verts, Fraction(int(gen.integers(1, 1000)), 1000)))
    universe = WeightedHypergraph.build(n, edges)
    truth = edges[int(gen.integers(0, len(edges)))][0]
    u = gen.random()
    if u < 0.6:
        pred = truth
    else:
        flips = 1 if u < 0.85 else 2
        toggle = frozenset(int(v) for v in gen.choice(n, size=flips, replace=False))
        pred = truth ^ toggle
    return LabeledPair(pred, truth, universe)


def _weighted_family(pair, d_star, distance=distance_edge_symdiff):
    members = [
        (e.vertices, e.weight)
        for e in pair.universe.edges
        if distance(pair.prediction, e.vertices) <= d_star
    ]
    return WeightedHypergraph.build(pair.universe.n, members)


def test_pipeline_marginal_coverage_monte_carlo():
    # Lemma-style check: coverage over fresh exchangeable pairs stays above
    # phi - delta - 3 sigma.  Weighted per-context families keep the score
    # distribution nearly atom-free, so the quantile argument is sharp.
    phi, delta = Fraction(4, 5), Fraction(1, 20)
    d1 = [_random_context(stream(90, t)) for t in range(60)]
    d2 = [_random_context(stream(91, t)) for t in range(60)]
    state = calibrate(d1, d2, phi, delta=delta, kappa=1)
    n_test = 2000
    hits = 0
    for t in range(n_test):
        pair = _random_context(stream(92, t))
        chain = nested_chain(_weighted_family(pair, state.d_star))
        hits += pair.truth <= predict(chain, state)
    sigma = math.sqrt(phi * (1 - phi) / n_test)
    assert hits / n_test >= float(phi - delta) - 3 * sigma


# One fixed universe; each outcome pairs the empty prediction with one of its
# positive-weight hyperedges as the truth, drawn with the given probability.
# A pair's distance is its truth's size, so d* is 1 or 2, and a family at
# d* = 1 leaves out {2, 3}: that truth is then censored.
_TWO_STAGE_UNIVERSE = WeightedHypergraph.build(4, [({0}, 8), ({1}, 4), ({2}, 2), ({2, 3}, 1)])
_TWO_STAGE_OUTCOMES = [
    (LabeledPair(frozenset(), e.vertices, _TWO_STAGE_UNIVERSE), p)
    for e, p in zip(_TWO_STAGE_UNIVERSE.edges, [Fraction(3, 10)] * 3 + [Fraction(1, 10)])
]


def _multisets(m):
    """Each multiset of m i.i.d. outcomes, as a list of pairs, with its multinomial probability."""
    for combo in itertools.combinations_with_replacement(range(len(_TWO_STAGE_OUTCOMES)), m):
        weight = Fraction(math.factorial(m))
        for i in set(combo):
            weight *= _TWO_STAGE_OUTCOMES[i][1] ** combo.count(i) / math.factorial(combo.count(i))
        yield [_TWO_STAGE_OUTCOMES[i][0] for i in combo], weight


def test_two_stage_coverage_is_exact():
    # d1 (9 pairs), d2 (3 pairs) and the test pair are i.i.d.; every multiset
    # of d1 and of d2 is enumerated with its exact probability.  Stage 1 at
    # delta = 1/10 keeps the largest d1 distance, so d* is always finite
    delta, kappa = Fraction(1, 10), Fraction(1)
    d_star: dict[float, Fraction] = {}
    d1_of: dict[float, list[LabeledPair]] = {}  # calibrate reads d1 through d* alone
    for d1, weight in _multisets(9):
        d = calibrate_stage1(d1, delta)
        d_star[d] = d_star.get(d, 0) + weight
        d1_of.setdefault(d, d1)
    assert d_star == {1: Fraction(9, 10) ** 9, 2: 1 - Fraction(9, 10) ** 9}
    # the test pair's chain, on its family built as stage 2 builds it, and its score
    test_side = {}
    for d in d_star:
        for z, _ in _TWO_STAGE_OUTCOMES:
            family = WeightedHypergraph(z.universe.n, tuple(
                e for e in z.universe.edges if distance_edge_symdiff(z.prediction, e.vertices) <= d
            ))
            eta = calibrate_stage2([z], d, 1, kappa)[1][0]  # a score does not depend on phi
            test_side[d, z] = nested_chain(family), eta
    censored = sum(d_star[d] * p for d in d_star for z, p in _TWO_STAGE_OUTCOMES
                   if test_side[d, z][1].censored)
    assert censored == Fraction(9, 10) ** 9 / 10 and 0 < censored <= delta
    pinned = {Fraction(1, 2): (Fraction(1609, 2500), Fraction(1606288056577, 2500000000000)),
              Fraction(2, 3): (Fraction(4271, 5000), Fraction(8437009047481, 10000000000000))}
    for phi in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
        score_in = covered = Fraction(0)
        for d, w1 in d_star.items():
            for d2, w2 in _multisets(3):
                state = calibrate(d1_of[d], d2, phi, delta, kappa)
                for z, p in _TWO_STAGE_OUTCOMES:
                    chain, eta = test_side[d, z]
                    score_in += w1 * w2 * p * (eta.value <= state.tau_star)
                    covered += w1 * w2 * p * (z.truth <= predict(chain, state))
        assert score_in >= phi
        assert covered >= phi - delta  # every truth is a positive-weight hyperedge
        assert pinned.get(phi, (score_in, covered)) == (score_in, covered)


# ------------------------------------------------------- fixed-context fit


def test_fixed_context_identical_samples():
    samples = [frozenset({1, 3})] * 10
    for phi in (Fraction(1, 2), Fraction(4, 5)):
        fit = fixed_context_fit(samples, phi, 5)
        assert fit.vertex_set == frozenset({1, 3})
        assert fit.second_half_coverage == 1


def test_fixed_context_phi_extremes():
    samples = [frozenset({0}), frozenset({1}), frozenset({0}), frozenset({0, 1})]
    assert fixed_context_fit(samples, 0, 3).vertex_set == frozenset()
    # quantile index exceeds the half size: whole vertex range returned
    assert fixed_context_fit(samples, 1, 3).vertex_set == frozenset(range(3))


def test_fixed_context_validation():
    with pytest.raises(InputError):
        fixed_context_fit([frozenset({0})], Fraction(1, 2), 2)
    with pytest.raises(InputError):
        fixed_context_fit([frozenset({5})] * 4, Fraction(1, 2), 2)
    with pytest.raises(InputError):
        fixed_context_fit([frozenset({0})] * 4, Fraction(3, 2), 2)


def test_fixed_context_prefix_is_shortest_adequate():
    gen = stream(77)
    for _ in range(8):
        t, n = 24, 7
        samples = [
            frozenset(int(v) for v in gen.choice(n, size=gen.integers(1, 4), replace=False))
            for _ in range(t)
        ]
        phi = Fraction(int(gen.integers(1, 20)), 20)
        fit = fixed_context_fit(samples, phi, n)
        second = samples[t // 2:]
        level = quantile_index(phi, len(second))
        if level > len(second) or level <= 0:
            continue
        covered = lambda L: sum(1 for s in second if s <= set(fit.order[:L]))
        assert covered(fit.prefix_len) >= level
        assert fit.prefix_len == 0 or covered(fit.prefix_len - 1) < level
        assert fit.second_half_coverage == Fraction(covered(fit.prefix_len), len(second))
        assert fit.vertex_set == frozenset(fit.order[: fit.prefix_len])


def test_fixed_context_monotone_in_phi():
    gen = stream(78)
    t, n = 30, 6
    samples = [
        frozenset(int(v) for v in gen.choice(n, size=gen.integers(1, 4), replace=False))
        for _ in range(t)
    ]
    lens = [
        fixed_context_fit(samples, Fraction(j, 15), n).prefix_len for j in range(0, 15)
    ]
    assert lens == sorted(lens)


def test_fixed_context_validity_monte_carlo():
    # repeated resampling: the held-out sample lands in the fitted set at
    # rate phi minus binomial noise
    phi = Fraction(3, 4)
    reps, t, n = 150, 40, 6
    pool = [
        frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}),
        frozenset({3}), frozenset({3, 4}), frozenset({5}),
    ]
    hits = 0
    for rep in range(reps):
        gen = stream(55, rep)
        draws = [pool[int(gen.integers(0, len(pool)))] for _ in range(t + 1)]
        fit = fixed_context_fit(draws[:t], phi, n)
        hits += draws[t] <= fit.vertex_set
    sigma = math.sqrt(phi * (1 - phi) / reps)
    assert hits / reps >= float(phi) - 3 * sigma


# 3-outcome test-draw distributions (n, [(outcome, probability)]) for the
# exact fixed-context check
_FIXED_DISTRIBUTIONS = {
    "A": (2, [(frozenset({0}), Fraction(1, 2)), (frozenset({1}), Fraction(1, 3)),
              (frozenset({0, 1}), Fraction(1, 6))]),
    "B": (4, [(frozenset({0, 1}), Fraction(3, 5)), (frozenset({2}), Fraction(1, 5)),
              (frozenset({1, 3}), Fraction(1, 5))]),
}


def _exact_fixed_coverage(n, outcomes, t, phi):
    """P(test draw inside fixed_context_fit of t draws), all t + 1 draws i.i.d.,
    summed exactly over every sequence of t draws."""
    total = Fraction(0)
    # product varies the last draws fastest, so runs of sequences share their
    # first half and the fits share one chain
    for seq in itertools.product(outcomes, repeat=t):
        fit = fixed_context_fit([s for s, _ in seq], phi, n).vertex_set
        total += math.prod(p for _, p in seq) * sum(p for s, p in outcomes if s <= fit)
    return total


@pytest.mark.parametrize("t", (2, 4, 6))
@pytest.mark.parametrize("name", sorted(_FIXED_DISTRIBUTIONS))
def test_fixed_context_coverage_is_exact(name, t):
    n, outcomes = _FIXED_DISTRIBUTIONS[name]
    pinned = {("A", 2, Fraction(1, 2)): Fraction(41, 54),
              ("A", 6, Fraction(2, 3)): Fraction(132739, 139968),
              ("B", 6, Fraction(2, 3)): Fraction(13698, 15625)}
    for phi in (Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(9, 10)):
        coverage = _exact_fixed_coverage(n, outcomes, t, phi)
        assert coverage >= phi
        assert pinned.get((name, t, phi), coverage) == coverage


def test_fixed_order_matches_the_recounting_greedy():
    # multisets with repeated samples, empty samples and vertices that no
    # first-half sample holds (outside the chain's top set)
    rnd = random.Random(2026)
    seen = {"duplicate": 0, "empty": 0, "outside": 0}
    for _ in range(300):
        n = rnd.randint(1, 9)
        pool = [frozenset(rnd.sample(range(n), rnd.randint(0, min(n, 4)))) for _ in range(5)]
        samples = [rnd.choice(pool) for _ in range(rnd.randint(2, 16))]
        fit = fixed_context_fit(samples, Fraction(rnd.randint(0, 10), 10), n)
        first = samples[: len(samples) // 2]
        assert fit.order == fixed_order_reference(fit.chain, first, n)
        seen["duplicate"] += len(set(first)) < len(first)
        seen["empty"] += frozenset() in first
        seen["outside"] += len(fit.chain.sets[-1]) < n
    assert min(seen.values()) >= 20, seen


def test_fixed_order_of_one_large_block_is_fast():
    # 30,000 distinct singletons make a single chain block, which the order
    # used to rescan for every vertex it placed
    run_child(
        "from chaincover import fixed_context_fit\n"
        "draws = [frozenset({v}) for v in range(30_000)] * 2\n"
        "fit = fixed_context_fit(draws, '9/10', 30_000)\n"
        "assert len(fit.chain.sets) == 2 and fit.order == tuple(range(30_000))\n"
        "assert fit.prefix_len == 27_001\n",
        timeout=60,
    )


# ------------------------------------------------ one chain per training multiset


def _count_chains(monkeypatch):
    """Empty the sample-chain memo and record every chain it builds."""
    chain_module._last_sample_chain.cache_clear()
    built = []
    monkeypatch.setattr(chain_module, "nested_chain", lambda h: built.append(h) or nested_chain(h))
    return built


def _uncached(call):
    chain_module._last_sample_chain.cache_clear()
    return call()


FIT_PHIS = (Fraction(7, 10), Fraction(4, 5), Fraction(9, 10))


def test_phi_sweep_and_chain_cover_build_one_chain(monkeypatch):
    trip = gen_trip_samples(TripPlanConfig(n_train=40, n_test=60), 5)
    draws = list(trip.train) + list(trip.test[:40])  # first half: the training draws
    calls = [lambda phi=phi: fixed_context_fit(draws, phi, trip.n) for phi in FIT_PHIS]
    calls.append(lambda: chain_cover(trip.n, trip.train, trip.test, default_phi_grid()))
    expected = [_uncached(call) for call in calls]
    built = _count_chains(monkeypatch)
    results = [call() for call in calls]
    assert len(built) == 1
    assert results == expected
    assert all(fit.chain is results[0].chain for fit in results[1:3])


def test_phi_sweep_and_chain_cover_build_one_order(monkeypatch):
    trip = gen_trip_samples(TripPlanConfig(n_train=40, n_test=60), 5)
    draws = list(trip.train) + list(trip.test[:40])  # first half: the training draws
    chain_module._last_sample_chain.cache_clear()
    built = []
    fixed_order = chain_module._fixed_order
    monkeypatch.setattr(chain_module, "_fixed_order",
                        lambda *args: built.append(args) or fixed_order(*args))
    fits = [fixed_context_fit(draws, phi, trip.n) for phi in FIT_PHIS]
    covers = chain_cover(trip.n, trip.train, trip.test, default_phi_grid())
    assert len(built) == 1
    assert all(fit.order is fits[0].order for fit in fits[1:])
    # every chain cover set is a prefix of the fits' order
    for res in covers.values():
        assert res.vertex_set == frozenset(fits[0].order[:len(res.vertex_set)])


def test_memo_keeps_only_the_last_multiset(monkeypatch):
    a = [frozenset({0, 1}), frozenset({2}), frozenset({0, 1}), frozenset({3, 4})]
    b = [frozenset({0}), frozenset({1, 2}), frozenset({0}), frozenset({4})]
    built = _count_chains(monkeypatch)
    fits = [fixed_context_fit(draws, Fraction(1, 2), 5) for draws in (a + a, b + b, a + a)]
    assert len(built) == 3
    for draws, fit in zip((a, b, a), fits):
        assert fit.chain == nested_chain(WeightedHypergraph.build(5, [(s, 1) for s in draws]))


@pytest.mark.parametrize("stand_in", [True, 1.0])
def test_memo_hit_still_rejects_non_int_ids(stand_in):
    draws = [frozenset({1, 2}), frozenset({0}), frozenset({1, 2}), frozenset({3})]
    fixed_context_fit(draws, Fraction(1, 2), 4)
    chain_cover(4, draws[:2], draws[2:], [1])
    swapped = [frozenset(stand_in if v == 1 else v for v in s) for s in draws]
    assert swapped == draws  # equal keys: only the id check tells them apart
    message = rf"vertex id {stand_in!r} outside \[0, 4\)"
    with pytest.raises(InputError, match=message):
        fixed_context_fit(swapped, Fraction(1, 2), 4)
    with pytest.raises(InputError, match=message):
        chain_cover(4, swapped[:2], swapped[2:], [1])


def test_list_and_set_samples_share_the_frozenset_entry(monkeypatch):
    draws = [frozenset({0, 1}), frozenset({2}), frozenset({1, 3}), frozenset({0, 1})]
    built = _count_chains(monkeypatch)
    fits = [
        fixed_context_fit(converted, Fraction(1, 2), 4)
        for converted in (draws, [sorted(s) for s in draws], [set(s) for s in draws])
    ]
    assert len(built) == 1
    assert fits[1:] == fits[:1] * 2
