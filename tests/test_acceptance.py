"""Acceptance checklist: ten end-to-end guarantees, one PASS/FAIL line each.

Lines are written to the real stdout so the checklist stays visible under
pytest's capture.  Every check is exact unless a tolerance is part of the
claim itself (coverage margins, chi-square significance).
"""

import math
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import scipy.stats

from chaincover import experiments as xp
from chaincover.baselines import forward_greedy
from chaincover.chain import nested_chain
from chaincover.compress import fractional_solution, select
from chaincover.conformal import fixed_context_fit
from chaincover.hypergraph import WeightedHypergraph
from chaincover.io import (
    load_chain,
    load_instance,
    result_csv,
    save_chain,
    save_instance,
)
from chaincover.rng import stream
from chaincover.samplers import (
    build_group_table,
    build_tree_table,
    build_walk_table,
    sample_itinerary,
    sample_subtree,
    sample_walk,
)

from oracles import (
    enum_itineraries,
    enum_subtrees,
    enum_walks,
    exact_min_size,
    mass_table,
    minimal_minimizer,
    phi_minimizers,
    random_hypergraph,
)


@pytest.fixture
def report(request):
    """One PASS/FAIL checklist line per criterion, visible despite capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    capman = request.config.pluginmanager.get_plugin("capturemanager")

    def emit(num: int, label: str, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} {num:02d} {label}: {detail}"
        if reporter is not None:
            # fd-level capture would otherwise swallow the terminal writes
            with capman.global_and_fixture_disabled() if capman else nullcontext():
                reporter.write_line("")
                reporter.write_line(line)
        else:
            sys.__stdout__.write(line + "\n")
        assert ok, line

    return emit


@lru_cache(maxsize=1)
def _bench_pool() -> tuple:
    """200 shared instances for the bound / nestedness / certificate checks."""
    rng = np.random.default_rng(202)
    pool = []
    for _ in range(200):
        h = random_hypergraph(rng, 14, 15, allow_empty_edges=False)
        pool.append((h, nested_chain(h)))
    return tuple(pool)


def test_01_chain_matches_exhaustive_minimizers(report):
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    midpoints = 0
    for _ in range(200):
        h = random_hypergraph(rng, 10, 15)
        table = mass_table(h)
        chain = nested_chain(h)
        lams = []
        prev = Fraction(0)
        for bp in chain.breakpoints:
            lams.append((prev + bp) / 2)
            prev = bp
        lams.append(prev + 1)
        assert len(lams) == len(chain.sets)
        for j, lam in enumerate(lams):
            assert chain.sets[j] == minimal_minimizer(h, lam, table)
            midpoints += 1
    elapsed = time.monotonic() - t0
    report(1, "parametric-cut oracle equivalence", elapsed < 120,
            f"200 instances, {midpoints} interval midpoints, {elapsed:.1f}s")


KAPPAS = (Fraction(1, 2), Fraction(1), Fraction(2))
TAUS = (Fraction(3, 5), Fraction(4, 5), Fraction(9, 10))


def test_02_bicriteria_bound_against_ilp(report):
    t0 = time.monotonic()
    checks = 0
    for h, chain in _bench_pool():
        table = mass_table(h)
        for tau in TAUS:
            r, _ = exact_min_size(h, tau, table)
            eps_mass = (1 - tau) * chain.total
            for kappa in KAPPAS:
                sel = select(chain, tau, kappa)
                assert len(sel.vertex_set) <= (1 + 1 / kappa) * r
                assert sel.residual <= (1 + kappa) * eps_mass
                checks += 1
    elapsed = time.monotonic() - t0
    report(2, "bicriteria size and residual bounds", elapsed < 300,
            f"200 instances x {len(TAUS)} tau x {len(KAPPAS)} kappa "
            f"({checks} checks) vs exhaustive optimum, {elapsed:.1f}s")


def test_03_selection_nested_where_exact_optima_are_not(report, three_path_instance):
    t0 = time.monotonic()
    grid = xp.default_phi_grid()
    for h, chain in _bench_pool():
        for kappa in KAPPAS:
            prev = frozenset()
            for tau in grid:
                cur = select(chain, tau, kappa).vertex_set
                assert prev <= cur
                prev = cur

    # two tight targets whose exact optima cannot be nested
    h = three_path_instance
    table = mass_table(h)
    r_low, opt_low = exact_min_size(h, Fraction(3, 5), table)
    r_high, opt_high = exact_min_size(h, Fraction(7, 10), table)
    assert (r_low, r_high) == (4, 5)
    assert len(opt_low) == 1
    low_set = opt_low[0]
    assert all(low_set & mask != low_set for mask in opt_high)
    chain = nested_chain(h)
    for kappa in KAPPAS:
        assert select(chain, Fraction(3, 5), kappa).vertex_set <= \
            select(chain, Fraction(7, 10), kappa).vertex_set
    elapsed = time.monotonic() - t0
    report(3, "tau sweep stays nested", True,
            f"200 instances x 3 kappa x 20 tau, plus the non-nested "
            f"exact-optima witness, {elapsed:.1f}s")


def test_04_fractional_certificate(report):
    t0 = time.monotonic()
    for h, chain in _bench_pool():
        table = mass_table(h)
        for tau in TAUS:
            frac = fractional_solution(chain, tau)
            dual, _, _ = phi_minimizers(h, frac.lam_star, table)
            assert frac.objective == dual + frac.lam_star * frac.target_mass
            lo, hi = chain.induced[frac.lower_index], chain.induced[frac.upper_index]
            covered = lo + frac.alpha * (hi - lo)
            assert covered == tau * chain.total
    elapsed = time.monotonic() - t0
    report(4, "fractional duality certificate and tight coverage", True,
            f"200 instances x {len(TAUS)} tau, exact rationals, {elapsed:.1f}s")


def test_05_fixed_context_coverage(report):
    t0 = time.monotonic()
    reps = 500
    phis = (Fraction(7, 10), Fraction(4, 5), Fraction(9, 10))
    cfg = xp.TripPlanConfig(core_density=0.4, n_train=100, n_test=101)
    hits = {phi: 0 for phi in phis}
    for rep in range(reps):
        data = xp.gen_trip_samples(cfg, 1000 + rep)
        draws = list(data.train) + list(data.test[:100])  # T = 200
        fresh = data.test[100]
        for phi in phis:
            fit = fixed_context_fit(draws, phi, data.n)
            hits[phi] += fresh <= fit.vertex_set
    elapsed = time.monotonic() - t0
    outcomes = []
    ok = elapsed < 300
    for phi in phis:
        cov = hits[phi] / reps
        floor = float(phi) - 3 * math.sqrt(float(phi) * (1 - float(phi)) / reps)
        ok = ok and cov >= floor
        outcomes.append(f"phi={float(phi):.1f}: {cov:.3f} >= {floor:.3f}")
    report(5, "fixed-context marginal coverage", ok,
            f"{reps} reps, T=200; " + "; ".join(outcomes) + f", {elapsed:.1f}s")


def _exchange_beats_core(train, core) -> bool:
    """True when a one-vertex exchange shows that ``core`` is not the
    maximal densest set of the training multiset (unit mass per draw).

    Just above the first breakpoint the chain's first nonempty level is that
    set.  With d = e(core)/|core|: adding a vertex v keeps the density at
    least d when at least d draws lie inside core | {v} and use v (a tie
    still beats the core, since the maximal densest set takes ties);
    removing a vertex u raises the density when fewer than d inside draws
    use u.  Exact, from the training draws alone.
    """
    inside = [s for s in train if s <= core]
    density = Fraction(len(inside), len(core))
    gains = Counter(next(iter(s - core)) for s in train if len(s - core) == 1)
    losses = Counter(u for s in inside for u in s)
    return (any(g >= density for g in gains.values())
            or any(losses[u] < density for u in core))


def test_06_trip_core_recovery(report):
    """The planted core is recovered wherever the Lagrangian returns it.

    Per density and seed, exactly:
    - no one-vertex exchange beats the core on the training draws: every
      target up to 3/4 that the core's own held-out coverage reaches
      selects exactly the core;
    - an exchange beats it: no target selects the core (an added vertex
      keeps the core off every chain level, a removed one only off the
      first; every beaten seed here has an added vertex);
    - every seed goes beyond the core at target 9/10.
    """
    t0 = time.monotonic()
    grid = xp.default_phi_grid()
    ok = True
    notes = []
    for alpha in (0.2, 0.4, 0.6, 0.8):
        identifiable = recovered = beaten_off_core = above_seeds = 0
        for seed in range(10):
            data = xp.gen_trip_samples(xp.TripPlanConfig(core_density=alpha), seed)
            covers = xp.chain_cover(data.n, data.train, data.test, grid)
            core = data.core
            if _exchange_beats_core(data.train, core):
                beaten_off_core += all(covers[phi][0] != core for phi in grid)
            else:
                identifiable += 1
                held = sum(1 for s in data.test if s <= core)
                reached = [phi for phi in grid if phi <= Fraction(3, 4)
                           and math.ceil(phi * len(data.test)) <= held]
                recovered += all(covers[phi][0] == core for phi in reached)
            if len(covers[Fraction(9, 10)][0]) > len(core):
                above_seeds += 1
        ok = (ok and recovered == identifiable
              and beaten_off_core == 10 - identifiable and above_seeds == 10)
        notes.append(f"alpha={alpha}: recovered {recovered}/{identifiable} identifiable, "
                     f"beaten off-core {beaten_off_core}/{10 - identifiable}, "
                     f"above-1 {above_seeds}/10")
    elapsed = time.monotonic() - t0
    report(6, "trip planner recovers the planted core", ok and elapsed < 120,
            "; ".join(notes) + f", {elapsed:.1f}s")


def test_07_grid_routing_beats_forward_greedy(report):
    t0 = time.monotonic()
    grid = xp.default_phi_grid()
    low = [phi for phi in grid if phi <= Fraction(4, 5)]
    chain_sizes = {phi: [] for phi in low}
    greedy_sizes = {phi: [] for phi in low}
    for seed in range(10):
        data = xp.gen_grid_routes(xp.GridRoutingConfig(), seed)
        covers = xp.chain_cover(data.n, data.train, data.test, low)
        fwd, _ = forward_greedy(data.train, data.test, low)
        for phi in low:
            chain_sizes[phi].append(len(covers[phi][0]))
            greedy_sizes[phi].append(len(fwd[phi].vertex_set))
    wins = sum(
        statistics.median(chain_sizes[phi]) < statistics.median(greedy_sizes[phi])
        for phi in low
    )
    elapsed = time.monotonic() - t0
    need = math.ceil(0.8 * len(low))
    report(7, "grid routing: chain under forward greedy", wins >= need and elapsed < 180,
            f"median-size wins at {wins}/{len(low)} grid points "
            f"(need {need}), 10 seeds, {elapsed:.1f}s")


def test_08_adversarial_separation(report):
    t0 = time.monotonic()
    notes = []
    ok = True
    for a, b, eps in ((30, 3, Fraction(1, 5)), (100, 5, Fraction(1, 10))):
        rows = xp.adversarial_rows(a, b, eps, Fraction(1), [0])
        sizes = {r.method: r.size for r in rows}
        ok = ok and sizes["chain"] == b and sizes["reverse_greedy"] >= a
        notes.append(f"a={a},b={b}: chain {sizes['chain']}, reverse {sizes['reverse_greedy']}")
    elapsed = time.monotonic() - t0
    report(8, "adversarial chain-vs-peeling separation", ok,
            "; ".join(notes) + f", {elapsed:.1f}s")


SAMPLER_BENCH = (
    ("walk", ((0, 1, 2, 3, 4), ((0, 2), (1, 3), (2, 4), (0, 5), (5, 4)), 3)),
    ("walk", ((0, 1, 2), ((0, 3), (3, 1), (1, 4), (4, 2), (0, 2)), 4)),
    ("group", (((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)), (0, 3, 6, 9), 4)),
    ("group", (((0, 1), (2, 3, 4), (5, 6, 7, 8)), (0, 2, 5), 2)),
    ("tree", ((0, 0, 0, 1, 1, 2, 5, 2, 7), 0, (0, 1), 3)),
    ("tree", ((0, 0, 1, 2, 3, 1, 5, 0, 7, 8), 0, (0, 1, 2), 4)),
)


def test_09_sampler_exactness_and_uniformity(report):
    t0 = time.monotonic()
    draws = 100_000
    notes = []
    for idx, (kind, args) in enumerate(SAMPLER_BENCH):
        if kind == "walk":
            table = build_walk_table(*args)
            objects = [keys for _, keys, _ in enum_walks(*args)]
            by_cost = [sum(1 for _, _, c in enum_walks(*args) if c == k)
                       for k in range(args[2] + 1)]
            dp_by_cost = [table.counts[(args[0][0], k)] for k in range(args[2] + 1)]
            draw = lambda g: sample_walk(table, g).edge_keys
        elif kind == "group":
            table = build_group_table(*args)
            enum = enum_itineraries(*args)
            objects = enum
            by_cost = [sum(1 for o in enum
                           if sum(p != r for p, r in zip(o, args[1])) == k)
                       for k in range(args[2] + 1)]
            dp_by_cost = list(table.counts[0])
            draw = lambda g: sample_itinerary(table, g)
        else:
            table = build_tree_table(*args)
            enum = enum_subtrees(*args)
            objects = enum
            ref = frozenset(args[2])
            by_cost = [sum(1 for o in enum if len(o - ref) == k)
                       for k in range(args[3] + 1)]
            dp_by_cost = list(table.counts[args[1]])
            draw = lambda g: sample_subtree(table, g)
        assert table.partition == len(objects) <= 200
        assert dp_by_cost == by_cost
        index = {o: i for i, o in enumerate(objects)}
        observed = np.zeros(len(objects), dtype=np.int64)
        gen = stream(900, idx)
        for _ in range(draws):
            observed[index[draw(gen)]] += 1
        p_value = scipy.stats.chisquare(observed).pvalue
        assert p_value > 1e-3
        notes.append(f"{kind}#{idx} n={len(objects)} p={p_value:.3f}")
    elapsed = time.monotonic() - t0
    report(9, "sampler DP exactness and chi-square uniformity", elapsed < 180,
            f"{draws} draws each; " + "; ".join(notes) + f", {elapsed:.1f}s")


def test_10_determinism_and_round_trip(report, tmp_path, skewed_instance):
    t0 = time.monotonic()
    phis = [Fraction(1, 2), Fraction(4, 5)]

    def grid_csv() -> str:
        data = xp.gen_grid_routes(xp.GridRoutingConfig(), 0)
        rows = xp.run_comparison(data.n, data.train, data.test, phis,
                                 ("chain", "forward_greedy", "reverse_greedy"), 0)
        return result_csv(rows)

    assert grid_csv() == grid_csv()

    h = skewed_instance
    inst = tmp_path / "inst.json"
    save_instance(inst, h)
    first = inst.read_bytes()
    save_instance(inst, h)
    assert inst.read_bytes() == first
    loaded, _ = load_instance(inst)
    assert loaded.n == h.n
    assert [(e.vertices, e.weight) for e in loaded.edges] == \
        [(e.vertices, e.weight) for e in h.edges]
    save_instance(inst, loaded)
    assert inst.read_bytes() == first

    chain = nested_chain(h)
    cpath = tmp_path / "chain.json"
    save_chain(cpath, chain)
    cfirst = cpath.read_bytes()
    back = load_chain(cpath)
    assert (back.sets, back.breakpoints, back.induced, back.total) == \
        (chain.sets, chain.breakpoints, chain.induced, chain.total)
    save_chain(cpath, back)
    assert cpath.read_bytes() == cfirst
    elapsed = time.monotonic() - t0
    report(10, "byte-identical outputs and load/save identity", True,
            f"csv + instance + chain round trips, {elapsed:.1f}s")
