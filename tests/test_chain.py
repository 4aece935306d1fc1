from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from chaincover import InvariantError, NestedChain, WeightedHypergraph, nested_chain
from chaincover.flows import LagrangianCutSolver

from oracles import chain_oracle, random_hypergraph, zipf_hypergraph


def test_three_path_chain_frozen(three_path_instance):
    chain = nested_chain(three_path_instance)
    assert chain.sets == (
        frozenset(),
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 3, 4, 5, 6}),
    )
    assert chain.breakpoints == (Fraction(20, 3), Fraction(15, 2))
    assert chain.induced == (Fraction(0), Fraction(3, 5), Fraction(1))
    assert chain.total == 1
    assert [len(s) for s in chain.sets] == [0, 4, 7]
    assert chain.residuals == (Fraction(1), Fraction(2, 5), Fraction(0))


def test_isolated_vertex_never_enters(three_path_instance):
    chain = nested_chain(three_path_instance)
    assert 7 not in chain.sets[-1]


def test_single_edge_chain():
    h = WeightedHypergraph.build(2, [({0, 1}, 1)])
    chain = nested_chain(h)
    assert chain.sets == (frozenset(), frozenset({0, 1}))
    assert chain.breakpoints == (Fraction(2),)


def test_breakpoint_identity_holds(three_path_instance):
    chain = nested_chain(three_path_instance)
    for j, lam in enumerate(chain.breakpoints, start=1):
        lo = len(chain.sets[j - 1]) - lam * chain.induced[j - 1]
        hi = len(chain.sets[j]) - lam * chain.induced[j]
        assert lo == hi


def test_set_at_conventions(three_path_instance):
    chain = nested_chain(three_path_instance)

    def set_at(lam):  # the minimal minimizer at lam, as NestedChain documents it
        return chain.sets[bisect_left(chain.breakpoints, lam)]

    assert set_at(Fraction(1)) == frozenset()
    assert set_at(Fraction(7)) == frozenset({0, 1, 2, 3})
    assert set_at(Fraction(100)) == chain.sets[-1]
    # exactly at a breakpoint the cheaper of the two tied sets wins
    assert set_at(Fraction(20, 3)) == frozenset()
    assert set_at(Fraction(15, 2)) == frozenset({0, 1, 2, 3})


def test_edgeless_and_zero_weight_chains():
    assert nested_chain(WeightedHypergraph.build(3, [])).sets == (frozenset(),)
    chain = nested_chain(WeightedHypergraph.build(3, [({0, 1}, 0)]))
    assert chain.sets == (frozenset(),)
    assert chain.total == 0


def test_vertexless_mass_shifts_induced_floor():
    h = WeightedHypergraph.build(1, [(frozenset(), "1/2"), ({0}, "1/2")])
    chain = nested_chain(h)
    assert chain.induced == (Fraction(1, 2), Fraction(1))
    assert chain.breakpoints == (Fraction(2),)
    assert chain.sets == (frozenset(), frozenset({0}))


def _record_routes(monkeypatch) -> list[str]:
    """The route of every probe solved from now on, in order."""
    routes = []
    solve_many = LagrangianCutSolver.solve_many

    # solve is a one-probe solve_many, so this sees every probe
    def recording(self, *args, **kwargs):
        results = solve_many(self, *args, **kwargs)
        routes.extend(result.route for result in results)
        return results

    monkeypatch.setattr(LagrangianCutSolver, "solve_many", recording)
    return routes


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("method", ["scipy", "dinic", "auto"])
def test_chain_matches_oracle_on_randoms(seed, method, monkeypatch, request):
    # "scipy": the default method with small packs kept on scipy, so every
    # probe takes the scipy route here; "auto": the default size rule
    if method == "scipy":
        request.getfixturevalue("scipy_at_every_size")
    routes = _record_routes(monkeypatch)
    rng = np.random.default_rng(2000 + seed)
    for _ in range(4):
        h = random_hypergraph(rng, 7, 9)
        chain = nested_chain(h, method="auto" if method == "scipy" else method)
        want_sets, want_bps = chain_oracle(h)
        assert list(chain.sets) == want_sets
        assert list(chain.breakpoints) == want_bps
        support = frozenset().union(*(e.vertices for e in h.edges if e.weight > 0))
        assert chain.sets[-1] == support
    if method == "scipy":
        assert set(routes) == {"scipy"}


def test_validate_rejects_corruption(three_path_instance):
    good = nested_chain(three_path_instance)
    cases = [
        # non-nested sets
        NestedChain(
            (frozenset(), frozenset({4}), frozenset({0, 1})),
            good.breakpoints,
            good.induced,
            good.total,
        ),
        # induced weights not increasing
        NestedChain(good.sets, good.breakpoints, (Fraction(0), Fraction(1), Fraction(1)), good.total),
        # broken breakpoint identity
        NestedChain(good.sets, (Fraction(1), Fraction(2)), good.induced, good.total),
        # length mismatch
        NestedChain(good.sets, good.breakpoints[:1], good.induced, good.total),
        # missing empty root
        NestedChain(good.sets[1:], good.breakpoints[1:], good.induced[1:], good.total),
    ]
    for bad in cases:
        with pytest.raises(InvariantError):
            bad.validate()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.usefixtures("scipy_at_every_size")
def test_routes_agree_where_auto_mixes(seed, monkeypatch):
    # large prime denominators: some contracted probes fit int32, others do not
    h = zipf_hypergraph(400 + seed, 30, 60, dens=(101, 103, 107, 109, 113, 127, 131, 137))
    routes = _record_routes(monkeypatch)
    auto = nested_chain(h)
    assert {"scipy", "dinic"} <= set(routes)
    assert nested_chain(h, method="dinic") == auto


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.usefixtures("scipy_at_every_size")
def test_all_routes_agree_within_int32(seed, monkeypatch):
    h = zipf_hypergraph(300 + seed, 30, 70, dens=(2, 3, 5))
    chain = nested_chain(h, method="dinic")
    routes = _record_routes(monkeypatch)
    assert nested_chain(h) == chain
    assert set(routes) == {"scipy"}


def test_one_recount_per_probe(monkeypatch):
    # each probe's bookkeeping check recounts its set once; the chain reads
    # every set's mass off that probe instead of recounting it again
    calls = {"solve": 0, "induced_weight": 0}
    solve_many, induced_weight = LagrangianCutSolver.solve_many, WeightedHypergraph.induced_weight

    # solve is a one-probe solve_many, so this counts every probe
    def solving(*args, **kwargs):
        results = solve_many(*args, **kwargs)
        calls["solve"] += len(results)
        return results

    def counting(*args, **kwargs):
        calls["induced_weight"] += 1
        return induced_weight(*args, **kwargs)

    monkeypatch.setattr(LagrangianCutSolver, "solve_many", solving)
    monkeypatch.setattr(WeightedHypergraph, "induced_weight", counting)
    chain = nested_chain(zipf_hypergraph(48, 48, 240))
    assert len(chain.sets) >= 3
    assert calls["induced_weight"] == calls["solve"]


@pytest.mark.usefixtures("scipy_at_every_size")
def test_one_scipy_call_per_round(monkeypatch):
    import scipy.sparse.csgraph as csgraph

    calls = {"maximum_flow": 0, "solve_many": 0, "probes": 0}
    maximum_flow, solve_many = csgraph.maximum_flow, LagrangianCutSolver.solve_many

    def flowing(*args, **kwargs):
        calls["maximum_flow"] += 1
        return maximum_flow(*args, **kwargs)

    def solving(self, probes, method="auto"):
        calls["solve_many"] += 1
        calls["probes"] += len(probes)
        return solve_many(self, probes, method)

    monkeypatch.setattr(csgraph, "maximum_flow", flowing)
    monkeypatch.setattr(LagrangianCutSolver, "solve_many", solving)
    chain = nested_chain(zipf_hypergraph(48, 48, 240))
    assert len(chain.sets) >= 3
    # the root alone, then one call per round: one scipy call each
    assert calls["maximum_flow"] == calls["solve_many"] < calls["probes"]



def test_one_max_flow_call_per_round_small_ones_on_dinic(monkeypatch):
    walk = _record_walk(monkeypatch)
    chain = nested_chain(zipf_hypergraph(48, 48, 240))
    assert len(chain.sets) >= 3
    # every capacity fits int32: one call per round, the small rounds' on Dinic
    assert walk["max_flow"] == len(walk["batches"])
    assert 0 < walk["scipy"] < len(walk["batches"])


def _record_probes(monkeypatch) -> list[tuple]:
    """(lam, lo, hi, vertex_set, phi) of every probe solved from now on, in order."""
    probes = []
    solve_many = LagrangianCutSolver.solve_many

    def recording(self, batch, method="auto"):
        results = solve_many(self, batch, method)
        probes.extend((*probe, r.vertex_set, r.phi) for probe, r in zip(batch, results))
        return results

    monkeypatch.setattr(LagrangianCutSolver, "solve_many", recording)
    return probes


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", ["unit", "rational"])
def test_size_rule_leaves_every_probe_unchanged(seed, shape, monkeypatch):
    # the benchmark's two chain shapes: 48x240 unit weights, and 32x160 with
    # weights a/b over small primes b
    from chaincover import flows

    if shape == "unit":
        h = zipf_hypergraph(1100 + seed, 48, 240)
    else:
        h = zipf_hypergraph(1200 + seed, 32, 160, dens=(2, 3, 5, 7, 11, 13))
    runs = {}
    for run in ("default", "scipy at every size", "dinic"):
        with monkeypatch.context() as patch:
            if run == "scipy at every size":
                patch.setattr(flows, "_SCIPY_MIN_ARCS", 0)
            probes, routes = _record_probes(patch), _record_routes(patch)
            chain = nested_chain(h, method="dinic" if run == "dinic" else "auto")
            runs[run] = chain, probes, routes
    (chain, probes, routes), *others = runs.values()
    assert {"scipy", "dinic"} <= set(routes)
    assert set(runs["dinic"][2]) == {"dinic"}
    for other_chain, other_probes, _ in others:
        assert other_chain == chain
        assert other_probes == probes


def _record_walk(monkeypatch) -> dict:
    """From now on: ``solve`` calls, ``solve_many`` batches, max-flow calls and scipy's share."""
    import scipy.sparse.csgraph as csgraph

    from chaincover import flows

    walk = {"solve": 0, "batches": [], "max_flow": 0, "scipy": 0}
    solve, solve_many = LagrangianCutSolver.solve, LagrangianCutSolver.solve_many
    maximum_flow, dinic = csgraph.maximum_flow, flows._max_flow_dinic

    def solving(*args, **kwargs):
        walk["solve"] += 1
        return solve(*args, **kwargs)

    # solve is a one-probe solve_many, so the batches hold every probe
    def batching(self, probes, method="auto"):
        walk["batches"].append([(lo, hi) for _, lo, hi in probes])
        return solve_many(self, probes, method)

    def flowing(*args, **kwargs):
        walk["max_flow"] += 1
        walk["scipy"] += 1
        return maximum_flow(*args, **kwargs)

    def dinic_flowing(*args, **kwargs):
        walk["max_flow"] += 1
        return dinic(*args, **kwargs)

    monkeypatch.setattr(LagrangianCutSolver, "solve", solving)
    monkeypatch.setattr(LagrangianCutSolver, "solve_many", batching)
    monkeypatch.setattr(csgraph, "maximum_flow", flowing)
    monkeypatch.setattr(flows, "_max_flow_dinic", dinic_flowing)
    return walk


def test_walk_probes_no_one_vertex_bracket(monkeypatch):
    rng = np.random.default_rng(17)
    graphs = [random_hypergraph(rng, 7, 9) for _ in range(12)]
    graphs += [
        WeightedHypergraph.build(4, [({2}, Fraction(3, 4)), (set(), 1), ({0, 1}, 0)]),  # one vertex
        WeightedHypergraph.build(3, [({0, 1, 2}, Fraction(2, 5))]),  # two levels
    ]
    graphs += [zipf_hypergraph(600 + seed, 32, 120, dens=(2, 3, 5)) for seed in range(3)]
    # a geometric peel: each level adds one vertex, its capacities far past int32
    peel = WeightedHypergraph.build(60, [({v}, 60 ** (60 - v)) for v in range(60)])
    for h in graphs + [peel]:
        reference = nested_chain(h, method="dinic")
        walk = _record_walk(monkeypatch)
        chain = nested_chain(h)
        monkeypatch.undo()
        assert chain == reference
        if h.n <= 7:  # the oracle enumerates all 2**n sets
            want_sets, want_bps = chain_oracle(h)
            assert (list(chain.sets), list(chain.breakpoints)) == (want_sets, want_bps)
        probes = [probe for batch in walk["batches"] for probe in batch]
        # sets one vertex apart are consecutive chain sets: never probed
        assert all(hi is None or len(hi) - len(lo) >= 2 for lo, hi in probes)
        assert [hi for _, hi in probes].count(None) == 1  # the top probe, once
        # the root alone through solve, then the top leads the second round if
        # there is one; otherwise the top is solved alone too
        second_round = len(walk["batches"]) > walk["solve"]
        root_probed = len(chain.sets[-1]) >= 2
        assert walk["solve"] == 1 + (root_probed and not second_round)
        if second_round:
            assert walk["batches"][1][0] == (frozenset(), None)
    assert chain.sets == tuple(frozenset(range(j)) for j in range(61))  # the peel, last
    assert chain.breakpoints == tuple(Fraction(1, 60 ** (60 - v)) for v in range(60))


@pytest.mark.parametrize("edges", [[], [(set(), 1)], [({0}, 0)], [({0, 1}, 1)]])
def test_method_checked_on_every_instance(edges):
    # the first three have no positive non-empty hyperedge and so no probe
    with pytest.raises(ValueError, match=r"^unknown max-flow route 'bogus'$"):
        nested_chain(WeightedHypergraph.build(3, edges), method="bogus")


def test_max_flow_calls_pinned(monkeypatch):
    # zipf chains of the benchmark's two sizes, scipy and Dinic calls alike; with
    # the top probe solved alone and one-vertex brackets probed they took 44 calls
    graphs = [zipf_hypergraph(900 + seed, 48, 240) for seed in range(4)]
    graphs += [zipf_hypergraph(950 + seed, 32, 160, dens=(2, 3, 5, 7, 11, 13)) for seed in range(4)]
    walk = _record_walk(monkeypatch)
    for h in graphs:
        nested_chain(h)
    assert walk["max_flow"] == 32


@pytest.mark.parametrize("second_round", [True, False])
def test_top_check_fires_wherever_the_top_is_solved(second_round, monkeypatch):
    from dataclasses import replace

    if second_round:  # the top probe leads the second round
        h = zipf_hypergraph(48, 48, 240)
    else:  # the root bracket closes at once: the top probe is solved alone
        h = WeightedHypergraph.build(2, [({0, 1}, 1)])
    batches = []
    solve_many = LagrangianCutSolver.solve_many

    def short_top(self, probes, method="auto"):
        batches.append(len(probes))
        results = solve_many(self, probes, method)
        return [replace(r, vertex_set=frozenset({0})) if hi is None else r
                for (_, _, hi), r in zip(probes, results)]

    monkeypatch.setattr(LagrangianCutSolver, "solve_many", short_top)
    with pytest.raises(InvariantError, match=r"terminal multiplier .* force the full support"):
        nested_chain(h)
    assert (batches[1] > 1) == second_round


@pytest.mark.usefixtures("scipy_at_every_size")
def test_top_multiplier_follows_the_support_not_n(monkeypatch):
    # at n = 10**9 a multiplier of (n + 1) / min weight pushed the top probe past int32
    from chaincover import flows

    edges = [({0, 1}, 1), ({1, 2}, 1), ({2}, 1)]
    dinic_calls = []
    max_flow_dinic = flows._max_flow_dinic

    def counting(*args):
        dinic_calls.append(1)
        return max_flow_dinic(*args)

    monkeypatch.setattr(flows, "_max_flow_dinic", counting)
    small, large = (nested_chain(WeightedHypergraph.build(n, edges)) for n in (3, 10**9))
    assert large == small
    assert small.sets[-1] == frozenset({0, 1, 2})
    assert dinic_calls == []
