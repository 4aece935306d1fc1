import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from chaincover import WeightedHypergraph, nested_chain
from chaincover.flows import LagrangianCutSolver

from conftest import child_env, run_child
from oracles import mass_table, minimal_minimizer, phi_minimizers, random_hypergraph, zipf_hypergraph


@pytest.fixture
def pair_edge():
    return WeightedHypergraph.build(2, [({0, 1}, 1)])


def test_single_edge_below_breakpoint(pair_edge):
    res = LagrangianCutSolver(pair_edge).solve(Fraction(1))
    assert res.vertex_set == frozenset()
    assert res.phi == 0
    assert res.phi + res.lam * pair_edge.total_weight == 1  # the cut: lam * W, nothing captured


def test_single_edge_above_breakpoint(pair_edge):
    res = LagrangianCutSolver(pair_edge).solve(Fraction(3))
    assert res.vertex_set == frozenset({0, 1})
    assert res.phi == -1
    assert res.phi + res.lam * pair_edge.total_weight == 2


def test_single_edge_tie_goes_minimal(pair_edge):
    # at lam = 2 both the empty set and {0,1} score 0; minimal wins
    res = LagrangianCutSolver(pair_edge).solve(Fraction(2))
    assert res.vertex_set == frozenset()
    assert res.phi == 0


def test_lambda_zero_selects_empty(pair_edge):
    res = LagrangianCutSolver(pair_edge).solve(Fraction(0))
    assert res.vertex_set == frozenset()
    assert res.phi + res.lam * pair_edge.total_weight == 0


def test_negative_lambda_rejected(pair_edge):
    with pytest.raises(ValueError):
        LagrangianCutSolver(pair_edge).solve(Fraction(-1))


def test_unknown_route_rejected(pair_edge):
    # "scipy" is no method: the capacities pick the scipy route under "auto"
    for method in ("bfs", "scipy"):
        with pytest.raises(ValueError):
            LagrangianCutSolver(pair_edge).solve(Fraction(1), method=method)


def test_no_network_edges_is_trivial():
    h = WeightedHypergraph.build(3, [({0, 1}, 0), (frozenset(), "1/2")])
    res = LagrangianCutSolver(h).solve(Fraction(4))
    assert res.route == "trivial"
    assert res.vertex_set == frozenset()
    # the vertexless mass is captured by every set, the empty one included
    assert res.phi == -4 * Fraction(1, 2)


def test_auto_gate_routes_large_capacities_to_dinic(pair_edge):
    solver = LagrangianCutSolver(pair_edge)
    assert solver.solve(Fraction(1)).route == "scipy"
    big = solver.solve(Fraction(2**33))
    assert big.route == "dinic"
    assert big.vertex_set == frozenset({0, 1})


def test_forced_routes_agree(pair_edge):
    solver = LagrangianCutSolver(pair_edge)
    for lam in (Fraction(1, 3), Fraction(2), Fraction(9, 4)):
        a = solver.solve(lam)
        b = solver.solve(lam, method="dinic")
        assert (a.route, b.route) == ("scipy", "dinic")
        assert (a.vertex_set, a.phi) == (b.vertex_set, b.phi)


@pytest.mark.parametrize("seed", range(12))
def test_routes_and_oracle_agree_on_randoms(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(5):
        h = random_hypergraph(rng, 7, 9)
        solver = LagrangianCutSolver(h)
        table = mass_table(h)
        for lam in (Fraction(1, 2), Fraction(3, 2), Fraction(4), Fraction(22, 7)):
            want_phi, _, _ = phi_minimizers(h, lam, table)
            want_set = minimal_minimizer(h, lam, table)
            if not solver.edge_members:
                continue
            a = solver.solve(lam)
            b = solver.solve(lam, method="dinic")
            assert (a.route, b.route) == ("scipy", "dinic")
            assert a.vertex_set == b.vertex_set == want_set
            assert a.phi == b.phi == want_phi


def test_zero_weight_edges_stay_out_of_network():
    h = WeightedHypergraph.build(4, [({0, 1}, 1), ({2, 3}, 0)])
    solver = LagrangianCutSolver(h)
    assert len(solver.edge_members) == 1
    res = solver.solve(Fraction(5))
    assert res.vertex_set == frozenset({0, 1})


# Built in a child process so that a solver that hangs fails on the timeout
# instead of stalling the suite.  A fixed cap per augmenting path made the
# first instance take time linear in 3**400 / cap.
_HUGE_CAPACITIES = """
import json, random
from fractions import Fraction
from chaincover import WeightedHypergraph, nested_chain

tiny = nested_chain(WeightedHypergraph.build(2, [([0, 1], Fraction(1, 3**400))]), method="dinic")
primes = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))][:300]
rnd = random.Random(5)
h = WeightedHypergraph.build(
    40, [(rnd.sample(range(40), rnd.randint(1, 4)), Fraction(rnd.randint(1, 9), p)) for p in primes]
)
print(json.dumps({
    "tiny_sets": [sorted(s) for s in tiny.sets],
    "tiny_breakpoints": [str(b) for b in tiny.breakpoints],
    "primes_agree": nested_chain(h, method="dinic") == nested_chain(h, method="auto"),
}))
"""


def _run_child(code: str):
    """Run ``code`` in a fresh interpreter that imports this chaincover; its stdout as JSON."""
    return json.loads(run_child(code))


def test_dinic_handles_huge_capacities():
    got = _run_child(_HUGE_CAPACITIES)
    assert got["tiny_sets"] == [[], [0, 1]]
    assert got["tiny_breakpoints"] == [str(2 * 3**400)]
    assert got["primes_agree"]


# Each probe splits off one singleton, so the brackets nest 300 deep: a
# recursive walk over them exceeds the lowered recursion limit.
_DEEP_CHAIN = """
import json, sys
from chaincover import WeightedHypergraph, nested_chain

h = WeightedHypergraph.build(300, [([v], 300 ** (300 - v)) for v in range(300)])
sys.setrecursionlimit(200)
chain = nested_chain(h)
print(json.dumps({
    "sets": [sorted(s) for s in chain.sets],
    "breakpoints": [str(b) for b in chain.breakpoints],
}))
"""


def test_deep_chain_needs_no_recursion():
    got = _run_child(_DEEP_CHAIN)
    assert got["sets"] == [list(range(j)) for j in range(301)]
    assert got["breakpoints"] == [str(Fraction(1, 300 ** (300 - v))) for v in range(300)]


# Edges {i, i + 1} listed from i = n - 2 down to 0 make Dinic's augmenting
# paths run along the whole path, about n arcs long: a recursive walk over
# one of them passes Python's default recursion limit once n reaches 500.
# With the odd edges at (10**12 + 1)/10**12 every probe's capacities pass
# int32, so "auto" takes the Dinic route as well.
_LONG_PATHS = """
import json
from fractions import Fraction
from chaincover import WeightedHypergraph, nested_chain

n, odd = {n}, {odd}
edges = [((i, i + 1), 1 if i % 2 == 0 else odd) for i in range(n - 2, -1, -1)]
h = WeightedHypergraph.build(n, edges)
chain = nested_chain(h, {method!r})
print(json.dumps({{
    "sets": [sorted(s) for s in chain.sets],
    "breakpoints": [str(b) for b in chain.breakpoints],
}}))
"""


def test_dinic_augments_long_paths_without_recursion():
    n, big = 2000, "Fraction(10**12 + 1, 10**12)"
    cases = {(odd, method): _LONG_PATHS.format(n=n, odd=odd, method=method)
             for odd, method in ((big, "auto"), ("1", "dinic"), ("1", "auto"))}
    # the children run side by side: the two Dinic chains take seconds each
    children = {key: subprocess.Popen([sys.executable, "-c", code], env=child_env(),
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for key, code in cases.items()}
    got = {}
    for key, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        got[key] = json.loads(out)
    # the whole path is the only nonempty level: |K| / e(K) is least at K = V
    for (odd, method), chain in got.items():
        total = n // 2 + (n // 2 - 1) * (Fraction(10**12 + 1, 10**12) if odd == big else 1)
        assert chain == {"sets": [[], list(range(n))], "breakpoints": [str(Fraction(n) / total)]}
    # unit capacities fit int32: the scipy route is the reference for Dinic
    assert got[("1", "dinic")] == got[("1", "auto")]


@pytest.mark.parametrize("seed", range(3))
def test_contracted_probe_equals_full_solve(seed):
    # 30 vertices is beyond the exhaustive oracle; the full network is the reference
    h = zipf_hypergraph(300 + seed, 30, 70, dens=(2, 3, 5))
    chain = nested_chain(h, method="dinic")
    assert len(chain.sets) >= 4
    solver = LagrangianCutSolver(h)
    sizes = [len(s) for s in chain.sets]
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            # where the value lines of levels i and j cross
            lam = Fraction(sizes[j] - sizes[i]) / (chain.induced[j] - chain.induced[i])
            for method, route in (("auto", "scipy"), ("dinic", "dinic")):
                full = solver.solve(lam, method)
                part = solver.solve(lam, method, chain.sets[i], chain.sets[j])
                assert part.route == full.route == route
                assert (part.vertex_set, part.phi) == (full.vertex_set, full.phi)
                assert part.arcs <= full.arcs


def test_bracket_order_checked(pair_edge):
    with pytest.raises(ValueError):
        LagrangianCutSolver(pair_edge).solve(Fraction(1), lo=frozenset({0}), hi=frozenset({1}))


def test_probes_below_the_root_bracket_solve_smaller_networks(monkeypatch):
    h = zipf_hypergraph(48, 48, 240)
    calls = []
    solve_many = LagrangianCutSolver.solve_many

    # solve is a one-probe solve_many, so this sees every probe, call by call
    def recording(self, batch, method="auto"):
        results = solve_many(self, batch, method)
        calls.append([(lo, hi, result.arcs) for (_, lo, hi), result in zip(batch, results)])
        return results

    monkeypatch.setattr(LagrangianCutSolver, "solve_many", recording)
    chain = nested_chain(h)
    solver = LagrangianCutSolver(h)
    full = len(solver.edge_members) + sum(map(len, solver.edge_members)) + len(solver.support)
    assert len(chain.sets) >= 3
    # the first bracket (empty set, support) is solved alone, then the top
    # probe leads the next call: both need the whole network
    (root,), ((top_lo, top_hi, top_arcs), *second), *later = calls
    assert root == (frozenset(), chain.sets[-1], full)
    assert (top_lo, top_hi, top_arcs) == (frozenset(), None, full)
    rest = second + [probe for call in later for probe in call]
    assert rest
    assert all(arcs < full for _, _, arcs in rest)


def test_solver_memory_follows_the_support_not_n():
    import tracemalloc

    n = 10**7  # declared; only three vertices are used
    h = WeightedHypergraph.build(n, [({0, 1}, 1), ({1, n - 1}, 2)])
    nested_chain(WeightedHypergraph.build(3, [({0, 1}, 1), ({1, 2}, 2)]))  # lazy imports
    tracemalloc.start()
    try:
        chain = nested_chain(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.sets[-1] == frozenset({0, 1, n - 1})
    assert peak < 4 * 2**20


def _bracket_probes(h, rng, count):
    """``count`` probes (lam, lo, hi) between random pairs of chain sets, plus the top probe."""
    chain = nested_chain(h, method="dinic")
    probes = [(Fraction(h.n + 1) / LagrangianCutSolver(h).min_positive, frozenset(), None)]
    for _ in range(count):
        i, j = sorted(rng.choice(len(chain.sets), size=2, replace=False).tolist())
        size = len(chain.sets[j]) - len(chain.sets[i])
        lam = Fraction(size) / (chain.induced[j] - chain.induced[i])
        probes.append((lam, chain.sets[i], chain.sets[j]))
    rng.shuffle(probes)
    return probes


def _packed_network(solver, probes):
    """The arcs, capacities and node count of ``probes`` packed into one
    max-flow call, and the sum of the blocks' ``inf`` bounds."""
    keep, free, mid, scales = solver._blocks(probes)
    rows, cols, caps, _, n = solver._pack(keep, free, mid, scales)
    return rows, cols, caps, n, sum(s.inf for s in scales)


@pytest.mark.parametrize("seed", range(4))
def test_pack_lays_out_blocks_in_csr_order(seed):
    dens = None if seed % 2 == 0 else tuple(range(2, 14))
    h = zipf_hypergraph(900 + seed, 24, 60, dens=dens)
    solver = LagrangianCutSolver(h)
    probes = _bracket_probes(h, np.random.default_rng(seed), 6)
    keep, free, mid, scales = solver._blocks(probes)
    rows, cols, caps, vnode, n = solver._pack(keep, free, mid, scales)
    assert len(scales) == 7
    assert len(caps) == len(rows) == len(cols)
    steps = np.diff(rows)
    assert (steps >= 0).all()
    assert (np.diff(cols)[steps == 0] > 0).all()
    # the source arcs come first and carry each block's src, in block order
    src = [c for s in scales for c in s.src]
    assert rows[: len(src)].tolist() == [0] * len(src) and 0 not in rows[len(src):]
    assert caps[: len(src)] == src
    # the free vertices' nodes are the last ones, in row-major order
    assert vnode[free].tolist() == list(range(n - free.sum(), n))
    assert not vnode[~free].any()
    # each block's hyperedge->vertex arcs carry its inf, its vertex->sink arcs its sink
    caps = np.array(caps, dtype=object)
    for j, s in enumerate(scales):
        nodes = vnode[j][free[j]]
        into = np.isin(cols, nodes)
        assert (rows[into] > 0).all() and caps[into].tolist() == [s.inf] * s.n_mid
        out = np.isin(rows, nodes)
        assert (cols[out] == 1).all() and caps[out].tolist() == [s.sink] * s.n_free
    assert sum(s.n_free for s in scales) == n - 2 - keep.sum()


def _long_path_networks():
    """The n = 2000 long path of ``_LONG_PATHS`` with unit weights: the root
    bracket at its one breakpoint alone, where Dinic's paths run the whole
    path (about 6 s), and three probes away from it packed together."""
    n = 2000
    h = WeightedHypergraph.build(n, [((i, i + 1), 1) for i in range(n - 2, -1, -1)])
    solver = LagrangianCutSolver(h)
    top = Fraction(n + 1) / solver.min_positive
    return [
        _packed_network(solver, [(Fraction(n, n - 1), frozenset(), frozenset(range(n)))]),
        _packed_network(solver, [(lam, frozenset(), None) for lam in (Fraction(1), Fraction(2), top)]),
    ]


def test_max_flow_routes_return_one_source_side():
    # the two routes may find different maximum flows, never a different
    # flow value or minimal source side
    from chaincover import flows

    networks = _long_path_networks()
    for seed in range(8):
        dens = None if seed % 2 == 0 else tuple(range(2, 14))
        h = zipf_hypergraph(700 + seed, 24, 60, dens=dens)
        solver = LagrangianCutSolver(h)
        probes = _bracket_probes(h, np.random.default_rng(seed), 6)
        networks += [_packed_network(solver, [probe]) for probe in probes]
        networks += [_packed_network(solver, probes[:3]), _packed_network(solver, probes)]
    # scipy takes a pack while the sum of its inf bounds fits int32
    networks = [net[:4] for net in networks if net[4] <= flows._INT32_MAX]
    assert len(networks) >= 50
    for rows, cols, caps, n in networks:
        got = [max_flow(rows, cols, caps, n) for max_flow in (flows._max_flow_scipy, flows._max_flow_dinic)]
        for src_flow, reached in got:
            assert reached.dtype == bool and reached.shape == (n,)
            assert reached[0] and not reached[1]
            assert len(src_flow) == rows.tolist().count(0)
        (scipy_flow, scipy_side), (dinic_flow, dinic_side) = got
        assert sum(scipy_flow) == sum(dinic_flow)
        assert np.array_equal(scipy_side, dinic_side)


def _facts(result):
    return result.vertex_set, result.phi, result.route, result.arcs


@pytest.mark.parametrize("seed", range(6))
def test_solve_many_equals_single_solves(seed, monkeypatch):
    from chaincover import flows

    # odd seeds: large prime denominators, where auto sends some probes to Dinic
    dens = (2, 3, 5) if seed % 2 == 0 else (101, 103, 107, 109, 113, 127, 131, 137)
    h = zipf_hypergraph(500 + seed, 30, 60, dens=dens)
    solver = LagrangianCutSolver(h)
    probes = _bracket_probes(h, np.random.default_rng(seed), 12)
    many = solver.solve_many(probes)
    singles = [solver.solve(lam, "auto", lo, hi) for lam, lo, hi in probes]
    assert [_facts(r) for r in many] == [_facts(r) for r in singles]
    assert [r.lam for r in many] == [lam for lam, _, _ in probes]
    if seed % 2:
        assert {"scipy", "dinic"} <= {r.route for r in many}
    dinic_calls = []
    max_flow_dinic = flows._max_flow_dinic

    def counting(*args):
        dinic_calls.append(1)
        return max_flow_dinic(*args)

    monkeypatch.setattr(flows, "_max_flow_dinic", counting)
    reference = solver.solve_many(probes, "dinic")
    assert len(dinic_calls) == len(probes)
    assert {r.route for r in reference} == {"dinic"}
    assert [r.vertex_set for r in many] == [r.vertex_set for r in reference]
    assert [r.phi for r in many] == [r.phi for r in reference]


def _count_scipy_calls(monkeypatch):
    import scipy.sparse.csgraph as csgraph

    calls = []
    maximum_flow = csgraph.maximum_flow

    def counting(*args, **kwargs):
        calls.append(1)
        return maximum_flow(*args, **kwargs)

    monkeypatch.setattr(csgraph, "maximum_flow", counting)
    return calls


def test_packs_split_at_the_int32_limit(monkeypatch):
    from chaincover import flows

    h = zipf_hypergraph(48, 48, 240)
    solver = LagrangianCutSolver(h)
    probes = _bracket_probes(h, np.random.default_rng(7), 10)
    chain = nested_chain(h)
    calls = _count_scipy_calls(monkeypatch)
    whole = solver.solve_many(probes)
    assert len(calls) == 1
    # the largest block alone still fits, but not all of them together
    limit = max(s.inf for s in solver._blocks(probes)[3])
    monkeypatch.setattr(flows, "_INT32_MAX", limit)
    calls.clear()
    split = solver.solve_many(probes)
    assert 1 < len(calls) <= len(probes)
    assert [_facts(r) for r in split] == [_facts(r) for r in whole]
    assert {r.route for r in split} == {"scipy"}
    assert nested_chain(h) == chain
