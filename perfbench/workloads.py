"""The four workloads: generated inputs, timed operations, checks and digests.

Inputs come from the benchmark's own ``random.Random(seed)``; the program
only sees the generated hypergraphs, configs, seeds and tables.  Program
functions are always looked up through their module at call time
(``cc_chain.nested_chain``), so the tracer's patches cover these calls too.

A workload runs in this order: ``__init__`` generates inputs (not timed),
``prepare`` makes the program calls that turn them into program objects
(timed as set-up), then ``op(i)`` for i = 0, 1, ... (each timed), with
``check`` and ``digest`` on each result outside the timed region and
``final_check`` once after the loop.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from chaincover import chain as cc_chain
from chaincover import compress as cc_compress
from chaincover import conformal as cc_conformal
from chaincover import experiments as cc_xp
from chaincover import hypergraph as cc_hg
from chaincover import io as cc_io
from chaincover import rng as cc_rng
from chaincover import samplers as cc_samplers

import checks


class Workload:
    name = ""
    modules: tuple[str, ...] = ()  # what ``import`` loads during set-up
    fixed_ops = 8     # leading ops that form the digest and one traced pass
    pool = 1          # op i runs on prepared input i % pool
    warmup = 1        # ops run once, untimed, before the timed loop

    def prepare(self, count: int) -> None:
        """Program calls that prepare inputs for ops 0..count-1."""

    def setup_errors(self) -> list[str]:
        return []

    def final_check(self) -> dict[int, list[str]]:
        """Reference checks on a fixed subset of the ops run, by op index."""
        return {}


# ---------------------------------------------------------------- chains


def zipf_edges(rnd: random.Random, n: int, m: int, weight) -> list[tuple[list[int], object]]:
    """m hyperedges of 2-6 distinct vertices, vertex popularity Zipf(1)."""
    cum, acc = [], 0.0
    for rank in range(1, n + 1):
        acc += 1.0 / rank
        cum.append(acc)
    ids = list(range(n))
    rnd.shuffle(ids)
    edges = []
    for _ in range(m):
        size = rnd.randint(2, 6)
        members: set[int] = set()
        while len(members) < size:
            members.add(ids[rnd.choices(range(n), cum_weights=cum)[0]])
        edges.append((sorted(members), weight(rnd)))
    return edges


def unit_weight(rnd: random.Random) -> int:
    return 1


def rational_weight(rnd: random.Random) -> Fraction:
    return Fraction(rnd.randint(1, 9), rnd.choice((2, 3, 5, 7, 11, 13)))


TAUS = tuple(Fraction(j, 20) for j in range(1, 20))
KAPPA = Fraction(1)


class ChainWorkload(Workload):
    """Op: nested_chain on a fresh hypergraph, select at 19 targets, save/load round trip."""

    modules = ("chaincover", "chaincover.io")
    fixed_ops = 16
    pool = 256          # distinct instances built in set-up
    reference_ops = 3   # ops whose chain is compared with the Dinic-only route

    def __init__(self, seed: int, workdir: Path, count: int, n: int, weight):
        rnd = random.Random(seed)
        self.n = n
        self.raw = [zipf_edges(rnd, n, 5 * n, weight) for _ in range(min(count, self.pool))]
        self.path = workdir / "chain.json"
        self.kept: dict[int, tuple] = {}

    def prepare(self, count: int) -> None:
        self.graphs = [
            cc_hg.WeightedHypergraph.build(self.n, edges) for edges in self.raw[:count]
        ]

    def op(self, i: int):
        h = self.graphs[i % len(self.graphs)]
        chain = cc_chain.nested_chain(h)
        picks = [cc_compress.select(chain, tau, KAPPA) for tau in TAUS]
        cc_io.save_chain(self.path, chain)
        return h, chain, picks, cc_io.load_chain(self.path)

    def check(self, i: int, out) -> list[str]:
        h, chain, picks, loaded = out
        if i < self.reference_ops:
            self.kept[i] = (h, chain)
        edges = [(e.vertices, e.weight) for e in h.edges]
        errors = checks.check_chain(edges, chain) + checks.check_selections(chain, TAUS, KAPPA, picks)
        if loaded != chain:
            errors.append("load_chain round trip differs from the chain")
        return errors

    def digest(self, i: int, out) -> bytes:
        return self.path.read_bytes() + repr([p.index for p in out[2]]).encode()

    def final_check(self) -> dict[int, list[str]]:
        return {
            i: ["chain differs from nested_chain(h, method='dinic')"]
            for i, (h, chain) in sorted(self.kept.items())
            if cc_chain.nested_chain(h, method="dinic") != chain
        }


class ChainUnit(ChainWorkload):
    name = "chain-unit"

    def __init__(self, seed: int, workdir: Path, count: int):
        super().__init__(seed, workdir, count, 48, unit_weight)


class ChainRational(ChainWorkload):
    name = "chain-rational"

    def __init__(self, seed: int, workdir: Path, count: int):
        super().__init__(seed, workdir, count, 32, rational_weight)


# ---------------------------------------------------------------- calibration


TRIP = cc_xp.TripPlanConfig(core_density=0.4, n_train=100, n_test=101)
GRID = cc_xp.GridRoutingConfig(n_train=32, n_test=32)  # 16/16 calibration pairs
FIT_PHIS = (Fraction(7, 10), Fraction(4, 5), Fraction(9, 10))
CAL_PHI, CAL_DELTA = Fraction(4, 5), Fraction(1, 10)  # ceil(0.9 * 17) <= 16 keeps d* finite
METHODS = ("chain", "forward_greedy", "reverse_greedy")
STAGES = 7  # program calls per context; see Calibrate.op


class Calibrate(Workload):
    """One context seed runs seven pipeline calls; each call is one op.

    0 gen_trip_samples; 1-3 fixed_context_fit at phi = 0.7, 0.8, 0.9 on
    T = 200; 4 run_comparison of all three methods on default_phi_grid();
    5 gen_grid_routes with 32 train and 32 test routes; 6 two-stage calibrate
    on the 16/16 (train route, test route) pairs over the train-route universe.
    """

    name = "calibrate"
    modules = ("chaincover", "chaincover.experiments", "chaincover.io")
    fixed_ops = 2 * STAGES
    warmup = STAGES

    def __init__(self, seed: int, workdir: Path, count: int):
        self.seed = seed
        self.ctx: dict = {}

    def op(self, i: int):
        c, stage = divmod(i, STAGES)
        if stage == 0:
            self.ctx = {"seed": self.seed * 1_000_000 + c, "fits": []}
        ctx = self.ctx
        seed = ctx["seed"]
        if stage == 0:
            ctx["trip"] = cc_xp.gen_trip_samples(TRIP, seed)
            return ctx["trip"]
        trip = ctx["trip"]
        if stage <= 3:
            draws = list(trip.train) + list(trip.test[:100])
            fit = cc_conformal.fixed_context_fit(draws, FIT_PHIS[stage - 1], trip.n)
            ctx["fits"].append(fit)
            return fit
        if stage == 4:
            return cc_xp.run_comparison(
                trip.n, trip.train, trip.test, cc_xp.default_phi_grid(), METHODS, seed
            )
        if stage == 5:
            ctx["grid"] = cc_xp.gen_grid_routes(GRID, seed)
            return ctx["grid"]
        grid = ctx["grid"]
        universe = cc_hg.WeightedHypergraph.build(grid.n, [(r, 1) for r in grid.train])
        pairs = [cc_conformal.LabeledPair(a, b, universe) for a, b in zip(grid.train, grid.test)]
        half = len(pairs) // 2
        ctx["pairs"] = pairs
        return cc_conformal.calibrate(pairs[:half], pairs[half:], CAL_PHI, CAL_DELTA)

    def check(self, i: int, out) -> list[str]:
        stage = i % STAGES
        ctx = self.ctx
        if stage == 0:
            return checks.check_trip(out, TRIP.groups, TRIP.group_size, TRIP.n_train, TRIP.n_test)
        trip = ctx["trip"]
        if stage <= 3:
            fits = ctx["fits"]
            previous = len(fits[-2].vertex_set) if len(fits) > 1 else 0
            errors = checks.check_fit(out, trip.test[:100], FIT_PHIS[stage - 1], trip.n, previous)
            edges = [(s, Fraction(1)) for s in trip.train]
            return errors + checks.check_chain(edges, out.chain)
        if stage == 4:
            expected = checks.expected_rows(
                trip.n, trip.train, trip.test, cc_xp.default_phi_grid(), ctx["fits"][0].chain
            )
            return checks.check_rows(out, expected)
        if stage == 5:
            return checks.check_routes(out, GRID.side)
        half = len(ctx["pairs"]) // 2
        return checks.check_calibration(
            out, ctx["pairs"][:half], ctx["pairs"][half:], CAL_PHI, CAL_DELTA,
            cc_conformal.distance_edge_symdiff,
        )

    def digest(self, i: int, out) -> bytes:
        stage = i % STAGES
        if stage in (0, 5):
            return repr([sorted(s) for s in out.train + out.test]).encode()
        if stage <= 3:
            return repr((out.prefix_len, out.order)).encode()
        if stage == 4:
            return cc_io.result_csv(out).encode()
        return repr((out.d_star, str(out.tau_star), [(str(e.value), e.censored) for e in out.etas])).encode()


# ---------------------------------------------------------------- samplers


def grid_walk_inputs(rnd: random.Random, side: int):
    """Grid graph with a random monotone corner-to-corner reference path."""
    steps = [1] * (side - 1) + [side] * (side - 1)
    rnd.shuffle(steps)
    path = [0]
    for step in steps:
        path.append(path[-1] + step)
    on_path = set(zip(path, path[1:]))
    edges = [(u, u + 1) for u in range(side * side) if u % side < side - 1]
    edges += [(u, u + side) for u in range(side * (side - 1))]
    return path, [e for e in edges if e not in on_path]


def tree_inputs(rnd: random.Random, n: int, ref_size: int):
    """Random recursive tree rooted at 0 and a random root-containing subtree."""
    parent = [0] + [rnd.randrange(v) for v in range(1, n)]
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    reference, frontier = {0}, list(children[0])
    while len(reference) < ref_size and frontier:
        v = frontier.pop(rnd.randrange(len(frontier)))
        reference.add(v)
        frontier.extend(children[v])
    return parent, 0, sorted(reference)


class Sample(Workload):
    """Op: one exact uniform draw from each sampler family, each on its own stream.

    The draw cost depends on the shape of the random inputs (the tree above
    all), so a run draws from VARIANTS independently generated input sets in
    turn; one set alone made op_p50_s swing by 20 % from seed to seed.
    """

    name = "sample"
    modules = ("chaincover", "chaincover.samplers", "chaincover.rng")
    fixed_ops = 200
    pool = 1000  # tables are rebuilt, untimed, every 1000 draws
    VARIANTS = 4
    WALK_BUDGET, GROUP_BUDGET, TREE_BUDGET = 6, 6, 10

    def __init__(self, seed: int, workdir: Path, count: int):
        rnd = random.Random(seed)
        self.seed = seed
        self.inputs = []
        for _ in range(self.VARIANTS):
            path, other = grid_walk_inputs(rnd, 6)
            groups = [list(range(10 * g, 10 * g + 10)) for g in range(20)]
            reference = [rnd.choice(g) for g in groups]
            parent, root, subtree = tree_inputs(rnd, 200, 20)
            self.inputs.append((path, other, groups, reference, parent, root, subtree))

    def prepare(self, count: int) -> None:
        self.tables = [
            (
                cc_samplers.build_walk_table(path, other, self.WALK_BUDGET),
                cc_samplers.build_group_table(groups, reference, self.GROUP_BUDGET),
                cc_samplers.build_tree_table(parent, root, subtree, self.TREE_BUDGET),
            )
            for path, other, groups, reference, parent, root, subtree in self.inputs
        ]

    def setup_errors(self) -> list[str]:
        errors = []
        for table in (t for tables in self.tables for t in tables):
            try:
                table.verify()
            except AssertionError as exc:
                errors.append(f"{type(table).__name__}.verify: {exc}")
        return errors

    def op(self, i: int):
        walk, group, tree = self.tables[i % self.VARIANTS]
        stream = cc_rng.stream
        return (
            cc_samplers.sample_walk(walk, stream(self.seed, i, 0)),
            cc_samplers.sample_itinerary(group, stream(self.seed, i, 1)),
            cc_samplers.sample_subtree(tree, stream(self.seed, i, 2)),
        )

    def check(self, i: int, out) -> list[str]:
        walk, itinerary, subtree = out
        path, other, groups, reference, parent, root, ref_tree = self.inputs[i % self.VARIANTS]
        return (
            checks.check_walk(walk, path, other, self.WALK_BUDGET)
            + checks.check_itinerary(itinerary, groups, reference, self.GROUP_BUDGET)
            + checks.check_subtree(subtree, parent, root, frozenset(ref_tree), self.TREE_BUDGET)
        )

    def digest(self, i: int, out) -> bytes:
        walk, itinerary, subtree = out
        return repr((walk.edge_keys, itinerary, sorted(subtree))).encode()


WORKLOADS = {w.name: w for w in (ChainUnit, ChainRational, Calibrate, Sample)}
