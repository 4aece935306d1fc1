"""Synthetic generators and the method-comparison harness.

Three families: grid routing (weighted shortest paths plus a fixed bypass
route), trip planning (one activity per type, planted high-probability core),
and the adversarial long-path-versus-parallel-edges instance.  All draws are
stream-split per (seed, split, sample index, purpose), so regenerating with
the same seed is bit-identical and train/test splits never share a stream.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .baselines import GreedyResult, _prefix_results, forward_greedy, reverse_greedy
from .chain import _sample_chain, nested_chain
from .compress import _check_kappa, select
from .hypergraph import (
    InputError,
    InvariantError,
    WeightedHypergraph,
    _check_int,
    _is_int,
    as_fraction,
    check_vertex_ids,
    rational_to_text as text,
)
from .io import ResultRow
from .rng import _first_integers, _first_random, first_words, stream

__all__ = [
    "GridRoutingConfig",
    "TripPlanConfig",
    "GridData",
    "TripData",
    "default_phi_grid",
    "gen_grid_routes",
    "gen_trip_samples",
    "gen_adversarial",
    "chain_cover",
    "run_comparison",
    "comparison_rows",
    "adversarial_rows",
]

_TRAIN, _TEST = 0, 1


def default_phi_grid() -> tuple[Fraction, ...]:
    """0.05-step coverage grid spanning (0, 1]."""
    return tuple(Fraction(j, 20) for j in range(1, 21))


# ---------------------------------------------------------------- grid routing


@dataclass(frozen=True)
class GridRoutingConfig:
    side: int = 6                 # nodes per row/column
    bypass_len: int = 20          # fresh edge ids forming the fixed bypass route
    bypass_share: float = 0.15
    weight_low: float = 0.1
    weight_high: float = 2.0
    n_train: int = 50
    n_test: int = 50

    def __post_init__(self):
        _check_int(self.side, "side", 2)
        if not 0 <= self.bypass_share <= 1:
            raise InputError(f"bypass share must lie in [0, 1], got {self.bypass_share}")
        if not self.weight_low <= self.weight_high:
            raise InputError(
                f"weight_low must be <= weight_high, got {self.weight_low} > {self.weight_high}"
            )
        for name in ("bypass_len", "n_train", "n_test"):
            _check_int(getattr(self, name), name)

    @property
    def n_grid_edges(self) -> int:
        return 2 * self.side * (self.side - 1)

    @property
    def n_vertices(self) -> int:
        return self.n_grid_edges + self.bypass_len


@dataclass(frozen=True)
class GridData:
    config: GridRoutingConfig
    seed: int
    n: int
    train: tuple[frozenset[int], ...]
    test: tuple[frozenset[int], ...]
    bypass: frozenset[int]


def _shortest_monotone_path(cfg: GridRoutingConfig, weights: Sequence[float]) -> frozenset[int]:
    """Min-weight right/down path, ties by lexicographically smallest id sequence.

    The right edge out of node (i, j) has id i*(side-1)+j, the down edge
    side*(side-1)+i*side+j.  One DP row holds each column's (distance, ids).
    ``weights`` is best a list of Python floats: each read of a numpy array
    builds a numpy scalar.
    """
    side = cfg.side
    row = [(0.0, ())]
    for e in range(side - 1):  # the top row: right edges only
        row.append((row[e][0] + weights[e], row[e][1] + (e,)))
    for i in range(1, side):
        for j in range(side):
            d, seq = row[j]
            e = side * (side - 1) + (i - 1) * side + j
            cell = (d + weights[e], seq + (e,))
            if j:
                d, seq = row[j - 1]
                e = i * (side - 1) + j - 1
                cell = min((d + weights[e], seq + (e,)), cell)
            row[j] = cell
    return frozenset(row[-1][1])


def gen_grid_routes(cfg: GridRoutingConfig, seed: int) -> GridData:
    """Route s of split tag takes the bypass when the first ``random()`` of
    stream (tag, s, 0) falls below the bypass share, else the shortest path
    under weights drawn from stream (tag, s, 1)."""
    _check_int(seed, "seed")
    bypass = frozenset(range(cfg.n_grid_edges, cfg.n_vertices))
    routes = [(_TRAIN, s) for s in range(cfg.n_train)] + [(_TEST, s) for s in range(cfg.n_test)]
    coins = _first_random(first_words(seed, [(tag, s, 0) for tag, s in routes])).tolist()
    drawn = tuple(
        bypass if coin < cfg.bypass_share else _shortest_monotone_path(cfg, stream(seed, tag, s, 1).uniform(
            cfg.weight_low, cfg.weight_high, size=cfg.n_grid_edges).tolist())
        for (tag, s), coin in zip(routes, coins)
    )
    return GridData(cfg, seed, cfg.n_vertices, drawn[:cfg.n_train], drawn[cfg.n_train:], bypass)


# ---------------------------------------------------------------- trip planning


@dataclass(frozen=True)
class TripPlanConfig:
    groups: int = 5
    group_size: int = 10
    core_density: float = 0.4     # fraction of each group planted as core
    core_mass: float = 0.8        # probability of a pure-core itinerary
    n_train: int = 100
    n_test: int = 100

    def __post_init__(self):
        if not 0 < self.core_density <= 1:
            raise InputError(f"core density must lie in (0, 1], got {self.core_density}")
        if not 0 < self.core_mass <= 1:
            raise InputError(f"core mass must lie in (0, 1], got {self.core_mass}")
        for name, low in (("groups", 1), ("group_size", 1), ("n_train", 0), ("n_test", 0)):
            _check_int(getattr(self, name), name, low)

    @property
    def core_per_group(self) -> int:
        return math.ceil(self.core_density * self.group_size)

    @property
    def per_group_core_prob(self) -> float:
        return self.core_mass ** (1.0 / self.groups)

    @property
    def n_vertices(self) -> int:
        return self.groups * self.group_size


@dataclass(frozen=True)
class TripData:
    config: TripPlanConfig
    seed: int
    n: int
    train: tuple[frozenset[int], ...]
    test: tuple[frozenset[int], ...]
    core: frozenset[int]
    degenerate_complement: bool  # complement draws fell back to the core


def gen_trip_samples(cfg: TripPlanConfig, seed: int) -> TripData:
    """Sample s of split tag picks one activity in each group g.

    The first ``random()`` of stream (tag, s, g, 0) below the per-group core
    probability picks the group's core, else its rest; a group that is all
    core picks the core either way, and the draw is flagged degenerate. The
    first ``integers(0, k)`` of stream (tag, s, g, 1) then picks within that
    part of k activities.
    """
    _check_int(seed, "seed")
    size, c = cfg.group_size, cfg.core_per_group
    core = frozenset(g * size + a for g in range(cfg.groups) for a in range(c))
    samples = [(_TRAIN, s) for s in range(cfg.n_train)] + [(_TEST, s) for s in range(cfg.n_test)]
    paths = [(tag, s, g, purpose) for tag, s in samples for g in range(cfg.groups) for purpose in (0, 1)]
    words = first_words(seed, paths)
    take_core = _first_random(words[0::2]) < cfg.per_group_core_prob
    in_core = take_core | (c == size)
    index = _first_integers(words[1::2], np.where(in_core, c, size - c), seed, paths[1::2])
    base = np.tile(np.arange(cfg.groups) * size, len(samples)) + np.where(in_core, 0, c)
    picks = (base + index).reshape(len(samples), cfg.groups).tolist()
    drawn = tuple(frozenset(row) for row in picks)
    degenerate = bool((in_core & ~take_core).any())
    return TripData(cfg, seed, cfg.n_vertices, drawn[:cfg.n_train], drawn[cfg.n_train:], core, degenerate)


# ---------------------------------------------------------------- adversarial


def gen_adversarial(a: int, b: int, eps) -> WeightedHypergraph:
    """Long path (vertices 0..a-1, mass eps) plus b singletons of mass (1-eps)/b.

    Singletons take the high ids a..a+b-1 so that count-based peeling with
    descending-id ties reaches them first.
    """
    if not (_is_int(a) and _is_int(b)):
        raise InputError(f"a and b must be ints, got a={a!r}, b={b!r}")
    if not a > b >= 1:
        raise InputError(f"need a > b >= 1, got a={a}, b={b}")
    eps = as_fraction(eps)
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {text(eps)}")
    edges: list[tuple[list[int], Fraction]] = [(list(range(a)), eps)]
    for i in range(b):
        edges.append(([a + i], (1 - eps) / b))
    return WeightedHypergraph.build(a + b, edges)


# ---------------------------------------------------------------- comparison


def chain_cover(
    n: int,
    train: Sequence[frozenset[int]],
    test: Sequence[frozenset[int]],
    phi_grid: Sequence,
) -> dict[Fraction, GreedyResult]:
    """Smallest chain set reaching each target coverage on the held-out samples.

    The chain and its fixed order, the one ``fixed_context_fit`` reads, are
    fit on the training multiset; if even the top set under-covers, the
    order's tail (the other vertices in ascending id) extends it.
    """
    if not test:
        raise InputError("evaluation sample set must be nonempty")
    ch, order = _sample_chain(n, train)
    return _prefix_results(order, test, phi_grid, [len(s) for s in ch.sets])


def run_comparison(
    n: int,
    train: Sequence[frozenset[int]],
    test: Sequence[frozenset[int]],
    phi_grid: Sequence,
    methods: Sequence[str],
    seed: int,
) -> list[ResultRow]:
    _check_int(seed, "seed")
    phis = [as_fraction(p) for p in phi_grid]
    selectors = {
        "chain": lambda: chain_cover(n, train, test, phis),
        "forward_greedy": lambda: forward_greedy(train, test, phis)[0],
        "reverse_greedy": lambda: reverse_greedy(train, test, phis, n)[0],
    }
    bad = set(methods) - selectors.keys()
    if bad:
        raise InputError(f"unknown methods {sorted(bad)}; pick from {sorted(selectors)}")
    # as chain_cover's hypergraph does, whatever the methods: the greedy
    # selectors take any id; evaluation ids outside [0, n) are never covered
    check_vertex_ids(n, train)
    rows = [
        ResultRow(method, phi, len(res.vertex_set), res.coverage, seed)
        for method, results in selectors.items() if method in methods
        for phi, res in results().items()
    ]
    rows.sort(key=lambda r: (r.method, r.phi, r.seed))
    return rows


def comparison_rows(kind: str, seeds: Sequence[int], phi_grid: Sequence,
                    core_density: float = 0.4) -> list[ResultRow]:
    """All three methods on fresh grid or trip draws per seed.

    Raises InvariantError when a method's set size shrinks as phi grows.
    """
    if kind not in ("grid", "trip"):
        raise InputError(f"unknown comparison kind {kind!r}; pick grid or trip")
    methods = ("chain", "forward_greedy", "reverse_greedy")
    rows: list[ResultRow] = []
    for seed in seeds:
        if kind == "grid":
            data = gen_grid_routes(GridRoutingConfig(), seed)
        else:
            data = gen_trip_samples(TripPlanConfig(core_density=core_density), seed)
        seed_rows = run_comparison(data.n, data.train, data.test, phi_grid, methods, seed)
        # sorted by (method, phi): each method's rows are consecutive, phi ascending
        for prev, cur in zip(seed_rows, seed_rows[1:]):
            if cur.method == prev.method and cur.size < prev.size:
                raise InvariantError(
                    f"{cur.method} seed {seed}: size decreased from phi={prev.phi} to {cur.phi}"
                )
        rows.extend(seed_rows)
    return rows


def adversarial_rows(a: int, b: int, eps, kappa, seeds: Sequence[int]) -> list[ResultRow]:
    """Chain selector vs reverse greedy on ``gen_adversarial(a, b, eps)`` at tau = 1 - eps.

    Raises InputError, before any chain is built, unless every seed is an
    int >= 0, b*eps < a*(1-eps) (the singletons form the chain's first level)
    and (1+kappa)*eps < 1 (the bound at tau rules out the empty set); then
    InvariantError unless the chain keeps exactly the b singletons and
    reverse greedy at least the a path vertices.
    """
    for seed in seeds:
        _check_int(seed, "seed")
    eps, kappa = as_fraction(eps), _check_kappa(kappa)
    h = gen_adversarial(a, b, eps)
    if not (b * eps < a * (1 - eps) and (1 + kappa) * eps < 1):
        raise InputError(
            "adversarial separation needs b*eps < a*(1-eps) and (1+kappa)*eps < 1, "
            f"got a={a}, b={b}, eps={text(eps)}, kappa={text(kappa)}"
        )
    tau = 1 - eps
    chain = nested_chain(h)
    sel = select(chain, tau, kappa)
    samples = [e.vertices for e in h.edges]
    # reverse greedy peels by edge count; its coverage is measured by mass:
    # it keeps the deepest peel state whose survivors hold tau of the mass:
    # the shortest such prefix of the reversed deletion order, found by
    # bisection, as survivor mass never falls as the prefix grows
    order = reverse_greedy(samples, samples, [], h.n)[1][::-1]
    k = bisect_left(range(h.n + 1), tau * h.total_weight,
                    key=lambda k: h.induced_weight(frozenset(order[:k])))
    rev = frozenset(order[:k])
    cov_chain = 1 - sel.residual / h.total_weight
    cov_rev = h.induced_weight(rev) / h.total_weight
    rows = []
    for seed in seeds:
        rows.append(ResultRow("chain", tau, len(sel.vertex_set), cov_chain, seed))
        rows.append(ResultRow("reverse_greedy", tau, len(rev), cov_rev, seed))
    if len(sel.vertex_set) != b:
        raise InvariantError(f"chain selector kept {len(sel.vertex_set)} vertices, wanted {b}")
    if len(rev) < a:
        raise InvariantError(f"reverse greedy kept {len(rev)} < {a} vertices")
    return rows
