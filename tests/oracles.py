"""Independent brute-force oracles.

Everything here is deliberately naive: exhaustive enumeration over vertex
subsets or object families, exact integer/rational arithmetic throughout.
Tests freeze expected values produced by these routines and compare the
library's answers against them; nothing in this module calls back into the
solver paths it is checking.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from chaincover import (
    CalibrationState,
    FractionalSolution,
    InputError,
    NestedChain,
    Selection,
    WeightedHypergraph,
    as_fraction,
    fractional_solution,
)
from chaincover.compress import _check_kappa
from chaincover.hypergraph import unit_fraction
from chaincover.rng import randbelow, stream


@lru_cache(maxsize=None)
def popcounts(n: int) -> tuple[int, ...]:
    return tuple(bin(m).count("1") for m in range(1 << n))


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int, n: int) -> frozenset[int]:
    return frozenset(v for v in range(n) if mask >> v & 1)


def mass_table(h: WeightedHypergraph) -> tuple[list[int], int]:
    """e(K) for every subset mask, scaled to integers by the weight lcm."""
    d = 1
    for e in h.edges:
        d = math.lcm(d, e.weight.denominator)
    masks = np.arange(1 << h.n, dtype=np.int64)
    acc = np.zeros(1 << h.n, dtype=np.int64)
    for e in h.edges:
        a = int(e.weight * d)
        if a:
            be = mask_of(e.vertices)
            acc[(masks & be) == be] += a
    return acc.tolist(), d


def phi_minimizers(
    h: WeightedHypergraph, lam: Fraction, table: tuple[list[int], int] | None = None
) -> tuple[Fraction, list[int], int]:
    """Minimum of |K| - lam*e(K), all minimizing masks, and their intersection.

    The intersection is asserted to be a minimizer itself (lattice property),
    which makes it the unique inclusion-minimal one.
    """
    e_num, d = table if table is not None else mass_table(h)
    p, q = lam.numerator, lam.denominator
    pc = popcounts(h.n)
    best: int | None = None
    arg: list[int] = []
    scale = q * d
    for mask in range(1 << h.n):
        val = pc[mask] * scale - p * e_num[mask]
        if best is None or val < best:
            best, arg = val, [mask]
        elif val == best:
            arg.append(mask)
    inter = arg[0]
    for m in arg[1:]:
        inter &= m
    assert inter in arg, "minimizers are not closed under intersection"
    return Fraction(best, scale), arg, inter


def minimal_minimizer(
    h: WeightedHypergraph, lam: Fraction, table: tuple[list[int], int] | None = None
) -> frozenset[int]:
    _, _, inter = phi_minimizers(h, lam, table)
    return set_of(inter, h.n)


def chain_oracle(h: WeightedHypergraph) -> tuple[list[frozenset[int]], list[Fraction]]:
    """Full nested chain by direct breakpoint search over all subsets.

    From the current set, the next breakpoint is the smallest ratio
    (|T|-|S|)/(e(T)-e(S)) over subsets with strictly larger induced mass; the
    next chain member is the inclusion-minimal minimizer among the
    largest-mass minimizers at that lambda.
    """
    e_num, d = mass_table(h)
    pc = popcounts(h.n)
    full = (1 << h.n) - 1
    cur = 0
    sets = [frozenset()]
    bps: list[Fraction] = []
    while e_num[cur] < e_num[full]:
        lam = min(
            Fraction((pc[m] - pc[cur]) * d, e_num[m] - e_num[cur])
            for m in range(full + 1)
            if e_num[m] > e_num[cur]
        )
        _, arg, _ = phi_minimizers(h, lam, (e_num, d))
        top = max(e_num[m] for m in arg)
        nxt = full
        for m in arg:
            if e_num[m] == top:
                nxt &= m
        assert nxt in arg and nxt & cur == cur and nxt != cur
        bps.append(lam)
        sets.append(set_of(nxt, h.n))
        cur = nxt
    return sets, bps


def exact_min_size(
    h: WeightedHypergraph, tau: Fraction, table: tuple[list[int], int] | None = None
) -> tuple[int, list[int]]:
    """ILP optimum: min |K| with e(K) >= tau*W, plus every optimal mask."""
    e_num, d = table if table is not None else mass_table(h)
    w_num = e_num[-1]
    pc = popcounts(h.n)
    tn, td = tau.numerator, tau.denominator
    best: int | None = None
    optima: list[int] = []
    for mask in range(1 << h.n):
        if e_num[mask] * td >= tn * w_num:
            if best is None or pc[mask] < best:
                best, optima = pc[mask], [mask]
            elif pc[mask] == best:
                optima.append(mask)
    assert best is not None, "the full vertex set always covers"
    return best, optima


def round_fractional(chain: NestedChain, tau, kappa) -> Selection:
    """Threshold the fractional optimum's vertex values at rho = kappa / (1 + kappa).

    The reference that ``select`` is checked against: it returns the upper
    bracket set of the fractional mix exactly when alpha >= rho, and
    ``select`` never sits above it in the chain.  Unlike the rest of this
    module it reads the library's ``fractional_solution``, which
    ``test_compress`` checks against the exhaustive optimum on its own.
    """
    kappa = _check_kappa(kappa)
    frac = fractional_solution(chain, tau)
    rho = kappa / (1 + kappa)
    index = frac.upper_index if frac.alpha >= rho else frac.lower_index
    bound = (1 + kappa) * (1 - as_fraction(tau)) * chain.total
    return Selection(index, chain.sets[index], chain.residuals[index], bound)


# ---------------------------------------------------------------- chain readers
# Readers that scan the chain level by level; ``fractional_solution``,
# ``select``, ``tau_threshold`` and ``predict`` find the same level by bisection.


def fractional_solution_scan(chain: NestedChain, tau) -> FractionalSolution:
    tau = unit_fraction(tau, "coverage target")
    target = tau * chain.total
    induced = chain.induced
    if target > induced[-1]:
        raise InputError(f"target mass {target} exceeds reachable mass {induced[-1]}")
    # exact hit on a chain set: degenerate mix with alpha = 0
    for j, e in enumerate(induced):
        if e == target:
            lam = chain.breakpoints[j - 1] if j >= 1 else Fraction(0)
            return FractionalSolution(j, j, Fraction(0), lam, Fraction(len(chain.sets[j])), target)
    if induced[0] > target:
        # mass attached to no vertex already over-covers; the LP optimum is empty
        return FractionalSolution(0, 0, Fraction(0), Fraction(0), Fraction(0), target)
    j = max(i for i, e in enumerate(induced) if e < target)
    lo, hi = chain.sets[j], chain.sets[j + 1]
    alpha = (target - induced[j]) / (induced[j + 1] - induced[j])
    objective = len(lo) + alpha * (len(hi) - len(lo))
    return FractionalSolution(j, j + 1, alpha, chain.breakpoints[j], objective, target)


def select_scan(chain: NestedChain, tau, kappa) -> Selection:
    """Smallest chain set with residual mass <= (1+kappa)*(1-tau)*W."""
    tau = unit_fraction(tau, "coverage target")
    kappa = _check_kappa(kappa)
    bound = (1 + kappa) * (1 - tau) * chain.total
    for index, r in enumerate(chain.residuals):
        if r <= bound:
            return Selection(index, chain.sets[index], r, bound)
    raise InputError(f"no chain set meets residual bound {bound}")  # r_k = 0 <= bound


def tau_threshold_scan(chain: NestedChain, b: frozenset[int], kappa) -> Fraction:
    """Smallest coverage target whose selection first contains ``b``.

    Returns 1 when b is not contained even in the top chain set.  Under
    ``select``'s non-strict residual rule the containment region is the open
    interval above the returned value; under the boundary-inclusive
    prediction rule the region is closed and the returned value is attained.
    Either way this infimum is the calibration score.
    """
    kappa = _check_kappa(kappa)
    b = frozenset(b)
    if not b:
        return Fraction(0)
    if not b <= chain.sets[-1]:
        return Fraction(1)
    j = next(i for i, s in enumerate(chain.sets) if b <= s)
    prev_residual = chain.residuals[j - 1]
    value = 1 - prev_residual / ((1 + kappa) * chain.total)
    return max(Fraction(0), value)


def predict_scan(chain: NestedChain, state: CalibrationState) -> frozenset[int]:
    """Calibrated vertex set for a new context's candidate chain.

    Uses the boundary-inclusive reading of the residual rule: the smallest
    chain set whose residual is strictly below (1+kappa)(1-tau*)W, falling
    back to the top set when the bound is zero.  At the knife edge this sits
    one level above ``select``, which makes a truth scoring exactly tau*
    covered; scores are heavily tied there (every level-1 entry scores
    kappa/(1+kappa)), so the open-boundary rule would forfeit the conformal
    guarantee outright.
    """
    bound = (1 + state.kappa) * (1 - state.tau_star) * chain.total
    for index, r in enumerate(chain.residuals):
        if r < bound:
            return chain.sets[index]
    return chain.sets[-1]


def fixed_order_reference(
    chain: NestedChain, first: Sequence[frozenset[int]], n_vertices: int
) -> tuple[int, ...]:
    """The fixed-context vertex order, recounted from scratch at every step.

    Chain blocks in order; inside a block, repeatedly the vertex completing
    the most still-uncovered first-half samples, ties by ascending id; then
    every unplaced vertex of [0, n) in ascending id.
    """
    order: list[int] = []
    placed: set[int] = set()
    uncovered = [s for s in first if s]
    for j in range(1, len(chain.sets)):
        block = set(chain.sets[j] - chain.sets[j - 1])
        while block:
            best = min(
                block,
                key=lambda v: (-sum(1 for s in uncovered if v in s and s <= placed | {v}), v),
            )
            block.remove(best)
            placed.add(best)
            order.append(best)
            uncovered = [s for s in uncovered if not s <= placed]
    order.extend(sorted(set(range(n_vertices)) - placed))
    return tuple(order)


# ---------------------------------------------------------------- vertex-order selectors


def reverse_peel_reference(train: Sequence[frozenset[int]], n_vertices: int) -> tuple[int, ...]:
    """Reverse greedy's deletion order, rescanning every surviving sample per step.

    Repeatedly deletes the vertex of [0, n) on the fewest surviving training
    samples, ties by descending id; the samples holding it stop surviving.
    """
    alive = list(train)
    current = set(range(n_vertices))
    deletion: list[int] = []
    while current:
        v = min(current, key=lambda u: (sum(1 for s in alive if u in s), -u))
        current.remove(v)
        deletion.append(v)
        alive = [s for s in alive if v not in s]
    return tuple(deletion)


def covered(samples: Iterable[frozenset[int]], kept: Iterable[int]) -> int:
    """Number of samples lying inside ``kept``."""
    kept = frozenset(kept)
    return sum(1 for s in samples if s <= kept)


def _unit_chain(n: int, samples: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """Chain sets of the unit-weight hypergraph on ``samples``, by exhaustive search."""
    return chain_oracle(WeightedHypergraph.build(n, [(s, 1) for s in samples]))[0]


def selector_reference(
    n: int, train: Sequence[frozenset[int]], test: Sequence[frozenset[int]], phis: Sequence[Fraction]
) -> dict[tuple[str, Fraction], tuple[frozenset[int], Fraction]]:
    """(method, phi) -> (vertex set, test coverage) of the three compared methods.

    Each set is recounted from the samples against the need ceil(phi * m):
    - chain: the smallest exhaustive-search chain set meeting it; if none
      does, the top set grown by the remaining vertices in ascending id
      until it does (or none remain);
    - forward greedy: the shortest run of training vertices, by descending
      frequency and then ascending id, meeting it (all of them if none does);
    - reverse greedy: peel [0, n) one vertex at a time, each time the vertex
      on the fewest training samples still inside the kept set (ties by
      descending id), and keep the deepest state meeting it (no peel if
      none does).
    """
    m = len(test)
    chain = _unit_chain(n, train)
    freq = {v: sum(1 for s in train if v in s) for v in set().union(*train)}
    forward = sorted(freq, key=lambda v: (-freq[v], v))
    peel = [frozenset(range(n))]
    while peel[-1]:
        kept = peel[-1]
        v = min(kept, key=lambda u: (sum(1 for s in train if u in s and s <= kept), -u))
        peel.append(kept - {v})
    out = {}
    for phi in phis:
        need = math.ceil(phi * m)
        grown = next((s for s in chain if covered(test, s) >= need), None)
        if grown is None:
            grown = chain[-1]
            for v in sorted(set(range(n)) - grown):
                if covered(test, grown) >= need:
                    break
                grown |= {v}
        hit = next((i for i in range(len(forward) + 1) if covered(test, forward[:i]) >= need),
                   len(forward))
        depth = max((i for i, s in enumerate(peel) if covered(test, s) >= need), default=0)
        for method, kept in (("chain", grown), ("forward_greedy", frozenset(forward[:hit])),
                             ("reverse_greedy", peel[depth])):
            out[(method, phi)] = (kept, Fraction(covered(test, kept), m))
    return out


def fixed_fit_reference(
    samples: Sequence[frozenset[int]], phi: Fraction, n: int
) -> tuple[frozenset[int], int, int, Fraction]:
    """(vertex set, prefix length, level, second-half coverage) of the fixed-context fit.

    The order is ``fixed_order_reference`` on the exhaustive-search chain of
    the first half; the level is ceil(phi * (T2 + 1)); the prefix is the
    shortest one whose recounted second-half coverage reaches the level, or
    the whole order when none does.
    """
    first, second = samples[: len(samples) // 2], samples[len(samples) // 2:]
    order = fixed_order_reference(SimpleNamespace(sets=_unit_chain(n, first)), first, n)
    level = math.ceil(phi * (len(second) + 1))
    length = next((i for i in range(n + 1) if covered(second, order[:i]) >= level), n)
    kept = frozenset(order[:length])
    return kept, length, level, Fraction(covered(second, kept), len(second))


def containment_threshold_scan(
    select_fn, taus: Sequence[Fraction], target: frozenset[int]
) -> Fraction | None:
    """Smallest grid tau whose selection contains the target, None if none does."""
    for t in taus:
        if target <= select_fn(t):
            return t
    return None


# ---------------------------------------------------------------- grid routing


def monotone_path_reference(side: int, weights: Sequence[float]) -> frozenset[int]:
    """Edge ids of the min-(weight, id sequence) right/down path over a
    side x side grid, by enumerating every path.

    Right edges of row i are i*(side-1)+j, down edges side*(side-1)+i*side+j.
    Each path's weight is summed from the start, in path order, as the
    dynamic program sums it, so both see the same doubles.
    """
    steps = 2 * (side - 1)
    best = None
    for downs in combinations(range(steps), side - 1):
        i = j = 0
        total, ids = 0.0, []
        for k in range(steps):
            if k in downs:
                e, i = side * (side - 1) + i * side + j, i + 1
            else:
                e, j = i * (side - 1) + j, j + 1
            total += float(weights[e])
            ids.append(e)
        best = min(best or (total, ids), (total, ids))
    return frozenset(best[1])


# ---------------------------------------------------------------- trip planning


def trip_samples_reference(cfg, seed: int):
    """(train, test, degenerate_complement) of the trip-planning generator,
    one full ``rng.stream`` generator per group and purpose.

    Sample s of split tag picks, in each group g, the core when the first
    ``random()`` of stream (tag, s, g, 0) falls below the per-group core
    probability or the group is all core, and then the first
    ``integers(0, k)`` of stream (tag, s, g, 1) within the core or the rest.
    """
    p, c, size = cfg.per_group_core_prob, cfg.core_per_group, cfg.group_size
    degenerate = False
    splits = []
    for tag, count in ((0, cfg.n_train), (1, cfg.n_test)):
        samples = []
        for s in range(count):
            picks = []
            for g in range(cfg.groups):
                take_core = stream(seed, tag, s, g, 0).random() < p
                index = stream(seed, tag, s, g, 1)
                if take_core or c == size:
                    degenerate = degenerate or not take_core
                    picks.append(g * size + int(index.integers(0, c)))
                else:
                    picks.append(g * size + c + int(index.integers(0, size - c)))
            samples.append(frozenset(picks))
        splits.append(tuple(samples))
    return splits[0], splits[1], degenerate


# ---------------------------------------------------------------- samplers


def enum_walks(
    path: Sequence[int], other_edges: Sequence[tuple[int, int]], budget: int
) -> list[tuple[tuple[int, ...], tuple[tuple[str, int], ...], int]]:
    """Every move sequence from path start to its end with cost <= budget.

    Mirrors the walk move semantics: reference path edges go forward at cost
    0, other edges are usable both ways at cost 1, the path end absorbs.
    """
    moves: dict[int, list[tuple[int, int, tuple[str, int]]]] = defaultdict(list)
    for i, (a, b) in enumerate(zip(path, path[1:])):
        moves[a].append((b, 0, ("path", i)))
    for j, (a, b) in enumerate(other_edges):
        moves[a].append((b, 1, ("free", j)))
        moves[b].append((a, 1, ("free", j)))
    t = path[-1]
    out: list[tuple[tuple[int, ...], tuple[tuple[str, int], ...], int]] = []

    def go(u: int, cost: int, vseq: list[int], eseq: list[tuple[str, int]]) -> None:
        if u == t:
            out.append((tuple(vseq), tuple(eseq), cost))
            return
        for v, c, key in moves[u]:
            if cost + c <= budget:
                go(v, cost + c, vseq + [v], eseq + [key])

    go(path[0], 0, [path[0]], [])
    return out


def enum_itineraries(
    groups: Sequence[Sequence[int]], reference: Sequence[int], budget: int
) -> list[tuple[int, ...]]:
    """Every one-per-group pick tuple within the deviation budget."""
    out = []
    for combo in product(*groups):
        cost = sum(1 for pick, ref in zip(combo, reference) if pick != ref)
        if cost <= budget:
            out.append(combo)
    return out


def enum_subtrees(
    parent: Sequence[int], root: int, reference: Iterable[int], budget: int
) -> list[frozenset[int]]:
    """Every root-containing connected subtree within the cost budget."""
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if v != root:
            children[parent[v]].append(v)
    ref = frozenset(reference)

    def grow(u: int) -> list[frozenset[int]]:
        options = [frozenset({u})]
        for c in children[u]:
            subs = grow(c)
            options = [base | extra for base in options for extra in [frozenset()] + subs]
        return options

    cost = lambda s: sum(1 for v in s if v not in ref)
    return [s for s in grow(root) if cost(s) <= budget]


def exact_draws(monkeypatch, draw) -> dict:
    """The exact probability of every output of ``draw()``, a sampler call.

    ``randbelow`` in ``chaincover.rng`` (which ``choice_weighted`` calls) and
    in ``chaincover.samplers`` is replaced by a scripted stand-in, and every
    outcome sequence is walked depth-first: a run replays the outcomes
    scripted so far, a draw past them returns 0 and records its bound, and
    the next run moves the last draw that has outcomes left to its next one.
    A run's probability is the product of 1/bound over its draws.
    """
    from chaincover import rng, samplers

    script: list[list[int]] = []  # [outcome, bound] per draw of the run
    at = 0

    def scripted(gen, n: int) -> int:
        nonlocal at
        if n <= 0:
            raise ValueError(f"randbelow needs a positive bound, got {n}")
        if at == len(script):
            script.append([0, n])
        assert script[at][1] == n, "a replayed draw changed its bound"
        at += 1
        return script[at - 1][0]

    mass: defaultdict = defaultdict(Fraction)
    with monkeypatch.context() as patch:
        patch.setattr(rng, "randbelow", scripted)
        patch.setattr(samplers, "randbelow", scripted)
        while True:
            at = 0
            out = draw()
            assert at == len(script), "a replay took fewer draws"
            mass[out] += Fraction(1, math.prod(n for _, n in script))
            while script and script[-1][0] == script[-1][1] - 1:
                script.pop()
            if not script:
                return dict(mass)
            script[-1][0] += 1


# The draw rule and the three per-step weight lists the samplers used before
# each family's terms had one function; the expressions are kept as they were.


def choice_weighted_reference(gen, weights: list[int]) -> int:
    """Index drawn proportionally to non-negative integer weights, exactly."""
    total = sum(weights)
    r = randbelow(gen, total)
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    raise AssertionError("weights changed during draw")


def walk_step_reference(table, u: int, k: int):
    """The moves and weights of a walk draw at vertex u with k left."""
    options = [(v, c, key) for v, c, key in table.adjacency.get(u, ()) if k >= c]
    weights = [table.counts.get((v, k - c), 0) for v, c, _ in options]
    return options, weights


def group_step_reference(table, r: int, k: int) -> list[int]:
    """The stay/deviate weights of an itinerary draw at group r with k left."""
    group = table.groups[r]
    stay = table.counts[r + 1][k]
    deviate = (len(group) - 1) * table.counts[r + 1][k - 1] if k >= 1 else 0
    return [stay, deviate]


def child_step_reference(table, u: int, i: int, k_rem: int) -> list[int]:
    """The weights of a subtree draw for child i of u with k_rem left: budget + 1 long."""
    budget = table.budget
    factor, rest = table.factors[table.children[u][i]], table.suffixes[u][i + 1]
    weights = [
        factor[j] * rest[k_rem - j] if j <= k_rem else 0 for j in range(budget + 1)
    ]
    return weights


# The three samplers as they drew before each step scanned its cell's terms
# against the stored total: every step draws through choice_weighted_reference
# over the old weight lists above.


def walk_sample_reference(table, gen):
    """(vertices, edge keys, cost) of a walk draw."""
    s, t = table.path[0], table.path[-1]
    cost = k = choice_weighted_reference(gen, [table.counts[(s, k)] for k in range(table.budget + 1)])
    u, vertices, keys = s, [s], []
    while u != t:
        moves, weights = walk_step_reference(table, u, k)
        u, c, key = moves[choice_weighted_reference(gen, weights)]
        k -= c
        vertices.append(u)
        keys.append(key)
    return tuple(vertices), tuple(keys), cost


def itinerary_sample_reference(table, gen) -> tuple[int, ...]:
    k = choice_weighted_reference(gen, list(table.counts[0]))
    picks = []
    for r, group in enumerate(table.groups):
        if choice_weighted_reference(gen, group_step_reference(table, r, k)) == 0:
            picks.append(table.reference[r])
        else:
            others = [v for v in group if v != table.reference[r]]
            picks.append(others[randbelow(gen, len(others))])
            k -= 1
    return tuple(picks)


def subtree_sample_reference(table, gen) -> frozenset[int]:
    root = table.root
    k = choice_weighted_reference(gen, list(table.counts[root]))
    chosen = {root}
    stack = [[root, 0, k - (0 if root in table.reference else 1)]]
    while stack:
        frame = stack[-1]
        u, i, k_rem = frame
        if i == len(table.children[u]):
            stack.pop()
            continue
        child = table.children[u][i]
        j = choice_weighted_reference(gen, child_step_reference(table, u, i, k_rem))
        frame[1], frame[2] = i + 1, k_rem - j
        if j == 0 and randbelow(gen, 1 + table.counts[child][0]) == 0:
            continue
        chosen.add(child)
        stack.append([child, 0, j - (0 if child in table.reference else 1)])
    return frozenset(chosen)


# ---------------------------------------------------------------- generators


def random_hypergraph(
    rng: np.random.Generator,
    max_n: int,
    max_m: int,
    *,
    allow_empty_edges: bool = True,
    allow_zero_weights: bool = True,
    max_num: int = 9,
    max_den: int = 9,
) -> WeightedHypergraph:
    """Small random instance with exact rational weights.

    Duplicates, zero weights, and vertexless edges appear with small
    probability so the oracle comparisons exercise those branches too.
    """
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    edges: list[tuple[frozenset[int], Fraction]] = []
    for _ in range(m):
        if allow_empty_edges and rng.random() < 0.05:
            verts: frozenset[int] = frozenset()
        else:
            size = int(rng.integers(1, n + 1))
            verts = frozenset(int(v) for v in rng.choice(n, size=size, replace=False))
        if allow_zero_weights and rng.random() < 0.08:
            w = Fraction(0)
        else:
            w = Fraction(int(rng.integers(1, max_num + 1)), int(rng.integers(1, max_den + 1)))
        edges.append((verts, w))
        if rng.random() < 0.08:
            edges.append((verts, w))  # exact duplicate stays unmerged
    return WeightedHypergraph.build(n, edges)


def zipf_hypergraph(
    seed: int, n: int, m: int, dens: Sequence[int] | None = None
) -> WeightedHypergraph:
    """m hyperedges of 2-6 vertices with Zipf(1) vertex popularity.

    Weights are 1, or a/b with a in 1..9 and b drawn from ``dens``.  Skewed
    popularity gives chains with many levels, too large for the exhaustive
    oracles above.
    """
    rng = np.random.default_rng(seed)
    popularity = 1 / np.arange(1, n + 1)
    popularity /= popularity.sum()
    edges = []
    for _ in range(m):
        members = rng.choice(n, size=int(rng.integers(2, 7)), replace=False, p=popularity)
        weight = 1 if dens is None else Fraction(int(rng.integers(1, 10)), int(rng.choice(dens)))
        edges.append((members.tolist(), weight))
    return WeightedHypergraph.build(n, edges)
