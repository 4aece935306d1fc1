"""Output checks, recomputed from the inputs by the benchmark's own code.

Each check returns a list of error strings; an empty list means the output
is correct.  Nothing here calls into chaincover, so a check cannot share a
defect with the code it checks and never records a span.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction


def _contained(edges, s: frozenset[int]) -> Fraction:
    return sum((w for v, w in edges if v <= s), Fraction(0))


def check_chain(edges, chain) -> list[str]:
    """Nested chain over ``edges`` = [(frozenset, Fraction)]: shape and breakpoint identity."""
    errors = []
    sets, bps, induced = chain.sets, chain.breakpoints, chain.induced
    if not (len(sets) == len(induced) == len(bps) + 1):
        return [f"chain arrays disagree: {len(sets)} sets, {len(bps)} breakpoints"]
    if sets[0]:
        errors.append("chain does not start at the empty set")
    support = frozenset().union(*(v for v, w in edges if w > 0))
    if sets[-1] != support:
        errors.append("top chain set is not the support of the positive hyperedges")
    total = sum((w for _, w in edges), Fraction(0))
    if chain.total != total:
        errors.append(f"chain total {chain.total} != {total}")
    for j, s in enumerate(sets):
        if induced[j] != _contained(edges, s):
            errors.append(f"induced weight of level {j} is {induced[j]}, recount gives "
                          f"{_contained(edges, s)}")
        if j == 0:
            continue
        if not sets[j - 1] < s:
            errors.append(f"levels {j - 1} and {j} are not strictly nested")
        lam = bps[j - 1]
        if lam <= 0 or (j >= 2 and not bps[j - 2] < lam):
            errors.append(f"breakpoint {j - 1} out of order")
        if len(sets[j - 1]) - lam * induced[j - 1] != len(s) - lam * induced[j]:
            errors.append(f"both neighbours of breakpoint {j - 1} are not optimal there")
    return errors


def check_selections(chain, taus, kappa, picks) -> list[str]:
    """Each pick is the smallest chain set with residual <= (1+kappa)(1-tau)W."""
    errors = []
    residuals = [chain.total - e for e in chain.induced]
    last = 0
    for tau, pick in zip(taus, picks, strict=True):
        bound = (1 + kappa) * (1 - tau) * chain.total
        index = next(j for j, r in enumerate(residuals) if r <= bound)
        if (pick.index, pick.vertex_set, pick.residual) != (index, chain.sets[index], residuals[index]):
            errors.append(f"selection at tau={tau} is level {pick.index}, expected {index}")
        if pick.index < last:
            errors.append(f"selection at tau={tau} moved down the chain")
        last = pick.index
    return errors


# ---------------------------------------------------------------- calibration


def check_trip(trip, groups: int, group_size: int, n_train: int, n_test: int) -> list[str]:
    if (len(trip.train), len(trip.test)) != (n_train, n_test):
        return [f"trip draw has {len(trip.train)}/{len(trip.test)} samples"]
    for s in trip.train + trip.test:
        if sorted(v // group_size for v in s) != list(range(groups)):
            return [f"itinerary {sorted(s)} does not take one activity per group"]
    return []


def _covered(samples, k) -> int:
    return sum(1 for s in samples if s <= k)


def check_fit(fit, second, phi, n: int, previous_len: int) -> list[str]:
    """Fit = shortest prefix of its order covering ceil(phi*(T2+1)) second-half samples."""
    errors = []
    if sorted(fit.order) != list(range(n)):
        errors.append("fixed order is not a permutation of the vertices")
    level = math.ceil(phi * (len(second) + 1))
    covered = _covered(second, fit.vertex_set)
    if fit.level_count != level:
        errors.append(f"level {fit.level_count} != ceil(phi*(T2+1)) = {level}")
    if level <= len(second):
        if fit.vertex_set != frozenset(fit.order[: fit.prefix_len]):
            errors.append("fit set is not a prefix of its order")
        if covered < level:
            errors.append(f"prefix covers {covered} < {level} second-half samples")
        if fit.prefix_len and _covered(second, frozenset(fit.order[: fit.prefix_len - 1])) >= level:
            errors.append("a shorter prefix already reaches the level")
    if fit.second_half_coverage != Fraction(covered, len(second)):
        errors.append(f"reported coverage {fit.second_half_coverage}, recount {covered}/{len(second)}")
    if len(fit.vertex_set) < previous_len:
        errors.append("fit size shrank as phi grew")
    return errors


def _first_reaching(coverages, need):
    return next((i for i, c in enumerate(coverages) if c >= need), None)


def expected_rows(n, train, test, phis, chain) -> dict[tuple[str, Fraction], tuple[int, Fraction]]:
    """(method, phi) -> (size, coverage), recounted from the samples.

    ``chain`` is the nested chain on the training samples (the program's own
    output, checked separately); the greedy orders are rebuilt here.
    """
    m = len(test)
    out = {}
    freq = Counter(v for s in train for v in s)
    order = sorted(freq, key=lambda v: (-freq[v], v))
    forward = [_covered(test, frozenset(order[:i])) for i in range(len(order) + 1)]
    alive, current = list(train), set(range(n))
    intensity = Counter(v for s in alive for v in s)
    reverse = [_covered(test, current)]
    while current:
        v = min(current, key=lambda u: (intensity[u], -u))
        current.remove(v)
        for s in alive:
            if v in s:
                for u in s:
                    intensity[u] -= 1
        alive = [s for s in alive if v not in s]
        reverse.append(_covered(test, current))
    chain_cov = [_covered(test, s) for s in chain.sets]
    extra = sorted(set(range(n)) - chain.sets[-1])
    for phi in phis:
        need = math.ceil(phi * m)
        hit = _first_reaching(forward, need)
        hit = len(order) if hit is None else hit
        out[("forward_greedy", phi)] = (hit, Fraction(forward[hit], m))
        depth = 0
        for i, c in enumerate(reverse):
            if c < need:
                break
            depth = i
        out[("reverse_greedy", phi)] = (n - depth, Fraction(reverse[depth], m))
        hit = _first_reaching(chain_cov, need)
        if hit is not None:
            out[("chain", phi)] = (len(chain.sets[hit]), Fraction(chain_cov[hit], m))
            continue
        grown, count = set(chain.sets[-1]), chain_cov[-1]
        for v in extra:
            if count >= need:
                break
            grown.add(v)
            count = _covered(test, grown)
        out[("chain", phi)] = (len(grown), Fraction(count, m))
    return out


def check_rows(rows, expected) -> list[str]:
    errors = []
    got = {(r.method, r.phi): (r.size, r.coverage) for r in rows}
    if got.keys() != expected.keys() or len(rows) != len(expected):
        return [f"comparison rows cover {sorted(got)} instead of {sorted(expected)}"]
    for key, want in expected.items():
        if got[key] != want:
            errors.append(f"{key[0]} at phi={key[1]}: row {got[key]}, recount {want}")
    for method in {m for m, _ in expected}:
        sizes = [got[k][0] for k in sorted(k for k in got if k[0] == method)]
        if sizes != sorted(sizes):
            errors.append(f"{method} sizes are not non-decreasing in phi")
    return errors


def check_routes(grid, side: int) -> list[str]:
    n_grid = 2 * side * (side - 1)
    for r in grid.train + grid.test:
        if r != grid.bypass and (len(r) != 2 * (side - 1) or max(r) >= n_grid):
            return [f"route {sorted(r)} is neither the bypass nor a monotone grid path"]
    return []


def check_calibration(state, d1, d2, phi, delta, distance) -> list[str]:
    """Stage-1 cutoff and stage-2 quantile recounted from the pair scores."""
    errors = []
    scores = sorted(distance(p.prediction, p.truth) for p in d1)
    idx = math.ceil((1 - delta) * (len(scores) + 1))
    d_star = math.inf if idx > len(scores) else scores[idx - 1]
    if state.d_star != d_star:
        errors.append(f"d* = {state.d_star}, recount {d_star}")
    if len(state.etas) != len(d2):
        return errors + [f"{len(state.etas)} scores for {len(d2)} pairs"]
    for p, eta in zip(d2, state.etas):
        if eta.censored != (distance(p.prediction, p.truth) > d_star):
            errors.append("censoring disagrees with the stage-1 cutoff")
        if not 0 <= eta.value <= 1 or (eta.censored and eta.value != 1):
            errors.append(f"score {eta.value} out of range")
    ordered = sorted(e.value for e in state.etas)
    idx = math.ceil(phi * (len(ordered) + 1))
    tau_star = Fraction(1) if idx > len(ordered) else ordered[idx - 1]
    if state.tau_star != tau_star:
        errors.append(f"tau* = {state.tau_star}, recount {tau_star}")
    return errors


# ---------------------------------------------------------------- samplers


def check_walk(walk, path, other_edges, budget) -> list[str]:
    v = walk.vertices
    if v[0] != path[0] or v[-1] != path[-1] or path[-1] in v[:-1]:
        return [f"walk {v} is not an s->t walk ending at its first visit to t"]
    if len(walk.edge_keys) != len(v) - 1:
        return ["walk edge keys do not match its vertices"]
    cost = 0
    for (u, w), (kind, j) in zip(zip(v, v[1:]), walk.edge_keys):
        if kind == "path" and 0 <= j < len(path) - 1 and (path[j], path[j + 1]) == (u, w):
            continue
        if kind == "free" and 0 <= j < len(other_edges) and {u, w} == set(other_edges[j]):
            cost += 1
            continue
        return [f"walk step {u}->{w} uses no edge {kind}#{j}"]
    if cost != walk.cost or cost > budget:
        return [f"walk cost {walk.cost} (recount {cost}) over budget {budget}"]
    return []


def check_itinerary(picks, groups, reference, budget) -> list[str]:
    if len(picks) != len(groups) or any(p not in g for p, g in zip(picks, groups)):
        return [f"itinerary {picks} does not pick one member per group"]
    off = sum(p != r for p, r in zip(picks, reference))
    if off > budget:
        return [f"itinerary deviates at {off} > {budget} groups"]
    return []


def check_subtree(nodes, parent, root, reference, budget) -> list[str]:
    if root not in nodes or any(not 0 <= v < len(parent) for v in nodes):
        return ["subtree misses the root or holds unknown nodes"]
    if any(parent[v] not in nodes for v in nodes if v != root):
        return ["subtree is not closed under parents"]
    if len(nodes - reference) > budget:
        return [f"subtree leaves the reference at {len(nodes - reference)} > {budget} nodes"]
    return []
