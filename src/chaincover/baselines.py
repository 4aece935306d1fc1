"""Frequency-greedy baselines: two prefix families of one vertex order each.

Per target phi, each takes the shortest prefix of its order covering
ceil(phi * m) of the m evaluation samples, else the whole order
(``hypergraph.shortest_prefix``), so it is nested across targets.  Forward
greedy orders the training vertices by descending frequency (ties by
ascending id).  Reverse greedy peels [0, n), each time the vertex on the
fewest surviving training samples (ties by descending id; Charikar, APPROX
2000), and orders by reversed deletion: a prefix is a peel state.  Both
return ``(results, order)``; reverse greedy's order is its deletion order.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .hypergraph import InputError, check_vertex_ids, prefix_cover_counts, shortest_prefix, unit_fraction

__all__ = ["GreedyResult", "forward_greedy", "reverse_greedy"]


class GreedyResult(NamedTuple):
    """A selected prefix and its coverage on the evaluation samples."""

    vertex_set: frozenset[int]
    coverage: Fraction


def _normalize(train: Iterable, eval_samples: Iterable) -> tuple[list[frozenset[int]], ...]:
    eval_samples = [frozenset(s) for s in eval_samples]
    if not eval_samples:
        raise InputError("evaluation sample set must be nonempty")
    return [frozenset(s) for s in train], eval_samples


def _prefix_results(
    order: Sequence[int], eval_samples: Sequence, targets: Sequence, sizes: Sequence[int] = ()
) -> dict[Fraction, GreedyResult]:
    """Per target, the shortest prefix of ``order`` reaching it, rounded up
    to the first of the ascending ``sizes`` at or above it, if any."""
    counts = prefix_cover_counts(order, eval_samples)
    m = len(eval_samples)
    results: dict[Fraction, GreedyResult] = {}
    for raw in targets:
        phi = unit_fraction(raw, "phi")
        k = shortest_prefix(counts, math.ceil(phi * m))
        k = next((s for s in sizes if s >= k), k)
        results[phi] = GreedyResult(frozenset(order[:k]), Fraction(counts[k], m))
    return results


def forward_greedy(
    train: Sequence[frozenset[int]],
    eval_samples: Sequence[frozenset[int]],
    targets: Sequence,
) -> tuple[dict[Fraction, GreedyResult], tuple[int, ...]]:
    train, eval_samples = _normalize(train, eval_samples)
    freq = Counter(v for s in train for v in s)
    order = tuple(sorted(freq, key=lambda v: (-freq[v], v)))
    return _prefix_results(order, eval_samples, targets), order


def reverse_greedy(
    train: Sequence[frozenset[int]],
    eval_samples: Sequence[frozenset[int]],
    targets: Sequence,
    n_vertices: int,
) -> tuple[dict[Fraction, GreedyResult], tuple[int, ...]]:
    check_vertex_ids(n_vertices, ())
    train, eval_samples = _normalize(train, eval_samples)
    index: defaultdict[int, list[int]] = defaultdict(list)  # id -> samples holding it
    for i, s in enumerate(train):
        for v in s:
            index[v].append(i)
    # each sample's holders in [0, n), indexed once; ids outside never peel
    holders = [index.get(v, []) for v in range(n_vertices)]
    members: list[list[int]] = [[] for _ in train]
    for v, held in enumerate(holders):
        for i in held:
            members[i].append(v)
    intensity = [len(held) for held in holders]
    # an entry whose intensity has since dropped waits in the heap behind the
    # vertex's current one, and is skipped when popped
    heap = [(count, -v) for v, count in enumerate(intensity)]
    heapq.heapify(heap)
    dead = [False] * len(train)  # a sample dies with its first deleted vertex
    deleted = [False] * len(holders)
    deletion: list[int] = []
    while heap:
        count, v = heapq.heappop(heap)
        v = -v
        if deleted[v] or count != intensity[v]:
            continue
        deleted[v] = True
        deletion.append(v)
        for i in holders[v]:
            if not dead[i]:
                dead[i] = True
                for u in members[i]:
                    intensity[u] -= 1
                    if not deleted[u]:
                        heapq.heappush(heap, (intensity[u], -u))
    return _prefix_results(deletion[::-1], eval_samples, targets), tuple(deletion)
