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

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .hypergraph import InputError, prefix_cover_counts, shortest_prefix, unit_fraction

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
    order: Sequence[int], eval_samples: Sequence[frozenset[int]], targets: Sequence
) -> dict[Fraction, GreedyResult]:
    counts = prefix_cover_counts(order, eval_samples)
    m = len(eval_samples)
    results: dict[Fraction, GreedyResult] = {}
    for raw in targets:
        phi = unit_fraction(raw, "phi")
        k = shortest_prefix(counts, math.ceil(phi * m))
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
    alive, eval_samples = _normalize(train, eval_samples)
    current = set(range(n_vertices))
    intensity = Counter(v for s in alive for v in s)
    deletion: list[int] = []
    while current:
        v = min(current, key=lambda u: (intensity[u], -u))
        current.remove(v)
        deletion.append(v)
        kept = []
        for s in alive:
            if v in s:
                for u in s:
                    intensity[u] -= 1
            else:
                kept.append(s)
        alive = kept
    return _prefix_results(deletion[::-1], eval_samples, targets), tuple(deletion)
