"""Frequency-greedy baselines for vertex-set coverage.

Forward greedy adds vertices in descending training frequency (ties by
ascending id) until the evaluation coverage target is met.  Reverse greedy
peels the vertex lying on the fewest surviving training hyperedges (ties by
descending id) and, per target, keeps the longest-peeled state that still
meets it.  Both are prefix families of a single order, hence nested across
targets.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .hypergraph import InputError, as_fraction, prefix_cover_counts

__all__ = ["GreedyResult", "GreedyTrace", "forward_greedy", "reverse_greedy"]


@dataclass(frozen=True)
class GreedyResult:
    vertex_set: frozenset[int]
    coverage: Fraction
    reached: bool  # False when the target was unattainable for this selector


@dataclass(frozen=True)
class GreedyTrace:
    """Vertex decision order with evaluation coverage after each step."""

    order: tuple[int, ...]
    coverages: tuple[Fraction, ...]


def _normalize(samples: Iterable) -> list[frozenset[int]]:
    return [frozenset(s) for s in samples]


def forward_greedy(
    train: Sequence[frozenset[int]],
    eval_samples: Sequence[frozenset[int]],
    targets: Sequence,
) -> tuple[dict[Fraction, GreedyResult], GreedyTrace]:
    train = _normalize(train)
    eval_samples = _normalize(eval_samples)
    if not eval_samples:
        raise InputError("evaluation sample set must be nonempty")
    freq = Counter(v for s in train for v in s)
    order = sorted(freq, key=lambda v: (-freq[v], v))
    counts = prefix_cover_counts(order, eval_samples)
    coverages = [Fraction(c, len(eval_samples)) for c in counts]
    results: dict[Fraction, GreedyResult] = {}
    for raw in targets:
        phi = as_fraction(raw)
        hit = bisect_left(counts, math.ceil(phi * len(eval_samples)))
        if hit > len(order):
            results[phi] = GreedyResult(frozenset(order), coverages[-1], False)
        else:
            results[phi] = GreedyResult(frozenset(order[:hit]), coverages[hit], True)
    return results, GreedyTrace(tuple(order), tuple(coverages[1:]))


def reverse_greedy(
    train: Sequence[frozenset[int]],
    eval_samples: Sequence[frozenset[int]],
    targets: Sequence,
    n_vertices: int,
) -> tuple[dict[Fraction, GreedyResult], GreedyTrace]:
    train = _normalize(train)
    eval_samples = _normalize(eval_samples)
    if not eval_samples:
        raise InputError("evaluation sample set must be nonempty")
    alive = list(train)
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
    # the state after i deletions is the prefix of length n_vertices - i of
    # the reversed deletion order
    counts = prefix_cover_counts(deletion[::-1], eval_samples)
    coverages = [Fraction(c, len(eval_samples)) for c in reversed(counts)]
    results: dict[Fraction, GreedyResult] = {}
    for raw in targets:
        phi = as_fraction(raw)
        # keep the deepest peel state that still meets the target
        shortest = bisect_left(counts, math.ceil(phi * len(eval_samples)))
        depth = max(n_vertices - shortest, 0)
        survivors = frozenset(range(n_vertices)) - frozenset(deletion[:depth])
        results[phi] = GreedyResult(survivors, coverages[depth], shortest <= n_vertices)
    return results, GreedyTrace(tuple(deletion), tuple(coverages[1:]))
