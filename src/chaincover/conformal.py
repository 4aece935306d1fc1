"""Split calibration of distance and coverage thresholds.

Stage 1 calibrates a distance cutoff d* so the truth lands inside the
candidate family with probability 1-delta.  A pair's candidate family is its
universe's own weighted hyperedges within distance d* of its prediction.
Stage 2 scores each remaining calibration pair by the smallest coverage
target tau (a fraction of the family's mass) whose chain selection contains
the truth (1 when the truth lies farther than d* from the prediction), and
takes a conformal quantile tau* of those scores; when the quantile index
exceeds the number of scores, tau* is 1 by overflow, and when it is 0 (at
phi = 0) no score is needed and tau* is 0.  Prediction then runs
the chain selector at tau*.

Also provides the fixed-context fitter: split the samples in half, build the
chain and its fixed vertex order on the first half, and return the shortest
prefix of that order meeting a conformal covered-count level on the second
half.  Neither depends on phi, so fits at several phi on one first half, in a
row, share one chain and one order (``chain._sample_chain`` keeps the last).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .chain import NestedChain, _sample_chain, nested_chain
from .compress import _check_kappa, select, tau_threshold
from .hypergraph import (
    InputError,
    WeightedHypergraph,
    as_fraction,
    check_vertex_ids,
    prefix_cover_counts,
    rational_to_text as text,
    shortest_prefix,
    unit_fraction,
)

__all__ = [
    "LabeledPair",
    "EtaScore",
    "CalibrationState",
    "FixedContextFit",
    "distance_edge_symdiff",
    "quantile_index",
    "calibrate_stage1",
    "calibrate_stage2",
    "calibrate",
    "predict",
    "fixed_context_fit",
]


@dataclass(frozen=True)
class LabeledPair:
    """Predicted hyperedge, observed hyperedge, and the candidate universe."""

    prediction: frozenset[int]
    truth: frozenset[int]
    universe: WeightedHypergraph


@dataclass(frozen=True)
class EtaScore:
    value: Fraction
    censored: bool  # truth missed the stage-1 candidate family entirely


@dataclass(frozen=True)
class CalibrationState:
    d_star: float  # +inf when the stage-1 index overflows
    tau_star: Fraction
    phi: Fraction
    delta: Fraction
    kappa: Fraction
    etas: tuple[EtaScore, ...]


def distance_edge_symdiff(a: frozenset[int], b: frozenset[int]) -> int:
    """Number of vertices on which the two hyperedges differ."""
    return len(a ^ b)


def quantile_index(level: Fraction, m: int) -> int:
    """1-based conformal order-statistic index ceil(level * (m + 1))."""
    return math.ceil(level * (m + 1))


def calibrate_stage1(pairs: Sequence[LabeledPair], delta) -> float:
    """Distance cutoff: the ceil((1-delta)(m+1))-th smallest score, inf on overflow."""
    if not pairs:
        raise InputError("stage-1 calibration needs at least one pair")
    delta = as_fraction(delta)
    if not 0 < delta < 1:
        raise InputError(f"delta must lie in (0, 1), got {text(delta)}")
    scores = sorted(distance_edge_symdiff(p.prediction, p.truth) for p in pairs)
    idx = quantile_index(1 - delta, len(scores))
    if idx > len(scores):
        return math.inf
    return scores[idx - 1]


def calibrate_stage2(
    pairs: Sequence[LabeledPair], d_star: float, phi, kappa
) -> tuple[Fraction, tuple[EtaScore, ...]]:
    """Coverage threshold tau* plus the per-pair scores that produced it.

    A pair's candidate family is its universe's own weighted hyperedges
    within distance d* of its prediction.  One chain answers every target,
    so pairs with equal families share one chain, built once per call.
    """
    phi = unit_fraction(phi, "phi")
    kappa = _check_kappa(kappa)  # also when every pair is censored
    chains: dict[WeightedHypergraph, NestedChain] = {}
    etas: list[EtaScore] = []
    for pair in pairs:
        if distance_edge_symdiff(pair.prediction, pair.truth) > d_star:
            etas.append(EtaScore(Fraction(1), True))
            continue
        u = pair.universe
        family = WeightedHypergraph(u.n, tuple(
            e for e in u.edges if distance_edge_symdiff(pair.prediction, e.vertices) <= d_star
        ))
        if family not in chains:
            chains[family] = nested_chain(family)
        etas.append(EtaScore(tau_threshold(chains[family], pair.truth, kappa), False))
    # 1-based order statistics; index 0 (phi = 0) needs no score and gives 0
    ordered = [Fraction(0)] + sorted(e.value for e in etas)
    idx = quantile_index(phi, len(etas))
    tau_star = Fraction(1) if idx > len(etas) else ordered[idx]
    return tau_star, tuple(etas)


def calibrate(
    d1: Sequence[LabeledPair],
    d2: Sequence[LabeledPair],
    phi,
    delta=None,
    kappa=1,
) -> CalibrationState:
    """Run both stages.  delta defaults to 0.05 * phi."""
    phi = as_fraction(phi)
    delta = phi * Fraction(1, 20) if delta is None else as_fraction(delta)
    kappa = as_fraction(kappa)
    d_star = calibrate_stage1(d1, delta)
    tau_star, etas = calibrate_stage2(d2, d_star, phi, kappa)
    return CalibrationState(d_star, tau_star, phi, delta, kappa, etas)


def predict(chain: NestedChain, state: CalibrationState) -> frozenset[int]:
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
    # the first set with residual W - e < bound
    return chain.sets[min(bisect_right(chain.induced, chain.total - bound), len(chain.sets) - 1)]


@dataclass(frozen=True)
class FixedContextFit:
    vertex_set: frozenset[int]
    order: tuple[int, ...]           # full fixed vertex order over [0, n)
    prefix_len: int
    level_count: int                 # required covered count on the second half
    second_half_coverage: Fraction
    chain: NestedChain


def fixed_context_fit(
    samples: Sequence[frozenset[int]],
    phi,
    n_vertices: int,
) -> FixedContextFit:
    """Shortest adequate prefix of the first-half-driven vertex order.

    The first half of the samples builds the chain and its fixed order
    (``chain._fixed_order``).  The returned set is the shortest prefix whose
    second-half covered count reaches ceil(phi * (T2 + 1)); if that level
    exceeds T2 no prefix reaches it and the whole order, the full vertex
    set, is returned.  Coverage of the prefix family is monotone, so this
    matches top-down deletion that stops when the level would be violated.
    """
    phi = unit_fraction(phi, "phi")
    t = len(samples)
    if t < 2:
        raise InputError(f"need at least two samples, got {t}")
    t1 = t // 2
    second = [frozenset(s) for s in samples[t1:]]
    chain, order = _sample_chain(n_vertices, samples[:t1])  # checks the first half's ids
    check_vertex_ids(n_vertices, samples[t1:])
    level = quantile_index(phi, len(second))
    counts = prefix_cover_counts(order, second)
    prefix_len = shortest_prefix(counts, level)
    return FixedContextFit(
        frozenset(order[:prefix_len]), order, prefix_len, level,
        Fraction(counts[prefix_len], len(second)), chain,
    )
