"""Coverage-target selection on a nested chain.

Given a chain and a mass-coverage target tau, the fractional optimum mixes the
two chain sets whose induced weights bracket tau * W; its vertex values are 1
on the lower set and alpha on the gap.  ``select`` returns the smallest chain
set whose residual mass is at most (1+kappa)*(1-tau)*W.  It never sits above
the set that thresholding those values at rho = kappa/(1+kappa) gives, so it
keeps that rounding's size and residual guarantees.  Each reader finds its
level by one bisection: along the chain the induced weights and the sets grow.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .chain import NestedChain
from .hypergraph import InputError, InvariantError, as_fraction, unit_fraction
from .hypergraph import rational_to_text as text

__all__ = [
    "FractionalSolution",
    "Selection",
    "fractional_solution",
    "select",
    "tau_threshold",
]


def _check_kappa(kappa) -> Fraction:
    kappa = as_fraction(kappa)
    if kappa <= 0:
        raise InputError(f"slack parameter must be positive, got {text(kappa)}")
    return kappa


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal fractional mix between two consecutive chain sets.

    Vertex values: 1 on sets[lower], alpha on sets[upper] minus sets[lower],
    0 elsewhere.  objective = |lower| + alpha * (|upper| - |lower|); the
    covered mass equals target_mass exactly.  lam_star is the breakpoint
    certificate: objective == min_K Phi(K, lam_star) + lam_star * target_mass.
    """

    lower_index: int
    upper_index: int
    alpha: Fraction
    lam_star: Fraction
    objective: Fraction
    target_mass: Fraction


@dataclass(frozen=True)
class Selection:
    """An integral chain choice with its residual-mass certificate."""

    index: int
    vertex_set: frozenset[int]
    residual: Fraction
    bound: Fraction

    def __post_init__(self):
        if self.residual > self.bound:
            raise InvariantError(
                f"selection certificate violated: residual {self.residual} "
                f"exceeds bound {self.bound}"
            )


def fractional_solution(chain: NestedChain, tau) -> FractionalSolution:
    tau = unit_fraction(tau, "coverage target")
    target = tau * chain.total
    induced = chain.induced
    if target > induced[-1]:
        raise InputError(f"target mass {target} exceeds reachable mass {induced[-1]}")
    j = bisect_left(induced, target)
    if induced[j] == target:
        # exact hit on a chain set: degenerate mix with alpha = 0
        lam = chain.breakpoints[j - 1] if j >= 1 else Fraction(0)
        return FractionalSolution(j, j, Fraction(0), lam, Fraction(len(chain.sets[j])), target)
    if j == 0:
        # mass attached to no vertex already over-covers; the LP optimum is empty
        return FractionalSolution(0, 0, Fraction(0), Fraction(0), Fraction(0), target)
    lo, hi = chain.sets[j - 1], chain.sets[j]
    alpha = (target - induced[j - 1]) / (induced[j] - induced[j - 1])
    objective = len(lo) + alpha * (len(hi) - len(lo))
    return FractionalSolution(j - 1, j, alpha, chain.breakpoints[j - 1], objective, target)


def select(chain: NestedChain, tau, kappa) -> Selection:
    """Smallest chain set with residual mass <= (1+kappa)*(1-tau)*W."""
    tau = unit_fraction(tau, "coverage target")
    kappa = _check_kappa(kappa)
    bound = (1 + kappa) * (1 - tau) * chain.total
    index = bisect_left(chain.induced, chain.total - bound)  # residual W - e <= bound
    if index == len(chain.sets):  # only a loaded chain's top set leaves mass uncovered
        raise InputError(f"no chain set meets residual bound {bound}")
    return Selection(index, chain.sets[index], chain.total - chain.induced[index], bound)


def tau_threshold(chain: NestedChain, b: frozenset[int], kappa) -> Fraction:
    """Smallest coverage target whose selection first contains ``b``.

    Returns 1 when b is not contained even in the top chain set.  Under
    ``select``'s non-strict residual rule the containment region is the open
    interval above the returned value; under the boundary-inclusive
    prediction rule the region is closed and the returned value is attained.
    Either way this infimum is the calibration score.
    """
    kappa = _check_kappa(kappa)
    j = bisect_left(chain.sets, True, key=frozenset(b).issubset)  # the first set holding b
    if j == 0:  # b is empty
        return Fraction(0)
    if j == len(chain.sets):
        return Fraction(1)
    value = 1 - (chain.total - chain.induced[j - 1]) / ((1 + kappa) * chain.total)
    return max(Fraction(0), value)
