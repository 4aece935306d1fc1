"""Nested chain of Lagrangian minimizers across all multipliers.

As lam sweeps upward, the inclusion-minimal minimizer of Phi(K, lam) =
|K| - lam * e(K) moves through a strictly nested family
empty = S_0 < S_1 < ... < S_k with strictly increasing induced weight; the lam
values where it changes are the breakpoints.  The chain is recovered with
at most 2k+1 probes (minimum cuts) by divide and conquer on multiplier
intervals: probe the intersection of the value lines of the two bracketing
sets; if the minimal minimizer at the probe equals the lower set, the probe
is the single breakpoint between them, otherwise the probe's minimizer
splits the interval.  Brackets whose sets differ by one vertex need no
probe: no chain set lies strictly between them, so they are consecutive
chain sets and the crossing of their value lines is their breakpoint.

The intervals are walked in rounds.  A round is the row of open brackets
(lo, e(lo), hi, e(hi)) at one depth of the divide and conquer, kept from
left to right (increasing lam).  Their probes are independent, so the round
solves them all with one ``LagrangianCutSolver.solve_many`` call, which
packs their networks into one scipy max-flow call while int32 holds them
all.  A probe that finds its lower set closes its bracket, which leaves the
row; one that finds a new set replaces its bracket by the two halves, in
place, and a half one vertex wide is closed at once.  The closed brackets
are sorted by lam once at the end, which puts the breakpoints in increasing
order.  Nesting depth is bounded by memory, not by Python's recursion
limit.  The induced weight of a set found by a probe is read off the probe
itself: the solver has just checked Phi = |K| - lam * e(K) by a recount on
the full hypergraph, so e(K) = (|K| - Phi) / lam exactly, and no set is
recounted twice.

The first round is the root bracket (empty set, support) alone, through
``LagrangianCutSolver.solve``.  The top probe has no brackets.  Its
multiplier (|support| + 1) / (least positive weight) forces the whole
support: for K short of the support, some positive hyperedge inside the
support is not inside K, so Phi(K) - Phi(support) >= lam * (least positive
weight) - |support| = 1, and vertices outside the support only add to |K|.
It follows the support, not the declared n, so a large n does not push the
top probe past int32.  It leads the second round's call, or is solved alone
after the walk when the root closes at once.  Either way its set is checked
to be the support before the chain is returned, which makes the support the
top of the chain.

Because minimal minimizers grow with lam, the minimizer at a probe lies
between its two brackets, so each probe solves only the subnetwork of the
vertices between them (``lo``/``hi`` of the solver).  Only the root bracket
and the top probe solve the whole network.

The sample selectors (the fixed-context fit and the comparison's chain
cover) fit the chain of a unit-mass hypergraph with one hyperedge per
sample and take prefixes of its fixed vertex order (``_fixed_order``).
``_sample_chain`` builds both and remembers the last pair, keyed by n and
the multiset of samples, so a coverage sweep and the comparison that
follows it on the same samples build one chain and one order.  Ids are
checked before the lookup: ``{True}`` and ``{1.0}`` equal ``{1}`` as keys.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Iterable, NamedTuple, Sequence

from .flows import LagrangianCutSolver, _check_method
from .hypergraph import WeightedHypergraph, InvariantError, check_vertex_ids

__all__ = ["NestedChain", "nested_chain"]


@dataclass(frozen=True)
class NestedChain:
    """Strictly nested minimizer family with its breakpoints.

    sets[j] is the minimal minimizer on the open interval
    (breakpoints[j-1], breakpoints[j]) (with lam below breakpoints[0] giving
    sets[0] = empty and lam above breakpoints[-1] giving sets[-1]).
    induced[j] = e(sets[j]); total = W.
    """

    sets: tuple[frozenset[int], ...]
    breakpoints: tuple[Fraction, ...]
    induced: tuple[Fraction, ...]
    total: Fraction

    @property
    def residuals(self) -> tuple[Fraction, ...]:
        return tuple(self.total - e for e in self.induced)

    def validate(self) -> None:
        if len(self.sets) != len(self.breakpoints) + 1 or len(self.sets) != len(self.induced):
            raise InvariantError("chain arrays disagree in length")
        if self.sets[0] != frozenset():
            raise InvariantError("chain must start at the empty set")
        for j in range(1, len(self.sets)):
            if not self.sets[j - 1] < self.sets[j]:
                raise InvariantError(f"chain sets not strictly nested at {j}")
            if not self.induced[j - 1] < self.induced[j]:
                raise InvariantError(f"induced weights not strictly increasing at {j}")
            if j >= 2 and not self.breakpoints[j - 2] < self.breakpoints[j - 1]:
                raise InvariantError(f"breakpoints not strictly increasing at {j}")
            # both neighbours are optimal exactly at the breakpoint
            lam = self.breakpoints[j - 1]
            lo = len(self.sets[j - 1]) - lam * self.induced[j - 1]
            hi = len(self.sets[j]) - lam * self.induced[j]
            if lo != hi:
                raise InvariantError(f"breakpoint identity fails at {j}: {lo} != {hi}")


class _Bracket(NamedTuple):
    """Chain sets lo < hi, their masses and the probe between them."""

    lo: frozenset[int]
    e_lo: Fraction
    hi: frozenset[int]
    e_hi: Fraction
    lam: Fraction  # where the value lines |K| - lam * e(K) of lo and hi cross

    @classmethod
    def open(cls, lo: frozenset[int], e_lo: Fraction, hi: frozenset[int], e_hi: Fraction):
        return cls(lo, e_lo, hi, e_hi, Fraction(len(hi) - len(lo)) / (e_hi - e_lo))


def nested_chain(h: WeightedHypergraph, method: str = "auto") -> NestedChain:
    """Compute the full chain for ``h``.

    ``method`` is "auto" (each probe's capacities pick its max-flow route)
    or "dinic" (every probe takes the Dinic route).
    """
    _check_method(method)
    solver = LagrangianCutSolver(h)
    base_induced = solver.const_mass  # empty-vertex hyperedges sit inside every set
    if not solver.edge_members:
        chain = NestedChain((frozenset(),), (), (base_induced,), solver.total)
        chain.validate()
        return chain

    lam_max = Fraction(len(solver.support) + 1) / solver.min_positive
    support = frozenset(solver.support)
    closed = []  # brackets whose probe found lo or one vertex wide: lam is the breakpoint of hi
    row = []

    def split(b: _Bracket, cut) -> None:
        mid = cut.vertex_set
        if mid == b.lo:
            closed.append(b)
            return
        if mid == b.hi:
            raise InvariantError(
                f"probe at {b.lam} returned the upper bracket set; minimal-cut "
                "tie-breaking is broken"
            )
        e_mid = (len(mid) - cut.phi) / b.lam
        halves = _Bracket.open(b.lo, b.e_lo, mid, e_mid), _Bracket.open(mid, e_mid, b.hi, b.e_hi)
        for half in halves:
            # no chain set lies strictly between two that are one vertex apart
            (closed if len(half.hi) - len(half.lo) == 1 else row).append(half)

    root = _Bracket.open(frozenset(), base_induced, support, solver.total)
    if len(support) == 1:
        closed.append(root)
    else:  # the root bracket is solved alone
        split(root, solver.solve(root.lam, method, root.lo, root.hi))
    top = None  # the top probe leads the next round, or is solved alone after the walk
    while row:
        lead = [(lam_max, frozenset(), None)] if top is None else []
        cuts = solver.solve_many(lead + [(b.lam, b.lo, b.hi) for b in row], method)
        if lead:
            top = cuts.pop(0)
        brackets = row.copy()
        row.clear()
        for b, cut in zip(brackets, cuts):
            split(b, cut)
    if top is None:
        top = solver.solve(lam_max, method)
    if top.vertex_set != support:
        raise InvariantError(
            f"terminal multiplier {lam_max} did not force the full support: "
            f"{sorted(top.vertex_set)} vs {sorted(support)}"
        )

    closed.sort(key=lambda b: b.lam)
    chain = NestedChain(
        (frozenset(), *(b.hi for b in closed)),
        tuple(b.lam for b in closed),
        (base_induced, *(b.e_hi for b in closed)),
        solver.total,
    )
    chain.validate()
    return chain


_ChainOrder = tuple[NestedChain, tuple[int, ...]]  # a sample chain and its fixed order


def _sample_chain(n: int, samples: Sequence[Iterable[int]]) -> _ChainOrder:
    """The unit-mass sample hypergraph's chain on [0, n) and its fixed order.

    Ids are checked on every call; the pair is built only when (n, samples)
    differs from the previous call's.  Callers may share it: both are frozen.
    """
    check_vertex_ids(n, samples)
    return _last_sample_chain(n, tuple(map(frozenset, samples)))


@lru_cache(maxsize=1)  # one entry: a phi sweep and its comparison come in a row
def _last_sample_chain(n: int, samples: tuple[frozenset[int], ...]) -> _ChainOrder:
    chain = nested_chain(WeightedHypergraph.build(n, [(s, 1) for s in samples]))
    return chain, _fixed_order(chain, samples, n)


def _fixed_order(
    chain: NestedChain, samples: Sequence[frozenset[int]], n: int
) -> tuple[int, ...]:
    """Chain blocks in order, then the vertices outside the top set by id.

    Inside a block the vertex completing the most still-uncovered samples
    goes first, ties by ascending id.  missing[i] counts the vertices of
    samples[i] not yet placed; gain[v], the samples only v is missing from.
    Gains only grow, so each block keeps a heap of (-gain, id) that gets a
    new entry when a gain in the block rises: a vertex's newest entry pops
    first, and its older ones pop after it is placed and are skipped.
    """
    missing = [len(s) for s in samples]
    holders: dict[int, list[int]] = defaultdict(list)  # vertex -> samples holding it
    gain: Counter[int] = Counter(next(iter(s)) for s in samples if len(s) == 1)
    for i, s in enumerate(samples):
        for v in s:
            holders[v].append(i)
    order: list[int] = []
    placed: set[int] = set()
    for j in range(1, len(chain.sets)):
        block = set(chain.sets[j] - chain.sets[j - 1])
        heap = [(-gain[v], v) for v in block]
        heapify(heap)
        while block:
            best = heappop(heap)[1]
            if best not in block:
                continue
            block.remove(best)
            placed.add(best)
            order.append(best)
            for i in holders[best]:
                missing[i] -= 1
                if missing[i] == 1:
                    last = next(v for v in samples[i] if v not in placed)
                    gain[last] += 1
                    if last in block:
                        heappush(heap, (-gain[last], last))
    order.extend(v for v in range(n) if v not in placed)
    return tuple(order)
