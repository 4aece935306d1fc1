"""Exact Lagrangian minimization via minimum s-t cuts.

For a weighted hypergraph and a rational multiplier lam, the minimizers of

    Phi(K, lam) = |K| - lam * e(K)

over vertex sets K are recovered from a min cut in a tripartite network:
source -> one node per positive nonempty hyperedge (capacity lam * w_e),
hyperedge node -> each member vertex node (infinite capacity), vertex node ->
sink (capacity 1).  A cut keeps a hyperedge node on the source side exactly
when all its vertices do, so cut value = lam * (W - e(K)) + |K|, i.e.
Phi(K, lam) + lam * W.  The source-reachable set of the residual graph of any
maximum flow yields the unique inclusion-minimal minimizer.

All capacities are scaled to exact integers: weights share a common
denominator D, lam = p/q, and every capacity is multiplied by q*D.  Two
interchangeable max-flow routes are provided and cross-checked in tests:

* ``scipy``: scipy.sparse.csgraph.maximum_flow on int32 capacities (fast path,
  used automatically when the scaled capacities fit);
* ``dinic``: a pure-Python Dinic on arbitrary-precision integers (reference
  route, always applicable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .hypergraph import WeightedHypergraph, InvariantError

__all__ = ["CutResult", "LagrangianCutSolver"]

_INT32_MAX = 2**31 - 1


@dataclass(frozen=True)
class CutResult:
    """Minimum cut at one multiplier."""

    lam: Fraction
    cut_value: Fraction          # min_K Phi(K, lam) + lam * W
    phi: Fraction                # Phi(K, lam) of the minimal minimizer
    vertex_set: frozenset[int]   # inclusion-minimal minimizer
    route: str                   # "scipy" or "dinic"


class _Dinic:
    """Dinic max flow on Python ints (no overflow)."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for a in self.adj[u]:
                    v = self.to[a]
                    if self.cap[a] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.adj[u]):
                    a = self.adj[u][it[u]]
                    v = self.to[a]
                    if self.cap[a] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[a]))
                        if got:
                            self.cap[a] -= got
                            self.cap[a ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                # unbounded: a fixed cap would split one augmenting path into
                # capacity/cap pushes, exponential in the capacity's bit length
                pushed = dfs(s, math.inf)
                if not pushed:
                    break
                flow += pushed

    def source_side(self, s: int) -> set[int]:
        seen = {s}
        queue = [s]
        for u in queue:
            for a in self.adj[u]:
                v = self.to[a]
                if self.cap[a] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


class LagrangianCutSolver:
    """Immutable per-hypergraph scaffolding for repeated multiplier solves.

    Node layout: 0 = source, 1 = sink, 2..2+m-1 = hyperedge nodes,
    2+m.. = vertex nodes for covered vertices only (vertices on no positive
    hyperedge can never enter a minimal minimizer).
    """

    def __init__(self, h: WeightedHypergraph):
        self.h = h
        self.total = h.total_weight
        pos = [e for e in h.edges if e.weight > 0 and e.vertices]
        # mass of positive empty-vertex hyperedges: induced by every set,
        # constant in K, so it never enters the network
        self.const_mass = sum(
            (e.weight for e in h.edges if e.weight > 0 and not e.vertices), Fraction(0)
        )
        self.denom = math.lcm(*(e.weight.denominator for e in pos)) if pos else 1
        self.edge_members: list[tuple[int, ...]] = [tuple(sorted(e.vertices)) for e in pos]
        self.edge_nums: list[int] = [int(e.weight * self.denom) for e in pos]
        self.support: tuple[int, ...] = tuple(sorted({v for m in self.edge_members for v in m}))
        self._vnode = {v: 2 + len(pos) + i for i, v in enumerate(self.support)}
        self.n_nodes = 2 + len(pos) + len(self.support)
        self.min_positive = min(
            (e.weight for e in h.edges if e.weight > 0), default=Fraction(0)
        )

    def _capacities(self, lam: Fraction) -> tuple[list[int], int, int]:
        """Integer arc capacities scaled by lam.denominator * denom."""
        p, q = lam.numerator, lam.denominator
        src = [p * a for a in self.edge_nums]
        sink = q * self.denom
        inf = sum(src) + sink * len(self.support) + 1
        return src, sink, inf

    def solve(self, lam: Fraction, method: str = "auto") -> CutResult:
        if lam < 0:
            raise ValueError(f"multiplier must be non-negative, got {lam}")
        if not self.edge_members:
            phi = -lam * self.const_mass
            return CutResult(lam, phi + lam * self.total, phi, frozenset(), "trivial")
        src, sink_cap, inf = self._capacities(lam)
        if method == "auto":
            method = "scipy" if max(max(src, default=0), sink_cap, inf) <= _INT32_MAX else "dinic"
        if method == "scipy":
            scaled_cut, reach = self._solve_scipy(src, sink_cap, inf)
        elif method == "dinic":
            scaled_cut, reach = self._solve_dinic(src, sink_cap, inf)
        else:
            raise ValueError(f"unknown max-flow route {method!r}")
        k = frozenset(v for v in self.support if self._vnode[v] in reach)
        scale = lam.denominator * self.denom
        cut_value = Fraction(scaled_cut, scale)
        phi = cut_value - lam * self.total
        self._check(lam, phi, k)
        return CutResult(lam, cut_value, phi, k, method)

    def _solve_dinic(self, src: list[int], sink_cap: int, inf: int) -> tuple[int, set[int]]:
        net = _Dinic(self.n_nodes)
        for i, members in enumerate(self.edge_members):
            if src[i] > 0:
                net.add(0, 2 + i, src[i])
            for v in members:
                net.add(2 + i, self._vnode[v], inf)
        for v in self.support:
            net.add(self._vnode[v], 1, sink_cap)
        cut = net.max_flow(0, 1)
        return cut, net.source_side(0)

    def _solve_scipy(self, src: list[int], sink_cap: int, inf: int) -> tuple[int, set[int]]:
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_flow

        rows, cols, caps = [], [], []
        for i, members in enumerate(self.edge_members):
            if src[i] > 0:
                rows.append(0)
                cols.append(2 + i)
                caps.append(src[i])
            for v in members:
                rows.append(2 + i)
                cols.append(self._vnode[v])
                caps.append(inf)
        for v in self.support:
            rows.append(self._vnode[v])
            cols.append(1)
            caps.append(sink_cap)
        graph = csr_matrix(
            (np.asarray(caps, dtype=np.int32), (rows, cols)),
            shape=(self.n_nodes, self.n_nodes),
        )
        res = maximum_flow(graph, 0, 1)
        flow = res.flow.todok()
        residual: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for u, v, c in zip(rows, cols, caps):
            f = int(flow.get((u, v), 0))
            if c - f > 0:
                residual[u].append(v)
            if f > 0:
                residual[v].append(u)
        seen = {0}
        queue = [0]
        for u in queue:
            for v in residual[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return int(res.flow_value), seen

    def _check(self, lam: Fraction, phi: Fraction, k: frozenset[int]) -> None:
        direct = len(k) - lam * self.h.induced_weight(k)
        if direct != phi:
            raise InvariantError(
                f"cut bookkeeping mismatch at lam={lam}: {direct} != {phi}"
            )
