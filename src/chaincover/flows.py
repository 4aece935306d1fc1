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

Contracted probes.  Minimal minimizers are monotone in lam: the one at lam
contains the one at any smaller multiplier and lies inside the one at any
larger one.  So when the minimizer at lam is known to lie between two sets
lo <= hi (the brackets of a chain probe), K = lo + X with X inside hi - lo,
and Phi(K, lam) = |lo| - lam * e(lo) + |X| - lam * (e(lo + X) - e(lo)).
The last term only involves hyperedges inside hi but not inside lo, each
captured when its members outside lo all lie in X.  The probe therefore
solves the network of those hyperedges (arcs only to members outside lo) and
the vertices of hi - lo, and adds the constant back.  The arc structure is
built once per solver; each probe selects its subnetwork from it.

All capacities are scaled to exact integers: weights share a common
denominator D, lam = p/q, every capacity is multiplied by q*D and then
divided by the gcd of all of them.  Two interchangeable max-flow routes are
provided and cross-checked in tests:

* ``scipy``: scipy.sparse.csgraph.maximum_flow on int32 capacities (fast path,
  used automatically when the scaled capacities fit; forcing it on a probe
  whose capacities do not fit is an ``InputError``);
* ``dinic``: a pure-Python Dinic on arbitrary-precision integers (reference
  route, always applicable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .hypergraph import InputError, InvariantError, WeightedHypergraph

__all__ = ["CutResult", "LagrangianCutSolver"]

_INT32_MAX = 2**31 - 1


@dataclass(frozen=True)
class CutResult:
    """Minimum cut at one multiplier."""

    lam: Fraction
    cut_value: Fraction          # min_K Phi(K, lam) + lam * W
    phi: Fraction                # Phi(K, lam) of the minimal minimizer
    vertex_set: frozenset[int]   # inclusion-minimal minimizer
    route: str                   # "scipy", "dinic" or "trivial" (no network)
    arcs: int                    # arcs of the network actually solved


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

    def max_flow(self, s: int, t: int) -> tuple[int, list[int]]:
        """Max-flow value and the source side of the final residual graph."""
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
                return flow, queue  # the BFS that missed t reached the source side
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


class LagrangianCutSolver:
    """Immutable per-hypergraph scaffolding for repeated multiplier solves.

    The arc structure is built once, as numpy arrays: edge->vertex arc ``a``
    runs from positive hyperedge ``_arc_edge[a]`` to the vertex at support
    index ``_arc_vertex[a]``, arcs grouped by hyperedge.  Vertices on no
    positive hyperedge can never enter a minimal minimizer and get no node.
    Each probe selects and renumbers its (sub)network from these arrays:
    0 = source, 1 = sink, then the kept hyperedges, then the free vertices.
    """

    def __init__(self, h: WeightedHypergraph):
        import numpy as np

        self.h = h
        pos = [e for e in h.edges if e.weight and e.vertices]
        # mass of positive empty-vertex hyperedges: induced by every set,
        # constant in K, so it never enters the network
        empty = [e.weight for e in h.edges if e.weight and not e.vertices]
        self.const_mass = sum(empty, Fraction(0))
        self.denom = math.lcm(*(e.weight.denominator for e in pos))
        self.edge_members: list[tuple[int, ...]] = [tuple(sorted(e.vertices)) for e in pos]
        self.edge_nums: list[int] = [
            e.weight.numerator * (self.denom // e.weight.denominator) for e in pos
        ]
        self.support: tuple[int, ...] = tuple(sorted({v for m in self.edge_members for v in m}))
        self.total = Fraction(sum(self.edge_nums), self.denom) + self.const_mass
        lightest = [Fraction(min(self.edge_nums), self.denom)] if pos else []
        self.min_positive = min(lightest + empty, default=Fraction(0))
        index = {v: i for i, v in enumerate(self.support)}
        sizes = [len(m) for m in self.edge_members]
        self._arc_edge = np.repeat(np.arange(len(pos)), sizes)
        self._arc_vertex = np.array(
            [index[v] for m in self.edge_members for v in m], dtype=np.intp
        )
        self._edge_start = np.cumsum([0] + sizes[:-1])
        self._vertices = np.array(self.support, dtype=np.intp)

    def _mask(self, vs: frozenset[int]):
        """Boolean mask over support indices of the support vertices in vs.

        Vertex ids are found by binary search in the sorted support, so
        memory follows the support, not the declared vertex count.
        """
        import numpy as np

        mask = np.zeros(len(self.support), dtype=bool)
        ids = np.fromiter(vs, dtype=np.intp, count=len(vs))
        pos = np.searchsorted(self._vertices, ids)
        inside = pos < len(self.support)
        pos, ids = pos[inside], ids[inside]
        mask[pos[self._vertices[pos] == ids]] = True
        return mask

    def solve(
        self,
        lam: Fraction,
        method: str = "auto",
        lo: frozenset[int] = frozenset(),
        hi: frozenset[int] | None = None,
    ) -> CutResult:
        """Minimal minimizer of Phi(K, lam) over lo <= K <= hi (hi=None: any K).

        The caller guarantees that the unconstrained minimal minimizer lies
        between ``lo`` and ``hi``, as chain brackets do; the result then
        equals the unconstrained solve, found on the contracted network of
        the module docstring.
        """
        import numpy as np

        if lam < 0:
            raise ValueError(f"multiplier must be non-negative, got {lam}")
        if method not in ("auto", "scipy", "dinic"):
            raise ValueError(f"unknown max-flow route {method!r}")
        if hi is not None and not lo <= hi:
            raise ValueError("lower bracket is not inside the upper bracket")
        if not self.edge_members:
            phi = -lam * self.const_mass
            return CutResult(lam, phi + lam * self.total, phi, frozenset(), "trivial", 0)

        in_lo = self._mask(lo)
        in_hi = np.ones(len(self.support), dtype=bool) if hi is None else self._mask(hi)
        inside_lo = np.logical_and.reduceat(in_lo[self._arc_vertex], self._edge_start)
        inside_hi = np.logical_and.reduceat(in_hi[self._arc_vertex], self._edge_start)
        keep = inside_hi & ~inside_lo
        free = in_hi & ~in_lo
        mid = keep[self._arc_edge] & ~in_lo[self._arc_vertex]
        kept = np.flatnonzero(keep)
        # node ids: kept hyperedges from 2, free vertices after them
        enode = np.cumsum(keep) + 1
        vnode = np.cumsum(free) + 1 + len(kept)
        free_ids = np.flatnonzero(free)
        n_nodes = 2 + len(kept) + len(free_ids)
        rows = np.concatenate(([0] * len(kept), enode[self._arc_edge[mid]], vnode[free_ids]))
        cols = np.concatenate((enode[kept], vnode[self._arc_vertex[mid]], [1] * len(free_ids)))

        # integer capacities: lam * w_e and 1 scaled by q * denom, then
        # divided by their gcd g, which leaves the cuts and the flows' residual
        # reachability unchanged and lets more probes fit int32
        p, q = lam.numerator, lam.denominator
        nums = [self.edge_nums[i] for i in kept.tolist()]
        g = math.gcd(p * math.gcd(*nums), q * self.denom)
        src = [p * a // g for a in nums]
        sink_cap = q * self.denom // g
        inf = sum(src) + sink_cap * len(free_ids) + 1  # exceeds every finite cut
        n_mid = int(np.count_nonzero(mid))
        caps = src + [inf] * n_mid + [sink_cap] * len(free_ids)
        if method == "auto":
            method = "scipy" if inf <= _INT32_MAX else "dinic"
        if method == "scipy":
            if inf > _INT32_MAX:
                raise InputError(
                    f"route 'scipy' cannot solve at lam={lam}: capacities up to {inf} "
                    "exceed int32; use route 'dinic' or 'auto'"
                )
            cut, reach = _max_flow_scipy(rows, cols, np.array(caps, dtype=np.int32), n_nodes)
        else:
            net = _Dinic(n_nodes)
            for u, v, c in zip(rows.tolist(), cols.tolist(), caps):
                net.add(u, v, c)
            cut, side = net.max_flow(0, 1)
            reach = np.array(side, dtype=np.intp)
        reached = self._vertices[free_ids[reach[reach >= 2 + len(kept)] - 2 - len(kept)]]
        k = lo | frozenset(reached.tolist())
        e_lo = sum(self.edge_nums[i] for i in np.flatnonzero(inside_lo).tolist())
        phi = Fraction(cut * g - p * (sum(nums) + e_lo), q * self.denom) + len(lo)
        if self.const_mass:
            phi -= lam * self.const_mass
        self._check(lam, phi, k)
        return CutResult(lam, phi + lam * self.total, phi, k, method, len(rows))

    def _check(self, lam: Fraction, phi: Fraction, k: frozenset[int]) -> None:
        direct = len(k) - lam * self.h.induced_weight(k)
        if direct != phi:
            raise InvariantError(
                f"cut bookkeeping mismatch at lam={lam}: {direct} != {phi}"
            )


def _max_flow_scipy(rows, cols, caps, n: int):
    """Max-flow value and source-side node ids, by scipy on int32 capacities.

    ``rows`` must be non-decreasing and ``cols`` increasing within a row, so
    the arcs already are the CSR order.  The residual graph is capacity minus
    flow: scipy's flow matrix is antisymmetric, so a forward arc keeps
    ``cap - flow > 0`` and its reverse arc ``flow > 0``.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    graph = csr_matrix((caps, cols.astype(np.int32), indptr), shape=(n, n))
    res = maximum_flow(graph, 0, 1)
    residual = graph - res.flow
    # float64 is the traversal's own dtype: any other costs a conversion
    residual.data = (residual.data > 0).astype(np.float64)
    residual.eliminate_zeros()
    reach = breadth_first_order(residual, 0, directed=True, return_predecessors=False)
    return int(res.flow_value), reach
