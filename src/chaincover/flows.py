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

All capacities are scaled to exact integers: with the hypergraph's common
denominator D (``WeightedHypergraph.masses``) and lam = p/q, every capacity
is multiplied by q*D and divided by the gcd of all of them, which leaves the
primitive integer vector proportional to (p * w_e, q) whatever common
multiple D is.  Two max-flow routes share one contract (the arcs in CSR
order and the node count n in; the flow on every source arc and the source
side, a bool mask over the n nodes, out) and are cross-checked in tests:

* ``scipy``: scipy.sparse.csgraph.maximum_flow on int32 capacities, whose
  flow matrix is rewritten in place to the residual graph;
* ``dinic``: a pure-Python Dinic on arbitrary-precision integers, one call
  per probe past int32, or per probe under ``method="dinic"``.

Packed probes.  ``solve_many`` solves several probes at once, as the chain
does with all the probes of one round.  Each probe's network becomes a block
of nodes of one network, and the blocks share only the source and the sink;
each keeps its own gcd-scaled capacities, since no arc joins two blocks.
So a flow of the union is a flow of every block at once, its value is the
sum of theirs, and the union's max flow value is the sum of the blocks':
a max flow of the union, restricted to one block, is a max flow of that
block.  At a max flow no residual path leads from the source to the sink,
so residual reachability from the source never passes the sink into
another block, and the reached nodes of each block are that block's own
minimal minimizer.  ``_pack`` alone lays out a packed network, and the
node it gives each free vertex reads that vertex off the source side.
Each block's cut value is the sum of the flows on its own source arcs, not
read from the reached set, so the recount that ``_check`` compares it with
is a max-flow/min-cut certificate per probe.  The capacities alone pick the
route.  Blocks share a scipy call while the sum of their ``inf`` bounds
fits int32, which bounds the total flow and every capacity of the call;
packing pays scipy's fixed cost per call once.  Each block past int32 gets
its own Dinic call: Dinic has no such fixed cost, and in a pack every
block would run as many phases as the slowest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .hypergraph import InvariantError, WeightedHypergraph

__all__ = ["CutResult", "LagrangianCutSolver"]

_INT32_MAX = 2**31 - 1


def _check_method(method: str) -> None:
    """``method`` names a max-flow route a caller may ask for: auto or dinic."""
    if method not in ("auto", "dinic"):
        raise ValueError(f"unknown max-flow route {method!r}")


@dataclass(frozen=True)
class CutResult:
    """Minimum cut at one multiplier; its value is phi + lam * W."""

    lam: Fraction
    phi: Fraction                # Phi(K, lam) of the minimal minimizer
    vertex_set: frozenset[int]   # inclusion-minimal minimizer
    route: str                   # "scipy", "dinic" or "trivial" (no network)
    arcs: int                    # arcs of the network actually solved


@dataclass(frozen=True)
class _Scale:
    """Exact integer capacities of one probe's network and how to undo them."""

    src: list[int]   # source -> kept hyperedge: lam * w_e
    sink: int        # free vertex -> sink: 1
    inf: int         # hyperedge -> member vertex: above every finite cut
    g: int           # the gcd every capacity was divided by
    base: int        # p * D * (e(kept) + e(lo)): Phi = (cut * g - base) / (q * D) + |lo|
    n_mid: int       # hyperedge -> vertex arcs
    n_free: int      # free vertices


class LagrangianCutSolver:
    """Immutable per-hypergraph scaffolding for repeated multiplier solves.

    The arc structure is built once, as numpy arrays: edge->vertex arc ``a``
    runs from positive hyperedge ``_arc_edge[a]`` to the vertex at support
    index ``_arc_vertex[a]``, arcs grouped by hyperedge.  Vertices on no
    positive hyperedge can never enter a minimal minimizer and get no node.
    Each probe selects its (sub)network from these arrays as one block, and
    ``_pack`` lays out the blocks solved together.
    """

    def __init__(self, h: WeightedHypergraph):
        import numpy as np

        self.h = h
        self.denom, masses = h.masses
        pos = [(e, a) for e, a in zip(h.edges, masses) if a and e.vertices]
        # empty-vertex hyperedges lie inside every set: their mass is part
        # of e(lo) at every probe and never enters the network
        self._empty = sum(a for e, a in zip(h.edges, masses) if not e.vertices)
        self.const_mass = Fraction(self._empty, self.denom)
        self.edge_members: list[tuple[int, ...]] = [tuple(sorted(e.vertices)) for e, _ in pos]
        self.edge_nums: list[int] = [a for _, a in pos]
        self.support: tuple[int, ...] = tuple(sorted({v for m in self.edge_members for v in m}))
        self.total = h.total_weight
        self.min_positive = Fraction(min(filter(None, masses), default=0), self.denom)
        self._index = {v: i for i, v in enumerate(self.support)}
        sizes = [len(m) for m in self.edge_members]
        self._arc_edge = np.repeat(np.arange(len(pos)), sizes)
        self._arc_vertex = np.array(
            [self._index[v] for m in self.edge_members for v in m], dtype=np.intp
        )
        self._edge_start = np.cumsum([0] + sizes[:-1])
        self._vertices = np.array(self.support, dtype=np.intp)

    def _masks(self, sets: Sequence[frozenset[int] | None]):
        """Boolean rows over support indices: row i marks the support vertices in sets[i].

        ``None`` marks the whole support.  Vertex ids map to support indices
        through a dict over the support, so memory follows the support, not
        the declared vertex count.
        """
        import numpy as np

        index, width = self._index, len(self.support)
        mask = np.zeros((len(sets), width), dtype=bool)
        at = [i * width + index[v] for i, s in enumerate(sets) if s is not None
              for v in s if v in index]
        np.put(mask, at, True)
        mask[[i for i, s in enumerate(sets) if s is None]] = True
        return mask

    def _blocks(
        self, probes: Sequence[tuple[Fraction, frozenset[int], frozenset[int] | None]]
    ):
        """The networks of ``probes``, one block each, as of the module docstring.

        Returns the boolean rows ``keep`` (kept hyperedges), ``free`` (free
        vertices) and ``mid`` (hyperedge->vertex arcs), one row per probe,
        built for all probes by the same numpy operations, and each probe's
        exact integer capacities as a ``_Scale``.
        """
        import numpy as np

        half = len(probes)  # lo rows, then hi rows
        masks = self._masks([lo for _, lo, _ in probes] + [hi for _, _, hi in probes])
        # np.take: column gathers by fancy indexing cost several times more
        arcs = np.take(masks, self._arc_vertex, axis=1)
        inside = np.logical_and.reduceat(arcs, self._edge_start, axis=1)
        inside_lo = inside[:half]
        keep = inside[half:] & ~inside_lo
        free = masks[half:] & ~masks[:half]
        mid = np.take(keep, self._arc_edge, axis=1) & ~arcs[:half]

        n_mid = np.count_nonzero(mid, axis=1).tolist()
        n_free = np.count_nonzero(free, axis=1).tolist()
        nums_of, d = self.edge_nums, self.denom
        scales = []
        for i, (lam, _, _) in enumerate(probes):
            # integer capacities: lam * w_e and 1 scaled by q * denom, then
            # divided by their gcd g, which leaves the cuts and the flows'
            # residual reachability unchanged and lets more probes fit int32
            p, q = lam.numerator, lam.denominator
            nums = [nums_of[e] for e in np.flatnonzero(keep[i]).tolist()]
            e_lo = self._empty + sum(nums_of[e] for e in np.flatnonzero(inside_lo[i]).tolist())
            g = math.gcd(p * math.gcd(*nums), q * d)
            src = [p * a // g for a in nums]
            sink = q * d // g
            inf = sum(src) + sink * n_free[i] + 1  # exceeds every finite cut
            scales.append(_Scale(src, sink, inf, g, p * (sum(nums) + e_lo), n_mid[i], n_free[i]))
        return keep, free, mid, scales

    def _pack(self, keep, free, mid, scales):
        """The union of some blocks' networks, laid out for one max-flow call.

        Node 0 is the source and node 1 the sink, shared by every block; then
        come the kept hyperedges, block by block, then the free vertices,
        block by block, in the row-major order of ``keep`` and ``free``.
        Returns the arcs in CSR order as ``rows`` and ``cols`` (source arcs,
        then hyperedge->vertex arcs, then vertex->sink arcs), their
        capacities ``caps`` in that order (each block's ``src``, then
        ``inf``, then ``sink``), ``vnode``, the node of each free vertex in
        the shape of ``free`` (0 elsewhere), and the node count.
        """
        import numpy as np

        first_v = 2 + np.count_nonzero(keep)
        n = first_v + np.count_nonzero(free)
        enode = np.zeros(keep.shape, dtype=np.intp)
        enode[keep] = np.arange(2, first_v)
        vnode = np.zeros(free.shape, dtype=np.intp)
        vnode[free] = np.arange(first_v, n)
        rows = np.concatenate((
            np.zeros(first_v - 2, dtype=np.intp),
            np.take(enode, self._arc_edge, axis=1)[mid],
            np.arange(first_v, n),
        ))
        cols = np.concatenate((
            np.arange(2, first_v),
            np.take(vnode, self._arc_vertex, axis=1)[mid],
            np.ones(n - first_v, dtype=np.intp),
        ))
        caps = [c for s in scales for c in s.src]
        for s in scales:
            caps += [s.inf] * s.n_mid
        for s in scales:
            caps += [s.sink] * s.n_free
        return rows, cols, caps, vnode, n

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
        the module docstring.  One probe of ``solve_many``.
        """
        return self.solve_many([(lam, lo, hi)], method)[0]

    def solve_many(
        self,
        probes: Sequence[tuple[Fraction, frozenset[int], frozenset[int] | None]],
        method: str = "auto",
    ) -> list[CutResult]:
        """``solve(lam, method, lo, hi)`` of every probe ``(lam, lo, hi)``, in order.

        ``method`` is ``"auto"`` or ``"dinic"``.  The probes' networks are
        blocks of networks that share only the source and the sink.  Under
        ``auto``, blocks that fit int32 share a scipy call while the sum of
        their ``inf`` bounds does; each of the rest, or each probe under
        ``dinic``, gets its own Dinic call.
        """
        _check_method(method)
        for lam, lo, hi in probes:
            if lam < 0:
                raise ValueError(f"multiplier must be non-negative, got {lam}")
            if hi is not None and not lo <= hi:
                raise ValueError("lower bracket is not inside the upper bracket")
        if not self.edge_members:  # all mass lies in every set: K = {} and a zero cut
            return [CutResult(lam, -lam * self.total, frozenset(), "trivial", 0)
                    for lam, _, _ in probes]

        keep, free, mid, scales = self._blocks(probes)
        packs = []  # (max_flow, route, probe indices) of one max-flow call each
        room = 0  # int32 room left in the open scipy pack
        for i, s in enumerate(scales):
            if method == "dinic" or s.inf > _INT32_MAX:
                packs.append((_max_flow_dinic, "dinic", [i]))
                continue
            if s.inf > room:
                scipy_idx: list[int] = []
                packs.append((_max_flow_scipy, "scipy", scipy_idx))
                room = _INT32_MAX
            scipy_idx.append(i)
            room -= s.inf

        results: list[CutResult] = [None] * len(probes)  # type: ignore[list-item]
        for max_flow, route, idx in packs:
            group = [scales[i] for i in idx]
            free_rows = free[idx]
            rows, cols, caps, vnode, n = self._pack(keep[idx], free_rows, mid[idx], group)
            src_flow, reached = max_flow(rows, cols, caps, n)
            got = reached[vnode] & free_rows  # the reached free vertices, block by block
            start = 0  # the block's first source arc
            for j, (i, s) in enumerate(zip(idx, group)):
                lam, lo, _ = probes[i]
                k = lo | frozenset(self._vertices[got[j]].tolist())
                cut = sum(src_flow[start:start + len(s.src)])
                start += len(s.src)
                phi = Fraction(cut * s.g - s.base, lam.denominator * self.denom) + len(lo)
                self._check(lam, phi, k)
                arcs = len(s.src) + s.n_mid + s.n_free
                results[i] = CutResult(lam, phi, k, route, arcs)
        return results

    def _check(self, lam: Fraction, phi: Fraction, k: frozenset[int]) -> None:
        direct = len(k) - lam * self.h.induced_weight(k)
        if direct != phi:
            raise InvariantError(
                f"cut bookkeeping mismatch at lam={lam}: {direct} != {phi}"
            )


def _max_flow_scipy(rows, cols, caps, n: int):
    """Flow on each source arc and the source side, by scipy on int32 capacities.

    The arcs run from ``rows`` to ``cols`` with the integer capacities
    ``caps``; node 0 is the source and node 1 the sink.  ``rows`` must be
    non-decreasing and ``cols`` increasing within a row, so the arcs already
    are the CSR order; the source arcs come first.  Returns their flows as a
    list, in order, and the source side as a bool mask over the ``n`` nodes:
    the nodes reached from the source in the residual graph.  scipy returns
    the flow on every arc and, negated, on its reverse, in one CSR
    structure, and the residual graph is traversed on that structure in
    place: a forward entry is residual below its arc's capacity, a reverse
    entry while its arc carries flow.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    caps = np.array(caps, dtype=np.int32)
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    graph = csr_matrix((caps, cols.astype(np.int32), indptr), shape=(n, n))
    flow = maximum_flow(graph, 0, 1).flow
    keys = np.repeat(np.arange(n), np.diff(flow.indptr)) * n + flow.indices
    at = np.searchsorted(keys, rows * n + cols)
    if not np.array_equal(keys[at], rows * n + cols):
        raise InvariantError("max-flow result lacks an arc of its network")
    # no arc enters the source, so the source arcs' flows are the first entries
    src_flow = flow.data[at[: indptr[1]]].tolist()
    live = flow.data < 0
    live[at] = flow.data[at] < caps
    # float64 is the traversal's own dtype: any other costs a conversion
    flow.data = live.astype(np.float64)
    flow.eliminate_zeros()
    reached = np.zeros(n, dtype=bool)
    reached[breadth_first_order(flow, 0, directed=True, return_predecessors=False)] = True
    return src_flow, reached


def _max_flow_dinic(rows, cols, caps, n: int):
    """Flow on each source arc and the source side, by Dinic on Python ints.

    The contract of ``_max_flow_scipy``, on capacities of any size.  Input
    arc ``i`` is residual arc ``2 * i`` and its reverse ``2 * i + 1``, which
    starts empty and so holds the arc's flow.  The last BFS levels the source side.
    """
    import numpy as np

    rows = rows.tolist()
    adj: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c in zip(rows, cols.tolist(), caps):
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
    while True:
        level = [-1] * n
        level[0] = 0
        queue = [0]
        for u in queue:
            for a in adj[u]:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[1] < 0:
            break  # the BFS that missed the sink reached the source side
        # augment along blocking paths, kept on an explicit stack of arcs:
        # an arc stays current until it saturates or leads to a dead end
        it = [0] * n
        path: list[int] = []
        u = 0
        while True:
            if u == 1:
                # the whole bottleneck: a fixed cap would split one augmenting path
                # into capacity/cap pushes, exponential in the capacity's bit length
                got = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= got
                    cap[a ^ 1] += got
                path.clear()
                u = 0
            out = adj[u]
            while it[u] < len(out):
                a = out[it[u]]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    break
                it[u] += 1
            else:  # dead end: step back and pass over the arc that led here
                if not path:
                    break
                u = to[path.pop() ^ 1]
                it[u] += 1
                continue
            path.append(a)
            u = to[a]
    return cap[1 : 2 * rows.count(0) : 2], np.array(level) >= 0
