"""Exact uniform samplers over bounded-deviation structured outputs.

Each family counts its objects with an arbitrary-precision dynamic program
and then samples by walking the DP backwards with exactly proportional
integer draws, so the output distribution is uniform by construction:

* walks: s-t walks in a graph where the reference path's edges are directed
  forward at cost 0 and every other edge is undirected at cost 1; a walk is
  admissible when its total cost is at most the budget;
* itineraries: one activity per group, cost 1 per activity off the reference;
* subtrees: root-containing connected subtrees, cost 1 per node off the
  reference subtree.

Each family's cell terms are defined by one function (``_walk_terms``,
``_group_terms``, ``_child_terms``).  The walk and group builders sum it into
each cell's total; the tree builder convolves each child's series into the
suffix products, and each stored product equals the sum of its
``_child_terms``.  A draw at a cell does not call the function: it makes one
``randbelow`` draw x below the stored total, subtracts the same terms from x
in the same order, and takes the first term that brings x below 0, the index
``bisect_right`` over the running totals would give.  Terms that run out
before x goes below 0 mean the stored total exceeds their sum, and the draw
raises InvariantError.  Only each sampler's first draw, the one that picks the
object's cost, goes through ``choice_weighted``.  Each builder computes every
field of its table in one pass. A table's ``verify()`` rebuilds it from
its own input fields with the same builder and compares every field, so a
table that disagrees with its inputs fails it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import mul
from typing import Sequence

import numpy as np

from .hypergraph import InputError, InvariantError, _check_int, _is_int
from .rng import choice_weighted, randbelow

__all__ = [
    "WalkDPTable",
    "WalkSample",
    "GroupedDPTable",
    "TreeDPTable",
    "build_walk_table",
    "sample_walk",
    "build_group_table",
    "sample_itinerary",
    "build_tree_table",
    "sample_subtree",
]

Move = tuple[int, int, tuple[str, int]]  # (successor, cost, edge key)


def _unit(budget: int) -> tuple[int, ...]:
    """Counts row of the empty object: one object, of cost 0."""
    return (1,) + (0,) * budget


def _verify(table, build, *inputs) -> None:
    """Rebuild ``table`` from ``inputs`` with ``build``; InvariantError names the
    first field that differs, or says that the inputs no longer build."""
    name = type(table).__name__
    try:
        fresh = build(*inputs)
    except InputError as exc:
        raise InvariantError(f"{name} inputs do not build: {exc}") from exc
    for field in fields(table):
        if getattr(table, field.name) != getattr(fresh, field.name):
            raise InvariantError(f"{name}.{field.name} inconsistent with a rebuild from its inputs")


def _overdrawn(table, cell) -> InvariantError:
    """The error of a draw whose terms at ``cell`` ran out below its stored total."""
    name = type(table).__name__
    return InvariantError(f"{name} total at {cell} exceeds the sum of its terms")


# ---------------------------------------------------------------- walks


@dataclass(frozen=True)
class WalkDPTable:
    """Counts N[(u, k)] of cost-k u->t walks; absorbing target.

    ``adjacency`` holds the moves (successor, cost, edge key) leaving each
    vertex, as ``_walk_moves`` derives them from ``path`` and ``other_edges``;
    none leave t.
    """

    path: tuple[int, ...]
    other_edges: tuple[tuple[int, int], ...]
    budget: int
    counts: dict[tuple[int, int], int]
    partition: int  # total admissible walks from s
    adjacency: dict[int, tuple[Move, ...]]

    def verify(self) -> None:
        _verify(self, build_walk_table, self.path, self.other_edges, self.budget)


def _walk_moves(path, other_edges) -> dict[int, tuple[Move, ...]]:
    """Path edges forward at cost 0, free edges both ways at cost 1; no move leaves t."""
    out: dict[int, list[Move]] = {}
    for i in range(len(path) - 1):
        out.setdefault(path[i], []).append((path[i + 1], 0, ("path", i)))
    for j, (a, b) in enumerate(other_edges):
        out.setdefault(a, []).append((b, 1, ("free", j)))
        out.setdefault(b, []).append((a, 1, ("free", j)))
    out.pop(path[-1], None)
    return {u: tuple(m) for u, m in out.items()}


def _walk_terms(counts, adjacency, u: int, k: int) -> tuple[list[Move], list[int]]:
    """The moves out of u of cost at most k, and the cell N[(v, k - c)] each reaches.

    N[(u, k)] sums the cells for u != t; a walk draw at (u, k) scans them in this order.
    """
    moves = [m for m in adjacency.get(u, ()) if m[1] <= k]
    return moves, [counts.get((v, k - c), 0) for v, c, _ in moves]


@dataclass(frozen=True)
class WalkSample:
    vertices: tuple[int, ...]
    edge_keys: tuple[tuple[str, int], ...]
    cost: int


def build_walk_table(
    path: Sequence[int],
    other_edges: Sequence[tuple[int, int]],
    budget: int,
) -> WalkDPTable:
    path = tuple(path)
    if len(set(path)) != len(path) or not path:
        raise InputError("reference must be a nonempty simple path")
    _check_int(budget, "budget")
    seen = set()
    for a, b in other_edges:
        if a == b:
            raise InputError(f"self-loop on {a}")
        if frozenset((a, b)) in seen:
            raise InputError(f"duplicate edge {{{a},{b}}}")
        seen.add(frozenset((a, b)))
    other_edges = tuple((a, b) for a, b in other_edges)
    adjacency = _walk_moves(path, other_edges)
    t = path[-1]
    off_nodes = sorted({v for e in other_edges for v in e} - set(path))
    # off-path cells depend only on layer k-1; on-path cells additionally
    # depend on the same layer through the forward 0-cost edge, so they
    # are filled from the target backwards
    order = (t, *off_nodes, *reversed(path[:-1]))
    counts: dict[tuple[int, int], int] = {}
    for k in range(budget + 1):
        for u in order:
            counts[(u, k)] = int(k == 0) if u == t else sum(_walk_terms(counts, adjacency, u, k)[1])
    partition = sum(counts[(path[0], k)] for k in range(budget + 1))
    return WalkDPTable(path, other_edges, budget, counts, partition, adjacency)


def sample_walk(table: WalkDPTable, gen: np.random.Generator) -> WalkSample:
    if table.partition <= 0:
        raise InputError("empty walk family")
    counts, adjacency = table.counts, table.adjacency
    s = table.path[0]
    budgets = [counts[(s, k)] for k in range(table.budget + 1)]
    cost = k = choice_weighted(gen, budgets)
    u = s
    vertices = [u]
    keys: list[tuple[str, int]] = []
    t = table.path[-1]
    while u != t:
        x = randbelow(gen, counts[(u, k)])
        for v, c, key in adjacency.get(u, ()):  # the _walk_terms of (u, k)
            if c <= k:
                x -= counts.get((v, k - c), 0)
                if x < 0:
                    break
        else:
            raise _overdrawn(table, (u, k))
        u = v
        k -= c
        vertices.append(u)
        keys.append(key)
    return WalkSample(tuple(vertices), tuple(keys), cost)


# ---------------------------------------------------------------- itineraries


@dataclass(frozen=True)
class GroupedDPTable:
    groups: tuple[tuple[int, ...], ...]
    reference: tuple[int, ...]  # one member per group
    budget: int
    counts: tuple[tuple[int, ...], ...]  # counts[r][k], suffix groups r..R-1
    partition: int

    def verify(self) -> None:
        _verify(self, build_group_table, self.groups, self.reference, self.budget)


def _group_terms(size: int, below: Sequence[int], k: int) -> list[int]:
    """Cost-k picks of a group of ``size`` above the row ``below``: keep the
    reference at cost 0, or take one of the other size - 1 activities at cost 1;
    an itinerary draw at row r scans them in this order."""
    return [below[k], (size - 1) * below[k - 1] if k else 0]


def build_group_table(
    groups: Sequence[Sequence[int]],
    reference: Sequence[int],
    budget: int,
) -> GroupedDPTable:
    _check_int(budget, "budget")
    groups = tuple(tuple(g) for g in groups)
    reference = tuple(reference)
    if len(reference) != len(groups):
        raise InputError("reference needs exactly one activity per group")
    for r, g in enumerate(groups):
        if len(set(g)) != len(g) or not g:
            raise InputError(f"group {r} must be nonempty without repeats")
        if reference[r] not in g:
            raise InputError(f"reference activity {reference[r]} not in group {r}")
    rows = [_unit(budget)]
    for g in reversed(groups):
        rows.append(tuple(sum(_group_terms(len(g), rows[-1], k)) for k in range(budget + 1)))
    counts = tuple(reversed(rows))
    return GroupedDPTable(groups, reference, budget, counts, sum(counts[0]))


def sample_itinerary(table: GroupedDPTable, gen: np.random.Generator) -> tuple[int, ...]:
    if table.partition <= 0:
        raise InputError("empty itinerary family")
    counts, reference = table.counts, table.reference
    k = choice_weighted(gen, list(counts[0]))
    picks: list[int] = []
    for r, group in enumerate(table.groups):
        below = counts[r + 1]  # the _group_terms of (r, k): stay, then deviate
        x = randbelow(gen, counts[r][k]) - below[k]
        if x < 0:
            picks.append(reference[r])
            continue
        if not k or x >= (len(group) - 1) * below[k - 1]:
            raise _overdrawn(table, (r, k))
        # one of the other activities, in group order
        j = randbelow(gen, len(group) - 1)
        picks.append(group[j + (j >= group.index(reference[r]))])
        k -= 1
    return tuple(picks)


# ---------------------------------------------------------------- subtrees


@dataclass(frozen=True)
class TreeDPTable:
    """Counts counts[u][k] of u-rooted subtrees of cost k.

    ``factors[v]`` is v's include-or-skip series and ``suffixes[u][i]`` the
    product of the factors of ``children[u][i:]``, so a draw only looks them
    up; both come from the pass that computes ``counts``.
    """

    parent: tuple[int, ...]  # parent[root] == root
    root: int
    reference: frozenset[int]  # root-containing subtree, cost-0 nodes
    budget: int
    children: tuple[tuple[int, ...], ...]
    counts: tuple[tuple[int, ...], ...]  # counts[u][k]
    partition: int
    factors: tuple[tuple[int, ...], ...]
    suffixes: tuple[tuple[tuple[int, ...], ...], ...]

    def verify(self) -> None:
        _verify(self, build_tree_table, self.parent, self.root, self.reference, self.budget)


def _child_factor(row: Sequence[int]) -> tuple[int, ...]:
    """Include-or-skip series for one child: skipping contributes the unit at 0."""
    return (row[0] + 1, *row[1:])


def _child_terms(factor: Sequence[int], rest: Sequence[int], k: int) -> list[int]:
    """Ways to spend k on one child's series and its later siblings' product:
    term j spends j on the child.  ``_suffix_products`` stores their sum by a
    convolution of its own, and a subtree draw scans them inline in this order."""
    return list(map(mul, factor[: k + 1], rest[k::-1]))  # factor[j] * rest[k - j]


def _suffix_products(
    kids: Sequence[int], factors: Sequence[Sequence[int]], budget: int
) -> tuple[tuple[int, ...], ...]:
    """Products of the child factors of kids[i:], for i = 0..len(kids).

    Entry k of each product is sum(_child_terms(factor, rest, k)); each nonzero
    factor[j] adds its terms to every k >= j at once, and the zero entries, the
    tail past what the child's subtree can spend, add nothing.
    """
    suffixes = [_unit(budget)]
    for child in reversed(kids):
        rest = suffixes[-1]
        row = [0] * (budget + 1)
        for j, f in enumerate(factors[child]):
            if f:
                for k in range(j, budget + 1):
                    row[k] += f * rest[k - j]
        suffixes.append(tuple(row))
    return tuple(reversed(suffixes))


def _tree_row(product: Sequence[int], cost: int, budget: int) -> tuple[int, ...]:
    """counts row of a node of ``cost`` whose children's factors multiply to ``product``."""
    return tuple(product[k - cost] if k >= cost else 0 for k in range(budget + 1))


def build_tree_table(
    parent: Sequence[int],
    root: int,
    reference: Sequence[int],
    budget: int,
) -> TreeDPTable:
    _check_int(budget, "budget")
    parent = tuple(parent)
    n = len(parent)
    if not _is_int(root):
        raise InputError(f"root must be an int, got {root!r}")
    if not 0 <= root < n or parent[root] != root:
        raise InputError("root must be its own parent")
    for v, p in enumerate(parent):
        if not (_is_int(p) and 0 <= p < n):
            raise InputError(f"parent {p!r} of node {v} is not a node id in [0, {n})")
    reference = frozenset(reference)
    for v in reference:
        if not (_is_int(v) and 0 <= v < n):
            raise InputError(f"reference node {v!r} is not a node id in [0, {n})")
    if root not in reference:
        raise InputError("reference subtree must contain the root")
    for v in reference:
        if v != root and parent[v] not in reference:
            raise InputError(f"reference subtree disconnected at {v}")
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if v != root:
            children[parent[v]].append(v)
    top_down = [root]
    for u in top_down:  # breadth-first: the loop also visits the nodes it appends
        top_down.extend(children[u])
    if len(top_down) != n:
        raise InputError("parent array does not describe one tree")
    counts: list[tuple[int, ...]] = [()] * n
    factors: list[tuple[int, ...]] = [()] * n
    suffixes: list[tuple[tuple[int, ...], ...]] = [()] * n
    for u in reversed(top_down):  # children before parents
        suffixes[u] = _suffix_products(children[u], factors, budget)
        counts[u] = _tree_row(suffixes[u][0], 0 if u in reference else 1, budget)
        factors[u] = _child_factor(counts[u])
    return TreeDPTable(
        parent, root, reference, budget, tuple(map(tuple, children)),
        tuple(counts), sum(counts[root]), tuple(factors), tuple(suffixes),
    )


def sample_subtree(table: TreeDPTable, gen: np.random.Generator) -> frozenset[int]:
    if table.partition <= 0:
        raise InputError("empty subtree family")
    reference, counts = table.reference, table.counts
    children, factors, suffixes = table.children, table.factors, table.suffixes
    root = table.root
    k = choice_weighted(gen, list(counts[root]))
    chosen = {root}
    # depth-first, children left to right, each peeled against the suffix
    # product of its later siblings; a frame is [node, next child, budget left]
    stack = [[root, 0, k - (0 if root in reference else 1)]]
    while stack:
        frame = stack[-1]
        u, i, k_rem = frame
        kids = children[u]
        if i == len(kids):
            stack.pop()
            continue
        child = kids[i]
        factor, rest = factors[child], suffixes[u][i + 1]
        x = randbelow(gen, suffixes[u][i][k_rem])
        for j in range(k_rem + 1):  # the _child_terms of (u, i, k_rem)
            x -= factor[j] * rest[k_rem - j]
            if x < 0:
                break
        else:
            raise _overdrawn(table, (u, i, k_rem))
        frame[1], frame[2] = i + 1, k_rem - j
        # factor[0] = 1 + counts[child][0]: the unit means "skip", and an
        # included zero-cost subtree carries counts[child][0] of the mass
        if j == 0 and randbelow(gen, factor[0]) == 0:
            continue
        chosen.add(child)
        stack.append([child, 0, j - (0 if child in reference else 1)])
    return frozenset(chosen)

