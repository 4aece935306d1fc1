"""Metamorphic chain tests: each compares two exact solves, so needs no oracle.

Every property transforms an instance in a way whose effect on the chain is
known in closed form, and is checked on both max-flow routes.  They guard the
integer bookkeeping (common denominator, gcd-scaled capacities, packed
probes), which a change of D or of the weights' scale must not disturb.
"""

from fractions import Fraction

import numpy as np
import pytest

from chaincover import WeightedHypergraph, nested_chain

from oracles import random_hypergraph, zipf_hypergraph

METHODS = ("auto", "dinic")


def _instance(seed: int) -> WeightedHypergraph:
    """Seeds 0-2: Zipf chains of 4-7 sets; 3-4: small instances with
    vertexless and zero-weight edges."""
    if seed < 3:
        return zipf_hypergraph(700 + seed, 20, 60, dens=(2, 3, 5, 7))
    return random_hypergraph(np.random.default_rng((5, 14)[seed - 3]), 8, 14)


def _rebuild(h: WeightedHypergraph, edges) -> WeightedHypergraph:
    return WeightedHypergraph.build(h.n, edges)


def _edges(h: WeightedHypergraph) -> list[tuple[frozenset[int], Fraction]]:
    return [(e.vertices, e.weight) for e in h.edges]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(5))
def test_relabelling_permutes_every_set(seed, method):
    h = _instance(seed)
    perm = np.random.default_rng(seed).permutation(h.n).tolist()
    moved = _rebuild(h, [(frozenset(perm[v] for v in s), w) for s, w in _edges(h)])
    chain, got = nested_chain(h, method), nested_chain(moved, method)
    assert got.sets == tuple(frozenset(perm[v] for v in s) for s in chain.sets)
    assert (got.breakpoints, got.induced, got.total) == \
        (chain.breakpoints, chain.induced, chain.total)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("c", [Fraction(7, 3), Fraction(5), Fraction(1, 11)])
@pytest.mark.parametrize("seed", range(5))
def test_scaling_weights_scales_breakpoints_and_masses(seed, c, method):
    h = _instance(seed)
    chain = nested_chain(h, method)
    got = nested_chain(_rebuild(h, [(s, c * w) for s, w in _edges(h)]), method)
    assert got.sets == chain.sets
    assert got.breakpoints == tuple(b / c for b in chain.breakpoints)
    assert got.induced == tuple(c * e for e in chain.induced)
    assert got.total == c * chain.total


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(5))
def test_splitting_an_edge_in_halves_changes_nothing(seed, method):
    h = _instance(seed)
    edges = _edges(h)
    rnd = np.random.default_rng(seed)
    for i in sorted(rnd.choice(len(edges), size=min(3, len(edges)), replace=False), reverse=True):
        s, w = edges[i]
        edges[i: i + 1] = [(s, w / 2), (s, w / 2)]
    assert nested_chain(_rebuild(h, edges), method) == nested_chain(h, method)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(5))
def test_zero_and_vertexless_padding_shifts_only_the_masses(seed, method):
    h = _instance(seed)
    rnd = np.random.default_rng(seed)
    sizes = rnd.integers(0, h.n + 1, size=4).tolist()
    zero = [(frozenset(rnd.choice(h.n, size=k, replace=False).tolist()), 0) for k in sizes]
    # fresh prime denominators: the common denominator D grows
    shift = [(frozenset(), Fraction(1, 10007)), (frozenset(), Fraction(3, 10009))]
    padded = _rebuild(h, zero[:2] + _edges(h) + zero[2:] + shift)
    assert padded.masses[0] == h.masses[0] * 10007 * 10009
    mass = Fraction(1, 10007) + Fraction(3, 10009)
    chain, got = nested_chain(h, method), nested_chain(padded, method)
    assert (got.sets, got.breakpoints) == (chain.sets, chain.breakpoints)
    assert got.induced == tuple(e + mass for e in chain.induced)
    assert got.total == chain.total + mass
