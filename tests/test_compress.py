from fractions import Fraction

import numpy as np
import pytest

from chaincover import (
    CalibrationState,
    InputError,
    InvariantError,
    Selection,
    WeightedHypergraph,
    fractional_solution,
    nested_chain,
    predict,
    select,
    tau_threshold,
)
from chaincover.io import load_chain

from oracles import (
    exact_min_size,
    fractional_solution_scan,
    mass_table,
    phi_minimizers,
    predict_scan,
    random_hypergraph,
    round_fractional,
    select_scan,
    tau_threshold_scan,
    zipf_hypergraph,
)


def test_skewed_chain_frozen(skewed_instance):
    chain = nested_chain(skewed_instance)
    assert chain.sets == (
        frozenset(),
        frozenset({0}),
        frozenset({0, 1, 2}),
        frozenset(range(10)),
    )
    assert chain.breakpoints == (Fraction(5), Fraction(20, 3), Fraction(14))
    assert chain.induced == (0, Fraction(1, 5), Fraction(1, 2), Fraction(1))


def test_two_integral_routes_differ(skewed_instance):
    # rounding the fractional mix and re-reading the residual rule land on
    # different chain sets here; keeping both honest is the point
    chain = nested_chain(skewed_instance)
    rounded = round_fractional(chain, Fraction(9, 20), Fraction(1, 2))
    chosen = select(chain, Fraction(9, 20), Fraction(1, 2))
    assert rounded.index == 2 and rounded.vertex_set == frozenset({0, 1, 2})
    assert chosen.index == 1 and chosen.vertex_set == frozenset({0})
    assert chosen.residual == Fraction(4, 5) <= chosen.bound == Fraction(33, 40)


def test_fractional_mix_frozen(skewed_instance):
    chain = nested_chain(skewed_instance)
    frac = fractional_solution(chain, Fraction(9, 20))
    assert (frac.lower_index, frac.upper_index) == (1, 2)
    assert frac.alpha == Fraction(5, 6)
    assert frac.lam_star == Fraction(20, 3)
    assert frac.objective == Fraction(8, 3)
    assert frac.target_mass == Fraction(9, 20)


def test_fractional_exact_hit(three_path_instance):
    chain = nested_chain(three_path_instance)
    frac = fractional_solution(chain, Fraction(3, 5))
    assert (frac.lower_index, frac.upper_index, frac.alpha) == (1, 1, 0)
    assert frac.objective == 4
    assert frac.lam_star == Fraction(20, 3)


def test_fractional_interpolates(three_path_instance):
    chain = nested_chain(three_path_instance)
    frac = fractional_solution(chain, Fraction(7, 10))
    assert (frac.lower_index, frac.upper_index) == (1, 2)
    assert frac.alpha == Fraction(1, 4)
    assert frac.objective == Fraction(19, 4)


def test_fractional_tau_extremes(three_path_instance):
    chain = nested_chain(three_path_instance)
    zero = fractional_solution(chain, 0)
    assert (zero.lower_index, zero.upper_index, zero.objective) == (0, 0, 0)
    one = fractional_solution(chain, 1)
    assert (one.lower_index, one.upper_index) == (2, 2)
    assert one.objective == 7


def test_fractional_vertexless_mass_overshoot():
    # half the mass touches no vertex, so small targets need nothing at all
    h = WeightedHypergraph.build(1, [(frozenset(), "1/2"), ({0}, "1/2")])
    chain = nested_chain(h)
    frac = fractional_solution(chain, Fraction(3, 10))
    assert (frac.lower_index, frac.upper_index) == (0, 0)
    assert frac.alpha == 0 and frac.objective == 0


def test_fractional_target_past_a_loaded_top_set(short_top_chain_file):
    chain = load_chain(short_top_chain_file)
    assert chain.residuals[-1] == 1
    with pytest.raises(InputError, match="target mass 2 exceeds reachable mass 1"):
        fractional_solution(chain, 1)


def test_parameter_validation(three_path_instance):
    chain = nested_chain(three_path_instance)
    for bad_tau in (-1, 2, "3/2"):
        with pytest.raises(InputError):
            fractional_solution(chain, bad_tau)
    for bad_kappa in (0, -1):
        with pytest.raises(InputError):
            select(chain, Fraction(1, 2), bad_kappa)
        with pytest.raises(InputError):
            round_fractional(chain, Fraction(1, 2), bad_kappa)


def test_selection_certificate_enforced():
    with pytest.raises(InvariantError):
        Selection(0, frozenset(), Fraction(1), Fraction(1, 2))


def test_select_boundary_is_non_strict(three_path_instance):
    # bound == residual counts as meeting it
    chain = nested_chain(three_path_instance)
    # kappa=1, tau=4/5: bound = 2*(1/5) = 2/5 == residual of {0,1,2,3}
    sel = select(chain, Fraction(4, 5), 1)
    assert sel.vertex_set == frozenset({0, 1, 2, 3})
    assert sel.residual == sel.bound == Fraction(2, 5)


@pytest.mark.parametrize("seed", range(8))
def test_guarantees_against_ilp_oracle(seed):
    rng = np.random.default_rng(3000 + seed)
    for _ in range(4):
        h = random_hypergraph(rng, 7, 8, allow_empty_edges=False)
        if h.total_weight == 0:
            continue
        chain = nested_chain(h)
        table = mass_table(h)
        for tau in (Fraction(3, 5), Fraction(4, 5), Fraction(9, 10)):
            for kappa in (Fraction(1, 2), Fraction(1), Fraction(2)):
                r_opt, _ = exact_min_size(h, tau, table)
                for sel in (select(chain, tau, kappa), round_fractional(chain, tau, kappa)):
                    residual = h.total_weight - h.induced_weight(sel.vertex_set)
                    assert residual <= (1 + kappa) * (1 - tau) * h.total_weight
                    assert len(sel.vertex_set) <= (1 + 1 / kappa) * r_opt
                assert select(chain, tau, kappa).index <= round_fractional(chain, tau, kappa).index


@pytest.mark.parametrize("seed", range(6))
def test_fractional_duality_identity(seed):
    # objective equals the Lagrangian dual value at lam_star, exactly
    rng = np.random.default_rng(3100 + seed)
    for _ in range(4):
        h = random_hypergraph(rng, 6, 7, allow_empty_edges=False)
        if h.total_weight == 0:
            continue
        chain = nested_chain(h)
        table = mass_table(h)
        for tau in (Fraction(1, 3), Fraction(7, 11), Fraction(19, 20)):
            frac = fractional_solution(chain, tau)
            dual, _, _ = phi_minimizers(h, frac.lam_star, table)
            assert frac.objective == dual + frac.lam_star * frac.target_mass


def test_tau_sweep_is_nested(skewed_instance):
    chain = nested_chain(skewed_instance)
    taus = [Fraction(j, 40) for j in range(41)]
    for kappa in (Fraction(1, 2), 1, 2):
        picks = [select(chain, t, kappa).index for t in taus]
        assert picks == sorted(picks)
        sets = [select(chain, t, kappa).vertex_set for t in taus]
        for a, b in zip(sets, sets[1:]):
            assert a <= b


def test_tau_threshold_frozen(three_path_instance):
    chain = nested_chain(three_path_instance)
    assert tau_threshold(chain, frozenset(), 1) == 0
    assert tau_threshold(chain, frozenset({0}), 1) == Fraction(1, 2)
    assert tau_threshold(chain, frozenset({4}), 1) == Fraction(4, 5)
    assert tau_threshold(chain, frozenset({0, 4}), 1) == Fraction(4, 5)
    assert tau_threshold(chain, frozenset({7}), 1) == 1  # off the chain entirely


def test_tau_threshold_is_containment_infimum(three_path_instance):
    chain = nested_chain(three_path_instance)
    b = frozenset({0})
    t = tau_threshold(chain, b, 1)
    eps = Fraction(1, 1000)
    assert not b <= select(chain, t, 1).vertex_set
    assert b <= select(chain, t + eps, 1).vertex_set


@pytest.mark.parametrize("seed", range(5))
def test_tau_threshold_matches_scan(seed):
    rng = np.random.default_rng(3200 + seed)
    h = random_hypergraph(rng, 6, 7, allow_empty_edges=False)
    if h.total_weight == 0:
        return
    chain = nested_chain(h)
    grid = [Fraction(j, 200) for j in range(201)]
    for kappa in (Fraction(1, 2), 1):
        for target in (frozenset({0}), frozenset({1, 2}), chain.sets[-1]):
            t = tau_threshold(chain, target, kappa)
            for g in grid:
                contained = target <= select(chain, g, kappa).vertex_set
                assert contained == (g > t), (g, t)


def _outcome(reader, *args):
    """What ``reader`` returns, or the type and message of what it raises."""
    try:
        return reader(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _reader_chains(family, short_top_chain_file):
    if family == "random":
        rng = np.random.default_rng(3300)
        return [nested_chain(random_hypergraph(rng, 6, 7)) for _ in range(150)]
    if family == "zipf":
        return [nested_chain(zipf_hypergraph(3400 + seed, 16, 40, dens=range(2, 8)))
                for seed in range(40)]
    return [
        load_chain(short_top_chain_file),  # its top set leaves mass 1 of W = 2 uncovered
        nested_chain(WeightedHypergraph.build(1, [(frozenset(), "1/2"), ({0}, "1/2")])),
        nested_chain(WeightedHypergraph.build(3, [({0, 1}, 0), ({2}, 0)])),  # W = 0
    ]


@pytest.mark.parametrize("family", ["random", "zipf", "hand-made"])
def test_bisecting_readers_match_the_level_scans(family, short_top_chain_file):
    # each reader finds its level by one bisection and must give what its
    # level scan in tests/oracles.py gives, answer or error, on the grid and at
    # every chain level's own coverage and residual knife edge
    kappas = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3))
    grid = [Fraction(j, 40) for j in range(41)]
    chains = _reader_chains(family, short_top_chain_file)
    if family == "hand-made":  # the loaded short top meets no bound at tau = 1
        assert _outcome(select, chains[0], 1, 1) == (InputError, "no chain set meets residual bound 0")
    for chain in chains:
        w = chain.total
        levels = [e / w for e in chain.induced if w and 0 <= e <= w]
        for kappa in kappas:
            edges = [1 - (w - e) / ((1 + kappa) * w) for e in chain.induced if w]
            for tau in grid + levels + [t for t in edges if 0 <= t <= 1]:
                state = CalibrationState(0.0, tau, Fraction(1, 2), Fraction(1, 20), kappa, ())
                assert _outcome(select, chain, tau, kappa) == _outcome(select_scan, chain, tau, kappa)
                assert predict(chain, state) == predict_scan(chain, state)
            n = max(chain.sets[-1], default=0) + 1
            others = [frozenset(), frozenset({0}), frozenset({n}), chain.sets[-1] | {n},
                      chain.sets[-1] - {n - 1}, frozenset(range(n + 1))]
            for b in list(chain.sets) + others:
                assert _outcome(tau_threshold, chain, b, kappa) == \
                    _outcome(tau_threshold_scan, chain, b, kappa)
        for tau in grid + levels:
            assert _outcome(fractional_solution, chain, tau) == \
                _outcome(fractional_solution_scan, chain, tau)
