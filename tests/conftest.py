import os
from fractions import Fraction
from pathlib import Path

import pytest

import chaincover
from chaincover import WeightedHypergraph


def child_env(env=None) -> dict[str, str]:
    """``env`` (default: this process's) with the imported package's root first on PYTHONPATH.

    The root is absolute, so that a child started in another directory finds
    this chaincover even when PYTHONPATH names a relative "src".
    """
    env = dict(os.environ if env is None else env)
    root = str(Path(chaincover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def three_path_instance() -> WeightedHypergraph:
    """Eight vertices; three disjoint route bundles plus one isolated vertex.

    Bundle A = {0,1} and bundle B = {2,3} each carry mass 3/10; bundle
    C = {4,5,6} carries 2/5; vertex 7 is on no route.  Small enough to
    enumerate, rich enough to have two nontrivial chain levels and
    non-nested exhaustive optima across thresholds.
    """
    return WeightedHypergraph.build(
        8,
        [
            (frozenset({0, 1}), Fraction(3, 10)),
            (frozenset({2, 3}), Fraction(3, 10)),
            (frozenset({4, 5, 6}), Fraction(2, 5)),
        ],
    )


@pytest.fixture
def skewed_instance() -> WeightedHypergraph:
    """Ten vertices, nested edges with sharply uneven per-vertex value.

    Rounding the fractional cover (``oracles.round_fractional``) and
    ``select``'s residual rule disagree here, which pins down that ``select``
    is not that rounding.
    """
    return WeightedHypergraph.build(
        10,
        [
            (frozenset({0}), Fraction(1, 5)),
            (frozenset({0, 1, 2}), Fraction(3, 10)),
            (frozenset(range(10)), Fraction(1, 2)),
        ],
    )
