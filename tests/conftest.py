import json
import os
import subprocess
import sys
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


def run_child(code: str, env=None, timeout=60) -> str:
    """Run ``code`` in a fresh interpreter under ``env`` (default: ``child_env()``).

    Asserts that it exits 0, with its stderr as the message; returns its stdout.
    """
    proc = subprocess.run([sys.executable, "-c", code], env=child_env() if env is None else env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


@pytest.fixture
def short_top_chain_file(tmp_path) -> Path:
    """A saved chain whose top set {0} holds mass 1 of W = 2: residual 1 at the top.

    A chain file need not come from ``nested_chain``, so its top set may miss
    mass that no vertex set can cover, and no target at tau = 1 is reachable.
    """
    path = tmp_path / "short-top.json"
    path.write_text(json.dumps({
        "sets": [[], [0]],
        "breakpoints": ["1"],
        "stats": [{"induced": "0"}, {"induced": "1", "residual": "1"}],
    }))
    return path


@pytest.fixture
def scipy_at_every_size(monkeypatch) -> None:
    """Every pack that fits int32 takes the scipy route, however few its arcs.

    By default a pack of at most ``flows._SCIPY_MIN_ARCS`` arcs is solved by
    Dinic; tests that pin the scipy route on small instances use this.
    """
    from chaincover import flows

    monkeypatch.setattr(flows, "_SCIPY_MIN_ARCS", 0)
