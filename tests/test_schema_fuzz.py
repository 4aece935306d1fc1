"""Malformed instance, chain and pairs documents give ``input error:`` and exit 1.

Each generated document starts from a valid one and breaks it in one place:
a required field of the wrong type or missing, a vertex id outside [0, n),
a bad weight, a bad pair or split, a chain whose arrays disagree.  The
command line runs in-process, through ``main`` as the ``chaincover`` script
does, inside click's runner isolation.
"""

import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from chaincover.cli import main

from conftest import child_env

INSTANCE = {
    "n": 4,
    "edges": [{"v": [0, 1], "w": "1/2"}, {"v": [2], "w": 1}, {"v": [1, 2, 3], "w": "2/3"}],
    "vertices": ["a", "b", "c", "d"],
}
PAIRS = {
    "n": 4,
    "edges": [{"v": [0, 1]}, {"v": [2], "w": "1/3"}, {"v": [1, 2, 3], "w": 2}],
    "pairs": [{"a": [0, 1], "b": [0, 1]}, {"a": [2], "b": [2, 3]},
              {"a": [1], "b": [1, 2]}, {"a": [3], "b": [0]}],
    "split": 2,
}
CHAIN = {  # the chain of INSTANCE, as ``chaincover chain`` writes it
    "sets": [[], [2], [0, 1, 2, 3]],
    "breakpoints": ["1", "18/7"],
    "stats": [{"size": 0, "induced": "0", "residual": "13/6"},
              {"size": 1, "induced": "1", "residual": "7/6"},
              {"size": 4, "induced": "13/6", "residual": "0"}],
}
COMMANDS = {
    "instance": (["chain", "doc.json", "out.json"], ["compress", "doc.json", "--tau", "1/2"],
                 ["fixed", "doc.json", "--phi", "1/2"]),
    "pairs": (["calibrate", "doc.json", "--phi", "1/2"],),
    "chain": (["compress", "doc.json", "--tau", "1/2"],),
}
VALID = {"instance": INSTANCE, "pairs": PAIRS, "chain": CHAIN}

# JSON values that are none of an int, a list of ints, or a rational string
_NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
                     st.text(max_size=4), st.just([]), st.just({}))
_NOT_LIST = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=4),
                      st.just({"v": [0]}))
_NOT_RATIONAL = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False), st.just([1]),
    st.just({}),
    st.sampled_from(["", "x", "1/0", "-1", "-1/2", "1/-2", "1.5.2", "1e", "0x1", "nan"]),
)
_NOT_OBJECT = st.one_of(st.booleans(), st.integers(-3, 9), st.text(max_size=4), st.just([0]))
_SET_JUNK = st.one_of(_NOT_LIST, st.just([True]), st.just([[0]]), st.just([0.5]), st.just(["0"]))


def _bad_id(n: int):
    return st.one_of(st.integers(-10, -1), st.integers(n, n + 10))


@st.composite
def malformed(draw):
    """(kind, document) with one defect that makes the document malformed."""
    kind = draw(st.sampled_from(sorted(VALID)))
    doc = json.loads(json.dumps(VALID[kind]))
    if kind in ("instance", "pairs"):
        n = doc["n"]
        edge = draw(st.sampled_from(doc["edges"]))
        defects = ["n", "n-negative", "no-n", "edges", "no-edges", "edge", "edge-v", "edge-no-v",
                   "edge-id", "edge-w"]
        if kind == "instance":
            defects += ["edge-no-w", "labels"]
        else:
            defects += ["pairs", "no-pairs", "pair", "pair-side", "pair-no-side", "pair-id",
                        "one-pair", "split"]
        defect = draw(st.sampled_from(defects))
        if defect == "n":
            doc["n"] = draw(_NOT_INT)
        elif defect == "n-negative":
            doc["n"] = draw(st.integers(-5, -1))
        elif defect in ("no-n", "no-edges", "no-pairs"):
            del doc[defect[3:]]
        elif defect in ("edges", "pairs"):
            doc[defect] = draw(st.one_of(_NOT_LIST, st.just([7]), st.just([[0]])))
        elif defect == "edge":
            doc["edges"].append(draw(_NOT_OBJECT))
        elif defect == "edge-v":
            edge["v"] = draw(_SET_JUNK)
        elif defect == "edge-no-v":
            del edge["v"]
        elif defect == "edge-id":
            edge["v"].append(draw(_bad_id(n)))
        elif defect == "edge-w":
            edge["w"] = draw(_NOT_RATIONAL)
        elif defect == "edge-no-w":
            del edge["w"]
        elif defect == "labels":
            doc["vertices"] = draw(st.one_of(_NOT_OBJECT, st.just({}),
                                             st.lists(st.just("x"), max_size=3)))
        else:
            pair = draw(st.sampled_from(doc["pairs"]))
            side = draw(st.sampled_from(["a", "b"]))
            if defect == "pair":
                doc["pairs"].append(draw(_NOT_OBJECT))
            elif defect == "pair-side":
                pair[side] = draw(_SET_JUNK)
            elif defect == "pair-no-side":
                del pair[side]
            elif defect == "pair-id":
                pair[side].append(draw(_bad_id(n)))
            elif defect == "one-pair":
                doc["pairs"] = doc["pairs"][:1]
                del doc["split"]
            else:
                doc["split"] = draw(st.one_of(_NOT_INT, st.sampled_from([-1, 0, 4, 5])))
    else:
        defect = draw(st.sampled_from(["sets", "breakpoints", "stats", "no-sets", "no-breakpoints",
                                       "no-stats", "set", "breakpoint", "induced", "no-residual",
                                       "extra-set", "extra-breakpoint", "not-nested"]))
        if defect in ("sets", "breakpoints", "stats"):
            doc[defect] = draw(st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                                         st.text(max_size=4), st.just({})))
        elif defect.startswith("no-") and defect != "no-residual":
            del doc[defect[3:]]
        elif defect == "set":
            doc["sets"][1] = draw(_SET_JUNK)
        elif defect == "breakpoint":
            doc["breakpoints"][0] = draw(st.one_of(_NOT_RATIONAL, st.just("0"), st.just("7")))
        elif defect == "induced":
            doc["stats"][1]["induced"] = draw(st.one_of(_NOT_RATIONAL, st.just("2"), st.just("0")))
        elif defect == "no-residual":
            del doc["stats"][-1]["residual"]
        elif defect == "extra-set":
            doc["sets"].append([0, 1, 2, 3, 4])
        elif defect == "extra-breakpoint":
            doc["breakpoints"].append("9")
        else:
            doc["sets"][1] = [4]
    return kind, doc


def _main(args: list[str], doc) -> tuple[int, str]:
    """Exit code and stderr of ``main`` on ``args``, with ``doc`` saved as doc.json."""
    runner = CliRunner()
    with runner.isolated_filesystem(), runner.isolation() as (_, err, _), \
            mock.patch.object(sys, "argv", ["chaincover", *args]):
        Path("doc.json").write_text(json.dumps(doc))
        try:
            main()
            code = 0
        except SystemExit as stop:
            code = stop.code
    return code, err.getvalue().decode()


def test_valid_documents_pass():
    for kind, doc in VALID.items():
        for args in COMMANDS[kind]:
            assert _main(args, doc) == (0, "")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(malformed(), st.data())
def test_malformed_documents_are_input_errors(case, data):
    kind, doc = case
    args = data.draw(st.sampled_from(COMMANDS[kind]))
    code, err = _main(args, doc)
    assert (code, err[:12]) == (1, "input error:"), err


_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(-2, 2),
              st.text(alphabet="0123456789/.-e x", max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=6,
)


def _paths(node, at=()):
    """Every (container path, key) under ``node``, a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield at, key
        yield from _paths(child, at + (key,))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(VALID)), st.data())
def test_any_edit_is_read_or_rejected(kind, data):
    # replacing or dropping any one field: a document is either still read
    # or rejected as an input error, never a traceback or a violated invariant
    doc = json.loads(json.dumps(VALID[kind]))
    at, key = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for step in at:
        parent = parent[step]
    if data.draw(st.booleans()):
        parent[key] = data.draw(_JUNK)
    else:
        del parent[key]
    args = data.draw(st.sampled_from(COMMANDS[kind]))
    code, err = _main(args, doc)
    assert code == 0 and err == "" or (code, err[:12]) == (1, "input error:"), err


# the console script itself on a few of the defects above, pair ids among them
SCRIPT_CASES = {
    "pair-id-past-n": (["calibrate", "doc.json", "--phi", "1/2"],
                       dict(PAIRS, pairs=[{"a": [9], "b": [9]}] * 2, split=1)),
    "pair-id-negative": (["calibrate", "doc.json", "--phi", "1/2"],
                         dict(PAIRS, pairs=[{"a": [0], "b": [0, -1]}] * 2, split=1)),
    "chain-not-nested": (["compress", "doc.json", "--tau", "1/2"],
                         dict(CHAIN, sets=[[], [4], [0, 1, 2, 3]])),
}


def test_console_script_rejects_malformed_documents(tmp_path):
    for name, (args, doc) in SCRIPT_CASES.items():
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "chaincover.cli", *args],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, ""), name
        assert proc.stderr.startswith("input error:") and "Traceback" not in proc.stderr, name
