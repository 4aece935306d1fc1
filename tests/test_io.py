"""Serialization round trips and canonical output bytes."""

import json
import sys
from fractions import Fraction

import pytest

from chaincover.chain import nested_chain
from chaincover.hypergraph import (
    InputError,
    WeightedHypergraph,
    rational_from_text,
    rational_to_text,
)
from chaincover.io import (
    ResultRow,
    canonical_json,
    load_chain,
    load_instance,
    load_pairs,
    result_csv,
    save_chain,
    save_instance,
    write_result_csv,
)


def _edges(h):
    return [(e.vertices, e.weight) for e in h.edges]


def test_instance_round_trip(tmp_path):
    h = WeightedHypergraph.build(
        6,
        [
            ({0, 1}, Fraction(3, 10)),
            ({0, 1}, Fraction(3, 10)),   # duplicate stays a separate edge
            ({2}, 0),
            (set(), Fraction(1, 7)),
            ({3, 4, 5}, 2),
        ],
    )
    path = tmp_path / "inst.json"
    save_instance(path, h)
    loaded, labels = load_instance(path)
    assert loaded.n == h.n
    assert _edges(loaded) == _edges(h)
    assert labels is None


def test_instance_labels_round_trip(tmp_path):
    h = WeightedHypergraph.build(3, [({0, 2}, 1)])
    path = tmp_path / "inst.json"
    save_instance(path, h, labels=["a", "b", "c"])
    _, labels = load_instance(path)
    assert labels == ["a", "b", "c"]


def test_instance_bytes_canonical(tmp_path):
    h = WeightedHypergraph.build(4, [({1, 3}, Fraction(5, 6)), ({0}, 1)])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(p1, h)
    save_instance(p2, h)
    text = p1.read_text()
    assert text == p2.read_text()
    assert text.endswith("\n")
    assert '"w": "5/6"' in text


def test_instance_load_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InputError):
        load_instance(missing)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_instance(bad)

    for doc in (
        [1, 2],
        {"edges": []},
        {"n": -1, "edges": []},
        {"n": 2, "edges": [], "vertices": ["only-one"]},
        {"n": 2, "edges": [{"v": [0]}]},
        {"n": 2, "edges": [{"v": [0], "w": 0.5}]},
        {"n": 2, "edges": [{"v": [0], "w": "1/0"}]},
        {"n": 2, "edges": [{"v": [9], "w": "1"}]},
        {"n": 2, "edges": [{"v": [0], "w": True}]},
        {"n": 2, "edges": [{"v": [True], "w": "1"}]},
        {"n": True, "edges": []},
        {"n": 2, "edges": 7},
        {"n": 2, "edges": [7]},
        {"n": 2, "edges": [{"v": 5, "w": "1"}]},
        {"n": 2, "edges": [{"v": [[0, 1]], "w": "1"}]},
    ):
        bad.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            load_instance(bad)


def _refusal(load, path) -> str:
    with pytest.raises(InputError) as info:
        load(path)
    return str(info.value)


def test_pairs_file_defaults_a_missing_weight_but_refuses_null(tmp_path):
    path = tmp_path / "pairs.json"
    pairs = [{"a": [0], "b": [1]}, {"a": [1], "b": [0]}]
    path.write_text(json.dumps({"n": 2, "edges": [{"v": [0]}, {"v": [1], "w": None}], "pairs": pairs}))
    assert _refusal(load_pairs, path) == f"pairs file {path}: edge 1: cannot interpret None as an exact rational"
    path.write_text(json.dumps({"n": 2, "edges": [{"v": [0]}, {"v": [1], "w": 1}], "pairs": pairs}))
    universe, _, _ = load_pairs(path)
    assert [e.weight for e in universe.edges] == [1, 1]


def test_repeated_bad_weight_is_named_at_its_first_edge(tmp_path):
    path = tmp_path / "inst.json"
    edges = [{"v": [0], "w": "1"}, {"v": [1], "w": "1/0"}, {"v": [0], "w": "1"}, {"v": [1], "w": "1/0"}]
    path.write_text(json.dumps({"n": 2, "edges": edges}))
    assert _refusal(load_instance, path) == (
        f"instance {path}: edge 1: cannot interpret '1/0' as an exact rational: "
        "Fraction(1, 0)"
    )


def test_load_instance_equals_build_of_the_raw_weights(tmp_path):
    raw = [([0, 1], "1"), ([1], 2), ([2], "1/2"), ([0], "0.25"), ([1, 2], "1"), ([2], 2),
           ([0, 2], "3e-1"), ([], "1_0"), ([1], "2/4"), ([0], 0)]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n": 3, "edges": [{"v": v, "w": w} for v, w in raw]}))
    h, _ = load_instance(path)
    assert h == WeightedHypergraph.build(3, raw)
    assert h.edges[0].weight is h.edges[4].weight


def test_chain_round_trip(tmp_path, three_path_instance):
    chain = nested_chain(three_path_instance)
    path = tmp_path / "chain.json"
    save_chain(path, chain)
    loaded = load_chain(path)
    assert loaded.sets == chain.sets
    assert loaded.breakpoints == chain.breakpoints
    assert loaded.induced == chain.induced
    assert loaded.total == chain.total


def test_chain_bytes_canonical(tmp_path, three_path_instance):
    chain = nested_chain(three_path_instance)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_chain(p1, chain)
    save_chain(p2, chain)
    assert p1.read_text() == p2.read_text()


def test_chain_load_rejects_tampering(tmp_path, three_path_instance):
    chain = nested_chain(three_path_instance)
    path = tmp_path / "chain.json"
    save_chain(path, chain)

    pristine = path.read_text()

    def corrupt(mutate):
        doc = json.loads(pristine)
        mutate(doc)
        path.write_text(canonical_json(doc))
        with pytest.raises(InputError):
            load_chain(path)

    corrupt(lambda d: d.pop("breakpoints"))
    # shrinking a set breaks the induced-mass bookkeeping
    corrupt(lambda d: d["sets"].__setitem__(1, d["sets"][1][:-1]))
    corrupt(lambda d: d.__setitem__("breakpoints", list(reversed(d["breakpoints"]))))
    corrupt(lambda d: d.__setitem__("stats", []))
    corrupt(lambda d: d["stats"][-1].pop("residual"))
    corrupt(lambda d: d["sets"].__setitem__(1, 5))
    corrupt(lambda d: d.__setitem__("breakpoints", 3))


def test_rational_text_is_str_under_the_digit_limit_and_exact_past_it():
    limit = sys.get_int_max_str_digits()
    for x in (Fraction(0), Fraction(-3, 4), Fraction(7), Fraction(10**599 + 1, 3),
              Fraction(-(2**1990), 7), Fraction(10**4299, 3)):
        assert rational_to_text(x) == str(x)
        assert rational_from_text(str(x)) == x
    zeros = "0" * 4999
    assert rational_to_text(Fraction(-(10**5000) - 1)) == f"-1{zeros}1"
    assert rational_to_text(Fraction(1, 10**5000)) == f"1/10{zeros}"
    assert rational_from_text(f" +1{zeros}1/10{zeros} ") == Fraction(10**5000 + 1, 10**5000)
    x = Fraction(7**9000, 3**8000 + 1)
    assert len(rational_to_text(x)) > 4300
    assert rational_from_text(rational_to_text(x)) == x
    # Fraction's other forms still read as before
    assert rational_from_text("0.25") == Fraction(1, 4)
    assert rational_from_text("1_000") == 1000
    assert sys.get_int_max_str_digits() == limit


def test_result_csv_frozen():
    rows = [
        ResultRow("chain", Fraction(1, 3), 2, Fraction(2, 3), 1),
        ResultRow("chain", Fraction(1, 3), 2, Fraction(2, 3), 0),
        ResultRow("forward_greedy", Fraction(1, 3), 3, Fraction(1), 0),
        ResultRow("chain", Fraction(3, 20), 1, Fraction(3, 20), 0),
    ]
    assert result_csv(rows) == (
        "method,phi,size,coverage,seed\n"
        "chain,0.15,1,0.15,0\n"
        "chain,0.333333333333,2,0.666666666667,0\n"
        "chain,0.333333333333,2,0.666666666667,1\n"
        "forward_greedy,0.333333333333,3,1,0\n"
    )


def test_write_result_csv(tmp_path):
    rows = [ResultRow("chain", Fraction(1, 2), 4, Fraction(1, 2), 0)]
    path = tmp_path / "rows.csv"
    write_result_csv(path, rows)
    assert path.read_text() == result_csv(rows)
