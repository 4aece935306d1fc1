import copy
import dataclasses
import enum
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chaincover import (
    Hyperedge,
    InputError,
    LagrangianCutSolver,
    WeightedHypergraph,
    as_fraction,
    fixed_context_fit,
)
from chaincover.experiments import chain_cover
from chaincover.hypergraph import (
    check_vertex_ids,
    prefix_cover_counts,
    rational_from_text,
    rational_to_text,
)

from conftest import run_child
from oracles import check_vertex_ids_reference


def test_as_fraction_exact_forms():
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("2/7") == Fraction(2, 7)
    assert as_fraction("0.25") == Fraction(1, 4)


@pytest.mark.parametrize("value", [0.1, 0.3, float("nan"), float("inf")])
def test_as_fraction_rejects_floats(value):
    # a double is not the rational it was typed as; strings and Fractions are
    with pytest.raises(InputError, match="pass a string"):
        as_fraction(value)


def test_as_fraction_rejects_junk():
    with pytest.raises(InputError):
        as_fraction(object())
    with pytest.raises(InputError):
        as_fraction(None)
    with pytest.raises(InputError):
        as_fraction(True)
    with pytest.raises(InputError):
        as_fraction("1/0")


def test_build_rejects_bad_input():
    with pytest.raises(InputError):
        WeightedHypergraph.build(-1, [])
    with pytest.raises(InputError):
        WeightedHypergraph.build(3, [({0, 3}, 1)])  # id 3 out of range
    with pytest.raises(InputError):
        WeightedHypergraph.build(3, [({0}, Fraction(-1, 2))])
    with pytest.raises(InputError):
        WeightedHypergraph.build(3, [({True}, 1)])  # bool is not a vertex id
    with pytest.raises(InputError):
        WeightedHypergraph.build(3, [({0}, True)])
    with pytest.raises(InputError):
        Hyperedge(frozenset({0}), Fraction(-1))


@pytest.mark.parametrize("n", [2.5, True, "3", None])
def test_vertex_count_must_be_an_int(n):
    # a float or bool n is refused before anything is built or ranged over
    message = f"vertex count must be an int, got {n!r}"
    with pytest.raises(InputError) as caught:
        WeightedHypergraph.build(n, [])
    assert str(caught.value) == message
    for call in (
        lambda: check_vertex_ids(n, [[0]]),
        lambda: fixed_context_fit([frozenset({0})] * 4, "1/2", n),
        lambda: chain_cover(n, [frozenset({0})], [frozenset({0})], ["1/2"]),
    ):
        with pytest.raises(InputError) as caught:
            call()
        assert str(caught.value) == message
    with pytest.raises(InputError) as caught:
        WeightedHypergraph.build(-1, [])
    assert str(caught.value) == "vertex count must be >= 0, got -1"


def test_duplicate_edges_accumulate():
    h = WeightedHypergraph.build(2, [({0}, "1/3"), ({0}, "1/3")])
    assert len(h.edges) == 2
    assert h.total_weight == Fraction(2, 3)
    assert h.induced_weight({0}) == Fraction(2, 3)


def test_masses_share_one_denominator_computed_once():
    h = WeightedHypergraph.build(3, [({0}, "1/6"), ({1, 2}, "3/4"), (frozenset(), "2/3"), ({2}, 0)])
    assert h.masses == (12, (2, 9, 8, 0))
    assert h.masses is h.masses
    assert h.total_weight == Fraction(19, 12)
    assert h.induced_weight({0, 2}) == Fraction(10, 12)
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.edges = []
    assert WeightedHypergraph.build(2, []).masses == (1, ())


def test_edges_are_a_tuple_so_the_cached_masses_stay_valid():
    h = WeightedHypergraph.build(2, [({0}, 1)])
    assert h.masses == (1, (1,))
    assert isinstance(h.edges, tuple)
    with pytest.raises(AttributeError):
        h.edges.append(Hyperedge(frozenset({1}), Fraction(1, 3)))
    assert h.total_weight == 1 and len(h.edges) == 1
    assert WeightedHypergraph(3).edges == ()


def test_as_fraction_reads_strings_past_the_int_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    zeros = "0" * 5000
    assert as_fraction(f"1/1{zeros}") == Fraction(1, 10**5000)
    assert as_fraction(f" -3{zeros} ") == -3 * 10**5000
    assert as_fraction("0.25") == Fraction(1, 4)
    # decimals, with or without an exponent, at any length
    assert as_fraction("0." + zeros + "1") == Fraction(1, 10**5001)
    assert as_fraction(f"-1{zeros}.5e-2") == Fraction(-(2 * 10**5000 + 1), 200)
    assert as_fraction(f"1_{zeros}.0_1E+1") == Fraction(10**5002 + 1, 10)
    with pytest.raises(InputError):
        as_fraction(f"1/0{zeros}")
    with pytest.raises(InputError):
        as_fraction(f"0.{zeros}1/3")
    assert sys.get_int_max_str_digits() == limit


def _mod_of_digits(digits: str, p: int) -> int:
    """int(digits) % p, read nine digits at a time, whatever the digit count."""
    r = 0
    for i in range(0, len(digits), 9):
        chunk = digits[i:i + 9]
        r = (r * 10 ** len(chunk) + int(chunk)) % p
    return r


def test_rational_text_round_trips_at_any_length():
    limit = sys.get_int_max_str_digits()
    rnd = random.Random(50)
    p = 2**61 - 1
    lengths = [1, 2, 639, 640, 641, 1920, 1921, 4300, 4301, 10_007, 100_003]
    lengths += [rnd.randint(1, 100_003) for _ in range(6)]
    for length in lengths:
        digits = str(rnd.randint(1, 9)) + "".join(rnd.choices("0123456789", k=length - 1))
        for sign in ("", "-"):
            x = as_fraction(sign + digits)
            assert x.denominator == 1 and (x < 0) == (sign == "-")
            assert abs(x.numerator) % p == _mod_of_digits(digits, p)
            assert rational_to_text(x) == sign + digits
            # underscores and leading zeros are read, not printed
            spaced = "00" + "_".join(digits[i:i + 7] for i in range(0, len(digits), 7))
            assert as_fraction(sign + spaced) == x
            # a short denominator keeps Fraction's gcd cheap
            q = rnd.randint(2, 10**6)
            y = as_fraction(f"{sign}{digits}/{q}")
            assert y == x / q and as_fraction(rational_to_text(y)) == y
        # the printer on an int that no digit string built
        z = rnd.getrandbits(length * 3) * rnd.choice((1, -1))
        assert rational_from_text(rational_to_text(Fraction(z))) == z
    for zero in ("0", "-0", "+000", "0_0/7"):
        assert as_fraction(zero) == 0 and rational_to_text(as_fraction(zero)) == "0"
    assert sys.get_int_max_str_digits() == limit


def test_million_digit_rational_text_reads_and_prints_in_seconds():
    # both directions were quadratic: about 41 s and 23 s at this size
    run_child(
        "from fractions import Fraction\n"
        "from chaincover.hypergraph import as_fraction, rational_to_text\n"
        "repunit = (10 ** 10**6 - 1) // 9\n"
        "assert as_fraction('1' * 10**6) == repunit\n"
        "assert rational_to_text(Fraction(repunit)) == '1' * 10**6\n",
        timeout=30,
    )


def test_rationals_with_two_huge_parts_are_refused_before_the_gcd():
    # Fraction reduced two random 10**6-digit parts by math.gcd in about 15 s;
    # refused, the p/q form reads in about 1.7 s and the decimal in 0.9 s
    run_child(
        "import random\n"
        "from chaincover.hypergraph import InputError, as_fraction\n"
        "rnd = random.Random(52)\n"
        "p, q = (''.join(rnd.choices('0123456789', k=10**6)) for _ in range(2))\n"
        "for text in (f'1{p}/1{q}', f'0.{p}', f'-9{p[:10**5]}/9{q[:10**5]}', f'.9{p[:10**5]}'):\n"
        "    try:\n"
        "        as_fraction(text)\n"
        "    except InputError as exc:\n"
        "        assert str(exc).endswith(': numerator and denominator both exceed 10**5 digits')\n"
        "    else:\n"
        "        raise AssertionError(f'accepted {text[:20]}... of {len(text)} characters')\n"
        "# parts of 10**5 digits each, or one short part, are read and reduced\n"
        "as_fraction(f'9{p[:99999]}/7{q[:99999]}')\n"
        "assert as_fraction(f'{p[:2 * 10**5]}/7') * 7 == as_fraction(p[:2 * 10**5])\n",
        timeout=20,
    )


@pytest.mark.parametrize("value, cause", [
    ("9" * 100_001 + "/" + "7" * 100_001, ": numerator and denominator both exceed 10**5 digits"),
    ("1" * 300 + "x", ": Invalid literal for Fraction: '111"),
    ([1] * 300, ""),
], ids=["gcd-bound", "bad-literal", "list"])
def test_errors_quote_long_values_by_head_tail_and_length(value, cause):
    with pytest.raises(InputError) as refused:
        as_fraction(value)
    message = str(refused.value)
    assert message.startswith(f"cannot interpret {repr(value)[:60]}...{repr(value)[-20:]} "
                              f"({len(repr(value))} characters) as an exact rational")
    assert cause in message and len(message) < 300
    # a short text is still quoted whole
    with pytest.raises(InputError, match=re.escape("cannot interpret '1/0x' as an exact rational")):
        as_fraction("1/0x")


_DIGITS = st.from_regex(r"[0-9]{1,3}(_[0-9]{1,2})?", fullmatch=True)


@st.composite
def rational_texts(draw):
    """Strings near Fraction's grammar: p/q and decimals with exponents, and broken ones."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=" +-_./eE019", max_size=8))
    sign = draw(st.sampled_from(["", "+", "-"]))
    num = draw(st.one_of(st.just(""), _DIGITS))
    if draw(st.booleans()):
        tail = "/" + draw(_DIGITS)
    else:
        dot = draw(st.one_of(st.just(""), st.just("."), _DIGITS.map(lambda d: "." + d)))
        exp = draw(st.one_of(st.just(""), st.from_regex(r"[eE][+-]?[0-9]{1,2}", fullmatch=True)))
        tail = dot + exp
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return pad + sign + num + tail + pad


@given(rational_texts())
def test_rational_text_reads_what_fraction_reads(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            rational_from_text(text)
    else:
        assert rational_from_text(text) == want


def test_exponents_past_the_int_str_digit_limit_are_refused_at_once():
    assert as_fraction("1e4300") == 10**4300
    assert as_fraction("-2.5e-4300") == Fraction(-25, 10**4301)
    assert as_fraction("1" * 5000 + "e2") == (10**5000 - 1) // 9 * 100  # digits of any length
    with pytest.raises(InputError, match="exponent magnitude exceeds 4300"):
        as_fraction("1e4301")
    # 10**exp would be built in full; a child with a timeout shows these fail at once
    huge = ["1e-100000000", "1e100000000"]
    code = (
        "from chaincover import InputError, as_fraction\n"
        f"for text in {huge!r}:\n"
        "    try:\n"
        "        as_fraction(text)\n"
        "    except InputError as exc:\n"
        "        print(exc)\n"
    )
    assert run_child(code, timeout=20).splitlines() == [
        f"cannot interpret {t!r} as an exact rational: exponent magnitude exceeds 4300" for t in huge
    ]


def test_zero_weight_edge_outside_support():
    h = WeightedHypergraph.build(3, [({0, 1}, 0), ({2}, 1)])
    assert LagrangianCutSolver(h).support == (2,)
    assert h.total_weight == 1
    assert h.induced_weight({0, 1}) == 0


def test_empty_edge_counts_everywhere():
    # a vertexless edge sits inside every subset, the empty one included
    h = WeightedHypergraph.build(2, [(frozenset(), "1/2"), ({0}, "1/2")])
    assert h.induced_weight(frozenset()) == Fraction(1, 2)
    assert h.induced_weight({1}) == Fraction(1, 2)
    assert h.induced_weight({0}) == 1
    assert h.total_weight - h.induced_weight(frozenset()) == Fraction(1, 2)


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 8))
    edges = []
    for _ in range(m):
        verts = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
        w = Fraction(draw(st.integers(0, 9)), draw(st.integers(1, 9)))
        edges.append((verts, w))
    return WeightedHypergraph.build(n, edges), draw(
        st.frozensets(st.integers(0, n - 1), max_size=n)
    )


@given(small_instances())
def test_induced_plus_residual_is_total(case):
    h, s = case
    residual = sum((e.weight for e in h.edges if not e.vertices <= s), Fraction(0))
    assert h.induced_weight(s) + residual == h.total_weight
    assert 0 <= h.induced_weight(s) <= h.total_weight


@given(small_instances())
def test_induced_monotone_under_inclusion(case):
    h, s = case
    assert h.induced_weight(s) <= h.induced_weight(frozenset(range(h.n)))
    for v in range(h.n):
        assert h.induced_weight(s) <= h.induced_weight(s | {v})


@given(
    st.lists(st.integers(0, 7), unique=True),
    st.lists(st.frozensets(st.integers(0, 9), max_size=4), max_size=12),
)
def test_prefix_cover_counts_matches_brute_force(order, samples):
    # ids 8 and 9 never enter the order; repeating the first samples adds duplicates
    samples = samples + samples[:3] + [frozenset()]
    counts = prefix_cover_counts(order, samples)
    assert counts == [sum(s <= set(order[:i]) for s in samples) for i in range(len(order) + 1)]


@given(
    st.lists(
        st.tuples(
            st.frozensets(st.integers(0, 5), max_size=4),
            st.integers(0, 50),
            st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10, 11, 13, 97, 2**40, 3**30]),
        ),
        max_size=10,
    ),
    st.frozensets(st.integers(0, 5)),
)
def test_induced_weight_matches_plain_fraction_sum(edges, s):
    # zero weights, vertexless edges and mixed denominators, some huge
    h = WeightedHypergraph.build(6, [(v, Fraction(a, b)) for v, a, b in edges])
    got = h.induced_weight(s)
    assert isinstance(got, Fraction)
    assert got == sum((e.weight for e in h.edges if e.vertices <= s), Fraction(0))


class _Id(enum.IntEnum):
    TWO = 2


def _id_error(check, n, vertex_sets):
    """The message ``check`` raises, or None."""
    try:
        check(n, vertex_sets)
    except InputError as exc:
        return str(exc)
    return None


@given(
    st.one_of(st.integers(0, 6), st.sampled_from([-1, True, 2.0])),
    st.lists(
        st.lists(st.one_of(st.integers(-3, 8), st.sampled_from([True, False, 1.0, _Id.TWO])), max_size=5),
        max_size=6,
    ),
)
def test_check_vertex_ids_names_the_first_bad_id_as_the_scan_did(n, sets):
    # several bad ids, bools and floats equal to good ids, an IntEnum member
    # (an int), empty sets, n = 0; both checks get a one-shot generator
    want = _id_error(check_vertex_ids_reference, n, (list(s) for s in sets))
    assert _id_error(check_vertex_ids, n, (list(s) for s in sets)) == want
    assert _id_error(check_vertex_ids, n, sets) == want


def test_check_vertex_ids_sees_true_after_an_equal_one():
    # a set of the ids would keep 1 and drop the True
    with pytest.raises(InputError, match=re.escape("vertex id True outside [0, 3)")):
        check_vertex_ids(3, [[1], [True]])
    with pytest.raises(InputError, match=re.escape("vertex id 1.0 outside [0, 3)")):
        check_vertex_ids(3, iter([frozenset({1}), frozenset({2}), frozenset({1.0})]))
    check_vertex_ids(3, iter([[_Id.TWO, 0], [], [2]]))
    check_vertex_ids(0, [[], []])


# the parent's hypergraph or exact error for edges ({0, 1}, 1), ({1}, w), ({0}, w)
_UNIT = WeightedHypergraph(2, (
    Hyperedge(frozenset({0, 1}), Fraction(1)), Hyperedge(frozenset({1}), Fraction(1)),
    Hyperedge(frozenset({0}), Fraction(1)),
))


@pytest.mark.parametrize("w, want", [
    (1, _UNIT),
    (True, "cannot interpret True as an exact rational"),
    (1.0, "float 1.0 is not exact; pass a string such as '3/10' or a Fraction"),
    ("1", _UNIT),
    ("2/2", _UNIT),
    (Fraction(1), _UNIT),
    ([1], "cannot interpret [1] as an exact rational"),
    (-1, "negative hyperedge weight -1"),
    ("-1/2", "negative hyperedge weight -1/2"),
])
def test_build_reads_each_weight_as_before(w, want):
    edges = [({0, 1}, 1), ({1}, w), ({0}, w)]
    if isinstance(want, str):
        with pytest.raises(InputError) as info:
            WeightedHypergraph.build(2, edges)
        assert str(info.value) == want
    else:
        assert WeightedHypergraph.build(2, edges) == want


def test_build_shares_equal_weights_and_keeps_fractions():
    f = Fraction(1, 3)
    h = WeightedHypergraph.build(3, [({0}, "1"), ({1}, "1"), ({2}, f), ({0, 1}, 1), ({1, 2}, "1/3")])
    w = [e.weight for e in h.edges]
    assert w[0] is w[1] and w[0] == 1
    assert w[2] is f
    assert w[3] == 1 and w[4] == f
    assert WeightedHypergraph.build(3, [({0}, "1")]).edges[0].weight is not w[0]  # one call's memo


def test_hyperedge_has_slots_and_behaves_as_a_value():
    e = Hyperedge(frozenset({0, 2}), Fraction(3, 4))
    assert not hasattr(e, "__dict__")
    same = Hyperedge(frozenset({2, 0}), Fraction(6, 8))
    assert e == same and hash(e) == hash(same)
    assert e != Hyperedge(frozenset({0, 2}), Fraction(1, 4))
    assert dataclasses.replace(e, weight=Fraction(1)) == Hyperedge(frozenset({0, 2}), Fraction(1))
    with pytest.raises(InputError, match="negative hyperedge weight -1/2"):
        dataclasses.replace(e, weight=Fraction(-1, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.weight = Fraction(1)
    assert copy.deepcopy(e) == e
    assert pickle.loads(pickle.dumps(e)) == e
    h = WeightedHypergraph.build(3, [({0, 2}, "3/4"), ({1}, 0)])
    assert pickle.loads(pickle.dumps(h)) == h == copy.deepcopy(h)
