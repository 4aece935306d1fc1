"""Weighted hypergraphs over integer vertex ids.

Vertices are ints in [0, n).  A hyperedge is a vertex set with a non-negative
rational mass; duplicate vertex sets are legal and are never merged.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, Sequence

__all__ = [
    "Hyperedge",
    "WeightedHypergraph",
    "InputError",
    "InvariantError",
    "as_fraction",
    "check_vertex_ids",
    "prefix_cover_counts",
    "rational_from_text",
    "rational_to_text",
    "shortest_prefix",
    "unit_fraction",
]


class InputError(ValueError):
    """Malformed user input (bad file, bad id, bad weight)."""


class InvariantError(AssertionError):
    """A structural invariant that must hold by construction was violated."""


# Fraction's own string grammar: p/q, or a decimal with an optional exponent
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL = re.compile(
    rf"\s*(?P<sign>[+-]?)(?=\d|\.\d)(?P<num>(?:{_DIGITS})?)"
    rf"(?:/(?P<den>{_DIGITS})|(?:\.(?P<dec>(?:{_DIGITS})?))?(?:[eE](?P<exp>[+-]?{_DIGITS}))?)\s*"
)
# |exponent| above Python's default int/str digit limit is refused: 10**exp
# is built in full, so 1e100000000 would take minutes; 1e4300 is instant
_MAX_EXPONENT = 4300
# Python's lowest settable limit on int/str conversions: digit strings this
# long, and ints of at most _SHORT_BITS bits, convert directly under any limit
_SHORT_DIGITS = sys.int_info.str_digits_check_threshold
_SHORT_BITS = 3 * _SHORT_DIGITS  # 2**(3d) < 10**d
# a rational whose parts both pass 10**5 digits (an int of at most 10**5
# digits has at most this many bits) is refused: Fraction reduces the parts
# by math.gcd, which is quadratic (Python 3.11, 2-CPU Linux machine: 0.13 s
# at 10**5 digits each, 0.49 s at 2 * 10**5 and 15 s at 10**6)
_MAX_GCD_BITS = 332_193
_QUOTE_CHARS = 100


def _quoted(value: object) -> str:
    """``repr(value)``, or past ``_QUOTE_CHARS`` characters its first 60, its
    last 20 and its length, so that a refused long input stays one short
    error line."""
    text = repr(value)
    if len(text) <= _QUOTE_CHARS:
        return text
    return f"{text[:60]}...{text[-20:]} ({len(text)} characters)"


def _int_from_digits(digits: str) -> int:
    """``int(digits)`` at any length: the halves are read alone and recombined
    as hi * 10**len(lo) + lo, in subquadratic time."""
    if len(digits) <= _SHORT_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _int_from_digits(digits[:-half]) * 10**half + _int_from_digits(digits[-half:])


def _int_to_digits(x: int) -> str:
    """``str(x)`` at any size: the binary halves are converted alone and
    recombined in Decimal at full precision, in subquadratic time."""
    if x.bit_length() <= _SHORT_BITS:
        return str(x)
    power = cache(lambda w: Decimal(2) ** w)  # each width once

    def convert(x: int, w: int) -> Decimal:  # 0 <= x < 2**w
        if w <= _SHORT_BITS:
            return Decimal(x)
        hi = x >> w // 2
        return convert(x - (hi << w // 2), w // 2) + convert(hi, w - w // 2) * power(w // 2)

    with localcontext(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact]):
        digits = str(convert(abs(x), abs(x).bit_length()))
    return "-" + digits if x < 0 else digits


def rational_to_text(x: Fraction) -> str:
    """``str(x)`` at any size, which Python's limit on int/str conversions
    (4,300 digits by default) does not cover."""
    num = _int_to_digits(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_to_digits(x.denominator)}"


def rational_from_text(text: str) -> Fraction:
    """``Fraction(text)`` with digit strings of any length.

    The digits are read as in ``_int_from_digits``; an exponent is read as
    ``Fraction`` reads it, up to ``_MAX_EXPONENT`` in magnitude; numerator
    and denominator may not both exceed ``_MAX_GCD_BITS``.
    """
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {_quoted(text)}")
    sign, num, den, dec, exp = m.group("sign", "num", "den", "dec", "exp")
    dec = (dec or "").replace("_", "")
    numerator = _int_from_digits(num.replace("_", "") + dec)
    denominator = _int_from_digits(den.replace("_", "")) if den else 10 ** len(dec)
    if exp:
        if abs(exp := int(exp)) > _MAX_EXPONENT:
            raise ValueError(f"exponent magnitude exceeds {_MAX_EXPONENT}")
        if exp >= 0:
            numerator *= 10**exp
        else:
            denominator *= 10**-exp
    if min(numerator, denominator).bit_length() > _MAX_GCD_BITS:
        raise ValueError("numerator and denominator both exceed 10**5 digits")
    return Fraction(-numerator if sign == "-" else numerator, denominator)


def _is_int(value: object) -> bool:
    """An int, not a bool: the one int rule of every input check."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_fraction(value) -> Fraction:
    """Exact rational from int/Fraction/str; strings of any length.

    Floats are rejected: a double is rarely the rational it was meant to be.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise InputError(f"float {value!r} is not exact; pass a string such as '3/10' or a Fraction")
    try:
        if _is_int(value):
            return Fraction(value)
        if isinstance(value, str):
            return rational_from_text(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot interpret {_quoted(value)} as an exact rational: {exc}") from None
    raise InputError(f"cannot interpret {_quoted(value)} as an exact rational")


def unit_fraction(value, what: str) -> Fraction:
    """``as_fraction(value)``, which must lie in [0, 1]; ``what`` names it in the error."""
    x = as_fraction(value)
    if not 0 <= x <= 1:
        raise InputError(f"{what} must lie in [0, 1], got {rational_to_text(x)}")
    return x


def _check_int(value, what: str, low: int = 0) -> None:
    """InputError unless ``value`` is an int (not a bool) of at least ``low``:
    the one rule of every count, size, budget and seed; ``what`` names it."""
    if not _is_int(value):
        raise InputError(f"{what} must be an int, got {value!r}")
    if value < low:
        raise InputError(f"{what} must be >= {low}, got {value}")


def check_vertex_ids(n: int, vertex_sets: Iterable[Iterable[int]]) -> None:
    """Every vertex of every set is an int (not a bool) in [0, n), and n is an int >= 0."""
    _check_int(n, "vertex count")
    for vs in vertex_sets:
        for v in vs:
            if not _is_int(v) or not (0 <= v < n):
                raise InputError(f"vertex id {v!r} outside [0, {n})")


@dataclass(frozen=True)
class Hyperedge:
    vertices: frozenset[int]
    weight: Fraction

    def __post_init__(self):
        if self.weight < 0:
            raise InputError(f"negative hyperedge weight {rational_to_text(self.weight)}")


@dataclass(frozen=True)
class WeightedHypergraph:
    """n vertices plus a tuple of weighted hyperedges (duplicates allowed)."""

    n: int
    edges: tuple[Hyperedge, ...] = ()

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[Sequence[int], object]]) -> "WeightedHypergraph":
        out = cls(n=n, edges=tuple(Hyperedge(frozenset(v), as_fraction(w)) for v, w in edges))
        out.validate()
        return out

    def validate(self) -> None:
        check_vertex_ids(self.n, map(attrgetter("vertices"), self.edges))

    @cached_property
    def masses(self) -> tuple[int, tuple[int, ...]]:
        """(D, a): D is the lcm of the weights' denominators, a[i] = D * edges[i].weight.

        Computed on first use; the dataclass is frozen and its edges a
        tuple, so it stays valid.
        """
        d = math.lcm(*(e.weight.denominator for e in self.edges))
        return d, tuple(e.weight.numerator * (d // e.weight.denominator) for e in self.edges)

    @property
    def total_weight(self) -> Fraction:
        return Fraction(sum(self.masses[1]), self.masses[0])

    def induced_weight(self, s: frozenset[int] | set[int]) -> Fraction:
        """Total mass of hyperedges entirely contained in s."""
        s = frozenset(s)
        d, a = self.masses
        return Fraction(sum(x for e, x in zip(self.edges, a) if e.vertices <= s), d)


def prefix_cover_counts(order: Sequence[int], samples: Iterable[Iterable[int]]) -> list[int]:
    """counts[i] = number of samples inside order[:i], for i = 0..len(order).

    ``order`` lists distinct vertices; a sample with a vertex outside it is
    never counted.  The list never decreases.  O(sum |s| + len(order)).
    """
    pos = {v: i for i, v in enumerate(order, 1)}
    completed = [0] * (len(order) + 1)
    for s in samples:
        try:
            completed[max((pos[v] for v in s), default=0)] += 1
        except KeyError:
            continue
    return list(accumulate(completed))


def shortest_prefix(counts: Sequence[int], need: int) -> int:
    """Shortest prefix whose ``prefix_cover_counts`` entry reaches ``need``,
    else the whole order: the set rule of every vertex-order selector."""
    return min(bisect_left(counts, need), len(counts) - 1)
