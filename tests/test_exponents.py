"""Exact arithmetic on extended exponents."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decomp_embed.errors import InexactExponent
from decomp_embed.exponents import (
    INF,
    ExtExponent,
    compound,
    conjugate,
    json_float,
    lower_conjugate,
    rational_from_json,
)

E = ExtExponent
F = Fraction


def rationals(min_value: Fraction | None = None, max_den: int = 64):
    return st.fractions(
        min_value=min_value if min_value is not None else Fraction(1, 64),
        max_value=Fraction(64),
        max_denominator=max_den,
    )


def exponents(min_value: Fraction | None = None):
    return st.one_of(
        st.just(INF),
        rationals(min_value).map(E),
    )


# ---------------------------------------------------------------------------
# construction and serialization
# ---------------------------------------------------------------------------

def test_constructor_accepts_plain_forms():
    assert E(2) == E("2") == E(Fraction(2))
    assert E("3/2") == E(Fraction(3, 2))
    assert E("inf").is_inf and E("Infinity").is_inf
    assert E(E("5/3")) == E("5/3")


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        E(0)
    with pytest.raises(ValueError):
        E(Fraction(-1, 2))
    with pytest.raises(TypeError):
        E(1.5)
    with pytest.raises(TypeError):
        E(True)
    for value in (None, 1j, [1, 2], b"2"):
        with pytest.raises(TypeError, match=f"^cannot build an exponent from {type(value).__name__}$"):
            E(value)


def test_from_json_float_exact_cases():
    assert E.from_json(0.5) == E("1/2")
    assert E.from_json(0.1) == E("1/10")
    assert E.from_json(3.0) == E(3)
    assert E.from_json(float("inf")).is_inf


def test_from_json_float_rejects_inexact():
    import math

    with pytest.raises(InexactExponent):
        E.from_json(math.pi)
    with pytest.raises(InexactExponent):
        E.from_json(float("nan"))
    with pytest.raises(ValueError):
        E.from_json(-2.0)


@pytest.mark.parametrize("doc, expect", [
    (2, E(2)),
    ([3, 4], E("3/4")),
    ("inf", INF),
    ("7/5", E("7/5")),
    (0.25, E("1/4")),
    (float("inf"), INF),
])
def test_from_json_accepts(doc, expect):
    assert E.from_json(doc) == expect


@pytest.mark.parametrize("doc", [None, True, [1, 2, 3], [1.0, 2], {"p": 2}, "zebra", [1, 0], "1/0"])
def test_from_json_rejects(doc):
    with pytest.raises((InexactExponent, ValueError)):
        E.from_json(doc)


@given(exponents())
def test_json_round_trip(p):
    assert E.from_json(p.to_json()) == p


def test_to_json_forms():
    assert E(2).to_json() == 2
    assert E("3/2").to_json() == [3, 2]
    assert INF.to_json() == "inf"


# ---------------------------------------------------------------------------
# the rational literal parser
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("doc, expect", [
    (0, F(0)),
    (-3, F(-3)),
    (10**30, F(10**30)),
    ("7", F(7)),
    (" -3/4 ", F(-3, 4)),
    ("0", F(0)),
    ("0.5", F(1, 2)),
    ("-2.5", F(-5, 2)),
    ("1e3", F(1000)),
    ("1E-2", F(1, 100)),
    ("1e30", F(10**30)),                 # read exactly, not via the float
    ("0.50000000000000000000", F(1, 2)),
    ("0e-999999999", F(0)),
    (0.25, F(1, 4)),
    (-0.1, F(-1, 10)),
    (0.0, F(0)),
    ([3, 4], F(3, 4)),
    ([-6, 4], F(-3, 2)),
    ([0, 5], F(0)),
])
def test_rational_from_json_accepts(doc, expect):
    assert rational_from_json(doc) == expect


@pytest.mark.parametrize("doc, exc", [
    ("0.1234567", InexactExponent),
    ("1e-7", InexactExponent),
    (1e-7, InexactExponent),
    (math.pi, InexactExponent),
    (float("nan"), InexactExponent),
    (float("inf"), InexactExponent),
    (float("-inf"), InexactExponent),
    ("1e400", InexactExponent),
    ("1.0000000000000001", InexactExponent),   # the same float as 1
    ("0.50000000000000001", InexactExponent),  # the same float as 0.5
    ("1e-400", InexactExponent),               # the same float as 0
    ("1e-999999999", InexactExponent),
    (True, ValueError),
    (False, ValueError),
    ([1, 0], ValueError),
    ([1.0, 2], ValueError),
    ([True, 2], ValueError),
    ([1, 2, 3], ValueError),
    ("1/0", ValueError),
    ("inf", ValueError),
    ("x", ValueError),
    ("", ValueError),
    (None, ValueError),
    ({}, ValueError),
])
def test_rational_from_json_rejects(doc, exc):
    with pytest.raises(exc):
        rational_from_json(doc)


@pytest.mark.parametrize("text", ["0.5", "0.50", "0.3333333333333333", "1e3", "-2.5", "0e-999"])
def test_json_float_accepts_what_a_float_keeps(text):
    assert json_float(text) == float(text)


@pytest.mark.parametrize("text", ["1.0000000000000001", "0.30000000000000001", "1e400", "1e-999999999"])
def test_json_float_rejects_what_a_float_rounds(text):
    with pytest.raises(InexactExponent):
        json_float(text)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_json_float_keeps_every_float_json_writes(x):
    assert json.loads(json.dumps(x), parse_float=json_float) == x


def _literal(x: Fraction) -> object:
    """The JSON literal of a rational: an int, or a [num, den] pair."""
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


@given(st.fractions())
def test_rational_json_round_trip(x):
    assert rational_from_json(json.loads(json.dumps(_literal(x)))) == x


_POSITIVE = st.fractions(min_value=F(1, 10**6), max_value=F(10**6), max_denominator=10**6)


@given(st.one_of(
    _POSITIVE.map(_literal),
    _POSITIVE.map(str),
    _POSITIVE.map(float),
    st.floats(min_value=1e-6, max_value=1e6).map(repr),
))
def test_from_json_agrees_with_the_rational_parser(doc):
    try:
        expect = rational_from_json(doc)
    except InexactExponent:
        with pytest.raises(InexactExponent):
            E.from_json(doc)
    else:
        assert E.from_json(doc) == E(expect)


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------

def test_ordering_against_plain_numbers():
    assert E("1/2") < 1 < E("3/2") < 2 <= E(2) < INF
    assert INF <= INF and INF == E("inf")
    assert not (INF < INF)


@pytest.mark.parametrize("other", ["2", 2.0, True, None, 0, -1, Fraction(-1, 2)])
def test_comparison_with_a_non_exponent_is_not_implemented(other):
    """A string, a float, a bool, None and a number that is no exponent
    (0 and negatives) equal no exponent and cannot be ordered against one."""
    assert E(2) != other and not E(2) == other
    for compare in (E(2).__lt__, E(2).__le__, E(2).__gt__, E(2).__ge__):
        assert compare(other) is NotImplemented
    with pytest.raises(TypeError):
        E(2) < other


@given(exponents(), exponents())
def test_ordering_is_total(p, q):
    assert (p < q) + (p == q) + (p > q) == 1


# ---------------------------------------------------------------------------
# conjugate and compound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, expect", [
    ("2", "2"),
    ("1", "inf"),
    ("1/2", "inf"),
    ("2/3", "inf"),
    ("4", "4/3"),
    ("3", "3/2"),
    ("3/2", "3"),
    ("inf", "1"),
])
def test_conjugate_values(p, expect):
    assert conjugate(E(p)) == E(expect)


@given(exponents(min_value=Fraction(1)))
def test_conjugate_is_an_involution_above_one(p):
    assert conjugate(conjugate(p)) == p


@given(exponents())
def test_conjugate_identity_sum_of_reciprocals(p):
    # 1/p + 1/p' = 1 whenever p >= 1; below 1 the conjugate saturates at inf
    if p >= 1:
        assert p.reciprocal() + conjugate(p).reciprocal() == 1
    else:
        assert conjugate(p).is_inf


@given(exponents())
def test_lower_conjugate_at_most_two(p):
    low = lower_conjugate(p)
    assert low <= 2
    assert low == min(p, conjugate(p))


@pytest.mark.parametrize("s, r, expect", [
    ("2", "1", "inf"),
    ("1", "2", "2"),
    ("inf", "3", "inf"),
    ("3", "inf", "3"),
    ("2", "4", "4"),
    ("3/2", "2", "6"),
    ("1", "inf", "1"),
    ("2", "2", "inf"),
])
def test_compound_values(s, r, expect):
    assert compound(E(s), E(r)) == E(expect)


@given(exponents(), exponents())
def test_compound_reciprocal_identity(s, r):
    # 1/(s*(r/s)') == (1/s - 1/r)_+ with exact rational arithmetic
    gap = s.reciprocal() - r.reciprocal()
    expected = max(gap, Fraction(0))
    assert compound(s, r).reciprocal() == expected


@given(exponents(), exponents())
def test_compound_is_infinite_iff_r_at_most_s(s, r):
    assert compound(s, r).is_inf == (r <= s)


@given(exponents())
def test_compound_against_infinity(s):
    # l^r -> l^inf costs nothing: the compound exponent against r = s is inf
    assert compound(s, s).is_inf
    assert compound(INF, s).is_inf


def test_hashable_and_usable_in_sets():
    assert len({E(2), E("2"), INF, E("inf")}) == 2
