"""Extended Lebesgue exponents on (0, inf] with exact arithmetic.

Every decision in this package ultimately reduces to comparisons between
exponents at exact boundaries (is r <= q, is s strictly above a threshold,
and so on), so an exponent is stored as its exact reciprocal, with
1/inf = 0. Floats never enter a comparison; they are converted once, at the
boundary of the system, with an explicit denominator cap and a round-trip
check.

Conventions used throughout:

* 1/inf = 0.
* conjugate(p) = p/(p-1) for p in (1, inf), inf for p in (0, 1], and 1
  for p = inf.
* lower_conjugate(p) = min(p, conjugate(p)), always <= 2.
* compound(s, r) is the exponent governing the weighted sequence-space
  embedding with outer exponent s and inner exponent r.  It satisfies
  1/compound(s, r) = max(1/s - 1/r, 0), and compound(s, r) = inf exactly
  when r <= s.

In reciprocals all of these are affine, clamped at 0, so the arithmetic is
done once, on reciprocals x = 1/p as reduced int pairs (numerator, positive
denominator) with 1/inf = (0, 1): 1/conjugate(p) = max(1 - x, 0) and
1/lower_conjugate(p) = max(x, 1 - x).  The public functions are wrappers
on these pair helpers, which the decision engine calls directly.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Union

from .errors import InexactExponent

__all__ = [
    "ExtExponent",
    "INF",
    "conjugate",
    "lower_conjugate",
    "compound",
    "DEFAULT_DENOMINATOR_CAP",
    "rational_from_json",
    "int_from_json",
    "json_float",
]

DEFAULT_DENOMINATOR_CAP = 10**6
# bound of the memo of exponent literal strings (see _parse_literal)
LITERAL_MEMO_SIZE = 32
# an exact rational as (numerator, positive denominator); the reciprocals
# below are reduced, the exponent pairs of a quotient form need not be
Pair = tuple[int, int]


def _is_json_int(obj: object) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def int_from_json(obj: object) -> int:
    """An integer field of a JSON document: an int, never a bool.

    Floats and strings are rejected rather than truncated or parsed, so
    2.5 never silently becomes 2.
    """
    if not _is_json_int(obj):
        raise ValueError(f"not an integer: {obj!r}")
    return obj


def rational_from_json(obj: object) -> Fraction:
    """Parse a rational literal, the one rule for every number a user types.

    Accepted forms:

    * an int that is not a bool;
    * an integer or "a/b" string, read exactly;
    * a decimal or e-notation string, read exactly: accepted only if its
      value is in the float range with denominator <= DEFAULT_DENOMINATOR_CAP;
    * a float: accepted only if the best rational approximation with that
      denominator cap round-trips to the very same float;
    * a [num, den] pair of ints with den != 0.

    Everything else raises ValueError; a decimal or float that fails its
    cap rule (or is not finite) raises :class:`InexactExponent`.
    """
    if _is_json_int(obj):
        return Fraction(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_json_int, obj)):
        if obj[1] == 0:
            raise ValueError(f"zero denominator in {obj!r}")
        return Fraction(obj[0], obj[1])
    if isinstance(obj, str):
        text = obj.strip().lower()
        if "/" in text:
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {obj!r}") from None
        if "." not in text and "e" not in text:
            return Fraction(int(text))
        value = float(text)
        if value == 0 and Decimal(text).is_zero():  # never builds 10**999 for "0e-999"
            return Fraction(0)
        if value == 0 or not math.isfinite(value):
            raise InexactExponent(f"{obj!r} is outside the float range")
        exact = Fraction(text)
        if exact.denominator > DEFAULT_DENOMINATOR_CAP:
            raise InexactExponent(f"{obj!r} has a denominator above {DEFAULT_DENOMINATOR_CAP}")
        return exact
    if not isinstance(obj, float):
        raise ValueError(f"not a rational literal: {obj!r}")
    if not math.isfinite(obj):
        raise InexactExponent(f"{obj!r} is not a finite rational")
    cand = Fraction(obj).limit_denominator(DEFAULT_DENOMINATOR_CAP)
    if float(cand) != obj:
        raise InexactExponent(f"{obj!r} is no fraction with denominator <= {DEFAULT_DENOMINATOR_CAP}")
    return cand


def json_float(text: str) -> float:
    """The float of a JSON number's text, the ``parse_float`` hook for user JSON.

    A JSON number whose text has more digits than its float keeps (or
    that overflows it) would be rounded before :func:`rational_from_json`
    sees it, so it raises :class:`InexactExponent` instead: the float's
    shortest form must have the value the text spells.
    """
    value = float(text)
    if Decimal(repr(value)) != Decimal(text):
        raise InexactExponent(f"JSON number {text} is not the float {value!r} it would be read as")
    return value


_ExponentLike = Union["ExtExponent", int, Fraction, str]


@total_ordering
class ExtExponent:
    """A value in (0, inf], stored as its reciprocal 1/p, a reduced pair.

    Instances are immutable, hashable and totally ordered (with inf as the
    largest element), by the reciprocals.  Construct from an int, a Fraction,
    a string such as "3/2" or "inf", or another ExtExponent.  For floats use
    :meth:`from_json`, which enforces exact representability.
    """

    __slots__ = ("_x",)

    _x: Pair  # 1/p, reduced; (0, 1) encodes +inf

    def __init__(self, value: _ExponentLike):
        if isinstance(value, ExtExponent):
            x = value._x
        elif type(value) is Fraction:
            x = _reciprocal(value)
        elif isinstance(value, bool):
            raise TypeError("bool is not an exponent")
        elif isinstance(value, (int, Fraction)):
            x = _reciprocal(Fraction(value))
        elif isinstance(value, str):
            x = _parse_literal(value)
        elif isinstance(value, float):
            raise TypeError("float exponents must go through ExtExponent.from_json")
        else:
            raise TypeError(f"cannot build an exponent from {type(value).__name__}")
        object.__setattr__(self, "_x", x)

    @classmethod
    def from_json(cls, obj: object) -> "ExtExponent":
        """Parse the JSON form: "inf", +inf or a literal :func:`rational_from_json` accepts."""
        return from_reciprocal(_parse_literal(obj) if type(obj) is str else _parse_value(obj))

    # ------------------------------------------------------------ accessors

    @property
    def is_inf(self) -> bool:
        return not self._x[0]

    def reciprocal(self) -> Fraction:
        """1/p as an exact Fraction, with 1/inf = 0."""
        return Fraction(*self._x)

    def to_json(self) -> object:
        num, den = self._x
        return "inf" if not num else den if num == 1 else [den, num]

    def __float__(self) -> float:
        return self._x[1] / self._x[0] if self._x[0] else math.inf

    # ------------------------------------------------------------ ordering

    @staticmethod
    def _coerce(other: object) -> "ExtExponent | None":
        if isinstance(other, ExtExponent):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            try:
                return ExtExponent(other)
            except ValueError:
                pass
        return None

    def __eq__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._x == coerced._x

    def __hash__(self) -> int:
        return hash(("ExtExponent", self._x))

    def __lt__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return not pair_le(self._x, coerced._x)

    def __le__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return pair_le(coerced._x, self._x)

    def __repr__(self) -> str:
        return f"ExtExponent('{self}')"

    def __str__(self) -> str:
        return exponent_text(self._x)


def _parse_value(obj: object) -> Pair:
    """1/p of "inf" or +inf (both print as inf), else of the positive value
    :func:`rational_from_json` reads."""
    if str(obj).strip().lower() in ("inf", "infinity", "+inf"):
        return (0, 1)
    return _reciprocal(rational_from_json(obj))


def _reciprocal(frac: Fraction) -> Pair:
    """1/frac as a reduced pair; frac must be positive."""
    if frac.numerator <= 0:
        raise ValueError(f"exponent must be positive, got {frac}")
    return frac.denominator, frac.numerator


# sweeps spell the same few exponents again and again, so a literal string
# is read through a bounded memo; a literal that raises is not kept
_parse_literal = lru_cache(maxsize=LITERAL_MEMO_SIZE)(_parse_value)

INF = ExtExponent("inf")


def reciprocal_pair(p) -> Pair:
    """1/p of an exponent, or of what :class:`ExtExponent` accepts, as a
    reduced pair; a literal string is read through the literal memo."""
    if type(p) is str:
        return _parse_literal(p)
    return (p if isinstance(p, ExtExponent) else ExtExponent(p))._x


def pair_sub(x: Pair, y: Pair) -> Pair:
    """x - y, reduced."""
    num, den = x[0] * y[1] - y[0] * x[1], x[1] * y[1]
    c = math.gcd(num, den)
    return num // c, den // c


def pair_le(x: Pair, y: Pair) -> bool:
    return x[0] * y[1] <= y[0] * x[1]


def clamped(x: Pair) -> Pair:
    """max(x, 0)."""
    return x if x[0] > 0 else (0, 1)


def conjugate_pair(x: Pair) -> Pair:
    """1/conjugate(p) = max(1 - x, 0) at x = 1/p."""
    return (x[1] - x[0], x[1]) if x[0] < x[1] else (0, 1)


def lower_conjugate_pair(x: Pair) -> Pair:
    """1/lower_conjugate(p) = max(x, 1 - x) at x = 1/p."""
    return x if 2 * x[0] >= x[1] else (x[1] - x[0], x[1])


def exponent_text(x: Pair) -> str:
    """``str`` of the exponent with reciprocal x >= 0: "inf" at 0."""
    num, den = x
    return "inf" if not num else str(den) if num == 1 else f"{den}/{num}"


def from_reciprocal(x: Pair) -> ExtExponent:
    """The exponent with reciprocal x >= 0 (positive denominator), inf at 0."""
    if not x[0]:
        return INF
    c = math.gcd(*x)
    e = object.__new__(ExtExponent)
    object.__setattr__(e, "_x", (x[0] // c, x[1] // c))
    return e


def conjugate(p: ExtExponent) -> ExtExponent:
    """The conjugate exponent: p/(p-1) on (1, inf), inf on (0, 1], 1 at inf."""
    return from_reciprocal(conjugate_pair(reciprocal_pair(p)))


def lower_conjugate(p: ExtExponent) -> ExtExponent:
    """min(p, conjugate(p)); always <= 2."""
    return from_reciprocal(lower_conjugate_pair(reciprocal_pair(p)))


def compound(s: ExtExponent, r: ExtExponent) -> ExtExponent:
    """The exponent with 1/compound(s, r) = max(1/s - 1/r, 0).

    Equals inf exactly when r <= s.  For r > s this is the finite exponent
    through which the inner exponent r is traded against the outer s.
    """
    return from_reciprocal(clamped(pair_sub(reciprocal_pair(s), reciprocal_pair(r))))
