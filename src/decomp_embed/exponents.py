"""Extended Lebesgue exponents on (0, inf] with exact arithmetic.

Every decision in this package ultimately reduces to comparisons between
exponents at exact boundaries (is r <= q, is s strictly above a threshold,
and so on), so exponents are stored as exact rationals or as the infinity
marker. Floats never enter a comparison; they are converted once, at the
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
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import InexactExponent

__all__ = [
    "ExtExponent",
    "INF",
    "conjugate",
    "lower_conjugate",
    "compound",
    "reciprocal_gap",
    "DEFAULT_DENOMINATOR_CAP",
    "rational_from_json",
    "rational_to_json",
    "int_from_json",
    "json_float",
]

DEFAULT_DENOMINATOR_CAP = 10**6
# bound of the memo of exponent literal strings (see ExtExponent._parse)
LITERAL_MEMO_SIZE = 32


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


def rational_to_json(value: Fraction) -> object:
    """The JSON form of a rational: an int, or a [num, den] pair."""
    if value.denominator == 1:
        return value.numerator
    return [value.numerator, value.denominator]

_ExponentLike = Union["ExtExponent", int, Fraction, str]


class ExtExponent:
    """A value in (0, inf], stored as an exact rational or infinity.

    Instances are immutable, hashable and totally ordered (with inf as the
    largest element).  Construct from an int, a Fraction, a string such as
    "3/2" or "inf", or another ExtExponent.  For floats use
    :meth:`from_json`, which enforces exact representability.
    """

    __slots__ = ("_frac", "_hash")

    _frac: Fraction | None  # None encodes +inf

    def __init__(self, value: _ExponentLike):
        if isinstance(value, ExtExponent):
            frac = value._frac
        elif type(value) is Fraction:
            frac = value
        elif isinstance(value, bool):
            raise TypeError("bool is not an exponent")
        elif isinstance(value, (int, Fraction)):
            frac = Fraction(value)
        elif isinstance(value, str):
            frac = self._parse(value)
        elif isinstance(value, float):
            raise TypeError(
                "float exponents must go through ExtExponent.from_json"
            )
        else:
            raise TypeError(f"cannot build an exponent from {type(value).__name__}")
        if frac is not None and frac.numerator <= 0:
            raise ValueError(f"exponent must be positive, got {frac}")
        object.__setattr__(self, "_frac", frac)

    @staticmethod
    def _parse(obj: object) -> Fraction | None:
        """None for "inf" or +inf (both print as inf), else :func:`rational_from_json`.

        A str is read through a bounded memo of literals, because sweeps
        spell the same few exponents again and again; a literal that
        raises is not kept.
        """
        if type(obj) is str:
            return _parse_literal(obj)
        return _parse_value(obj)

    @classmethod
    def from_json(cls, obj: object) -> "ExtExponent":
        """Parse the JSON form: "inf", +inf or a literal :func:`rational_from_json` accepts."""
        frac = cls._parse(obj)
        return INF if frac is None else cls(frac)

    # ------------------------------------------------------------ accessors

    @property
    def is_inf(self) -> bool:
        return self._frac is None

    @property
    def frac(self) -> Fraction:
        """The exact rational value; raises on inf."""
        if self._frac is None:
            raise ValueError("infinite exponent has no rational value")
        return self._frac

    def reciprocal(self) -> Fraction:
        """1/p as an exact Fraction, with 1/inf = 0."""
        if self._frac is None:
            return _ZERO
        return Fraction(self._frac.denominator, self._frac.numerator)

    def to_json(self) -> object:
        if self._frac is None:
            return "inf"
        return rational_to_json(self._frac)

    def __float__(self) -> float:
        return math.inf if self._frac is None else float(self._frac)

    # ------------------------------------------------------------ ordering

    @staticmethod
    def _coerce(other: object) -> "ExtExponent | None":
        if isinstance(other, ExtExponent):
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            try:
                return ExtExponent(other)
            except ValueError:
                return None
        return None

    def __eq__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._frac == coerced._frac

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(("ExtExponent", self._frac))
            object.__setattr__(self, "_hash", value)
            return value

    def __lt__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        if self._frac is None:
            return False
        if coerced._frac is None:
            return True
        return self._frac < coerced._frac

    def __le__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        if coerced._frac is None:
            return True
        if self._frac is None:
            return False
        return self._frac <= coerced._frac

    def __gt__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced < self

    def __ge__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced <= self

    def __repr__(self) -> str:
        if self._frac is None:
            return "ExtExponent('inf')"
        return f"ExtExponent('{self._frac}')"

    def __str__(self) -> str:
        if self._frac is None:
            return "inf"
        return str(self._frac)


def _parse_value(obj: object) -> Fraction | None:
    if str(obj).strip().lower() in ("inf", "infinity", "+inf"):
        return None
    return rational_from_json(obj)


_parse_literal = lru_cache(maxsize=LITERAL_MEMO_SIZE)(_parse_value)

INF = ExtExponent("inf")
_ONE = ExtExponent(1)
_ZERO = Fraction(0)


def conjugate(p: ExtExponent) -> ExtExponent:
    """The conjugate exponent: p/(p-1) on (1, inf), inf on (0, 1], 1 at inf."""
    if p.is_inf:
        return _ONE
    num, den = p.frac.numerator, p.frac.denominator
    if num <= den:
        return INF
    # p/(p-1) = num/(num - den)
    return ExtExponent(Fraction(num, num - den))


def lower_conjugate(p: ExtExponent) -> ExtExponent:
    """min(p, conjugate(p)); always <= 2."""
    return min(p, conjugate(p))


def reciprocal_gap(s: ExtExponent, r: ExtExponent) -> Fraction:
    """1/s - 1/r as an exact Fraction, with 1/inf = 0."""
    if r._frac is None:
        return s.reciprocal()
    if s._frac is None:
        return -r.reciprocal()
    a, b = s._frac, r._frac
    # a.den/a.num - b.den/b.num over the common denominator a.num * b.num
    return Fraction(
        a.denominator * b.numerator - b.denominator * a.numerator,
        a.numerator * b.numerator,
    )


def compound(s: ExtExponent, r: ExtExponent) -> ExtExponent:
    """The exponent with 1/compound(s, r) = max(1/s - 1/r, 0).

    Equals inf exactly when r <= s.  For r > s this is the finite exponent
    through which the inner exponent r is traded against the outer s.
    """
    if r.is_inf:
        return s
    recip = reciprocal_gap(s, r)
    if recip.numerator <= 0:
        return INF
    return ExtExponent(Fraction(recip.denominator, recip.numerator))
