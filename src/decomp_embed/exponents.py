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
from fractions import Fraction
from typing import Union

from .errors import InexactExponent

__all__ = [
    "ExtExponent",
    "INF",
    "conjugate",
    "lower_conjugate",
    "compound",
    "DEFAULT_DENOMINATOR_CAP",
]

DEFAULT_DENOMINATOR_CAP = 10**6

_ExponentLike = Union["ExtExponent", int, Fraction, str]


class ExtExponent:
    """A value in (0, inf], stored as an exact rational or infinity.

    Instances are immutable, hashable and totally ordered (with inf as the
    largest element).  Construct from an int, a Fraction, a string such as
    "3/2" or "inf", or another ExtExponent.  For floats use
    :meth:`from_float`, which enforces exact representability.
    """

    __slots__ = ("_frac",)

    _frac: Fraction | None  # None encodes +inf

    def __init__(self, value: _ExponentLike):
        if isinstance(value, ExtExponent):
            frac = value._frac
        elif isinstance(value, bool):
            raise TypeError("bool is not an exponent")
        elif isinstance(value, (int, Fraction)):
            frac = Fraction(value)
        elif isinstance(value, str):
            frac = self._parse_str(value)
        elif isinstance(value, float):
            raise TypeError(
                "float exponents must go through ExtExponent.from_float"
            )
        else:
            raise TypeError(f"cannot build an exponent from {type(value).__name__}")
        if frac is not None and frac <= 0:
            raise ValueError(f"exponent must be positive, got {frac}")
        object.__setattr__(self, "_frac", frac)

    @staticmethod
    def _parse_str(text: str) -> Fraction | None:
        stripped = text.strip().lower()
        if stripped in ("inf", "infinity", "+inf"):
            return None
        if "/" in stripped:
            try:
                return Fraction(stripped)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in exponent {text!r}") from None
        if "." in stripped or "e" in stripped:
            # decimal literal: route through the float path for the cap check
            return ExtExponent.from_float(float(stripped))._frac
        return Fraction(int(stripped))

    @classmethod
    def from_float(
        cls, value: float, cap: int = DEFAULT_DENOMINATOR_CAP
    ) -> "ExtExponent":
        """Convert a float exactly, or raise :class:`InexactExponent`.

        The candidate rational is the best approximation with denominator
        at most ``cap``; it is accepted only if it round-trips to the very
        same float.
        """
        if math.isinf(value) and value > 0:
            return INF
        if math.isnan(value):
            raise InexactExponent("nan is not an exponent")
        if value <= 0:
            raise ValueError(f"exponent must be positive, got {value}")
        cand = Fraction(value).limit_denominator(cap)
        if float(cand) != value:
            raise InexactExponent(
                f"{value!r} has no exact rational form with denominator <= {cap}"
            )
        return cls(cand)

    @classmethod
    def from_json(cls, obj: object, cap: int = DEFAULT_DENOMINATOR_CAP) -> "ExtExponent":
        """Parse the JSON form: a number, a [num, den] pair, or "inf"."""
        if isinstance(obj, str):
            return cls(obj)
        if isinstance(obj, bool):
            raise InexactExponent("bool is not an exponent")
        if isinstance(obj, int):
            return cls(obj)
        if isinstance(obj, float):
            return cls.from_float(obj, cap)
        if (
            isinstance(obj, (list, tuple))
            and len(obj) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in obj)
        ):
            if obj[1] == 0:
                raise ValueError(f"zero denominator in exponent {obj!r}")
            return cls(Fraction(obj[0], obj[1]))
        raise InexactExponent(f"not an exponent literal: {obj!r}")

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
            return Fraction(0)
        return 1 / self._frac

    def to_json(self) -> object:
        if self._frac is None:
            return "inf"
        if self._frac.denominator == 1:
            return self._frac.numerator
        return [self._frac.numerator, self._frac.denominator]

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
        return hash(("ExtExponent", self._frac))

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
        return self == coerced or self < coerced

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


INF = ExtExponent("inf")


def conjugate(p: ExtExponent) -> ExtExponent:
    """The conjugate exponent: p/(p-1) on (1, inf), inf on (0, 1], 1 at inf."""
    if p.is_inf:
        return ExtExponent(1)
    if p.frac <= 1:
        return INF
    return ExtExponent(p.frac / (p.frac - 1))


def lower_conjugate(p: ExtExponent) -> ExtExponent:
    """min(p, conjugate(p)); always <= 2."""
    return min(p, conjugate(p))


def compound(s: ExtExponent, r: ExtExponent) -> ExtExponent:
    """The exponent with 1/compound(s, r) = max(1/s - 1/r, 0).

    Equals inf exactly when r <= s.  For r > s this is the finite exponent
    through which the inner exponent r is traded against the outer s.
    """
    recip = s.reciprocal() - r.reciprocal()
    if recip <= 0:
        return INF
    return ExtExponent(1 / recip)
