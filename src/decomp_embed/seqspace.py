"""Summability calculus over lattice sectors.

This module carries the sequence-space side of the decision engine:

* lattice sectors (lines, products, punctured lattices with radial
  weights, and constrained pair sectors of the form |m| <= ceil(2^(lam*n))
  + shift),
* exp-poly weights, finite sums of atoms 2^(a*n) * |n|^c per coordinate
  with per-orthant exponents, and quotient forms, weights whose exponents
  are affine in the gaps 1/p - 1/t and 1/2 - 1/r,
* an exact decider for membership of such a weight in l^theta, whose
  rules read x = 1/theta, with x = 0 for theta = inf (boundedness),
* an independent numeric truncation oracle that classifies the same
  membership question from partial sums alone, and
* the weighted sequence embedding test, decided through membership of
  the quotient u/v.

Atoms are flat tuples of exact Fractions.  Values are coerced to Fraction
once, at the boundary: in the public constructors of :class:`CoordFactor`
and :class:`Atom`, their classmethods and :func:`expweight_from_json`.
Internal arithmetic passes Fractions through untouched, so a quotient is a
field-wise subtraction.  In a :class:`QuotientForm` an exponent may instead
be an :class:`Affine` in the gaps dp = 1/p - 1/t and g = 1/2 - 1/r, which
the form compiles once to integer coefficients.  The membership rules read
every exponent as an int pair (numerator, positive denominator), from an
atom's Fractions or from a form's coefficients at one (dp, g), and compare
signs and integer cross products affine in 1/theta; only the closed
boundary at theta = inf sets that case apart.

The decider and the oracle share no logic.  The decider manipulates
exponents as exact rationals and never evaluates the weight; the oracle
evaluates the weight numerically and reads exponents only for structural
facts about what lies past its window (the pair-sector tail bound and the
exponential-growth gate).  Test suites drive both against each other.

numpy is imported only inside the oracle functions, so the exact decider
runs without loading it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import UnsupportedWeight
from .exponents import compound, int_from_json, rational_from_json

__all__ = [
    "LineSector",
    "ProductSector",
    "RadialSector",
    "PairSector",
    "CoordFactor",
    "Atom",
    "ExpPolyWeight",
    "Affine",
    "QuotientForm",
    "Membership",
    "TailClassification",
    "decide_exponents",
    "decide_lp_membership",
    "decide_sequence_embedding",
    "truncated_oracle",
    "sector_from_json",
    "expweight_from_json",
]

RatLike = Union[int, Fraction]
# an exact exponent as (numerator, positive denominator), not necessarily reduced
Pair = tuple[int, int]


# ---------------------------------------------------------------------------
# small numeric / rational helpers
# ---------------------------------------------------------------------------

def pow2f(x: float) -> float:
    """2**x in float, saturating instead of raising OverflowError."""
    if x >= 1024.0:  # 2.0 ** x raises from 2^1024 on
        return math.inf
    if x < -1100.0:
        return 0.0
    return 2.0 ** x


def ceil_pow2(fr: Fraction) -> int:
    """ceil(2**fr) for rational fr, computed in integer arithmetic."""
    if fr <= 0:
        # 2**fr lies in (0, 1]
        return 1
    p, q = fr.numerator, fr.denominator
    lo = 1 << (p // q)
    target = 1 << p
    if lo**q >= target:
        return lo
    hi = lo * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**q >= target:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

_LINE_DOMAINS = ("Z", "N0", "Nneg", "Z_nonzero")


@dataclass(frozen=True)
class LineSector:
    """A one-dimensional integer sector.

    domain is one of "Z", "N0" (n >= 0), "Nneg" (n <= -1), "Z_nonzero".
    """

    domain: str = "Z"

    def __post_init__(self) -> None:
        if self.domain not in _LINE_DOMAINS:
            raise ValueError(f"unknown line domain {self.domain!r}")

    @property
    def dims(self) -> int:
        return 1

    def contains(self, pt: tuple[int, ...]) -> bool:
        (n,) = pt
        if self.domain == "N0":
            return n >= 0
        if self.domain == "Nneg":
            return n <= -1
        if self.domain == "Z_nonzero":
            return n != 0
        return True


@dataclass(frozen=True)
class ProductSector:
    """A product of line sectors, one per coordinate."""

    lines: tuple[LineSector, ...]

    @property
    def dims(self) -> int:
        return len(self.lines)

    def contains(self, pt: tuple[int, ...]) -> bool:
        return len(pt) == self.dims and all(
            line.contains((n,)) for line, n in zip(self.lines, pt)
        )


@dataclass(frozen=True)
class RadialSector:
    """The punctured lattice Z^d minus the origin, with radial atoms."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def dims(self) -> int:
        return self.d

    def contains(self, pt: tuple[int, ...]) -> bool:
        return len(pt) == self.d and any(n != 0 for n in pt)


@dataclass(frozen=True)
class PairSector:
    """Pairs (n, m) with n in a half-line and |m| constrained by 2^(lam*n).

    side "inside" means |m| <= ceil(2^(lam*n)) + shift, side "outside"
    means |m| >= ceil(2^(lam*n)) + shift.  The sign of lam must make
    lam*n >= 0 on the n-domain; the closed-form reduction rules assume
    the bound never collapses below 1 by more than the shift.
    """

    n_domain: str = "N0"  # "N0" or "Nneg"
    lam: Fraction = Fraction(0)
    side: str = "inside"
    shift: int = 0

    def __post_init__(self) -> None:
        if self.n_domain not in ("N0", "Nneg"):
            raise ValueError(f"pair sector n-domain must be N0 or Nneg, got {self.n_domain!r}")
        if self.side not in ("inside", "outside"):
            raise ValueError(f"pair sector side must be inside or outside, got {self.side!r}")
        if self.shift not in (-1, 0, 1):
            raise ValueError("pair sector shift must be in {-1, 0, 1}")
        if type(self.lam) is not Fraction:
            object.__setattr__(self, "lam", Fraction(self.lam))

    @property
    def dims(self) -> int:
        return 2

    def n_values(self, radius: int) -> list[int]:
        if self.n_domain == "N0":
            return list(range(0, radius + 1))
        return list(range(-radius, 0))

    def m_bound(self, n: int) -> int:
        """The row bound ceil(2^(lam*n)) + shift for row n."""
        return ceil_pow2(self.lam * n) + self.shift

    def contains(self, pt: tuple[int, ...]) -> bool:
        n, m = pt
        if self.n_domain == "N0" and n < 0:
            return False
        if self.n_domain == "Nneg" and n >= 0:
            return False
        bound = self.m_bound(n)
        if self.side == "inside":
            return abs(m) <= bound
        return abs(m) >= bound


Sector = Union[LineSector, ProductSector, RadialSector, PairSector]


def sector_from_json(obj: object) -> Sector:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"not a sector descriptor: {obj!r}")
    kind = obj["kind"]
    if kind in _LINE_DOMAINS:
        return LineSector(kind)
    if kind == "product":
        domains = obj.get("domains")
        if not isinstance(domains, list) or not domains:
            raise ValueError(f"product sector needs a non-empty list of domains, got {domains!r}")
        return ProductSector(tuple(LineSector(d) for d in domains))
    if kind == "radial":
        return RadialSector(int_from_json(obj.get("d")))
    if kind == "pairs":
        return PairSector(
            n_domain=obj.get("n_domain", "N0"),
            lam=rational_from_json(obj.get("lam", 0)),
            side=obj.get("side", "inside"),
            shift=int_from_json(obj.get("shift", 0)),
        )
    raise ValueError(f"unknown sector kind {kind!r}")


# ---------------------------------------------------------------------------
# atoms and weights
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Affine:
    """The exact affine function c0 + c_dp*dp + c_g*g of the two gaps
    dp = 1/p - 1/t and g = 1/2 - 1/r: an exponent of a :class:`QuotientForm`.

    Sums with ints, Fractions and other Affines, and products with ints and
    Fractions, stay Affine, so a family builds its form with the same
    arithmetic it would spend on one (dp, g).
    """

    __slots__ = ("c0", "c_dp", "c_g")

    def __init__(self, c0: RatLike = _ZERO, c_dp: RatLike = _ZERO, c_g: RatLike = _ZERO):
        self.c0, self.c_dp, self.c_g = _exact(c0), _exact(c_dp), _exact(c_g)

    def __add__(self, other) -> "Affine":
        if type(other) is Affine:
            return Affine(self.c0 + other.c0, self.c_dp + other.c_dp, self.c_g + other.c_g)
        return Affine(self.c0 + other, self.c_dp, self.c_g)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine(-self.c0, -self.c_dp, -self.c_g)

    def __sub__(self, other) -> "Affine":
        return self + -other

    def __rsub__(self, other) -> "Affine":
        return -self + other

    def __mul__(self, scalar: RatLike) -> "Affine":
        return Affine(self.c0 * scalar, self.c_dp * scalar, self.c_g * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Affine({self.c0}, {self.c_dp}, {self.c_g})"


def _exact(value: RatLike) -> Fraction:
    """value as a Fraction; a Fraction or an Affine passes through untouched."""
    return value if type(value) is Fraction or type(value) is Affine else Fraction(value)


class _CoordFactorFields(NamedTuple):
    exp2_pos: Fraction
    exp2_neg: Fraction
    pow_pos: Fraction
    pow_neg: Fraction


class CoordFactor(_CoordFactorFields):
    """Per-coordinate factor 2^(a*n) * |n|^c with separate orthant exponents.

    On n >= 0 the factor is 2^(exp2_pos*n) * |n|^pow_pos, on n < 0 it is
    2^(exp2_neg*n) * |n|^pow_neg.  |0|^c is read as 1.

    A plain tuple of four exact Fractions.  The constructor and
    :meth:`symmetric` coerce ints; ``_make`` takes Fractions as they are.
    """

    __slots__ = ()

    def __new__(
        cls,
        exp2_pos: RatLike = _ZERO,
        exp2_neg: RatLike = _ZERO,
        pow_pos: RatLike = _ZERO,
        pow_neg: RatLike = _ZERO,
    ) -> "CoordFactor":
        return tuple.__new__(
            cls, (_exact(exp2_pos), _exact(exp2_neg), _exact(pow_pos), _exact(pow_neg))
        )

    @classmethod
    def symmetric(cls, exp2: RatLike = _ZERO, power: RatLike = _ZERO) -> "CoordFactor":
        exp2, power = _exact(exp2), _exact(power)
        return cls._make((exp2, exp2, power, power))

    @property
    def is_trivial(self) -> bool:
        return not any(self)

    def value(self, n: int) -> float:
        return pow2f(self.log2_value(n))

    def log2_value(self, n: int) -> float:
        if n >= 0:
            a, c = self.exp2_pos, self.pow_pos
        else:
            a, c = self.exp2_neg, self.pow_neg
        out = float(a) * n
        if c and n != 0:
            out += float(c) * math.log2(abs(n))
        return out

    def sub(self, other: "CoordFactor") -> "CoordFactor":
        """Field-wise self - other."""
        return CoordFactor._make(a - b for a, b in zip(self, other))


class _AtomFields(NamedTuple):
    coeff: Fraction
    factors: tuple[CoordFactor, ...]
    radial_pow: Fraction


class Atom(_AtomFields):
    """coeff * prod_j factor_j(n_j) * |n|_2^radial_pow, strictly positive.

    A plain tuple of an exact coefficient, one :class:`CoordFactor` per
    coordinate and an exact radial power.  The constructor and the
    classmethods coerce ints and check the coefficient; ``_make`` takes
    Fractions as they are.
    """

    __slots__ = ()

    def __new__(
        cls,
        coeff: RatLike = _ONE,
        factors: tuple[CoordFactor, ...] = (),
        radial_pow: RatLike = _ZERO,
    ) -> "Atom":
        coeff = _exact(coeff)
        if coeff.numerator <= 0:
            raise ValueError("atom coefficient must be positive")
        return tuple.__new__(cls, (coeff, factors, _exact(radial_pow)))

    @classmethod
    def line(cls, exp2: RatLike = _ZERO, power: RatLike = _ZERO, coeff: RatLike = _ONE) -> "Atom":
        return cls(coeff, (CoordFactor.symmetric(exp2, power),))

    @classmethod
    def radial(cls, d: int, power: RatLike, coeff: RatLike = _ONE) -> "Atom":
        return cls(coeff, (_TRIVIAL_FACTOR,) * d, power)

    @classmethod
    def pair(
        cls,
        n_exp2: RatLike = _ZERO,
        n_power: RatLike = _ZERO,
        m_power: RatLike = _ZERO,
        coeff: RatLike = _ONE,
    ) -> "Atom":
        return cls(
            coeff,
            (
                CoordFactor.symmetric(n_exp2, n_power),
                CoordFactor.symmetric(_ZERO, m_power),
            ),
        )

    def evaluate(self, pt: tuple[int, ...]) -> float:
        # sum exponents before exponentiating: saturated per-factor values
        # would otherwise meet as inf * 0 = nan on steep mixed-rate atoms
        log2mag = 0.0
        for factor, n in zip(self.factors, pt):
            log2mag += factor.log2_value(n)
        if self.radial_pow:
            rr = math.sqrt(sum(n * n for n in pt))
            if rr == 0.0:
                return float(self.coeff) * pow2f(log2mag) * rr ** float(self.radial_pow)
            log2mag += float(self.radial_pow) * math.log2(rr)
        return float(self.coeff) * pow2f(log2mag)

    def quotient(self, den: "Atom") -> "Atom":
        """self/den: the coefficients divide, the exponents subtract field-wise."""
        if len(den.factors) != len(self.factors):
            raise UnsupportedWeight("quotient of atoms over different lattices")
        return Atom._make(
            (
                self.coeff / den.coeff,
                tuple(f.sub(g) for f, g in zip(self.factors, den.factors)),
                self.radial_pow - den.radial_pow,
            )
        )


_TRIVIAL_FACTOR = CoordFactor()


@dataclass(frozen=True)
class Piece:
    sector: Sector
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("piece needs at least one atom")
        for atom in self.atoms:
            if len(atom.factors) != self.sector.dims:
                raise ValueError("atom arity does not match sector dimension")


@dataclass(frozen=True)
class ExpPolyWeight:
    """A positive weight given piecewise as sums of atoms over sectors.

    Pieces partition the intended index set; membership in l^theta is the
    conjunction of membership on every piece.
    """

    pieces: tuple[Piece, ...]

    @classmethod
    def single(cls, sector: Sector, *atoms: Atom) -> "ExpPolyWeight":
        return cls((Piece(sector, tuple(atoms)),))

    @property
    def dims(self) -> int:
        return self.pieces[0].sector.dims

    def evaluate(self, pt: tuple[int, ...]) -> float:
        for piece in self.pieces:
            if piece.sector.contains(pt):
                return sum(atom.evaluate(pt) for atom in piece.atoms)
        raise ValueError(f"point {pt} lies in no piece of this weight")

    def contains(self, pt: tuple[int, ...]) -> bool:
        return any(piece.sector.contains(pt) for piece in self.pieces)

    def quotient(self, den: "ExpPolyWeight") -> "ExpPolyWeight":
        """Pointwise self/den; den must carry one atom per matching sector."""
        if len(den.pieces) != len(self.pieces):
            raise UnsupportedWeight("quotient across different piece layouts")
        out = []
        for num_piece, den_piece in zip(self.pieces, den.pieces):
            if num_piece.sector != den_piece.sector:
                raise UnsupportedWeight("quotient across different sectors")
            if len(den_piece.atoms) != 1:
                raise UnsupportedWeight("denominator weight must be a single atom per sector")
            den_atom = den_piece.atoms[0]
            out.append(
                Piece(
                    num_piece.sector,
                    tuple(atom.quotient(den_atom) for atom in num_piece.atoms),
                )
            )
        return ExpPolyWeight(tuple(out))


def _exponents_of(atom: Atom) -> tuple:
    """The exponents of an atom in reading order: exp2_pos, exp2_neg,
    pow_pos and pow_neg of each coordinate factor, then the radial power."""
    return (*itertools.chain.from_iterable(atom.factors), atom.radial_pow)


def _affine_parts(e) -> tuple[Fraction, Fraction, Fraction]:
    return (e.c0, e.c_dp, e.c_g) if type(e) is Affine else (e, _ZERO, _ZERO)


class QuotientForm:
    """A family's quotient w^(t)/u(r) for every (t, r) at once.

    The pieces and atoms are those of the quotient at any one (t, r), and
    each exponent is a Fraction or an :class:`Affine` in the gaps
    dp = 1/p - 1/t and g = 1/2 - 1/r.  The coefficients are compiled once
    to ints (a, b, c) over one common denominator D, so at (dp, g) an
    exponent is (a*s + b*u + c*v) / (D*s) with the same s, u, v for all of
    them.  :meth:`exponents` gives these as the int pairs that
    :func:`decide_exponents` reads, without building a weight; :meth:`at`
    builds the weight.
    """

    __slots__ = ("pieces", "_den", "_rows")

    def __init__(self, pieces: tuple[Piece, ...]):
        self.pieces = pieces
        exps = [_exponents_of(atom) for piece in pieces for atom in piece.atoms]
        # many exponents are one shared object (a zero, a symmetric factor)
        parts = {id(e): _affine_parts(e) for atom in exps for e in atom}
        den = math.lcm(*(c.denominator for part in parts.values() for c in part))
        ints = {
            key: tuple(c.numerator * (den // c.denominator) for c in part)
            for key, part in parts.items()
        }
        rows = iter([tuple(ints[id(e)] for e in atom) for atom in exps])
        self._den = den
        self._rows = tuple(tuple(next(rows) for _ in piece.atoms) for piece in pieces)

    @classmethod
    def single(cls, sector: Sector, *atoms: Atom) -> "QuotientForm":
        return cls((Piece(sector, tuple(atoms)),))

    def exponents(self, dp: Fraction, g: Fraction) -> list:
        """Per piece its sector and, per atom, the exponent pairs at (dp, g),
        as :func:`decide_exponents` reads them.

        Lists, not tuples built from generators: those are sized by a
        guess and shrunk, and the tuples they free pile up in CPython's
        per-size free lists, which a sweep of cells fills to their cap.
        """
        s = dp.denominator * g.denominator
        u, v, den = dp.numerator * g.denominator, g.numerator * dp.denominator, self._den * s
        return [
            (piece.sector, [[(a * s + b * u + c * v, den) for a, b, c in row] for row in rows])
            for piece, rows in zip(self.pieces, self._rows)
        ]

    def at(self, dp: Fraction, g: Fraction) -> ExpPolyWeight:
        """The quotient at one (dp, g), every exponent a Fraction."""
        def atom_at(atom: Atom, pairs: list[Pair]) -> Atom:
            vals = [Fraction(num, den) for num, den in pairs]
            factors = tuple(CoordFactor._make(vals[i:i + 4]) for i in range(0, len(vals) - 1, 4))
            return Atom._make((atom.coeff, factors, vals[-1]))

        return ExpPolyWeight(tuple(
            Piece(piece.sector, tuple(map(atom_at, piece.atoms, atoms)))
            for piece, (_, atoms) in zip(self.pieces, self.exponents(dp, g))
        ))


def _factor_from_json(obj: object) -> tuple[Fraction, Fraction]:
    """Parse a scalar-or-{pos,neg} exponent entry."""
    if isinstance(obj, dict):
        pos = rational_from_json(obj.get("pos", 0))
        neg = rational_from_json(obj.get("neg", 0))
        return pos, neg
    val = rational_from_json(obj)
    return val, val


def _atom_from_json(obj: object, dims: int) -> Atom:
    if not isinstance(obj, dict):
        raise ValueError(f"not an atom descriptor: {obj!r}")
    coeff = rational_from_json(obj.get("coeff", 1))
    exp2 = obj.get("exp2", [0] * dims)
    powers = obj.get("pow", [0] * dims)
    if not isinstance(exp2, list):
        exp2 = [exp2]
    if not isinstance(powers, list):
        powers = [powers]
    if len(exp2) != dims or len(powers) != dims:
        raise ValueError("atom exponent lists must match the sector dimension")
    factors = []
    for e_entry, p_entry in zip(exp2, powers):
        e_pos, e_neg = _factor_from_json(e_entry)
        p_pos, p_neg = _factor_from_json(p_entry)
        factors.append(CoordFactor(e_pos, e_neg, p_pos, p_neg))
    radial = rational_from_json(obj.get("radial_pow", 0))
    return Atom(coeff, tuple(factors), radial)


def expweight_from_json(obj: object) -> ExpPolyWeight:
    """Parse {"lattice": ..., "atoms": [...]} or {"pieces": [...]}."""
    if isinstance(obj, dict) and "pieces" in obj:
        piece_docs = obj["pieces"]
        if not isinstance(piece_docs, list):
            raise ValueError(f"pieces must be a list, got {piece_docs!r}")
    else:
        piece_docs = [obj]
    pieces = []
    for doc in piece_docs:
        if not isinstance(doc, dict) or "lattice" not in doc:
            raise ValueError(f"not a weight descriptor: {doc!r}")
        sector = sector_from_json(doc["lattice"])
        atom_docs = doc.get("atoms", [{}])
        if not isinstance(atom_docs, list):
            raise ValueError(f"atoms must be a list, got {atom_docs!r}")
        atoms = tuple(_atom_from_json(a, sector.dims) for a in atom_docs)
        pieces.append(Piece(sector, atoms))
    return ExpPolyWeight(tuple(pieces))


# ---------------------------------------------------------------------------
# exact membership decision
# ---------------------------------------------------------------------------

class Membership(str, Enum):
    MEMBER = "Member"
    NOT_MEMBER = "NotMember"


def _below(v: int, xn: int) -> bool:
    """Whether a rule whose integer cross product is ``v`` admits the atom:
    v < 0, or v == 0 at theta = inf (xn == 0), where a bounded term is
    enough and the boundary is closed."""
    return v < 0 or (v == 0 and xn == 0)


def _halfline_member(sign: int, c: Pair, xn: int, xd: int) -> bool:
    """Whether 2^(a*n) * n^c over n >= 1 lies in l^theta, 1/theta = xn/xd;
    ``sign`` is any int with the sign of a.

    This is summability of 2^(theta*a*n) * n^(theta*c) (boundedness at
    theta = inf): theta > 0 keeps the sign of a, and at a = 0 the test
    c + 1/theta < 0 is an integer cross product.
    """
    if sign:
        return sign < 0
    cn, cd = c
    return _below(cn * xd + cd * xn, xn)


def _line_member(domain: str, f: Sequence[Pair], xn: int, xd: int) -> bool:
    """``f`` is a coordinate factor's (exp2_pos, exp2_neg, pow_pos, pow_neg)."""
    a_pos, a_neg, c_pos, c_neg = f
    if domain != "Nneg" and not _halfline_member(a_pos[0], c_pos, xn, xd):
        return False
    return domain == "N0" or _halfline_member(-a_neg[0], c_neg, xn, xd)


def _pair_atom_member(sector: PairSector, ex: Sequence[Pair], xn: int, xd: int) -> bool:
    a_pos, a_neg, c_pos, c_neg, m_exp2_pos, m_exp2_neg, rho, rho_neg = ex[:8]
    if m_exp2_pos[0] or m_exp2_neg[0]:
        raise UnsupportedWeight("pair sectors support only power factors in m")
    rn, rd = rho
    if rn * rho_neg[1] != rho_neg[0] * rd:
        raise UnsupportedWeight("pair sectors need a symmetric m power")
    lam = sector.lam
    if sector.n_domain == "N0":
        if lam < 0:
            raise UnsupportedWeight("pair sector with lam < 0 on n >= 0")
        (an, ad), c = a_pos, c_pos
        orient = 1
    else:
        if lam > 0:
            raise UnsupportedWeight("pair sector with lam > 0 on n < 0")
        # n runs to -inf, where 2^(a*n) decays at rate -a
        (an, ad), c = a_neg, c_neg
        orient = -1
    outside = sector.side == "outside"

    # the l^theta sum (a sup at theta = inf) read per unit theta: every
    # rate and power below is divided by theta, and rho_side has the
    # sign of 1/theta + rho
    rho_side = rn * xd + rd * xn
    if outside and not _below(rho_side, xn):
        return False  # every row has a divergent (or unbounded) m-tail
    # rows grow like bound^(1/theta + rho) when the m power points
    # outward; inside rows behave like log(bound) at 1/theta + rho = 0
    # and like a constant below
    if outside or rho_side > 0:
        # the sign of the rate a + lam*(1/theta + rho), with
        # 1/theta + rho = rho_side / (xd * rd)
        sign = an * lam.denominator * xd * rd + lam.numerator * rho_side * ad
        return _halfline_member(orient * sign, c, xn, xd)
    if rho_side == 0 and lam and not an:
        # the log(bound) factor raises the power c by 1/theta
        cn, cd = c
        return _below(cn * xd + 2 * cd * xn, xn)
    return _halfline_member(orient * an, c, xn, xd)


def _atom_member(sector: Sector, ex: Sequence[Pair], xn: int, xd: int) -> bool:
    """The rule of one atom, given its exponents as int pairs in the
    reading order of :func:`_exponents_of`."""
    if isinstance(sector, RadialSector):
        if any(num for num, _ in ex[:-1]):
            raise UnsupportedWeight("radial sectors support only radial powers")
        # power + d/theta < 0, as an integer cross product
        pn, pd = ex[-1]
        return _below(pn * xd + sector.d * pd * xn, xn)
    if ex[-1][0]:
        raise UnsupportedWeight("radial powers are only supported on radial sectors")
    if isinstance(sector, LineSector):
        return _line_member(sector.domain, ex[:4], xn, xd)
    if isinstance(sector, ProductSector):
        return all(
            _line_member(line.domain, ex[4 * j:4 * j + 4], xn, xd)
            for j, line in enumerate(sector.lines)
        )
    if isinstance(sector, PairSector):
        return _pair_atom_member(sector, ex, xn, xd)
    raise UnsupportedWeight(f"unknown sector type {type(sector).__name__}")


def _exponent_pairs(atom: Atom) -> list[Pair]:
    """The exponents of an atom in reading order, each as an int pair
    (numerator, denominator)."""
    return [(e.numerator, e.denominator) for e in _exponents_of(atom)]


def decide_exponents(
    pieces: Iterable[tuple[Sector, Iterable[Sequence[Pair]]]], theta
) -> Membership:
    """Exact decision of a weight in l^theta, given per piece its sector and
    the exponents of each atom as int pairs in the reading order of
    :func:`_exponents_of`.

    A pair is (numerator, positive denominator) and need not be reduced:
    every rule is the sign of an integer cross product affine in
    x = 1/theta, read as two ints xn/xd with xn = 0 for theta = inf.
    """
    xn, xd = (0, 1) if theta.is_inf else (theta.frac.denominator, theta.frac.numerator)
    for sector, atoms in pieces:
        for ex in atoms:
            if not _atom_member(sector, ex, xn, xd):
                return Membership.NOT_MEMBER
    return Membership.MEMBER


def decide_lp_membership(w: ExpPolyWeight, theta) -> Membership:
    """Exact decision of w in l^theta over the weight's lattice.

    For finite theta a sum of atoms is summable exactly when every atom
    is (the theta-power of a finite sum of positive terms is comparable
    to the sum of theta-powers), and at theta = inf it is bounded exactly
    when every atom is, so the decision distributes over atoms and
    pieces (:func:`decide_exponents`).
    """
    return decide_exponents(
        ((piece.sector, map(_exponent_pairs, piece.atoms)) for piece in w.pieces), theta
    )


def decide_sequence_embedding(u: ExpPolyWeight, v: ExpPolyWeight, r, s) -> str:
    """Whether the r-summable sequences against v embed into the s-summable
    sequences against u; decided through membership of u/v at the compound
    exponent of (s, r).

    Returns "Embeds" or "DoesNotEmbed".
    """
    theta = compound(s, r)
    quot = u.quotient(v)
    if decide_lp_membership(quot, theta) is Membership.MEMBER:
        return "Embeds"
    return "DoesNotEmbed"


# ---------------------------------------------------------------------------
# numeric truncation oracle
# ---------------------------------------------------------------------------

BLOWUP_THRESHOLD = 1e12
GROWTH_FACTOR = 1.5
SHELL_RATIO = 0.9
RATIO_WINDOW = 3

_ROW_STEP_CAP = 200_000
_ROW_NEGLIGIBLE = 1e-12
# a row whose bound 2^(lam*n) reaches 2^1024 has no float |m| to start from
_ROW_LOG2_CAP = 1024
# a truncated row only blocks a Convergent verdict when the missing mass
# could move a shell ratio; 1e-6 relative mass cannot cross the 0.9 gate.
# both thresholds are read relative to the global partial sum, so tiny
# rows with fat relative tails do not block certification
_ROW_SIGNIFICANT = 1e-6


@dataclass
class TailClassification:
    """Outcome of truncated l^theta summation over nested windows."""

    verdict: str  # "Convergent", "Divergent" or "Inconclusive"
    window_radius: int
    partial_sum: float | None = None
    tail_bound: float | None = None
    growth: float | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "window_radius": self.window_radius,
            "partial_sum": self.partial_sum,
            "tail_bound": self.tail_bound,
            "growth": self.growth,
        }


def default_radii(dims: int, has_pair: bool) -> tuple[int, ...]:
    if has_pair:
        return (3, 5, 7, 10, 13, 16, 20)
    if dims == 1:
        return (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
    if dims == 2:
        return (8, 16, 32, 64, 128, 256)
    return (4, 8, 16, 32)


def _line_axis(domain: str, radius: int) -> np.ndarray:
    """The coordinate values of ``LineSector(domain)`` up to ``radius``, as float64."""
    import numpy as np

    if domain == "N0":
        return np.arange(0, radius + 1, dtype=np.float64)
    if domain == "Nneg":
        return np.arange(-radius, 0, dtype=np.float64)
    axis = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.delete(axis, radius) if domain == "Z_nonzero" else axis


def _grid_axes(sector: Sector, radius: int) -> list[np.ndarray]:
    import numpy as np

    if isinstance(sector, LineSector):
        return [_line_axis(sector.domain, radius)]
    if isinstance(sector, ProductSector):
        return [_line_axis(line.domain, radius) for line in sector.lines]
    if isinstance(sector, RadialSector):
        rng = np.arange(-radius, radius + 1, dtype=np.float64)
        return [rng] * sector.d
    raise UnsupportedWeight("no grid form for this sector")


def _axis_logs(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What every factor on the axis n reads: n, the mask n >= 0 and
    log2|n|, once per axis however many atoms share it."""
    import numpy as np

    absn = np.abs(n)
    return n, n >= 0, np.log2(np.where(absn == 0, 1.0, absn))  # |0|^c reads as 1


def _factor_log2_on_axis(
    f: Sequence[float], axis: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """log2 of the factor f along an axis given by :func:`_axis_logs`; f is a
    CoordFactor or its four exponents (exp2_pos, exp2_neg, pow_pos, pow_neg)
    already as floats."""
    import numpy as np

    n, nonneg, lg = axis
    a_pos, a_neg, c_pos, c_neg = map(float, f)
    a = np.where(nonneg, a_pos, a_neg)
    c = np.where(nonneg, c_pos, c_neg)
    return a * n + c * lg


def _grid_values(piece: Piece, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and sup-norm radii of a piece on its window, as flat arrays."""
    import numpy as np

    sector = piece.sector
    axes = _grid_axes(sector, radius)
    shape = tuple(len(ax) for ax in axes)
    logs = [_axis_logs(ax) for ax in axes]
    total = np.zeros(shape, dtype=np.float64)
    # whole-window arrays are updated in place: the same operations in the
    # same order, without a fresh temporary per step
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        for atom in piece.atoms:
            # same rationale as Atom.evaluate: add exponents, then
            # exponentiate once, so saturation cannot produce inf * 0
            log2mag = np.zeros(shape)
            for dim, (factor, axis) in enumerate(zip(atom.factors, logs)):
                log2mag += _factor_log2_on_axis(factor, axis).reshape(
                    [-1 if i == dim else 1 for i in range(len(axes))]
                )
            if atom.radial_pow:
                sq = np.zeros(shape)
                for dim, ax in enumerate(axes):
                    sq += (ax**2).reshape([-1 if i == dim else 1 for i in range(len(axes))])
                np.log2(sq, out=sq)
                sq *= 0.5 * float(atom.radial_pow)
                log2mag += sq
                del sq  # one window-sized array fewer while exp2 runs
            np.clip(log2mag, -1100.0, 1100.0, out=log2mag)
            np.exp2(log2mag, out=log2mag)
            log2mag *= float(atom.coeff)
            total += log2mag
    radii = np.zeros(shape)
    for dim, ax in enumerate(axes):
        np.maximum(
            radii, np.abs(ax).reshape([-1 if i == dim else 1 for i in range(len(axes))]),
            out=radii,
        )
    values = total.ravel()
    radii = radii.ravel()
    if isinstance(sector, RadialSector):
        keep = radii > 0
        values, radii = values[keep], radii[keep]
    return values, radii


@dataclass
class _RowSum:
    value: float  # the powered sum, or the sup when theta = inf
    truncated_significant: bool


RowAtom = tuple[float, tuple[float, ...], Union[float, None]]


def _row_atoms(piece: Piece, n: int) -> list[RowAtom]:
    """The constants of row n of a pair sector, as floats once per row:
    per atom, the base coeff * f0(n), the m-factor's four exponents, and
    log2 of the base when the base saturated to inf or 0 (else None)."""
    row = []
    for atom in piece.atoms:
        if atom.radial_pow:
            raise UnsupportedWeight("radial powers are not supported on pair sectors")
        f0, f1 = atom.factors
        log2_f0 = f0.log2_value(n)
        base = float(atom.coeff) * pow2f(log2_f0)
        saturated = base == 0.0 or base == math.inf
        row.append((
            base,
            tuple(map(float, f1)),
            math.log2(atom.coeff) + log2_f0 if saturated else None,
        ))
    return row


def _row_values(row: list[RowAtom], log2s: Iterable[np.ndarray]) -> np.ndarray:
    """Piece values along a row: the sum over atoms, in atom order, of
    coeff * f0(n) * 2^log2, given the m-factor's log2 array per atom.

    A base that saturated to inf or 0 adds its log to log2 before the one
    exponentiation, as :meth:`Atom.evaluate` does, so that it cannot meet
    a saturated m-term as inf * 0."""
    import numpy as np

    total = None
    with np.errstate(over="ignore", under="ignore"):
        for (base, _, log2_base), log2mag in zip(row, log2s):
            if log2_base is None:
                vals = base * np.exp2(np.clip(log2mag, -1100.0, 1100.0))
            else:
                vals = np.exp2(np.clip(log2mag + log2_base, -1100.0, 1100.0))
            total = vals if total is None else total + vals
    return total


def _powered(vals: np.ndarray, theta_f: float | None) -> np.ndarray:
    import numpy as np

    if theta_f is None:
        return vals
    with np.errstate(over="ignore", under="ignore"):
        return np.where(vals > 0, vals**theta_f, 0.0)


def _row_remainder_bound(row: list[RowAtom], lo: float, theta_f: float | None) -> float:
    """Upper bound, in closed form, for what the terms |m| >= lo of an
    outside row (both signs of m) still add: the sum of their theta-powers,
    or their sup when theta_f is None.  ``row`` is :func:`_row_atoms`'.

    Per atom and side the bound is base^theta times :func:`_sum_exp_poly`
    of the powered m-factor.  With k > 1 atoms, (x_1 + ... + x_k)^theta is
    at most the sum of the x_i^theta for theta <= 1 and at most k^theta
    times it above, as in :func:`_pair_tail_bound`.  The sup is at most k
    times the largest per-atom sup (:func:`_sup_exp_poly`).  May be inf or
    nan, which decides nothing.
    """
    sides = [
        (base, a, c)
        for base, (a_pos, a_neg, c_pos, c_neg), _ in row
        for a, c in ((a_pos, c_pos), (-a_neg, c_neg))
    ]
    if theta_f is None:
        peaks = [base * _sup_exp_poly(a, c, lo, math.inf) for base, a, c in sides]
        return math.nan if any(map(math.isnan, peaks)) else len(row) * max(peaks)
    try:
        total = sum(
            base**theta_f * _sum_exp_poly(theta_f * a, theta_f * c, lo, math.inf)
            for base, a, c in sides
        )
    except OverflowError:  # base^theta past the float range
        return math.inf
    if theta_f > 1.0 and len(row) > 1:
        total *= float(len(row)) ** theta_f
    return total


def _pair_row(
    piece: Piece, n: int, theta_f: float | None, scale: float = 0.0
) -> _RowSum:
    """Sum of the theta-powers over one row of a pair sector, or the sup
    of the row when theta_f is None (theta = inf).

    Outside rows are summed in chunks of 4096 values of |m|, each with one
    log2|m| for every atom and both signs of m.  After each chunk,
    :func:`_row_remainder_bound` bounds the rest of the row in closed form;
    the row stops unflagged once that bound is negligible relative to the
    running row and global sums (``scale``), or, for the sup, once it does
    not exceed the sup so far.  Otherwise the row stops at the first chunk
    that is itself negligible, or at the step cap; a row capped while its
    last chunk still matters is flagged so that the caller can refuse to
    certify convergence.  A row whose bound is past the float range
    (lam*n >= 1024) is not evaluated: it adds nothing and is flagged.
    """
    import numpy as np

    sector: PairSector = piece.sector  # type: ignore[assignment]
    lam = sector.lam
    if abs(lam.numerator * n) >= _ROW_LOG2_CAP * lam.denominator:
        return _RowSum(0.0, True)
    bound = sector.m_bound(n)

    if sector.side == "inside" and bound < 0:
        return _RowSum(0.0, False)
    row = _row_atoms(piece, n)

    if sector.side == "inside":
        cap = _ROW_STEP_CAP // 2
        half = min(bound, cap)
        truncated = bound > cap
        axis = _axis_logs(np.arange(-half, half + 1, dtype=np.float64))
        powered = _powered(
            _row_values(row, (_factor_log2_on_axis(f1, axis) for _, f1, _ in row)), theta_f
        )
        if theta_f is None:
            return _RowSum(float(powered.max()), truncated)
        with np.errstate(over="ignore", under="ignore"):
            return _RowSum(float(powered.sum()), truncated)

    start = max(bound, 1)
    total = 0.0
    sup = 0.0
    if bound <= 0:
        zero = _axis_logs(np.zeros(1))
        z = _powered(_row_values(row, (_factor_log2_on_axis(f1, zero) for _, f1, _ in row)), theta_f)
        with np.errstate(over="ignore", under="ignore"):
            total += float(z.sum())
        sup = max(sup, float(z.max()))
    # with 2^(0*m) and one power |m|^c on both sides, the two halves differ
    # at most in the sign of a zero exponent, which exp2 erases: the -m
    # half is then the +m half, bit for bit
    mirrored = all(a_pos == a_neg == 0.0 and c_pos == c_neg
                   for _, (a_pos, a_neg, c_pos, c_neg), _ in row)
    chunk = 4096
    steps = 0
    last_chunk = 0.0
    while steps < _ROW_STEP_CAP:
        ms = np.arange(start + steps, start + steps + chunk, dtype=np.float64)
        lg = np.log2(ms)  # |m| >= 1 here
        pos = _powered(_row_values(row, (a * ms + c * lg for _, (a, _, c, _), _ in row)), theta_f)
        if mirrored:
            neg = pos
        else:
            neg_ms = -ms
            neg = _powered(
                _row_values(row, (a * neg_ms + c * lg for _, (_, a, _, c), _ in row)), theta_f
            )
        with np.errstate(over="ignore", under="ignore"):
            vals = np.maximum(pos, neg) if theta_f is None else pos + neg
            last_chunk = float(vals.sum())
        total += last_chunk
        sup = max(sup, float(vals.max()))
        steps += chunk
        if not math.isfinite(total):
            # for the sup, a sum of chunk maxima past the float range means
            # a term near it, or a nan term
            return _RowSum(total, False)
        value = sup if theta_f is None else total
        negligible = _ROW_NEGLIGIBLE * max(total, scale, 1e-300)
        if last_chunk <= negligible:
            return _RowSum(value, False)
        # the rest cannot raise the sup, or cannot move the sum
        rest = _row_remainder_bound(row, float(start + steps), theta_f)
        if math.isfinite(rest) and rest <= (value if theta_f is None else negligible):
            return _RowSum(value, False)
    significant = last_chunk >= _ROW_SIGNIFICANT * max(total, scale, 1e-300)
    return _RowSum(value, significant)


_LN2 = math.log(2.0)


def _sup_exp_poly(a: float, c: float, lo: float, hi: float) -> float:
    """sup of 2^(a*j) * j^c over real j in [lo, hi], lo >= 1, hi may be inf."""
    if lo > hi:
        return 0.0
    if math.isinf(hi) and (a > 0 or (a == 0 and c > 0)):
        return math.inf
    cands = [lo] if math.isinf(hi) else [lo, hi]
    if a != 0.0:
        jstar = -c / (a * _LN2)
        if lo <= jstar <= hi:
            cands.append(jstar)
    return max(pow2f(a * j + c * math.log2(j)) for j in cands)


def _sum_exp_poly(a: float, c: float, lo: float, hi: float) -> float:
    """Upper bound for the sum of 2^(a*j) * j^c over integers j in [lo, hi].

    lo >= 1; hi may be inf.  Splitting off half the exponential rate turns
    the summand into a geometric envelope, so the bound is finite exactly
    when the true series converges.
    """
    if lo > hi:
        return 0.0
    if a < 0:
        peak = _sup_exp_poly(a / 2.0, c, lo, hi)
        return peak * pow2f(a * lo / 2.0) / (1.0 - pow2f(a / 2.0))
    if a > 0:
        if math.isinf(hi):
            return math.inf
        peak = _sup_exp_poly(a / 2.0, c, lo, hi)
        return peak * pow2f(a * hi / 2.0) / (1.0 - pow2f(-a / 2.0))
    if c >= 0:
        if math.isinf(hi):
            return math.inf
        return (hi - lo + 1.0) * pow2f(c * math.log2(hi))
    head = pow2f(c * math.log2(lo))
    if c > -1.0:
        if math.isinf(hi):
            return math.inf
        return head + pow2f((c + 1.0) * math.log2(hi)) / (c + 1.0)
    if c == -1.0:
        if math.isinf(hi):
            return math.inf
        return head + math.log(hi / lo)
    return head + pow2f((c + 1.0) * math.log2(lo)) / (-c - 1.0)


def _pair_tail_bound(piece: Piece, last_radius: int, theta_f: float | None) -> float:
    """Upper bound for the powered mass (sup when theta_f is None) of the
    piece on the rows beyond the last scheduled radius.

    Exponentially widening rows can hide a divergence past any finite
    window; a shell record that looks geometric is only certified when
    this structural bound on the unexplored remainder is finite.
    """
    sector: PairSector = piece.sector  # type: ignore[assignment]
    wsign = 1 if sector.n_domain == "N0" else -1
    lam = float(sector.lam) * wsign
    shift = sector.shift
    lo = float(last_radius + 1)
    th = 1.0 if theta_f is None else theta_f
    sup_mode = theta_f is None

    def mside(a_m: float, c_m: float, mlo: float, mhi: float) -> float:
        if sup_mode:
            return _sup_exp_poly(a_m, c_m, mlo, mhi)
        return _sum_exp_poly(a_m, c_m, mlo, mhi)

    total = 0.0
    for atom in piece.atoms:
        f0, f1 = atom.factors
        if wsign > 0:
            en, fn = th * float(f0.exp2_pos), th * float(f0.pow_pos)
        else:
            en, fn = -th * float(f0.exp2_neg), th * float(f0.pow_neg)
        sides = (
            (th * float(f1.exp2_pos), th * float(f1.pow_pos)),
            (-th * float(f1.exp2_neg), th * float(f1.pow_neg)),
        )
        # each part bounds a slice of the row mass by
        # kpart * 2^(de*j) * j^df over rows j in (last_radius, hi_n]
        parts: list[tuple[float, float, float, float]] = []
        if sector.side == "inside" and lam > 0:
            kb = math.log2(2.0 + max(shift, 0))  # width <= 2^(lam*j + kb)
            parts.append((1.0, 0.0, 0.0, math.inf))  # m = 0 column
            for a_m, c_m in sides:
                if a_m > 0:
                    return math.inf
                if sup_mode:
                    if a_m == 0 and c_m > 0:
                        parts.append((pow2f(kb * c_m), lam * c_m, 0.0, math.inf))
                    else:
                        parts.append(
                            (_sup_exp_poly(a_m, c_m, 1.0, math.inf), 0.0, 0.0, math.inf)
                        )
                elif a_m < 0:
                    parts.append(
                        (_sum_exp_poly(a_m, c_m, 1.0, math.inf), 0.0, 0.0, math.inf)
                    )
                elif c_m > -1.0:
                    parts.append(
                        (
                            (1.0 / (c_m + 1.0) + 1.0) * pow2f(kb * (c_m + 1.0)),
                            lam * (c_m + 1.0),
                            0.0,
                            math.inf,
                        )
                    )
                elif c_m == -1.0:
                    parts.append((1.0 + _LN2 * (kb + lam), 0.0, 1.0, math.inf))
                else:
                    parts.append(
                        (_sum_exp_poly(0.0, c_m, 1.0, math.inf), 0.0, 0.0, math.inf)
                    )
        elif sector.side == "inside":
            # width no longer grows along the tail: ceil(2^(lam*n)) = 1 there
            bc = 1 + shift
            if bc >= 0:
                parts.append((1.0, 0.0, 0.0, math.inf))
            if bc >= 1:
                for a_m, c_m in sides:
                    parts.append((mside(a_m, c_m, 1.0, float(bc)), 0.0, 0.0, math.inf))
        elif lam > 0:
            # outside rows keep |m| >= B(j) with B(j) >= 2^(lam*j - 1) once
            # 2^(lam*j) clears twice the negative shift
            n1 = lo
            if shift < 0:
                n1 = max(lo, (1.0 + math.log2(-shift)) / lam)
                parts.append((1.0, 0.0, 0.0, math.log2(-shift) / lam))  # m = 0
            for a_m, c_m in sides:
                if a_m > 0 or (a_m == 0 and c_m > 0):
                    return math.inf
                if a_m == 0 and not sup_mode and c_m >= -1.0:
                    return math.inf
                if a_m < 0:
                    # no credit for the widening hole; sound but coarse
                    parts.append((mside(a_m, c_m, 1.0, math.inf), 0.0, 0.0, math.inf))
                    continue
                # a_m == 0 with polynomial decay: the hole does the work
                if n1 > lo:
                    parts.append((mside(0.0, c_m, 1.0, math.inf), 0.0, 0.0, n1))
                if sup_mode:
                    parts.append((pow2f(-c_m), lam * c_m, 0.0, math.inf))
                else:
                    kpart = (1.0 + 1.0 / (-c_m - 1.0)) * pow2f(-(c_m + 1.0))
                    parts.append((kpart, lam * (c_m + 1.0), 0.0, math.inf))
        else:
            bc = max(1, 1 + shift)
            if shift <= -1:
                parts.append((1.0, 0.0, 0.0, math.inf))
            for a_m, c_m in sides:
                parts.append((mside(a_m, c_m, float(bc), math.inf), 0.0, 0.0, math.inf))
        atom_total = 0.0
        for kpart, de, df, hi_n in parts:
            if kpart == 0.0 or hi_n < lo:
                continue
            if sup_mode:
                grow = _sup_exp_poly(en + de, fn + df, lo, hi_n)
            else:
                grow = _sum_exp_poly(en + de, fn + df, lo, hi_n)
            if math.isinf(kpart) or math.isinf(grow):
                return math.inf
            atom_total += kpart * grow
        total += (float(atom.coeff) ** th) * atom_total
    if not sup_mode and th > 1.0 and len(piece.atoms) > 1:
        total *= float(len(piece.atoms)) ** th
    return total


def _grows_exponentially(piece: Piece) -> bool:
    """Whether an atom of a line, product or radial piece has a factor
    2^(a*n) that grows along an unbounded direction of its sector: a > 0
    where n runs to +inf, or a < 0 where n runs to -inf.

    All other factors are positive, so the piece's terms are then unbounded:
    the series is neither summable nor bounded, however tame the window
    looks.
    """
    sector = piece.sector
    if isinstance(sector, LineSector):
        domains = (sector.domain,)
    elif isinstance(sector, ProductSector):
        domains = tuple(line.domain for line in sector.lines)
    else:
        domains = ("Z",) * sector.dims
    return any(
        (f.exp2_pos > 0 and dom != "Nneg") or (f.exp2_neg < 0 and dom != "N0")
        for atom in piece.atoms
        for f, dom in zip(atom.factors, domains)
    )


def truncated_oracle(weight: ExpPolyWeight, theta) -> TailClassification:
    """Classify l^theta membership from partial sums over nested windows.

    Grid sectors are evaluated once on the largest window.  Pair sectors
    are summed row by row; an outside row is summed in chunks of |m|, each
    with one log2|m| shared by every atom and both signs of m, and the -m
    half is taken from the +m half when every m-factor is even in m.  After
    each chunk a closed-form bound on the rest of the row stops it once
    the rest cannot move the sum or raise the sup (:func:`_pair_row`).
    At theta = inf every shell, every row and the running partial "sum"
    are maxima: a row reports its sup and a shell the largest of its rows.

    Declares Divergent when partial sums exceed ``BLOWUP_THRESHOLD`` or
    grow by at least ``GROWTH_FACTOR`` between the last two radii, unless
    a pair sector's structural bound on the rows past the window is
    finite.  Declares Convergent, with a tail bound, when the per-shell
    contributions over the last three radii decay with ratio at most
    ``SHELL_RATIO`` (theta = inf: stop raising the running max), no
    truncated row still carries significant mass, the structural
    bound is finite and no grid piece grows exponentially along an
    unbounded axis (:func:`_grows_exponentially`; such a term can fall
    across the whole window and still blow up past it).  Everything else
    is Inconclusive.  The radii are :func:`default_radii` of the weight's
    dimension and sectors, so the result is a function of (weight, theta)
    alone.
    """
    import numpy as np

    pieces = weight.pieces
    has_pair = any(isinstance(p.sector, PairSector) for p in pieces)
    dims = max(p.sector.dims for p in pieces)
    radii = default_radii(dims, has_pair)
    if has_pair:
        # keep only radii whose inside rows fit the per-row step cap, so
        # that complete shells stay certifiable
        kept = []
        for r in radii:
            fits = True
            for piece in pieces:
                sec = piece.sector
                if isinstance(sec, PairSector) and sec.side == "inside":
                    n_edge = -r if sec.n_domain == "Nneg" else r
                    if 2 * sec.m_bound(n_edge) + 1 > _ROW_STEP_CAP:
                        fits = False
                        break
            if not fits:
                break
            kept.append(r)
        radii = kept or radii[:1]
    theta_f = None if theta.is_inf else float(theta)

    # per-piece cached flat arrays for grid sectors (largest window once)
    grid_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for idx, piece in enumerate(pieces):
        if isinstance(piece.sector, PairSector):
            continue
        grid_cache[idx] = _grid_values(piece, max(radii))

    def shell_contrib(idx: int, r_prev: int, r: int, scale: float) -> _RowSum:
        piece = pieces[idx]
        if isinstance(piece.sector, PairSector):
            total = 0.0
            flagged = False
            for n in piece.sector.n_values(r):
                if abs(n) <= r_prev:
                    continue
                row = _pair_row(piece, n, theta_f, scale=max(scale, total))
                total = max(total, row.value) if theta_f is None else total + row.value
                flagged = flagged or row.truncated_significant
            return _RowSum(total, flagged)
        values, pt_radii = grid_cache[idx]
        mask = (pt_radii > r_prev) & (pt_radii <= r)
        vals = values[mask]
        if theta_f is None:
            return _RowSum(float(vals.max()) if vals.size else 0.0, False)
        with np.errstate(over="ignore", under="ignore"):
            return _RowSum(float(_powered(vals, theta_f).sum()), False)

    def pair_tail(radius: int) -> float:
        """Structural bound for the mass past ``radius``; see _pair_tail_bound."""
        out = 0.0
        for piece in pieces:
            if isinstance(piece.sector, PairSector):
                b = _pair_tail_bound(piece, radius, theta_f)
                out = max(out, b) if theta_f is None else out + b
        return out

    partials: list[float] = []
    shells: list[float] = []
    flagged_any = False
    running = 0.0
    r_prev = -1
    last_radius = radii[0]
    for r in radii:
        shell_total = 0.0
        for idx in range(len(pieces)):
            contrib = shell_contrib(idx, r_prev, r, running)
            flagged_any = flagged_any or contrib.truncated_significant
            if theta_f is None:
                shell_total = max(shell_total, contrib.value)
            else:
                shell_total += contrib.value
        if theta_f is None:
            running = max(running, shell_total)
        else:
            running += shell_total
        shells.append(shell_total)
        partials.append(running)
        last_radius = r
        r_prev = r
        if not math.isfinite(running) or running > BLOWUP_THRESHOLD:
            # row masses on pair sectors can hump upward well inside a
            # convergent sum; a finite structural tail overrules the gate
            if not (has_pair and math.isfinite(pair_tail(r))):
                return TailClassification(
                    "Divergent", last_radius, partial_sum=running, growth=math.inf
                )

    if len(partials) >= 2 and partials[-2] > 0:
        g = partials[-1] / partials[-2]
        if g >= GROWTH_FACTOR:
            if not (has_pair and math.isfinite(pair_tail(last_radius))):
                return TailClassification(
                    "Divergent", last_radius, partial_sum=partials[-1], growth=g
                )

    # decaying shells certify nothing about the rows an exponentially
    # widening pair sector keeps past the window; bound those structurally
    beyond = pair_tail(last_radius)

    grows = any(
        _grows_exponentially(p) for p in pieces if not isinstance(p.sector, PairSector)
    )
    if (
        len(shells) >= RATIO_WINDOW
        and not flagged_any
        and not grows
        and math.isfinite(beyond)
    ):
        window = shells[-RATIO_WINDOW:]
        if theta_f is None:
            # sup semantics: certify boundedness when newer shells stop
            # raising the running max (monotone tail within fp slack)
            flat = all(
                cur <= prev * (1.0 + 1e-12) for prev, cur in zip(window, window[1:])
            )
            if flat:
                return TailClassification(
                    "Convergent",
                    last_radius,
                    partial_sum=partials[-1],
                    tail_bound=max(window[-1], beyond),
                )
        else:
            ratios = []
            ok = True
            for prev, cur in zip(window, window[1:]):
                if prev <= 0.0:
                    if cur > 0.0:
                        ok = False
                    continue
                ratios.append(cur / prev)
            ratio_max = max(ratios) if ratios else 0.0
            if ok and ratio_max <= SHELL_RATIO:
                last_shell = window[-1]
                tail = (
                    last_shell * ratio_max / (1.0 - ratio_max)
                    if ratio_max > 0
                    else 0.0
                )
                return TailClassification(
                    "Convergent",
                    last_radius,
                    partial_sum=partials[-1],
                    tail_bound=tail + beyond,
                )

    return TailClassification("Inconclusive", last_radius, partial_sum=partials[-1])
