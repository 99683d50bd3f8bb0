"""Summability calculus over lattice sectors.

This module carries the sequence-space side of the decision engine:

* lattice sectors (lines, products, punctured lattices with radial
  weights, and constrained pair sectors of the form |m| <= ceil(2^(lam*n))
  + shift),
* exp-poly weights, finite sums of atoms 2^(a*n) * |n|^c per coordinate
  with per-orthant exponents, each exponent a rational or affine in the
  gaps 1/p - 1/t and 1/2 - 1/r, and
* an exact decider for membership of such a weight in l^theta, whose
  rules read x = 1/theta, with x = 0 for theta = inf (boundedness).

Atoms are flat tuples of exact Fractions.  Values are coerced to Fraction
once, at the boundary: in the public constructors of :class:`CoordFactor`
and :class:`Atom`, their classmethods and :func:`expweight_from_json`.
Internal arithmetic passes Fractions through untouched, so a quotient is a
field-wise subtraction.  An exponent may instead be an :class:`Affine` in
the gaps dp = 1/p - 1/t and g = 1/2 - 1/r.  A weight compiles its
membership test once: each atom's rules, bound to the exponents they read.
At one (dp, g) the test evaluates only the exponents that depend on it, as
int pairs (numerator, positive denominator), and compares signs and
integer cross products affine in 1/theta; only the closed boundary at
theta = inf sets that case apart.

The decider manipulates exponents as exact rationals; this module is the
exact side only and evaluates no weight at a point.  The numeric oracle
that checks it, with its own float evaluation, lives in
:mod:`decomp_embed.oracle`, which this module does not import; the tests
keep a pointwise reference evaluator of their own.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Union

from .errors import UnsupportedWeight, check_window_cap
from .exponents import Pair, int_from_json, rational_from_json, reciprocal_pair

__all__ = [
    "LineSector",
    "ProductSector",
    "RadialSector",
    "PairSector",
    "CoordFactor",
    "Atom",
    "ExpPolyWeight",
    "Affine",
    "Membership",
    "MembershipTest",
    "decide_lp_membership",
    "sector_from_json",
    "expweight_from_json",
]

RatLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# small rational helpers
# ---------------------------------------------------------------------------

def _ceil_pow2_int(p: int, q: int) -> int:
    """ceil(2**(p/q)) for integers p and q > 0 in lowest terms."""
    if p <= 0:
        # 2**(p/q) lies in (0, 1]
        return 1
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


def record(cls: type) -> type:
    """Make the tuple class ``cls`` (a NamedTuple) a value type: equal to,
    and hashed like, instances of its own class only, where a tuple equals
    any tuple of equal items."""
    cls.__eq__ = lambda self, other: type(other) is cls and tuple.__eq__(self, other)
    cls.__ne__ = lambda self, other: not self == other
    cls.__hash__ = tuple.__hash__
    return cls


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

_LINE_DOMAINS = ("Z", "N0", "Nneg", "Z_nonzero")


class _LineFields(NamedTuple):
    domain: str


@record
class LineSector(_LineFields):
    """A one-dimensional integer sector.

    domain is one of "Z", "N0" (n >= 0), "Nneg" (n <= -1), "Z_nonzero".
    """

    __slots__ = ()

    def __new__(cls, domain: str = "Z") -> "LineSector":
        if domain not in _LINE_DOMAINS:
            raise ValueError(f"unknown line domain {domain!r}")
        return tuple.__new__(cls, (domain,))

    @property
    def dims(self) -> int:
        return 1


@record
class ProductSector(NamedTuple):
    """A product of line sectors, one per coordinate."""

    lines: tuple[LineSector, ...]

    @property
    def dims(self) -> int:
        return len(self.lines)


class _RadialFields(NamedTuple):
    d: int


@record
class RadialSector(_RadialFields):
    """The punctured lattice Z^d minus the origin, with radial atoms."""

    __slots__ = ()

    def __new__(cls, d: int) -> "RadialSector":
        if d < 1:
            raise ValueError("dimension must be >= 1")
        return tuple.__new__(cls, (d,))

    @property
    def dims(self) -> int:
        return self.d

    def check_atoms(self, count: int) -> None:
        """Refuse ``count`` atoms on this sector before the first is built:
        each stores 4d + 1 exponents (d trivial coordinate factors and the
        radial power), which meet the window cap together."""
        check_window_cap(count * (4 * self.d + 1), "a radial form of {} exponents")


class _PairFields(NamedTuple):
    n_domain: str  # "N0" or "Nneg"
    lam: Fraction
    side: str
    shift: int


@record
class PairSector(_PairFields):
    """Pairs (n, m) with n in a half-line and |m| constrained by 2^(lam*n).

    side "inside" means |m| <= ceil(2^(lam*n)) + shift, side "outside"
    means |m| >= ceil(2^(lam*n)) + shift.  The closed-form reduction rules
    assume lam*n >= 0 on the n-domain, and that the bound never collapses
    below 1 by more than the shift; a lam of the wrong sign is taken here
    and refused per weight, by :func:`refuse_unsupported` and the oracle.
    """

    __slots__ = ()

    def __new__(
        cls, n_domain: str = "N0", lam: RatLike = 0, side: str = "inside", shift: int = 0
    ) -> "PairSector":
        if n_domain not in ("N0", "Nneg"):
            raise ValueError(f"pair sector n-domain must be N0 or Nneg, got {n_domain!r}")
        if side not in ("inside", "outside"):
            raise ValueError(f"pair sector side must be inside or outside, got {side!r}")
        if shift not in (-1, 0, 1):
            raise ValueError("pair sector shift must be in {-1, 0, 1}")
        lam = lam if type(lam) is Fraction else Fraction(lam)
        return tuple.__new__(cls, (n_domain, lam, side, shift))

    @property
    def dims(self) -> int:
        return 2

    def n_values(self, radius: int) -> list[int]:
        if self.n_domain == "N0":
            return list(range(0, radius + 1))
        return list(range(-radius, 0))

    def m_bound(self, n: int) -> int:
        """The row bound ceil(2^(lam*n)) + shift for row n, in ints alone."""
        p, q = self.lam.numerator * n, self.lam.denominator
        g = math.gcd(p, q)
        return _ceil_pow2_int(p // g, q // g) + self.shift


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
    dp = 1/p - 1/t and g = 1/2 - 1/r: an exponent of an :class:`ExpPolyWeight`.

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


class _PieceFields(NamedTuple):
    sector: Sector
    atoms: tuple[Atom, ...]


@record
class Piece(_PieceFields):
    __slots__ = ()

    def __new__(cls, sector: Sector, atoms: tuple[Atom, ...]) -> "Piece":
        if not atoms:
            raise ValueError("piece needs at least one atom")
        for atom in atoms:
            if len(atom.factors) != sector.dims:
                raise ValueError("atom arity does not match sector dimension")
        return tuple.__new__(cls, (sector, atoms))


def _exponents_of(atom: Atom) -> tuple:
    """The exponents of an atom in reading order: exp2_pos, exp2_neg,
    pow_pos and pow_neg of each coordinate factor, then the radial power."""
    return (*itertools.chain.from_iterable(atom.factors), atom.radial_pow)


class ExpPolyWeight:
    """A positive weight given piecewise as sums of atoms over sectors.

    Pieces partition the intended index set; membership in l^theta is the
    conjunction of membership on every piece.

    An exponent is a Fraction or an :class:`Affine` in the gaps
    dp = 1/p - 1/t and g = 1/2 - 1/r, so a family's quotient w^(t)/u(r) is
    one weight for every (t, r).  The constructor compiles the exponents to
    ints (a, b, c) over one common denominator D: at (dp, g) an exponent is
    (a*s + b*u + c*v) / (D*s), with the same s, u, v for all.
    :meth:`membership_test` compiles from them, once, the rules that decide
    the weight in l^theta; :meth:`at` builds the Fraction weight that the
    numeric oracle reads.  The hash is computed on first use and kept.
    """

    __slots__ = ("pieces", "_den", "_rows", "_test", "_hash")

    def __init__(self, pieces: tuple[Piece, ...]):
        self.pieces = pieces
        exps = [_exponents_of(atom) for piece in pieces for atom in piece.atoms]
        # many exponents are one shared object (a zero, a symmetric factor)
        parts = {id(e): (e.c0, e.c_dp, e.c_g) if type(e) is Affine else (e, _ZERO, _ZERO)
                 for atom in exps for e in atom}
        den = math.lcm(*(c.denominator for part in parts.values() for c in part))
        ints = {
            key: tuple(c.numerator * (den // c.denominator) for c in part)
            for key, part in parts.items()
        }
        rows = iter([tuple(ints[id(e)] for e in atom) for atom in exps])
        self._den = den
        self._rows = tuple(tuple(next(rows) for _ in piece.atoms) for piece in pieces)
        self._test = None
        self._hash = None

    @classmethod
    def single(cls, sector: Sector, *atoms: Atom) -> "ExpPolyWeight":
        return cls((Piece(sector, tuple(atoms)),))

    def __eq__(self, other) -> bool:
        return type(other) is ExpPolyWeight and self.pieces == other.pieces

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.pieces)
        return self._hash

    def __repr__(self) -> str:
        return f"ExpPolyWeight({self.pieces!r})"

    def membership_test(self) -> "MembershipTest":
        """The weight's :class:`MembershipTest`, compiled on first use and
        kept; a weight no rule covers raises :class:`UnsupportedWeight`,
        on every call, and keeps nothing."""
        if self._test is None:
            self._test = _compile_test(self)
        return self._test

    def at(self, dp: Fraction, g: Fraction) -> "ExpPolyWeight":
        """The weight at one (dp, g), every exponent a Fraction: a constant
        exponent (a row with b = c = 0) is the form's own Fraction."""
        (dn, dd), (gn, gd) = (dp.numerator, dp.denominator), (g.numerator, g.denominator)
        s = dd * gd
        u, v, den = dn * gd, gn * dd, self._den * s

        def atom_at(atom: Atom, row: tuple) -> Atom:
            vals = [Fraction(a * s + b * u + c * v, den) if b or c
                    else e.c0 if type(e) is Affine else e
                    for e, (a, b, c) in zip(_exponents_of(atom), row)]
            factors = tuple(CoordFactor._make(vals[i:i + 4]) for i in range(0, len(vals) - 1, 4))
            return Atom._make((atom.coeff, factors, vals[-1]))

        return ExpPolyWeight(tuple(
            Piece(piece.sector, tuple(map(atom_at, piece.atoms, rows)))
            for piece, rows in zip(self.pieces, self._rows)
        ))

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
        if isinstance(sector, RadialSector):
            sector.check_atoms(len(atom_docs))
        atoms = tuple(_atom_from_json(a, sector.dims) for a in atom_docs)
        pieces.append(Piece(sector, atoms))
    return ExpPolyWeight(tuple(pieces))


# ---------------------------------------------------------------------------
# exact membership decision
# ---------------------------------------------------------------------------

class Membership(str, Enum):
    MEMBER = "Member"
    NOT_MEMBER = "NotMember"


# read once: each read of an enum member goes through a descriptor
_MEMBER, _NOT_MEMBER = Membership.MEMBER, Membership.NOT_MEMBER


def _below(v: int, xn: int) -> bool:
    """Whether a rule whose integer cross product is ``v`` admits the atom:
    v < 0, or v == 0 at theta = inf (xn == 0), where a bounded term is
    enough and the boundary is closed."""
    return v < 0 or (v == 0 and xn == 0)


# A rule is ``rule(vals, xn, xd)``: whether its terms lie in l^theta at
# 1/theta = xn/xd, reading its exponents as the int pairs ``vals[i]`` at the
# indices it was bound to.  The sums read per unit theta: every rate and
# power below is divided by theta.

def _never(vals: list, xn: int, xd: int) -> bool:
    return False


def _power_rule(c: int, k: int):
    """|n|^c summed over a half-line (k = 1) or over Z^k minus 0 (a radial
    atom, k = d): c + k/theta < 0, as an integer cross product."""
    def rule(vals: list, xn: int, xd: int) -> bool:
        cn, cd = vals[c]
        return _below(cn * xd + k * cd * xn, xn)
    return rule


def _halfline_rule(a: int, c: int, sign: int):
    """2^(a*n) * |n|^c over n >= 1 (sign 1) or n <= -1 (sign -1): the sign
    of the rate sign*a decides, and at a = 0 the power c does."""
    def rule(vals: list, xn: int, xd: int) -> bool:
        an = vals[a][0]
        if an:
            return sign * an < 0
        cn, cd = vals[c]
        return _below(cn * xd + cd * xn, xn)
    return rule


def _pair_rule(r: int, a: int, c: int, ln: int, ld: int, orient: int, outside: bool):
    """An atom 2^(a*n) * |n|^c * |m|^rho on a pair sector of rate lam =
    ln/ld; on n < 0 (orient -1) n runs to -inf, where 2^(a*n) decays at
    rate -a."""
    def rule(vals: list, xn: int, xd: int) -> bool:
        rn, rd = vals[r]
        an, ad = vals[a]
        # rho_side has the sign of 1/theta + rho
        rho_side = rn * xd + rd * xn
        if outside and not _below(rho_side, xn):
            return False  # every row has a divergent (or unbounded) m-tail
        # rows grow like bound^(1/theta + rho) when the m power points
        # outward; inside rows behave like log(bound) at 1/theta + rho = 0
        # and like a constant below
        if outside or rho_side > 0:
            # the sign of the rate a + lam*(1/theta + rho), with
            # 1/theta + rho = rho_side / (xd * rd)
            rate = orient * (an * ld * xd * rd + ln * rho_side * ad)
        elif rho_side == 0 and ln and not an:
            # the log(bound) factor raises the power c by 1/theta
            cn, cd = vals[c]
            return _below(cn * xd + 2 * cd * xn, xn)
        else:
            rate = orient * an
        if rate:
            return rate < 0
        cn, cd = vals[c]
        return _below(cn * xd + cd * xn, xn)
    return rule


class MembershipTest:
    """A weight's membership in l^theta, compiled once from its int rows
    (:meth:`ExpPolyWeight.membership_test`).

    For finite theta a sum of atoms is summable exactly when every atom is
    (the theta-power of a finite sum of positive terms is comparable to the
    sum of theta-powers), and at theta = inf it is bounded exactly when
    every atom is, so the decision is a conjunction over atoms and pieces,
    and an atom's over the orthants of its line and product factors.  Each
    conjunct is the rule its sector takes (a half-line, a radial or a pair
    rule), bound to the exponents it reads and to nothing else: an
    orthant whose rate is a nonzero constant is decided when the test is
    built, and a test with a conjunct that never holds reads NotMember at
    once.  Constant exponents are int pairs from then on; :meth:`at`
    evaluates the others, each distinct one once per (dp, g).
    """

    __slots__ = ("_affine", "_consts", "_den", "_rules")

    def __init__(self, affine: tuple, consts: tuple, den: int, rules: tuple):
        self._affine, self._consts, self._den, self._rules = affine, consts, den, rules

    def at(self, dp: Pair = (0, 1), g: Pair = (0, 1)) -> Callable[[Pair], Membership]:
        """The membership at the gaps dp and g, int pairs, as a function of
        1/theta = x, an int pair with x = (0, 1) at theta = inf.

        Every rule is the sign of an integer cross product affine in
        x, and no Fraction or exponent object is built.
        """
        (dn, dd), (gn, gd) = dp, g
        s = dd * gd
        u, v, den = dn * gd, gn * dd, self._den * s
        vals = [(a * s + b * u + c * v, den) for a, b, c in self._affine]
        vals += self._consts
        rules = self._rules

        def member(x: Pair) -> Membership:
            xn, xd = x
            for rule in rules:
                if not rule(vals, xn, xd):
                    return _NOT_MEMBER
            return _MEMBER

        return member


def _compile_test(w: ExpPolyWeight) -> MembershipTest:
    """Walk the compiled int rows of w piece by piece, then atom by atom:
    raise :class:`UnsupportedWeight` at the first atom no rule covers, else
    bind each atom's rules.  An exponent counts when its triple is not
    identically 0 in (dp, g), and two m powers are one when their triples
    are equal, so a form that passes builds only weights that pass."""
    affine, consts, slots, rules = [], [], {}, []
    never = False

    def slot(t: tuple) -> int:
        # an exponent's index in the values at() lists: affine triples count
        # up from 0, constant ones down from -1, their pairs last first
        i = slots.get(t)
        if i is None:
            if t[1] or t[2]:
                i = len(affine)
                affine.append(t)
            else:
                consts.append(t)
                i = -len(consts)
            slots[t] = i
        return i

    for piece, rows in zip(w.pieces, w._rows):
        sector = piece.sector
        radial, pair = isinstance(sector, RadialSector), isinstance(sector, PairSector)
        n0 = pair and sector.n_domain == "N0"
        known = radial or pair or isinstance(sector, (LineSector, ProductSector))
        for row in rows:
            if radial and any(map(any, row[:-1])):
                raise UnsupportedWeight("radial sectors support only radial powers")
            if not radial and any(row[-1]):
                raise UnsupportedWeight("radial powers are only supported on radial sectors")
            if not known:
                raise UnsupportedWeight(f"unknown sector type {type(sector).__name__}")
            if pair and (any(row[4]) or any(row[5])):
                raise UnsupportedWeight("pair sectors support only power factors in m")
            if pair and row[6] != row[7]:
                raise UnsupportedWeight("pair sectors need a symmetric m power")
            if pair and (sector.lam < 0 if n0 else sector.lam > 0):
                raise UnsupportedWeight("pair sector with lam < 0 on n >= 0" if n0
                                        else "pair sector with lam > 0 on n < 0")
            if radial:
                rules.append(_power_rule(slot(row[-1]), sector.d))
                continue
            if pair:
                a, c = (row[0], row[2]) if n0 else (row[1], row[3])
                rules.append(_pair_rule(slot(row[6]), slot(a), slot(c), sector.lam.numerator,
                                        sector.lam.denominator, 1 if n0 else -1,
                                        sector.side == "outside"))
                continue
            lines = sector.lines if isinstance(sector, ProductSector) else (sector,)
            for j, line in enumerate(lines):
                a_pos, a_neg, c_pos, c_neg = row[4 * j:4 * j + 4]
                orthants = []
                if line.domain != "Nneg":
                    orthants.append((1, a_pos, c_pos))
                if line.domain != "N0":
                    orthants.append((-1, a_neg, c_neg))
                for sign, a, c in orthants:
                    if a[1] or a[2]:
                        rules.append(_halfline_rule(slot(a), slot(c), sign))
                    elif not a[0]:
                        rules.append(_power_rule(slot(c), 1))
                    # a constant rate decides alone
                    elif sign * a[0] > 0:
                        never = True
    if never:
        return MembershipTest((), (), w._den, (_never,))
    return MembershipTest(tuple(affine), tuple((t[0], w._den) for t in reversed(consts)),
                          w._den, tuple(rules))


def refuse_unsupported(w: ExpPolyWeight) -> ExpPolyWeight:
    """Raise :class:`UnsupportedWeight` at the first atom, piece by piece,
    that no membership rule covers, else return w, its
    :class:`MembershipTest` compiled."""
    w.membership_test()
    return w


def decide_lp_membership(w: ExpPolyWeight, theta) -> Membership:
    """Exact decision of w in l^theta over the weight's lattice; theta is an
    exponent or a literal.  It reads the weight's :class:`MembershipTest`
    at dp = g = 0, which a weight without :class:`Affine` exponents reads
    at every (dp, g)."""
    return w.membership_test().at()(reciprocal_pair(theta))
