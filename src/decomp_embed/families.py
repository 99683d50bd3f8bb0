"""Registered model families.

Each family bundles three things behind one name:

* a structured covering: its index set, as the window of each radius, and
  the affine images T_i Q'_i + b_i of its base sets over it,
* the closed form of the quotient w^(t)/u that the summability tests of the
  decision engine read: the covering weight
  w^(t) = |det T_i|^(1/p - 1/t) * (1 + |b_i|^k + ||T_i||^k) over the weight
  u of its sequence space on the matching lattice, built once per (params,
  k) as one :class:`ExpPolyWeight` whose exponents are affine in the gaps
  1/p - 1/t and 1/2 - 1/r,
* optional sharpened criteria that extend the generic tests in the regime
  q in (2, inf).

The closed forms use normal-form surrogates for the operator norms that are
exact for the isotropic families and accurate up to uniform constants for
the anisotropic ones.  The tests evaluate w^(t) numerically on the covering
(the reference in ``tests/witnesses.py``) and compare that with the quotient
at a unit space weight (the space parameters zero and r = 2) on finite
windows.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import InvalidParams, SchemaError, check_window_cap, window_power
from .exponents import int_from_json, rational_from_json
from .seqspace import (
    Affine,
    Atom,
    CoordFactor,
    ExpPolyWeight,
    LineSector,
    PairSector,
    Piece,
    ProductSector,
    RadialSector,
    record,
)

if TYPE_CHECKING:  # the coverings import covering geometry on use
    from .covering import Covering, Index

__all__ = [
    "FAMILY_NAMES",
    "get_family",
    "covering_from_json",
]

_ONE = Fraction(1)
# bound of the memo of family coverings, keyed by family and geometry (see
# family_covering): a weight field never moves a covering, so a new weight
# reads a kept one
COVERING_MEMO_SIZE = 8
# the gaps dp = 1/p - 1/t and g = 1/2 - 1/r, as the exponents of a form read them
_DP = Affine(0, 1, 0)
_G = Affine(0, 0, 1)

# Evidence anchors for the family-specific sharpened criteria.  These are
# opaque labels fixed by the output contract; downstream tooling matches on
# them verbatim.
ANCHOR_INHOM_REFINED = "Ex 7.2 (refined)"
ANCHOR_ALPHA_REFINED = "Ex 7.3 (refined)"
ANCHOR_SHEARLET_REFINED = "Ex 7.4 (refined)"


def _diag(values: list) -> tuple:
    """The diagonal matrix of ``values``; off the diagonal a zero of the same
    kind (0.0 beside floats), so products stay on one number type."""
    zero = 0.0 if any(isinstance(v, float) for v in values) else 0
    return tuple(tuple(v if i == j else zero for j in range(len(values)))
                 for i, v in enumerate(values))


def _scaled(rows, s: int) -> tuple:
    """The matrix rows / s of int rows: an int where s divides the entry, else a Fraction."""
    return tuple(tuple(x // s if x % s == 0 else Fraction(x, s) for x in row) for row in rows)


def _weight_atoms(det_atom: Atom, norm_atoms: list[Atom]) -> tuple[Atom, ...]:
    """The atoms of |det T|^(1/p - 1/t) * (1 + |b|^k + ||T||^k) / u.

    ``det_atom`` is the determinant power over u, ``norm_atoms`` the terms
    of (|b|^k + ||T||^k) times it for k >= 1; an empty list means k == 0,
    where the norm polynomial collapses to the constant 3.
    """
    if not norm_atoms:
        return (Atom(det_atom.coeff * 3, det_atom.factors, det_atom.radial_pow),)
    return (det_atom, *norm_atoms)


def _q_mid(x) -> bool:
    """Whether 2 < q < inf, where the refined criteria apply."""
    return 0 < 2 * x.q[0] < x.q[1]


def _refined_records(
    anchor: str, noun: str, value: Fraction, thr: Fraction, x, sharp: bool = False
) -> list[dict]:
    """The S2 (sufficient) and N5 (necessary) records of a refined criterion.

    ``noun`` names the compared quantity, ``value`` its value and ``thr``
    the threshold; ``x`` is the engine's reciprocals of (p, q, r).  Both
    hold above the threshold, S2 only for p <= q.  At equality S2 admits
    r <= 2 (g <= 0), or r <= q when ``sharp``, and N5 requires r <= q.
    """
    r_ok = x.r_le_q if sharp else x.g[0] <= 0
    suff = x.p_le_q and (value > thr or (value == thr and r_ok))
    nec = value > thr or (value == thr and x.r_le_q)
    word = "above" if value > thr else "at" if value == thr else "below"
    head = f"{noun} {word} threshold {thr}; "
    return [
        {
            "id": "S2",
            "anchor": anchor,
            "role": "sufficient",
            "holds": suff,
            "detail": f"{head}equality admits r <= {'q' if sharp else '2'}",
        },
        {
            "id": "N5",
            "anchor": anchor,
            "role": "necessary",
            "holds": nec,
            "detail": f"{head}equality requires r <= q",
        },
    ]


def _int_param(doc: dict, key: str, family: str, *, default: int) -> int:
    if key not in doc:
        return default
    try:
        val = int_from_json(doc[key])
    except ValueError:
        raise InvalidParams(f"{family}: parameter {key!r} must be an integer") from None
    if val < 1:
        raise InvalidParams(f"{family}: parameter {key!r} must be >= 1")
    return val


def _rat_param(doc: dict, key: str, family: str, *, default: int) -> Fraction:
    if key not in doc:
        return Fraction(default)
    try:
        return rational_from_json(doc[key])
    except ValueError as exc:
        raise InvalidParams(f"{family}: parameter {key!r}: {exc}") from exc


def _check_keys(doc: dict, allowed: set[str], family: str) -> None:
    if not isinstance(doc, dict):
        raise InvalidParams(f"{family}: parameters must be a JSON object")
    extra = sorted(set(doc) - allowed)
    if extra:
        raise InvalidParams(f"{family}: unknown parameter(s) {extra}")


class Family:
    """Common surface of a registered family; subclasses fill in the math."""

    name = ""
    params_type: type  # the type parse_params returns
    khintchine: Optional[str] = None  # "N0", "full", or None when unavailable
    # the params fields that only the weight of the sequence space reads
    weight_fields: tuple[str, ...] = ()

    def parse_params(self, doc: dict):
        raise NotImplementedError

    def geometry(self, params):
        """The params with every weight field set to None: all that
        :meth:`covering` may read, and the key of :func:`family_covering`."""
        return params._replace(**dict.fromkeys(self.weight_fields))

    def covering(self, params) -> Covering:
        raise NotImplementedError

    def quotient_form(self, params, k: int) -> ExpPolyWeight:
        """The ratio w^(t)/u(r) that the summability criteria test, for
        every (t, r) at once.

        w^(t) is the closed form of the covering weight on the family's
        lattice and u(r) the weight of its sequence space.  Both read t and
        r only through the gaps dp = 1/p - 1/t and g = 1/2 - 1/r, so each
        exponent of the quotient is affine in them (``_DP`` and ``_G``):
        one atom per term of w^(t) over the single atom of u(r) on each
        sector.
        """
        raise NotImplementedError

    def khintchine_quotient(self, quotient: ExpPolyWeight) -> Optional[ExpPolyWeight]:
        """A quotient w^(t)/u restricted to the expanding part of the
        covering.

        Families whose expanding part differs from the whole index set by
        more than finitely many indices restrict explicitly; None means the
        restriction is not modeled and the corresponding tests are skipped.
        """
        if self.khintchine is None:
            return None
        if self.khintchine == "full":
            return quotient
        (piece,) = quotient.pieces
        return ExpPolyWeight((Piece(LineSector("N0"), piece.atoms),))

    def refined_criteria(self, params, k: int, x) -> list[dict]:
        """The S2 and N5 records at the engine's reciprocals ``x`` of
        (p, q, r): the gap dp = 1/p - 1/q and the tail 1/q'' - 1/r clamped
        at 0 (1/theta of S1) as int pairs, and the comparisons."""
        return []


# ---------------------------------------------------------------------------
# dyadic families
# ---------------------------------------------------------------------------

@record
class DyadicParams(NamedTuple):
    d: int
    s: Fraction


_Z = LineSector("Z")
_N0 = LineSector("N0")


def _dyadic_atoms(params: DyadicParams, k: int) -> tuple[Atom, ...]:
    """2^(d dp n) * (1 + 2^(k n)) over the space weight 2^(s n); |b| = 0."""
    base = params.d * _DP - params.s
    norm_atoms = [Atom.line(exp2=base + k)] if k >= 1 else []
    return _weight_atoms(Atom.line(exp2=base), norm_atoms)


class _DyadicFamily(Family):
    """The dyadic families: T_n = 2^n id, b_n = 0 and weight 2^(s n)."""

    params_type = DyadicParams
    weight_fields = ("s",)

    def parse_params(self, doc: dict) -> DyadicParams:
        _check_keys(doc, {"d", "s"}, self.name)
        return DyadicParams(
            _int_param(doc, "d", self.name, default=1),
            _rat_param(doc, "s", self.name, default=0),
        )

    @staticmethod
    def _transform(d: int):
        # T_n = 2^n id, as ints over 2^-n for n < 0
        return lambda i: (_scaled(_diag([2 ** max(i[0], 0)] * d), 2 ** max(-i[0], 0)), (0,) * d)


class HomBesovFamily(_DyadicFamily):
    """Dyadic annuli 2^n A over n in Z with weight 2^(s n)."""

    name = "hom_besov"
    khintchine = "N0"

    def covering(self, params: DyadicParams) -> Covering:
        from .covering import AnnulusSet, Covering

        d = params.d
        base = AnnulusSet(d, Fraction(1, 4), Fraction(4))

        def window(radius: int) -> list[Index]:
            check_window_cap(2 * radius + 1)
            return [(n,) for n in range(-radius, radius + 1)]

        return Covering(
            label=f"hom_besov(d={d})",
            dimension=d,
            window=window,
            transform=self._transform(d),
            base_set=lambda i: base,
        )

    def quotient_form(self, params, k):
        return ExpPolyWeight.single(_Z, *_dyadic_atoms(params, k))


class InhomBesovFamily(_DyadicFamily):
    """Dyadic annuli over n >= 1 plus a ball at the origin, weight 2^(s n)."""

    name = "inhom_besov"
    khintchine = "full"

    def covering(self, params: DyadicParams) -> Covering:
        from .covering import AnnulusSet, BallSet, Covering

        d = params.d
        annulus = AnnulusSet(d, Fraction(1, 4), Fraction(4))
        # a set of d coordinates is built on first use, once the window and
        # the d x d entries of a transform have passed the cap
        ball = functools.cache(lambda: BallSet((0,) * d, Fraction(2)))

        def window(radius: int) -> list[Index]:
            check_window_cap(radius + 1)
            return [(n,) for n in range(radius + 1)]

        return Covering(
            label=f"inhom_besov(d={d})",
            dimension=d,
            window=window,
            transform=self._transform(d),
            base_set=lambda i: ball() if i == (0,) else annulus,
        )

    def quotient_form(self, params, k):
        # T_n = 2^n id for every n >= 0, so one formula covers the whole ray
        return ExpPolyWeight.single(_N0, *_dyadic_atoms(params, k))

    def refined_criteria(self, params, k, x):
        if not _q_mid(x):
            return []
        thr = k + params.d * Fraction(*x.dp)
        return _refined_records(ANCHOR_INHOM_REFINED, "smoothness", params.s, thr, x)


# ---------------------------------------------------------------------------
# alpha modulation
# ---------------------------------------------------------------------------

@record
class AlphaModParams(NamedTuple):
    d: int
    alpha: Fraction
    s: Fraction
    base_radius: Fraction


class AlphaModulationFamily(Family):
    """Balls |k|^a0 B_r shifted to |k|^a0 k, where a0 = alpha/(1 - alpha).

    The index lattice is Z^d without the origin and the space weight is
    |k|^(s/(1 - alpha)).  alpha = 0 recovers the uniform covering, and the
    limit alpha -> 1 leaves this scale, so alpha must stay in [0, 1).  The
    base radius is exposed because admissibility of the covering asks it to
    be large enough relative to alpha and d; the default suits the moderate
    alpha range this package exercises.
    """

    name = "alpha_modulation"
    params_type = AlphaModParams
    khintchine = "full"
    weight_fields = ("s",)  # base_radius is geometric, though the label omits it

    def parse_params(self, doc: dict) -> AlphaModParams:
        _check_keys(doc, {"d", "alpha", "s", "base_radius"}, self.name)
        alpha = _rat_param(doc, "alpha", self.name, default=0)
        if not 0 <= alpha < 1:
            raise InvalidParams(f"{self.name}: alpha must lie in [0, 1)")
        radius = _rat_param(doc, "base_radius", self.name, default=2)
        if radius <= 0:
            raise InvalidParams(f"{self.name}: base_radius must be positive")
        return AlphaModParams(
            _int_param(doc, "d", self.name, default=1),
            alpha,
            _rat_param(doc, "s", self.name, default=0),
            radius,
        )

    @staticmethod
    def _a0(params: AlphaModParams) -> Fraction:
        return params.alpha / (1 - params.alpha)

    def covering(self, params: AlphaModParams) -> Covering:
        from .covering import BallSet, Covering

        d = params.d
        a0 = self._a0(params)
        exact = params.alpha == 0 or (d == 1 and a0.denominator == 1)
        # built on first use, as inhom_besov's ball
        base = functools.cache(lambda: BallSet((0,) * d, params.base_radius))

        def window(radius: int) -> list[Index]:
            count = window_power(2 * radius + 1, d) - 1
            check_window_cap(count)
            # radius 0 holds only the origin, which the lattice leaves out
            return [k for k in itertools.product(range(-radius, radius + 1), repeat=d)
                    if any(k)] if count else []

        def transform(i: Index):
            if exact:  # a0 = 0, or d = 1 and a0 an int
                scale = abs(i[0]) ** a0.numerator
                return _diag([scale] * d), tuple(Fraction(scale * x) for x in i)
            scale = float(sum(x * x for x in i)) ** (float(a0) / 2.0)
            return _diag([scale] * d), tuple(scale * x for x in i)

        return Covering(
            label=f"alpha_modulation(d={d}, alpha={params.alpha})",
            dimension=d,
            window=window,
            transform=transform,
            base_set=lambda i: base(),
        )

    def quotient_form(self, params, k):
        d, a0 = params.d, self._a0(params)
        sector = RadialSector(d)
        sector.check_atoms(3 if k >= 1 else 1)
        # |det T|^dp = |k|^(d a0 dp) over the space weight |k|^(s/(1 - alpha))
        base = d * a0 * _DP - params.s / (1 - params.alpha)
        norm_atoms = []
        if k >= 1:
            # |b| = |k|^(a0 + 1) and ||T|| = |k|^a0, in that order
            norm_atoms = [
                Atom.radial(d, base + (a0 + 1) * k),
                Atom.radial(d, base + a0 * k),
            ]
        return ExpPolyWeight.single(sector, *_weight_atoms(Atom.radial(d, base), norm_atoms))

    def refined_criteria(self, params, k, x):
        if not _q_mid(x):
            return []
        rhs = k + params.d * (
            params.alpha * Fraction(*x.dp) + (1 - params.alpha) * Fraction(*x.s1)
        )
        return _refined_records(
            ANCHOR_ALPHA_REFINED, "weight exponent", params.s, rhs, x,
            sharp=params.alpha == 0 and not x.dp[0],
        )


# ---------------------------------------------------------------------------
# shearlet smoothness
# ---------------------------------------------------------------------------

@record
class ShearletSmoothnessParams(NamedTuple):
    s: Fraction


class ShearletSmoothnessFamily(Family):
    """Parabolic cone covering of the plane with weight 2^(2 n s).

    Cone indices are (n, m, eps, delta) with |m| <= 2^n; the extra index
    (0,) caps the low frequencies and carries no asymptotic content, so the
    closed forms live on the (n, m) pairs alone.
    """

    name = "shearlet_smoothness"
    params_type = ShearletSmoothnessParams
    khintchine = "full"
    weight_fields = ("s",)

    def parse_params(self, doc: dict) -> ShearletSmoothnessParams:
        _check_keys(doc, {"s"}, self.name)
        return ShearletSmoothnessParams(_rat_param(doc, "s", self.name, default=0))

    def covering(self, params: ShearletSmoothnessParams) -> Covering:
        from .covering import Covering, cone_trapezoid

        base = cone_trapezoid(Fraction(1, 3), Fraction(3), Fraction(-1), Fraction(1))

        def window(radius: int) -> list[Index]:
            check_window_cap(1 + 8 * (2 ** (radius + 1) - 1) + 4 * (radius + 1))
            return [(0,), *(
                (n, m, eps, delta)
                for n in range(radius + 1)
                for m in range(-(2**n), 2**n + 1)
                for eps in (-1, 1)
                for delta in (0, 1)
            )]

        def transform(i: Index):
            if i == (0,):
                return _diag([4, 4]), (-4, 0)
            n, m, eps, delta = i
            # rows (4^n, 0) and (2^n m, 2^n), as ints over 4^-n for n < 0
            k = max(-2 * n, 0)
            rows = [(eps << (2 * n + k), 0), (eps * m << (n + k), eps << (n + k))]
            return _scaled(rows[::-1] if delta else rows, 1 << k), (0, 0)

        return Covering(
            label="shearlet_smoothness",
            dimension=2,
            window=window,
            transform=transform,
            base_set=lambda i: base,
        )

    def quotient_form(self, params, k):
        # |det T|^dp = 2^(3 dp n) over the space weight 2^(2 s n)
        base = 3 * _DP - 2 * params.s
        # ||T|| is comparable to 2^(2n) throughout the cone
        norm_atoms = [Atom.pair(n_exp2=base + 2 * k)] if k >= 1 else []
        return ExpPolyWeight.single(
            _SHEARLET_SECTOR, *_weight_atoms(Atom.pair(n_exp2=base), norm_atoms)
        )

    def refined_criteria(self, params, k, x):
        if not _q_mid(x):
            return []
        thr = k + Fraction(3, 2) * Fraction(*x.dp) + Fraction(1, 2) * Fraction(*x.s1)
        return _refined_records(ANCHOR_SHEARLET_REFINED, "smoothness", params.s, thr, x)


_SHEARLET_SECTOR = PairSector("N0", Fraction(1), "inside", 0)


# ---------------------------------------------------------------------------
# shearlet coorbit
# ---------------------------------------------------------------------------

@record
class CoorbitParams(NamedTuple):
    c: Fraction
    alpha: Fraction
    beta: Fraction


class ShearletCoorbitFamily(Family):
    """Shearlet-type group covering over (n, m) in Z^2 with anisotropy c.

    The operator norm of T = [[2^n, 0], [2^(n c) m, 2^(n c)]] behaves like
    2^n + 2^(n c)(1 + |m|); the index set splits into four sectors on which
    a single term dominates, and all closed forms are built per sector.
    The space weight is det^(1/2 - 1/r) * 2^(-n alpha) * ||T||^beta.
    """

    name = "shearlet_coorbit"
    params_type = CoorbitParams
    khintchine = None
    weight_fields = ("alpha", "beta")

    def parse_params(self, doc: dict) -> CoorbitParams:
        _check_keys(doc, {"c", "alpha", "beta"}, self.name)
        return CoorbitParams(
            _rat_param(doc, "c", self.name, default=1),
            _rat_param(doc, "alpha", self.name, default=0),
            _rat_param(doc, "beta", self.name, default=0),
        )

    def covering(self, params: CoorbitParams) -> Covering:
        from .covering import Covering, cone_trapezoid

        c = params.c
        exact = c.denominator == 1
        base = cone_trapezoid(Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(1))

        def window(radius: int) -> list[Index]:
            # (n, m, eps) over Z^2 x {+-1}, with |m| capped at 2^radius
            check_window_cap((2 * radius + 1) * (2 * 2**radius + 1) * 2)
            return list(itertools.product(
                range(-radius, radius + 1), range(-(2**radius), 2**radius + 1), (-1, 1)))

        def transform(i: Index):
            n, m, eps = i
            if exact:
                # rows (2^n, 0) and (2^(n c) m, 2^(n c)), as ints over 2^k
                nc = n * c.numerator
                k = max(-n, -nc, 0)
                rows = ((eps << (n + k), 0), (eps * m << (nc + k), eps << (nc + k)))
                return _scaled(rows, 1 << k), (0, 0)
            p2n, p2nc = eps * 2.0 ** n, eps * 2.0 ** (n * float(c))
            return ((p2n, p2n * 0), (p2nc * m, p2nc)), (0, 0)

        return Covering(
            label=f"shearlet_coorbit(c={c})",
            dimension=2,
            window=window,
            transform=transform,
            base_set=lambda i: base,
        )

    @staticmethod
    def _sectors(params: CoorbitParams):
        """The four dominance sectors with (a, rho): ||T|| ~ 2^(a n) |m|^rho."""
        c = params.c
        lam, zero, one = 1 - c, Fraction(0), Fraction(1)
        if c >= 1:
            sectors = (
                PairSector("N0", zero, "outside", 0),
                PairSector("N0", zero, "inside", -1),
                PairSector("Nneg", lam, "outside", 0),
                PairSector("Nneg", lam, "inside", -1),
            )
            surrogates = ((c, 1), (c, 0), (c, 1), (one, 0))
        else:
            sectors = (
                PairSector("N0", lam, "inside", 0),
                PairSector("N0", lam, "outside", 1),
                PairSector("Nneg", zero, "outside", 0),
                PairSector("Nneg", zero, "inside", -1),
            )
            surrogates = ((one, 0), (c, 1), (c, 1), (c, 0))
        return sectors, surrogates

    def quotient_form(self, params, k):
        # |det T|^dp = 2^((1 + c) dp n) over the space weight
        # 2^(-(1 + c) g n - alpha n) * ||T||^beta, per sector
        beta = params.beta
        base = (1 + params.c) * (_DP + _G) + params.alpha
        gain = k - beta
        sectors, surrogates = self._sectors(params)
        pieces = []
        for sector, (a, rho) in zip(sectors, surrogates):
            det_atom = Atom.pair(n_exp2=base - a * beta, m_power=-rho * beta)
            norm_atoms = (
                [Atom.pair(n_exp2=base + a * gain, m_power=rho * gain)] if k >= 1 else []
            )
            pieces.append(Piece(sector, _weight_atoms(det_atom, norm_atoms)))
        return ExpPolyWeight(tuple(pieces))


# ---------------------------------------------------------------------------
# diagonal group
# ---------------------------------------------------------------------------

@record
class DiagonalParams(NamedTuple):
    d: int
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]


class DiagonalFamily(Family):
    """Coverings by diagonal dilations diag(eps_l 2^(-k_l)) of a fixed box.

    Weights are orthant-wise exponentials: coordinate l contributes
    2^(k_l (alpha_l + 1/2 - 1/r)) on k_l >= 0 and the beta exponent on
    k_l < 0.  The sign multiplicities eps collapse onto the k lattice.
    """

    name = "diagonal"
    params_type = DiagonalParams
    khintchine = None
    weight_fields = ("alpha", "beta")

    def parse_params(self, doc: dict) -> DiagonalParams:
        _check_keys(doc, {"d", "alpha", "beta"}, self.name)
        d = _int_param(doc, "d", self.name, default=1)
        # a scalar alpha or beta is broadcast to d entries
        check_window_cap(d, "a parameter vector of {} entries")

        def vector(key: str) -> tuple[Fraction, ...]:
            # a top-level list is always per-coordinate; scalars broadcast
            val = doc.get(key, 0)
            if isinstance(val, list):
                if len(val) != d:
                    raise InvalidParams(
                        f"{self.name}: parameter {key!r} must have {d} entries"
                    )
                vals = val
            else:
                vals = [val] * d
            try:
                return tuple(rational_from_json(v) for v in vals)
            except ValueError as exc:
                raise InvalidParams(f"{self.name}: parameter {key!r}: {exc}") from exc

        return DiagonalParams(d, vector("alpha"), vector("beta"))

    def covering(self, params: DiagonalParams) -> Covering:
        from .covering import BoxSet, Covering

        d = params.d
        # built on first use, as inhom_besov's ball
        base = functools.cache(lambda: BoxSet((Fraction(1, 2),) * d, (Fraction(2),) * d))

        def window(radius: int) -> list[Index]:
            # (k_1..k_d, eps_1..eps_d) over Z^d x {+-1}^d: (2r + 1)^d 2^d indices
            check_window_cap(window_power(4 * radius + 2, d))
            signs = list(itertools.product((-1, 1), repeat=d))
            return [ks + eps for ks in itertools.product(range(-radius, radius + 1), repeat=d)
                    for eps in signs]

        def transform(i: Index):
            # diag(eps_l 2^-k_l), as ints over 2^k, k the largest k_l (at least 0)
            ks, eps = i[:d], i[d:]
            k = max(0, *ks)
            return _scaled(_diag([e << (k - x) for e, x in zip(eps, ks)]), 1 << k), (0,) * d

        return Covering(
            label=f"diagonal(d={d})",
            dimension=d,
            window=window,
            transform=transform,
            base_set=lambda i: base(),
        )

    def quotient_form(self, params, k):
        # |det T|^dp = prod_l 2^(-dp k_l) over the space weight, whose
        # coordinate l is 2^((alpha_l + g) k_l) on k_l >= 0, beta_l on k_l < 0
        rates = [(-_DP - _G - a, -_DP - _G - b) for a, b in zip(params.alpha, params.beta)]
        det_factors = tuple(CoordFactor(pos, neg) for pos, neg in rates)
        norm_atoms = []
        if k >= 1:
            # ||T|| = max_l 2^(-k_l), comparable to the sum over l
            for axis, (pos, neg) in enumerate(rates):
                factors = list(det_factors)
                factors[axis] = CoordFactor(pos - k, neg - k)
                norm_atoms.append(Atom(_ONE, tuple(factors)))
        return ExpPolyWeight.single(
            ProductSector((_Z,) * params.d), *_weight_atoms(Atom(_ONE, det_factors), norm_atoms)
        )


FAMILIES = {
    fam.name: fam
    for fam in (
        HomBesovFamily(),
        InhomBesovFamily(),
        AlphaModulationFamily(),
        ShearletSmoothnessFamily(),
        ShearletCoorbitFamily(),
        DiagonalFamily(),
    )
}

FAMILY_NAMES = tuple(FAMILIES)


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise InvalidParams(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None


@functools.lru_cache(maxsize=COVERING_MEMO_SIZE)
def family_covering(fam: Family, geometry) -> Covering:
    """The covering of a family at ``fam.geometry(params)``, one per (family,
    geometry) in a process, so that the placements, neighbour maps and
    constants it keeps serve every command that reads it.

    The geometry keeps what a covering reads: the ``d`` of the families
    that have one, the ``alpha`` and ``base_radius`` of alpha_modulation
    and the ``c`` of shearlet_coorbit.
    The weight fields, every ``s`` and the ``alpha`` and ``beta`` of
    shearlet_coorbit and diagonal, are None there: they weigh the sequence
    space, not the covering, so every weight reads one covering."""
    return fam.covering(geometry)


def covering_from_json(doc: object) -> Covering:
    """Build a covering from {"family": ..., "params": ...} or {"custom": ...};
    a family covering comes from :func:`family_covering` at the geometry of
    its params, a custom one is new."""
    if not isinstance(doc, dict):
        raise SchemaError(f"covering document must be an object, got {type(doc).__name__}")
    if "custom" in doc:
        from .covering import custom_covering_from_json

        return custom_covering_from_json(doc["custom"])
    if "family" in doc:
        name = doc["family"]
        if name not in FAMILIES:
            raise SchemaError(f"unknown family {name!r} in covering document")
        fam = FAMILIES[name]
        return family_covering(fam, fam.geometry(fam.parse_params(doc.get("params", {}))))
    raise SchemaError("covering document needs a 'family' or 'custom' key")
