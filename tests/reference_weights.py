"""The covering weight and the space weight of every family, built apart.

``weight_symbolic(params, k, p, t)`` builds the closed form of w^(t) and
``space_weight(params, r)`` that of u(r), each from the exponents
themselves.  They are the reference of the equivalence test in
``test_families.py``: ``weight_symbolic(...).quotient(space_weight(...))``
must equal the family's ``quotient_form(params, k).at(1/p - 1/t,
1/2 - 1/r)``.
"""

from __future__ import annotations

from fractions import Fraction

from decomp_embed.exponents import ExtExponent
from decomp_embed.families import (
    AlphaModParams,
    CoorbitParams,
    DiagonalParams,
    DyadicParams,
)
from decomp_embed.seqspace import (
    Atom,
    CoordFactor,
    ExpPolyWeight,
    LineSector,
    PairSector,
    Piece,
    ProductSector,
    RadialSector,
)

from witnesses import reciprocal_gap

_TWO = ExtExponent(2)
_SHEARLET_SECTOR = PairSector("N0", Fraction(1), "inside", 0)


def _weight_atoms(det_atom: Atom, norm_atoms: list[Atom]) -> tuple[Atom, ...]:
    """The atoms of |det T|^(1/p - 1/t) * (1 + |b|^k + ||T||^k).

    ``det_atom`` is the pure determinant power, ``norm_atoms`` the terms of
    (|b|^k + ||T||^k) times that power for k >= 1; an empty list means
    k == 0, where the norm polynomial collapses to the constant 3.
    """
    if not norm_atoms:
        return (Atom(det_atom.coeff * 3, det_atom.factors, det_atom.radial_pow),)
    return (det_atom, *norm_atoms)


class HomBesov:
    def space_weight(self, params: DyadicParams, r: ExtExponent) -> ExpPolyWeight:
        return ExpPolyWeight.single(LineSector("Z"), Atom.line(exp2=params.s))

    def weight_symbolic(self, params, k, p, t):
        dp = reciprocal_gap(p, t)
        det_atom = Atom.line(exp2=params.d * dp)
        norm_atoms = [Atom.line(exp2=params.d * dp + k)] if k >= 1 else []
        return ExpPolyWeight.single(
            LineSector("Z"), *_weight_atoms(det_atom, norm_atoms)
        )


class InhomBesov:
    def space_weight(self, params: DyadicParams, r: ExtExponent) -> ExpPolyWeight:
        return ExpPolyWeight.single(LineSector("N0"), Atom.line(exp2=params.s))

    def weight_symbolic(self, params, k, p, t):
        # T_n = 2^n id for every n >= 0, so one formula covers the whole ray
        dp = reciprocal_gap(p, t)
        det_atom = Atom.line(exp2=params.d * dp)
        norm_atoms = [Atom.line(exp2=params.d * dp + k)] if k >= 1 else []
        return ExpPolyWeight.single(
            LineSector("N0"), *_weight_atoms(det_atom, norm_atoms)
        )


class AlphaModulation:
    @staticmethod
    def _a0(params: AlphaModParams) -> Fraction:
        return params.alpha / (1 - params.alpha)

    def space_weight(self, params: AlphaModParams, r: ExtExponent) -> ExpPolyWeight:
        power = params.s / (1 - params.alpha)
        return ExpPolyWeight.single(
            RadialSector(params.d), Atom.radial(params.d, power)
        )

    def weight_symbolic(self, params, k, p, t):
        a0 = self._a0(params)
        dp = reciprocal_gap(p, t)
        base = params.d * a0 * dp
        det_atom = Atom.radial(params.d, base)
        norm_atoms = []
        if k >= 1:
            # |b| = |k|^(a0 + 1) and ||T|| = |k|^a0, in that order
            norm_atoms = [
                Atom.radial(params.d, base + (a0 + 1) * k),
                Atom.radial(params.d, base + a0 * k),
            ]
        return ExpPolyWeight.single(
            RadialSector(params.d), *_weight_atoms(det_atom, norm_atoms)
        )


class ShearletSmoothness:
    @staticmethod
    def _sector() -> PairSector:
        return _SHEARLET_SECTOR

    def space_weight(self, params, r: ExtExponent) -> ExpPolyWeight:
        return ExpPolyWeight.single(self._sector(), Atom.pair(n_exp2=2 * params.s))

    def weight_symbolic(self, params, k, p, t):
        dp = reciprocal_gap(p, t)
        det_atom = Atom.pair(n_exp2=3 * dp)
        # ||T|| is comparable to 2^(2n) throughout the cone
        norm_atoms = [Atom.pair(n_exp2=3 * dp + 2 * k)] if k >= 1 else []
        return ExpPolyWeight.single(
            self._sector(), *_weight_atoms(det_atom, norm_atoms)
        )


class ShearletCoorbit:
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

    def space_weight(self, params: CoorbitParams, r: ExtExponent) -> ExpPolyWeight:
        c, alpha, beta = params.c, params.alpha, params.beta
        base = -(1 + c) * reciprocal_gap(_TWO, r) - alpha
        sectors, surrogates = self._sectors(params)
        pieces = []
        for sector, (a, rho) in zip(sectors, surrogates):
            atom = Atom.pair(n_exp2=base + a * beta, m_power=rho * beta)
            pieces.append(Piece(sector, (atom,)))
        return ExpPolyWeight(tuple(pieces))

    def weight_symbolic(self, params, k, p, t):
        c = params.c
        dp = reciprocal_gap(p, t)
        det_exp = (1 + c) * dp
        sectors, surrogates = self._sectors(params)
        det_atom = Atom.pair(n_exp2=det_exp)
        pieces = []
        for sector, (a, rho) in zip(sectors, surrogates):
            norm_atoms = (
                [Atom.pair(n_exp2=det_exp + a * k, m_power=rho * k)] if k >= 1 else []
            )
            pieces.append(Piece(sector, _weight_atoms(det_atom, norm_atoms)))
        return ExpPolyWeight(tuple(pieces))


class Diagonal:
    @staticmethod
    def _sector(d: int) -> ProductSector:
        return ProductSector(tuple(LineSector("Z") for _ in range(d)))

    def space_weight(self, params: DiagonalParams, r: ExtExponent) -> ExpPolyWeight:
        shift = reciprocal_gap(_TWO, r)
        factors = tuple(
            CoordFactor(a + shift, b + shift, 0, 0)
            for a, b in zip(params.alpha, params.beta)
        )
        return ExpPolyWeight.single(self._sector(params.d), Atom(Fraction(1), factors))

    def weight_symbolic(self, params, k, p, t):
        d = params.d
        dp = reciprocal_gap(p, t)
        det_atom = Atom(
            Fraction(1), tuple(CoordFactor.symmetric(-dp) for _ in range(d))
        )
        norm_atoms = []
        if k >= 1:
            # ||T|| = max_l 2^(-k_l), comparable to the sum over l
            for axis in range(d):
                factors = tuple(
                    CoordFactor.symmetric(-dp - (k if j == axis else 0))
                    for j in range(d)
                )
                norm_atoms.append(Atom(Fraction(1), factors))
        return ExpPolyWeight.single(
            self._sector(d), *_weight_atoms(det_atom, norm_atoms)
        )


REFERENCE = {
    "hom_besov": HomBesov(),
    "inhom_besov": InhomBesov(),
    "alpha_modulation": AlphaModulation(),
    "shearlet_smoothness": ShearletSmoothness(),
    "shearlet_coorbit": ShearletCoorbit(),
    "diagonal": Diagonal(),
}
