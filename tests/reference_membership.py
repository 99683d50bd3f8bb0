"""The exact membership rules with a separate case for theta = inf.

``_atom_member(sector, atom, theta)`` decides whether one atom lies in
l^theta over its sector, with ``theta`` a Fraction, or None for inf,
where membership means boundedness.  These are the rules the decider in
:mod:`decomp_embed.seqspace` used before it read theta through 1/theta,
kept unchanged as the reference of the equivalence test in
``test_seqspace.py``: both must agree on every atom and theta, and raise
the same ``UnsupportedWeight`` with the same message.
"""

from __future__ import annotations

from fractions import Fraction

from decomp_embed.errors import UnsupportedWeight
from decomp_embed.seqspace import (
    Atom,
    CoordFactor,
    LineSector,
    PairSector,
    ProductSector,
    RadialSector,
    Sector,
)


def _halfline_member(sign: int, c: Fraction, theta: Fraction | None) -> bool:
    """Whether 2^(a*n) * n^c over n >= 1 lies in l^theta, or is bounded
    when theta is None; ``sign`` is any int with the sign of a.

    For finite theta this is summability of 2^(theta*a*n) * n^(theta*c):
    theta > 0 keeps the sign of a, and theta*c < -1 is compared as an
    integer cross product, so no Fraction is built.
    """
    if sign < 0:
        return True
    if sign > 0:
        return False
    if theta is None:
        return c.numerator <= 0
    return c.numerator * theta.numerator + c.denominator * theta.denominator < 0


def _rate_sign(a: Fraction, lam: Fraction, x_num: int, x_den: int) -> int:
    """An int with the sign of a + lam * x_num/x_den, for x_den > 0."""
    return a.numerator * lam.denominator * x_den + lam.numerator * x_num * a.denominator


def _line_member(domain: str, f: CoordFactor, theta: Fraction | None) -> bool:
    if domain != "Nneg" and not _halfline_member(f.exp2_pos.numerator, f.pow_pos, theta):
        return False
    return domain == "N0" or _halfline_member(-f.exp2_neg.numerator, f.pow_neg, theta)


def _pair_atom_member(sector: PairSector, atom: Atom, theta: Fraction | None) -> bool:
    n_factor, m_factor = atom.factors
    if m_factor.exp2_pos or m_factor.exp2_neg:
        raise UnsupportedWeight("pair sectors support only power factors in m")
    rho = m_factor.pow_pos
    if rho != m_factor.pow_neg:
        raise UnsupportedWeight("pair sectors need a symmetric m power")
    lam = sector.lam
    if sector.n_domain == "N0":
        if lam < 0:
            raise UnsupportedWeight("pair sector with lam < 0 on n >= 0")
        a, c = n_factor.exp2_pos, n_factor.pow_pos
        orient = 1
    else:
        if lam > 0:
            raise UnsupportedWeight("pair sector with lam > 0 on n < 0")
        # n runs to -inf, where 2^(a*n) decays at rate -a
        a, c = n_factor.exp2_neg, n_factor.pow_neg
        orient = -1
    outside = sector.side == "outside"

    if theta is None:
        # sup over the sector; the extremal |m| is the row bound when the
        # m power points outward, otherwise the smallest admissible |m|
        if outside and rho > 0:
            return False
        if outside or rho > 0:
            # rate a + lam*rho
            sign = _rate_sign(a, lam, rho.numerator, rho.denominator)
        else:
            sign = a.numerator
        return _halfline_member(orient * sign, c, None)

    # all rates and powers below carry the factor theta > 0 of the
    # l^theta sum; rho_side has the sign of theta*rho + 1
    rho_side = rho.numerator * theta.numerator + rho.denominator * theta.denominator
    if outside and rho_side >= 0:
        return False  # every row has a divergent m-tail
    # inside rows: the m-sum behaves like bound^(1+theta*rho) above
    # theta*rho = -1, like log(bound) at -1, and like a constant below
    if outside or rho_side > 0:
        # rate theta*a + lam*(1 + theta*rho) = theta*(a + lam*(1/theta + rho))
        x_num = theta.denominator * rho.denominator + rho.numerator * theta.numerator
        sign = _rate_sign(a, lam, x_num, theta.numerator * rho.denominator)
        return _halfline_member(orient * sign, c, theta)
    if rho_side == 0 and lam and not a:
        # the log(bound) factor raises the power theta*c by one
        return c.numerator * theta.numerator + 2 * c.denominator * theta.denominator < 0
    return _halfline_member(orient * a.numerator, c, theta)


def _atom_member(sector: Sector, atom: Atom, theta: Fraction | None) -> bool:
    if isinstance(sector, RadialSector):
        if any(any(f) for f in atom.factors):
            raise UnsupportedWeight("radial sectors support only radial powers")
        power = atom.radial_pow
        if theta is None:
            return power.numerator <= 0
        # theta * power < -d, as an integer cross product
        return power.numerator * theta.numerator < -sector.d * power.denominator * theta.denominator
    if atom.radial_pow:
        raise UnsupportedWeight("radial powers are only supported on radial sectors")
    if isinstance(sector, LineSector):
        return _line_member(sector.domain, atom.factors[0], theta)
    if isinstance(sector, ProductSector):
        return all(
            _line_member(line.domain, f, theta)
            for line, f in zip(sector.lines, atom.factors)
        )
    if isinstance(sector, PairSector):
        return _pair_atom_member(sector, atom, theta)
    raise UnsupportedWeight(f"unknown sector type {type(sector).__name__}")
