"""The numeric covering weight.

The criteria of the decision engine use one weight per covering, computed
only from the covering's affine data and k, p, t:

    w^(t)(i) = |det T_i|^(1/p - 1/t) * (1 + |b_i|^k + ||T_i||^k)

The engine takes t = q, p and 2; with t = q this is the weight u^(k,p,q).

The evaluator here is numeric on purpose.  The criteria read closed forms
of the quotients w^(t)/u, built by :mod:`decomp_embed.families`; with the
space weight u set to 1 (the space parameters zero and r = 2) such a
quotient is the closed form of w^(t) itself, and the tests compare the two
on finite windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .covering import Covering, Index, mat_det, spectral_norm
from .errors import UnsupportedWeight
from .exponents import ExtExponent, reciprocal_gap

__all__ = [
    "CoveringWeight",
    "build_weight",
]


def _log_pow(base, expo: Fraction) -> float:
    """base**expo through logarithms, stable for very large rational bases."""
    if expo == 0:
        return 1.0
    if isinstance(base, (int, Fraction)):
        base = Fraction(base)
        if base == 0:
            return 0.0 if expo > 0 else math.inf
        lg = math.log(base.numerator) - math.log(base.denominator)
    else:
        if base == 0.0:
            return 0.0 if expo > 0 else math.inf
        lg = math.log(base)
    return math.exp(float(expo) * lg)


@dataclass(frozen=True)
class CoveringWeight:
    """Numeric weight ``i -> |det T_i|^(1/p - 1/t) * (1 + |b_i|^k + ||T_i||^k)``."""

    covering: Covering
    k: int
    p: ExtExponent
    t: ExtExponent

    @property
    def det_exponent(self) -> Fraction:
        return reciprocal_gap(self.p, self.t)

    def evaluate(self, index: Index) -> float:
        t_mat, b_vec = self.covering.transform(index)
        value = _log_pow(abs(mat_det(t_mat)), self.det_exponent)
        if self.k == 0:
            # 1 + |b|^0 + ||T||^0, with 0**0 == 1
            return value * 3.0
        norm_t = spectral_norm(t_mat)
        norm_b = math.sqrt(sum(float(x) * float(x) for x in b_vec))
        return value * (1.0 + norm_b**self.k + norm_t**self.k)


def build_weight(covering: Covering, *, k: int, p, t) -> CoveringWeight:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise UnsupportedWeight("smoothness order k must be a nonnegative integer")
    return CoveringWeight(covering, k, ExtExponent(p), ExtExponent(t))

