"""The weight that ``verify-family`` probes moderateness with.

It is the covering weight w^(t)(i) = |det T_i|^(1/p - 1/t) * (1 + |b_i|^k +
||T_i||^k) at k = 0, p = 1 and t = 2: purely geometric, so the estimate
settles inside small windows.  The criteria read w^(t) only through the
closed forms of :mod:`decomp_embed.families`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .covering import Covering, Index, mat_det

__all__ = ["probe_weight"]


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


def probe_weight(covering: Covering) -> Callable[[Index], float]:
    """i -> |det T_i|^(1/2) * 3 on ``covering``, with 1 + |b|^0 + ||T||^0 = 3."""
    return lambda index: _log_pow(abs(mat_det(covering.transform(index)[0])), Fraction(1, 2)) * 3.0
