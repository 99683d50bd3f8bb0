"""Weight builders attached to structured coverings.

A weight here is a positive function on a covering's index set.  Every
supported kind is a determinant power of the covering transform scaled by a
norm polynomial in its affine data:

    value(i) = |det T_i|^(1/p - 1/t) * factor(i)

with factor 1 (kind ``v0``), |b_i|^k + ||T_i||^k (kind ``w_k``), or
1 + |b_i|^k + ||T_i||^k (kinds ``u_kpq`` and ``w_t``).  The two last kinds
share a formula; ``u_kpq`` is the conventional name when t plays the role of
the target integrability.

The evaluators are numeric on purpose.  Families expose closed-form lattice
weights separately, and :func:`agreement_report` cross-checks the two
representations on a window, either to round-off accuracy or as a two-sided
ratio envelope when the closed form is only accurate up to constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .covering import Covering, Index, mat_det, spectral_norm
from .errors import UnsupportedWeight
from .exponents import ExtExponent, reciprocal_gap
from .seqspace import ExpPolyWeight

__all__ = [
    "WEIGHT_KINDS",
    "CoveringWeight",
    "build_weight",
    "agreement_report",
]

WEIGHT_KINDS = ("u_kpq", "v0", "w_k", "w_t")

EXACT_TOLERANCE = 1e-9


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
    """Numeric weight ``i -> |det T_i|^(1/p - 1/t) * factor(i)``."""

    covering: Covering
    kind: str
    k: int
    p: ExtExponent
    t: ExtExponent

    @property
    def det_exponent(self) -> Fraction:
        return reciprocal_gap(self.p, self.t)

    def evaluate(self, index: Index) -> float:
        t_mat, b_vec = self.covering.transform(index)
        det = mat_det(t_mat)
        det_abs = abs(det)
        value = _log_pow(det_abs, self.det_exponent)
        if self.kind == "v0":
            return value
        norm_t = spectral_norm(t_mat)
        norm_b = math.sqrt(sum(float(x) * float(x) for x in b_vec))
        # 0**0 == 1 here, so k == 0 degenerates to a constant factor.
        if self.kind == "w_k":
            return value * (norm_b**self.k + norm_t**self.k)
        return value * (1.0 + norm_b**self.k + norm_t**self.k)


def build_weight(covering: Covering, kind: str, *, k: int, p, t) -> CoveringWeight:
    if kind not in WEIGHT_KINDS:
        raise UnsupportedWeight(
            f"unknown weight kind {kind!r}; expected one of {WEIGHT_KINDS}"
        )
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise UnsupportedWeight("smoothness order k must be a nonnegative integer")
    return CoveringWeight(covering, kind, k, ExtExponent(p), ExtExponent(t))


def agreement_report(
    weight: CoveringWeight,
    symbolic: ExpPolyWeight,
    indices: Iterable[Index],
    *,
    to_point: Optional[Callable[[Index], Optional[tuple]]] = None,
    mode: str = "exact",
) -> dict:
    """Compare the covering evaluator against a closed-form lattice weight.

    ``mode="exact"`` demands agreement to ``EXACT_TOLERANCE`` relative error;
    ``mode="ratio"`` only records the envelope of numeric/symbolic ratios and
    calls the pair consistent when the envelope is finite and positive.
    Indices that ``to_point`` maps to ``None`` are skipped; they carry no
    asymptotic information.
    """
    if mode not in ("exact", "ratio"):
        raise ValueError(f"unknown comparison mode {mode!r}")
    worst = 0.0
    lo = math.inf
    hi = 0.0
    count = 0
    for index in indices:
        point = to_point(index) if to_point is not None else index
        if point is None:
            continue
        num = weight.evaluate(index)
        sym = symbolic.evaluate(point)
        if sym <= 0.0 or not math.isfinite(num) or not math.isfinite(sym):
            raise ValueError("agreement check needs finite positive samples")
        ratio = num / sym
        lo = min(lo, ratio)
        hi = max(hi, ratio)
        worst = max(worst, abs(ratio - 1.0))
        count += 1
    if count == 0:
        raise ValueError("no comparable indices supplied")
    ok = worst <= EXACT_TOLERANCE if mode == "exact" else (0.0 < lo <= hi < math.inf)
    return {
        "count": count,
        "min_ratio": lo,
        "max_ratio": hi,
        "max_rel_err": worst,
        "ok": ok,
    }
