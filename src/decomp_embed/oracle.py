"""The numeric truncation oracle: an independent check of l^theta membership.

:func:`truncated_oracle` classifies whether an exp-poly weight of
:mod:`decomp_embed.seqspace` lies in l^theta from partial sums over nested
windows alone.  It shares no logic with the exact decider: it takes only
the weight types from :mod:`decomp_embed.seqspace`, reads every
coefficient and exponent as a float once, evaluates the weight numerically
with its own helpers (:func:`pow2f` and a coordinate factor's log2), and
reads exponents only for structural facts about what lies past its window
(the pair-sector tail bound and, on the exact exponents, the
exponential-growth gate).  Test suites drive both against each other.

numpy is loaded only by this module, and no module imports this one at
top level, so an exact decision loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import UnsupportedWeight, check_window_cap
from .seqspace import (
    Atom,
    CoordFactor,
    ExpPolyWeight,
    LineSector,
    PairSector,
    Piece,
    ProductSector,
    RadialSector,
    Sector,
)

__all__ = ["TailClassification", "truncated_oracle"]

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
# an outside sum row ends once its closed-form rest is at most this share
_ROW_REST_SHARE = 1e-3


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


def pow2f(x: float) -> float:
    """2**x in float, saturating instead of raising OverflowError."""
    if x >= 1024.0:  # 2.0 ** x raises from 2^1024 on
        return math.inf
    if x < -1100.0:
        return 0.0
    return 2.0 ** x


def _log2_factor(f: CoordFactor, n: int) -> float:
    """log2 of the coordinate factor f at n; |0|^c reads as 1."""
    if n >= 0:
        a, c = f.exp2_pos, f.pow_pos
    else:
        a, c = f.exp2_neg, f.pow_neg
    out = float(a) * n
    if c and n != 0:
        out += float(c) * math.log2(abs(n))
    return out


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
    if domain == "N0":
        return np.arange(0, radius + 1, dtype=np.float64)
    if domain == "Nneg":
        return np.arange(-radius, 0, dtype=np.float64)
    axis = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.delete(axis, radius) if domain == "Z_nonzero" else axis


def _grid_axes(sector: Sector, radius: int) -> list[np.ndarray]:
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
    absn = np.abs(n)
    return n, n >= 0, np.log2(np.where(absn == 0, 1.0, absn))  # |0|^c reads as 1


def _factor_log2_on_axis(
    f: Sequence[float], axis: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """log2 of the factor f along an axis given by :func:`_axis_logs`; f is a
    CoordFactor or its four exponents (exp2_pos, exp2_neg, pow_pos, pow_neg)
    already as floats."""
    n, nonneg, lg = axis
    a_pos, a_neg, c_pos, c_neg = map(float, f)
    a = np.where(nonneg, a_pos, a_neg)
    c = np.where(nonneg, c_pos, c_neg)
    return a * n + c * lg


def _grid_values(piece: Piece, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and sup-norm radii of a piece on its window, as flat arrays."""
    sector = piece.sector
    axes = _grid_axes(sector, radius)
    shape = tuple(len(ax) for ax in axes)
    check_window_cap(math.prod(shape))  # before any window-sized array
    logs = [_axis_logs(ax) for ax in axes]
    total = np.zeros(shape, dtype=np.float64)
    # whole-window arrays are updated in place: the same operations in the
    # same order, without a fresh temporary per step
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        for atom in piece.atoms:
            # add exponents, then exponentiate once, so that saturated
            # per-factor values cannot meet as inf * 0 = nan
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
        log2_f0 = _log2_factor(f0, n)
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
    exponentiation, as the grid path sums an atom's exponents first, so
    that it cannot meet a saturated m-term as inf * 0."""
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
    :func:`_row_remainder_bound` bounds the rest of the row in closed form.
    The row reports its partial sum, unflagged, at the first negligible
    chunk, once the rest is negligible against the row and global sums
    (``scale``), or, for the sup, once the rest cannot raise it.  It
    reports the sum plus the rest (the sup: the larger of the two), an
    upper bound on the row, unflagged, once a finite rest is at most
    ``_ROW_REST_SHARE`` of the sum, or at the step cap if the rest is
    finite.  A row capped with an inf or nan rest while its last chunk
    still matters is flagged, so that the caller can refuse to certify
    convergence.  A row whose bound is past the float range
    (lam*n >= 1024) is not evaluated: it adds nothing and is flagged.
    """
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
        top = float(vals.max())
        sup = max(sup, top)  # max keeps sup over a nan top
        steps += chunk
        value = sup if theta_f is None else total
        if not math.isfinite(value) or math.isnan(top):
            # an inf or nan term, or a sum past the float range
            return _RowSum(top if math.isnan(top) else value, False)
        negligible = _ROW_NEGLIGIBLE * max(total, scale, 1e-300)
        # a sup row's sum of chunk maxima past the float range leaves every
        # chunk negligible against it, and says nothing of the sup
        if last_chunk <= negligible and math.isfinite(total):
            return _RowSum(value, False)
        # the rest cannot raise the sup, or cannot move the sum
        rest = _row_remainder_bound(row, float(start + steps), theta_f)
        if math.isfinite(rest) and rest <= (value if theta_f is None else negligible):
            return _RowSum(value, False)
        if theta_f is not None and rest <= _ROW_REST_SHARE * total:
            return _RowSum(total + rest, False)
    if math.isfinite(rest):
        return _RowSum(max(sup, rest) if theta_f is None else total + rest, False)
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
    logs = [a * j + c * math.log2(j) for j in cands]
    if a != 0.0 and lo <= -c / (a * _LN2) <= hi:
        # j* in log space, as it may overflow: log2 j* = log2|c| - log2(|a| ln 2)
        logs.append(-c / _LN2 + c * (math.log2(abs(c)) - math.log2(abs(a)) - math.log2(_LN2)))
    return pow2f(max(logs))


def _sum_exp_poly(a: float, c: float, lo: float, hi: float) -> float:
    """Upper bound for the sum of 2^(a*j) * j^c over integers j in [lo, hi].

    lo >= 1; hi may be inf.  Splitting off half the exponential rate turns
    the summand into a geometric envelope, so the bound is finite exactly
    when the true series converges and the envelope's sum is a float.
    """
    if lo > hi:
        return 0.0
    if a != 0:
        if a > 0 and math.isinf(hi):
            return math.inf
        peak = _sup_exp_poly(a / 2.0, c, lo, hi) * pow2f(a * (lo if a < 0 else hi) / 2.0)
        # 1 - 2^(-|a|/2) by expm1 where the subtraction cancels to 0; a gap
        # still 0 leaves the bound past the float range
        gap = 1.0 - pow2f(-abs(a) / 2.0) or -math.expm1(-abs(a) * _LN2 / 2.0)
        return peak / gap if gap else math.inf
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


def _float_pieces(weight: ExpPolyWeight) -> list[Piece]:
    """The pieces of a weight with every coefficient and exponent read as a
    float, once; the oracle's helpers read these as they would Fractions.
    A number past the float range (float() raises rather than give inf),
    a pair sector's lam among them, or a coefficient that underflows to 0
    raises :class:`UnsupportedWeight`."""
    try:
        for piece in weight.pieces:
            if isinstance(piece.sector, PairSector):
                float(piece.sector.lam)  # as the tail bound reads it
        pieces = [Piece(piece.sector, tuple(Atom._make((
            float(atom.coeff),
            tuple(CoordFactor._make(map(float, f)) for f in atom.factors),
            float(atom.radial_pow),
        )) for atom in piece.atoms)) for piece in weight.pieces]
    except OverflowError:
        pieces = None
    if pieces is None or not all(atom.coeff > 0.0 for pc in pieces for atom in pc.atoms):
        raise UnsupportedWeight(
            "the numeric oracle needs every exponent to be a finite float and "
            "every coefficient a positive one"
        )
    return pieces


def truncated_oracle(weight: ExpPolyWeight, theta) -> TailClassification:
    """Classify l^theta membership from partial sums over nested windows.

    Every coefficient and exponent is read as a float once, on entry
    (:func:`_float_pieces`).  Grid sectors are evaluated once on the largest window.  Pair sectors
    are summed row by row; an outside row is summed in chunks of |m|, each
    with one log2|m| shared by every atom and both signs of m, and the -m
    half is taken from the +m half when every m-factor is even in m.  After
    each chunk a closed-form bound on the rest of the row stops it once
    the rest cannot move the sum or raise the sup; a row that ends on a
    larger finite rest reports an upper bound on itself (:func:`_pair_row`).
    At theta = inf every shell, every row and the running partial "sum"
    are maxima: a row reports its sup and a shell the largest of its rows.

    Declares Divergent when partial sums exceed ``BLOWUP_THRESHOLD`` or
    grow by at least ``GROWTH_FACTOR`` between the last two radii, unless
    a pair sector's structural bound on the rows past the window is
    finite.  Declares Convergent, with a tail bound, when the per-shell
    contributions over the last three radii decay with ratio at most
    ``SHELL_RATIO`` (theta = inf: stop raising the running max), no row
    capped with an inf or nan rest carries significant mass, the
    structural bound is finite and no grid piece grows exponentially along an
    unbounded axis (:func:`_grows_exponentially`; such a term can fall
    across the whole window and still blow up past it).  Everything else
    is Inconclusive.  The radii are :func:`default_radii` of the weight's
    dimension and sectors, so the result is a function of (weight, theta)
    alone.
    """
    pieces = _float_pieces(weight)
    has_pair = any(isinstance(p.sector, PairSector) for p in pieces)
    # no pieces is the zero sequence, which every window sums to 0
    dims = max((p.sector.dims for p in pieces), default=1)
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
                    # from lam*n >= 17 on a row holds 2^18 > cap values of m
                    if sec.lam * n_edge >= 17 or 2 * sec.m_bound(n_edge) + 1 > _ROW_STEP_CAP:
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
        _grows_exponentially(p) for p in weight.pieces if not isinstance(p.sector, PairSector)
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
