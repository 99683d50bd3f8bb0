"""The numeric truncation oracle: an independent check of l^theta membership.

:func:`truncated_oracle` classifies whether an exp-poly weight of
:mod:`decomp_embed.seqspace` lies in l^theta from partial sums over nested
windows alone.  It shares no logic with the exact decider: it takes only
the weight types from :mod:`decomp_embed.seqspace`, reads every
coefficient and exponent as a float once, evaluates the weight numerically
with its own helpers (:func:`pow2f`, a coordinate factor's log2, the
power sums of :func:`_power_sum` and the shells of a piece read by its
structure), and reads exponents only for structural
facts about what lies past its window (the pair-sector tail bound and, on
the exact exponents, the exponential-growth gate and the radial
divergence test, :func:`_radial_tail_diverges`).  It takes the atoms the
exact decider takes: on pair sectors a lam with lam*n >= 0 on the
n-domain and m-factors |m|^c with one power on both signs of m, on radial
sectors a radial power alone, and a radial power nowhere else; it refuses
the rest.  Test suites drive both against each other.

numpy is loaded only by this module, and no module imports this one at
top level, so an exact decision loads neither.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

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

# a row whose bound 2^(lam*n) reaches 2^1024 has no float |m| to start from
_ROW_LOG2_CAP = 1024
# the window keeps only radii whose inside rows hold at most this many m.
# Rows need no cap, but the shell-ratio gate reads the last three radii, and
# wider windows make it fail on a golden coorbit query (beta = 17/16) that
# the exact decider calls a member: Inconclusive instead of Convergent
_INSIDE_ROW_CAP = 200_000
# a row of several atoms at a non-integer theta sums this many |m|
# directly, which covers each half of every inside row the window keeps
_ROW_HEAD = _INSIDE_ROW_CAP // 2
# an integer theta past this many monomials takes the head instead: k
# atoms at theta expand into comb(theta + k - 1, k - 1) power sums
_EXPANSION_CAP = 100
# bound of the memo of classifications, keyed by (weight, theta) (see
# truncated_oracle): one (q, r) sweep asks about 50-60 distinct pairs
ORACLE_MEMO_SIZE = 128

# the window counts the running classification has passed to the cap, in
# order, for the memo to replay; None outside a run
_CAP_COUNTS: ContextVar[list[int] | None] = ContextVar("oracle_cap_counts", default=None)


@dataclass(frozen=True)
class TailClassification:
    """Outcome of truncated l^theta summation over nested windows."""

    verdict: str  # "Convergent", "Divergent" or "Inconclusive"
    window_radius: int
    partial_sum: float | None = None
    tail_bound: float | None = None
    growth: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


def pow2f(x: float) -> float:
    """2**x in float, saturating instead of raising OverflowError."""
    if x >= 1024.0:  # 2.0 ** x raises from 2^1024 on
        return math.inf
    if x < -1100.0:
        return 0.0
    return 2.0 ** x


def _check_cap(count: int) -> None:
    """:func:`check_window_cap`, noting the count for the memo to replay."""
    counts = _CAP_COUNTS.get()
    if counts is not None:
        counts.append(count)
    check_window_cap(count)


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


def _domains(sector: Sector) -> tuple[str, ...]:
    """The domain of each axis of a line, product or radial sector."""
    if isinstance(sector, LineSector):
        return (sector.domain,)
    if isinstance(sector, ProductSector):
        return tuple(line.domain for line in sector.lines)
    return ("Z",) * sector.dims


def _grid_axes(sector: Sector, radius: int) -> list[np.ndarray]:
    return [_line_axis(domain, radius) for domain in _domains(sector)]


def _axis_logs(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What every factor on the axis n reads: n, the mask n >= 0 and
    log2|n|, once per axis however many atoms share it."""
    absn = np.abs(n)
    return n, n >= 0, np.log2(np.where(absn == 0, 1.0, absn))  # |0|^c reads as 1


def _factor_log2_on_axis(
    f: CoordFactor, axis: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """log2 of the coordinate factor f along an axis given by
    :func:`_axis_logs`."""
    n, nonneg, lg = axis
    a_pos, a_neg, c_pos, c_neg = map(float, f)
    a = np.where(nonneg, a_pos, a_neg)
    c = np.where(nonneg, c_pos, c_neg)
    return a * n + c * lg


def _point_values(atoms: Iterable[Atom], axes: list[np.ndarray]) -> np.ndarray:
    """The sum of the atoms at the points whose coordinates the per-axis
    arrays ``axes`` give by broadcasting: a window's axes, each shaped along
    its own dimension, or the flat coordinates of a list of points.  Each
    point goes through the same operations in the same order either way,
    so the same point reads the same bits."""
    shape = np.broadcast_shapes(*(ax.shape for ax in axes))
    logs = [_axis_logs(ax) for ax in axes]
    total = np.zeros(shape, dtype=np.float64)
    # whole-window arrays are updated in place: the same operations in the
    # same order, without a fresh temporary per step
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        for atom in atoms:
            # add exponents, then exponentiate once, so that saturated
            # per-factor values cannot meet as inf * 0 = nan
            log2mag = np.zeros(shape)
            for factor, axis in zip(atom.factors, logs):
                log2mag += _factor_log2_on_axis(factor, axis)
            if atom.radial_pow:
                sq = np.zeros(shape)
                for ax in axes:
                    sq += ax**2
                np.log2(sq, out=sq)
                sq *= 0.5 * float(atom.radial_pow)
                log2mag += sq
                del sq  # one window-sized array fewer while exp2 runs
            np.clip(log2mag, -1100.0, 1100.0, out=log2mag)
            np.exp2(log2mag, out=log2mag)
            log2mag *= float(atom.coeff)
            total += log2mag
    return total


def _grid_values(piece: Piece, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and sup-norm radii of a piece on its window, as flat arrays."""
    axes = _grid_axes(piece.sector, radius)
    _check_cap(math.prod(len(ax) for ax in axes))  # before any window-sized array
    axes = [ax.reshape([-1 if i == dim else 1 for i in range(len(axes))])
            for dim, ax in enumerate(axes)]
    values = _point_values(piece.atoms, axes).ravel()
    radii = functools.reduce(np.maximum, map(np.abs, axes)).ravel()
    if isinstance(piece.sector, RadialSector):
        keep = radii > 0
        values, radii = values[keep], radii[keep]
    return values, radii


def _radial_values(atoms: Iterable[Atom], n: np.ndarray) -> np.ndarray:
    """A radial piece with trivial coordinate factors at the squared norms
    n, by :func:`_grid_values`'s operations in its order: its values bit for bit."""
    lg, total = np.log2(n), np.zeros(n.shape)
    with np.errstate(over="ignore", under="ignore"):
        for atom in atoms:
            total += np.exp2(np.clip(lg * (0.5 * atom.radial_pow), -1100.0, 1100.0)) * atom.coeff
    return total


def _radial_shells(piece: Piece, radii: tuple[int, ...], theta_f: float | None) -> list[float]:
    """Shells of a radial piece with trivial coordinate factors: v is a sum
    of powers of n = |k|^2 with positive coefficients, so convex in log n.
    At theta = inf a shell (r', r] reads v at its least and largest n,
    (r' + 1)^2 (1 without the origin) and d r^2.  Otherwise it sums
    v(n)^theta times the exact count of its points at n, the ball counts at
    r less those at r', each an axis's squares convolved d times over the
    reachable n only (exact while (2r + 1)^d <= 2^53)."""
    d = piece.sector.d
    if theta_f is None:
        ends = [[(lo + 1) ** 2 or 1, d * r * r] for lo, r in zip((-1, *radii), radii)]
        return _radial_values(piece.atoms, np.array(ends, dtype=np.float64)).max(axis=1).tolist()
    out, prev_keys, prev = [], np.zeros(0), np.zeros(0)
    for r in radii:
        sq, ways = np.arange(r + 1.0) ** 2, np.where(np.arange(r + 1) > 0, 2.0, 1.0)
        keys, counts = np.zeros(1), np.ones(1)
        for _ in range(d):
            _check_cap(keys.size * sq.size)  # before the outer sum
            keys, inv = np.unique(np.add.outer(keys, sq), return_inverse=True)
            counts = np.bincount(inv.ravel(), np.multiply.outer(counts, ways).ravel())
        delta = counts.copy()
        delta[np.searchsorted(keys, prev_keys)] -= prev
        keep = (delta > 0) & (keys > 0)
        vals = _powered(_radial_values(piece.atoms, keys[keep]), theta_f)
        out.append(float((delta[keep] * vals).sum()))
        prev_keys, prev = keys, counts
    return out


def _product_shells(piece: Piece, radii: tuple[int, ...], theta_f: float | None) -> list[float]:
    """Shells of a single-atom product piece without a radial power, axis
    by axis: a point of the shell (r', r] has a first axis j in the ring
    r' < |x| <= r, the axes before it in the ball r' and those after it in
    the ball r.  Each axis set keeps the max of theta log2 f and the sum of
    2^(theta log2 f - max), so that no inf meets a 0.  At theta = inf the
    maxima add in axis order, as the grid adds a point's exponents; rounded
    addition is monotone, so the largest sum is the grid's max bit for bit."""
    (atom,) = piece.atoms
    n, th = len(radii), 1.0 if theta_f is None else theta_f
    _check_cap((2 * n + 1) * (2 * radii[-1] + 1))  # before the masked axes
    bounds = np.array((-1, *radii), dtype=np.float64)[:, None]
    sets = []  # per axis: (max, scaled sum) over the balls r', the balls r, the rings
    with np.errstate(over="ignore", under="ignore"):
        for f, line in zip(atom.factors, piece.sector.lines):
            ax = _line_axis(line.domain, radii[-1])
            inside = np.abs(ax) <= bounds
            vals = np.where(np.concatenate([inside, inside[1:] & ~inside[:-1]]),
                            th * _factor_log2_on_axis(f, _axis_logs(ax)), -np.inf)
            top = vals.max(axis=1)
            mass = np.exp2(vals - np.where(np.isinf(top), 0.0, top)[:, None]).sum(axis=1)
            sets.append([(top[a:a + n], mass[a:a + n]) for a in (0, 1, n + 1)])
        total = np.zeros(n)
        for j in range(len(sets)):
            parts = [s[0] for s in sets[:j]] + [sets[j][2]] + [s[1] for s in sets[j + 1:]]
            # in axis order, as the grid adds a point's exponents
            exps = functools.reduce(operator.add, (top for top, _ in parts), np.zeros(n))
            if theta_f is None:
                total = np.maximum(total, atom.coeff * np.exp2(np.clip(exps, -1100.0, 1100.0)))
            else:
                total += np.exp2(exps + th * math.log2(atom.coeff)) * np.prod(
                    [mass for _, mass in parts], axis=0)
    return total.tolist()


def _corner_shells(piece: Piece, radii: tuple[int, ...]) -> list[float]:
    """The max of a line or product piece with no positive power on each
    shell (r', r] of the radii, read at corners.

    On each sign class of an axis, {0}, n >= 1 and n <= -1 (|0|^c reads 1),
    a factor 2^(a n) |n|^c with c <= 0 is log-convex; so is each atom, and
    their sum, on a box that keeps one sign class per axis.  A shell is a
    union of boxes j: axis j in the ring, at +-(r'+1), +-r (and +-1 on the
    first shell, whose ring holds 0), the axes before it in the ball r', at
    0, +-1, +-r', those after it in the ball r, at 0, +-1, +-r.  The corners
    in the axis domains, a few repeated, go through :func:`_point_values` in
    one call, so each shell's max is the grid's bit for bit."""
    in_domain = [{"N0": lambda x: x >= 0, "Nneg": lambda x: x < 0, "Z_nonzero": lambda x: x != 0}
                 .get(domain, np.isfinite) for domain in _domains(piece.sector)]
    d = len(in_domain)
    _check_cap(len(radii) * d * 6 * 5 ** (d - 1))  # before the corner lists
    lo, hi = (np.array(x, dtype=np.float64)[:, None] for x in ((-1, *radii[:-1]), radii))
    z, t = np.zeros_like(lo), np.where(lo < 0, 1.0, lo + 1.0)  # the first ring holds +-1 too
    roles = (np.hstack([z, z + 1, z - 1, lo, -lo]),  # an axis before j, in the ball r'
             np.hstack([lo + 1, -lo - 1, hi, -hi, t, -t]),  # axis j, in the ring
             np.hstack([z, z + 1, z - 1, hi, -hi]))  # an axis after j, in the ball r
    picks = [np.indices((5,) * j + (6,) + (5,) * (d - j - 1)).reshape(d, -1) for j in range(d)]
    # per axis, its coordinate at each corner of each box j, shell by shell
    pts = [np.hstack([roles[(i >= j) + (i > j)][:, pick[i]] for j, pick in enumerate(picks)])
           for i in range(d)]
    keep = functools.reduce(operator.and_, (holds(x) for holds, x in zip(in_domain, pts)))
    vals = np.zeros(keep.shape)  # shells hold positive values: 0 is the empty max
    vals[keep] = _point_values(piece.atoms, [x[keep] for x in pts])
    return vals.max(axis=1).tolist()


def _piece_shells(piece: Piece, radii: tuple[int, ...], theta_f: float | None) -> Iterable[float]:
    """A piece off the pair sectors on each shell (r', r] of the radii: its
    sum of theta-powers, or its max at theta = inf, by its structure where
    the three routes above take it, else on its grid, the largest window once."""
    sector, atoms = piece.sector, piece.atoms
    if isinstance(sector, RadialSector):
        if theta_f is None or 1 < sector.d and (2 * radii[-1] + 1) ** sector.d <= 2**53:
            return _radial_shells(piece, radii, theta_f)
    elif sector.dims > 1 and len(atoms) == 1:
        return _product_shells(piece, radii, theta_f)
    elif theta_f is None and all(f.pow_pos <= 0 and f.pow_neg <= 0
                                 for atom in atoms for f in atom.factors):
        return _corner_shells(piece, radii)
    values, pt_radii = _grid_values(piece, radii[-1])
    # shell by shell, as the caller reads them, which may stop on a divergence
    return (_grid_shell(values[(pt_radii > r_prev) & (pt_radii <= r)], theta_f)
            for r_prev, r in zip((-1, *radii), radii))


@np.errstate(over="ignore", under="ignore")
def _grid_shell(vals: np.ndarray, theta_f: float | None) -> float:
    return float(vals.max(initial=0.0) if theta_f is None else _powered(vals, theta_f).sum())


@dataclass
class _RowSum:
    value: float  # the powered sum, or the sup when theta = inf
    unevaluated: bool = False  # the row is past the float range


RowAtom = tuple[float, float, float]


def _row_atoms(piece: Piece, n: int) -> list[RowAtom]:
    """The constants of row n of a pair sector, as floats once per row: per
    atom, the base b = coeff * f0(n), the power c of its m-factor |m|^c,
    and log2 b, which stays finite where b saturates to inf or 0."""
    row = []
    for atom in piece.atoms:
        f0, f1 = atom.factors
        log2_f0 = _log2_factor(f0, n)
        coeff = float(atom.coeff)
        row.append((coeff * pow2f(log2_f0), float(f1.pow_pos), math.log2(coeff) + log2_f0))
    return row


def _row_values(rows: list[list[RowAtom]], lg: np.ndarray) -> np.ndarray:
    """Piece values on rows of a pair sector: row i sums over its atoms, in
    atom order, coeff * f0(n) * |m|^c at the log2|m| that lg[i] holds.

    A base that saturated to inf or 0 adds its log to c log2|m| before the
    one exponentiation, as the grid path sums an atom's exponents first, so
    that it cannot meet a saturated m-term as inf * 0.  Each row's formula
    is a masked assignment, evaluated on no row that does not take it."""
    total = np.zeros(lg.shape)
    with np.errstate(over="ignore", under="ignore"):
        for col in zip(*rows):  # one atom on every row
            base, log2_base = (np.array(x)[:, None] for x in list(zip(*col))[::2])
            log2mag, ok = col[0][1] * lg, (0.0 < base[:, 0]) & (base[:, 0] < math.inf)
            total[ok] += base[ok] * np.exp2(np.clip(log2mag[ok], -1100.0, 1100.0))
            total[~ok] += np.exp2(np.clip(log2mag[~ok] + log2_base[~ok], -1100.0, 1100.0))
    return total


def _powered(vals: np.ndarray, theta_f: float | None) -> np.ndarray:
    if theta_f is None:
        return vals
    with np.errstate(over="ignore", under="ignore"):
        return np.where(vals > 0, vals**theta_f, 0.0)


_LN2 = math.log(2.0)
# B_2k / (2k)! for k = 1..6, the Euler-Maclaurin corrections
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)


def _power_sum(s: float, lo: float, hi: float, log2_coeff: float = 0.0) -> float:
    """2^log2_coeff times the sum of m^s over the integers m in [lo, hi]
    (lo >= 1; hi may be inf, and the sum is then inf for s >= -1).

    The first 16 terms, and for s > 0 the last 16 too, are summed directly,
    so that the largest terms of any power are exact; the rest [a, b] by
    Euler-Maclaurin with six Bernoulli corrections, its integral through
    expm1 from the larger end (accurate near s = -1).  Each term is one
    pow2f of a log2: a saturated coefficient meets no underflow as inf * 0."""
    if math.isinf(hi) and s >= -1.0:
        return math.inf
    hi = hi if math.isinf(hi) else float(math.floor(hi))  # the last integer in range
    if lo > hi:
        return 0.0
    a, b = lo + 16.0, hi - 16.0 if s > 0 else hi
    ms = [lo + i for i in range(int(hi - lo) + 1)] if a > b else (
        [lo + i for i in range(16)] + [hi - i for i in range(16) if s > 0])
    total = sum(pow2f(log2_coeff + s * math.log2(m)) for m in ms)
    if a > b or math.isinf(total):  # the sum is at least each of its terms
        return total
    la, lb = math.log2(a), math.log2(b)
    fa, fb = pow2f(log2_coeff + s * la), pow2f(log2_coeff + s * lb)
    e, span = s + 1.0, _LN2 * (lb - la)  # span = ln(b / a)
    total += (fa + fb) / 2.0 + pow2f(log2_coeff + e * (lb if e > 0 else la)) * (
        span if e == 0 else -math.expm1(-abs(e) * span) / abs(e))
    falling = s  # s (s - 1) ... (s - j + 1), the factor of the j-th derivative
    for j, coeff in zip(range(1, 12, 2), _EM_COEFFS):
        total += coeff * falling * (fb * pow2f(-j * lb) - fa * pow2f(-j * la))
        falling *= (s - j) * (s - j - 1)
    return total


def _half_row(row: list[RowAtom], lo: float, hi: float, theta_f: float) -> float:
    """The sum of t(m)^theta over the integers m in [lo, hi], where t(m) is
    the sum of the row's atoms b_i m^c_i.

    A lone atom is one power sum (:func:`_power_sum`); k atoms at an integer
    theta are the multinomial terms over atom positions.  Other rows sum
    ``_ROW_HEAD`` terms directly and bound the rest by the power mean
    inequality, k^max(theta - 1, 0) sum_i b_i^theta m^(theta c_i), which
    is loose by at most a factor k^|theta - 1|."""
    k = len(row)
    if k == 1:
        return _power_sum(theta_f * row[0][1], lo, hi, theta_f * row[0][2])
    th = int(theta_f)
    if th == theta_f and math.comb(th + k - 1, k - 1) <= _EXPANSION_CAP:
        total = 0.0
        for pick in itertools.combinations_with_replacement(range(k), th):
            ways = math.factorial(th) // math.prod(math.factorial(pick.count(i)) for i in range(k))
            total += _power_sum(sum(row[i][1] for i in pick), lo, hi,
                                math.log2(ways) + sum(row[i][2] for i in pick))
        return total
    top = min(hi, lo + _ROW_HEAD - 1.0)
    lg = np.log2(np.arange(lo, top + 1.0))
    with np.errstate(over="ignore"):
        head = float(_powered(_row_values([row], lg[None])[0], theta_f).sum())
    log2_k = max(theta_f - 1.0, 0.0) * math.log2(k)
    return head + sum(_power_sum(theta_f * c, top + 1.0, hi, log2_k + theta_f * log2_b)
                      for _, c, log2_b in row)


def _pair_rows(piece: Piece, ns: list[int], theta_f: float | None) -> Iterator[_RowSum]:
    """The rows ns of a pair sector in turn: each row's sum of theta-powers,
    or its sup when theta_f is None (theta = inf).

    Row n holds m = 0 where its bound allows it, and lo <= |m| <= hi on
    both signs of m, where t(m) = sum_i b_i |m|^c_i.  Its sum is t(0)^theta
    plus twice :func:`_half_row`, inf on an outside row that diverges.  Its
    sup is the largest of t(0), t(lo) and t(hi), as t is convex in log|m|,
    and inf on an outside row with some c_i > 0.  A row whose bound is past
    the float range (lam*n >= 1024) is not evaluated: it adds nothing and
    is flagged.  The ends m = 0, lo and hi of all rows take one pass of
    :func:`_row_values`; a row's half sums wait until the row is read."""
    sector: PairSector = piece.sector  # type: ignore[assignment]
    lam, rows = sector.lam, []  # per row: None past the float range, else (atoms, zero, lo, hi)
    for n in ns:
        if abs(lam.numerator * n) >= _ROW_LOG2_CAP * lam.denominator:
            rows.append(None)
            continue
        bound = sector.m_bound(n)
        ends = (bound >= 0, 1.0, float(bound)) if sector.side == "inside" else (
            bound <= 0, float(max(bound, 1)), math.inf)
        rows.append((_row_atoms(piece, n), *ends))
    live = [row for row in rows if row]
    held = np.array([(zero, lo <= hi, lo < hi < math.inf) for _, zero, lo, hi in live], dtype=bool)
    # an end that is not in its row reads |m| = 1 and is then cleared
    lg = np.log2(np.array([(1.0, lo, hi if lo < hi < math.inf else 1.0) for *_, lo, hi in live]))
    ends = _powered(_row_values([atoms for atoms, *_ in live], lg.reshape(-1, 3)), theta_f)
    ends[~held.reshape(-1, 3)] = 0.0
    grows = sector.side == "outside" and any(a.factors[1].pow_pos > 0 for a in piece.atoms)
    live_ends = iter(ends)
    for row in rows:
        if row is None:
            yield _RowSum(0.0, True)
            continue
        (atoms, _, lo, hi), row_ends = row, next(live_ends)
        if theta_f is None:
            yield _RowSum(math.inf if grows else float(row_ends.max()))
        else:
            total = float(row_ends[0])  # 0 where the row holds no m = 0
            yield _RowSum(total + 2.0 * _half_row(atoms, lo, hi, theta_f) if lo <= hi else total)


def _pair_shells(piece: Piece, radii: tuple[int, ...],
                 theta_f: float | None) -> Iterator[tuple[float, bool]]:
    """A pair piece on each shell (r', r] of the radii, in turn: the sum of
    its rows r' < |n| <= r in the order n_values gives them (their max at
    theta = inf), and whether one of those rows was left out."""
    shells = [[n for n in piece.sector.n_values(r) if abs(n) > r_prev]
              for r_prev, r in zip((-1, *radii), radii)]
    rows = _pair_rows(piece, [n for ns in shells for n in ns], theta_f)
    for ns in shells:
        sums = list(itertools.islice(rows, len(ns)))
        yield (functools.reduce(max if theta_f is None else operator.add,
                                (row.value for row in sums), 0.0),
               any(row.unevaluated for row in sums))


def _sup_exp_poly(a: float, c: float, lo: float, hi: float, log2_scale: float = 0.0) -> float:
    """2^log2_scale times the sup of 2^(a*j) * j^c over real j in [lo, hi],
    lo >= 1, hi may be inf."""
    if lo > hi:
        return 0.0
    if math.isinf(hi) and (a > 0 or (a == 0 and c > 0)):
        return math.inf
    cands = [lo] if math.isinf(hi) else [lo, hi]
    logs = [a * j + c * math.log2(j) for j in cands]
    if a != 0.0 and lo <= -c / (a * _LN2) <= hi:
        # j* in log space, as it may overflow: log2 j* = log2|c| - log2(|a| ln 2)
        logs.append(-c / _LN2 + c * (math.log2(abs(c)) - math.log2(abs(a)) - math.log2(_LN2)))
    return pow2f(log2_scale + max(logs))


def _sum_exp_poly(a: float, c: float, lo: float, hi: float, log2_scale: float = 0.0) -> float:
    """Upper bound for 2^log2_scale times the sum of 2^(a*j) * j^c over
    integers j in [lo, hi].

    lo >= 1; hi may be inf.  A power (a = 0) is :func:`_power_sum`'s sum.
    Else splitting off half the exponential rate turns the summand into a
    geometric envelope, so the bound is finite exactly when the true series
    converges and the envelope's sum is a float.
    """
    if a == 0:
        return _power_sum(c, lo, hi, log2_scale)
    if lo > hi:
        return 0.0
    if a > 0 and math.isinf(hi):
        return math.inf
    edge = a * (lo if a < 0 else hi) / 2.0
    peak = _sup_exp_poly(a / 2.0, c, lo, hi, log2_scale + edge)
    # 1 - 2^(-|a|/2) by expm1 where the subtraction cancels to 0; a gap
    # still 0 leaves the bound past the float range
    gap = 1.0 - pow2f(-abs(a) / 2.0) or -math.expm1(-abs(a) * _LN2 / 2.0)
    return peak / gap if gap else math.inf


def _pair_tail_bound(piece: Piece, last_radius: int, theta_f: float | None) -> float:
    """Upper bound for the powered mass (sup when theta_f is None) of the
    piece on the rows beyond the last scheduled radius.

    Exponentially widening rows can hide a divergence past any finite
    window; a shell record that looks geometric is only certified when
    this structural bound on the unexplored remainder is finite.  Each part
    adds the exponents of its constant 2^e, coeff^theta and k^theta into its
    one n-sum, so that no factor past the float range turns a small product
    into inf, nor a factor that underflows hides a divergent n-sum.  At
    theta = inf an atom's sup is the largest of its parts', and the atoms'
    sups add.
    """
    sector: PairSector = piece.sector  # type: ignore[assignment]
    wsign = 1 if sector.n_domain == "N0" else -1
    lam = float(sector.lam) * wsign
    shift = sector.shift
    lo = float(last_radius + 1)
    th = 1.0 if theta_f is None else theta_f
    sup_mode = theta_f is None
    mside = _sup_exp_poly if sup_mode else _sum_exp_poly

    inf = math.inf
    # k^theta, as its log2: the power mean inequality for the k atoms' sum
    log2_k = th * math.log2(len(piece.atoms)) if not sup_mode and th > 1.0 else 0.0
    total = 0.0
    for atom in piece.atoms:
        f0, f1 = atom.factors
        if wsign > 0:
            en, fn = th * float(f0.exp2_pos), th * float(f0.pow_pos)
        else:
            en, fn = -th * float(f0.exp2_neg), th * float(f0.pow_neg)
        c_m = th * float(f1.pow_pos)
        # each part bounds a slice of the row mass by
        # mult * 2^e * 2^(de*j) * j^df over rows j in (last_radius, hi_n]:
        # first the m = 0 column, then the parts of one sign of m, which
        # enter once for each sign
        parts: list[tuple[float, ...]] = []
        side: list[tuple[float, ...]] = []
        if sector.side == "inside" and lam > 0:
            kb = math.log2(2.0 + max(shift, 0))  # width <= 2^(lam*j + kb)
            parts.append((1.0, 0.0, 0.0, 0.0, inf))
            if sup_mode and c_m > 0:
                side.append((1.0, kb * c_m, lam * c_m, 0.0, inf))
            elif not sup_mode and c_m > -1.0:
                side.append((1.0 / (c_m + 1.0) + 1.0, kb * (c_m + 1.0), lam * (c_m + 1.0), 0.0, inf))
            elif not sup_mode and c_m == -1.0:
                side.append((1.0 + _LN2 * (kb + lam), 0.0, 0.0, 1.0, inf))
            else:
                side.append((mside(0.0, c_m, 1.0, inf), 0.0, 0.0, 0.0, inf))
        elif sector.side == "inside":
            # width no longer grows along the tail: ceil(2^(lam*n)) = 1 there
            bc = 1 + shift
            if bc >= 0:
                parts.append((1.0, 0.0, 0.0, 0.0, inf))
            if bc >= 1:
                side.append((mside(0.0, c_m, 1.0, float(bc)), 0.0, 0.0, 0.0, inf))
        elif lam > 0:
            if c_m > 0 or (not sup_mode and c_m >= -1.0):
                return inf
            # outside rows keep |m| >= B(j) with B(j) >= 2^(lam*j - 1) once
            # 2^(lam*j) clears twice the negative shift
            n1 = lo
            if shift < 0:
                n1 = max(lo, (1.0 + math.log2(-shift)) / lam)
                parts.append((1.0, 0.0, 0.0, 0.0, math.log2(-shift) / lam))
            if n1 > lo:
                side.append((mside(0.0, c_m, 1.0, inf), 0.0, 0.0, 0.0, n1))
            if sup_mode:
                side.append((1.0, -c_m, lam * c_m, 0.0, inf))
            else:
                side.append((1.0 + 1.0 / (-c_m - 1.0), -(c_m + 1.0), lam * (c_m + 1.0), 0.0, inf))
        else:
            bc = max(1, 1 + shift)
            if shift <= -1:
                parts.append((1.0, 0.0, 0.0, 0.0, inf))
            # the m-sum from bc on as its first term 2^e times the rest, so
            # that it does not underflow at a large theta
            e = c_m * math.log2(bc)
            side.append((mside(0.0, c_m, float(bc), inf, -e), e, 0.0, 0.0, inf))
        parts = [(mult, e, en + de, fn + df, hi_n)
                 for mult, e, de, df, hi_n in parts + side * 2 if hi_n >= lo]
        top = 0.0
        for mult, e, a, c, hi_n in parts:
            grow = mside(a, c, lo, hi_n, e + th * math.log2(atom.coeff) + log2_k)
            if math.isinf(mult) or math.isinf(grow):  # a divergent sum, whatever its factor
                return inf
            if sup_mode:  # the atom's sup is its largest part's, its sum all of theirs
                top = max(top, mult * grow)
            else:
                total += mult * grow
        total += top
    return total


def _grows_exponentially(piece: Piece) -> bool:
    """Whether an atom of a line, product or radial piece has a factor
    2^(a*n) that grows along an unbounded direction of its sector: a > 0
    where n runs to +inf, or a < 0 where n runs to -inf.

    All other factors are positive, so the piece's terms are then unbounded:
    the series is neither summable nor bounded, however tame the window
    looks.
    """
    domains = _domains(piece.sector)
    return any(
        (f.exp2_pos > 0 and dom != "Nneg") or (f.exp2_neg < 0 and dom != "N0")
        for atom in piece.atoms
        for f, dom in zip(atom.factors, domains)
    )


def _radial_tail_diverges(piece: Piece, theta) -> bool:
    """Whether a radial piece sums to inf past every window: its terms are
    sums of c_i |k|^p_i with c_i > 0, so its tail over Z^d behaves like
    |k|^(theta p) for the largest p, and diverges when theta p >= -d (at
    theta = inf, when p > 0), however fast its shells fall inside the window
    while a smaller power leads them."""
    sector = piece.sector
    if not isinstance(sector, RadialSector):
        return False
    top = max(a.radial_pow for a in piece.atoms)
    return top > 0 if theta.is_inf else top >= -sector.d * theta.reciprocal()


def _float_pieces(weight: ExpPolyWeight) -> list[Piece]:
    """The pieces of a weight with every coefficient and exponent read as a
    float, once; the oracle's helpers read these as they would Fractions.
    A number past the float range (float() raises rather than give inf),
    a pair sector's lam among them, or a coefficient that underflows to 0
    raises :class:`UnsupportedWeight`.  So do the atoms the exact decider
    refuses: every atom of a pair sector with lam*n < 0; on a pair sector
    one whose m-factor is not |m|^c with one power c on both signs of m, or
    that carries a radial power; on a radial sector one with a nonzero
    coordinate-factor exponent; elsewhere one that carries a radial power."""
    try:
        for piece in weight.pieces:
            sector = piece.sector
            if isinstance(sector, PairSector):
                float(sector.lam)  # as the tail bound reads it
                if sector.lam and (sector.lam > 0) != (sector.n_domain == "N0"):
                    raise UnsupportedWeight("the numeric oracle takes no pair sector with lam*n < 0")
                if any(m.exp2_pos or m.exp2_neg or m.pow_pos != m.pow_neg or atom.radial_pow
                       for atom in piece.atoms for m in atom.factors[1:]):
                    raise UnsupportedWeight(
                        "on pair sectors the numeric oracle takes only m-factors |m|^c, "
                        "with one power c on both signs of m, and no radial power"
                    )
            elif any(any(map(any, atom.factors)) if isinstance(sector, RadialSector)
                     else atom.radial_pow for atom in piece.atoms):
                raise UnsupportedWeight(
                    "the numeric oracle takes radial powers only on radial sectors, "
                    "and there no coordinate factor"
                )
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
    (:func:`_float_pieces`), which raises :class:`UnsupportedWeight` for the
    atoms the exact decider refuses.  Other pieces take every shell at
    once (:func:`_piece_shells`): radial pieces by their squared norms (at
    a finite theta from d = 2 on), single-atom products of two or more
    axes axis by axis, and at theta = inf lines and products with no
    positive power at corners; the rest on (2R + 1)^d grid points under
    the window cap.  Pair sectors are summed row by row
    (:func:`_pair_shells`), each row in closed form or, for several atoms at
    a non-integer theta, as a direct head plus a bound on the rest.  At
    theta = inf every shell, every row and the running partial "sum" are
    maxima: a row reports its sup and a shell the largest of its rows.

    Declares Divergent when partial sums exceed ``BLOWUP_THRESHOLD`` or
    grow by at least ``GROWTH_FACTOR`` between the last two radii, unless
    a pair sector's structural bound on the rows past the window is
    finite.  Declares Convergent, with a tail bound, when the per-shell
    contributions over the last three radii decay with ratio at most
    ``SHELL_RATIO`` (theta = inf: stop raising the running max), no row
    past the float range was left out, the structural bound is finite and
    no piece off the pair sectors grows exponentially along an unbounded axis
    (:func:`_grows_exponentially`; such a term can fall across the whole
    window and still blow up past it) or is a radial power sum whose
    largest power diverges past the window (:func:`_radial_tail_diverges`).
    Everything else is Inconclusive.  The radii are :func:`default_radii` of
    the weight's dimension and sectors, so the result is a function of
    (weight, theta) alone.

    So the last ``ORACLE_MEMO_SIZE`` classifications are kept, each with
    the window counts its run passed to the cap, in order, which every
    read passes to the cap again: under any ``DECOMP_EMBED_MAX_WINDOW`` a
    kept one answers, or raises the first error, as a fresh run would.  A
    refusal is not kept.  Every caller of a pair shares one frozen result.
    """
    tail, counts = _classified(weight, theta)
    for count in counts:
        check_window_cap(count)
    return tail


@functools.lru_cache(maxsize=ORACLE_MEMO_SIZE)
def _classified(weight: ExpPolyWeight, theta) -> tuple[TailClassification, tuple[int, ...]]:
    """:func:`_classify` with the counts its run passed to the cap."""
    counts: list[int] = []
    token = _CAP_COUNTS.set(counts)
    try:
        return _classify(weight, theta), tuple(counts)
    finally:
        _CAP_COUNTS.reset(token)


def _classify(weight: ExpPolyWeight, theta) -> TailClassification:
    """The classification of :func:`truncated_oracle`, run afresh."""
    pieces = _float_pieces(weight)
    has_pair = any(isinstance(p.sector, PairSector) for p in pieces)
    # no pieces is the zero sequence, which every window sums to 0
    dims = max((p.sector.dims for p in pieces), default=1)
    radii = default_radii(dims, has_pair)
    if has_pair:
        inside = [p.sector for p in pieces
                  if isinstance(p.sector, PairSector) and p.sector.side == "inside"]

        def fits(r: int) -> bool:
            # from lam*n >= 17 on a row holds 2^18 > cap values of m
            return all(sec.lam.numerator * n < 17 * sec.lam.denominator
                       and 2 * sec.m_bound(n) + 1 <= _INSIDE_ROW_CAP
                       for sec in inside for n in [-r if sec.n_domain == "Nneg" else r])

        radii = tuple(itertools.takewhile(fits, radii)) or radii[:1]
    theta_f = None if theta.is_inf else float(theta)

    # a shell, a row and the running partial "sum" add, or take maxima at inf
    combine = max if theta_f is None else operator.add
    # per piece, its shells in radius order, each with whether a row was left out
    shell_iters = [_pair_shells(piece, radii, theta_f) if isinstance(piece.sector, PairSector)
                   else zip(_piece_shells(piece, radii, theta_f), itertools.repeat(False))
                   for piece in pieces]

    def pair_tail(radius: int) -> float:
        """Structural bound for the mass past ``radius``; see _pair_tail_bound."""
        return functools.reduce(combine, (_pair_tail_bound(p, radius, theta_f) for p in pieces
                                          if isinstance(p.sector, PairSector)), 0.0)

    partials: list[float] = []
    shells: list[float] = []
    flagged_any = False
    running = 0.0
    for r in radii:
        shell_total = 0.0
        for value, left_out in map(next, shell_iters):
            shell_total = combine(shell_total, value)
            flagged_any = flagged_any or left_out
        running = combine(running, shell_total)
        shells.append(shell_total)
        partials.append(running)
        if not math.isfinite(running) or running > BLOWUP_THRESHOLD:
            # row masses on pair sectors can hump upward well inside a
            # convergent sum; a finite structural tail overrules the gate
            if not (has_pair and math.isfinite(pair_tail(r))):
                return TailClassification("Divergent", r, partial_sum=running, growth=math.inf)
    last_radius = radii[-1]

    if len(partials) >= 2 and partials[-2] > 0:
        g = partials[-1] / partials[-2]
        if g >= GROWTH_FACTOR and not (has_pair and math.isfinite(pair_tail(last_radius))):
            return TailClassification("Divergent", last_radius, partial_sum=partials[-1], growth=g)

    # decaying shells certify nothing about the rows an exponentially
    # widening pair sector keeps past the window; bound those structurally
    beyond = pair_tail(last_radius)

    grows = any(_grows_exponentially(p) or _radial_tail_diverges(p, theta)
                for p in weight.pieces if not isinstance(p.sector, PairSector))
    if len(shells) >= RATIO_WINDOW and not flagged_any and not grows and math.isfinite(beyond):
        window = shells[-RATIO_WINDOW:]
        steps = list(zip(window, window[1:]))
        if theta_f is None:
            # sup semantics: certify boundedness when newer shells stop
            # raising the running max (monotone tail within fp slack)
            if all(cur <= prev * (1.0 + 1e-12) for prev, cur in steps):
                return TailClassification("Convergent", last_radius, partial_sum=partials[-1],
                                          tail_bound=max(window[-1], beyond))
        elif not any(prev <= 0.0 < cur for prev, cur in steps):
            ratio_max = max((cur / prev for prev, cur in steps if prev > 0.0), default=0.0)
            if ratio_max <= SHELL_RATIO:
                tail = window[-1] * ratio_max / (1.0 - ratio_max) if ratio_max > 0 else 0.0
                return TailClassification("Convergent", last_radius, partial_sum=partials[-1],
                                          tail_bound=tail + beyond)

    return TailClassification("Inconclusive", last_radius, partial_sum=partials[-1])
