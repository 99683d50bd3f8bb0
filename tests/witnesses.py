"""Numeric witnesses that only the tests read.

The pointwise evaluation of an exp-poly weight (sector membership, the
value of a weight at a lattice point, and each family's map from covering
indices to lattice points), the two directions of the weighted sequence
embedding (a Hoelder constant for the positive one, a growing witness
family for the negative one), the finite windows of a weight's sectors
that they sum over, the numeric covering weight w^(t) and its agreement
report against a family's closed form, the Gaussian matrix inverse that
the covering constants are checked against, and the per-pair
separating-axis test that the polygon kernel is checked against.  The
library's decisions never evaluate them; the tests check the exact
decider, the numeric oracle, the closed forms, the constants and the
polygon kernel against them.  This module keeps its own float helpers
and imports nothing from :mod:`decomp_embed.oracle`, so a fault in the
oracle's helpers cannot pass on both sides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import pytest

from decomp_embed.covering import (
    _FLOAT_GAP_TOL,
    Covering,
    Index,
    PolygonSet,
    _log_pow,
    mat_det,
    spectral_norm,
)
from decomp_embed.errors import UnsupportedWeight
from decomp_embed.exponents import ExtExponent, compound
from decomp_embed.seqspace import (
    Atom,
    CoordFactor,
    ExpPolyWeight,
    LineSector,
    PairSector,
    ProductSector,
    RadialSector,
    Sector,
)

EXACT_TOLERANCE = 1e-9

# Every warning fails a test with this mark, except the DeprecationWarning
# that hypothesis's failure report raises through mypy_extensions: under a
# bare "error" filter it turns one failing example into a pytest
# INTERNALERROR that ends the whole run.
WARNINGS_AS_ERRORS = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def pow2f(x: float) -> float:
    """2**x in float, saturating instead of raising OverflowError."""
    if x >= 1024.0:  # 2.0 ** x raises from 2^1024 on
        return math.inf
    if x < -1100.0:
        return 0.0
    return 2.0 ** x


def log2_value(factor: CoordFactor, n: int) -> float:
    """log2 of the coordinate factor at n; |0|^c reads as 1."""
    if n >= 0:
        a, c = factor.exp2_pos, factor.pow_pos
    else:
        a, c = factor.exp2_neg, factor.pow_neg
    out = float(a) * n
    if c and n != 0:
        out += float(c) * math.log2(abs(n))
    return out


def _atom_value(atom: Atom, pt: tuple[int, ...]) -> float:
    # sum exponents before exponentiating: saturated per-factor values
    # would otherwise meet as inf * 0 = nan on steep mixed-rate atoms
    log2mag = 0.0
    for factor, n in zip(atom.factors, pt):
        log2mag += log2_value(factor, n)
    if atom.radial_pow:
        rr = math.sqrt(sum(n * n for n in pt))
        if rr == 0.0:
            return float(atom.coeff) * pow2f(log2mag) * rr ** float(atom.radial_pow)
        log2mag += float(atom.radial_pow) * math.log2(rr)
    return float(atom.coeff) * pow2f(log2mag)


def contains(where, pt: tuple[int, ...]) -> bool:
    """Whether the lattice point lies in a sector, or in some piece of a weight."""
    if isinstance(where, ExpPolyWeight):
        return any(contains(piece.sector, pt) for piece in where.pieces)
    if isinstance(where, LineSector):
        (n,) = pt
        if where.domain == "N0":
            return n >= 0
        if where.domain == "Nneg":
            return n <= -1
        if where.domain == "Z_nonzero":
            return n != 0
        return True
    if isinstance(where, ProductSector):
        return len(pt) == where.dims and all(
            contains(line, (n,)) for line, n in zip(where.lines, pt)
        )
    if isinstance(where, RadialSector):
        return len(pt) == where.d and any(n != 0 for n in pt)
    n, m = pt  # a PairSector
    if where.n_domain == "N0" and n < 0:
        return False
    if where.n_domain == "Nneg" and n >= 0:
        return False
    bound = where.m_bound(n)
    if where.side == "inside":
        return abs(m) <= bound
    return abs(m) >= bound


def evaluate(weight: ExpPolyWeight, pt: tuple[int, ...]) -> float:
    """The weight at a lattice point: the sum of the atoms of the first piece
    whose sector holds it."""
    for piece in weight.pieces:
        if contains(piece.sector, pt):
            return sum(_atom_value(atom, pt) for atom in piece.atoms)
    raise ValueError(f"point {pt} lies in no piece of this weight")


def to_point(family: str, index: Index) -> Optional[tuple]:
    """The lattice point of the family's closed form at a covering index, or
    None for an index that carries no asymptotic content."""
    if family == "shearlet_smoothness":
        return None if index == (0,) else index[:2]
    if family == "shearlet_coorbit":
        return index[:2]
    if family == "diagonal":
        # (k_1..k_d, eps_1..eps_d): the signs collapse onto the k lattice
        return index[: len(index) // 2]
    return index


# ---------------------------------------------------------------------------
# finite windows of the sectors
# ---------------------------------------------------------------------------

def coord_values(line: LineSector, radius: int) -> list[int]:
    if line.domain == "N0":
        return list(range(0, radius + 1))
    if line.domain == "Nneg":
        return list(range(-radius, 0))
    vals = list(range(-radius, radius + 1))
    if line.domain == "Z_nonzero":
        vals.remove(0)
    return vals


def iter_window(sector: Sector, radius: int) -> Iterator[tuple[int, ...]]:
    if isinstance(sector, LineSector):
        for n in coord_values(sector, radius):
            yield (n,)
    elif isinstance(sector, ProductSector):
        axes = [coord_values(line, radius) for line in sector.lines]
        yield from itertools.product(*axes)
    elif isinstance(sector, RadialSector):
        rng = range(-radius, radius + 1)
        for pt in itertools.product(*([rng] * sector.d)):
            if any(n != 0 for n in pt):
                yield pt
    elif isinstance(sector, PairSector):
        if sector.side == "outside":
            raise UnsupportedWeight(
                "outside pair sectors have unbounded rows; no finite window"
            )
        for n in sector.n_values(radius):
            bound = sector.m_bound(n)
            for m in range(-bound, bound + 1):
                yield (n, m)


def iter_points(weight: ExpPolyWeight, radius: int) -> Iterator[tuple[int, ...]]:
    for piece in weight.pieces:
        yield from iter_window(piece.sector, radius)


# ---------------------------------------------------------------------------
# the two directions of the sequence embedding, numerically
# ---------------------------------------------------------------------------

def sequence_norm(
    values: dict[tuple[int, ...], float],
    weight: ExpPolyWeight,
    p,
) -> float:
    """The weighted l^p norm of a finitely supported sequence."""
    terms = [evaluate(weight, pt) * abs(c) for pt, c in values.items()]
    if p.is_inf:
        return max(terms, default=0.0)
    pf = float(p)
    return sum(t**pf for t in terms) ** (1.0 / pf)


def holder_constant(u: ExpPolyWeight, v: ExpPolyWeight, r, s, radius: int) -> float:
    """The l^theta norm of u/v over the window, theta = compound(s, r).

    This is the constant of the positive direction: for sequences
    supported in the window, the weighted l^s norm against u is at most
    this constant times the weighted l^r norm against v.
    """
    theta = compound(s, r)
    ratios = [
        evaluate(u, pt) / evaluate(v, pt) for pt in dict.fromkeys(iter_points(u, radius))
    ]
    if theta.is_inf:
        return max(ratios, default=0.0)
    tf = float(theta)
    return sum(x**tf for x in ratios) ** (1.0 / tf)


def witness_norm_ratios(
    u: ExpPolyWeight,
    v: ExpPolyWeight,
    r,
    s,
    radii: Sequence[int] = (4, 8, 16),
) -> list[tuple[int, float]]:
    """Norm ratios of the canonical witness family across window radii.

    When u/v fails membership at the compound exponent, the sequence
    c = (u/v)^(theta/s) / u (for finite theta; a scaled delta at the
    worst index when theta is infinite) drives the ratio of the two
    weighted norms to infinity; callers check the growth across radii.
    """
    theta = compound(s, r)
    out = []
    for radius in radii:
        points = list(dict.fromkeys(iter_points(u, radius)))
        if theta.is_inf:
            ratio = max(evaluate(u, pt) / evaluate(v, pt) for pt in points)
        else:
            beta = float(theta) / float(s)
            coeffs = {
                pt: (evaluate(u, pt) / evaluate(v, pt)) ** beta / evaluate(u, pt)
                for pt in points
            }
            num = sequence_norm(coeffs, u, s)
            den = sequence_norm(coeffs, v, r)
            ratio = num / den if den > 0 else math.inf
        out.append((radius, ratio))
    return out


# ---------------------------------------------------------------------------
# the numeric covering weight against a closed form
# ---------------------------------------------------------------------------

def reciprocal_gap(s: ExtExponent, r: ExtExponent) -> Fraction:
    """1/s - 1/r as an exact Fraction, with 1/inf = 0."""
    return s.reciprocal() - r.reciprocal()


@dataclass(frozen=True)
class CoveringWeight:
    """Numeric weight ``i -> |det T_i|^(1/p - 1/t) * (1 + |b_i|^k + ||T_i||^k)``.

    The reference for the families' closed forms of w^(t); at k = 0, p = 1
    and t = 2 it is the probe of ``verify-family``
    (:func:`decomp_embed.covering.probe_weight`), and the determinant power
    goes through the same ``_log_pow``.
    """

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


def mat_inverse(a: Sequence[Sequence]) -> tuple:
    """Inverse by Gaussian elimination; exact when the entries are exact."""
    n = len(a)
    exact = all(isinstance(v, (int, Fraction)) for row in a for v in row)
    cast = Fraction if exact else float
    aug = [[cast(a[i][j]) for j in range(n)] + [cast(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise ZeroDivisionError("singular transform")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = aug[col][col]
        aug[col] = [v / inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def polygons_intersect(a: PolygonSet, b: PolygonSet) -> tuple[bool, bool]:
    """The separating-axis test that recomputes every projection per pair.

    The reference for ``covering._polygons_intersect``, which builds each
    polygon's axes once: exact vertices are scaled to one integer lattice,
    the lcm of every denominator of the pair, and compared with no
    tolerance; any float vertex sends the pair to the raw vertices with the
    tolerance ``_FLOAT_GAP_TOL`` times the largest |coordinate| of the pair.
    """
    def project(verts, axis):
        vals = [v[0] * axis[0] + v[1] * axis[1] for v in verts]
        return min(vals), max(vals)

    coords = [x for v in a.vertices + b.vertices for x in v]
    exact = all(isinstance(x, (int, Fraction)) for x in coords)
    if exact:
        lattice = math.lcm(*(Fraction(x).denominator for x in coords))
        verts_a, verts_b = (
            [tuple(int(x * lattice) for x in v) for v in p.vertices] for p in (a, b)
        )
        tol = 0
    else:
        verts_a, verts_b = a.vertices, b.vertices
        tol = _FLOAT_GAP_TOL * max(1.0, *(abs(float(x)) for x in coords))
    certain = True
    for verts in (verts_a, verts_b):
        for k in range(len(verts)):
            p, q = verts[k], verts[(k + 1) % len(verts)]
            axis = (q[1] - p[1], p[0] - q[0])
            if axis[0] == 0 and axis[1] == 0:
                continue
            lo_a, hi_a = project(verts_a, axis)
            lo_b, hi_b = project(verts_b, axis)
            if hi_a <= lo_b - tol or hi_b <= lo_a - tol:
                return False, True
            if not exact and (hi_a <= lo_b + tol or hi_b <= lo_a + tol):
                certain = False
    return True, certain


def build_weight(covering: Covering, *, k: int, p, t) -> CoveringWeight:
    return CoveringWeight(covering, k, ExtExponent(p), ExtExponent(t))


def agreement_report(
    weight: CoveringWeight,
    symbolic: ExpPolyWeight,
    indices: Iterable[Index],
    *,
    family: str,
    mode: str = "exact",
) -> dict:
    """Compare the covering evaluator of ``family`` against a closed-form
    lattice weight.

    ``mode="exact"`` demands agreement to ``EXACT_TOLERANCE`` relative error;
    ``mode="ratio"`` only records the envelope of numeric/symbolic ratios and
    calls the pair consistent when the envelope is finite and positive.
    Indices that :func:`to_point` maps to ``None`` are skipped; they carry no
    asymptotic information.
    """
    if mode not in ("exact", "ratio"):
        raise ValueError(f"unknown comparison mode {mode!r}")
    worst = 0.0
    lo = math.inf
    hi = 0.0
    count = 0
    for index in indices:
        point = to_point(family, index)
        if point is None:
            continue
        num = weight.evaluate(index)
        sym = evaluate(symbolic, point)
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
