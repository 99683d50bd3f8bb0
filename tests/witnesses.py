"""Numeric witnesses that only the tests read.

The two directions of the weighted sequence embedding (a Hoelder constant
for the positive one, a growing witness family for the negative one), the
finite windows of a weight's sectors that they sum over, and the agreement
report between the numeric covering weight and a family's closed form.
The library's decisions never evaluate them; the tests check the exact
decider and the closed forms against them.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence

from decomp_embed.covering import Index
from decomp_embed.errors import UnsupportedWeight
from decomp_embed.exponents import compound
from decomp_embed.seqspace import (
    ExpPolyWeight,
    LineSector,
    PairSector,
    ProductSector,
    RadialSector,
    Sector,
)
from decomp_embed.weights import CoveringWeight

EXACT_TOLERANCE = 1e-9


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
    terms = [weight.evaluate(pt) * abs(c) for pt, c in values.items()]
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
        u.evaluate(pt) / v.evaluate(pt) for pt in dict.fromkeys(iter_points(u, radius))
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
            ratio = max(u.evaluate(pt) / v.evaluate(pt) for pt in points)
        else:
            beta = float(theta) / float(s)
            coeffs = {
                pt: (u.evaluate(pt) / v.evaluate(pt)) ** beta / u.evaluate(pt)
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
