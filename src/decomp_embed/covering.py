"""Structured coverings of frequency space.

A covering is a family of sets Q_i = T_i Q'_i + b_i whose windows of
indices, maps and base sets are defined by the family.  This module
provides exact intersection tests for the supported base-set shapes
(balls, boxes, origin-centered annuli and convex polygons), custom
coverings, adjacency structure, and the empirical structure constants
used as evidence: the neighbor count N_hat, the transition norm C_hat
and the base-set radius R_hat.

Geometry is exact whenever every matrix entry, offset and set parameter
is rational; numeric fallbacks are flagged through the ``certain`` bits
so that downstream evidence never silently claims tightness it does not
have.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, le, mul, neg, sub
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import (
    InvalidParams,
    MissingTightnessWitness,
    SchemaError,
    UnsupportedGeometry,
    check_window_cap,
)
from .exponents import int_from_json, rational_from_json

__all__ = [
    "BallSet",
    "BoxSet",
    "AnnulusSet",
    "PolygonSet",
    "Covering",
    "cone_trapezoid",
    "adjacency",
    "placements",
    "neighbors",
    "certify_constants",
    "check_moderate",
    "probe_weight",
    "norm_surrogate_check",
    "spectral_norm",
    "mat_det",
    "mat_mul",
    "transform_base",
    "sets_intersect",
    "base_set_from_json",
    "custom_covering_from_json",
]

Scalar = Union[int, float, Fraction]
Vec = tuple[Scalar, ...]
Mat = tuple[Vec, ...]
Index = tuple[int, ...]

_FLOAT_GAP_TOL = 1e-9


def _is_exact(*values: object) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


@contextmanager
def _in_float_range(covering: Covering, radius: int) -> Iterator[None]:
    """Report a float overflow in derived geometry as UnsupportedGeometry."""
    try:
        yield
    except OverflowError as exc:
        raise UnsupportedGeometry(
            f"covering {covering.label!r} at radius {radius} leaves the float range: {exc.args[-1]}"
        ) from exc


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def _integer_scaled(a: Mat) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(A, s) with a == A / s exactly, A an integer matrix and s the lcm of the
    entry denominators; ``as_integer_ratio`` reads int, Fraction and finite
    float entries exactly."""
    ratios = [[x.as_integer_ratio() for x in row] for row in a]
    s = math.lcm(*(d for row in ratios for _, d in row))
    return tuple(tuple(n * (s // d) for n, d in row) for row in ratios), s


def mat_vec(a: Mat, x: Vec) -> Vec:
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in a)


def _det_adj(a: tuple[tuple[int, ...], ...]) -> tuple[int, Mat]:
    """(det a, adj a) of an integer matrix, a times adj a being det a times the
    identity: the closed form at 2 x 2, else fraction-free Gauss-Jordan
    (Bareiss) elimination of (a | id), whose every division is exact, in
    O(n^3) integer operations.  A singular matrix has adjugate None."""
    n = len(a)
    if n == 2:
        (p, q), (r, s) = a
        return p * s - q * r, ((s, -q), (-r, p))
    m = [[*row, *(int(c == k) for c in range(n))] for k, row in enumerate(a)]
    sign = prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        top = m[k]
        for r in range(n):
            if r != k:
                f = m[r][k]
                m[r] = [(top[k] * x - f * y) // prev for x, y in zip(m[r], top)]
        prev = top[k]
    # (a | id) is now (prev id | prev a^-1) with prev = sign * det a
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in m)


def mat_det(a: Mat) -> Scalar:
    """The determinant, exact when the entries are: the closed forms up to
    2 x 2, from 3 x 3 on ``_det_adj`` on the integer-scaled matrix.  A float
    matrix keeps the rounding cofactor expansion gave it where that is one
    order of products, the right-nested product of a diagonal; any other is
    its exact determinant, rounded once."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    exact = _is_exact(*itertools.chain(*a))
    if not exact and _is_diagonal(a):
        return functools.reduce(lambda acc, x: x * acc, [a[k][k] for k in reversed(range(n))])
    ints, s = _integer_scaled(a)
    det = Fraction(_det_adj(ints)[0], s**n)
    return det if exact else float(det)


# m^T m needs the 4th power of the largest entry to stay a normal float, so a
# matrix outside 2^+-_NORM_SAFE_EXP is first scaled by a power of two (exact).
_NORM_SAFE_EXP = 240


def spectral_norm(a: Mat) -> float:
    """The operator 2-norm, the root of the largest eigenvalue of m^T m.

    Entries are read with ``float()``: a non-square matrix or a non-number
    entry raises ValueError, and a norm past the float range OverflowError.
    Cyclic Jacobi rotations need no start vector and keep a diagonal m^T m
    as it is, so a (permuted) diagonal matrix has norm exactly max |entry|.
    """
    try:
        m = tuple(tuple(map(float, row)) for row in a)
    except TypeError:
        m = ()
    if not m or any(len(row) != len(m) for row in m):
        raise ValueError("spectral_norm expects a square matrix of numbers")
    _, exp = math.frexp(max(abs(x) for row in m for x in row))
    if abs(exp) > _NORM_SAFE_EXP:
        scaled = tuple(tuple(math.ldexp(x, -exp) for x in row) for row in m)
        return math.ldexp(spectral_norm(scaled), exp)
    g = [list(row) for row in mat_mul(tuple(zip(*m)), m)]
    # an entry below eps * sqrt(g_pp g_qq) moves no eigenvalue by more than eps
    # times the largest; the sweep cap only bounds non-finite input
    for _ in range(50):
        rotated = False
        for p, q in itertools.combinations(range(len(g)), 2):
            if abs(g[p][q]) <= sys.float_info.epsilon * math.sqrt(abs(g[p][p] * g[q][q])):
                continue
            rotated = True
            theta = (g[q][q] - g[p][p]) / (2.0 * g[p][q])
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            for row in g:
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
            g[p], g[q] = ([c * x - s * y for x, y in zip(g[p], g[q])],
                          [s * x + c * y for x, y in zip(g[p], g[q])])
            g[p][q] = g[q][p] = 0.0
        # a 2x2 matrix is diagonal after its one rotation
        if not rotated or len(g) == 2:
            break
    return math.sqrt(max(row[k] for k, row in enumerate(g)))


# ---------------------------------------------------------------------------
# base sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallSet:
    """Open Euclidean ball."""

    center: Vec
    radius: Scalar

    @property
    def dim(self) -> int:
        return len(self.center)

    def sup_norm(self) -> float:
        c = math.sqrt(float(sum(x * x for x in self.center)))
        return c + float(self.radius)

    def bounding_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        c = [float(x) for x in self.center]
        r = float(self.radius)
        return tuple(x - r for x in c), tuple(x + r for x in c)


@dataclass(frozen=True)
class BoxSet:
    """Open axis-parallel box, supported on rational coordinates only."""

    lo: Vec
    hi: Vec

    @property
    def dim(self) -> int:
        return len(self.lo)

    def sup_norm(self) -> float:
        # the farthest corner takes the larger square on every axis: squares,
        # sums, float() and sqrt are monotone, so this is its rounded norm
        return math.sqrt(float(sum(max(lo * lo, hi * hi) for lo, hi in zip(self.lo, self.hi))))

    def bounding_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return tuple(float(x) for x in self.lo), tuple(float(x) for x in self.hi)

    @cached_property
    def _lattice(self) -> tuple[tuple[tuple[int, ...], ...], int] | None:
        """((s * lo, s * hi), s) as ints, s the lcm of the coordinate
        denominators, as polygons keep theirs; None when one is a float."""
        exact = _is_exact(*self.lo, *self.hi)
        return _integer_scaled((self.lo, self.hi)) if exact else None


@dataclass(frozen=True)
class AnnulusSet:
    """Open annulus inner < |x| < outer, centered at the origin."""

    dim_: int
    inner: Scalar
    outer: Scalar

    @property
    def dim(self) -> int:
        return self.dim_

    def sup_norm(self) -> float:
        return float(self.outer)

    def bounding_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        r = float(self.outer)
        return (-r,) * self.dim_, (r,) * self.dim_


@dataclass(frozen=True)
class PolygonSet:
    """Open convex polygon in the plane, given by its vertices in order."""

    vertices: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return 2

    def sup_norm(self) -> float:
        return max(math.sqrt(float(x * x + y * y)) for x, y in self.vertices)

    def bounding_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        xs = [float(v[0]) for v in self.vertices]
        ys = [float(v[1]) for v in self.vertices]
        return (min(xs), min(ys)), (max(xs), max(ys))

    @cached_property
    def _lattice(self) -> tuple[tuple[tuple[int, ...], ...], int] | None:
        """(s * vertices, s) as ints, s the lcm of the vertex denominators;
        None when a coordinate is a float."""
        exact = _is_exact(*itertools.chain(*self.vertices))
        return _integer_scaled(self.vertices) if exact else None

    @cached_property
    def _lattice_axes(self) -> tuple[tuple[int, ...], ...]:
        return _edge_axes(self._lattice[0])

    @cached_property
    def _float_axes(self) -> tuple[tuple[tuple[Scalar, ...], ...], float]:
        """Axes on the raw vertices, and the largest |coordinate|."""
        return _edge_axes(self.vertices), max(abs(float(x)) for v in self.vertices for x in v)


BaseSet = Union[BallSet, BoxSet, AnnulusSet, PolygonSet]


def cone_trapezoid(
    x_lo: Scalar, x_hi: Scalar, slope_lo: Scalar, slope_hi: Scalar
) -> PolygonSet:
    """The trapezoid x in (x_lo, x_hi), y/x in (slope_lo, slope_hi)."""
    return PolygonSet(
        (
            (x_lo, x_lo * slope_lo),
            (x_hi, x_hi * slope_lo),
            (x_hi, x_hi * slope_hi),
            (x_lo, x_lo * slope_hi),
        )
    )


def _json_list(raw: object, parse: Callable, length: int | None = None) -> tuple:
    """Parse every entry of a JSON list; raise ValueError on any other shape."""
    if not isinstance(raw, list) or (length is not None and len(raw) != length):
        size = "a list" if length is None else f"a list of {length}"
        raise ValueError(f"expected {size}, got {raw!r}")
    return tuple(parse(x) for x in raw)


def _float_rational(obj: object) -> Fraction:
    """A rational literal of a covering document, whose value a float holds."""
    value = rational_from_json(obj)
    try:
        float(value)
    except OverflowError:
        raise ValueError("a number is outside the float range") from None
    return value


def _rat_pair(raw: object) -> tuple:
    return _json_list(raw, _float_rational, 2)


def _is_degenerate(base: BaseSet) -> bool:
    """Whether an open base set is empty, flat, or an annulus with inner < 0."""
    if isinstance(base, BallSet):
        return base.radius <= 0
    if isinstance(base, BoxSet):
        return any(lo >= hi for lo, hi in zip(base.lo, base.hi))
    if isinstance(base, AnnulusSet):
        return not 0 <= base.inner < base.outer
    verts = base.vertices
    return sum(
        p[0] * q[1] - p[1] * q[0] for p, q in zip(verts, verts[1:] + verts[:1])
    ) == 0


def base_set_from_json(doc: object) -> BaseSet:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise SchemaError(f"not a base-set descriptor: {doc!r}")
    (kind, body), = doc.items()
    if not isinstance(body, dict):
        raise SchemaError(f"bad base-set descriptor: {doc!r}")
    base = None
    try:
        if kind == "ball":
            base = BallSet(
                _json_list(body["center"], _float_rational),
                _float_rational(body["radius"]),
            )
        elif kind == "box":
            lo = _json_list(body["lo"], _float_rational)
            base = BoxSet(lo, _json_list(body["hi"], _float_rational, len(lo)))
        elif kind == "annulus":
            base = AnnulusSet(
                int_from_json(body.get("dim", 1)),
                _float_rational(body["inner"]),
                _float_rational(body["outer"]),
            )
        elif kind == "polygon":
            vertices = _json_list(body["vertices"], _rat_pair)
            if len(vertices) >= 3:
                base = PolygonSet(vertices)
        elif kind == "cone_trapezoid":
            base = cone_trapezoid(*_rat_pair(body["x"]), *_rat_pair(body["slope"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad base-set descriptor: {doc!r}") from exc
    if base is None:
        if kind == "polygon":
            raise SchemaError("a polygon base set needs at least 3 vertices")
        raise SchemaError(f"unknown base-set kind {kind!r}")
    if _is_degenerate(base):
        raise SchemaError(f"base set {doc!r} is empty or degenerate")
    return base


# ---------------------------------------------------------------------------
# transforms into normal form
# ---------------------------------------------------------------------------

def _is_similarity(t: Mat) -> Scalar | None:
    """The scale s >= 0 with t^T t == s^2 * id, or None if t is not one."""
    d = len(t)
    g = mat_mul(tuple(zip(*t)), t)
    s2 = g[0][0]
    for i in range(d):
        for j in range(d):
            if i == j and g[i][j] != s2:
                return None
            if i != j and g[i][j] != 0:
                return None
    if _is_exact(s2):
        fr = Fraction(s2)
        rn, rd = math.isqrt(fr.numerator), math.isqrt(fr.denominator)
        if rn * rn == fr.numerator and rd * rd == fr.denominator:
            return Fraction(rn, rd)
    return math.sqrt(float(s2))


def _is_diagonal(t: Mat) -> bool:
    return all(t[i][j] == 0 for i in range(len(t)) for j in range(len(t)) if i != j)


def transform_base(base: BaseSet, t: Mat, b: Vec) -> tuple[BaseSet, bool]:
    """The image T(base) + b as a normal-form set, with an exactness bit.

    Balls and annuli stay exact under similarity transforms, rational boxes
    under exact diagonal ones, polygons under any plane transform.  The rest
    degrades to a conservative bounding ball with the bit cleared.
    """
    exact = _is_exact(*itertools.chain(*t, b))
    if isinstance(base, PolygonSet) and len(t) == 2:
        if base._lattice is not None and exact:
            pts, den = _lattice_map(*base._lattice, t, b)
            image = PolygonSet(tuple((Fraction(x, den), Fraction(y, den)) for x, y in pts))
            image.__dict__["_lattice"] = pts, den  # the cached_property's slot
            return image, True
        verts = base.vertices
        if all(type(x) is float for row in t for x in row):
            # float op Fraction is float op float(Fraction): convert once
            verts, b = [tuple(map(float, v)) for v in verts], tuple(map(float, b))
        verts = tuple(tuple(x + y for x, y in zip(mat_vec(t, v), b)) for v in verts)
        return PolygonSet(verts), True
    if isinstance(base, BallSet):
        s = _is_similarity(t)
        if s is not None:
            center = tuple(x + y for x, y in zip(mat_vec(t, base.center), b))
            return BallSet(center, abs(s) * base.radius), True
    if isinstance(base, AnnulusSet):
        s = _is_similarity(t)
        if s is not None and all(x == 0 for x in b):
            return AnnulusSet(base.dim, abs(s) * base.inner, abs(s) * base.outer), True
    if isinstance(base, BoxSet) and base._lattice is not None and exact and _is_diagonal(t):
        ends, den = _lattice_map(*base._lattice, t, b)
        lo, hi = (tuple(map(f, *ends)) for f in (min, max))
        image = BoxSet(*(tuple(Fraction(x, den) for x in v) for v in (lo, hi)))
        image.__dict__["_lattice"] = (lo, hi), den
        return image, True
    # conservative fallback: bounding ball of the image
    c0, r0 = _bounding_ball(base)
    center = tuple(
        float(x) + float(y) for x, y in zip(mat_vec(t, c0), b)
    )
    radius = spectral_norm(t) * float(r0)
    return BallSet(center, radius), False


def _lattice_map(pts: Sequence[tuple[int, ...]], s: int, t: Mat, b: Vec) -> tuple:
    """T x + b on ints for exact T and b, the points x given as s * x:
    (the image points times den, den), den the lcm of their denominators,
    as ``_integer_scaled`` would give it."""
    m, s_m = _integer_scaled(tuple((*row, c) for row, c in zip(t, b)))  # (T | b) = m / s_m
    rows = [[sum(map(mul, row, p)) + row[-1] * s for p in pts] for row in m]
    # dividing out this gcd leaves the lcm of the image's own denominators
    g = math.gcd(s_m * s, *itertools.chain(*rows))
    return tuple(zip(*([x // g for x in row] for row in rows))), s_m * s // g


def _bounding_ball(base: BaseSet) -> tuple[Vec, Scalar]:
    if isinstance(base, BallSet):
        return base.center, base.radius
    if isinstance(base, AnnulusSet):
        return tuple([0] * base.dim), base.outer
    if isinstance(base, BoxSet):
        center = tuple((lo + hi) / 2 for lo, hi in zip(base.lo, base.hi))
        rad = math.sqrt(float(sum((hi - lo) ** 2 for lo, hi in zip(base.lo, base.hi)))) / 2
        return center, rad
    # a polygon is a plane set, which transform_base maps under its 2x2 T
    raise UnsupportedGeometry(f"no bounding ball for {type(base).__name__}")


# ---------------------------------------------------------------------------
# intersection tests
# ---------------------------------------------------------------------------

def _norm_interval(s: BaseSet) -> tuple[Scalar, Scalar] | None:
    """The open interval of Euclidean norms attained on the set.

    Only exact for origin-centered balls and annuli; None otherwise.
    """
    if isinstance(s, AnnulusSet):
        return s.inner, s.outer
    if isinstance(s, BallSet) and all(x == 0 for x in s.center):
        return 0, s.radius
    return None


def _edge_axes(verts: Sequence[Vec]) -> tuple[tuple[Scalar, ...], ...]:
    """(nx, ny, lo, hi) per nonzero edge normal, [lo, hi] the own projection."""
    axes = []
    for p, q in zip(verts, verts[1:] + verts[:1]):
        nx, ny = q[1] - p[1], p[0] - q[0]
        if nx == 0 and ny == 0:
            continue
        vals = [v[0] * nx + v[1] * ny for v in verts]
        axes.append((nx, ny, min(vals), max(vals)))
    return tuple(axes)


def _polygons_intersect(a: PolygonSet, b: PolygonSet) -> tuple[bool, bool]:
    """Separating-axis test for open convex polygons.

    Open interiors touching only along boundaries count as disjoint, so
    weak separation (max <= min) already separates.  Each polygon's edge
    normals and own projections on them are built once.  Exact polygons use
    their lattices s * vertices: on a normal of a, b projects at s_a s_b and
    a at s_a^2 times the rational values, so hi_a <= lo_b reads
    hi_a s_b <= lo_b s_a on ints, and is certain.  Any float vertex sends
    the pair to the raw vertices, where a near-tie counts as meeting,
    uncertain.  The other polygon's projection [lo_o, hi_o] on an axis is
    taken in one pass over its vertices.
    """
    la, lb = a._lattice, b._lattice
    exact = la is not None and lb is not None
    if exact:
        pairs = ((a._lattice_axes, lb[0], la[1], lb[1]), (b._lattice_axes, la[0], lb[1], la[1]))
    else:
        (axes_a, big_a), (axes_b, big_b) = a._float_axes, b._float_axes
        tol = _FLOAT_GAP_TOL * max(1.0, big_a, big_b)
        pairs = ((axes_a, b.vertices, 1, 1), (axes_b, a.vertices, 1, 1))
    certain = True
    for axes, pts, s_own, s_other in pairs:
        for nx, ny, lo, hi in axes:
            lo_o, hi_o = math.inf, -math.inf
            for x, y in pts:
                v = x * nx + y * ny
                if v < lo_o:
                    lo_o = v
                if v > hi_o:
                    hi_o = v
            if exact:
                if hi * s_other <= lo_o * s_own or hi_o * s_own <= lo * s_other:
                    return False, True
            elif hi <= lo_o - tol or hi_o <= lo - tol:
                return False, True
            elif hi <= lo_o + tol or hi_o <= lo + tol:
                certain = False
    return True, certain


def sets_intersect(a: BaseSet, b: BaseSet) -> tuple[bool, bool]:
    """Whether two open sets meet; second bit reports certainty.

    Unsupported shape pairs, a box with a float coordinate among them,
    answer (True, False): conservative for neighbor counting, and flagged
    so constants built on them never claim tightness.
    """
    if isinstance(a, PolygonSet) and isinstance(b, PolygonSet):
        return _polygons_intersect(a, b)
    if isinstance(a, BallSet) and isinstance(b, BallSet):
        exact = _is_exact(*a.center, a.radius, *b.center, b.radius)
        try:
            gap2 = sum((x - y) ** 2 for x, y in zip(a.center, b.center))
            lim2 = (a.radius + b.radius) ** 2
            if not exact:
                gap2, lim2 = float(gap2), float(lim2)
        except OverflowError:
            # a float length whose square leaves the float range: undecided,
            # so counted as meeting
            return True, False
        if exact:
            return gap2 < lim2, True
        if abs(gap2 - lim2) <= _FLOAT_GAP_TOL * max(gap2, lim2, 1.0):
            return True, False
        return gap2 < lim2, True
    if isinstance(a, BoxSet) and isinstance(b, BoxSet) and a._lattice and b._lattice:
        # both boxes on the scale s_a s_b: lo_a / s_a reads lo_a s_b
        ((lo_a, hi_a), s_a), ((lo_b, hi_b), s_b) = a._lattice, b._lattice
        return all(max(x * s_b, y * s_a) < min(u * s_b, v * s_a)
                   for x, y, u, v in zip(lo_a, lo_b, hi_a, hi_b)), True
    ia, ib = _norm_interval(a), _norm_interval(b)
    if ia is not None and ib is not None:
        exact = _is_exact(*ia, *ib)
        # norm ranges of open radial sets: open intervals, so a touch is empty
        hit = max(ia[0], ib[0]) < min(ia[1], ib[1])
        if exact:
            return hit, True
        lo = max(float(ia[0]), float(ib[0]))
        hi = min(float(ia[1]), float(ib[1]))
        if abs(hi - lo) <= _FLOAT_GAP_TOL * max(hi, lo, 1.0):
            return True, False
        return hit, True
    return True, False


# ---------------------------------------------------------------------------
# coverings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Covering:
    """An indexed family of sets T_i Q'_i + b_i: three functions of the
    index, all defined by the family.

    ``window(radius)`` lists the indices of one window, in a fixed order,
    after ``check_window_cap`` on their count.  Exactness is read from the
    data: only T_i and b_i of int and Fraction entries, over certain
    geometry, claim tightness.  Each index is placed once (``_place``), and
    every reader of its geometry reads that placement.  What a covering
    computes it keeps, for every command that reads it: placements,
    neighbour maps and constants, and the probe weight's values and the
    diagnostics of ``verify-family`` by radius.  A refusal keeps nothing.
    """

    label: str
    dimension: int
    window: Callable[[int], list[Index]]
    transform: Callable[[Index], tuple[Mat, Vec]]
    base_set: Callable[[Index], BaseSet]
    # Placement by index, filled by ``_place``
    _placements: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (adjacency result, pairs decided uncertain) by radius, filled by ``adjacency``
    _adjacency: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # structure constants by radius, filled by ``certify_constants``
    _constants: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # certify_constants' class number by (A_i, d_i), and per class number
    # (B_i, e_i) of T_i^-1 = B_i / e_i and (columns of A_i, d_i)
    _classes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _inverses: list = field(default_factory=list, init=False, repr=False, compare=False)
    # certify_constants' spectral norm by the float entries of T_i^-1 T_j
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the probe weight's values by index, filled by ``probe_weight``'s weight
    _probe: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # check_moderate's estimate for the probe weight by radius, filled by it
    _moderate: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (window size, norm_surrogate_check) by radius, filled by it
    _surrogate: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class Placement(NamedTuple):
    """One index placed: T_i and b_i, the image T_i Q'_i + b_i in normal form
    with ``transform_base``'s exactness bit, whether T_i and b_i are exact,
    T_i = A_i / d_i as (A_i, d_i), A_i an integer matrix, the image's float
    bounding box, each axis padded by ``_FLOAT_GAP_TOL`` times its largest
    magnitude, as float rounding is relative, and an interval holding the
    image's norms, from an annulus's inner radius, padded alike, or else 0,
    to the farthest corner of that box: the sweep reads both."""

    t: Mat
    b: Vec
    image: BaseSet
    ok: bool
    exact: bool
    scaled: tuple[tuple[tuple[int, ...], ...], int]
    box: tuple[tuple[float, ...], tuple[float, ...]]
    norms: tuple[float, float]


def _place(covering: Covering, i: Index) -> Placement:
    """The placement of index i, built on first use and kept on the covering;
    an image whose bounding box leaves the float range raises OverflowError."""
    placed = covering._placements.get(i)
    if placed is None:
        t, b = covering.transform(i)
        image, ok = transform_base(covering.base_set(i), t, b)
        lo, hi = image.bounding_box()
        pad = [_FLOAT_GAP_TOL * max(abs(x), abs(y)) for x, y in zip(lo, hi)]
        lo, hi = tuple(map(sub, lo, pad)), tuple(map(add, hi, pad))
        inner = float(image.inner) * (1 - _FLOAT_GAP_TOL) if isinstance(image, AnnulusSet) else 0.0
        placed = covering._placements[i] = Placement(
            t, b, image, ok, _is_exact(*itertools.chain(*t, b)), _integer_scaled(t),
            (lo, hi), (inner, math.hypot(*map(max, map(neg, lo), hi))))
    return placed


def placements(covering: Covering, radius: int) -> dict[Index, Placement]:
    """The placement of every index of one window, in window order; the first
    index placed past the float range raises UnsupportedGeometry.  The
    window, then the dimension^2 entries of a transform, pass the cap
    first.  The last and the first index are placed before the rest: each
    family's largest sets sit at its window's ends, so a window past the
    float range fails at once."""
    indices = covering.window(radius)
    # T_i holds dimension^2 entries: a huge dimension is refused before the first is built
    check_window_cap(covering.dimension ** 2, "a transform of {} entries")
    with _in_float_range(covering, radius):
        for i in indices[-1:] + indices[:1]:
            _place(covering, i)
        return {i: _place(covering, i) for i in indices}


def adjacency(
    covering: Covering, radius: int
) -> tuple[Mapping[Index, tuple[Index, ...]], bool]:
    """Neighbor map i -> i* over the window, and whether it is certain.

    The relation is reflexive (every nonempty set meets itself) and kept
    symmetric by construction.  A pair whose padded boxes and norm intervals
    both meet (``Placement.box`` and ``Placement.norms``) goes to
    ``sets_intersect``; the pads only add candidates, which exact sets still
    decide exactly.  The candidates come from a sweep sorted by the lower
    x bound of the boxes, or by the lower norm when every image is an
    origin-centred ball or annulus, whose boxes all hold the origin.

    The map is computed once per radius and kept on the covering, read-only
    because every caller shares it, and passes the window cap on every
    read.  The candidate test is symmetric, so a pair is decided by the
    pair alone, and a covering decides each pair once: a new map starts
    from the kept map nearest it, the smallest radius above, else the
    largest below, and takes the meet and certain bits of every pair of
    its indices that map holds.  Only pairs with an index that map lacks
    go to ``sets_intersect``, so a window inside a kept map, in any order,
    reads that map restricted to it.  A refusal (the cap, the float range)
    keeps nothing.
    """
    cached = covering._adjacency.get(radius)
    if cached is not None:
        check_window_cap(len(cached[0][0]))
        return cached[0]
    places = placements(covering, radius)
    known, unsure = {}, set()
    if covering._adjacency:
        above = [r for r in covering._adjacency if r > radius]
        (known, _), unsure = covering._adjacency[min(above) if above else max(covering._adjacency)]
    nbrs = {i: [j for j in known[i] if j in places] if i in known else [i] for i in places}
    unsure = {(i, j) for i, j in unsure if i in places and j in places}
    if any(i not in known for i in places):
        radial = all(_norm_interval(p.image) for p in places.values())
        swept = sorted(((p.norms if radial else (p.box[0][0], p.box[1][0]), p.norms, p.box, i,
                         p.image, i not in known) for i, p in places.items()),
                       key=lambda e: e[0][0])
        for pos, ((_, end_a), (near_a, far_a), (lo_a, hi_a), i, a, new_a) in enumerate(swept):
            for (start_b, _), (near_b, far_b), (lo_b, hi_b), j, b, new_b in itertools.islice(
                    swept, pos + 1, None):
                if start_b > end_a:
                    break  # j and every later span start past the end of i's
                if ((new_a or new_b) and near_a <= far_b and near_b <= far_a
                        and all(map(le, lo_a, hi_b)) and all(map(le, lo_b, hi_a))):
                    meet, sure = sets_intersect(a, b)
                    if not sure:
                        unsure.add((i, j))
                    if meet:
                        nbrs[i].append(j)
                        nbrs[j].append(i)
    ok = all(p.ok for p in places.values())
    result = MappingProxyType({i: tuple(sorted(js)) for i, js in nbrs.items()}), ok and not unsure
    covering._adjacency[radius] = result, unsure
    return result


def neighbors(covering: Covering, i: Index, radius: int) -> tuple[Index, ...]:
    """The neighbor set i* of one index within the window."""
    nbrs, _ = adjacency(covering, radius)
    if i not in nbrs:
        raise InvalidParams(f"index {i} is outside the window of radius {radius}")
    return nbrs[i]


def certify_constants(covering: Covering, radius: int) -> dict:
    """Empirical structure constants over one window.

    N_hat: the largest neighbor count; C_hat: the largest transition
    norm ||T_i^-1 T_j|| over intersecting pairs; R_hat: the largest
    base-set radius sup_{x in Q'_i} |x|.  tightness_ok reports whether
    every T_i and b_i in the window is exact and the adjacency is certain.

    Every transform, float or exact, is read exactly from its placement as
    an integer matrix over a common denominator, so each entry of
    T_i^-1 T_j is an integer dot product divided once: the float of the
    exact entry.  Indices with equal (A_i, d_i) share a class, the product
    depends on the two classes alone, and it is built once per pair of
    classes; the spectral norm is computed once per distinct float matrix.
    The constants are kept on the covering by radius, read after
    :func:`adjacency` has passed the window cap, and so are the classes,
    their inverses and the norms, for every radius; every call returns a
    copy, and a refusal keeps no constants.
    """
    nbrs, certain = adjacency(covering, radius)
    if radius in covering._constants:
        return dict(covering._constants[radius])
    if not nbrs:
        raise InvalidParams(f"the window of radius {radius} is empty")
    n_hat = max(len(js) for js in nbrs.values())
    places = placements(covering, radius)
    classes, inverses = covering._classes, covering._inverses
    kind = {i: classes.setdefault(p.scaled, len(classes)) for i, p in places.items()}
    # T_i^-1 = B_i / e_i with B_i = d_i adj(A_i), e_i = det(A_i); T_j = (columns of A_j) / d_j
    # the classes past the last inverse, a singular one among them on a refusal
    for a, d in itertools.islice(classes, len(inverses), None):
        e, adj = _det_adj(a)
        if not e:
            raise ZeroDivisionError(f"covering {covering.label!r} has a singular transform")
        inverses.append(((tuple(tuple(d * x for x in row) for row in adj), e),
                         (tuple(zip(*a)), d)))
    norms = covering._norms
    c_hat = 0.0
    with _in_float_range(covering, radius):
        for ki, kj in dict.fromkeys((kind[i], kind[j]) for i, js in nbrs.items() for j in js):
            # one correctly rounded int/int division per entry of
            # B_i A_j / (e_i d_j) gives the float of the exact entry
            (inv, e), (cols, d_j) = inverses[ki][0], inverses[kj][1]
            den = e * d_j
            key = tuple([sum(map(mul, row, col)) / den for row in inv for col in cols])
            val = norms.get(key)
            if val is None:
                val = norms[key] = spectral_norm(tuple(zip(*[iter(key)] * len(cols))))
            c_hat = max(c_hat, val)
        bases = {id(base): base for base in map(covering.base_set, nbrs)}
        r_hat = max(base.sup_norm() for base in bases.values())
    kept = covering._constants[radius] = {
        "N_hat": n_hat,
        "C_hat": c_hat,
        "R_hat": r_hat,
        "tightness_ok": certain and all(p.exact for p in places.values()),
    }
    return dict(kept)


def check_moderate(
    covering: Covering,
    u: Callable[[Index], float],
    radii: tuple[int, int],
) -> dict:
    """Empirical moderateness of a weight along the covering adjacency.

    C_uQ_hat is the largest ratio u_i / u_j over neighbors j of i.  The
    check passes when the estimate is finite and moves by at most one
    percent between the two window radii.

    The estimate of the covering's own :func:`probe_weight` at a radius is
    a function of the geometry and the radius alone: the covering keeps it
    by radius, read after :func:`adjacency` has passed the window cap.
    Any other ``u`` is read afresh on every call.  A refusal (the cap, the
    float range) keeps nothing, and every call returns a new dict.
    """
    kept = covering._moderate if isinstance(u, _Probe) and u.covering is covering else {}
    values: dict[Index, float] = {}
    estimates = []
    for radius in radii:
        nbrs, _ = adjacency(covering, radius)
        worst = kept.get(radius)
        if worst is None:
            with _in_float_range(covering, radius):
                for i in nbrs:
                    if i not in values:
                        values[i] = u(i)
            worst = 0.0
            for i, js in nbrs.items():
                ui = values[i]
                for j in js:
                    uj = values[j]
                    if uj == 0.0:
                        worst = math.inf
                    else:
                        worst = max(worst, ui / uj)
            kept[radius] = worst
        estimates.append(worst)
    first, second = estimates
    ok = (
        math.isfinite(second)
        and first > 0.0
        and second / first <= 1.01
    )
    return {"C_uQ_hat": second, "ok": bool(ok), "estimates": estimates}


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
class _Probe:
    """The probe weight of one covering; see :func:`probe_weight`."""

    covering: Covering

    def __call__(self, index: Index) -> float:
        kept = self.covering._probe
        value = kept.get(index)
        if value is None:
            value = _log_pow(abs(mat_det(_place(self.covering, index).t)), Fraction(1, 2)) * 3.0
            if not math.isfinite(value):
                raise OverflowError(f"the probe weight at index {index} is {value}")
            kept[index] = value
        return value


def probe_weight(covering: Covering) -> Callable[[Index], float]:
    """i -> |det T_i|^(1/2) * 3, the weight ``verify-family`` probes
    moderateness with.

    It is the covering weight w^(t)(i) = |det T_i|^(1/p - 1/t) * (1 + |b_i|^k
    + ||T_i||^k) at k = 0, p = 1 and t = 2, with 1 + |b|^0 + ||T||^0 = 3:
    purely geometric, so the estimate settles inside small windows.  The
    criteria read w^(t) only through the closed forms of
    :mod:`decomp_embed.families`.  A value past the float range raises
    OverflowError.  The covering keeps each value by index, and
    :func:`check_moderate` keeps its estimates for this weight by radius;
    a value past the float range is not kept.
    """
    return _Probe(covering)


def norm_surrogate_check(covering: Covering, radius: int) -> dict:
    """Ratio of |b_i| + ||T_i|| to the true extent of the transformed set.

    Needs exact geometry end to end; a covering without a tightness
    witness cannot anchor the surrogate and raises instead of guessing.
    The ratios are a function of the geometry and the radius alone: the
    covering keeps them by radius, read only while the window passes the
    cap, and every call returns a copy.  Refusals (an empty window, no
    tightness witness, the float range, the cap) keep nothing and are
    raised again on every call.
    """
    kept = covering._surrogate.get(radius)
    if kept is not None:
        check_window_cap(kept[0])
        return dict(kept[1])
    places = placements(covering, radius)
    if not places:
        raise InvalidParams(f"the window of radius {radius} is empty")
    ratios = []
    with _in_float_range(covering, radius):
        for i, p in places.items():
            if not (p.ok and p.exact):
                raise MissingTightnessWitness(
                    f"covering {covering.label!r} has no tight bound for index {i}"
                )
            surrogate = math.sqrt(float(sum(x * x for x in p.b))) + spectral_norm(p.t)
            ratios.append(surrogate / p.image.sup_norm())
    result = {"min_ratio": min(ratios), "max_ratio": max(ratios)}
    covering._surrogate[radius] = len(places), result
    return dict(result)


# ---------------------------------------------------------------------------
# custom coverings from JSON
# ---------------------------------------------------------------------------

def custom_covering_from_json(doc: object) -> Covering:
    """Build a covering from explicit per-index data.

    Expected shape: {"dimension": d, "indices": [...], "T": [matrix, ...],
    "b": [vector, ...], "base_set": descriptor or [descriptor, ...]}.
    ``dimension`` and the index entries are JSON integers and every other
    number is a rational literal, both as described under "Literal rules"
    in the README.
    """
    if not isinstance(doc, dict):
        raise SchemaError("custom covering must be an object")
    try:
        raw_dim = doc["dimension"]
        raw_indices = doc["indices"]
        raw_t = doc["T"]
        raw_b = doc["b"]
        raw_base = doc["base_set"]
    except KeyError as exc:
        raise SchemaError(f"custom covering is missing a field: {exc}") from exc
    if not isinstance(raw_indices, list) or not raw_indices:
        raise SchemaError("custom covering needs a nonempty index list")
    if not (
        isinstance(raw_t, list)
        and isinstance(raw_b, list)
        and len(raw_t) == len(raw_b) == len(raw_indices)
    ):
        raise SchemaError("T and b must run parallel to the index list")
    try:
        dim = int_from_json(raw_dim)
        indices = tuple(_json_list(idx, int_from_json) for idx in raw_indices)
    except ValueError as exc:
        raise SchemaError(f"bad dimension or index: {exc}") from exc
    if len({len(idx) for idx in indices}) != 1:
        raise SchemaError("custom covering indices must all have the same length")
    if len(set(indices)) != len(indices):
        raise SchemaError("duplicate indices in custom covering")
    try:
        mats = [
            _json_list(mat, lambda row: _json_list(row, _float_rational))
            for mat in raw_t
        ]
        vecs = [_json_list(vec, _float_rational) for vec in raw_b]
    except ValueError as exc:
        raise SchemaError(f"bad transform entry: {exc}") from exc
    for mat in mats:
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise SchemaError("transform matrices must be dimension x dimension")
    if any(mat_det(mat) == 0 for mat in mats):
        raise SchemaError("transform matrices must be invertible")
    for vec in vecs:
        if len(vec) != dim:
            raise SchemaError("offsets must have one entry per dimension")
    if isinstance(raw_base, list):
        bases = [base_set_from_json(b) for b in raw_base]
        if len(bases) != len(indices):
            raise SchemaError("per-index base sets must run parallel to indices")
    else:
        bases = [base_set_from_json(raw_base)] * len(indices)
    for base in bases:
        if base.dim != dim:
            raise SchemaError("base-set dimension mismatch")

    t_of = dict(zip(indices, mats))
    b_of = dict(zip(indices, vecs))
    base_of = dict(zip(indices, bases))

    def window(radius: int) -> list[Index]:
        check_window_cap(len(indices))
        return list(indices)

    return Covering(
        label="custom",
        dimension=dim,
        window=window,
        transform=lambda i: (t_of[i], b_of[i]),
        base_set=lambda i: base_of[i],
    )
