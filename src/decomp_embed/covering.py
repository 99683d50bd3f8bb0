"""Structured coverings of frequency space.

A covering is a family of sets Q_i = T_i Q'_i + b_i indexed by a lattice
scheme.  This module provides window enumeration, exact intersection
tests for the supported base-set shapes (balls, boxes, origin-centered
annuli and convex polygons), adjacency structure, and the empirical
structure constants used as evidence: the neighbor count N_hat, the
transition norm C_hat and the base-set radius R_hat.

Geometry is exact whenever every matrix entry, offset and set parameter
is rational; numeric fallbacks are flagged through the ``certain`` bits
so that downstream evidence never silently claims tightness it does not
have.
"""

from __future__ import annotations

import itertools
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import ge, le, mul
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence, Union

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
    "ZScheme",
    "N0Scheme",
    "ZdPuncturedScheme",
    "ShearletScheme",
    "CoorbitScheme",
    "DiagonalScheme",
    "ExplicitScheme",
    "Covering",
    "cone_trapezoid",
    "adjacency",
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
            f"covering {covering.label!r} at radius {radius} leaves the float range: {exc}"
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


def mat_det(a: Mat) -> Scalar:
    """Determinant by cofactor expansion; exact when the entries are exact."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0
    for col in range(n):
        minor = tuple(
            tuple(row[c] for c in range(n) if c != col) for row in a[1:]
        )
        sign = 1 if col % 2 == 0 else -1
        total = total + sign * a[0][col] * mat_det(minor)
    return total


def _adjugate(a: Mat) -> Mat:
    """The adjugate: a times it is det(a) times the identity."""
    n = len(a)
    if n == 1:
        return ((1,),)
    return tuple(
        tuple(
            (-1) ** (r + c)
            * mat_det(tuple(row[:r] + row[r + 1:] for k, row in enumerate(a) if k != c))
            for c in range(n)
        )
        for r in range(n)
    )


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
    """Open axis-parallel box."""

    lo: Vec
    hi: Vec

    @property
    def dim(self) -> int:
        return len(self.lo)

    def sup_norm(self) -> float:
        best = 0.0
        for corner in itertools.product(*zip(self.lo, self.hi)):
            best = max(best, math.sqrt(float(sum(x * x for x in corner))))
        return best

    def bounding_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return tuple(float(x) for x in self.lo), tuple(float(x) for x in self.hi)


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

    Balls and annuli stay exact under similarity transforms, boxes under
    diagonal ones, polygons under any plane transform.  Everything else
    degrades to a conservative bounding ball with the bit cleared.
    """
    if isinstance(base, PolygonSet) and len(t) == 2:
        if base._lattice is not None and _is_exact(*t[0], *t[1], *b):
            return _lattice_image(base._lattice, t, b), True
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
    if isinstance(base, BoxSet) and _is_diagonal(t):
        lo, hi = [], []
        for j in range(len(b)):
            a1 = t[j][j] * base.lo[j] + b[j]
            a2 = t[j][j] * base.hi[j] + b[j]
            lo.append(min(a1, a2))
            hi.append(max(a1, a2))
        return BoxSet(tuple(lo), tuple(hi)), True
    # conservative fallback: bounding ball of the image
    c0, r0 = _bounding_ball(base)
    center = tuple(
        float(x) + float(y) for x, y in zip(mat_vec(t, c0), b)
    )
    radius = spectral_norm(t) * float(r0)
    return BallSet(center, radius), False


def _lattice_image(lattice: tuple, t: Mat, b: Vec) -> PolygonSet:
    """T P + b on ints for exact T and b, P given as (s * vertices, s); the
    image is seeded with the lattice ``_integer_scaled`` would give it."""
    pts, s = lattice
    m, s_m = _integer_scaled(tuple((*row, c) for row, c in zip(t, b)))  # (T | b) = m / s_m
    rows = [[r0 * x + r1 * y + r2 * s for x, y in pts] for r0, r1, r2 in m]
    # dividing out this gcd leaves the lcm of the image's own denominators
    g = math.gcd(s_m * s, *rows[0], *rows[1])
    image_pts, den = tuple((x // g, y // g) for x, y in zip(*rows)), s_m * s // g
    image = PolygonSet(tuple((Fraction(x, den), Fraction(y, den)) for x, y in image_pts))
    image.__dict__["_lattice"] = image_pts, den  # the cached_property's slot
    return image


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


def _intervals_overlap(a: tuple, b: tuple) -> bool:
    # norm ranges of open radial sets: open intervals, so a touch is empty
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return lo < hi


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
    uncertain.
    """
    la, lb = a._lattice, b._lattice
    if la is not None and lb is not None:
        for axes, (_, s_own), (pts, s_other) in (
                (a._lattice_axes, la, lb), (b._lattice_axes, lb, la)):
            for nx, ny, lo, hi in axes:
                vals = [x * nx + y * ny for x, y in pts]
                if hi * s_other <= min(vals) * s_own or max(vals) * s_own <= lo * s_other:
                    return False, True
        return True, True
    (axes_a, big_a), (axes_b, big_b) = a._float_axes, b._float_axes
    tol = _FLOAT_GAP_TOL * max(1.0, big_a, big_b)
    certain = True
    for axes, verts in ((axes_a, b.vertices), (axes_b, a.vertices)):
        for nx, ny, lo, hi in axes:
            vals = [v[0] * nx + v[1] * ny for v in verts]
            lo_o, hi_o = min(vals), max(vals)
            if hi <= lo_o - tol or hi_o <= lo - tol:
                return False, True
            if hi <= lo_o + tol or hi_o <= lo + tol:
                certain = False
    return True, certain


def sets_intersect(a: BaseSet, b: BaseSet) -> tuple[bool, bool]:
    """Whether two open sets meet; second bit reports certainty.

    Unsupported shape pairs answer (True, False): conservative for
    neighbor counting, and flagged so constants built on them never
    claim tightness.
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
    if isinstance(a, BoxSet) and isinstance(b, BoxSet):
        exact = _is_exact(*a.lo, *a.hi, *b.lo, *b.hi)
        certain = True
        for lo1, hi1, lo2, hi2 in zip(a.lo, a.hi, b.lo, b.hi):
            lo = max(lo1, lo2)
            hi = min(hi1, hi2)
            if not lo < hi:
                return False, True
            if not exact and float(hi - lo) <= _FLOAT_GAP_TOL * max(
                1.0, abs(float(hi)), abs(float(lo))
            ):
                certain = False
        return True, certain
    ia, ib = _norm_interval(a), _norm_interval(b)
    if ia is not None and ib is not None:
        exact = _is_exact(*ia, *ib)
        hit = _intervals_overlap(ia, ib)
        if exact:
            return hit, True
        lo = max(float(ia[0]), float(ib[0]))
        hi = min(float(ia[1]), float(ib[1]))
        if abs(hi - lo) <= _FLOAT_GAP_TOL * max(hi, lo, 1.0):
            return True, False
        return hit, True
    return True, False


# ---------------------------------------------------------------------------
# index schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZScheme:
    def window(self, radius: int) -> list[Index]:
        check_window_cap(2 * radius + 1)
        return [(n,) for n in range(-radius, radius + 1)]


@dataclass(frozen=True)
class N0Scheme:
    def window(self, radius: int) -> list[Index]:
        check_window_cap(radius + 1)
        return [(n,) for n in range(0, radius + 1)]


@dataclass(frozen=True)
class ZdPuncturedScheme:
    d: int

    def window(self, radius: int) -> list[Index]:
        check_window_cap((2 * radius + 1) ** self.d - 1)
        rng = range(-radius, radius + 1)
        return [
            pt
            for pt in itertools.product(*([rng] * self.d))
            if any(x != 0 for x in pt)
        ]


@dataclass(frozen=True)
class ShearletScheme:
    """Index (0,) plus cone indices (n, m, eps, delta)."""

    def window(self, radius: int) -> list[Index]:
        count = 1 + sum(4 * (2 * 2**n + 1) for n in range(radius + 1))
        check_window_cap(count)
        out: list[Index] = [(0,)]
        for n in range(radius + 1):
            for m in range(-(2**n), 2**n + 1):
                for eps in (-1, 1):
                    for delta in (0, 1):
                        out.append((n, m, eps, delta))
        return out


@dataclass(frozen=True)
class CoorbitScheme:
    """Indices (n, m, eps) over Z^2 x {+-1}; windows cap |m| at 2^radius."""

    def window(self, radius: int) -> list[Index]:
        count = (2 * radius + 1) * (2 * 2**radius + 1) * 2
        check_window_cap(count)
        out: list[Index] = []
        for n in range(-radius, radius + 1):
            for m in range(-(2**radius), 2**radius + 1):
                for eps in (-1, 1):
                    out.append((n, m, eps))
        return out


@dataclass(frozen=True)
class DiagonalScheme:
    """Indices (k_1..k_d, eps_1..eps_d) over Z^d x {+-1}^d."""

    d: int

    def window(self, radius: int) -> list[Index]:
        check_window_cap(((2 * radius + 1) ** self.d) * 2**self.d)
        rng = range(-radius, radius + 1)
        out: list[Index] = []
        for ks in itertools.product(*([rng] * self.d)):
            for eps in itertools.product(*([(-1, 1)] * self.d)):
                out.append(ks + eps)
        return out


@dataclass(frozen=True)
class ExplicitScheme:
    indices: tuple[Index, ...]

    def window(self, radius: int) -> list[Index]:
        check_window_cap(len(self.indices))
        return list(self.indices)


IndexScheme = Union[
    ZScheme,
    N0Scheme,
    ZdPuncturedScheme,
    ShearletScheme,
    CoorbitScheme,
    DiagonalScheme,
    ExplicitScheme,
]


# ---------------------------------------------------------------------------
# coverings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Covering:
    """An indexed family of sets T_i Q'_i + b_i over an index scheme.

    Exactness is read from the data: only T_i and b_i of int and Fraction
    entries, over certain geometry, claim tightness.
    """

    label: str
    dimension: int
    scheme: IndexScheme
    transform: Callable[[Index], tuple[Mat, Vec]]
    base_set: Callable[[Index], BaseSet]
    # adjacency results by radius, filled by ``adjacency``
    _adjacency: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def window(self, radius: int) -> list[Index]:
        return self.scheme.window(radius)

    def transformed_set(self, i: Index) -> tuple[BaseSet, bool]:
        t, b = self.transform(i)
        return transform_base(self.base_set(i), t, b)


def adjacency(
    covering: Covering, radius: int
) -> tuple[Mapping[Index, tuple[Index, ...]], bool]:
    """Neighbor map i -> i* over the window, and whether it is certain.

    The relation is reflexive (every nonempty set meets itself) and kept
    symmetric by construction.  Candidate pairs come from a sweep over the
    bounding boxes sorted by their lower x bound; a pair whose boxes meet,
    each padded by ``_FLOAT_GAP_TOL``, goes to ``sets_intersect``.  The pad
    only adds candidates, which exact sets still decide exactly.  The map is
    computed once per radius and kept on the covering; it is read-only
    because every caller shares it.
    """
    cached = covering._adjacency.get(radius)
    if cached is not None:
        return cached
    indices = covering.window(radius)
    sets = []
    certain = True
    with _in_float_range(covering, radius):
        for i in indices:
            s, ok = covering.transformed_set(i)
            sets.append(s)
            certain = certain and ok
        boxes = [s.bounding_box() for s in sets]
    pad = _FLOAT_GAP_TOL
    los, his = [lo for lo, _ in boxes], [hi for _, hi in boxes]
    los_pad = [tuple(x - pad for x in lo) for lo in los]
    his_pad = [tuple(x + pad for x in hi) for hi in his]
    nbrs: dict[Index, list[Index]] = {i: [i] for i in indices}
    order = sorted(range(len(sets)), key=lambda k: los[k][0])
    for pos, a in enumerate(order):
        for b in order[pos + 1:]:
            # b and every later box start too far right for the test below
            # on x, whichever of a and b is the row
            if los_pad[b][0] > his[a][0] and los[b][0] > his_pad[a][0]:
                break
            # the box test with the lower window position as row, as
            # his[row] >= los[col] - pad and los[row] <= his[col] + pad, so
            # float rounding gives the same candidates in any sweep order
            row, col = (a, b) if a < b else (b, a)
            if all(map(ge, his[row], los_pad[col])) and all(map(le, los[row], his_pad[col])):
                meet, sure = sets_intersect(sets[row], sets[col])
                certain = certain and sure
                if meet:
                    nbrs[indices[row]].append(indices[col])
                    nbrs[indices[col]].append(indices[row])
    result = (MappingProxyType({i: tuple(sorted(js)) for i, js in nbrs.items()}), certain)
    covering._adjacency[radius] = result
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

    Every transform, float or exact, is read exactly as an integer matrix
    over a common denominator, so each entry of T_i^-1 T_j is an integer
    dot product divided once: the float of the exact entry.  The spectral
    norm is computed once per distinct float matrix T_i^-1 T_j.
    """
    nbrs, certain = adjacency(covering, radius)
    if not nbrs:
        raise InvalidParams(f"the window of radius {radius} is empty")
    n_hat = max(len(js) for js in nbrs.values())
    placed = {i: covering.transform(i) for i in nbrs}
    norms: dict[Mat, float] = {}  # spectral norm by the float entries of T_i^-1 T_j
    c_hat = 0.0
    with _in_float_range(covering, radius):
        # T_j = A_j / d_j with A_j an integer matrix: (columns of A_j, d_j)
        scaled = {i: _integer_scaled(t) for i, (t, _) in placed.items()}
        columns = {i: (tuple(zip(*a)), d) for i, (a, d) in scaled.items()}
        for i, js in nbrs.items():
            a, d = scaled[i]
            # T_i^-1 = B_i / e_i with B_i = d_i adj(A_i) and e_i = det(A_i)
            inv = tuple(tuple(d * x for x in row) for row in _adjugate(a))
            e = mat_det(a)
            for j in js:
                # one correctly rounded int/int division per entry of
                # B_i A_j / (e_i d_j) gives the float of the exact entry
                cols, d_j = columns[j]
                den = e * d_j
                key = tuple(tuple(sum(map(mul, row, col)) / den for col in cols) for row in inv)
                val = norms.get(key)
                if val is None:
                    val = norms[key] = spectral_norm(key)
                c_hat = max(c_hat, val)
        bases = {id(base): base for base in map(covering.base_set, nbrs)}
        r_hat = max(base.sup_norm() for base in bases.values())
    return {
        "N_hat": n_hat,
        "C_hat": c_hat,
        "R_hat": r_hat,
        "tightness_ok": certain and all(
            _is_exact(*itertools.chain(*t, b)) for t, b in placed.values()),
    }


def check_moderate(
    covering: Covering,
    u: Callable[[Index], float],
    radii: tuple[int, int],
) -> dict:
    """Empirical moderateness of a weight along the covering adjacency.

    C_uQ_hat is the largest ratio u_i / u_j over neighbors j of i.  The
    check passes when the estimate is finite and moves by at most one
    percent between the two window radii.
    """
    values: dict[Index, float] = {}
    estimates = []
    for radius in radii:
        nbrs, _ = adjacency(covering, radius)
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


def probe_weight(covering: Covering) -> Callable[[Index], float]:
    """i -> |det T_i|^(1/2) * 3, the weight ``verify-family`` probes
    moderateness with.

    It is the covering weight w^(t)(i) = |det T_i|^(1/p - 1/t) * (1 + |b_i|^k
    + ||T_i||^k) at k = 0, p = 1 and t = 2, with 1 + |b|^0 + ||T||^0 = 3:
    purely geometric, so the estimate settles inside small windows.  The
    criteria read w^(t) only through the closed forms of
    :mod:`decomp_embed.families`.
    """
    return lambda index: _log_pow(abs(mat_det(covering.transform(index)[0])), Fraction(1, 2)) * 3.0


def norm_surrogate_check(covering: Covering, radius: int) -> dict:
    """Ratio of |b_i| + ||T_i|| to the true extent of the transformed set.

    Needs exact geometry end to end; a covering without a tightness
    witness cannot anchor the surrogate and raises instead of guessing.
    """
    indices = covering.window(radius)
    if not indices:
        raise InvalidParams(f"the window of radius {radius} is empty")
    ratios = []
    for i in indices:
        t, b = covering.transform(i)
        s, ok = transform_base(covering.base_set(i), t, b)
        if not (ok and _is_exact(*itertools.chain(*t, b))):
            raise MissingTightnessWitness(
                f"covering {covering.label!r} has no tight bound for index {i}"
            )
        surrogate = math.sqrt(float(sum(x * x for x in b))) + spectral_norm(t)
        extent = s.sup_norm()
        ratios.append(surrogate / extent)
    return {"min_ratio": min(ratios), "max_ratio": max(ratios)}


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
    return Covering(
        label="custom",
        dimension=dim,
        scheme=ExplicitScheme(indices),
        transform=lambda i: (t_of[i], b_of[i]),
        base_set=lambda i: base_of[i],
    )
