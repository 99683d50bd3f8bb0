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
import os
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
    WindowCapExceeded,
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
    "norm_surrogate_check",
    "spectral_norm",
    "mat_det",
    "mat_inverse",
    "mat_mul",
    "transform_base",
    "sets_intersect",
    "base_set_from_json",
    "custom_covering_from_json",
    "window_cap",
]

Scalar = Union[int, float, Fraction]
Vec = tuple[Scalar, ...]
Mat = tuple[Vec, ...]
Index = tuple[int, ...]

WINDOW_CAP_ENV = "DECOMP_EMBED_MAX_WINDOW"
_DEFAULT_WINDOW_CAP = 10**6

_FLOAT_GAP_TOL = 1e-9


def window_cap() -> int:
    raw = os.environ.get(WINDOW_CAP_ENV)
    if raw is None:
        return _DEFAULT_WINDOW_CAP
    try:
        return int(raw)
    except ValueError:
        raise InvalidParams(f"{WINDOW_CAP_ENV} must be an integer, got {raw!r}") from None


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


def _integer_scaled(a: Mat) -> tuple[tuple[tuple[int, ...], ...] | None, int]:
    """(A, s) with a == A / s, A an integer matrix and s the lcm of the entry
    denominators; (None, 0) when an entry is a float."""
    entries = [x for row in a for x in row]
    if not _is_exact(*entries):
        return None, 0
    s = math.lcm(*(x.denominator for x in entries))
    return tuple(tuple(x.numerator * (s // x.denominator) for x in row) for row in a), s


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


def mat_inverse(a: Mat) -> Mat:
    """Inverse by Gaussian elimination; exact when the entries are exact."""
    n = len(a)
    exact = _is_exact(*(v for row in a for v in row))
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
    # the 2x2 closed form stays only for the last bits of golden C_hat values
    # (Jacobi differs by ulps); a diagonal m^T m skips it, as Jacobi keeps it exact
    if len(g) == 2 and g[0][1]:
        tr = g[0][0] + g[1][1]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        disc = max(tr * tr - 4.0 * det, 0.0)
        return math.sqrt(max((tr + math.sqrt(disc)) / 2.0, 0.0))
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
        if not rotated:
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
    def _lattice(self) -> tuple[int, list[tuple[int, int]]] | None:
        """(s, s * vertices) as ints, s the lcm of the vertex denominators;
        None when a coordinate is a float."""
        coords = [x for v in self.vertices for x in v]
        if not _is_exact(*coords):
            return None
        s = math.lcm(*(x.denominator for x in coords))
        return s, [tuple(x.numerator * (s // x.denominator) for x in v) for v in self.vertices]


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
        verts = tuple(
            tuple(x + y for x, y in zip(mat_vec(t, v), b)) for v in base.vertices
        )
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


def _bounding_ball(base: BaseSet) -> tuple[Vec, Scalar]:
    if isinstance(base, BallSet):
        return base.center, base.radius
    if isinstance(base, AnnulusSet):
        return tuple([0] * base.dim), base.outer
    if isinstance(base, BoxSet):
        center = tuple((lo + hi) / 2 for lo, hi in zip(base.lo, base.hi))
        rad = math.sqrt(float(sum((hi - lo) ** 2 for lo, hi in zip(base.lo, base.hi)))) / 2
        return center, rad
    if isinstance(base, PolygonSet):
        n = len(base.vertices)
        cx = sum(v[0] for v in base.vertices) / n
        cy = sum(v[1] for v in base.vertices) / n
        rad = max(
            math.sqrt(float((v[0] - cx) ** 2 + (v[1] - cy) ** 2))
            for v in base.vertices
        )
        return (cx, cy), rad
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


def _project(vertices: Sequence[Vec], axis: Vec) -> tuple[Scalar, Scalar]:
    vals = [v[0] * axis[0] + v[1] * axis[1] for v in vertices]
    return min(vals), max(vals)


def _polygons_intersect(a: PolygonSet, b: PolygonSet) -> tuple[bool, bool]:
    """Separating-axis test for open convex polygons.

    Open interiors touching only along boundaries count as disjoint, so
    weak separation (max <= min) already separates.  Exact vertices are
    scaled to one integer lattice, the lcm of their denominators, and
    tested on Python ints with no tolerance, so every answer is certain.
    With float vertices a near-tie is resolved conservatively as
    intersecting, uncertain.
    """
    la, lb = a._lattice, b._lattice
    exact = la is not None and lb is not None
    if exact:
        lattice = math.lcm(la[0], lb[0])
        verts_a, verts_b = (
            verts if s == lattice else [(x * (lattice // s), y * (lattice // s)) for x, y in verts]
            for s, verts in (la, lb)
        )
        tol = 0
    else:
        verts_a, verts_b = a.vertices, b.vertices
        tol = _FLOAT_GAP_TOL * max(
            1.0, *(abs(float(x)) for v in verts_a + verts_b for x in v)
        )
    certain = True
    for verts in (verts_a, verts_b):
        for k in range(len(verts)):
            p, q = verts[k], verts[(k + 1) % len(verts)]
            axis = (q[1] - p[1], p[0] - q[0])
            if axis[0] == 0 and axis[1] == 0:
                continue
            lo_a, hi_a = _project(verts_a, axis)
            lo_b, hi_b = _project(verts_b, axis)
            if hi_a <= lo_b - tol or hi_b <= lo_a - tol:
                return False, True
            if not exact and (hi_a <= lo_b + tol or hi_b <= lo_a + tol):
                certain = False
    return True, certain


def sets_intersect(a: BaseSet, b: BaseSet) -> tuple[bool, bool]:
    """Whether two open sets meet; second bit reports certainty.

    Unsupported shape pairs answer (True, False): conservative for
    neighbor counting, and flagged so constants built on them never
    claim tightness.
    """
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
    if isinstance(a, PolygonSet) and isinstance(b, PolygonSet):
        return _polygons_intersect(a, b)
    return True, False


# ---------------------------------------------------------------------------
# index schemes
# ---------------------------------------------------------------------------

def _check_cap(count: int) -> None:
    cap = window_cap()
    if count > cap:
        raise WindowCapExceeded(
            f"window of {count} indices exceeds the cap of {cap} "
            f"(override via {WINDOW_CAP_ENV})"
        )


@dataclass(frozen=True)
class ZScheme:
    def window(self, radius: int) -> list[Index]:
        _check_cap(2 * radius + 1)
        return [(n,) for n in range(-radius, radius + 1)]


@dataclass(frozen=True)
class N0Scheme:
    def window(self, radius: int) -> list[Index]:
        _check_cap(radius + 1)
        return [(n,) for n in range(0, radius + 1)]


@dataclass(frozen=True)
class ZdPuncturedScheme:
    d: int

    def window(self, radius: int) -> list[Index]:
        _check_cap((2 * radius + 1) ** self.d - 1)
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
        _check_cap(count)
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
        _check_cap(count)
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
        _check_cap(((2 * radius + 1) ** self.d) * 2**self.d)
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
        _check_cap(len(self.indices))
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
    """An indexed family of sets T_i Q'_i + b_i over an index scheme."""

    label: str
    dimension: int
    scheme: IndexScheme
    transform: Callable[[Index], tuple[Mat, Vec]]
    base_set: Callable[[Index], BaseSet]
    exact: bool = True
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
    bounding boxes sorted by their lower x bound; a pair whose boxes meet
    (padded for float coverings) goes to ``sets_intersect``.  The map is
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
    pad = 0.0 if covering.exact else _FLOAT_GAP_TOL
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
    every ingredient was computed from exact geometry.

    For exact T_i and T_j each entry of T_i^-1 T_j is an integer dot
    product over one common denominator, divided once, so it is the float
    of the exact entry; a float transform takes ``mat_mul``.  The spectral
    norm is computed once per distinct float matrix T_i^-1 T_j.
    """
    nbrs, certain = adjacency(covering, radius)
    if not nbrs:
        raise InvalidParams(f"the window of radius {radius} is empty")
    n_hat = max(len(js) for js in nbrs.values())
    mats = {i: covering.transform(i)[0] for i in nbrs}
    # T_j = A_j / d_j with A_j integer, for every exact T_j: (columns of A_j, d_j)
    scaled = {i: _integer_scaled(t) for i, t in mats.items()}
    columns = {i: (tuple(zip(*a)), d) for i, (a, d) in scaled.items() if d}
    all_exact = len(columns) == len(mats)
    norms: dict[Mat, float] = {}  # spectral norm by the float entries of T_i^-1 T_j
    c_hat = 0.0
    with _in_float_range(covering, radius):
        for i, js in nbrs.items():
            a, d = scaled[i]
            if d:
                # T_i^-1 = B_i / e_i with B_i = d_i adj(A_i) and e_i = det(A_i)
                inv = tuple(tuple(d * x for x in row) for row in _adjugate(a))
                e = mat_det(a)
            t_inv = None if all_exact else mat_inverse(mats[i])
            for j in js:
                if d and j in columns:
                    # one correctly rounded int/int division per entry of
                    # B_i A_j / (e_i d_j) gives the float of the exact entry
                    cols, d_j = columns[j]
                    den = e * d_j
                    key = tuple(tuple(sum(map(mul, row, col)) / den for col in cols) for row in inv)
                else:
                    key = tuple(tuple(map(float, row)) for row in mat_mul(t_inv, mats[j]))
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
        "tightness_ok": bool(covering.exact and certain),
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
        s, ok = covering.transformed_set(i)
        if not (covering.exact and ok):
            raise MissingTightnessWitness(
                f"covering {covering.label!r} has no tight bound for index {i}"
            )
        t, b = covering.transform(i)
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
        exact=True,
    )
