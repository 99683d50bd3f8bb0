"""Covering geometry: windows, adjacency, structure constants."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decomp_embed import covering as covering_module
from decomp_embed.covering import (
    _FLOAT_GAP_TOL,
    AnnulusSet,
    BallSet,
    BoxSet,
    Covering,
    PolygonSet,
    adjacency,
    base_set_from_json,
    certify_constants,
    check_moderate,
    cone_trapezoid,
    custom_covering_from_json,
    mat_mul,
    neighbors,
    norm_surrogate_check,
    probe_weight,
    sets_intersect,
    spectral_norm,
    transform_base,
)
from decomp_embed.errors import (
    InvalidParams,
    MissingTightnessWitness,
    SchemaError,
    UnsupportedGeometry,
    WindowCapExceeded,
    window_cap,
)
from decomp_embed.families import covering_from_json
from witnesses import WARNINGS_AS_ERRORS, mat_inverse, polygons_intersect

F = Fraction
HOM_BESOV_WINDOW = covering_from_json({"family": "hom_besov"}).window


def fixed_window(*indices):
    """A custom covering's window: the same index list at every radius."""
    return lambda radius: list(indices)


def placed(cov: Covering, i) -> tuple:
    """T_i Q'_i + b_i in normal form, with its exactness bit."""
    t, b = cov.transform(i)
    return transform_base(cov.base_set(i), t, b)


def dyadic_annulus_covering(dim: int = 1) -> Covering:
    """T_n = 2^n id and a fixed annulus 1/4 < |x| < 4, indexed over Z."""
    def tr(i):
        s = F(2) ** i[0]
        t = tuple(
            tuple(s if r == c else F(0) for c in range(dim)) for r in range(dim)
        )
        return t, tuple([F(0)] * dim)

    return Covering(
        label="dyadic_annuli",
        dimension=dim,
        window=HOM_BESOV_WINDOW,
        transform=tr,
        base_set=lambda i: AnnulusSet(dim, F(1, 4), F(4)),
    )


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

# each family's index scheme, named by a covering document
@pytest.mark.parametrize("scheme", [
    {"family": "hom_besov"},
    {"family": "inhom_besov"},
    {"family": "alpha_modulation", "params": {"d": 2}},
    {"family": "shearlet_smoothness"},
    {"family": "shearlet_coorbit"},
    {"family": "diagonal", "params": {"d": 2}},
])
def test_windows_are_deterministic_nested_and_duplicate_free(scheme):
    window = covering_from_json(scheme).window
    small = window(3)
    again = window(3)
    big = window(5)
    assert small == again
    assert len(set(small)) == len(small)
    assert set(small) <= set(big)


def test_window_cap_is_enforced(monkeypatch):
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "100")
    assert window_cap() == 100
    with pytest.raises(WindowCapExceeded):
        HOM_BESOV_WINDOW(1000)
    monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW")
    assert window_cap() == 10**6


# sha256 of the JSON list of each window at radius 2, in window order: the
# goldens hash sorted neighbour maps, so only this pins the order
_WINDOW_DIGESTS = [
    ({"family": "hom_besov"},
     "4a8696914f593540e78b78228fa950caa360a4faa9514bc494fea7e75e162f10"),
    ({"family": "inhom_besov"},
     "e743549bc64d382cd6be49eaf302163aa318a3cf3af64d150dbc8723430ee88f"),
    ({"family": "alpha_modulation", "params": {"d": 2}},
     "fff3423491eedcd505e0a0df1f29b9d8cc3a78741690498250ddb8b0d30e2e95"),
    ({"family": "shearlet_smoothness"},
     "7a3012caba1d3fc82fb58c32a182935a7a3c584c5a3f961b7ccd18d357fe6d81"),
    ({"family": "shearlet_coorbit"},
     "442c420539a59aba1a665d9aa3969f6e11cfa60fb1d749811ba30281fc8ba1ee"),
    ({"family": "diagonal", "params": {"d": 2}},
     "da4a52ae55df7e942b3510ca69c9817712008de3c7204d053e728ce94dec81c0"),
    ({"custom": {
        "dimension": 1,
        "indices": [[3], [-1], [0]],
        "T": [[[1]], [[2]], [[4]]],
        "b": [[0], [0], [0]],
        "base_set": {"ball": {"center": [0], "radius": 1}},
    }}, "08e8d4fc3340d807c23e65b58fdc02f644fe9474a74b9772f981845caa640d61"),
]


@pytest.mark.parametrize("doc, digest", _WINDOW_DIGESTS,
                         ids=[doc.get("family", "custom") for doc, _ in _WINDOW_DIGESTS])
def test_window_lists_are_pinned(doc, digest):
    window = covering_from_json(doc).window(2)
    assert hashlib.sha256(json.dumps(window).encode()).hexdigest() == digest


def test_shearlet_window_contents():
    win = covering_from_json({"family": "shearlet_smoothness"}).window(1)
    assert win[0] == (0,)
    assert (0, 0, -1, 0) in win and (1, -2, 1, 1) in win
    assert (2, 0, 1, 0) not in win
    # all cone indices satisfy |m| <= 2^n
    assert all(abs(i[1]) <= 2 ** i[0] for i in win[1:])


# ---------------------------------------------------------------------------
# base sets and intersections
# ---------------------------------------------------------------------------

def test_open_balls_touching_do_not_intersect():
    a = BallSet((F(0), F(0)), F(1))
    b = BallSet((F(2), F(0)), F(1))
    hit, sure = sets_intersect(a, b)
    assert not hit and sure
    c = BallSet((F(2), F(0)), F(11, 10))
    hit, sure = sets_intersect(a, c)
    assert hit and sure


def test_open_boxes_touching_do_not_intersect():
    a = BoxSet((F(0),), (F(1),))
    b = BoxSet((F(1),), (F(2),))
    assert sets_intersect(a, b) == (False, True)
    assert sets_intersect(a, BoxSet((F(1, 2),), (F(3, 2),)))[0]


def test_annulus_intersections_are_radial():
    a = AnnulusSet(1, F(1, 4), F(4))
    scaled = AnnulusSet(1, F(2), F(32))   # 2^3 * a
    gap = AnnulusSet(1, F(4), F(64))      # 2^4 * a touches at |x| = 4
    assert sets_intersect(a, scaled) == (True, True)
    assert sets_intersect(a, gap) == (False, True)


def test_ball_against_annulus_uses_norm_ranges():
    ball = BallSet((F(0),), F(2))
    assert sets_intersect(ball, AnnulusSet(1, F(1, 2), F(8))) == (True, True)
    assert sets_intersect(ball, AnnulusSet(1, F(2), F(8))) == (False, True)


def test_polygon_separation_is_exact_for_rational_vertices():
    p = cone_trapezoid(F(1, 3), F(3), F(-1), F(1))
    shear = ((F(1), F(0)), (F(1), F(1)))
    shifted, ok = transform_base(p, shear, (F(0), F(0)))
    assert ok
    # slope windows (-1,1) and (0,2) overlap
    assert sets_intersect(p, shifted) == (True, True)
    shear2 = ((F(1), F(0)), (F(2), F(1)))
    touching, _ = transform_base(p, shear2, (F(0), F(0)))
    # slope windows (-1,1) and (1,3) only touch: open cones are disjoint
    assert sets_intersect(p, touching) == (False, True)


def _area2(verts):
    """Twice the signed area of a polygon (positive when counter-clockwise)."""
    return sum(p[0] * q[1] - p[1] * q[0] for p, q in zip(verts, verts[1:] + verts[:1]))


def _clip_area2(subject, clip):
    """Twice the area of subject & clip, by Sutherland-Hodgman clipping in Fractions.

    The reference for ``sets_intersect`` on polygons: two open convex
    polygons meet exactly when the intersection of their closures has
    positive area.  It shares no code with the separating-axis test.
    """
    def ccw(verts):
        verts = [tuple(F(x) for x in v) for v in verts]
        return verts if _area2(verts) > 0 else verts[::-1]

    out, clip = ccw(subject), ccw(clip)
    for p, q in zip(clip, clip[1:] + clip[:1]):
        def side(v):
            return (q[0] - p[0]) * (v[1] - p[1]) - (q[1] - p[1]) * (v[0] - p[0])

        inp, out = out, []
        for k, cur in enumerate(inp):
            prev = inp[k - 1]
            s_cur, s_prev = side(cur), side(prev)
            if (s_cur >= 0) != (s_prev >= 0):
                t = s_prev / (s_prev - s_cur)
                out.append(tuple(a + t * (b - a) for a, b in zip(prev, cur)))
            if s_cur >= 0:
                out.append(cur)
        if not out:
            return F(0)
    return _area2(out)


def _reference_meet(a, b) -> bool:
    return _clip_area2(a.vertices, b.vertices) > 0


def _doc_id(doc):
    # the fractional coorbit document keeps the plain family name as its id
    name = doc.get("family", "custom")
    c = doc.get("params", {}).get("c", "1/2")
    return name if c == "1/2" else f"{name}(c={c})"


POLYGON_DOCS = [
    {"family": "shearlet_smoothness", "params": {}},
    {"family": "shearlet_coorbit", "params": {"c": -1}},
    {"family": "shearlet_coorbit", "params": {"c": 1}},
    {"family": "shearlet_coorbit", "params": {"c": 2}},
    {"family": "shearlet_coorbit", "params": {"c": "1/2"}},
    {"family": "shearlet_coorbit", "params": {"c": "1/3"}},
    {"family": "shearlet_coorbit", "params": {"c": "3/2"}},
]


@pytest.mark.parametrize("doc", POLYGON_DOCS, ids=_doc_id)
def test_polygon_test_matches_clipping_reference(doc):
    """Every polygon pair whose boxes meet, on the family windows at radius
    0-2, against the clipped area and the per-pair separating-axis test."""
    cov = covering_from_json(doc)
    indices = cov.window(2)
    sets = [placed(cov, i)[0] for i in indices]
    boxes = [s.bounding_box() for s in sets]
    exact = all(isinstance(x, (int, F)) for i in indices for row in cov.transform(i)[0] for x in row)
    compared = 0
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            (lo_a, hi_a), (lo_b, hi_b) = boxes[a], boxes[b]
            if any(h < l for h, l in zip(hi_a, lo_b)) or any(h < l for h, l in zip(hi_b, lo_a)):
                continue
            want = _reference_meet(sets[a], sets[b])
            hit, sure = sets_intersect(sets[a], sets[b])
            assert (hit, sure) == polygons_intersect(sets[a], sets[b]), (indices[a], indices[b])
            if exact:
                assert (hit, sure) == (want, True), (indices[a], indices[b])
            else:
                # the float route may only err towards an uncertain "meets"
                assert hit == want or (hit and not sure), (indices[a], indices[b])
            compared += 1
    assert compared > len(sets)


def test_shearlet_low_pass_set_only_touches_the_scale_two_cones():
    cov = covering_from_json({"family": "shearlet_smoothness", "params": {}})
    low, _ = placed(cov, (0,))
    for eps in (-1, 1):
        cone, _ = placed(cov, (2, 0, eps, 1))
        assert _clip_area2(low.vertices, cone.vertices) == 0
        assert sets_intersect(low, cone) == (False, True)
    assert certify_constants(cov, 2)["N_hat"] == 50


_COORD = st.builds(F, st.integers(-24, 24), st.integers(1, 6))


@st.composite
def _convex_polygon(draw):
    """The convex hull of a few rational points, counter-clockwise, area > 0."""
    pts = sorted(set(draw(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=7))))

    def half(points):
        hull = []
        for p in points:
            while len(hull) >= 2 and _area2([hull[-2], hull[-1], p]) <= 0:
                hull.pop()
            hull.append(p)
        return hull[:-1]

    hull = half(pts) + half(pts[::-1])
    assume(len(hull) >= 3)
    return tuple(hull)


def _reflect_across_edge(verts, k):
    p, q = verts[k], verts[(k + 1) % len(verts)]
    d = (q[0] - p[0], q[1] - p[1])
    dd = d[0] * d[0] + d[1] * d[1]
    out = []
    for v in verts:
        w = (v[0] - p[0], v[1] - p[1])
        t = (w[0] * d[0] + w[1] * d[1]) / dd
        out.append((p[0] + 2 * t * d[0] - w[0], p[1] + 2 * t * d[1] - w[1]))
    return tuple(out)


@st.composite
def _polygon_pair(draw):
    """Two rational convex polygons: independent, sharing an edge, sharing
    only a vertex, or one of the touching pairs moved by a small shift."""
    a = draw(_convex_polygon())
    kind = draw(st.sampled_from(["independent", "edge", "vertex", "edge_shift", "vertex_shift"]))
    if kind == "independent":
        return a, draw(_convex_polygon())
    k = draw(st.integers(0, len(a) - 1))
    if kind.startswith("edge"):
        b = _reflect_across_edge(a, k)
    else:
        v = a[k]
        b = tuple((2 * v[0] - x, 2 * v[1] - y) for x, y in a)
    if kind.endswith("shift"):
        dx, dy = (draw(st.builds(F, st.integers(-3, 3), st.integers(8, 64))) for _ in "xy")
        b = tuple((x + dx, y + dy) for x, y in b)
    return a, b


@given(_polygon_pair())
@settings(max_examples=300, deadline=None)
def test_rational_polygons_match_clipping_reference(pair):
    a, b = (PolygonSet(v) for v in pair)
    want = _reference_meet(a, b)
    assert sets_intersect(a, b) == (want, True)
    assert sets_intersect(b, a) == (want, True)


def _as_float(verts):
    return tuple((float(x), float(y)) for x, y in verts)


@st.composite
def _kernel_pair(draw):
    """A polygon pair of ``_polygon_pair`` at a power-of-two scale, each side
    in either orientation and rational or float; a float side is nudged by a
    multiple of the pair's float tolerance, so near-ties on both sides of it
    occur."""
    pair = draw(_polygon_pair())
    scale = F(2) ** draw(st.integers(-6, 24))
    a, b = (
        tuple((x * scale, y * scale) for x, y in (verts[::-1] if draw(st.booleans()) else verts))
        for verts in pair
    )
    kind = draw(st.sampled_from(["rational", "float", "mixed", "mixed_swapped"]))
    if kind == "rational":
        return a, b
    tol = _FLOAT_GAP_TOL * max(1.0, *(abs(float(x)) for v in a + b for x in v))
    nudge = draw(st.sampled_from([0, 0.25, 0.5, 0.999, 1, 1.001, 2, -0.5, -1, -1.001]))
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (-1, 2)]))
    b = tuple((x + dx * nudge * tol, y + dy * nudge * tol) for x, y in _as_float(b))
    if kind == "float":
        return _as_float(a), b
    return (a, b) if kind == "mixed" else (b, a)


@given(_kernel_pair())
@settings(max_examples=400, deadline=None)
def test_polygon_kernel_matches_the_per_pair_reference(pair):
    want = polygons_intersect(*(PolygonSet(v) for v in pair))
    want_swapped = polygons_intersect(*(PolygonSet(v) for v in pair[::-1]))
    a, b = (PolygonSet(v) for v in pair)
    assert sets_intersect(a, b) == want
    assert sets_intersect(b, a) == want_swapped
    # again on the axis data the first calls cached
    assert sets_intersect(a, b) == want


def test_mixed_polygon_pairs_take_the_float_route():
    square = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))
    exact = PolygonSet(square)
    inside = PolygonSet(((0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)))
    apart = PolygonSet(((2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0)))
    touching = PolygonSet(((1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)))
    assert sets_intersect(exact, inside) == sets_intersect(inside, exact) == (True, True)
    assert sets_intersect(exact, apart) == sets_intersect(apart, exact) == (False, True)
    # a float touch is a near-tie: meets, uncertain
    assert sets_intersect(exact, touching) == (True, False)
    # the exact side kept its integer lattice for exact partners
    assert sets_intersect(exact, PolygonSet(square)) == (True, True)


def test_float_tolerance_scales_with_the_larger_polygon():
    # 5e-4 apart: past the unit square's own tolerance 1e-9, inside the
    # tolerance 1e-9 * 1e6 that the larger polygon sets for the pair
    big = PolygonSet(((1.0005, 0.0), (1e6, 0.0), (1e6, 1.0), (1.0005, 1.0)))
    square = ((0, 0), (1, 0), (1, 1), (0, 1))
    for coord in (float, F):
        small = PolygonSet(tuple((coord(x), coord(y)) for x, y in square))
        assert sets_intersect(small, big) == sets_intersect(big, small) == (True, False)


_ENTRY = st.builds(F, st.integers(-12, 12), st.integers(1, 8))
_RATIONAL_MAT = st.tuples(st.tuples(_ENTRY, _ENTRY), st.tuples(_ENTRY, _ENTRY))
_FLOAT = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.builds(lambda n, m: 2.0 ** n * m, st.integers(-30, 30), st.integers(-8, 8)),
)


def _mat_vec_image(base, t, b):
    return tuple(
        tuple(x + y for x, y in zip(covering_module.mat_vec(t, v), b)) for v in base.vertices
    )


@given(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=6),
       _RATIONAL_MAT, st.tuples(_ENTRY, _ENTRY))
@settings(max_examples=300, deadline=None)
def test_lattice_image_matches_fraction_arithmetic(verts, t, b):
    base = PolygonSet(tuple(verts))
    img, ok = transform_base(base, t, b)
    want = PolygonSet(_mat_vec_image(base, t, b))
    assert ok and img.vertices == want.vertices
    assert all(type(x) is F for v in img.vertices for x in v)
    assert img.bounding_box() == want.bounding_box()
    assert img.sup_norm() == want.sup_norm()
    # the seeded lattice holds the same points, on the lattice the vertices give
    assert "_lattice" in vars(img)
    pts, s = img._lattice
    assert tuple((F(x, s), F(y, s)) for x, y in pts) == img.vertices
    assert (pts, s) == covering_module._integer_scaled(want.vertices)


@given(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=6),
       st.tuples(st.tuples(_FLOAT, _FLOAT), st.tuples(_FLOAT, _FLOAT)),
       st.tuples(st.one_of(_ENTRY, _FLOAT), st.one_of(_ENTRY, _FLOAT)))
@settings(max_examples=300, deadline=None)
def test_float_transform_image_matches_raw_arithmetic(verts, t, b):
    base = PolygonSet(tuple(verts))
    img, ok = transform_base(base, t, b)
    want = _mat_vec_image(base, t, b)
    assert ok and img._lattice is None
    # bit for bit, signed zeros included
    assert [x.hex() for v in img.vertices for x in v] == [x.hex() for v in want for x in v]


def test_unsupported_pair_falls_back_conservatively():
    ball = BallSet((F(5), F(5)), F(1))
    poly = cone_trapezoid(F(1, 3), F(3), F(-1), F(1))
    hit, sure = sets_intersect(ball, poly)
    assert hit and not sure


def test_float_near_touch_is_flagged():
    a = BallSet((0.0,), 1.0)
    b = BallSet((2.0 + 1e-13,), 1.0)
    hit, sure = sets_intersect(a, b)
    assert hit and not sure


def test_transform_similarity_keeps_balls_exact():
    rot = ((F(0), F(-1)), (F(1), F(0)))
    ball, ok = transform_base(BallSet((F(1), F(0)), F(1, 2)), rot, (F(3), F(0)))
    assert ok and ball == BallSet((F(3), F(1)), F(1, 2))


def test_transform_general_matrix_on_ball_degrades():
    stretch = ((F(2), F(0)), (F(0), F(1)))
    img, ok = transform_base(BallSet((F(0), F(0)), F(1)), stretch, (F(0), F(0)))
    assert not ok  # ellipse: only a bounding ball, flagged
    assert isinstance(img, BallSet) and float(img.radius) >= 2.0


def _row_covering(base, t, step) -> Covering:
    """Three copies of one base set under T, the i-th shifted by
    ``step`` * (i + 1) along the first axis."""
    d = len(t)
    return Covering(
        label="row",
        dimension=d,
        window=fixed_window((0,), (1,), (2,)),
        transform=lambda i: (t, (step * (i[0] + 1), *[F(0)] * (d - 1))),
        base_set=lambda i: base,
    )


_CHAIN = {(0,): ((0,), (1,)), (1,): ((0,), (1,), (2,)), (2,): ((1,), (2,))}


@pytest.mark.parametrize("base, t, step, center, radius", [
    # an annulus shifted off the origin is only its bounding ball, |x| < 1
    (AnnulusSet(1, F(1, 2), F(1)), ((F(1),),), F(3, 2), (3.0,), 1.0),
    # a box under a rotation: the ball around its center through its corners
    (BoxSet((F(0), F(0)), (F(1), F(1))), ((F(0), F(-1)), (F(1), F(0))), F(1),
     (1.5, 0.5), math.sqrt(2) / 2),
])
def test_bounding_ball_images_are_flagged(base, t, step, center, radius):
    cov = _row_covering(base, t, step)
    img, ok = placed(cov, (1,))
    assert not ok and isinstance(img, BallSet)
    assert img.center == center and img.radius == pytest.approx(radius)
    # float balls one step apart meet, two steps apart miss, both for certain
    first, last = placed(cov, (0,))[0], placed(cov, (2,))[0]
    assert sets_intersect(first, img) == (True, True)
    assert sets_intersect(first, last) == (False, True)
    assert adjacency(cov, 0) == (_CHAIN, False)
    assert certify_constants(cov, 0)["tightness_ok"] is False


def test_annuli_under_a_float_scale_meet_by_float_norm_intervals():
    """T_i = 2^i [[1, 1], [-1, 1]] is sqrt(2) 2^i times a rotation, so the
    annuli keep float radii; i and i + 2 touch at 2 sqrt(2) 2^i."""
    rot = ((F(1), F(1)), (F(-1), F(1)))
    cov = Covering(
        label="float_annuli",
        dimension=2,
        window=fixed_window((0,), (1,), (2,), (3,)),
        transform=lambda i: (tuple(tuple(x * 2 ** i[0] for x in row) for row in rot),
                             (F(0), F(0))),
        base_set=lambda i: AnnulusSet(2, F(1, 2), F(2)),
    )
    sets = {i: placed(cov, i) for i in cov.window(0)}
    assert all(ok and type(s.outer) is float for s, ok in sets.values())
    pair = {(i, j): sets_intersect(sets[(i,)][0], sets[(j,)][0])
            for i in range(4) for j in range(i + 1, 4)}
    assert pair == {
        (0, 1): (True, True), (1, 2): (True, True), (2, 3): (True, True),
        (0, 2): (True, False), (1, 3): (True, False),
        (0, 3): (False, True),
    }
    nbrs, certain = adjacency(cov, 0)
    assert dict(nbrs) == {
        (0,): ((0,), (1,), (2,)), (1,): ((0,), (1,), (2,), (3,)),
        (2,): ((0,), (1,), (2,), (3,)), (3,): ((1,), (2,), (3,)),
    }
    assert not certain
    assert certify_constants(cov, 0)["tightness_ok"] is False


@pytest.mark.parametrize("d", [1, 2])
def test_alpha_zero_modulation_is_the_exact_uniform_covering(d):
    """alpha = 0: T_k = id and b_k = k, so balls of radius 2 meet iff
    |k - k'| < 4, decided exactly."""
    cov = covering_from_json({"family": "alpha_modulation", "params": {"d": d, "alpha": 0}})
    window = cov.window(3)
    assert all(cov.transform(k) == (tuple(tuple(F(r == c) for c in range(d)) for r in range(d)),
                                     tuple(map(F, k))) for k in window)
    nbrs, certain = adjacency(cov, 3)
    assert certain
    assert dict(nbrs) == {
        k: tuple(sorted(j for j in window if sum((x - y) ** 2 for x, y in zip(k, j)) < 16))
        for k in window
    }
    consts = certify_constants(cov, 3)
    assert consts["C_hat"] == 1.0 and consts["tightness_ok"] is True


@pytest.mark.parametrize("doc,expect", [
    ({"ball": {"center": [[1, 2], 0], "radius": "3/4"}},
     BallSet((F(1, 2), F(0)), F(3, 4))),
    ({"box": {"lo": [-1, 0], "hi": [1, 2]}}, BoxSet((F(-1), F(0)), (F(1), F(2)))),
    ({"annulus": {"dim": 2, "inner": "1/4", "outer": 4}}, AnnulusSet(2, F(1, 4), F(4))),
    ({"annulus": {"inner": 0, "outer": 1}}, AnnulusSet(1, F(0), F(1))),
    ({"polygon": {"vertices": [[0, 0], [1, 0], [0, "1/2"]]}},
     PolygonSet(((F(0), F(0)), (F(1), F(0)), (F(0), F(1, 2))))),
    ({"cone_trapezoid": {"x": ["1/3", 3], "slope": [-1, 1]}},
     PolygonSet(((F(1, 3), F(-1, 3)), (F(3), F(-3)), (F(3), F(3)), (F(1, 3), F(1, 3))))),
])
def test_base_set_from_json_accepts(doc, expect):
    assert base_set_from_json(doc) == expect


# ---------------------------------------------------------------------------
# spectral norms and inverses
# ---------------------------------------------------------------------------

def _square_floats(d: int):
    row = st.tuples(*[st.floats(min_value=-8, max_value=8, allow_nan=False)] * d)
    return st.tuples(*[row] * d)


@given(st.integers(1, 4).flatmap(_square_floats))
# norms below 1 once stopped the power iteration after one step
@example(((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1e-6)))
@example(((1e-6, 0.0, 0.0), (0.0, 2e-6, 0.0), (0.0, 0.0, 3e-6)))
# the Gram matrix of these once overflowed or underflowed
@example(((1e80, 0.0), (0.0, 1.0)))
@example(((1e100, 0.0), (0.0, 1e100)))
@example(((1e-200, 0.0), (0.0, 1e-200)))
@example(((1e100, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
# a power iteration from a fixed start vector once stopped on the second
# singular value here: 0.99902 against 1.00098
@example(((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 2.0**-9, -1.0)))
@settings(max_examples=80, deadline=None)
def test_spectral_norm_matches_reference(mat):
    ref = float(np.linalg.norm(np.array(mat), 2))
    assert spectral_norm(mat) == pytest.approx(ref, abs=1e-9, rel=1e-9)


@pytest.mark.parametrize("mat, norm", [
    (((1e80, 0.0), (0.0, 1.0)), 1e80),
    (((1e100, 0.0), (0.0, 1e100)), 1e100),
    (((1e-200, 0.0), (0.0, 1e-200)), 1e-200),
    (((3e-200, 0.0), (4e-200, 0.0)), 5e-200),
    (((1e100, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), 1e100),
    (((1e-200, 0.0, 0.0), (0.0, 2e-200, 0.0), (0.0, 0.0, 0.0)), 2e-200),
    (((F(10**160), F(1)), (F(0), F(1))), 1e160),
])
@WARNINGS_AS_ERRORS
def test_spectral_norm_keeps_relative_accuracy_far_from_one(mat, norm):
    # the absolute tolerance above cannot see an underflow to 0.0
    assert spectral_norm(mat) == pytest.approx(norm, rel=1e-12, abs=0.0)


def test_spectral_norm_past_the_float_range_overflows():
    with pytest.raises(OverflowError):
        spectral_norm(((1e308, 1e308), (1e308, 1e308)))


@given(st.one_of(
    st.integers(-(2**1000), 2**1000),
    st.fractions(),
    st.floats(allow_nan=False),
))
@settings(max_examples=200, deadline=None)
def test_spectral_norm_1x1_is_the_absolute_value(x):
    assert spectral_norm(((x,),)) == abs(float(x))
    assert spectral_norm([[x]]) == abs(float(x))


@st.composite
def _permuted_diagonals(draw):
    d = draw(st.integers(1, 4))
    entries = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
        min_size=d, max_size=d))
    cols = draw(st.permutations(range(d)))
    mat = tuple(
        tuple(entries[i] if j == cols[i] else 0.0 for j in range(d)) for i in range(d)
    )
    return mat, max(abs(x) for x in entries)


@given(_permuted_diagonals())
@example((((0.5, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0)), 2.0))
@settings(max_examples=200, deadline=None)
def test_spectral_norm_of_a_permuted_diagonal_is_its_largest_entry(case):
    mat, norm = case
    assert spectral_norm(mat) == norm


@pytest.mark.parametrize("mat", [
    [[1, 2]],
    ((F(1),), (F(2), F(3))),
    [[1, 2], [3]],
    (),
    [],
    [[]],
    [[[1]]],
], ids=["1x2", "ragged-1-2", "ragged-2-1", "no-rows-tuple", "no-rows-list",
        "one-empty-row", "1x1x1"])
def test_spectral_norm_rejects_non_square_input(mat):
    with pytest.raises(ValueError):
        spectral_norm(mat)


def test_mat_inverse_is_exact_on_rationals():
    m = ((F(1), F(2)), (F(3), F(4)))
    assert mat_mul(m, mat_inverse(m)) == ((F(1), F(0)), (F(0), F(1)))
    tri = ((F(4), F(0)), (F(6), F(2)))
    assert mat_mul(mat_inverse(tri), tri) == ((F(1), F(0)), (F(0), F(1)))


def test_mat_inverse_rejects_singular():
    with pytest.raises(ZeroDivisionError):
        mat_inverse(((F(1), F(2)), (F(2), F(4))))


# ---------------------------------------------------------------------------
# adjacency and constants on the dyadic covering
# ---------------------------------------------------------------------------

def test_adjacency_is_reflexive_and_symmetric():
    cov = dyadic_annulus_covering()
    nbrs, certain = adjacency(cov, 6)
    assert certain
    for i, js in nbrs.items():
        assert i in js
        for j in js:
            assert i in nbrs[j]


def test_dyadic_neighbor_structure():
    cov = dyadic_annulus_covering()
    nbrs, _ = adjacency(cov, 6)
    # annuli 2^n(1/4, 4) overlap exactly when |n - m| <= 3
    assert nbrs[(0,)] == tuple((k,) for k in range(-3, 4))
    assert neighbors(cov, (0,), 6) == nbrs[(0,)]


COVERING_DOCS = [
    {"family": "hom_besov", "params": {"d": 2}},
    {"family": "inhom_besov", "params": {"d": 2}},
    {"family": "alpha_modulation", "params": {"d": 2, "alpha": "1/2"}},
    {"family": "shearlet_smoothness", "params": {}},
    {"family": "shearlet_coorbit", "params": {"c": "1/2"}},
    {"family": "shearlet_coorbit", "params": {"c": -1}},
    {"family": "shearlet_coorbit", "params": {"c": 2}},
    {"family": "diagonal", "params": {"d": 2, "alpha": "1/2", "beta": [0, [-1, 2]]}},
    {"custom": {
        "dimension": 2,
        "indices": [[0], [1], [2], [3]],
        "T": [[[1, 0], [0, 1]], [[2, 0], [0, 2]], [[1, 1], [0, 1]], [[3, 0], [0, 1]]],
        "b": [[0, 0], [1, 0], [0, "1/2"], [-4, 0]],
        "base_set": {"ball": {"center": [0, 0], "radius": 1}},
    }},
]


@pytest.mark.parametrize("doc", COVERING_DOCS, ids=_doc_id)
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_adjacency_matches_all_pairs_reference(doc, radius):
    cov = covering_from_json(doc)
    indices = cov.window(radius)
    images = [placed(cov, i) for i in indices]
    ref = {i: [] for i in indices}
    ref_certain = all(ok for _, ok in images)
    for a, i in enumerate(indices):
        for b, j in enumerate(indices):
            if a == b:
                ref[i].append(j)
                continue
            meet, sure = sets_intersect(images[a][0], images[b][0])
            ref_certain = ref_certain and sure
            if meet:
                ref[i].append(j)

    nbrs, certain = adjacency(cov, radius)
    assert dict(nbrs) == {i: tuple(sorted(js)) for i, js in ref.items()}
    assert certain == ref_certain
    for i in indices:
        assert neighbors(cov, i, radius) == nbrs[i]
    assert adjacency(cov, radius) is adjacency(cov, radius)


def test_adjacency_map_is_read_only():
    nbrs, _ = adjacency(dyadic_annulus_covering(), 2)
    with pytest.raises(TypeError):
        nbrs[(0,)] = ()


def test_neighbors_outside_the_window_is_invalid():
    with pytest.raises(InvalidParams):
        neighbors(dyadic_annulus_covering(), (99,), 2)


def test_dyadic_constants():
    consts = certify_constants(dyadic_annulus_covering(), 6)
    assert consts["N_hat"] == 7
    assert consts["C_hat"] == pytest.approx(8.0, abs=1e-9)
    assert consts["R_hat"] == pytest.approx(4.0)
    assert consts["tightness_ok"]


def test_dyadic_constants_in_two_dimensions():
    consts = certify_constants(dyadic_annulus_covering(dim=2), 5)
    assert consts["N_hat"] == 7
    assert consts["C_hat"] == pytest.approx(8.0, abs=1e-9)
    assert consts["tightness_ok"]


def test_float_transforms_never_claim_tightness():
    """Certain geometry over float data, with nothing declared about it."""
    cov = Covering(
        label="sqrt2",
        dimension=1,
        window=HOM_BESOV_WINDOW,
        transform=lambda i: (((math.sqrt(2),),), (3.0 * i[0],)),
        base_set=lambda i: BallSet((F(0),), F(1)),
    )
    assert adjacency(cov, 3)[1]
    assert certify_constants(cov, 3)["tightness_ok"] is False


def test_check_moderate_accepts_dyadic_weight():
    cov = dyadic_annulus_covering()
    res = check_moderate(cov, lambda i: 2.0 ** i[0], (5, 6))
    assert res["ok"]
    assert res["C_uQ_hat"] == pytest.approx(8.0)


def test_check_moderate_rejects_superexponential_weight():
    cov = dyadic_annulus_covering()
    res = check_moderate(cov, lambda i: 2.0 ** (i[0] ** 2), (5, 6))
    assert not res["ok"]


@pytest.mark.parametrize("log2_det", [
    2100,  # |det T_1|^(1/2) = 2^1050 overflows in math.exp
    2046,  # 2^1023 is a float, 3 * 2^1023 is not
])
def test_moderateness_probe_past_the_float_range_is_unsupported(log2_det):
    """T_i = 2^(log2_det i) maps Q'_i = (-2^-(log2_det i), 2^-(log2_det i))
    onto (-1, 1): the geometry stays in range, the probe weight does not."""
    cov = Covering(
        label="steep",
        dimension=1,
        window=fixed_window((0,), (1,)),
        transform=lambda i: (((F(2) ** (log2_det * i[0]),),), (F(0),)),
        base_set=lambda i: BallSet((F(0),), F(1, 2 ** (log2_det * i[0]))),
    )
    assert adjacency(cov, 0)[0][(0,)] == ((0,), (1,))
    with pytest.raises(OverflowError):
        probe_weight(cov)((1,))
    with pytest.raises(UnsupportedGeometry, match="'steep' at radius 0 leaves the float range"):
        check_moderate(cov, probe_weight(cov), (0, 1))


def _exact_products(cov: Covering, radius: int) -> dict:
    """T_i^-1 T_j per neighbour pair (i, j): the float entries of each T_i,
    read as Fractions, inverted once per i and multiplied exactly."""
    nbrs = adjacency(cov, radius)[0]
    exact = {i: tuple(tuple(map(F, row)) for row in cov.transform(i)[0]) for i in nbrs}
    inverse = {i: mat_inverse(t_i) for i, t_i in exact.items()}
    return {
        (i, j): tuple(tuple(map(float, row)) for row in mat_mul(inverse[i], exact[j]))
        for i, js in nbrs.items() for j in js
    }


def _pair_formula_c_hat(products: dict) -> float:
    """C_hat as one spectral_norm per neighbour pair of ``_exact_products``."""
    return max([0.0, *map(spectral_norm, products.values())])


def _invertible(d: int, entry):
    row = st.tuples(*[entry] * d)
    return st.tuples(*[row] * d).filter(lambda m: abs(np.linalg.det(np.array(m, dtype=float))) > 1e-3)


_rational_entry = st.fractions(min_value=-4, max_value=4, max_denominator=10**9)
_float_entry = st.floats(min_value=-4, max_value=4, allow_subnormal=False)


@st.composite
def _shared_transform_covering(draw):
    """Up to 12 indices drawing T_i from a pool of at most 4 matrices, exact,
    float or both, around one origin ball, so that every pair meets and many
    pairs share T_i^-1 T_j."""
    d = draw(st.sampled_from([2, 3]))
    entry = draw(st.sampled_from(["rational", "float", "mixed"]))
    entries = {
        "rational": _rational_entry, "float": _float_entry,
        "mixed": st.one_of(_rational_entry, _float_entry),
    }[entry]
    pool = draw(st.lists(_invertible(d, entries), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    mats = dict(enumerate(picks))
    return Covering(
        label="pool",
        dimension=d,
        window=fixed_window(*((k,) for k in mats)),
        transform=lambda i: (mats[i[0]], (0,) * d),
        base_set=lambda i: BallSet((0,) * d, 1),
    )


@given(_shared_transform_covering())
@settings(max_examples=150, deadline=None)
def test_c_hat_matches_the_pair_formula_with_one_norm_per_product(cov):
    pairs = _exact_products(cov, 0)
    products = set(pairs.values())
    calls = []

    def counting_norm(mat):
        calls.append(mat)
        return spectral_norm(mat)

    with mock.patch.object(covering_module, "spectral_norm", counting_norm):
        got = certify_constants(cov, 0)["C_hat"]
    assert got.hex() == _pair_formula_c_hat(pairs).hex()
    assert len(calls) == len(set(calls)) and set(calls) == products


def test_float_transform_c_hat_is_exactly_one():
    """T^-1 T is the identity for a float T too: its entries are read exactly."""
    t = ((0.1, 0.7), (0.3, 1.9))
    cov = Covering(
        label="one_float_index",
        dimension=2,
        window=fixed_window((0,)),
        transform=lambda i: (t, (0.0, 0.0)),
        base_set=lambda i: BallSet((F(0), F(0)), F(1)),
    )
    assert certify_constants(cov, 0)["C_hat"] == 1.0


CONSTANTS_GOLDEN = Path(__file__).parent / "golden" / "covering_constants.jsonl"


def test_covering_constants_replay_byte_for_byte():
    """The frozen constants of scripts/freeze_goldens.py: one line per (covering, radius)."""
    lines = CONSTANTS_GOLDEN.read_text().splitlines(keepends=True)
    assert len(lines) >= 48
    drifted = []
    for line in lines:
        frozen = json.loads(line)
        cov, radius = covering_from_json(frozen["covering"]), frozen["radius"]
        got = {"covering": frozen["covering"], "radius": radius}
        try:
            got["constants"] = certify_constants(cov, radius)
        except InvalidParams as exc:
            got["error"] = str(exc)
        else:
            nbrs = sorted([list(i), [list(j) for j in js]]
                          for i, js in adjacency(cov, radius)[0].items())
            got["neighbors_sha256"] = hashlib.sha256(
                json.dumps(nbrs, separators=(",", ":")).encode()).hexdigest()
        if json.dumps(got, separators=(",", ":")) + "\n" != line:
            drifted.append((frozen["covering"], radius))
    assert not drifted, f"{len(drifted)} of {len(lines)} lines drifted, first {drifted[0]}"


def test_norm_surrogate_on_dyadic_covering():
    res = norm_surrogate_check(dyadic_annulus_covering(), 5)
    # |b| + ||T|| = 2^n against sup |x| = 2^(n+2)
    assert res["min_ratio"] == pytest.approx(0.25)
    assert res["max_ratio"] == pytest.approx(0.25)


def test_norm_surrogate_rejects_an_empty_window():
    cov = covering_from_json({"family": "alpha_modulation", "params": {}})
    with pytest.raises(InvalidParams):
        norm_surrogate_check(cov, 0)


def test_norm_surrogate_requires_tightness():
    def tr(i):
        return ((2.0 ** (i[0] / 2),),), (0.0,)

    cov = Covering(
        label="sqrt_scales",
        dimension=1,
        window=HOM_BESOV_WINDOW,
        transform=tr,
        base_set=lambda i: AnnulusSet(1, F(1, 4), F(4)),
    )
    with pytest.raises(MissingTightnessWitness):
        norm_surrogate_check(cov, 4)


# ---------------------------------------------------------------------------
# custom coverings
# ---------------------------------------------------------------------------

def test_custom_covering_from_json():
    doc = {
        "dimension": 1,
        "indices": [[0], [1], [2]],
        "T": [[[1]], [[2]], [[4]]],
        "b": [[0], [0], [0]],
        "base_set": {"annulus": {"dim": 1, "inner": "1/2", "outer": 2}},
    }
    cov = custom_covering_from_json(doc)
    assert cov.window(99) == [(0,), (1,), (2,)]
    nbrs, certain = adjacency(cov, 99)
    assert certain
    assert nbrs[(0,)] == ((0,), (1,))  # 2^2*(1/2,2) = (2,8) only touches (1/2,2)


@pytest.mark.parametrize("broken", [
    {"dimension": 1},
    {"dimension": 1, "indices": [], "T": [], "b": [], "base_set": {"ball": {}}},
    {
        "dimension": 1,
        "indices": [[0]],
        "T": [[[1, 0]]],
        "b": [[0]],
        "base_set": {"ball": {"center": [0], "radius": 1}},
    },
    {
        "dimension": 1,
        "indices": [[0], [0]],
        "T": [[[1]], [[1]]],
        "b": [[0], [0]],
        "base_set": {"ball": {"center": [0], "radius": 1}},
    },
])
def test_custom_covering_schema_errors(broken):
    with pytest.raises(SchemaError):
        custom_covering_from_json(broken)


def test_explicit_scheme_ignores_radius():
    cov = custom_covering_from_json({
        "dimension": 1,
        "indices": [[0], [5]],
        "T": [[[1]], [[2]]],
        "b": [[0], [0]],
        "base_set": {"ball": {"center": [0], "radius": 1}},
    })
    assert cov.window(1) == [(0,), (5,)]
