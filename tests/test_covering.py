"""Covering geometry: windows, adjacency, structure constants."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decomp_embed import cli, memos
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
    mat_det,
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
    check_window_cap,
    window_cap,
    window_power,
)
from decomp_embed.families import covering_from_json, family_covering, get_family
from freeze_goldens import constants_line, jsonl_changes
from witnesses import (
    WARNINGS_AS_ERRORS,
    cofactor_adjugate,
    cofactor_det,
    mat_inverse,
    polygons_intersect,
)

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


def test_a_count_past_2_to_the_64_is_named_by_its_power_of_two():
    with pytest.raises(WindowCapExceeded, match=f"^window of {2**64 - 1} indices "):
        check_window_cap(2**64 - 1)
    with pytest.raises(WindowCapExceeded, match=r"^window of about 2\^64 indices "):
        check_window_cap(2**64)
    with pytest.raises(WindowCapExceeded, match=r"^window of about 2\^50000 indices "):
        check_window_cap(2**50001 - 1)


def _refusal(call) -> str | None:
    """The message of the WindowCapExceeded ``call`` raises, or None."""
    try:
        call()
    except WindowCapExceeded as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cap", [None, "100", str(2**70)])
@pytest.mark.parametrize("base", [1, 2, 3, 5, 6, 7, 10, 22])
def test_a_dimension_power_is_refused_as_the_full_count_would_be(monkeypatch, cap, base):
    """window_power reads a power past 2^64 and the cap off the bit lengths,
    and names it as check_window_cap names the power built in full; so does
    alpha_modulation's odd base less the origin."""
    if cap is None:
        monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW", raising=False)
    else:
        monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", cap)
    for exp in range(300):
        for less in (0, 1) if base % 2 else (0,):
            assert (_refusal(lambda: check_window_cap(window_power(base, exp) - less))
                    == _refusal(lambda: check_window_cap(base**exp - less))), (exp, less)


def test_a_dimension_power_of_a_billion_is_refused_before_it_is_built():
    start = time.perf_counter()
    with pytest.raises(WindowCapExceeded, match=r"^window of about 2\^2807354922 indices "):
        window_power(7, 10**9)
    assert time.perf_counter() - start < 1


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


@pytest.mark.parametrize("doc", [doc for doc, _ in _WINDOW_DIGESTS],
                         ids=[doc.get("family", "custom") for doc, _ in _WINDOW_DIGESTS])
def test_window_cap_counts_the_window(monkeypatch, doc):
    """The count a window checks against the cap is its length, so a kept
    map of one entry per index checks the same count."""
    window = covering_from_json(doc).window
    for radius in range(1, 6):
        monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW", raising=False)
        size = len(window(radius))
        monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", str(size))
        assert len(window(radius)) == size
        monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", str(size - 1))
        with pytest.raises(WindowCapExceeded, match=f"^window of {size} indices "):
            window(radius)


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


def _box_reference(a: BoxSet, b: BoxSet) -> bool:
    """The per-axis test of two open boxes by Fraction comparisons."""
    return all(max(lo1, lo2) < min(hi1, hi2)
               for lo1, hi1, lo2, hi2 in zip(a.lo, a.hi, b.lo, b.hi))


_BOX_COORD = st.one_of(st.integers(-12, 12), st.builds(F, st.integers(-24, 24),
                                                       st.sampled_from([2, 3, 4, 6])))
_BOX_STEP = st.builds(F, st.integers(1, 8), st.sampled_from([1, 2, 3]))


@st.composite
def _box_pairs(draw):
    """Two boxes whose faces often touch or coincide, one of them in floats,
    nudged by about 1e-12, a third of the time."""
    a, b = [[], []], [[], []]
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(_BOX_COORD)
        hi = lo + draw(_BOX_STEP)
        shape = draw(st.sampled_from(["above", "below", "same", "inside", "free"]))
        other = {
            "above": (hi, hi + draw(_BOX_STEP)),
            "below": (lo - draw(_BOX_STEP), lo),
            "same": (lo, hi),
            "inside": (lo + (hi - lo) / 3, hi - (hi - lo) / 3),
        }.get(shape)
        if other is None:
            start = draw(_BOX_COORD)
            other = (start, start + draw(_BOX_STEP))
        for box, (x, y) in ((a, (lo, hi)), (b, other)):
            box[0].append(x)
            box[1].append(y)
    floats = draw(st.sampled_from([None, 0, 1]))
    if floats is not None:
        nudge = draw(st.sampled_from([0.0, 1e-12, -1e-12]))
        (a, b)[floats][:] = [[float(x) * (1.0 + nudge) for x in v] for v in (a, b)[floats]]
    return BoxSet(*map(tuple, a)), BoxSet(*map(tuple, b))


@given(_box_pairs())
@example((BoxSet((F(0), F(0)), (F(1), F(1))), BoxSet((F(1), F(0)), (F(2), F(1)))))
@example((BoxSet((0.0,), (1.0,)), BoxSet((F(1) - F(1, 10**12),), (F(2),))))
@settings(max_examples=400, deadline=None)
def test_integer_box_test_keeps_the_fraction_semantics(pair):
    """Exact boxes meet as their Fractions do, certainly; a float box is an
    unsupported shape, counted as meeting, uncertain."""
    a, b = pair
    got = sets_intersect(a, b)
    assert sets_intersect(b, a) == got
    if a._lattice is None or b._lattice is None:
        assert got == (True, False)
        return
    assert got == (_box_reference(a, b), True)
    (lo, hi), s = a._lattice
    assert tuple(F(x, s) for x in (*lo, *hi)) == (*a.lo, *a.hi)


@given(st.integers(1, 6).flatmap(lambda d: st.sampled_from([
    st.integers(-10**6, 10**6),
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
    st.floats(-1e200, 1e200, allow_nan=False),
]).flatmap(lambda coord: st.tuples(*[st.tuples(coord, coord)] * d))))
@example(((-3, 2), (1, 1)))
@example(((-2.0, 2.0), (-1e200, 1e200)))
@settings(max_examples=300, deadline=None)
def test_box_sup_norm_is_its_farthest_corner(axes):
    """One number kind per box: ints, Fractions or floats."""
    box = BoxSet(*zip(*axes))
    corners = itertools.product(*axes)
    want = max([0.0, *(math.sqrt(float(sum(x * x for x in c))) for c in corners)])
    assert box.sup_norm().hex() == want.hex()


_DIAG_ENTRY = st.builds(lambda n, m: F(n, 2**m), st.integers(-8, 8).filter(bool),
                        st.integers(0, 4))


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.tuples(*[st.tuples(_BOX_COORD, _BOX_STEP)] * d),
    st.tuples(*[_DIAG_ENTRY] * d), st.tuples(*[_BOX_COORD] * d))))
@settings(max_examples=200, deadline=None)
def test_box_lattice_image_matches_fraction_arithmetic(case):
    axes, diag, b = case
    base = BoxSet(tuple(lo for lo, _ in axes), tuple(lo + w for lo, w in axes))
    t = tuple(tuple(x if i == j else F(0) for j in range(len(diag))) for i, x in enumerate(diag))
    img, ok = transform_base(base, t, b)
    ends = [(t[j][j] * base.lo[j] + b[j], t[j][j] * base.hi[j] + b[j]) for j in range(len(b))]
    assert ok and img == BoxSet(tuple(map(min, ends)), tuple(map(max, ends)))
    assert all(type(x) is F for x in (*img.lo, *img.hi))
    assert "_lattice" in vars(img)
    assert img._lattice == BoxSet(img.lo, img.hi)._lattice


@pytest.mark.parametrize("base, t", [
    (BoxSet((0.5, F(1)), (F(2), F(3))), ((F(2), F(0)), (F(0), F(1, 2)))),
    (BoxSet((F(1, 2), F(1)), (F(2), F(3))), ((2.0, 0.0), (0.0, 0.5))),
], ids=["float-box", "float-diagonal"])
def test_float_box_is_an_unsupported_shape(base, t):
    """A float box, or one under a float T, maps to the bounding ball of its
    image, uncertain, and a covering of such boxes claims no tightness."""
    b = (F(1), F(0))
    img, ok = transform_base(base, t, b)
    center, radius = covering_module._bounding_ball(base)
    moved = zip(covering_module.mat_vec(t, center), b)
    want = BallSet(tuple(float(x) + float(y) for x, y in moved), spectral_norm(t) * float(radius))
    assert not ok and img == want
    cov = Covering("float boxes", 2, lambda r: [(n,) for n in range(-r, r + 1)],
                   lambda i: (t, (F(i[0]), F(0))), lambda i: base)
    assert certify_constants(cov, 2)["tightness_ok"] is False


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


def test_a_repeated_polygon_vertex_adds_no_edge_normal():
    """The edge from a vertex to its repeat has no normal, and ``_edge_axes``
    skips it: a custom covering whose polygon repeats a vertex reads the
    constants and neighbours of the same polygon without the repeat."""
    kite = [[0, 0], [2, 0], [3, 1], [0, 2]]
    repeated = [kite[0], kite[1], kite[1], *kite[2:]]
    assert len(covering_module._edge_axes(tuple(map(tuple, repeated)))) == len(kite)

    def inspect(vertices) -> tuple:
        doc = {"custom": {
            "dimension": 2,
            "indices": [[0], [1], [2], [3], [4]],
            "T": [[[1, 0], [0, 1]], [[2, 0], [0, 2]], [[1, 1], [0, 1]], [[1, 0], [0, 3]],
                  [[1, 0], [0, 1]]],
            "b": [[0, 0], [1, 0], [0, "1/2"], [-4, 0], [9, 9]],
            "base_set": {"polygon": {"vertices": vertices}},
        }}
        return tuple(_run_cli_in_process(["inspect-covering", "--covering", json.dumps(doc),
                                          "--radius", "0", "--index", str(i)]) for i in range(5))

    plain, again = inspect(kite), inspect(repeated)
    assert again == plain and all(code == 0 for code, _, _ in plain)
    consts = json.loads(plain[0][1])["constants"]
    assert consts["tightness_ok"] and 1 < consts["N_hat"] < 5
    assert json.loads(plain[4][1])["neighbors"] == [[4]]


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


_EXACT_ENTRY = st.one_of(st.integers(-9, 9), st.builds(F, st.integers(-9, 9), st.integers(1, 6)))


def _square_of(entry, max_d: int = 5):
    return st.integers(1, max_d).flatmap(lambda d: st.tuples(*[st.tuples(*[entry] * d)] * d))


@given(_square_of(_EXACT_ENTRY))
@example(((1, 2, 3), (2, 4, 6), (0, 1, 1)))  # singular
@example(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))  # two row swaps
@settings(max_examples=300, deadline=None)
def test_exact_determinant_and_adjugate_match_cofactor_expansion(mat):
    assert mat_det(mat) == cofactor_det(mat)
    ints, s = covering_module._integer_scaled(mat)
    det, adj = covering_module._det_adj(ints)
    assert det == cofactor_det(ints)
    if det or len(ints) == 2:
        assert adj == cofactor_adjugate(ints)


@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.floats(1e-30, 1e30).flatmap(lambda x: st.sampled_from([x, -x])), min_size=d, max_size=d)))
@settings(max_examples=200, deadline=None)
def test_float_diagonal_determinant_keeps_the_cofactor_rounding(diag):
    """The right-nested product of the diagonal, bit for bit: the probe
    weight of alpha_modulation reads it at every non-integer alpha."""
    mat = tuple(tuple(x if i == j else 0.0 for j in range(len(diag))) for i, x in enumerate(diag))
    assert mat_det(mat).hex() == cofactor_det(mat).hex()


@given(_square_of(st.floats(-8, 8, allow_nan=False)).filter(
    lambda m: len(m) >= 3 and not covering_module._is_diagonal(m)))
@settings(max_examples=100, deadline=None)
def test_float_matrix_determinant_is_the_exact_one_rounded_once(mat):
    assert mat_det(mat) == float(cofactor_det(tuple(tuple(map(F, row)) for row in mat)))


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
    {"family": "shearlet_coorbit", "params": {"c": "3/2"}},
    {"family": "shearlet_coorbit", "params": {"c": "1/3"}},
    {"family": "alpha_modulation", "params": {"d": 2, "alpha": "1/3"}},
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


@pytest.mark.parametrize("doc", COVERING_DOCS, ids=_doc_id)
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_restricted_map_equals_the_map_built_directly(doc, radius):
    """The map at radius r read off the map at r + 2, with its certain bit,
    equals the map a fresh covering builds at r; alpha_modulation at
    alpha 1/2 is certain at radii 0 and 1 but not at 2 and 3."""
    memos.clear()
    direct = adjacency(covering_from_json(doc), radius)
    memos.clear()
    cov = covering_from_json(doc)
    larger = adjacency(cov, radius + 2)
    with mock.patch.object(covering_module, "sets_intersect", side_effect=AssertionError):
        restricted = adjacency(cov, radius)
    assert dict(restricted[0]) == dict(direct[0])
    assert restricted[1] == direct[1]
    if doc.get("family") == "alpha_modulation" and radius < 2:
        assert restricted[1] and not larger[1]


@pytest.mark.parametrize("doc", [
    {"family": "shearlet_coorbit", "params": {"c": "3/2"}},
    {"family": "alpha_modulation", "params": {"d": 2, "alpha": "1/2"}},
], ids=_doc_id)
def test_a_window_in_another_order_reads_the_map_restricted(doc):
    """A window of radius 1 that lists its indices backwards reads the map
    of radius 3 restricted, with no pair tested again: the box test is
    symmetric, so the order of a window moves no pair.  That map equals a
    direct sweep of the backwards window on a fresh covering."""
    memos.clear()
    forwards = covering_from_json(doc).window

    def backwards() -> Covering:
        """A copy with fresh memos whose window of radius 1 runs backwards."""
        return dataclasses.replace(covering_from_json(doc), window=lambda r: (
            forwards(r)[::-1] if r == 1 else forwards(r)))

    direct = adjacency(backwards(), 1)
    cov = backwards()
    adjacency(cov, 3)
    with mock.patch.object(covering_module, "sets_intersect", side_effect=AssertionError):
        nbrs, certain = adjacency(cov, 1)
    assert list(nbrs) == list(direct[0]) == forwards(1)[::-1]
    assert dict(nbrs) == dict(direct[0]) and certain == direct[1]


def test_boxes_narrower_than_the_tolerance_are_not_candidates_of_each_other():
    """diagonal d = 1 at radius 1 000 has 4 002 dyadic intervals, 1 940 of
    them narrower than 1e-9; each box's pad is relative to its own
    magnitude, so the sweep sends at most 2 pairs per index to
    ``sets_intersect``, not all pairs of the narrow ones."""
    memos.clear()
    cov = covering_from_json({"family": "diagonal", "params": {"d": 1}})
    with mock.patch.object(covering_module, "sets_intersect", wraps=sets_intersect) as tests:
        nbrs, certain = adjacency(cov, 1000)
    assert len(nbrs) == 4002 and certain
    assert tests.call_count <= 2 * len(nbrs)


@pytest.mark.parametrize("family, params, size", [
    ("hom_besov", {"d": 1}, 2001),
    ("inhom_besov", {"d": 2}, 1001),
])
def test_nested_annuli_are_candidates_only_where_their_norms_meet(family, params, size):
    """At radius 1 000 every annulus (and the ball at the origin) has a box
    holding the origin, so every pair of boxes meets; the sweep runs over
    their norm intervals instead, and at most 4 pairs per index reach
    ``sets_intersect``, not all 2 001 000 pairs of hom_besov's."""
    memos.clear()
    cov = covering_from_json({"family": family, "params": params})
    with mock.patch.object(covering_module, "sets_intersect", wraps=sets_intersect) as tests:
        nbrs, certain = adjacency(cov, 1000)
    assert len(nbrs) == size and certain
    assert max(map(len, nbrs.values())) == 7
    assert tests.call_count <= 4 * len(nbrs)


_FAMILY_CASES = [
    ("hom_besov", {"d": 2}, "1"),
    ("inhom_besov", {"d": 2}, "0"),
    ("alpha_modulation", {"d": 2, "alpha": "1/2"}, "1,-1"),
    ("alpha_modulation", {"d": 1, "alpha": "1/2"}, "1"),
    ("shearlet_smoothness", {}, "1,0,1,0"),
    ("shearlet_coorbit", {"c": 2}, "0,1,1"),
    ("shearlet_coorbit", {"c": "1/2"}, "0,1,1"),
    ("diagonal", {"d": 2}, "0,1,1,-1"),
]

# two draws per family of the fields that only the weight of the sequence
# space reads; no covering reads them
_WEIGHT_DRAWS = {
    "hom_besov": ({"s": "1/2"}, {"s": -2}),
    "inhom_besov": ({"s": 1}, {"s": "5/2"}),
    "alpha_modulation": ({"s": 0}, {"s": "3/2"}),
    "shearlet_smoothness": ({"s": "1/4"}, {"s": 2}),
    "shearlet_coorbit": ({"alpha": 1, "beta": 0}, {"alpha": "-3/2", "beta": "1/2"}),
    "diagonal": ({"alpha": "1/2", "beta": -1}, {"alpha": [0, "-1/2"], "beta": [-2, 0]}),
}


def _weighted(family, params) -> list[dict]:
    """``params`` under each weight draw of its family."""
    return [{**params, **weight} for weight in _WEIGHT_DRAWS[family]]


@pytest.mark.parametrize("family, params, index", _FAMILY_CASES)
def test_params_that_differ_in_weight_only_share_one_covering(family, params, index):
    """The memo is keyed by the family and the geometry of its params, so
    every weight reads the one covering of that geometry, through
    ``covering_from_json`` and ``verify-family`` alike."""
    memos.clear()
    first, second = _weighted(family, params)
    cov = covering_from_json({"family": family, "params": first})
    assert covering_from_json({"family": family, "params": second}) is cov
    assert covering_from_json({"family": family, "params": params}) is cov
    assert _run_cli_in_process(["verify-family", "--family", family, "--params",
                                json.dumps(second), "--radius", "1"])[0] in (0, 1)
    info = family_covering.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


@pytest.mark.parametrize("family, first, second", [
    ("hom_besov", {"d": 1}, {"d": 2}),
    ("inhom_besov", {"d": 1}, {"d": 2}),
    ("alpha_modulation", {"d": 1}, {"d": 2}),
    ("alpha_modulation", {"alpha": "1/3"}, {"alpha": "1/2"}),
    ("alpha_modulation", {"base_radius": 2}, {"base_radius": 3}),
    ("shearlet_coorbit", {"c": 1}, {"c": 2}),
    ("diagonal", {"d": 1}, {"d": 2}),
])
def test_each_geometric_field_keys_its_own_covering(family, first, second):
    """Params that differ in a field a covering reads get a covering each;
    alpha_modulation's base_radius moves the sets but not the label."""
    memos.clear()
    a, b = (covering_from_json({"family": family, "params": p}) for p in (first, second))
    assert a is not b
    assert covering_from_json({"family": family, "params": first}) is a
    assert family_covering.cache_info().currsize == 2
    if "base_radius" in first:
        assert a.label == b.label and a.base_set((1,)) != b.base_set((1,))


@pytest.mark.parametrize("family, params, index", _FAMILY_CASES)
def test_a_covering_reads_the_geometry_of_its_params_only(family, params, index):
    """The memo hands the builder the params with every weight field None,
    and what it builds there agrees, index by index, with what it builds
    from the full params: a builder that read a weight field would fail
    here rather than share a covering across weights."""
    fam = get_family(family)
    build = type(fam).covering
    for doc in _weighted(family, params):
        full = fam.parse_params(doc)
        geometry = fam.geometry(full)
        assert fam.weight_fields and {getattr(geometry, f) for f in fam.weight_fields} == {None}
        assert fam.geometry(geometry) == geometry
        memos.clear()
        seen = []
        with mock.patch.object(type(fam), "covering",
                               lambda self, got: seen.append(got) or build(self, got)):
            covering_from_json({"family": family, "params": doc})
        assert seen == [geometry]
        mine, theirs = fam.covering(geometry), fam.covering(full)
        assert (mine.label, mine.dimension) == (theirs.label, theirs.dimension)
        assert mine.window(2) == theirs.window(2)
        for i in mine.window(2):
            assert mine.transform(i) == theirs.transform(i)
            assert mine.base_set(i) == theirs.base_set(i)


def _three_commands(family, params, index) -> list:
    """verify-family at radius 1, then inspect-covering at radius 2 without
    and with --index, on one family covering."""
    doc = json.dumps({"family": family, "params": params})
    return [
        ["verify-family", "--family", family, "--params", json.dumps(params), "--radius", "1"],
        ["inspect-covering", "--covering", doc, "--radius", "2"],
        ["inspect-covering", "--covering", doc, "--radius", "2", "--index", index],
    ]


@pytest.mark.parametrize("family, params, index", _FAMILY_CASES)
def test_each_transform_runs_once_per_index_and_command(family, params, index):
    """The three commands read one shared covering: verify-family places
    indices and sweeps one map, at radius 3, for radii 1 and 3; across all
    three, each index is placed at most once and no pair of placed sets is
    tested twice."""
    memos.clear()
    calls = Counter()
    fam = get_family(family)
    build = type(fam).covering

    def counted(self, parsed):
        cov = build(self, parsed)

        def transform(i):
            calls[i] += 1
            return cov.transform(i)
        return dataclasses.replace(cov, transform=transform)

    commands = _three_commands(family, params, index)
    tested = Counter()

    def counted_test(a, b):
        tested[id(a), id(b)] += 1
        return sets_intersect(a, b)

    with mock.patch.object(type(fam), "covering", counted), \
            mock.patch.object(covering_module, "sets_intersect", counted_test):
        for argv in commands:
            assert _run_cli_in_process(argv)[0] in (0, 1)
            assert calls, argv
            assert max(calls.values()) == 1, argv
            assert max(tested.values(), default=1) == 1, argv


def _run_cli_in_process(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_commands(commands, fresh: bool) -> list:
    """(exit code, stdout) of each command, on memos cleared before each one
    when ``fresh``, else through the memos they share."""
    memos.clear()
    got = []
    for argv in commands:
        if fresh:
            memos.clear()
        got.append(_run_cli_in_process(argv)[:2])
    return got


@pytest.mark.parametrize("order", ["verify_first", "inspect_first"])
@pytest.mark.parametrize("family, params, index", _FAMILY_CASES)
def test_a_shared_covering_answers_like_a_fresh_one(family, params, index, order):
    """verify-family at radius 1 and inspect-covering at radius 2, with and
    without --index, under two weights, print the same bytes and exit codes
    in either order whether they share one covering or each builds its own."""
    commands = [argv for doc in _weighted(family, params)
                for argv in _three_commands(family, doc, index)]
    if order == "inspect_first":
        commands.reverse()
    shared = _run_commands(commands, fresh=False)
    assert shared == _run_commands(commands, fresh=True)
    assert all(code in (0, 1) and out for code, out in shared)


def _fresh_covering(family, params) -> Covering:
    """A covering of the family's geometry that no memo has seen."""
    fam = get_family(family)
    return fam.covering(fam.geometry(fam.parse_params(params)))


def _map_record(cov: Covering, radius: int) -> tuple:
    """The neighbour map at ``radius`` in window order, its certain bit and
    its uncertain pairs, unordered."""
    nbrs, certain = adjacency(cov, radius)
    unsure = {frozenset(pair) for pair in cov._kept["adjacency"][radius][1]}
    return list(nbrs.items()), certain, unsure


@pytest.mark.parametrize("family, params, index", _FAMILY_CASES)
def test_a_map_grown_or_cut_from_a_kept_one_equals_a_fresh_build(family, params, index):
    """For every r1 < r2 <= 4, a covering that maps r1 and then r2 (r2 grown
    from r1) or r2 and then r1 (r1 cut from r2) holds at both radii the
    neighbour map, certain bit and uncertain pairs of a fresh build; so does
    one that maps 0 to 4 in turn, each grown from the last."""
    fresh = {r: _map_record(_fresh_covering(family, params), r) for r in range(5)}
    orders = [pair[::step] for pair in itertools.combinations(range(5), 2) for step in (1, -1)]
    for order in [*orders, range(5)]:
        cov = _fresh_covering(family, params)
        for r in order:
            assert _map_record(cov, r) == fresh[r], (list(order), r)


@pytest.mark.parametrize("family, params, index", _FAMILY_CASES)
def test_each_pair_reaches_sets_intersect_once_per_covering(family, params, index):
    """inspect-covering at radius 2, verify-family at radius 1, whose map at
    radius 3 grows from the kept map at 2, and inspect-covering at 3 send
    each unordered pair of placed sets to ``sets_intersect`` at most once:
    as many pairs as one fresh map at radius 3 tests."""
    memos.clear()
    doc = json.dumps({"family": family, "params": params})
    commands = [
        ["inspect-covering", "--covering", doc, "--radius", "2"],
        ["verify-family", "--family", family, "--params", json.dumps(params), "--radius", "1"],
        ["inspect-covering", "--covering", doc, "--radius", "3", "--index", index],
    ]
    tested = Counter()

    def counted_test(a, b):
        tested[frozenset((id(a), id(b)))] += 1
        return sets_intersect(a, b)

    with mock.patch.object(covering_module, "sets_intersect", counted_test):
        for argv in commands:
            assert _run_cli_in_process(argv)[0] in (0, 1)
        assert max(tested.values()) == 1
        direct = Counter()
        with mock.patch.object(covering_module, "sets_intersect",
                               lambda a, b: direct.update([0]) or sets_intersect(a, b)):
            adjacency(_fresh_covering(family, params), 3)
    assert len(tested) == direct[0]


@pytest.mark.parametrize("family, params, index", _FAMILY_CASES)
def test_each_transition_norm_is_taken_once_per_covering(family, params, index):
    """certify_constants at radii 1, 2 and 3 on one covering takes each
    distinct spectral norm once, as many as one call at radius 3 takes on a
    fresh covering, and reads the constants of a fresh covering at each."""
    cov = _fresh_covering(family, params)
    taken = Counter()

    def counted_norm(m):
        taken[m] += 1
        return spectral_norm(m)

    with mock.patch.object(covering_module, "spectral_norm", counted_norm):
        kept = [certify_constants(cov, radius) for radius in (1, 2, 3)]
        assert max(taken.values()) == 1
        direct = Counter()
        with mock.patch.object(covering_module, "spectral_norm",
                               lambda m: direct.update([0]) or spectral_norm(m)):
            certify_constants(_fresh_covering(family, params), 3)
    assert len(taken) == direct[0]
    assert kept == [certify_constants(_fresh_covering(family, params), radius)
                    for radius in (1, 2, 3)]


@pytest.mark.parametrize("family, params, index", _FAMILY_CASES)
def test_verify_family_reads_alike_on_a_warm_and_a_cleared_memo_in_any_order(
        family, params, index):
    """verify-family at radii 0 and 1, each twice, among inspect-covering
    at radii 1 to 3, prints the same bytes and exit code through one
    shared covering as with the memo cleared before each command: in the
    listed order, reversed and shuffled."""
    doc = json.dumps({"family": family, "params": params})
    verify = ["verify-family", "--family", family, "--params", json.dumps(params), "--radius"]
    commands = [[*verify, "1"], ["inspect-covering", "--covering", doc, "--radius", "3"],
                [*verify, "0"], ["inspect-covering", "--covering", doc, "--radius", "1"],
                [*verify, "1"], ["inspect-covering", "--covering", doc, "--radius", "2",
                                 "--index", index], [*verify, "0"]]
    shuffled = list(commands)
    random.Random(f"{family}:{params}").shuffle(shuffled)
    for order in (commands, commands[::-1], shuffled):
        shared = _run_commands(order, fresh=False)
        assert shared == _run_commands(order, fresh=True)
        # alpha_modulation's window of radius 0 is empty, a usage error
        assert all((code in (0, 1) and out) or (code, out) == (64, "") for code, out in shared)


def test_a_kept_covering_runs_the_verify_diagnostics_once_per_radius():
    """A second verify-family at a radius reads the constants, the
    moderateness estimates and the surrogate ratios its covering keeps:
    it tests no pair, evaluates no probe weight and takes no norm."""
    memos.clear()
    argv = ["verify-family", "--family", "diagonal", "--params", '{"d":2}', "--radius", "1"]
    first = _run_commands([argv], fresh=False)
    with mock.patch.object(covering_module, "sets_intersect", side_effect=AssertionError), \
            mock.patch.object(covering_module._Probe, "__call__", side_effect=AssertionError), \
            mock.patch.object(covering_module, "spectral_norm", side_effect=AssertionError):
        assert [_run_cli_in_process(argv)[:2]] == first
    assert json.loads(first[0][1])["surrogate"] is not None


def test_check_moderate_reads_a_callers_own_weight_afresh():
    """Only the covering's own probe weight is kept: another weight is read
    on every call, as on a fresh covering, and every result is a copy."""
    cov = covering_from_json({"family": "hom_besov", "params": {"d": 2}})
    probe = check_moderate(cov, probe_weight(cov), (1, 3))
    steep = lambda i: 2.0 ** (i[0] ** 2)  # noqa: E731
    own = check_moderate(cov, steep, (1, 3))
    assert own == check_moderate(_fresh_covering("hom_besov", {"d": 2}), steep, (1, 3))
    assert own != probe and not own["ok"]
    probe["estimates"].append(0.0)
    assert check_moderate(cov, probe_weight(cov), (1, 3))["estimates"] == probe["estimates"][:2]


def test_refusals_of_the_verify_diagnostics_repeat_on_every_call():
    """A missing tightness witness and a probe weight past the float range
    are raised again on every call, and leave nothing kept."""
    float_scales = Covering(
        label="sqrt_scales",
        dimension=1,
        window=HOM_BESOV_WINDOW,
        transform=lambda i: (((2.0 ** (i[0] / 2),),), (0.0,)),
        base_set=lambda i: AnnulusSet(1, F(1, 4), F(4)),
    )
    steep = Covering(
        label="steep",
        dimension=1,
        window=fixed_window((0,), (1,)),
        transform=lambda i: (((F(2) ** (2100 * i[0]),),), (F(0),)),
        base_set=lambda i: BallSet((F(0),), F(1, 2 ** (2100 * i[0]))),
    )
    for _ in range(3):
        with pytest.raises(MissingTightnessWitness, match="'sqrt_scales' has no tight bound"):
            norm_surrogate_check(float_scales, 4)
        with pytest.raises(UnsupportedGeometry, match="'steep' at radius 0 leaves the float range"):
            check_moderate(steep, probe_weight(steep), (0, 1))
        with pytest.raises(OverflowError):
            probe_weight(steep)((1,))
    assert not float_scales._kept["surrogate"] and not steep._kept["moderate"]
    assert list(steep._kept["probe"]) == [(0,)]


@pytest.mark.parametrize("family, params, index", _FAMILY_CASES)
def test_a_lowered_cap_refuses_a_kept_verify_as_a_fresh_run(monkeypatch, family, params, index):
    """verify-family at radius 1 runs once under the default cap; under a
    lowered or malformed cap it then exits, and prints, what a run on a
    cleared memo does, and once the cap is back it answers as it did."""
    argv = ["verify-family", "--family", family, "--params", json.dumps(params), "--radius", "1"]
    cov = _fresh_covering(family, params)
    sizes = [len(cov.window(r)) for r in (1, 3)]
    for cap in (sizes[1] - 1, sizes[0] - 1, cov.dimension**2 - 1, "abc"):
        monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW", raising=False)
        memos.clear()
        answer = _run_cli_in_process(argv)
        monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", str(cap))
        kept = _run_cli_in_process(argv)
        memos.clear()
        assert kept == _run_cli_in_process(argv)
        assert kept[0] in (64, 70) and not kept[1] and kept[2].startswith("error: ")
        monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW")
        assert _run_cli_in_process(argv) == answer


@pytest.mark.parametrize("doc", [
    {"family": "shearlet_smoothness"},
    {"family": "hom_besov", "params": {"d": 2}},
    {"family": "diagonal", "params": {"d": 2}},
], ids=lambda doc: doc["family"])
def test_library_calls_on_a_kept_covering_obey_the_window_cap(monkeypatch, doc):
    """A map, constants, moderateness estimates and surrogate ratios kept at
    radius r are read only while the window of r passes the cap, with a
    fresh covering's message."""
    memos.clear()
    radius = 3
    cov = covering_from_json(doc)
    window = cov.window(radius)
    calls = (lambda c: certify_constants(c, radius), lambda c: adjacency(c, radius),
             lambda c: neighbors(c, window[0], radius),
             lambda c: check_moderate(c, probe_weight(c), (radius, radius)),
             lambda c: norm_surrogate_check(c, radius))
    kept = [call(cov) for call in calls]
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", str(len(window) - 1))
    assert covering_from_json(doc) is cov
    fresh = _fresh_covering(doc["family"], doc.get("params", {}))
    for call in calls:
        refusal = _refusal(lambda: call(cov))
        assert refusal == _refusal(lambda: call(fresh))
        assert refusal.startswith(f"window of {len(window)} indices ")
    monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW")
    assert [call(cov) for call in calls] == kept


@pytest.mark.parametrize("family, params, index", _FAMILY_CASES)
def test_families_hand_plain_rows_and_the_placement_scales_them(family, params, index):
    """T_i is a tuple of tuple rows of int, Fraction or float, an exact
    integral entry an int; the placement keeps it as (A_i, d_i) in lowest
    terms, as ``_integer_scaled`` reads the rows."""
    fam = get_family(family)
    cov = fam.covering(fam.parse_params(params))
    for i, placed in covering_module.placements(cov, 2).items():
        t, _ = cov.transform(i)
        assert type(t) is tuple and all(type(row) is tuple for row in t)
        entries = list(itertools.chain(*t))
        assert all(type(x) in (int, F, float) for x in entries)
        assert not any(type(x) is F and x.denominator == 1 for x in entries)
        a, d = placed.scaled
        assert placed.scaled == covering_module._integer_scaled(t)
        assert d > 0 and math.gcd(d, *itertools.chain(*a)) == 1
        assert all(F(x, d) == y for row_a, row in zip(a, t) for x, y in zip(row_a, row))


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


@pytest.mark.parametrize("one, zero", [(F(1), F(0)), (1.0, 0.0)], ids=["exact", "float"])
def test_a_singular_transform_reads_a_zero_probe_and_has_no_constants(one, zero):
    """A covering document refuses a singular T_i, a library covering can
    hold one: its probe weight |det T_i|^(1/2) * 3 reads 0 there, and
    certify_constants, which inverts every T_i, refuses the covering."""
    cov = Covering(
        label="flat",
        dimension=2,
        window=fixed_window((0,), (1,)),
        transform=lambda i: (((one, zero), (zero, one if i == (0,) else zero)), (F(i[0]), F(0))),
        base_set=lambda i: BallSet((F(0), F(0)), F(1)),
    )
    assert probe_weight(cov)((1,)) == 0.0
    with pytest.raises(ZeroDivisionError, match="^covering 'flat' has a singular transform$"):
        certify_constants(cov, 0)


@pytest.mark.parametrize("zero", [F(0), 0, 0.0])
def test_a_zero_base_to_a_power(zero):
    """0^e is 0 for e > 0, 1 at e = 0 and inf for e < 0, exact or float."""
    pow_ = covering_module._log_pow
    assert (pow_(zero, F(1, 2)), pow_(zero, F(0)), pow_(zero, F(-1, 2))) == (0.0, 1.0, math.inf)


def test_a_polygon_under_a_transform_of_another_dimension_has_no_image():
    """A polygon is a plane set: transform_base maps it under a 2 x 2 T only,
    and a 3 x 3 T finds no bounding ball to fall back on."""
    square = PolygonSet(((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
    t = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
    with pytest.raises(UnsupportedGeometry, match="^no bounding ball for PolygonSet$"):
        transform_base(square, t, (F(0),) * 3)


def test_check_moderate_reads_a_zero_weight_at_a_neighbour_as_unbounded():
    cov = dyadic_annulus_covering()
    res = check_moderate(cov, lambda i: 0.0 if i == (2,) else 1.0, (5, 6))
    assert res["C_uQ_hat"] == math.inf
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
    old = CONSTANTS_GOLDEN.read_bytes()
    frozen = [json.loads(line) for line in old.decode().splitlines()]
    assert len(frozen) >= 48
    new = "".join(constants_line(line["covering"], line["radius"]) for line in frozen).encode()
    assert new == old, "\n".join(jsonl_changes(old, new))


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
