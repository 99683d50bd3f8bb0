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
    AnnulusSet,
    BallSet,
    BoxSet,
    Covering,
    CoorbitScheme,
    DiagonalScheme,
    ExplicitScheme,
    N0Scheme,
    PolygonSet,
    ShearletScheme,
    ZScheme,
    ZdPuncturedScheme,
    adjacency,
    base_set_from_json,
    certify_constants,
    check_moderate,
    cone_trapezoid,
    custom_covering_from_json,
    mat_inverse,
    mat_mul,
    neighbors,
    norm_surrogate_check,
    sets_intersect,
    spectral_norm,
    transform_base,
    window_cap,
)
from decomp_embed.errors import (
    InvalidParams,
    MissingTightnessWitness,
    SchemaError,
    WindowCapExceeded,
)
from decomp_embed.families import covering_from_json

F = Fraction


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
        scheme=ZScheme(),
        transform=tr,
        base_set=lambda i: AnnulusSet(dim, F(1, 4), F(4)),
    )


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", [
    ZScheme(),
    N0Scheme(),
    ZdPuncturedScheme(2),
    ShearletScheme(),
    CoorbitScheme(),
    DiagonalScheme(2),
])
def test_windows_are_deterministic_nested_and_duplicate_free(scheme):
    small = scheme.window(3)
    again = scheme.window(3)
    big = scheme.window(5)
    assert small == again
    assert len(set(small)) == len(small)
    assert set(small) <= set(big)


def test_window_cap_is_enforced(monkeypatch):
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "100")
    assert window_cap() == 100
    with pytest.raises(WindowCapExceeded):
        ZScheme().window(1000)
    monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW")
    assert window_cap() == 10**6


def test_shearlet_window_contents():
    win = ShearletScheme().window(1)
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
]


@pytest.mark.parametrize("doc", POLYGON_DOCS, ids=_doc_id)
def test_polygon_test_matches_clipping_reference(doc):
    """Every polygon pair whose boxes meet, on the family windows at radius 0-2."""
    cov = covering_from_json(doc)
    indices = cov.window(2)
    sets = [cov.transformed_set(i)[0] for i in indices]
    boxes = [s.bounding_box() for s in sets]
    compared = 0
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            (lo_a, hi_a), (lo_b, hi_b) = boxes[a], boxes[b]
            if any(h < l for h, l in zip(hi_a, lo_b)) or any(h < l for h, l in zip(hi_b, lo_a)):
                continue
            want = _reference_meet(sets[a], sets[b])
            hit, sure = sets_intersect(sets[a], sets[b])
            if cov.exact:
                assert (hit, sure) == (want, True), (indices[a], indices[b])
            else:
                # the float route may only err towards an uncertain "meets"
                assert hit == want or (hit and not sure), (indices[a], indices[b])
            compared += 1
    assert compared > len(sets)


def test_shearlet_low_pass_set_only_touches_the_scale_two_cones():
    cov = covering_from_json({"family": "shearlet_smoothness", "params": {}})
    low, _ = cov.transformed_set((0,))
    for eps in (-1, 1):
        cone, _ = cov.transformed_set((2, 0, eps, 1))
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
@pytest.mark.filterwarnings("error")
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
    placed = [cov.transformed_set(i) for i in indices]
    ref = {i: [] for i in indices}
    ref_certain = all(ok for _, ok in placed)
    for a, i in enumerate(indices):
        for b, j in enumerate(indices):
            if a == b:
                ref[i].append(j)
                continue
            meet, sure = sets_intersect(placed[a][0], placed[b][0])
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


def test_check_moderate_accepts_dyadic_weight():
    cov = dyadic_annulus_covering()
    res = check_moderate(cov, lambda i: 2.0 ** i[0], (5, 6))
    assert res["ok"]
    assert res["C_uQ_hat"] == pytest.approx(8.0)


def test_check_moderate_rejects_superexponential_weight():
    cov = dyadic_annulus_covering()
    res = check_moderate(cov, lambda i: 2.0 ** (i[0] ** 2), (5, 6))
    assert not res["ok"]


def _pair_formula_c_hat(cov: Covering, radius: int) -> float:
    """C_hat as one mat_mul and one spectral_norm per neighbour pair."""
    c_hat = 0.0
    for i, js in adjacency(cov, radius)[0].items():
        t_inv = mat_inverse(cov.transform(i)[0])
        for j in js:
            c_hat = max(c_hat, spectral_norm(mat_mul(t_inv, cov.transform(j)[0])))
    return c_hat


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
        scheme=ExplicitScheme(tuple((k,) for k in mats)),
        transform=lambda i: (mats[i[0]], (0,) * d),
        base_set=lambda i: BallSet((0,) * d, 1),
        exact=entry == "rational",
    )


@given(_shared_transform_covering())
@settings(max_examples=150, deadline=None)
def test_c_hat_matches_the_pair_formula_with_one_norm_per_product(cov):
    nbrs, _ = adjacency(cov, 0)
    products = {
        tuple(tuple(map(float, row)) for row in mat_mul(mat_inverse(cov.transform(i)[0]),
                                                         cov.transform(j)[0]))
        for i, js in nbrs.items() for j in js
    }
    calls = []

    def counting_norm(mat):
        calls.append(mat)
        return spectral_norm(mat)

    with mock.patch.object(covering_module, "spectral_norm", counting_norm):
        got = certify_constants(cov, 0)["C_hat"]
    assert got.hex() == _pair_formula_c_hat(cov, 0).hex()
    assert len(calls) == len(set(calls)) and set(calls) == products


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
        scheme=ZScheme(),
        transform=tr,
        base_set=lambda i: AnnulusSet(1, F(1, 4), F(4)),
        exact=False,
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
    scheme = ExplicitScheme(((0,), (5,)))
    assert scheme.window(1) == [(0,), (5,)]
