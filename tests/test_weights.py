import math
from dataclasses import replace
from fractions import Fraction

import pytest

from decomp_embed import weights
from decomp_embed.errors import UnsupportedWeight
from decomp_embed.exponents import INF, ExtExponent, reciprocal_gap
from decomp_embed.families import CoorbitParams, DiagonalParams, get_family
from decomp_embed.weights import build_weight

from witnesses import agreement_report


def _family_setup(name, pdoc):
    fam = get_family(name)
    params = fam.parse_params(pdoc)
    return fam, params, fam.covering(params)


def _closed_form(fam, params, k, p, t):
    """The closed form of w^(t): the family's quotient over a unit space
    weight, with s (or alpha and beta) zero and 1/2 - 1/r = 0."""
    zero = Fraction(0)
    if isinstance(params, CoorbitParams):
        unit = replace(params, alpha=zero, beta=zero)
    elif isinstance(params, DiagonalParams):
        unit = replace(params, alpha=(zero,) * params.d, beta=(zero,) * params.d)
    else:
        unit = replace(params, s=zero)
    return fam.quotient_weight(unit, k, reciprocal_gap(ExtExponent(p), ExtExponent(t)), zero)


@pytest.mark.parametrize("bad_k", [-1, True, 1.5])
def test_bad_order_rejected(bad_k):
    _, _, cov = _family_setup("hom_besov", {"d": 1, "s": 0})
    with pytest.raises(UnsupportedWeight):
        build_weight(cov, k=bad_k, p=1, t=2)


def test_det_exponent():
    _, _, cov = _family_setup("hom_besov", {"d": 1, "s": 0})
    w = build_weight(cov, k=0, p="1/2", t=3)
    assert w.det_exponent == Fraction(2) - Fraction(1, 3)
    # |det T_1| = 2 and k = 0: w = 3 * 2^(5/3)
    assert w.evaluate((1,)) == pytest.approx(3 * 2 ** (5 / 3), rel=1e-12)


def test_hom_worked_value():
    # |det T_3| = 8, ||T_3|| = 8, b = 0: w = 8^(1/2) * (1 + 8)
    _, _, cov = _family_setup("hom_besov", {"d": 1, "s": 0})
    w = build_weight(cov, k=1, p=1, t=2)
    assert w.evaluate((3,)) == pytest.approx(math.sqrt(8) * 9, rel=1e-12)


def test_order_zero_reads_no_norm(monkeypatch):
    # k = 0: the factor is 3 whatever ||T|| and |b| are, so neither is computed
    calls = []

    def counting_norm(mat):
        calls.append(mat)
        return 1.0

    monkeypatch.setattr(weights, "spectral_norm", counting_norm)
    _, _, cov = _family_setup("alpha_modulation", {"d": 2, "alpha": "1/2", "s": 1})
    assert build_weight(cov, k=0, p=1, t=1).evaluate((1, 2)) == 3.0
    assert calls == []
    build_weight(cov, k=1, p=1, t=1).evaluate((1, 2))
    assert len(calls) == 1


def test_order_zero_constants():
    # k = 0 collapses the norm polynomial to 3: w = 3 * |det T_n|^(1/p - 1/t),
    # and |det T_n| = 4^n in dimension 2
    _, _, cov = _family_setup("inhom_besov", {"d": 2, "s": 0})
    same = build_weight(cov, k=0, p=2, t=2)
    half = build_weight(cov, k=0, p=1, t=2)
    for n in (0, 4):
        assert same.evaluate((n,)) == pytest.approx(3.0, rel=1e-12)
        assert half.evaluate((n,)) == pytest.approx(3 * 2.0**n, rel=1e-12)


EXACT_CASES = [
    ("hom_besov", {"d": 1, "s": "3/2"}, 10),
    ("hom_besov", {"d": 2, "s": 0}, 8),
    ("inhom_besov", {"d": 1, "s": "-1/2"}, 12),
    ("alpha_modulation", {"d": 1, "alpha": "1/2", "s": 1}, 9),
    ("alpha_modulation", {"d": 2, "alpha": "1/2", "s": 1}, 5),
    ("alpha_modulation", {"d": 2, "alpha": "1/3", "s": 0}, 5),
]


@pytest.mark.parametrize("name,pdoc,radius", EXACT_CASES)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_exact_families_agree(name, pdoc, radius, k):
    fam, params, cov = _family_setup(name, pdoc)
    num = build_weight(cov, k=k, p="3/2", t=3)
    sym = _closed_form(fam, params, k, "3/2", 3)
    rep = agreement_report(num, sym, cov.window(radius), to_point=fam.to_point)
    assert rep["ok"], rep
    assert rep["max_rel_err"] <= 1e-9


RATIO_CASES = [
    ("shearlet_smoothness", {"s": 1}, 7),
    ("shearlet_coorbit", {"c": "1/2", "alpha": 0, "beta": 1}, 7),
    ("shearlet_coorbit", {"c": 2, "alpha": 0, "beta": 1}, 6),
    ("shearlet_coorbit", {"c": -1, "alpha": 0, "beta": 1}, 6),
    ("diagonal", {"d": 2, "alpha": 0, "beta": 0}, 6),
]


@pytest.mark.parametrize("name,pdoc,radius", RATIO_CASES)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_ratio_families_bounded(name, pdoc, radius, k):
    fam, params, cov = _family_setup(name, pdoc)
    num = build_weight(cov, k=k, p=1, t=3)
    sym = _closed_form(fam, params, k, 1, 3)
    rep = agreement_report(
        num, sym, cov.window(radius), to_point=fam.to_point, mode="ratio"
    )
    assert rep["ok"], rep
    # the per-power surrogate gap is < 2, so the envelope scales like 2^k
    bound = Fraction(2) ** max(k, 1)
    assert 1 / (2 * bound) <= rep["min_ratio"] <= rep["max_ratio"] <= 2 * bound


def test_diagonal_1d_is_exact():
    # with one coordinate the max-vs-sum surrogate gap closes entirely
    fam, params, cov = _family_setup("diagonal", {"d": 1, "alpha": 0, "beta": 0})
    num = build_weight(cov, k=2, p=1, t=3)
    sym = _closed_form(fam, params, 2, 1, 3)
    rep = agreement_report(num, sym, cov.window(8), to_point=fam.to_point)
    assert rep["ok"]


def test_agreement_needs_points():
    fam, params, cov = _family_setup("hom_besov", {"d": 1, "s": 0})
    num = build_weight(cov, k=0, p=1, t=2)
    sym = _closed_form(fam, params, 0, 1, 2)
    with pytest.raises(ValueError):
        agreement_report(num, sym, [], to_point=fam.to_point)
    with pytest.raises(ValueError):
        agreement_report(num, sym, [(0,)], to_point=fam.to_point, mode="envelope")


def test_infinite_target_drops_det_power():
    # t = inf and p = 1 gives |det|^1; t = p kills the determinant factor,
    # leaving the order-zero constant 3
    _, _, cov = _family_setup("hom_besov", {"d": 1, "s": 0})
    w_inf = build_weight(cov, k=0, p=1, t=INF)
    assert w_inf.evaluate((4,)) == pytest.approx(3 * 16.0)
    w_same = build_weight(cov, k=0, p=2, t=2)
    assert w_same.evaluate((4,)) == pytest.approx(3.0)
