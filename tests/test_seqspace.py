"""Sequence-space membership: exact decider against the numeric oracle."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decomp_embed import oracle
from decomp_embed.errors import UnsupportedWeight
from decomp_embed.exponents import INF, ExtExponent, compound, reciprocal_pair
from decomp_embed.seqspace import (
    Affine,
    Atom,
    CoordFactor,
    ExpPolyWeight,
    LineSector,
    Membership,
    PairSector,
    Piece,
    ProductSector,
    RadialSector,
    ceil_pow2,
    decide_lp_membership,
    decide_reciprocal,
    decide_sequence_embedding,
    expweight_from_json,
    sector_from_json,
)
from decomp_embed.oracle import truncated_oracle

import reference_membership
import witnesses
from witnesses import (
    WARNINGS_AS_ERRORS,
    coord_values,
    evaluate,
    holder_constant,
    iter_points,
    iter_window,
    sequence_norm,
    witness_norm_ratios,
)

E = ExtExponent
F = Fraction

MEMBER = Membership.MEMBER
NOT_MEMBER = Membership.NOT_MEMBER


def line(domain="N0", exp2=0, power=0):
    return ExpPolyWeight.single(LineSector(domain), Atom.line(exp2=exp2, power=power))


# ---------------------------------------------------------------------------
# exact decider, closed-form cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("exp2, power, theta, expect", [
    (-1, 0, "1", MEMBER),
    (F(-1, 10), 0, "1", MEMBER),
    (F(1, 10), 0, "1", NOT_MEMBER),
    (0, 0, "1", NOT_MEMBER),
    (0, 0, "inf", MEMBER),
    (0, -1, "1", NOT_MEMBER),          # harmonic series
    (0, -1, "2", MEMBER),              # but square-summable
    (0, F(-11, 10), "1", MEMBER),
    (0, F(-1, 2), "2", NOT_MEMBER),    # theta*c == -1 exactly
    (0, F(1, 100), "inf", NOT_MEMBER),
    (0, F(-1, 100), "inf", MEMBER),
])
def test_line_membership_n0(exp2, power, theta, expect):
    assert decide_lp_membership(line("N0", exp2, power), E(theta)) is expect


def test_line_membership_mirrors_on_negative_half():
    # 2^n decays towards -inf, so it sums on Nneg but not on N0
    w_neg = line("Nneg", exp2=1)
    w_pos = line("N0", exp2=1)
    assert decide_lp_membership(w_neg, E(1)) is MEMBER
    assert decide_lp_membership(w_pos, E(1)) is NOT_MEMBER
    # on the full line both halves must work
    assert decide_lp_membership(line("Z", exp2=1), E(1)) is NOT_MEMBER
    assert decide_lp_membership(line("Z"), E("inf")) is MEMBER


def test_two_sided_decay_needs_per_orthant_exponents():
    factor = CoordFactor(exp2_pos=F(-1), exp2_neg=F(1), pow_pos=F(0), pow_neg=F(0))
    w = ExpPolyWeight.single(LineSector("Z"), Atom(F(1), (factor,)))
    assert decide_lp_membership(w, E(1)) is MEMBER
    assert evaluate(w, (4,)) == pytest.approx(2.0**-4)
    assert evaluate(w, (-4,)) == pytest.approx(2.0**-4)


def test_sum_of_atoms_requires_every_atom():
    w = ExpPolyWeight.single(
        LineSector("N0"), Atom.line(exp2=-1), Atom.line(power=F(-1, 2))
    )
    assert decide_lp_membership(w, E(1)) is NOT_MEMBER
    assert decide_lp_membership(w, E(4)) is MEMBER


@pytest.mark.parametrize("d, power, theta, expect", [
    (1, -2, "1", MEMBER),
    (2, -2, "1", NOT_MEMBER),   # |k|^-2 on Z^2 is the borderline case
    (2, F(-21, 10), "1", MEMBER),
    (3, -3, "1", NOT_MEMBER),
    (3, -2, "2", MEMBER),       # 2*2 = 4 > 3
    (2, F(1, 5), "inf", NOT_MEMBER),
    (2, 0, "inf", MEMBER),      # bounded: the closed boundary at inf
    (2, 0, "1000", NOT_MEMBER),
])
def test_radial_membership(d, power, theta, expect):
    w = ExpPolyWeight.single(RadialSector(d), Atom.radial(d, power))
    assert decide_lp_membership(w, E(theta)) is expect


def test_product_membership_is_per_coordinate():
    sector = ProductSector((LineSector("N0"), LineSector("Z")))
    good = Atom(F(1), (CoordFactor.symmetric(-1, 0), CoordFactor.symmetric(0, -2)))
    bad = Atom(F(1), (CoordFactor.symmetric(-1, 0), CoordFactor.symmetric(0, -1)))
    assert decide_lp_membership(ExpPolyWeight.single(sector, good), E(1)) is MEMBER
    assert decide_lp_membership(ExpPolyWeight.single(sector, bad), E(1)) is NOT_MEMBER


class TestPairSectors:
    """Rows n with |m| constrained by ceil(2^(lam*n)) + shift."""

    def test_inside_row_count_boosts_the_exponent(self):
        # weight 2^(-a n) on |m| <= 2^n: the row has about 2^n entries,
        # so summability needs a > 1 (theta = 1)
        sector = PairSector("N0", F(1), "inside", 0)
        w = ExpPolyWeight.single(sector, Atom.pair(n_exp2=F(-11, 10)))
        assert decide_lp_membership(w, E(1)) is MEMBER
        w2 = ExpPolyWeight.single(sector, Atom.pair(n_exp2=F(-9, 10)))
        assert decide_lp_membership(w2, E(1)) is NOT_MEMBER

    def test_outside_tail_must_be_summable_in_m(self):
        sector = PairSector("N0", F(1), "outside", 0)
        w = ExpPolyWeight.single(sector, Atom.pair(m_power=-1))
        assert decide_lp_membership(w, E(1)) is NOT_MEMBER
        # |m|^-3 leaves a row mass ~ 2^(-2n), summable
        w2 = ExpPolyWeight.single(sector, Atom.pair(m_power=-3))
        assert decide_lp_membership(w2, E(1)) is MEMBER

    def test_log_bump_at_the_critical_m_power(self):
        # rho*theta = -1 contributes a logarithm, i.e. one extra power of n
        sector = PairSector("N0", F(1), "inside", 0)
        w = ExpPolyWeight.single(sector, Atom.pair(m_power=-1, n_power=-2))
        assert decide_lp_membership(w, E(1)) is NOT_MEMBER
        w2 = ExpPolyWeight.single(sector, Atom.pair(m_power=-1, n_power=F(-5, 2)))
        assert decide_lp_membership(w2, E(1)) is MEMBER

    def test_sup_membership_picks_the_extremal_m(self):
        sector = PairSector("N0", F(2), "inside", 0)
        # m power 1/2 is maximal at |m| ~ 2^(2n); needs a <= -1 to stay bounded
        w = ExpPolyWeight.single(sector, Atom.pair(n_exp2=-1, m_power=F(1, 2)))
        assert decide_lp_membership(w, INF) is MEMBER
        w2 = ExpPolyWeight.single(sector, Atom.pair(n_exp2=F(-9, 10), m_power=F(1, 2)))
        assert decide_lp_membership(w2, INF) is NOT_MEMBER

    def test_growing_m_power_outside_is_never_a_member(self):
        sector = PairSector("N0", F(1), "outside", 0)
        w = ExpPolyWeight.single(sector, Atom.pair(n_exp2=-100, m_power=F(1, 10)))
        assert decide_lp_membership(w, INF) is NOT_MEMBER
        assert decide_lp_membership(w, E(1)) is NOT_MEMBER

    def test_negative_domain_mirrors(self):
        sector = PairSector("Nneg", F(-1), "inside", 0)
        # 2^(3n) on n <= -1 decays like 8^(-|n|); rows have ~2^|n| entries
        w = ExpPolyWeight.single(sector, Atom.pair(n_exp2=3))
        assert decide_lp_membership(w, E(1)) is MEMBER
        w2 = ExpPolyWeight.single(sector, Atom.pair(n_exp2=F(1, 2)))
        assert decide_lp_membership(w2, E(1)) is NOT_MEMBER

    def test_lam_sign_must_match_domain(self):
        sector = PairSector("N0", F(-1), "inside", 0)
        w = ExpPolyWeight.single(sector, Atom.pair(n_exp2=-1))
        with pytest.raises(UnsupportedWeight):
            decide_lp_membership(w, E(1))

    def test_exp_factor_in_m_is_rejected(self):
        sector = PairSector("N0", F(1), "inside", 0)
        atom = Atom(F(1), (CoordFactor.symmetric(-1, 0), CoordFactor.symmetric(1, 0)))
        with pytest.raises(UnsupportedWeight):
            decide_lp_membership(ExpPolyWeight.single(sector, atom), E(1))


@pytest.mark.parametrize("side, n_exp2, theta, expect", [
    # rho = 0 inside: at inf, 1/theta + rho = 0 with lam != 0 and a = 0
    # takes the log branch
    ("inside", 0, "inf", MEMBER),
    ("inside", 0, "1000", NOT_MEMBER),
    # rho = 0 outside: bounded rows, divergent m-tails
    ("outside", -1, "inf", MEMBER),
    ("outside", -1, "1000", NOT_MEMBER),
])
def test_pair_membership_at_rho_zero(side, n_exp2, theta, expect):
    w = ExpPolyWeight.single(PairSector("N0", F(1), side, 0), Atom.pair(n_exp2=n_exp2))
    assert decide_lp_membership(w, E(theta)) is expect


# ---------------------------------------------------------------------------
# exact decider against the rules with a separate case for theta = inf
# ---------------------------------------------------------------------------

ref_thetas = st.one_of(
    st.just(INF),
    st.fractions(min_value=F(1, 4), max_value=F(6), max_denominator=4).map(E),
)


def ref_exps(x):
    """Exponents that often sit on a boundary of the rules at 1/theta = x."""
    return st.one_of(
        st.just(F(0)),
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4),
        st.sampled_from([x, -x / 2, -x, -2 * x, -3 * x]),
    )


@st.composite
def ref_factors(draw, x):
    """A factor that is symmetric or free."""
    if draw(st.booleans()):
        return CoordFactor.symmetric(draw(ref_exps(x)), draw(ref_exps(x)))
    return CoordFactor(*(draw(ref_exps(x)) for _ in range(4)))


@st.composite
def ref_atoms(draw, kind, x):
    """A sector of ``kind`` and an atom of its arity, with exponents drawn
    near the boundaries at 1/theta = x; about two atoms in five have a
    shape the decider may refuse."""
    defect = draw(st.sampled_from([None, None, None, "radial_pow", "shape"]))
    if kind == "radial":
        d = draw(st.integers(1, 3))
        factors = (CoordFactor(),) * d
        if defect == "shape":
            factors = (draw(ref_factors(x)),) + factors[1:]
        return RadialSector(d), Atom(F(1), factors, draw(ref_exps(x)))
    radial_pow = draw(ref_exps(x)) if defect == "radial_pow" else F(0)
    domains = st.sampled_from(["Z", "N0", "Nneg", "Z_nonzero"])
    if kind == "line":
        return LineSector(draw(domains)), Atom(F(1), (draw(ref_factors(x)),), radial_pow)
    if kind == "product":
        lines = tuple(LineSector(draw(domains)) for _ in range(draw(st.integers(2, 3))))
        factors = tuple(draw(ref_factors(x)) for _ in lines)
        return ProductSector(lines), Atom(F(1), factors, radial_pow)
    domain = draw(st.sampled_from(["N0", "Nneg"]))
    lam = draw(st.sampled_from([F(0), F(1, 2), F(1), F(2)]))
    shape = draw(st.sampled_from(["lam", "m_exp2", "m_power"])) if defect == "shape" else None
    if (domain == "Nneg") != (shape == "lam"):
        lam = -lam
    sector = PairSector(domain, lam, draw(st.sampled_from(["inside", "outside"])),
                        draw(st.sampled_from([-1, 0, 1])))
    rho = draw(ref_exps(x))
    m_factor = CoordFactor(
        draw(ref_exps(x)) if shape == "m_exp2" else 0,
        0,
        rho,
        draw(ref_exps(x)) if shape == "m_power" else rho,
    )
    return sector, Atom(F(1), (draw(ref_factors(x)), m_factor), radial_pow)


def _outcome(rule, *args):
    try:
        return rule(*args)
    except UnsupportedWeight as exc:
        return f"UnsupportedWeight: {exc}"


@pytest.mark.parametrize("kind", ["line", "product", "radial", "pair"])
@settings(max_examples=250, deadline=None)
@given(data=st.data(), theta=ref_thetas)
def test_membership_equals_the_reference_rules(kind, data, theta):
    sector, atom = data.draw(ref_atoms(kind, theta.reciprocal()))
    frac = None if theta.is_inf else 1 / theta.reciprocal()
    want = _outcome(reference_membership._atom_member, sector, atom, frac)
    got = _outcome(decide_lp_membership, ExpPolyWeight.single(sector, atom), theta)
    if isinstance(got, Membership):
        got = got is MEMBER
    assert got == want


@pytest.mark.parametrize("theta", [E("1/2"), E(1), E("3/2"), E(3), INF])
def test_pair_rules_equal_the_reference_rules_on_a_boundary_grid(theta):
    # every rate and power on a small grid around the boundaries at
    # 1/theta = x: c + x, c + 2x, rho + x and a + lam*(x + rho) all hit 0
    x = theta.reciprocal()
    vals = sorted({F(0), x / 2, -x / 2, x, -x, 2 * x, -2 * x, -3 * x / 2, -3 * x,
                   F(1, 2), F(-1, 2)})
    frac = None if theta.is_inf else 1 / x
    for domain, side, lam, a, c, rho in itertools.product(
        ["N0", "Nneg"], ["inside", "outside"], [F(0), F(1), F(2)], vals, vals, vals
    ):
        sector = PairSector(domain, lam if domain == "N0" else -lam, side, 0)
        atom = Atom.pair(n_exp2=a, n_power=c, m_power=rho)
        want = reference_membership._atom_member(sector, atom, frac)
        got = decide_lp_membership(ExpPolyWeight.single(sector, atom), theta) is MEMBER
        assert got == want, (sector, atom)


_gap = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=6)
_slope = st.sampled_from([F(0), F(0), F(1), F(-1), F(3, 2), F(-2, 3)])


@st.composite
def affine_forms(draw, kind, x):
    """A one-atom form and a (dp, g) at which it is a reference atom: every
    exponent e becomes e - a*dp - b*g + a*_DP + b*_G for drawn slopes a, b,
    so the rules meet unreduced pairs over the form's common denominator."""
    sector, atom = draw(ref_atoms(kind, x))
    dp, g = draw(_gap), draw(_gap)

    def lift(e):
        a, b = draw(_slope), draw(_slope)
        return Affine(e - a * dp - b * g, a, b) if a or b else e

    form = ExpPolyWeight.single(sector, Atom._make((
        atom.coeff,
        tuple(CoordFactor._make(map(lift, f)) for f in atom.factors),
        lift(atom.radial_pow),
    )))
    return form, dp, g, ExpPolyWeight.single(sector, atom)


@pytest.mark.parametrize("kind", ["line", "product", "radial", "pair"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), theta=ref_thetas)
def test_form_exponents_decide_as_the_built_weight(kind, data, theta):
    form, dp, g, weight = data.draw(affine_forms(kind, theta.reciprocal()))
    assert form.at(dp, g) == weight
    assert hash(form.at(dp, g)) == hash(weight)
    x = reciprocal_pair(theta)
    want = _outcome(decide_lp_membership, weight, theta)
    pairs = (dp.numerator, dp.denominator), (g.numerator, g.denominator)
    assert _outcome(decide_reciprocal, form.pairs_at(*pairs), x) == want
    # without Affine exponents a weight reads the same at every (dp, g)
    other = [(e.numerator, e.denominator) for e in (data.draw(_gap), data.draw(_gap))]
    assert _outcome(decide_reciprocal, weight.pairs_at(*other), x) == want
    assert _outcome(decide_reciprocal, weight.pairs_at(), x) == want


def test_ceil_pow2_matches_float_ceil_on_safe_inputs():
    for num in range(-12, 25):
        for den in (1, 2, 3, 5):
            fr = F(num, den)
            expect = max(1, math.ceil(2.0 ** float(fr)))
            assert ceil_pow2(fr) == expect, fr


@pytest.mark.parametrize("x, expect", [
    (1023.5, 2.0**1023.5), (1024.0, math.inf), (1050.0, math.inf), (1100.0, math.inf),
    (1101.0, math.inf), (-1074.0, 2.0**-1074), (-1100.0, 0.0), (-1101.0, 0.0),
])
def test_pow2f_saturates_instead_of_raising(x, expect):
    assert oracle.pow2f(x) == expect


@WARNINGS_AS_ERRORS
def test_oracle_survives_a_row_factor_past_the_float_range():
    # 2^(80 n) |m|^-60 on |m| >= 4^n: row 13's n-factor is 2^1040, which
    # 2.0 ** x refuses; every term is at most 2^(-40 n), so the sup is 1.
    # The saturated factor meets m-terms that underflow to 0; adding the
    # logs first keeps inf * 0 = nan out of the row
    w = ExpPolyWeight.single(
        PairSector("N0", F(2), "outside", 0),
        Atom(F(1), (CoordFactor.symmetric(80), CoordFactor.symmetric(0, -60))),
    )
    res = truncated_oracle(w, INF)
    assert (res.verdict, res.partial_sum) == ("Convergent", 1.0)
    assert decide_lp_membership(w, INF) is MEMBER


def test_radial_atom_on_line_sector_is_rejected():
    w = ExpPolyWeight.single(LineSector("Z"), Atom(F(1), (CoordFactor(),), F(-2)))
    with pytest.raises(UnsupportedWeight):
        decide_lp_membership(w, E(1))


# ---------------------------------------------------------------------------
# numeric oracle, frozen values
# ---------------------------------------------------------------------------

class TestTruncatedOracle:
    def test_geometric_series_partial_and_tail(self):
        res = truncated_oracle(line("N0", exp2=-1), E(1))
        assert res.verdict == "Convergent"
        # the full sum is 2; the window has swallowed it to double precision
        assert res.partial_sum == pytest.approx(2.0, abs=1e-12)
        assert res.partial_sum + res.tail_bound >= 2.0

    def test_polynomial_series_tail_bound_is_sound(self):
        res = truncated_oracle(line("N0", power=-2), E(1))
        assert res.verdict == "Convergent"
        limit = 1.0 + math.pi**2 / 6.0
        assert res.partial_sum <= limit <= res.partial_sum + res.tail_bound

    def test_growing_weight_diverges(self):
        res = truncated_oracle(line("N0", exp2=F(1, 10)), E(1))
        assert res.verdict == "Divergent"

    def test_constant_weight_sup_is_flat(self):
        res = truncated_oracle(line("Z"), INF)
        assert res.verdict == "Convergent"
        assert res.partial_sum == 1.0

    def test_constant_weight_sum_diverges(self):
        res = truncated_oracle(line("Z"), E(1))
        assert res.verdict == "Divergent"

    def test_harmonic_series_is_inconclusive(self):
        # partial sums grow like log(radius): too slow for the growth
        # gate, too fat for the shell-ratio gate
        res = truncated_oracle(line("N0", power=-1), E(1))
        assert res.verdict == "Inconclusive"

    def test_verdicts_are_deterministic(self):
        w = ExpPolyWeight.single(RadialSector(2), Atom.radial(2, F(-5, 2)))
        a = truncated_oracle(w, E(1))
        b = truncated_oracle(w, E(1))
        assert a == b

    def test_pair_inside_convergent(self):
        w = ExpPolyWeight.single(
            PairSector("N0", F(1), "inside", 0), Atom.pair(n_exp2=-3)
        )
        res = truncated_oracle(w, E(1))
        assert res.verdict == "Convergent"
        # exact sum: sum 2^(-3n) * (2*2^n + 1) = 8/3 + 8/7 = 80/21
        assert res.partial_sum == pytest.approx(80.0 / 21.0, rel=1e-6)

    def test_pair_outside_convergent(self):
        w = ExpPolyWeight.single(
            PairSector("N0", F(1), "outside", 0), Atom.pair(m_power=-3)
        )
        res = truncated_oracle(w, E(1))
        assert res.verdict == "Convergent"

    def test_growing_outside_rows_end_divergent(self):
        # each row's m^-2 tail is summable, but the row masses grow like
        # 2^n: a row ends on its closed-form rest, an upper bound on its
        # mass, so the shells grow past the gate as the exact decider says
        w = ExpPolyWeight.single(
            PairSector("N0", F(2), "outside", 1),
            Atom.pair(n_exp2=3, m_power=-2),
        )
        res = truncated_oracle(w, E(1))
        assert res.verdict == "Divergent"
        assert decide_lp_membership(w, E(1)) is NOT_MEMBER


# ---------------------------------------------------------------------------
# decider and oracle never contradict each other
# ---------------------------------------------------------------------------

small_exp = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6)
small_pow = st.fractions(min_value=F(-4), max_value=F(2), max_denominator=4)
thetas = st.sampled_from([E("1/2"), E(1), E(2), E(3), INF])


@st.composite
def line_weights(draw):
    domain = draw(st.sampled_from(["Z", "N0", "Nneg", "Z_nonzero"]))
    atoms = tuple(
        Atom.line(exp2=draw(small_exp), power=draw(small_pow))
        for _ in range(draw(st.integers(1, 2)))
    )
    return ExpPolyWeight.single(LineSector(domain), *atoms)


@st.composite
def product_weights(draw):
    d = draw(st.integers(2, 3))
    lines = tuple(LineSector(draw(st.sampled_from(["Z", "N0", "Nneg"]))) for _ in range(d))
    factors = tuple(
        CoordFactor.symmetric(draw(small_exp), draw(small_pow)) for _ in range(d)
    )
    return ExpPolyWeight.single(ProductSector(lines), Atom(F(1), factors))


@st.composite
def pair_weights(draw):
    domain = draw(st.sampled_from(["N0", "Nneg"]))
    lam = draw(st.sampled_from([F(0), F(1, 2), F(1), F(2)]))
    if domain == "Nneg":
        lam = -lam
    side = draw(st.sampled_from(["inside", "outside"]))
    shift = draw(st.sampled_from([-1, 0, 1]))
    atom = Atom.pair(
        n_exp2=draw(small_exp),
        n_power=draw(small_pow),
        m_power=draw(small_pow),
    )
    return ExpPolyWeight.single(PairSector(domain, lam, side, shift), atom)


@settings(max_examples=60, deadline=None)
@given(line_weights(), thetas)
def test_oracle_never_contradicts_decider_on_lines(w, theta):
    res = truncated_oracle(w, theta)
    memb = decide_lp_membership(w, theta)
    if res.verdict == "Convergent":
        assert memb is MEMBER
    elif res.verdict == "Divergent":
        assert memb is NOT_MEMBER


# 2^(2n/3) * n^-6 on the middle axis falls across the whole radius-32
# window and grows only past it
_PRODUCT_GROWING_PAST_THE_WINDOW = ExpPolyWeight.single(
    ProductSector((LineSector("Z"),) * 3),
    Atom(F(1), (CoordFactor.symmetric(0, -1), CoordFactor.symmetric(F(1, 3), -3),
                CoordFactor.symmetric(0, -1))),
)


@settings(max_examples=25, deadline=None)
@given(product_weights(), thetas)
@example(_PRODUCT_GROWING_PAST_THE_WINDOW, E(2))
def test_oracle_never_contradicts_decider_on_products(w, theta):
    res = truncated_oracle(w, theta)
    memb = decide_lp_membership(w, theta)
    if res.verdict == "Convergent":
        assert memb is MEMBER
    elif res.verdict == "Divergent":
        assert memb is NOT_MEMBER


@settings(max_examples=40, deadline=None)
@given(pair_weights(), thetas)
def test_oracle_never_contradicts_decider_on_pairs(w, theta):
    res = truncated_oracle(w, theta)
    memb = decide_lp_membership(w, theta)
    if res.verdict == "Convergent":
        assert memb is MEMBER
    elif res.verdict == "Divergent":
        assert memb is NOT_MEMBER


_coeffs = st.sampled_from([F(1, 3), F(1), F(5)])


@st.composite
def multi_atom_pair_weights(draw):
    """pair_weights with 1-3 atoms, each with its own coefficient."""
    domain = draw(st.sampled_from(["N0", "Nneg"]))
    lam = draw(st.sampled_from([F(0), F(1, 2), F(1), F(2)]))
    sector = PairSector(domain, -lam if domain == "Nneg" else lam,
                        draw(st.sampled_from(["inside", "outside"])),
                        draw(st.sampled_from([-1, 0, 1])))
    atoms = tuple(
        Atom.pair(n_exp2=draw(small_exp), n_power=draw(small_pow),
                  m_power=draw(small_pow), coeff=draw(_coeffs))
        for _ in range(draw(st.integers(1, 3)))
    )
    return ExpPolyWeight.single(sector, *atoms)


@settings(max_examples=40, deadline=None)
@given(multi_atom_pair_weights(), thetas)
def test_oracle_never_contradicts_decider_on_multi_atom_pairs(w, theta):
    # with k > 1 atoms an outside row stops on the k^theta (sum) or k-times
    # (sup) combination of the per-atom remainder bounds
    res = truncated_oracle(w, theta)
    memb = decide_lp_membership(w, theta)
    if res.verdict == "Convergent":
        assert memb is MEMBER
    elif res.verdict == "Divergent":
        assert memb is NOT_MEMBER


# m-factors the exact decider refuses on a pair sector: an exp2 rate on m,
# a different power on +m and -m, and a radial power
@pytest.mark.parametrize("atom", [
    Atom(F(1), (CoordFactor(), CoordFactor.symmetric(F(-1, 2), -3))),
    Atom(F(1), (CoordFactor(), CoordFactor(0, 0, -2, -3))),
    Atom(F(1), (CoordFactor(), CoordFactor.symmetric(0, -3)), -1),
], ids=["exp2-rate-on-m", "asymmetric-m-power", "radial-power"])
@pytest.mark.parametrize("theta", [E(2), INF], ids=["theta-2", "theta-inf"])
def test_oracle_refuses_the_pair_weights_the_decider_refuses(atom, theta):
    w = ExpPolyWeight.single(PairSector("N0", F(1, 2), "outside", -1), atom)
    with pytest.raises(UnsupportedWeight, match="on pair sectors the numeric oracle"):
        truncated_oracle(w, theta)
    with pytest.raises(UnsupportedWeight):
        decide_lp_membership(w, theta)


_FLAT = CoordFactor()


@pytest.mark.parametrize("w, theta", [
    (_PRODUCT_GROWING_PAST_THE_WINDOW, E(2)),
    (line("N0", F(1, 1000), -30), E(1)),
    (line("Nneg", F(-1, 1000), -30), INF),
    (line("Z_nonzero", F(1, 1000), -30), INF),
    (ExpPolyWeight.single(
        RadialSector(2), Atom(F(1), (CoordFactor.symmetric(F(1, 100)), _FLAT), -20)), E(1)),
    (ExpPolyWeight.single(
        RadialSector(2), Atom(F(1), (_FLAT, CoordFactor(0, F(-1, 100))), -20)), INF),
], ids=["product", "line-N0", "line-Nneg-sup", "line-Z_nonzero-sup", "radial",
        "radial-negative-side-sup"])
def test_oracle_never_certifies_a_term_growing_past_the_window(w, theta):
    # each term falls across the whole default window, so the shell test
    # alone would call it Convergent; 2^(a*n) on an unbounded side says no
    assert truncated_oracle(w, theta).verdict == "Inconclusive"


@pytest.mark.parametrize("w, theta", [
    (line("Nneg", F(1, 10)), E(1)),
    (ExpPolyWeight.single(LineSector("N0"), Atom(F(1), (CoordFactor(F(-1, 10), F(-1, 10)),))),
     E(1)),
    (ExpPolyWeight.single(
        ProductSector((LineSector("N0"), LineSector("Nneg"))),
        Atom(F(1), (CoordFactor.symmetric(F(-1, 10)), CoordFactor.symmetric(F(1, 10))))),
     INF),
], ids=["line-Nneg", "line-N0-unused-negative-side", "product-sup"])
def test_growth_gate_ignores_sides_outside_the_domain(w, theta):
    assert truncated_oracle(w, theta).verdict == "Convergent"
    assert decide_lp_membership(w, theta) is MEMBER


# ---------------------------------------------------------------------------
# pair rows against the per-atom row formula
# ---------------------------------------------------------------------------

def _reference_factor_on_axis(f, n):
    a = np.where(n >= 0, float(f.exp2_pos), float(f.exp2_neg))
    c = np.where(n >= 0, float(f.pow_pos), float(f.pow_neg))
    absn = np.abs(n)
    safe = np.where(absn == 0, 1.0, absn)
    with np.errstate(over="ignore", under="ignore"):
        return np.exp2(np.clip(a * n + c * np.log2(safe), -1100.0, 1100.0))


def _reference_row_values(piece, n, ms):
    total = np.zeros_like(ms)
    for atom in piece.atoms:
        base = float(atom.coeff) * witnesses.pow2f(witnesses.log2_value(atom.factors[0], n))
        with np.errstate(over="ignore"):
            total = total + base * _reference_factor_on_axis(atom.factors[1], ms)
    return total


def _reference_powered(vals, theta_f):
    if theta_f is None:
        return vals
    with np.errstate(over="ignore", under="ignore"):
        return np.where(vals > 0, vals**theta_f, 0.0)


_RATES = st.one_of(st.sampled_from([0.0, -1.0, 1.0, -2.0]),
                   st.floats(-4.0, 4.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(a=_RATES, c=_RATES, lo=st.integers(1, 50), span=st.integers(-3, 60))
# rates so small that 1 - 2^(-|a|/2) cancels to 0 in floats
@example(a=-1e-20, c=-3.0, lo=1, span=0)
@example(a=1.7048041364312603e-57, c=0.0, lo=1, span=0)
@example(a=-5e-324, c=0.0, lo=1, span=0)
def test_exp_poly_bounds_dominate_the_brute_force_sum_and_max(a, c, lo, span):
    """Over [lo, hi] the sum bound is at least the fsum of 2^(a*j) * j^c and
    the sup bound at least its largest term, to a relative 1e-12, and both
    are 0 on an empty range; up to inf the sum bound is infinite exactly
    when the series diverges (a > 0, or a = 0 and c >= -1), as long as the
    bound, about |a|^-(c+1) for a < 0, is in the float range."""
    hi = lo + span
    terms = [2.0 ** (a * j) * float(j) ** c for j in range(lo, hi + 1)]
    total = oracle._sum_exp_poly(a, c, float(lo), float(hi))
    peak = oracle._sup_exp_poly(a, c, float(lo), float(hi))
    assert total >= math.fsum(terms) * (1 - 1e-12)
    assert peak >= max(terms, default=0.0) * (1 - 1e-12)
    if not terms:
        assert total == peak == 0.0
    diverges = a > 0 or (a == 0 and c >= -1)
    tail = oracle._sum_exp_poly(a, c, float(lo), math.inf)
    if diverges or a == 0 or abs(a) >= 1e-50:
        assert math.isinf(tail) == diverges


def test_sup_whose_stationary_point_overflows_is_inf():
    # 2^(a*j) * j peaks at j* = 1/(|a| ln 2) with value 1/(e |a| ln 2),
    # about 5e309 for a = -1e-310: past the float range, so inf is the
    # sound sup, although j* itself overflows to inf
    assert oracle._sup_exp_poly(-1e-310, 1.0, 1.0, math.inf) == math.inf
    assert oracle._sup_exp_poly(-1e-310, 1.0, 21.0, math.inf) == math.inf
    # the sup of 2^(-j) * j over j >= 1 is that same 1/(e ln 2) at j* = 1/ln 2
    assert oracle._sup_exp_poly(-1.0, 1.0, 1.0, math.inf) == pytest.approx(
        1.0 / (math.e * math.log(2.0)), rel=1e-15)
    # a pair weight with that rate on n: the bound on the rows past radius
    # 20 reads the same sup, so it is inf rather than 21
    w = expweight_from_json({"lattice": {"kind": "pairs"},
                             "atoms": [{"exp2": [f"-1/{10**310}", "0"], "pow": ["1", "0"]}]})
    assert oracle._pair_tail_bound(oracle._float_pieces(w)[0], 20, None) == math.inf
    assert truncated_oracle(w, INF).verdict == "Inconclusive"
    assert decide_lp_membership(w, INF) is MEMBER


def _reference_rest(piece, n, lo, theta_f):
    """The closed-form bound on the terms |m| >= lo of row n, atom by atom
    and side by side: base^theta times the powered m-factor's sum, times
    k^theta for k > 1 atoms above theta = 1; k times the largest sup for
    theta = inf."""
    terms = []
    for atom in piece.atoms:
        base = float(atom.coeff) * witnesses.pow2f(witnesses.log2_value(atom.factors[0], n))
        f = atom.factors[1]
        for a, c in ((float(f.exp2_pos), float(f.pow_pos)),
                     (-float(f.exp2_neg), float(f.pow_neg))):
            if theta_f is None:
                terms.append(base * oracle._sup_exp_poly(a, c, lo, math.inf))
            else:
                terms.append(base**theta_f * oracle._sum_exp_poly(
                    theta_f * a, theta_f * c, lo, math.inf))
    k = len(piece.atoms)
    if theta_f is None:
        return k * max(terms)
    total = sum(terms)
    return total * float(k) ** theta_f if theta_f > 1.0 and k > 1 else total


def _reference_pair_row(piece, n, theta_f, scale):
    """The row sum (the sup for theta = inf) with every atom evaluated on its
    own, on both halves of every chunk: (value, truncated_significant).  An
    outside row that ends on its rest (a share of at most _ROW_REST_SHARE of
    the sum, or any finite rest at the cap) reports the sum plus the rest,
    or the larger of the sup and the rest."""
    sector = piece.sector
    bound = sector.m_bound(n)
    if sector.side == "inside":
        if bound < 0:
            return 0.0, False
        cap = oracle._ROW_STEP_CAP // 2
        half = min(bound, cap)
        ms = np.arange(-half, half + 1, dtype=np.float64)
        powered = _reference_powered(_reference_row_values(piece, n, ms), theta_f)
        with np.errstate(over="ignore"):
            value = float(powered.max() if theta_f is None else powered.sum())
        return value, bound > cap
    start = max(bound, 1)
    total = sup = last_chunk = 0.0
    if bound <= 0:
        z = _reference_powered(_reference_row_values(piece, n, np.zeros(1)), theta_f)
        with np.errstate(over="ignore"):
            total += float(z.sum())
        sup = max(sup, float(z.max()))
    steps = 0
    while steps < oracle._ROW_STEP_CAP:
        ms = np.arange(start + steps, start + steps + 4096, dtype=np.float64)
        pos = _reference_powered(_reference_row_values(piece, n, ms), theta_f)
        neg = _reference_powered(_reference_row_values(piece, n, -ms), theta_f)
        with np.errstate(over="ignore"):
            vals = np.maximum(pos, neg) if theta_f is None else pos + neg
            last_chunk = float(vals.sum())
        total += last_chunk
        top = float(vals.max())
        sup = max(sup, top)
        steps += 4096
        if theta_f is None and (math.isnan(top) or math.isinf(sup)):
            return top if math.isnan(top) else sup, False
        if theta_f is not None and not math.isfinite(total):
            return total, False
        value = sup if theta_f is None else total
        negligible = oracle._ROW_NEGLIGIBLE * max(total, scale, 1e-300)
        rest = _reference_rest(piece, n, float(start + steps), theta_f)
        if (last_chunk <= negligible and math.isfinite(total)) or (
            math.isfinite(rest) and rest <= (sup if theta_f is None else negligible)
        ):
            return value, False
        if theta_f is not None and math.isfinite(rest) and rest <= oracle._ROW_REST_SHARE * total:
            return total + rest, False
    if math.isfinite(rest):
        return (max(sup, rest) if theta_f is None else total + rest), False
    significant = last_chunk >= oracle._ROW_SIGNIFICANT * max(total, scale, 1e-300)
    return sup if theta_f is None else total, significant


# an m-factor |m|^c, flat in 2^(a*m) and even in m, as Atom.pair builds it:
# the only m-factor the oracle takes on pair sectors
_m_factors = small_pow.map(lambda c: CoordFactor.symmetric(0, c))


@st.composite
def pair_rows(draw):
    domain = draw(st.sampled_from(["N0", "Nneg"]))
    lam = draw(st.sampled_from([F(0), F(1, 2), F(1), F(2)]))
    sector = PairSector(
        domain,
        -lam if domain == "Nneg" else lam,
        draw(st.sampled_from(["inside", "outside"])),
        draw(st.sampled_from([-1, 0, 1])),
    )
    atoms = tuple(
        Atom(
            draw(st.sampled_from([F(1), F(1, 3), F(5, 2)])),
            (CoordFactor(draw(small_exp), draw(small_exp), draw(small_pow), draw(small_pow)),
             draw(_m_factors)),
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    n = draw(st.integers(0, 10))
    return Piece(sector, atoms), -n if domain == "Nneg" else n


@settings(max_examples=80, deadline=None)
@given(pair_rows(), st.sampled_from([0.5, 1.0, 2.0, None]), st.sampled_from([0.0, 1.0, 1e8]))
# a sup row of terms 1e305, whose chunk sums are past the float range
@example((Piece(PairSector("N0", F(0), "outside", 0), (Atom.pair(coeff=F(10**305)),)), 0),
         None, 0.0)
# |m|^-1 at theta = 2: the row ends on its rest after two chunks
@example((Piece(PairSector("N0", F(1), "outside", 0), (Atom.pair(m_power=-1),)), 3), 2.0, 0.0)
# rows that reach the cap with a finite rest: |m|^-3/2 leaves about
# 4/sqrt(|m|), above 1e-3 of the sum up to 200 000; a flat atom's rest 2
# stays above the sup 1 + 1/2 of a flat and a falling atom
@example((Piece(PairSector("N0", F(0), "outside", 0), (Atom.pair(m_power=F(-1, 2)),)), 0),
         3.0, 0.0)
@example((Piece(PairSector("N0", F(0), "outside", 0),
                (Atom.pair(), Atom.pair(m_power=-3, coeff=F(1, 2)))), 0), None, 0.0)
@WARNINGS_AS_ERRORS
def test_pair_row_matches_per_atom_formula_bit_for_bit(row, theta_f, scale):
    piece, n = row
    got = oracle._pair_row(piece, n, theta_f, scale=scale)
    value, flagged = _reference_pair_row(piece, n, theta_f, scale)
    # A row whose sum overflows reads inf on both sides, and inf.hex() is the
    # same however far past the float range each sum went.  Equality still
    # means both overflowed the same way: each side returns at the first
    # chunk whose running total (the sup, for theta = inf) is not finite, and
    # the flag is compared too.
    assert (got.value.hex(), got.truncated_significant) == (value.hex(), flagged)


@st.composite
def outside_rows(draw):
    """An outside row of 1-3 atoms with coefficients in {1/3, 1, 5}, and a
    first unsummed |m|."""
    atoms = tuple(
        Atom(draw(_coeffs),
             (CoordFactor(draw(small_exp), draw(small_exp), draw(small_pow), draw(small_pow)),
              draw(_m_factors)))
        for _ in range(draw(st.integers(1, 3)))
    )
    piece = Piece(PairSector("N0", F(1, 2), "outside", 0), atoms)
    return piece, draw(st.integers(0, 10)), draw(st.integers(1, 100_000))


def _outside_row(*atoms):
    """Row 0 (every base is its coefficient) of an outside sector, from |m| = 1."""
    return Piece(PairSector("N0", F(0), "outside", 0), atoms), 0, 1


@settings(max_examples=150, deadline=None)
@given(outside_rows(), st.sampled_from([0.5, 1.0, 2.0, 3.0, None]))
# near-tight cases, one per part of the bound: two equal atoms, whose
# (x + x)^3 = 8 x^3 needs the k^theta factor; a coefficient 5 that enters
# as 5^2; two flat atoms, whose sup 2 is twice the largest atom's
@example(_outside_row(*[Atom.pair(m_power=-3)] * 2), 3.0)
@example(_outside_row(Atom.pair(m_power=-3, coeff=5)), 2.0)
@example(_outside_row(*[Atom.pair()] * 2), None)
def test_row_remainder_bound_covers_the_rest_of_the_row(row, theta_f):
    piece, n, lo = row
    rest = oracle._row_remainder_bound(oracle._row_atoms(piece, n), float(lo), theta_f)
    ms = np.arange(lo, lo + 50_001, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        pos = _reference_powered(_reference_row_values(piece, n, ms), theta_f)
        neg = _reference_powered(_reference_row_values(piece, n, -ms), theta_f)
        brute = float(max(pos.max(), neg.max()) if theta_f is None else pos.sum() + neg.sum())
    # the closed form and numpy may round one power apart in its last bits;
    # with a single decreasing atom the sup bound is the first term itself
    assert brute <= rest * (1.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(pair_rows().filter(lambda row: row[0].sector.side == "outside"),
       st.sampled_from([0.5, 1.0, 2.0, 3.0, None]))
@example(_outside_row(Atom.pair(m_power=-1))[:2], 2.0)
@example(_outside_row(*[Atom.pair()] * 2)[:2], None)
def test_outside_row_value_dominates_its_first_terms(row, theta_f):
    """An outside row's value, read on its own (scale 0), is at least the
    brute-force sum (the sup, for theta = inf) of its first 50 000 |m| on
    both sides, and of m = 0 when the row holds it, to a relative 1e-12."""
    piece, n = row
    bound = piece.sector.m_bound(n)
    ms = np.arange(max(bound, 1), max(bound, 1) + 50_000, dtype=np.float64)
    if bound <= 0:
        ms = np.concatenate([[0.0], ms])
    with np.errstate(over="ignore", invalid="ignore"):
        pos = _reference_powered(_reference_row_values(piece, n, ms), theta_f)
        neg = _reference_powered(_reference_row_values(piece, n, -ms[ms > 0]), theta_f)
        brute = float(max(pos.max(), neg.max()) if theta_f is None else pos.sum() + neg.sum())
    value = oracle._pair_row(piece, n, theta_f).value
    assert value >= brute * (1.0 - 1e-12)


def _count_row_values(monkeypatch):
    calls = []
    real = oracle._row_values

    def counted(row, log2s):
        calls.append(1)
        return real(row, log2s)

    monkeypatch.setattr(oracle, "_row_values", counted)
    return calls


@pytest.mark.parametrize("m_power", [F(0), F(-1, 2), F(-3)])
def test_sup_row_stops_once_the_rest_cannot_raise_it(monkeypatch, m_power):
    # row 3 of an outside sector starts at |m| = 8 and falls from there;
    # one _row_values call makes the +m half of a chunk, which the -m half
    # repeats, so one call is one chunk
    piece = Piece(PairSector("N0", F(1), "outside", 0), (Atom.pair(m_power=m_power),))
    calls = _count_row_values(monkeypatch)
    row = oracle._pair_row(piece, 3, None)
    assert (len(calls), row.value, row.truncated_significant) == (1, 8.0 ** float(m_power), False)


@pytest.mark.parametrize("m_power, flagged", [(F(0), False), (F(1, 100), True)])
def test_sup_row_reads_its_terms_not_their_overflowed_sum(m_power, flagged):
    # terms near 1e305 sum past the float range in one chunk: a flat row
    # ends on its rest bound, a growing one runs to the cap, flagged
    piece = Piece(PairSector("N0", F(0), "outside", 0),
                  (Atom.pair(coeff=F(10**305), m_power=m_power),))
    row = oracle._pair_row(piece, 0, None)
    top = 1e305 * float(oracle._ROW_STEP_CAP) ** float(m_power)
    assert row.value == pytest.approx(top, rel=1e-4)
    assert row.truncated_significant is flagged


def test_a_nan_term_ends_a_sup_row(monkeypatch):
    # max(sup, nan) keeps sup, so the row must read the chunk's own maximum
    piece = Piece(PairSector("N0", F(1), "outside", 0), (Atom.pair(),))
    real = oracle._row_values

    def with_nan(row, log2s):
        vals = real(row, log2s)
        vals[vals.size // 2] = np.nan
        return vals

    monkeypatch.setattr(oracle, "_row_values", with_nan)
    row = oracle._pair_row(piece, 3, None)
    assert math.isnan(row.value) and not row.truncated_significant


def test_sum_row_stops_once_the_rest_is_negligible(monkeypatch):
    piece = Piece(PairSector("N0", F(1), "outside", 0), (Atom.pair(m_power=-3),))
    calls = _count_row_values(monkeypatch)
    row = oracle._pair_row(piece, 3, 2.0)
    # 2 * sum_{m > 4103} m^-6 < 1e-18 is past 1e-12 of the row's mass
    assert (len(calls), row.truncated_significant) == (1, False)
    assert row.value == pytest.approx(2.0 * sum(m**-6.0 for m in range(8, 4104)), rel=1e-14)
    # |m|^-1 at theta = 2 leaves 2/|m| + 2/|m|^2 behind, which no chunk
    # before the cap makes negligible; after two chunks that rest is below
    # 1e-3 of the row's sum, and the row reports the sum plus the rest
    slow = Piece(PairSector("N0", F(1), "outside", 0), (Atom.pair(m_power=-1),))
    calls.clear()
    row = oracle._pair_row(slow, 3, 2.0)
    lo = 8 + 2 * 4096
    assert (len(calls), row.truncated_significant) == (2, False)
    summed = 2.0 * math.fsum(m**-2.0 for m in range(8, lo))
    assert row.value == pytest.approx(summed + 2.0 * (1.0 / lo + lo**-2.0), rel=1e-14)
    # an upper bound on the whole row, 2 * (pi^2/6 - sum_{m < 8} m^-2)
    assert row.value >= 2.0 * (math.pi**2 / 6 - math.fsum(m**-2.0 for m in range(1, 8)))


def test_coorbit_sup_shell_is_a_max_and_certified(monkeypatch, capsys):
    # shearlet_coorbit c = -1 at theta = inf: the shells are maxima over
    # rows, and no row is cut off while its rest could raise the sup
    from decomp_embed.cli import main

    tails = []

    def record(weight, theta):
        tail = truncated_oracle(weight, theta)
        tails.append((weight, theta, tail))
        return tail

    monkeypatch.setattr(oracle, "truncated_oracle", record)
    code = main(["decide", "--family", "shearlet_coorbit", "--params",
                 '{"c":"-1","alpha":"0","beta":"1"}', "--target", "cb",
                 "-p", "1", "-r", "2", "-k", "0", "--oracle-check"])
    capsys.readouterr()
    assert code == 1  # DoesNotEmbed, no oracle disagreement (10)
    sups = [(w, tail) for w, theta, tail in tails if theta.is_inf]
    assert len(sups) == 1
    w, tail = sups[0]
    assert (tail.verdict, tail.partial_sum) == ("Convergent", 3.0)
    assert decide_lp_membership(w, INF) is MEMBER


def _reference_grid_values(piece, radius):
    """Values and radii of a grid piece, each factor's log2 taken on its own
    axis and every step of the sum allocating a fresh array."""
    axes = oracle._grid_axes(piece.sector, radius)
    shape = tuple(len(ax) for ax in axes)

    def along(arr, dim):
        return arr.reshape([-1 if i == dim else 1 for i in range(len(axes))])

    total = np.zeros(shape)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        for atom in piece.atoms:
            log2mag = np.zeros(shape)
            for dim, (f, n) in enumerate(zip(atom.factors, axes)):
                a = np.where(n >= 0, float(f.exp2_pos), float(f.exp2_neg))
                c = np.where(n >= 0, float(f.pow_pos), float(f.pow_neg))
                absn = np.abs(n)
                log2mag = log2mag + along(a * n + c * np.log2(np.where(absn == 0, 1.0, absn)), dim)
            if atom.radial_pow:
                sq = np.zeros(shape)
                for dim, n in enumerate(axes):
                    sq = sq + along(n**2, dim)
                log2mag = log2mag + 0.5 * float(atom.radial_pow) * np.log2(sq)
            total = total + float(atom.coeff) * np.exp2(np.clip(log2mag, -1100.0, 1100.0))
    radii = np.zeros(shape)
    for dim, n in enumerate(axes):
        radii = np.maximum(radii, along(np.abs(n), dim))
    values, radii = total.ravel(), radii.ravel()
    if isinstance(piece.sector, RadialSector):
        values, radii = values[radii > 0], radii[radii > 0]
    return values, radii


@st.composite
def grid_pieces(draw):
    kind = draw(st.sampled_from(["line", "product", "radial"]))
    if kind == "line":
        sector = LineSector(draw(st.sampled_from(["Z", "N0", "Nneg", "Z_nonzero"])))
    elif kind == "product":
        sector = ProductSector(tuple(
            LineSector(draw(st.sampled_from(["Z", "N0", "Nneg"])))
            for _ in range(draw(st.integers(2, 3)))))
    else:
        sector = RadialSector(draw(st.integers(2, 3)))
    atoms = tuple(
        Atom(draw(_coeffs),
             tuple(CoordFactor(draw(small_exp), draw(small_exp), draw(small_pow), draw(small_pow))
                   for _ in range(sector.dims)),
             draw(small_pow) if kind == "radial" else 0)
        for _ in range(draw(st.integers(1, 3)))
    )
    return Piece(sector, atoms), draw(st.integers(0, 40 if kind == "line" else 6))


@settings(max_examples=80, deadline=None)
@given(grid_pieces())
@WARNINGS_AS_ERRORS
def test_grid_values_match_per_factor_formula_bit_for_bit(piece_radius):
    piece, radius = piece_radius
    got = oracle._grid_values(piece, radius)
    want = _reference_grid_values(piece, radius)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@settings(max_examples=80, deadline=None)
@given(grid_pieces())
def test_grid_values_match_the_reference_evaluator_point_by_point(piece_radius):
    # the grid runs over the window in the order iter_window lists it, and
    # both leave out the origin of a radial sector
    piece, radius = piece_radius
    values, _ = oracle._grid_values(piece, radius)
    points = list(iter_window(piece.sector, radius))
    assert len(values) == len(points)
    weight = ExpPolyWeight((piece,))
    for got, pt in zip(values.tolist(), points):
        assert math.isclose(got, evaluate(weight, pt), rel_tol=1e-9), pt


@pytest.mark.parametrize("domain", ["Z", "N0", "Nneg", "Z_nonzero"])
@pytest.mark.parametrize("radius", [0, 1, 2, 5, 16384])
def test_grid_axes_are_the_coordinate_values(domain, radius):
    sector = LineSector(domain)
    want = np.array(coord_values(sector, radius), dtype=np.float64).tobytes()
    (axis,) = oracle._grid_axes(sector, radius)
    assert axis.dtype == np.float64 and axis.tobytes() == want
    axes = oracle._grid_axes(ProductSector((sector, LineSector("Z"))), radius)
    assert axes[0].tobytes() == want


# ---------------------------------------------------------------------------
# the sequence embedding and its two numeric directions
# ---------------------------------------------------------------------------

def test_unweighted_nesting_of_lp_spaces():
    u = line("N0")
    for r, s, expect in [
        (E(1), E(2), "Embeds"),
        (E(2), E(1), "DoesNotEmbed"),
        (E(1), INF, "Embeds"),
        (INF, E(1), "DoesNotEmbed"),
        (E(2), E(2), "Embeds"),
    ]:
        assert decide_sequence_embedding(u, u, r, s) == expect


def test_weighted_embedding_with_gap():
    # v = 2^(n/2), u = 1: u/v = 2^(-n/2) lies in every l^theta on N0
    v = line("N0", exp2=F(1, 2))
    u = line("N0")
    assert decide_sequence_embedding(u, v, E(2), E(1)) == "Embeds"
    assert decide_sequence_embedding(v, u, E(1), E(2)) == "DoesNotEmbed"


def test_holder_direction_bounds_random_sequences():
    import random

    rng = random.Random(90125)
    u = line("Z", exp2=F(1, 3), power=1)
    v = line("Z", exp2=F(1, 2))
    r, s = E(1), E(2)
    const = holder_constant(u, v, r, s, radius=8)
    pts = list(iter_points(u, 8))
    for _ in range(50):
        support = rng.sample(pts, k=rng.randint(1, len(pts)))
        seq = {pt: rng.uniform(-2.0, 2.0) for pt in support}
        lhs = sequence_norm(seq, u, s)
        rhs = sequence_norm(seq, v, r)
        assert lhs <= const * rhs + 1e-9


def test_witness_ratios_grow_when_membership_fails():
    # u/v = 2^(n/4) on N0 fails every finite theta and the sup
    u = line("N0", exp2=F(1, 4))
    v = line("N0")
    for r, s in [(E(1), E(2)), (E(2), E(1)), (E(2), INF)]:
        assert decide_sequence_embedding(u, v, r, s) == "DoesNotEmbed"
        ratios = witness_norm_ratios(u, v, r, s, radii=(4, 8, 16))
        for (_, a), (_, b) in zip(ratios, ratios[1:]):
            assert b >= 1.2 * a


def test_witness_ratios_flat_when_embedding_holds():
    u = line("N0")
    v = line("N0", exp2=F(1, 2))
    ratios = witness_norm_ratios(u, v, E(1), E(2), radii=(4, 8, 16))
    assert ratios[-1][1] <= ratios[0][1] * 1.05


# ---------------------------------------------------------------------------
# serialization and structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("doc,expect", [
    ({"kind": "Z"}, LineSector("Z")),
    ({"kind": "N0"}, LineSector("N0")),
    ({"kind": "Nneg"}, LineSector("Nneg")),
    ({"kind": "Z_nonzero"}, LineSector("Z_nonzero")),
    ({"kind": "product", "domains": ["N0", "Z"]},
     ProductSector((LineSector("N0"), LineSector("Z")))),
    ({"kind": "radial", "d": 3}, RadialSector(3)),
    ({"kind": "pairs", "n_domain": "Nneg", "lam": -2, "side": "inside", "shift": -1},
     PairSector("Nneg", F(-2), "inside", -1)),
    ({"kind": "pairs"}, PairSector("N0", F(0), "inside", 0)),
])
def test_sector_from_json_accepts(doc, expect):
    assert sector_from_json(doc) == expect


@pytest.mark.parametrize("doc,expect", [
    ({"lattice": {"kind": "N0"}}, ExpPolyWeight.single(LineSector("N0"), Atom.line())),
    ({"lattice": {"kind": "pairs", "lam": [3, 2], "side": "outside", "shift": 1},
      "atoms": [{"coeff": "3/4", "exp2": ["-1/2", 0], "pow": [1, -2]}]},
     ExpPolyWeight.single(
         PairSector("N0", F(3, 2), "outside", 1),
         Atom.pair(n_exp2=F(-1, 2), n_power=1, m_power=-2, coeff=F(3, 4)),
     )),
    ({"lattice": {"kind": "Z"},
      "atoms": [{"exp2": {"pos": -1, "neg": 2}, "pow": 1}, {"exp2": "1/3"}]},
     ExpPolyWeight.single(
         LineSector("Z"),
         Atom(1, (CoordFactor(-1, 2, 1, 1),)),
         Atom.line(exp2=F(1, 3)),
     )),
    ({"lattice": {"kind": "radial", "d": 2}, "atoms": [{"radial_pow": "-5/2"}]},
     ExpPolyWeight.single(RadialSector(2), Atom.radial(2, F(-5, 2)))),
    ({"pieces": [
        {"lattice": {"kind": "N0"}, "atoms": [{"exp2": -1}]},
        {"lattice": {"kind": "Nneg"}, "atoms": [{"exp2": 1, "coeff": 2}]},
    ]},
     ExpPolyWeight((
         Piece(LineSector("N0"), (Atom.line(exp2=-1),)),
         Piece(LineSector("Nneg"), (Atom.line(exp2=1, coeff=2),)),
     ))),
])
def test_expweight_from_json_accepts(doc, expect):
    assert expweight_from_json(doc) == expect


def test_quotient_matches_pointwise_division():
    u = ExpPolyWeight.single(
        LineSector("Z"), Atom.line(exp2=F(1, 2), power=1), Atom.line(exp2=F(-1, 3))
    )
    v = ExpPolyWeight.single(LineSector("Z"), Atom.line(exp2=F(1, 6), power=-1, coeff=2))
    q = u.quotient(v)
    for n in range(-9, 10):
        expect = evaluate(u, (n,)) / evaluate(v, (n,))
        assert evaluate(q, (n,)) == pytest.approx(expect, rel=1e-12)


def test_quotient_requires_single_atom_denominator():
    u = line("Z")
    v = ExpPolyWeight.single(LineSector("Z"), Atom.line(), Atom.line(exp2=-1))
    with pytest.raises(UnsupportedWeight):
        u.quotient(v)


def test_evaluate_outside_every_piece_raises():
    w = line("N0")
    with pytest.raises(ValueError):
        evaluate(w, (-3,))
