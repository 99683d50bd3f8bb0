"""Sequence-space membership: exact decider against the numeric oracle."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decomp_embed import oracle
from decomp_embed.errors import (
    DecompEmbedError,
    InvalidParams,
    UnsupportedWeight,
    WindowCapExceeded,
)
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
    _ceil_pow2_int,
    decide_lp_membership,
    expweight_from_json,
    refuse_unsupported,
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


@functools.lru_cache(maxsize=None)
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
    nonzero exponent e becomes e - a*dp - b*g + a*_DP + b*_G for slopes a, b
    drawn once per value, so the rules meet unreduced pairs over the form's
    common denominator.  As in a family form, a zero stays identically zero
    and equal exponents stay equal, which is what the refusal reads."""
    sector, atom = draw(ref_atoms(kind, x))
    dp, g = draw(_gap), draw(_gap)
    slopes = {}

    def lift(e):
        if e not in slopes:
            slopes[e] = (draw(_slope), draw(_slope)) if e else (0, 0)
        a, b = slopes[e]
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
    # the form is refused exactly when its built weight is, with the same
    # message; the rules read only the pairs of a form that passed
    refused = not isinstance(want, Membership)
    assert _outcome(refuse_unsupported, form) == (want if refused else form)
    if refused:
        return
    # compiled once; it evaluates only the exponents that depend on
    # (dp, g), each once, and a built weight has none
    test = form.membership_test()
    assert test is form.membership_test()
    assert all(b or c for _, b, c in test._affine)
    assert len(set(test._affine)) == len(test._affine)
    assert weight.membership_test()._affine == ()
    pairs = (dp.numerator, dp.denominator), (g.numerator, g.denominator)
    assert _outcome(test.at(*pairs), x) == want
    # without Affine exponents a weight reads the same at every (dp, g)
    other = [(e.numerator, e.denominator) for e in (data.draw(_gap), data.draw(_gap))]
    assert _outcome(weight.membership_test().at(*other), x) == want
    assert _outcome(weight.membership_test().at(), x) == want


@st.composite
def ref_pieces(draw, x):
    """A piece of one to three atoms of one kind drawn by :func:`ref_atoms`,
    defects included: the sector of the first, and the others fitted to its
    arity with trivial factors."""
    kind = draw(st.sampled_from(["line", "product", "radial", "pair"]))
    sector, atom = draw(ref_atoms(kind, x))
    atoms = [atom] + [draw(ref_atoms(kind, x))[1] for _ in range(draw(st.integers(0, 2)))]
    pad = (CoordFactor(),) * sector.dims
    return Piece(sector, tuple(
        Atom._make((a.coeff, (a.factors + pad)[:sector.dims], a.radial_pow)) for a in atoms))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), theta=ref_thetas)
def test_membership_does_not_depend_on_the_order_of_atoms_and_pieces(data, theta):
    x = theta.reciprocal()
    pieces = data.draw(st.lists(ref_pieces(x), min_size=1, max_size=3))
    shuffled = [Piece(pc.sector, tuple(data.draw(st.permutations(pc.atoms))))
                for pc in data.draw(st.permutations(pieces))]

    def outcome(pcs):
        try:
            return decide_lp_membership(ExpPolyWeight(tuple(pcs)), theta)
        except UnsupportedWeight as exc:
            return exc

    got, again = outcome(pieces), outcome(shuffled)
    assert type(got) is type(again)
    frac = None if theta.is_inf else 1 / x
    rules = [_outcome(reference_membership._atom_member, pc.sector, atom, frac)
             for pc in pieces for atom in pc.atoms]
    messages = {rule for rule in rules if isinstance(rule, str)}
    # refused exactly when some atom is, and otherwise the conjunction
    if not messages:
        assert got is again is (MEMBER if all(rules) else NOT_MEMBER)
    else:
        assert f"UnsupportedWeight: {got}" in messages
        if len(messages) == 1:
            assert str(got) == str(again)


def test_ceil_pow2_matches_float_ceil_on_safe_inputs():
    for num in range(-12, 25):
        for den in (1, 2, 3, 5):
            fr = F(num, den)
            expect = max(1, math.ceil(2.0 ** float(fr)))
            assert _ceil_pow2_int(fr.numerator, fr.denominator) == expect, fr
            assert PairSector("N0", fr, "inside", 0).m_bound(1) == expect, fr


@settings(max_examples=300, deadline=None)
@given(st.integers(-1000, 1000), st.integers(1, 1000), st.integers(-64, 64),
       st.sampled_from([-1, 0, 1]))
@example(0, 1, 64, 0)
@example(1000, 1, 64, 1)
@example(-1000, 1, -64, -1)
@example(999, 1000, 64, 0)
@example(1, 1000, 1, -1)
def test_row_bound_in_ints_matches_ceil_pow2(a, b, n, shift):
    """The int row bound, which builds no Fraction, is ceil(2^(lam * n)) + shift."""
    lam_n = F(a, b) * n
    assert PairSector("N0", F(a, b), "inside", shift).m_bound(n) == _ceil_pow2_int(
        lam_n.numerator, lam_n.denominator) + shift


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
        oracle._classified.cache_clear()  # a second run, not a kept result
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
    d = draw(st.integers(2, 5))
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
    # with k > 1 atoms a sup row reads its end terms; a sum row expands the
    # multinomial at an integer theta, or else sums a head and bounds the
    # rest by the power mean inequality
    res = truncated_oracle(w, theta)
    memb = decide_lp_membership(w, theta)
    if res.verdict == "Convergent":
        assert memb is MEMBER
    elif res.verdict == "Divergent":
        assert memb is NOT_MEMBER


_OUTSIDE = PairSector("N0", F(1, 2), "outside", -1)
_M_FACTORS = "on pair sectors the numeric oracle"
_LAM_SIGN = "the numeric oracle takes no pair sector with lam"


# pair weights the exact decider refuses: m-factors with an exp2 rate on m,
# a different power on +m and -m, or a radial power; and on either side, a
# sector whose lam has the wrong sign for its n-domain, here with an atom
# that decays along n
@pytest.mark.parametrize("w, message", [
    (ExpPolyWeight.single(
        _OUTSIDE, Atom(F(1), (CoordFactor(), CoordFactor.symmetric(F(-1, 2), -3)))), _M_FACTORS),
    (ExpPolyWeight.single(
        _OUTSIDE, Atom(F(1), (CoordFactor(), CoordFactor(0, 0, -2, -3)))), _M_FACTORS),
    (ExpPolyWeight.single(
        _OUTSIDE, Atom(F(1), (CoordFactor(), CoordFactor.symmetric(0, -3)), -1)), _M_FACTORS),
    *((ExpPolyWeight.single(PairSector(domain, lam, side, 0), Atom.pair(n_exp2=lam)), _LAM_SIGN)
      for domain, lam in (("N0", F(-1)), ("Nneg", F(1))) for side in ("inside", "outside")),
], ids=["exp2-rate-on-m", "asymmetric-m-power", "radial-power", "lam-negative-on-N0-inside",
        "lam-negative-on-N0-outside", "lam-positive-on-Nneg-inside",
        "lam-positive-on-Nneg-outside"])
@pytest.mark.parametrize("theta", [E(2), INF], ids=["theta-2", "theta-inf"])
def test_oracle_refuses_the_pair_weights_the_decider_refuses(w, message, theta):
    with pytest.raises(UnsupportedWeight, match=message):
        truncated_oracle(w, theta)
    with pytest.raises(UnsupportedWeight):
        decide_lp_membership(w, theta)


_FLAT = CoordFactor()


# radial atoms the exact decider refuses: a coordinate factor on a radial
# sector, and a radial power on a line or product sector
@pytest.mark.parametrize("w", [
    ExpPolyWeight.single(
        RadialSector(2), Atom(F(1), (CoordFactor.symmetric(F(1, 100)), _FLAT), -20)),
    ExpPolyWeight.single(
        RadialSector(2), Atom(F(1), (_FLAT, CoordFactor(0, F(-1, 100))), -20)),
    ExpPolyWeight.single(LineSector("Z"), Atom(F(1), (_FLAT,), -2)),
    ExpPolyWeight.single(
        ProductSector((LineSector("N0"), LineSector("Z"))), Atom(F(1), (_FLAT, _FLAT), -3)),
], ids=["radial", "radial-negative-side", "line-radial-power", "product-radial-power"])
@pytest.mark.parametrize("theta", [E(1), INF], ids=["theta-1", "theta-inf"])
def test_oracle_refuses_the_radial_weights_the_decider_refuses(w, theta):
    with pytest.raises(UnsupportedWeight, match="radial powers only on radial sectors"):
        truncated_oracle(w, theta)
    with pytest.raises(UnsupportedWeight):
        decide_lp_membership(w, theta)


@pytest.mark.parametrize("w, theta", [
    (_PRODUCT_GROWING_PAST_THE_WINDOW, E(2)),
    (line("N0", F(1, 1000), -30), E(1)),
    (line("Nneg", F(-1, 1000), -30), INF),
    (line("Z_nonzero", F(1, 1000), -30), INF),
], ids=["product", "line-N0", "line-Nneg-sup", "line-Z_nonzero-sup"])
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

def _row_alone(piece, n, theta_f):
    """Row n of a pair sector alone: :func:`oracle._pair_rows` on one row."""
    return next(oracle._pair_rows(piece, [n], theta_f))


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
    the sup bound at least its largest term, to a relative 1e-12 (at a = 0
    the sum bound is the sum itself, by :func:`oracle._power_sum`), and both
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


def test_tail_bound_keeps_a_growing_tail_behind_an_underflowed_factor():
    # 2^n n^-24 |m|^-40 on |m| >= 2 falls across the window and grows past
    # n = 35; at theta = 1000 every term in the window underflows to 0, and
    # so does the m-sum 2^-40000 that the tail bound multiplies by the
    # divergent n-sum: the bound is inf, not 0, and nothing is certified
    w = ExpPolyWeight.single(PairSector("N0", F(0), "outside", 1),
                             Atom.pair(n_exp2=1, n_power=-24, m_power=-40))
    assert oracle._pair_tail_bound(oracle._float_pieces(w)[0], 20, 1000.0) == math.inf
    assert truncated_oracle(w, E(1000)).verdict == "Inconclusive"
    assert decide_lp_membership(w, E(1000)) is NOT_MEMBER


@pytest.mark.parametrize("theta", ["1000", "2000"])
def test_tail_bound_folds_factors_that_saturate_apart(theta):
    # |m|^-2 on the rows |m| >= 2^(n/2) - 1 past radius 20: the row factor
    # 2^(2 theta - 1) is past the float range and the n-sum it multiplies
    # underflows, while their product is about 2^(-9.5 theta); summed in one
    # exponent the bound is finite (0.0), and the shells certify the rest
    w = ExpPolyWeight.single(PairSector("N0", F(1, 2), "outside", -1), Atom.pair(m_power=-2))
    assert oracle._pair_tail_bound(oracle._float_pieces(w)[0], 20, float(theta)) == 0.0
    assert truncated_oracle(w, E(theta)).verdict == "Convergent"
    assert decide_lp_membership(w, E(theta)) is MEMBER


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


def _brute_row(piece, n, theta_f, count):
    """The powered terms of row n, every atom evaluated on its own: m = 0
    where the row holds it, then every |m| of an inside row or the first
    ``count`` of an outside row, on both signs of m; and the first |m| left
    out (inf when none is)."""
    bound = piece.sector.m_bound(n)
    if piece.sector.side == "inside":
        zero, ms, past = bound >= 0, np.arange(1.0, bound + 1.0), math.inf
    else:
        lo = max(bound, 1)
        zero, ms, past = bound <= 0, np.arange(lo, lo + count, dtype=np.float64), lo + count
    ms = np.concatenate([[0.0]] * zero + [ms, -ms])
    with np.errstate(over="ignore"):
        return _reference_powered(_reference_row_values(piece, n, ms), theta_f), float(past)


def _reference_monomials(piece, n, theta_f):
    """(coefficient, power of m) pairs whose terms sum to t(m)^theta for an
    integer theta or a lone atom: the product of theta copies of the atom
    list, term by term."""
    atoms = [(float(a.coeff) * witnesses.pow2f(witnesses.log2_value(a.factors[0], n)),
              float(a.factors[1].pow_pos)) for a in piece.atoms]
    if len(atoms) == 1:
        return [(atoms[0][0] ** theta_f, theta_f * atoms[0][1])]
    poly = [(1.0, 0.0)]
    for _ in range(int(theta_f)):
        poly = [(b * bi, c + ci) for b, c in poly for bi, ci in atoms]
    return poly


@settings(max_examples=80, deadline=None)
@given(pair_rows(), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, None]))
# two equal atoms count twice in the expansion: (x + x)^theta = 2^theta x^theta
@example((Piece(PairSector("N0", F(0), "outside", 0), (Atom.pair(m_power=-2),) * 2), 0), 2.0)
@example((Piece(PairSector("N0", F(0), "outside", 0), (Atom.pair(m_power=-2),) * 2), 0), 3.0)
# a sup row of terms 1e305, whose sum is past the float range
@example((Piece(PairSector("N0", F(0), "outside", 0), (Atom.pair(coeff=F(10**305)),)), 0), None)
# an outside sup row that grows, and an outside sum row that diverges: inf
@example((Piece(PairSector("N0", F(1), "outside", 0), (Atom.pair(m_power=F(1, 100)),)), 3),
         None)
@example((Piece(PairSector("N0", F(1), "outside", 0), (Atom.pair(m_power=-1),)), 3), 1.0)
# mixed-sign powers on an inside row, whose sup sits at its last |m|
@example((Piece(PairSector("N0", F(1), "inside", 0),
                (Atom.pair(m_power=-2), Atom.pair(m_power=1, coeff=F(1, 3)))), 4), None)
# an inside row wider than the head, 2^18 values of |m| on each sign
@example((Piece(PairSector("N0", F(2), "inside", 0),
                (Atom.pair(m_power=-1), Atom.pair(m_power=F(-1, 2)))), 9), 1.5)
@WARNINGS_AS_ERRORS
def test_pair_row_matches_per_atom_formula_bit_for_bit(row, theta_f):
    """A row's sup is the largest of its brute-force terms, bit for bit,
    from mixed-sign powers on; an outside row that grows reads inf.  A row
    sum in closed form (one atom, or an integer theta) is the fsum of its
    brute-force terms plus, on an outside row, the rest of each monomial
    by :func:`oracle._power_sum`, to a relative 1e-12; a divergent outside
    row reads inf.  So is an inside row of several atoms at a non-integer
    theta that the head covers; past the head, such a row is at least its
    brute-force sum, and at most k^|theta - 1| times it plus, on an outside
    row, the power-mean bound on the rest."""
    piece, n = row
    value = _row_alone(piece, n, theta_f).value
    terms, past = _brute_row(piece, n, theta_f, 2 * oracle._ROW_HEAD)
    top = max(float(a.factors[1].pow_pos) for a in piece.atoms)
    if math.isfinite(past) and (top > 0 if theta_f is None else theta_f * top >= -1.0):
        assert value == math.inf
    elif theta_f is None:
        assert value == float(terms.max(initial=0.0))
    elif (len(piece.atoms) == 1 or theta_f.is_integer()
          or math.isinf(past) and piece.sector.m_bound(n) <= oracle._ROW_HEAD):
        # a closed form, or an inside row that the head sums whole
        rest = math.fsum(b * oracle._power_sum(s, past, math.inf)
                         for b, s in _reference_monomials(piece, n, theta_f) if past < math.inf)
        assert value == pytest.approx(math.fsum(terms) + 2.0 * rest, rel=1e-12)
    else:
        k = len(piece.atoms)
        rest = float(k) ** max(theta_f - 1.0, 0.0) * math.fsum(
            b * oracle._power_sum(s, past, math.inf)
            for a in piece.atoms if past < math.inf
            for b, s in _reference_monomials(Piece(piece.sector, (a,)), n, theta_f))
        # the bound is loose by at most k^|theta - 1|, on a row's terms past
        # the head that the oracle sums directly
        brute = math.fsum(terms)
        top = float(k) ** abs(theta_f - 1.0) * brute + 2.0 * rest
        assert brute * (1.0 - 1e-12) <= value <= top * (1.0 + 1e-12)


# an n-factor rate of +-80 saturates a row's base to inf from |n| = 13 on
# and to 0 from |n| = 14 on; a lam of 100 leaves the rows from |n| = 11 on
# past lam*n = 1024
_saturating_exp = st.one_of(small_exp, st.sampled_from([F(-80), F(80)]))


@st.composite
def pair_windows(draw):
    """A pair piece of one to three atoms and the rows of a window, in the
    order n_values gives them."""
    domain = draw(st.sampled_from(["N0", "Nneg"]))
    lam = draw(st.sampled_from([F(0), F(1, 2), F(1), F(2), F(100)]))
    sector = PairSector(domain, -lam if domain == "Nneg" else lam,
                        draw(st.sampled_from(["inside", "outside"])), draw(st.sampled_from([-1, 0, 1])))
    atoms = tuple(
        Atom(draw(_coeffs), (CoordFactor(draw(_saturating_exp), draw(_saturating_exp),
                                         draw(small_pow), draw(small_pow)), draw(_m_factors)))
        for _ in range(draw(st.integers(1, 3))))
    piece = oracle._float_pieces(ExpPolyWeight((Piece(sector, atoms),)))[0]
    return piece, sector.n_values(draw(st.integers(0, 20)))


def _saturating_window(domain, side, rate, theta_f):
    """Rows |n| <= 20 of 2^(rate |n|) |m|^-4 / 3 + |m|^-1 / 5 on |lam| = 2:
    the first atom's base saturates from |n| = 13 or 14 on."""
    sign = -1 if domain == "Nneg" else 1
    sector = PairSector(domain, 2 * sign, side, 0)
    atoms = (Atom.pair(coeff=F(1, 3), n_exp2=rate * sign, m_power=-4),
             Atom.pair(coeff=F(1, 5), m_power=-1))
    piece = oracle._float_pieces(ExpPolyWeight((Piece(sector, atoms),)))[0]
    return (piece, sector.n_values(20)), theta_f


@settings(max_examples=100, deadline=None)
@given(pair_windows(), st.sampled_from([1.0, 1.5, 2.0, 1000.0, None]))
# a saturated base takes the other formula from an unsaturated one in the
# same pass: 2^(80 n) / 3 is inf from n = 13 on, where its log2 + log2 |m|^-4
# is not; 2^(-80 n) is 0 from n = 14 on
@example(*_saturating_window("N0", "inside", 80, None))
@example(*_saturating_window("Nneg", "outside", 80, None))
@example(*_saturating_window("N0", "outside", -80, None))
@example(*_saturating_window("N0", "inside", 80, 1.5))
@WARNINGS_AS_ERRORS
def test_pair_rows_of_a_window_match_single_rows_bit_for_bit(window, theta_f):
    """A window's rows, their ends evaluated in one pass, read the bits and
    flags of each row read alone."""
    piece, ns = window
    rows = list(oracle._pair_rows(piece, ns, theta_f))
    alone = [_row_alone(piece, n, theta_f) for n in ns]
    assert [(row.value.hex(), row.unevaluated) for row in rows] == [
        (row.value.hex(), row.unevaluated) for row in alone]


@pytest.mark.parametrize("s", [-12, -3, -2.125, -1.5, -1.001, -1, -0.999, -0.5, 0, 1, 2.5])
def test_power_sum_matches_the_fsum_of_its_terms(s):
    """Over spans of 0, 15, 16 and 17 (the direct terms and where
    Euler-Maclaurin takes over) and 10^5, the closed form is the fsum of
    m^s to a relative 1e-12; up to inf it is inf for s >= -1, and else the
    fsum of 300 000 terms plus its own rest past them."""
    for lo in (1, 7, 1000):
        for span in (0, 15, 16, 17, 10**5):
            terms = np.arange(lo, lo + span + 1, dtype=np.float64) ** s
            got = oracle._power_sum(s, float(lo), float(lo + span))
            assert got == pytest.approx(math.fsum(terms), rel=1e-12), (lo, span)
        got = oracle._power_sum(s, float(lo), math.inf)
        if s >= -1:
            assert got == math.inf
        else:
            terms = np.arange(lo, lo + 300_000, dtype=np.float64) ** s
            rest = oracle._power_sum(s, lo + 300_000.0, math.inf)
            assert got == pytest.approx(math.fsum(terms) + rest, rel=1e-12), lo


@pytest.mark.parametrize("s", [-300, -60, 12, 60, 200])
def test_power_sum_of_a_steep_power_matches_the_fsum_of_its_terms(s):
    """A steep power's largest terms are summed directly, at the top of the
    range when it grows, so that the Euler-Maclaurin corrections, which
    grow like (|s| / m)^j, only meet terms too small to matter: the sum is
    the fsum of m^s to a relative 1e-12, or inf once a term is."""
    for lo in (1, 17, 100):
        for span in (16, 17, 32, 33, 40, 1000):
            with np.errstate(over="ignore", under="ignore"):
                terms = np.arange(lo, lo + span + 1, dtype=np.float64) ** s
            got = oracle._power_sum(s, float(lo), float(lo + span))
            if np.isinf(terms).any():
                assert got == math.inf, (lo, span)
            else:
                assert got == pytest.approx(math.fsum(terms), rel=1e-12), (lo, span)


# a non-integer upper end: the tail bound's n-sum of an outside sector with
# shift -1 stops at n1 = 1/lam, 30.5 at lam = 2/61
@pytest.mark.parametrize("s, lo, hi", [(2.0, 1, 40.5), (0.0, 4, 30.5), (-1.0, 1, 30.5),
                                       (-2.0, 4, 30.5), (-300.0, 1, 500.5), (-60.0, 17, 500.5)])
def test_power_sum_stops_at_the_last_integer_of_its_range(s, lo, hi):
    """Over [lo, hi] with a non-integer hi the sum runs over the integers
    lo..floor(hi), the fsum of their m^s to a relative 1e-12."""
    with np.errstate(under="ignore"):
        terms = np.arange(lo, math.floor(hi) + 1, dtype=np.float64) ** s
    assert oracle._power_sum(s, float(lo), hi) == pytest.approx(math.fsum(terms), rel=1e-12)


def _float_pair_piece(sector, *atoms):
    """A pair piece as the oracle reads it: every number a float, once."""
    return oracle._float_pieces(ExpPolyWeight((Piece(sector, atoms),)))[0]


@st.composite
def pair_tail_pieces(draw):
    """An accepted pair piece of one or two atoms: both n-domains and sides,
    shift -1, 0 or 1, lam*n >= 0, and n-rates that include 0."""
    domain = draw(st.sampled_from(["N0", "Nneg"]))
    lam = draw(st.sampled_from([F(0), F(2, 61), F(1, 2), F(1), F(2)]))
    sector = PairSector(domain, -lam if domain == "Nneg" else lam,
                        draw(st.sampled_from(["inside", "outside"])),
                        draw(st.sampled_from([-1, 0, 1])))
    rate = st.one_of(st.just(F(0)), small_exp)
    return _float_pair_piece(sector, *(
        Atom(draw(st.sampled_from([F(1), F(1, 3), F(5, 2)])),
             (CoordFactor(draw(rate), draw(rate), draw(small_pow), draw(small_pow)),
              draw(_m_factors)))
        for _ in range(draw(st.integers(1, 2)))))


@settings(max_examples=300, deadline=None)
@given(pair_tail_pieces(), st.sampled_from([3, 5, 7, 10, 20]),
       st.sampled_from([1.0, 1.5, 2.0, 3.0, None]))
# the n-sum up to n1 = 1/lam = 30.5, past the rows read here
@example(_float_pair_piece(PairSector("N0", F(2, 61), "outside", -1), Atom.pair(m_power=-2)),
         3, 1.0)
@example(_float_pair_piece(PairSector("N0", F(2, 61), "outside", -1),
                           Atom.pair(n_power=-2, m_power=-2),
                           Atom.pair(coeff=F(1, 3), n_exp2=-1, m_power=-3)), 5, 1.5)
# an inside row of width 2^n at theta * c = -1: its m-sum grows like n
@example(_float_pair_piece(PairSector("N0", F(1), "inside", 0), Atom.pair(n_exp2=-1, m_power=-1)),
         3, 1.0)
def test_tail_bound_dominates_the_next_rows(piece, radius, theta_f):
    """A finite tail bound past ``radius`` is at least the rows radius + 1 to
    radius + 8 that :func:`_row_alone` reads, summed (their max at theta = inf),
    to a relative 1e-9."""
    bound = oracle._pair_tail_bound(piece, radius, theta_f)
    sign = -1 if piece.sector.n_domain == "Nneg" else 1
    rows = [_row_alone(piece, sign * n, theta_f).value
            for n in range(radius + 1, radius + 9)]
    combined = max(rows) if theta_f is None else math.fsum(rows)
    if math.isfinite(bound):
        assert combined <= bound * (1.0 + 1e-9)


def _outside_row(*atoms):
    """Row 0 (every base is its coefficient) of an outside sector, from |m| = 1."""
    return Piece(PairSector("N0", F(0), "outside", 0), atoms), 0, 1


@settings(max_examples=100, deadline=None)
@given(pair_rows().filter(lambda row: row[0].sector.side == "outside"),
       st.sampled_from([0.5, 1.0, 2.0, 3.0, None]))
@example(_outside_row(Atom.pair(m_power=-1))[:2], 2.0)
@example(_outside_row(*[Atom.pair()] * 2)[:2], None)
def test_outside_row_value_dominates_its_first_terms(row, theta_f):
    """An outside row's value, read by :func:`_row_alone`, is at least the
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
    value = _row_alone(piece, n, theta_f).value
    assert value >= brute * (1.0 - 1e-12)


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


def _grid_shells(piece, radii, theta_f):
    """Each shell (r', r] of the radii summed (theta = inf: maxed) over the
    grid values of the piece, the reference the structure routes meet."""
    values, pt_radii = oracle._grid_values(piece, radii[-1])
    shells = []
    for r_prev, r in zip((-1, *radii), radii):
        vals = values[(pt_radii > r_prev) & (pt_radii <= r)]
        if theta_f is None:
            shells.append(float(vals.max()) if vals.size else 0.0)
        else:
            with np.errstate(under="ignore"):
                shells.append(math.fsum((vals[vals > 0] ** theta_f).tolist()))
    return shells


def _assert_shells_match(got, want, theta_f):
    if theta_f is None:
        assert [x.hex() for x in got] == [x.hex() for x in want]
    else:
        assert all(math.isclose(x, y, rel_tol=1e-12) for x, y in zip(got, want)), (got, want)
        assert len(got) == len(want)


_shell_radii = st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(
    lambda rs: tuple(sorted(rs)))
_shell_thetas = st.sampled_from([None, 0.5, 1.0, 1.5, 2.0, 3.0])
# |k|^2 / 5 + 5 |k|^-3: the first shell's max lies at n = 1, the later ones at d r^2
_MIXED_RADIAL = (Atom.radial(2, 2, F(1, 5)), Atom.radial(2, -3, 5))


@st.composite
def trivial_radial_pieces(draw, dims=st.integers(1, 3)):
    d = draw(dims)
    return Piece(RadialSector(d), tuple(
        Atom.radial(d, draw(small_pow), draw(_coeffs)) for _ in range(draw(st.integers(1, 3)))))


@st.composite
def single_atom_products(draw, dims=st.integers(2, 3)):
    lines = tuple(LineSector(draw(st.sampled_from(["Z", "N0", "Nneg", "Z_nonzero"])))
                  for _ in range(draw(dims)))
    factors = tuple(CoordFactor(draw(small_exp), draw(small_exp), draw(small_pow), draw(small_pow))
                    for _ in lines)
    return Piece(ProductSector(lines), (Atom(draw(_coeffs), factors),))


@settings(max_examples=120, deadline=None)
@given(trivial_radial_pieces(), _shell_radii, _shell_thetas)
@example(Piece(RadialSector(2), _MIXED_RADIAL), (1, 2, 4, 8), None)
@example(Piece(RadialSector(2), _MIXED_RADIAL), (1, 2, 4, 8), 1.5)
@example(Piece(RadialSector(3), (Atom.radial(3, 0, 3),)), (1, 5), None)
@WARNINGS_AS_ERRORS
def test_radial_shells_match_the_grid(piece, radii, theta_f):
    # theta = inf reads two squared norms per shell, bit for bit the grid's
    # max; a finite theta counts the shell's points at each norm exactly
    piece = oracle._float_pieces(ExpPolyWeight((piece,)))[0]
    _assert_shells_match(oracle._radial_shells(piece, radii, theta_f),
                         _grid_shells(piece, radii, theta_f), theta_f)


@pytest.mark.parametrize("d, powers, coeff, theta", [
    (2, ("-3/2", -1), "1/3", "2"),        # theta p = -d: a log divergence
    (2, ("-3/2", "-1/2"), "1/10", "4"),
    (3, ("-3/2", "-1/2"), "1/10", "4"),   # theta p = -2 > -d: a power divergence
    (3, (-2, -1), "1/3", "3"),
    (4, (-3, -1), "1/10", "4"),
    (5, (-2, -1), "1/10", "4"),
])
def test_radial_tail_that_diverges_is_never_convergent(d, powers, coeff, theta):
    """A steep leading power makes the shells of the window fall, while the
    flatter one sums to inf past it."""
    steep, flat = map(Fraction, powers)
    w = ExpPolyWeight.single(RadialSector(d), Atom.radial(d, steep),
                             Atom.radial(d, flat, coeff=Fraction(coeff)))
    assert decide_lp_membership(w, ExtExponent(theta)) is NOT_MEMBER
    assert truncated_oracle(w, ExtExponent(theta)).verdict == "Inconclusive"


def test_radial_sup_shells_read_both_ends():
    piece = oracle._float_pieces(ExpPolyWeight.single(RadialSector(2), *_MIXED_RADIAL))[0]
    shells = oracle._radial_shells(piece, (1, 2, 4, 8), None)
    assert shells[0] == 1 / 5 + 5  # n = 1, where n = 2 reads 2/5 + 5 / 2^(3/2)
    assert shells[1:] == pytest.approx([n / 5 + 5 * n**-1.5 for n in (8, 32, 128)], rel=1e-15)
    assert shells == _grid_shells(piece, (1, 2, 4, 8), None)


@settings(max_examples=40, deadline=None)
@given(trivial_radial_pieces(st.integers(2, 5)).map(lambda p: ExpPolyWeight((p,))), thetas)
# |k|^-2 over Z^2 diverges like log R, under a |k|^-3 that leads the window
@example(ExpPolyWeight.single(RadialSector(2), Atom.radial(2, Fraction(-3, 2)),
                              Atom.radial(2, -1, coeff=Fraction(1, 3))), ExtExponent(2))
def test_oracle_never_contradicts_decider_on_radial_weights(w, theta):
    res = truncated_oracle(w, theta)
    memb = decide_lp_membership(w, theta)
    if res.verdict == "Convergent":
        assert memb is MEMBER
    elif res.verdict == "Divergent":
        assert memb is NOT_MEMBER


@settings(max_examples=120, deadline=None)
@given(single_atom_products(), _shell_radii, _shell_thetas)
@WARNINGS_AS_ERRORS
def test_product_shells_match_the_grid(piece, radii, theta_f):
    # per axis: theta = inf adds the axis maxima as the grid adds a point's
    # exponents, a finite theta multiplies the axis sums
    piece = oracle._float_pieces(ExpPolyWeight((piece,)))[0]
    _assert_shells_match(oracle._product_shells(piece, radii, theta_f),
                         _grid_shells(piece, radii, theta_f), theta_f)


@st.composite
def corner_pieces(draw):
    """Lines on every domain and products of one to three axes, of one to
    four atoms whose powers are 0 or negative: what the corner route takes."""
    domains = st.sampled_from(["Z", "N0", "Nneg", "Z_nonzero"])
    if draw(st.booleans()):
        sector = LineSector(draw(domains))
    else:
        sector = ProductSector(tuple(LineSector(draw(domains))
                                     for _ in range(draw(st.integers(1, 3)))))
    no_pos = st.fractions(min_value=F(-4), max_value=F(0), max_denominator=4)
    return Piece(sector, tuple(
        Atom(draw(_coeffs), tuple(CoordFactor(draw(small_exp), draw(small_exp),
                                              draw(no_pos), draw(no_pos))
                                  for _ in range(sector.dims)))
        for _ in range(draw(st.integers(1, 4)))))


@settings(max_examples=150, deadline=None)
@given(corner_pieces(), _shell_radii)
# 2^(|n|/4) / |n| on Z reads 1 at 0, 2^(1/4) at +-1 and 1 at +-16: the
# first shell's max lies at +-1, so 0 is a sign class of its own
@example(Piece(LineSector("Z"), (Atom(1, (CoordFactor(F(1, 4), F(-1, 4), -1, -1),)),)), (16, 32))
@WARNINGS_AS_ERRORS
def test_corner_shells_match_the_grid(piece, radii):
    # at theta = inf the max of each shell lies on a corner of the boxes
    # that keep one sign class per axis
    piece = oracle._float_pieces(ExpPolyWeight((piece,)))[0]
    _assert_shells_match(oracle._corner_shells(piece, radii),
                         _grid_shells(piece, radii, None), None)


@pytest.mark.parametrize("piece", [
    # |n| 2^(-n/8) peaks near n = 11.5, between the corners 1 and 16
    Piece(LineSector("N0"), (Atom(1, (CoordFactor(F(-1, 8), 0, 1, 0),)),)),
    Piece(ProductSector((LineSector("Z"), LineSector("N0"))),
          (Atom(1, (CoordFactor(-1, 1), CoordFactor(F(-1, 8), 0, F(1, 2), 0))),
           Atom(1, (CoordFactor(-2, 2), CoordFactor(-1, 0))))),
], ids=["line", "product"])
@pytest.mark.usefixtures("fresh_oracle_memo")
def test_positive_power_at_theta_inf_keeps_the_grid(monkeypatch, piece):
    def no_corners(*args):
        raise AssertionError("corners read")

    grids = []
    real = oracle._grid_values
    monkeypatch.setattr(oracle, "_grid_values", lambda *a: grids.append(a) or real(*a))
    monkeypatch.setattr(oracle, "_corner_shells", no_corners)
    truncated_oracle(ExpPolyWeight((piece,)), INF)
    assert grids


# the query's theta = inf product of three atoms once held 513^2 grid points
_DIAGONAL_Q2 = ["decide", "--family", "diagonal",
                "--params", '{"d":2,"alpha":["-1/2","0"],"beta":["-3/2","-2"]}',
                "-p", "1", "-q", "2", "-r", "2", "-k", "1", "--oracle-check"]
_RADIAL_4 = Piece(RadialSector(4), (Atom.radial(4, -5),))
_PRODUCT_4 = Piece(ProductSector((LineSector("Z"),) * 4), (Atom(1, (CoordFactor(-1, 1),) * 4),))


@pytest.mark.parametrize("case, route, theta", [
    (_RADIAL_4, "_radial_shells", E(2)),
    (_PRODUCT_4, "_product_shells", E(2)),
    (_RADIAL_4, "_radial_shells", INF),
    (_PRODUCT_4, "_product_shells", INF),
    (Piece(LineSector("Z"), (Atom(1, (CoordFactor(-1, 1, -2, -2),)),)), "_corner_shells", INF),
    (_DIAGONAL_Q2, "_corner_shells", INF),
], ids=["theta-2-radial", "theta-2-product", "theta-inf-radial", "theta-inf-product",
        "theta-inf-line", "diagonal-q-2"])
@pytest.mark.usefixtures("fresh_oracle_memo")
def test_structure_routes_build_no_grid(monkeypatch, capsys, case, route, theta):
    # at d = 4 the grid would hold 65^4 points, past the default window cap;
    # a line's grid holds 32 769
    def no_grid(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr(oracle, "_grid_values", no_grid)
    calls = []
    real = getattr(oracle, route)
    monkeypatch.setattr(oracle, route, lambda *a: calls.append(a) or real(*a))
    if isinstance(case, list):  # a decide query whose oracle theta is inf
        from decomp_embed.cli import main

        assert main(case) == 0 and calls
        return
    res = truncated_oracle(ExpPolyWeight((case,)), theta)
    assert calls and res.verdict == "Convergent"
    assert decide_lp_membership(ExpPolyWeight((case,)), theta) is MEMBER


# ---------------------------------------------------------------------------
# the oracle memo
# ---------------------------------------------------------------------------

_PAIR_ONLY = ExpPolyWeight.single(PairSector("N0", F(1), "inside", 0), Atom.pair(n_exp2=-3))
# the first reads the cap once, on its 32 769-point grid; the radial piece
# reads it 16 times, on counts from 5 to 63 162; the pair weight never
_MEMO_CASES = [(line("Z", power=-2), E(1)), (ExpPolyWeight((_RADIAL_4,)), E(2)),
               (ExpPolyWeight((_PRODUCT_4,)), E(2)), (_PAIR_ONLY, E(1))]


def _oracle_outcome(weight, theta):
    """truncated_oracle's result, or its error's type and text."""
    try:
        return truncated_oracle(weight, theta)
    except DecompEmbedError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cap", [None, "abc", "0", "100", "1000", "5000", "32768", "32769"])
@pytest.mark.parametrize("weight, theta", _MEMO_CASES, ids=["line", "radial", "product", "pair"])
@pytest.mark.usefixtures("fresh_oracle_memo")
def test_a_kept_classification_meets_the_cap_as_a_fresh_run(monkeypatch, weight, theta, cap):
    """A result kept under the default cap answers, or raises the first
    error, as a fresh run under the current cap does."""
    monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW", raising=False)
    truncated_oracle(weight, theta)
    if cap is not None:
        monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", cap)
    kept = _oracle_outcome(weight, theta)
    oracle._classified.cache_clear()
    assert kept == _oracle_outcome(weight, theta)


@pytest.mark.usefixtures("fresh_oracle_memo")
def test_the_memo_replays_the_window_cap(monkeypatch):
    monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW", raising=False)
    grid = line("Z", power=-2)
    assert truncated_oracle(grid, E(1)).verdict == "Convergent"
    truncated_oracle(_PAIR_ONLY, E(1))
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "1000")
    with pytest.raises(WindowCapExceeded,
                       match=r"^window of 32769 indices exceeds the cap of 1000 \(override"):
        truncated_oracle(grid, E(1))
    # a malformed cap raises where a fresh run reads it, kept or not: a pair
    # weight reads none
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "abc")
    for _ in range(2):
        assert truncated_oracle(_PAIR_ONLY, E(1)).verdict == "Convergent"
        with pytest.raises(InvalidParams, match="DECOMP_EMBED_MAX_WINDOW must be an integer"):
            truncated_oracle(grid, E(1))
        oracle._classified.cache_clear()


@pytest.mark.usefixtures("fresh_oracle_memo")
def test_refusals_are_not_kept(monkeypatch):
    refused = ExpPolyWeight.single(LineSector("Z"), Atom(F(1), (CoordFactor(),), F(-2)))
    for _ in range(3):
        with pytest.raises(UnsupportedWeight, match="radial powers only on radial sectors"):
            truncated_oracle(refused, E(1))
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "1000")
    with pytest.raises(WindowCapExceeded):
        truncated_oracle(line("Z", power=-2), E(1))
    assert oracle._classified.cache_info().currsize == 0
    monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW")
    assert truncated_oracle(line("Z", power=-2), E(1)).verdict == "Convergent"


def test_a_kept_classification_is_frozen():
    tail = truncated_oracle(line("N0", exp2=-1), E(1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        tail.verdict = "Divergent"
    assert truncated_oracle(line("N0", exp2=-1), E(1)).verdict == "Convergent"


@pytest.mark.usefixtures("fresh_oracle_memo")
def test_the_memo_keeps_the_last_oracle_memo_size_pairs(monkeypatch):
    run = []
    classify = oracle._classify
    monkeypatch.setattr(oracle, "_classify", lambda *a: run.append(a) or classify(*a))
    pairs = [(line("N0", exp2=-1), E(i)) for i in range(1, oracle.ORACLE_MEMO_SIZE + 2)]
    for weight, theta in pairs:
        truncated_oracle(weight, theta)
    truncated_oracle(*pairs[-1])
    assert run == pairs  # the last pair was kept
    truncated_oracle(*pairs[0])
    assert run == [*pairs, pairs[0]]  # the first was not


# ---------------------------------------------------------------------------
# the sequence embedding and its two numeric directions
# ---------------------------------------------------------------------------

def test_unweighted_nesting_of_lp_spaces():
    u = line("N0")
    for r, s, expect in [
        (E(1), E(2), True),
        (E(2), E(1), False),
        (E(1), INF, True),
        (INF, E(1), False),
        (E(2), E(2), True),
    ]:
        assert (decide_lp_membership(u.quotient(u), compound(s, r)) is MEMBER) == expect


def test_weighted_embedding_with_gap():
    # v = 2^(n/2), u = 1: u/v = 2^(-n/2) lies in every l^theta on N0
    v = line("N0", exp2=F(1, 2))
    u = line("N0")
    assert decide_lp_membership(u.quotient(v), compound(E(1), E(2))) is MEMBER
    assert decide_lp_membership(v.quotient(u), compound(E(2), E(1))) is NOT_MEMBER


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
        assert decide_lp_membership(u.quotient(v), compound(s, r)) is NOT_MEMBER
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


def test_quotient_of_atoms_needs_one_lattice():
    with pytest.raises(UnsupportedWeight, match="^quotient of atoms over different lattices$"):
        Atom.line().quotient(Atom.radial(2, -1))


def test_a_piece_needs_atoms_of_its_sector_dimension():
    with pytest.raises(ValueError, match="^piece needs at least one atom$"):
        Piece(LineSector("Z"), ())
    with pytest.raises(ValueError, match="^atom arity does not match sector dimension$"):
        Piece(LineSector("Z"), (Atom.line(), Atom.radial(2, -1)))


class _OtherSector(tuple):
    """One dimension, but no sector the rules cover."""

    dims = 1


def test_an_unknown_sector_is_refused():
    w = ExpPolyWeight.single(_OtherSector(), Atom.line(exp2=-1))
    for _ in range(2):  # a refusal keeps nothing, so it repeats
        with pytest.raises(UnsupportedWeight, match="^unknown sector type _OtherSector$"):
            decide_lp_membership(w, E(1))


def test_affine_repr_names_its_coefficients():
    assert repr(Affine(F(1, 2), -1, 0)) == "Affine(1/2, -1, 0)"
    assert repr(Affine() + 3) == "Affine(3, 0, 0)"


def test_evaluate_outside_every_piece_raises():
    w = line("N0")
    with pytest.raises(ValueError):
        evaluate(w, (-3,))
