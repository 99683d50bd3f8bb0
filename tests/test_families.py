from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomp_embed.covering import Covering
from decomp_embed.embedding import decide_sobolev
from decomp_embed.errors import InvalidParams, SchemaError
from decomp_embed.exponents import INF, ExtExponent, lower_conjugate
from decomp_embed.families import FAMILY_NAMES, covering_from_json, get_family
from decomp_embed.seqspace import LineSector, refuse_unsupported

from golden_refs import golden_verdict
from reference_weights import REFERENCE
from witnesses import contains, reciprocal_gap, to_point

EXPS = [ExtExponent(Fraction(1, 2)), ExtExponent(1), ExtExponent(2),
        ExtExponent(3), INF]


def sweep(family, param_maker, ks=(0, 1)):
    """Compare the engine with the closed-form reference on a grid.

    ``param_maker(p, q, r, k)`` yields parameter dicts, typically pinned to
    the decision threshold of the given exponent triple.
    """
    bad = []
    for p, q, r, k in product(EXPS, EXPS, EXPS, ks):
        for params in param_maker(p, q, r, k):
            got = decide_sobolev(family, params, p=p, q=q, r=r, k=k).outcome.value
            want = golden_verdict(family, params, p=p, q=q, r=r, k=k)
            if got != want:
                bad.append((params, str(p), str(q), str(r), k, got, want))
    assert not bad, f"{len(bad)} disagreements, first: {bad[0]}"


def _inv(e):
    return e.reciprocal()


def _shift(base):
    return [str(base + off) for off in (Fraction(-1, 3), Fraction(0), Fraction(1, 3))]


def test_hom_besov_matches_reference():
    def make(p, q, r, k):
        a = _inv(p) - _inv(q)
        return [{"d": 1, "s": s} for s in _shift(a)]

    sweep("hom_besov", make)


def test_inhom_besov_matches_reference():
    def make(p, q, r, k):
        thr = k + _inv(p) - _inv(q)
        return [{"d": 1, "s": s} for s in _shift(thr)]

    sweep("inhom_besov", make)


def test_alpha_modulation_matches_reference():
    def make(p, q, r, k):
        out = []
        for alpha in (Fraction(0), Fraction(1, 2)):
            tail = max(Fraction(0), _inv(lower_conjugate(q)) - _inv(r))
            rhs = k + alpha * (_inv(p) - _inv(q)) + (1 - alpha) * tail
            out.extend(
                {"d": 1, "alpha": str(alpha), "s": s} for s in _shift(rhs)
            )
        return out

    sweep("alpha_modulation", make)


def test_shearlet_smoothness_matches_reference():
    def make(p, q, r, k):
        tail = max(Fraction(0), _inv(lower_conjugate(q)) - _inv(r))
        thr = k + Fraction(3, 2) * (_inv(p) - _inv(q)) + Fraction(1, 2) * tail
        return [{"s": s} for s in _shift(thr)]

    sweep("shearlet_smoothness", make)


def test_shearlet_coorbit_matches_reference():
    def make(p, q, r, k):
        out = []
        gamma = Fraction(1, 2) - _inv(r) + _inv(p) - _inv(q)
        for c in (Fraction(1, 2), Fraction(2)):
            for beta in (Fraction(k), Fraction(k) + 2):
                # park A on and around the window edges for this beta
                edges = {c * beta, c * (beta - k), beta, beta - k}
                targets = set()
                for e in edges:
                    targets.update({e - 1, e, e + Fraction(1, 8)})
                for a_val in targets:
                    alpha = a_val - (1 + c) * gamma
                    out.append(
                        {"c": str(c), "alpha": str(alpha), "beta": str(beta)}
                    )
        return out

    sweep("shearlet_coorbit", make, ks=(0, 1))


def test_diagonal_matches_reference():
    offs = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))

    def make(p, q, r, k):
        gamma = _inv(q) - _inv(p) + _inv(r) - Fraction(1, 2)
        return [
            {"d": 1, "alpha": str(gamma + da), "beta": str(gamma - k + db)}
            for da, db in product(offs, offs)
        ]

    sweep("diagonal", make)


def test_diagonal_two_dimensional_vectors():
    # one coordinate at equality, the other strictly inside
    params = {"d": 2, "alpha": ["-1/2", 0], "beta": ["-3/2", "-2"]}
    kw = dict(p=ExtExponent(1), q=ExtExponent(2), r=ExtExponent(2), k=1)
    got = decide_sobolev("diagonal", params, **kw).outcome.value
    assert got == golden_verdict("diagonal", params, **kw) == "Embeds"


# ---------------------------------------------------------------------------
# parameter handling
# ---------------------------------------------------------------------------

def test_registry_lists_all_families():
    assert set(FAMILY_NAMES) == {
        "hom_besov", "inhom_besov", "alpha_modulation",
        "shearlet_smoothness", "shearlet_coorbit", "diagonal",
    }
    with pytest.raises(InvalidParams):
        get_family("besov")


@pytest.mark.parametrize("family,doc", [
    ("hom_besov", {"d": 0, "s": 0}),
    ("hom_besov", {"d": 1, "s": 0, "extra": 1}),
    ("hom_besov", {"d": 1, "s": "x"}),
    ("alpha_modulation", {"d": 1, "alpha": 1, "s": 0}),    # alpha must be < 1
    ("alpha_modulation", {"d": 1, "alpha": "-1/2", "s": 0}),
    ("alpha_modulation", {"d": 1, "alpha": 0, "s": 0, "base_radius": 0}),
    ("shearlet_coorbit", {"c": "x", "alpha": 0, "beta": 0}),
    ("diagonal", {"d": 2, "alpha": ["1", "2", "3"], "beta": 0}),
    ("diagonal", {"d": 1, "alpha": "x", "beta": 0}),
])
def test_invalid_params_rejected(family, doc):
    fam = get_family(family)
    with pytest.raises(InvalidParams):
        fam.parse_params(doc)


def test_omitted_params_take_defaults():
    assert get_family("hom_besov").parse_params({"s": 0}).d == 1
    assert get_family("shearlet_coorbit").parse_params({}).c == Fraction(1)


def test_diagonal_scalar_broadcast():
    fam = get_family("diagonal")
    a = fam.parse_params({"d": 2, "alpha": "1/2", "beta": [0, [-1, 2]]})
    assert a.alpha == (Fraction(1, 2), Fraction(1, 2))
    assert a.beta == (Fraction(0), Fraction(-1, 2))


# ---------------------------------------------------------------------------
# covering documents
# ---------------------------------------------------------------------------

def test_covering_from_json_family_route():
    cov = covering_from_json({"family": "hom_besov", "params": {"d": 2, "s": 1}})
    assert isinstance(cov, Covering)
    assert cov.dimension == 2


def test_covering_from_json_custom_route():
    doc = {
        "custom": {
            "dimension": 1,
            "indices": [[0], [1]],
            "T": [[[1]], [[2]]],
            "b": [[0], [3]],
            "base_set": {"ball": {"center": [0], "radius": 1}},
        }
    }
    cov = covering_from_json(doc)
    assert cov.label == "custom"
    assert cov.dimension == 1


@pytest.mark.parametrize("doc", [
    [], "hom_besov", {"family": "nope", "params": {}}, {"params": {}},
])
def test_covering_from_json_rejects_malformed(doc):
    with pytest.raises(SchemaError):
        covering_from_json(doc)


# ---------------------------------------------------------------------------
# structural details used by the decision engine
# ---------------------------------------------------------------------------

def test_to_point_projections():
    assert to_point("shearlet_smoothness", (0,)) is None
    assert to_point("shearlet_smoothness", (3, -2, 1, 0)) == (3, -2)
    assert to_point("shearlet_coorbit", (4, 7, -1)) == (4, 7)
    assert to_point("hom_besov", (5,)) == (5,)


@pytest.mark.parametrize("c", ["-1", "1/2", "1", "2"])
def test_coorbit_sectors_partition_the_pair_lattice(c):
    fam = get_family("shearlet_coorbit")
    params = fam.parse_params({"c": c, "alpha": 0, "beta": 1})
    weight = fam.quotient_form(params, 1).at(Fraction(1, 2), Fraction(0))
    for n in range(-6, 7):
        for m in range(-40, 41):
            hits = sum(contains(p.sector, (n, m)) for p in weight.pieces)
            assert hits == 1, (n, m)


def test_coorbit_scheme_and_weight_agree_on_dimension():
    fam = get_family("shearlet_coorbit")
    params = fam.parse_params({"c": "1/2", "alpha": 0, "beta": 1})
    cov = fam.covering(params)
    assert {len(i) for i in cov.window(1)} == {3}  # (n, m, eps)
    assert fam.quotient_form(params, 1).at(Fraction(1, 2), Fraction(0)).pieces[0].sector.dims == 2


def test_khintchine_restriction():
    # t = p and r = 2: both gaps are zero
    zero = Fraction(0)

    hom = get_family("hom_besov")
    params = hom.parse_params({"d": 1, "s": "1/2"})
    quot = hom.khintchine_quotient(hom.quotient_form(params, 0).at(zero, zero))
    assert quot is not None
    assert len(quot.pieces) == 1
    assert quot.pieces[0].sector == LineSector("N0")
    assert contains(quot, (3,)) and not contains(quot, (-3,))

    inhom = get_family("inhom_besov")
    ip = inhom.parse_params({"d": 1, "s": "1/2"})
    full = inhom.khintchine_quotient(inhom.quotient_form(ip, 0).at(zero, zero))
    assert full is not None and contains(full, (0,))

    coorbit = get_family("shearlet_coorbit")
    cp = coorbit.parse_params({"c": "1/2", "alpha": 0, "beta": 1})
    assert coorbit.khintchine_quotient(coorbit.quotient_form(cp, 0).at(zero, zero)) is None

    diag = get_family("diagonal")
    dp = diag.parse_params({"d": 1, "alpha": 0, "beta": 0})
    assert diag.khintchine_quotient(diag.quotient_form(dp, 0).at(zero, zero)) is None


# ---------------------------------------------------------------------------
# the one-step quotient against the covering and space weights built apart
# ---------------------------------------------------------------------------

# the exponent axes of the decide_batch benchmark workload
BATCH_P = ("1/2", "1", "3/2", "2", "3")
BATCH_Q = ("1", "3/2", "2", "5/2", "3", "4", "inf")
BATCH_R = ("1/2", "1", "3/2", "2", "5/2", "3", "4", "inf")

_RAT = st.fractions(min_value=-4, max_value=4, max_denominator=12).map(str)
_DIM = st.integers(min_value=1, max_value=3)
PARAM_DOCS = {
    "hom_besov": st.fixed_dictionaries({"d": _DIM, "s": _RAT}),
    "inhom_besov": st.fixed_dictionaries({"d": _DIM, "s": _RAT}),
    "alpha_modulation": st.fixed_dictionaries({
        "d": _DIM,
        "alpha": st.fractions(min_value=0, max_value=Fraction(11, 12),
                              max_denominator=12).map(str),
        "s": _RAT,
    }),
    "shearlet_smoothness": st.fixed_dictionaries({"s": _RAT}),
    "shearlet_coorbit": st.fixed_dictionaries({"c": _RAT, "alpha": _RAT, "beta": _RAT}),
    "diagonal": _DIM.flatmap(lambda d: st.fixed_dictionaries({
        "d": st.just(d),
        "alpha": st.lists(_RAT, min_size=d, max_size=d),
        "beta": st.lists(_RAT, min_size=d, max_size=d),
    })),
}


@pytest.mark.parametrize("family", FAMILY_NAMES)
@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    k=st.sampled_from((0, 1, 2)),
    p=st.sampled_from(BATCH_P),
    t=st.sampled_from(BATCH_P + BATCH_Q),
    r=st.sampled_from(BATCH_R),
)
def test_quotient_weight_equals_the_reference_quotient(family, data, k, p, t, r):
    """quotient_form(params, k).at(1/p - 1/t, 1/2 - 1/r) is w^(t)/u(r) with
    w^(t) and u(r) built apart by the reference builders and then divided."""
    fam, ref = get_family(family), REFERENCE[family]
    params = fam.parse_params(data.draw(PARAM_DOCS[family]))
    p, t, r = ExtExponent(p), ExtExponent(t), ExtExponent(r)
    want = ref.weight_symbolic(params, k, p, t).quotient(ref.space_weight(params, r))
    got = fam.quotient_form(params, k).at(reciprocal_gap(p, t), reciprocal_gap(ExtExponent(2), r))
    assert got == want


@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("k", (0, 1, 2))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_family_forms_pass_the_refusal(family, k, data):
    """The refusal reads a form's exponents as affine in the gaps: one counts
    when it is not identically 0.  Every family's quotient form and its
    Khintchine form pass it, so no cell of theirs is refused."""
    fam = get_family(family)
    form = fam.quotient_form(fam.parse_params(data.draw(PARAM_DOCS[family])), k)
    kform = fam.khintchine_quotient(form)
    assert refuse_unsupported(form) is form
    assert kform is None or refuse_unsupported(kform) is kform
