from fractions import Fraction
from itertools import product

import pytest

from decomp_embed.covering import CoorbitScheme, Covering
from decomp_embed.embedding import decide_sobolev
from decomp_embed.errors import InvalidParams, SchemaError
from decomp_embed.exponents import INF, ExtExponent, lower_conjugate
from decomp_embed.families import FAMILY_NAMES, covering_from_json, get_family
from decomp_embed.seqspace import LineSector

from golden_refs import golden_verdict

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
    shear = get_family("shearlet_smoothness")
    assert shear.to_point((0,)) is None
    assert shear.to_point((3, -2, 1, 0)) == (3, -2)

    coorbit = get_family("shearlet_coorbit")
    assert coorbit.to_point((4, 7, -1)) == (4, 7)

    hom = get_family("hom_besov")
    assert hom.to_point((5,)) == (5,)


@pytest.mark.parametrize("c", ["-1", "1/2", "1", "2"])
def test_coorbit_sectors_partition_the_pair_lattice(c):
    fam = get_family("shearlet_coorbit")
    params = fam.parse_params({"c": c, "alpha": 0, "beta": 1})
    weight = fam.space_weight(params, ExtExponent(2))
    for n in range(-6, 7):
        for m in range(-40, 41):
            hits = sum(p.sector.contains((n, m)) for p in weight.pieces)
            assert hits == 1, (n, m)


def test_coorbit_scheme_and_weight_agree_on_dimension():
    fam = get_family("shearlet_coorbit")
    params = fam.parse_params({"c": "1/2", "alpha": 0, "beta": 1})
    cov = fam.covering(params)
    assert isinstance(cov.scheme, CoorbitScheme)
    assert fam.space_weight(params, ExtExponent(2)).dims == 2


def test_khintchine_restriction():
    one, two = ExtExponent(1), ExtExponent(2)

    hom = get_family("hom_besov")
    params = hom.parse_params({"d": 1, "s": "1/2"})
    quot = hom.khintchine_quotient(
        hom.quotient_weight(hom.weight_symbolic(params, 0, one, one),
                            hom.space_weight(params, two))
    )
    assert quot is not None
    assert len(quot.pieces) == 1
    assert quot.pieces[0].sector == LineSector("N0")
    assert quot.contains((3,)) and not quot.contains((-3,))

    inhom = get_family("inhom_besov")
    ip = inhom.parse_params({"d": 1, "s": "1/2"})
    full = inhom.khintchine_quotient(
        inhom.quotient_weight(inhom.weight_symbolic(ip, 0, one, one),
                              inhom.space_weight(ip, two))
    )
    assert full is not None and full.contains((0,))

    coorbit = get_family("shearlet_coorbit")
    cp = coorbit.parse_params({"c": "1/2", "alpha": 0, "beta": 1})
    assert coorbit.khintchine_quotient(
        coorbit.quotient_weight(coorbit.weight_symbolic(cp, 0, one, one),
                                coorbit.space_weight(cp, two))
    ) is None

    diag = get_family("diagonal")
    dp = diag.parse_params({"d": 1, "alpha": 0, "beta": 0})
    assert diag.khintchine_quotient(
        diag.quotient_weight(diag.weight_symbolic(dp, 0, one, one),
                             diag.space_weight(dp, two))
    ) is None
