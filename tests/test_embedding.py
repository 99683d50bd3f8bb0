import itertools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomp_embed import embedding, exponents, families, memos
from decomp_embed import oracle as oracle_module
from decomp_embed.embedding import (
    TARGETS,
    Outcome,
    Verdict,
    decide,
    decide_sobolev,
)
from decomp_embed.errors import InvalidParams, OracleDisagreement
from decomp_embed.exponents import (
    INF,
    ExtExponent,
    compound,
    conjugate,
    exponent_text,
    lower_conjugate,
)
from decomp_embed.families import FAMILY_NAMES, ShearletSmoothnessParams, get_family
from decomp_embed.oracle import TailClassification, truncated_oracle
from decomp_embed.seqspace import RadialSector, decide_lp_membership

from freeze_goldens import grid_line, jsonl_changes, oracle_lines
from test_families import BATCH_P, BATCH_Q, BATCH_R
from witnesses import reciprocal_gap


def outcome(family, params, **kw):
    return decide(family, params, **kw).outcome.value


# ---------------------------------------------------------------------------
# worked verdicts per family
# ---------------------------------------------------------------------------

HOM_CASES = [
    # k >= 1 never embeds on the two-sided lattice
    ({"d": 1, "s": "1/2"}, dict(p=1, q=2, r=2, k=1), "DoesNotEmbed"),
    ({"d": 2, "s": 0}, dict(p=2, q=2, r=1, k=2), "DoesNotEmbed"),
    # k = 0 at the exact threshold s = d(1/p - 1/q)
    ({"d": 1, "s": "1/2"}, dict(p=1, q=2, r=2, k=0), "Embeds"),
    ({"d": 1, "s": "1/2"}, dict(p=1, q=2, r=3, k=0), "DoesNotEmbed"),
    ({"d": 1, "s": "2/3"}, dict(p=1, q=3, r="3/2", k=0), "Embeds"),
    ({"d": 1, "s": "2/3"}, dict(p=1, q=3, r=2, k=0), "Undetermined"),
    ({"d": 1, "s": "2/3"}, dict(p=1, q=3, r=3, k=0), "Undetermined"),
    ({"d": 1, "s": "2/3"}, dict(p=1, q=3, r=4, k=0), "DoesNotEmbed"),
    # p = q in (2, inf): the expanding-part test closes r in (2, q]
    ({"d": 1, "s": 0}, dict(p=3, q=3, r="3/2", k=0), "Embeds"),
    ({"d": 1, "s": 0}, dict(p=3, q=3, r=2, k=0), "Undetermined"),
    ({"d": 1, "s": 0}, dict(p=3, q=3, r="5/2", k=0), "DoesNotEmbed"),
    # off threshold, p > q
    ({"d": 1, "s": 1}, dict(p=1, q=2, r=1, k=0), "DoesNotEmbed"),
    ({"d": 1, "s": 0}, dict(p=2, q=1, r=1, k=0), "DoesNotEmbed"),
]


@pytest.mark.parametrize("params,kw,expected", HOM_CASES)
def test_hom_besov_verdicts(params, kw, expected):
    assert outcome("hom_besov", params, target="sobolev", **kw) == expected


INHOM_CASES = [
    ({"d": 1, "s": 2}, dict(p=1, q=2, r="inf", k=1), "Embeds"),
    ({"d": 1, "s": "3/2"}, dict(p=1, q=2, r=2, k=1), "Embeds"),
    ({"d": 1, "s": "3/2"}, dict(p=1, q=2, r=3, k=1), "DoesNotEmbed"),
    # q = 3: refined sufficient covers (q'', 2], gap is (2, q] for p < q
    ({"d": 1, "s": "5/3"}, dict(p=1, q=3, r=2, k=1), "Embeds"),
    ({"d": 1, "s": "5/3"}, dict(p=1, q=3, r="5/2", k=1), "Undetermined"),
    ({"d": 1, "s": "5/3"}, dict(p=1, q=3, r=4, k=1), "DoesNotEmbed"),
    # p = q = 3: sharp at the threshold
    ({"d": 1, "s": 1}, dict(p=3, q=3, r=2, k=1), "Embeds"),
    ({"d": 1, "s": 1}, dict(p=3, q=3, r="5/2", k=1), "DoesNotEmbed"),
    ({"d": 1, "s": 0}, dict(p=1, q=2, r=1, k=1), "DoesNotEmbed"),
]


@pytest.mark.parametrize("params,kw,expected", INHOM_CASES)
def test_inhom_besov_verdicts(params, kw, expected):
    assert outcome("inhom_besov", params, target="sobolev", **kw) == expected


ALPHA_CASES = [
    # sharp case alpha = 0, p = q in (2, inf): equality admits r <= q
    ({"d": 1, "alpha": 0, "s": "1/3"}, dict(p=3, q=3, r=3, k=0), "Embeds"),
    ({"d": 1, "alpha": 0, "s": "5/12"}, dict(p=3, q=3, r=4, k=0), "DoesNotEmbed"),
    # generic alpha: clear margins on both sides
    ({"d": 2, "alpha": "1/2", "s": 3}, dict(p=1, q=2, r=2, k=1), "Embeds"),
    ({"d": 2, "alpha": "1/2", "s": 0}, dict(p=1, q=2, r=2, k=1), "DoesNotEmbed"),
    # alpha > 0, p < q in (2, inf), equality with r in (2, q]: open
    ({"d": 1, "alpha": "1/2", "s": "1/4"}, dict(p=2, q=3, r=3, k=0), "Undetermined"),
    ({"d": 1, "alpha": "1/2", "s": "1/4"}, dict(p=2, q=3, r=2, k=0), "Embeds"),
]


@pytest.mark.parametrize("params,kw,expected", ALPHA_CASES)
def test_alpha_modulation_verdicts(params, kw, expected):
    assert outcome("alpha_modulation", params, target="sobolev", **kw) == expected


SHEARLET_CASES = [
    ({"s": 2}, dict(p=1, q=2, r=4, k=1), "Embeds"),
    ({"s": "15/8"}, dict(p=1, q=2, r=4, k=1), "DoesNotEmbed"),
    ({"s": "7/4"}, dict(p=1, q=2, r=2, k=1), "Embeds"),
    ({"s": "7/4"}, dict(p=1, q=2, r=3, k=1), "DoesNotEmbed"),
    ({"s": "13/12"}, dict(p=1, q=3, r=2, k=0), "Embeds"),
    ({"s": "7/6"}, dict(p=1, q=3, r=3, k=0), "Undetermined"),
    ({"s": "7/6"}, dict(p=1, q=3, r=4, k=0), "DoesNotEmbed"),
    # sharpness at p = q in (2, inf) is not claimed for this family
    ({"s": "1/6"}, dict(p=3, q=3, r=3, k=0), "Undetermined"),
]


@pytest.mark.parametrize("params,kw,expected", SHEARLET_CASES)
def test_shearlet_smoothness_verdicts(params, kw, expected):
    assert outcome("shearlet_smoothness", params, target="sobolev", **kw) == expected


COORBIT_BV_CASES = [
    # c = 1/2, k = 1, p = 1, r = 1: solvable at beta = 2 with A = 1
    ({"c": "1/2", "alpha": "7/4", "beta": 2}, dict(p=1, r=1, k=1), "Embeds"),
    ({"c": "1/2", "alpha": 0, "beta": 0}, dict(p=1, r=1, k=1), "DoesNotEmbed"),
    # r = 2: needs beta > 3 - 1/r = 5/2
    ({"c": "1/2", "alpha": "13/8", "beta": 3}, dict(p=1, r=2, k=1), "Embeds"),
    ({"c": "1/2", "alpha": "13/8", "beta": "5/2"}, dict(p=1, r=2, k=1), "DoesNotEmbed"),
]


@pytest.mark.parametrize("params,kw,expected", COORBIT_BV_CASES)
def test_coorbit_bv_verdicts(params, kw, expected):
    assert outcome("shearlet_coorbit", params, target="bv", **kw) == expected


DIAGONAL_CASES = [
    # gamma = 1/q - 1/p + 1/r - 1/2 = -1/2 here; beta must sit below gamma - k
    ({"d": 1, "alpha": "-1/2", "beta": "-3/2"}, dict(p=1, q=2, r=2, k=1), "Embeds"),
    ({"d": 1, "alpha": "-1/2", "beta": "-1"}, dict(p=1, q=2, r=2, k=1), "DoesNotEmbed"),
    ({"d": 2, "alpha": ["-1/2", 0], "beta": ["-3/2", "-2"]},
     dict(p=1, q=2, r=2, k=1), "Embeds"),
    # q in (2, inf): equality cases with q'' < r <= q are open
    ({"d": 1, "alpha": "-1/6", "beta": "-1/6"}, dict(p=2, q=3, r=2, k=0), "Undetermined"),
    ({"d": 1, "alpha": 0, "beta": "-1"}, dict(p=2, q=3, r=2, k=0), "Embeds"),
    ({"d": 1, "alpha": "-1/2", "beta": "-1/6"}, dict(p=2, q=3, r=2, k=0), "DoesNotEmbed"),
]


@pytest.mark.parametrize("params,kw,expected", DIAGONAL_CASES)
def test_diagonal_verdicts(params, kw, expected):
    assert outcome("diagonal", params, target="sobolev", **kw) == expected


# ---------------------------------------------------------------------------
# verdict structure
# ---------------------------------------------------------------------------

def test_evidence_layout_finite_q():
    v = decide_sobolev("inhom_besov", {"d": 1, "s": "5/3"}, p=1, q=3, r=2, k=1)
    ids = [e.id for e in v.evidence]
    assert ids == ["N1", "S1", "N2", "N3", "N4", "S2", "N5"]
    anchors = {e.id: e.anchor for e in v.evidence}
    assert anchors["N1"] == "Thm 4.1"
    assert anchors["S1"] == "Cor 5.2(1)"
    assert anchors["N2"] == "Cor 5.2(2a)"
    assert anchors["N3"] == "Cor 5.2(2c-i)"
    assert anchors["N4"] == "Cor 5.2(2c-ii)"
    assert anchors["S2"] == anchors["N5"] == "Ex 7.2 (refined)"


def test_evidence_layout_sup_target():
    v = decide_sobolev("hom_besov", {"d": 1, "s": "1/2"}, p=2, q=INF, r=1, k=0)
    ids = [e.id for e in v.evidence]
    assert ids == ["N1", "S1", "N2", "N2b"]
    assert dict((e.id, e.anchor) for e in v.evidence)["N2b"] == "Cor 5.2(2b)"


def test_families_without_expanding_part_skip_khintchine():
    v = decide_sobolev("diagonal", {"d": 1, "alpha": 0, "beta": -2}, p=1, q=2, r=2, k=1)
    assert [e.id for e in v.evidence] == ["N1", "S1", "N2"]
    v = decide_sobolev(
        "shearlet_coorbit", {"c": 1, "alpha": 0, "beta": 0}, p=1, q=2, r=2, k=0
    )
    assert [e.id for e in v.evidence] == ["N1", "S1", "N2"]


def test_verdict_json_shape():
    v = decide_sobolev("hom_besov", {"d": 1, "s": "2/3"}, p=1, q=3, r=2, k=0)
    doc = v.to_json()
    assert doc["outcome"] == "Undetermined"
    assert isinstance(doc["gap_note"], str) and "q = 3" in doc["gap_note"]
    for entry in doc["evidence"]:
        assert set(entry) == {"id", "anchor", "holds", "detail"}
    json.dumps(doc)  # serializable

    decided = decide_sobolev("hom_besov", {"d": 1, "s": "1/2"}, p=1, q=2, r=2, k=0)
    assert "gap_note" not in decided.to_json()


def test_bv_prepends_reduction_record():
    vb = decide("inhom_besov", {"d": 1, "s": 2}, p=1, r=2, target="bv", k=1)
    v1 = decide_sobolev("inhom_besov", {"d": 1, "s": 2}, p=1, q=1, r=2, k=1)
    assert vb.outcome == v1.outcome
    assert vb.evidence[0].id == "R1"
    assert vb.evidence[0].anchor == "Cor 6.1"
    assert vb.evidence[1:] == v1.evidence


def test_cb_equals_sup_sobolev():
    vc = decide("hom_besov", {"d": 1, "s": "1/2"}, p=2, r=1, target="cb", k=0)
    vi = decide_sobolev("hom_besov", {"d": 1, "s": "1/2"}, p=2, q=INF, r=1, k=0)
    assert vc == vi


def test_refine_flag_controls_sharpening():
    kw = dict(p=1, q=3, r=2, k=1)
    sharp = decide_sobolev("inhom_besov", {"d": 1, "s": "5/3"}, **kw)
    blunt = decide_sobolev("inhom_besov", {"d": 1, "s": "5/3"}, refine=False, **kw)
    assert sharp.outcome is Outcome.EMBEDS
    assert blunt.outcome is Outcome.UNDETERMINED
    assert all(e.id not in ("S2", "N5") for e in blunt.evidence)


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------

def test_bv_needs_positive_order():
    with pytest.raises(InvalidParams):
        decide("hom_besov", {"d": 1, "s": 0}, p=1, r=1, target="bv", k=0)


@pytest.mark.parametrize("k", [-1, True, 1.5, None])
def test_bad_order_rejected(k):
    with pytest.raises(InvalidParams):
        decide_sobolev("hom_besov", {"d": 1, "s": 0}, p=1, q=2, r=2, k=k)


def test_target_dispatch_validation():
    with pytest.raises(InvalidParams):
        decide("hom_besov", {"d": 1, "s": 0}, p=1, r=1, target="sobolev", k=0)
    with pytest.raises(InvalidParams):
        decide("hom_besov", {"d": 1, "s": 0}, p=1, r=1, target="cb", k=0, q=2)
    with pytest.raises(InvalidParams):
        decide("hom_besov", {"d": 1, "s": 0}, p=1, r=1, target="besov", k=0)
    with pytest.raises(InvalidParams):
        decide("nonsense", {}, p=1, r=1, target="cb", k=0)


@pytest.mark.parametrize("target, q, k, message", [
    ("sobolev", None, 0, "target 'sobolev' needs the exponent q"),
    ("bv", 2, 0, "target 'bv' does not take q"),
    ("besov", 2, 0, "target 'besov' does not take q"),
    ("bv", None, 0, "the bounded-variation target needs k >= 1"),
    ("bv", None, -1, "smoothness order k must be a nonnegative integer"),
    ("besov", None, -1, "unknown target 'besov'; expected one of ('sobolev', 'cb', 'bv')"),
    ("cb", None, -1, "unknown family 'nonsense'"),
])
def test_target_errors_come_first_in_their_order(target, q, k, message):
    """q, then the bv order, then the target name, all ahead of the family."""
    with pytest.raises(InvalidParams) as err:
        decide("nonsense", {}, p=1, r=1, target=target, k=k, q=q)
    assert str(err.value).startswith(message)


def test_a_field_nested_past_the_recursion_limit_is_invalid():
    # too deep for the form cache's key, so the uncached parse refuses it
    s = 1
    for _ in range(500):
        s = [s]
    with pytest.raises(InvalidParams, match="parameter 's'"):
        decide("hom_besov", {"s": s}, p=1, q=2, r=2, target="sobolev", k=0)


# ---------------------------------------------------------------------------
# structural invariants on random queries
# ---------------------------------------------------------------------------

_exps = st.fractions(
    min_value=Fraction(1, 4), max_value=Fraction(6), max_denominator=12
)
_maybe_inf = st.one_of(_exps.map(ExtExponent), st.just(INF))
_smoothness = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
)

_family_draws = st.one_of(
    st.tuples(
        st.just("hom_besov"),
        st.fixed_dictionaries({"d": st.sampled_from([1, 2]), "s": _smoothness.map(str)}),
    ),
    st.tuples(
        st.just("inhom_besov"),
        st.fixed_dictionaries({"d": st.sampled_from([1, 2]), "s": _smoothness.map(str)}),
    ),
    st.tuples(
        st.just("alpha_modulation"),
        st.fixed_dictionaries(
            {
                "d": st.sampled_from([1, 2]),
                "alpha": st.sampled_from(["0", "1/3", "1/2"]),
                "s": _smoothness.map(str),
            }
        ),
    ),
    st.tuples(
        st.just("shearlet_smoothness"),
        st.fixed_dictionaries({"s": _smoothness.map(str)}),
    ),
    st.tuples(
        st.just("shearlet_coorbit"),
        st.fixed_dictionaries(
            {
                "c": st.sampled_from(["-1", "1/2", "1", "2"]),
                "alpha": _smoothness.map(str),
                "beta": _smoothness.map(str),
            }
        ),
    ),
    st.tuples(
        st.just("diagonal"),
        st.fixed_dictionaries(
            {"d": st.just(1), "alpha": _smoothness.map(str), "beta": _smoothness.map(str)}
        ),
    ),
)


@given(_family_draws, _maybe_inf, _maybe_inf, _maybe_inf, st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_no_contradiction_and_gap_location(draw, p, q, r, k):
    family, params = draw
    v = decide_sobolev(family, params, p=p, q=q, r=r, k=k)
    suff = any(e.holds for e in v.evidence if e.role == "sufficient")
    nec_fail = any(not e.holds for e in v.evidence if e.role == "necessary")
    assert not (suff and nec_fail)
    if v.outcome is Outcome.UNDETERMINED:
        assert not q.is_inf and ExtExponent(2) < q
        # families without refined criteria can stay open for r > q as well,
        # so only the lower edge of the gap window is universal
        assert lower_conjugate(q) < r
        assert v.gap_note


@given(_family_draws, _maybe_inf, _maybe_inf, st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_small_q_and_sup_always_decided(draw, p, r, k):
    family, params = draw
    for q in (ExtExponent(Fraction(1, 2)), ExtExponent(1), ExtExponent(2), INF):
        v = decide_sobolev(family, params, p=p, q=q, r=r, k=k)
        assert v.outcome is not Outcome.UNDETERMINED


# ---------------------------------------------------------------------------
# oracle cross-checks
# ---------------------------------------------------------------------------

ORACLE_CASES = [
    ("hom_besov", {"d": 1, "s": "2/3"}, dict(p=1, q=3, r=2, k=0, target="sobolev")),
    ("inhom_besov", {"d": 1, "s": "5/3"}, dict(p=1, q=3, r=2, k=1, target="sobolev")),
    ("alpha_modulation", {"d": 2, "alpha": "1/2", "s": 3},
     dict(p=1, q=2, r=2, k=1, target="sobolev")),
    ("shearlet_smoothness", {"s": 2}, dict(p=1, q=2, r=4, k=1, target="sobolev")),
    ("shearlet_coorbit", {"c": "1/2", "alpha": "7/4", "beta": 2},
     dict(p=1, r=1, k=1, target="bv")),
    ("shearlet_coorbit", {"c": 2, "alpha": "-3", "beta": 1},
     dict(p=1, q=2, r=2, k=0, target="sobolev")),
    ("diagonal", {"d": 2, "alpha": ["-1/2", 0], "beta": ["-3/2", "-2"]},
     dict(p=1, q=2, r=2, k=1, target="sobolev")),
]


@pytest.mark.parametrize("family,params,kw", ORACLE_CASES)
def test_oracle_agrees_with_symbolic_route(family, params, kw):
    with_oracle = decide(family, params, oracle_check=True, **kw)
    without = decide(family, params, **kw)
    assert with_oracle == without


@pytest.mark.usefixtures("cleared_memos")
def test_cross_check_runs_the_oracle_once_per_weight_and_theta(monkeypatch):
    asked, run = [], []

    def member(weight, theta):
        asked.append((weight, theta))
        return decide_lp_membership(weight, theta)

    classify = oracle_module._classify

    def oracle(weight, theta):
        run.append((weight, theta))
        return classify(weight, theta)

    monkeypatch.setattr(embedding, "decide_lp_membership", member)
    monkeypatch.setattr(oracle_module, "_classify", oracle)
    decide("hom_besov", {"d": 1, "s": "1/2"}, p=1, q=2, r=2, k=0, target="sobolev",
           oracle_check=True)
    # q <= 2 makes theta_suff = theta_nec, so S1 and N2 ask the same question
    assert len(set(asked)) < len(asked)
    assert run == list(dict.fromkeys(asked))


def test_cross_check_names_the_first_contradicting_call(monkeypatch):
    # S1 and N2 (one weight and theta) are NotMember, N3 is the first Member
    monkeypatch.setattr(oracle_module, "truncated_oracle",
                        lambda weight, theta: TailClassification("Divergent", 0))
    with pytest.raises(OracleDisagreement, match=r"^N3: oracle tail diverges"):
        decide("alpha_modulation", {"d": 1, "alpha": 0, "s": "9/40"}, p=3, q="3/2", r=3,
               k=0, target="sobolev", oracle_check=True)


DECIDE_GRID = Path(__file__).parent / "golden" / "decide_grid.jsonl"


def _replay_grid(lines: list[str]) -> None:
    """Replay decide grid lines, in the order given, through the golden's
    writer: each must come back byte for byte."""
    old = "".join(lines).encode()
    new = "".join(grid_line(json.loads(line)["query"]) for line in lines).encode()
    assert new == old, "\n".join(jsonl_changes(old, new))


def test_decide_grid_replays_byte_for_byte():
    """The frozen grid of scripts/freeze_goldens.py: query and verdict per line."""
    lines = DECIDE_GRID.read_bytes().decode().splitlines(keepends=True)
    assert len(lines) >= 200
    _replay_grid(lines)


def test_decide_grid_replays_with_a_warm_memo_in_reverse_order():
    """The memos kept across calls, the exponent literal memo, the form
    cache, the (q, r) memo, the record memo and the kept N3 and N4 verdicts
    of a form-cache entry, are invisible: a cold pass, then a pass in
    reverse order that starts on the entries the first one left."""
    lines = DECIDE_GRID.read_bytes().decode().splitlines(keepends=True)
    kept = {"literal memo": exponents._parse_literal, "form cache": embedding._compiled_memo,
            "(q, r) memo": embedding._of_q_and_r, "record memo": embedding._evidence}
    memos.clear()
    for order in (lines, lines[::-1]):
        _replay_grid(order)
    # the first line was decided last, so its form-cache entry is kept
    last = json.loads(lines[0])["query"]
    khintchine = embedding._compiled(last["family"], last["params"], last["k"])[3]
    kept["Khintchine verdicts"] = khintchine.verdict
    for name, memo in kept.items():
        assert memo.cache_info().hits > 0, name


def _inverse(arg) -> Fraction:
    """1/arg by Fraction arithmetic on its literal, 0 at inf."""
    text = str(arg)
    return Fraction(0) if text.lower() in ("inf", "infinity") else 1 / Fraction(text)


def _as_pair(value: Fraction) -> tuple[int, int]:
    return value.numerator, value.denominator


_POSITIVE = st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6),
                         max_denominator=10**6)
# what a caller may pass as p, q or r: inf in each spelling, 1, 2, values
# below 1, unreduced literals such as "4/2" and large numerators
EXPONENT_ARGS = st.one_of(
    st.sampled_from(("inf", "Infinity", INF, 1, 2, "1", "2", "4/2", "2/4", "1/2", "3/6",
                     ExtExponent("3/2"))),
    _POSITIVE.map(str),
    st.tuples(_POSITIVE, st.integers(2, 10**9)).map(
        lambda fk: f"{fk[0].numerator * fk[1]}/{fk[0].denominator * fk[1]}"),
    st.tuples(st.integers(1, 10**40), st.integers(1, 10**6)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
)


@settings(max_examples=400, deadline=None)
@given(p=EXPONENT_ARGS, q=EXPONENT_ARGS, r=EXPONENT_ARGS)
def test_engine_reciprocals_match_the_exponent_helpers(p, q, r):
    """Every gap, 1/theta, comparison and theta text the engine reads off
    its reciprocal int pairs is what the ExtExponent helpers give, and what
    plain Fraction arithmetic gives."""
    x = embedding._reciprocals(p, q, r)
    P, Q, R = ExtExponent(p), ExtExponent(q), ExtExponent(r)
    two = ExtExponent(2)
    xp, xq, xr = _inverse(p), _inverse(q), _inverse(r)
    assert (xp, xq, xr) == (P.reciprocal(), Q.reciprocal(), R.reciprocal())
    assert (x.p, x.q, x.r) == (_as_pair(xp), _as_pair(xq), _as_pair(xr))
    assert x.dp == _as_pair(reciprocal_gap(P, Q)) == _as_pair(xp - xq)
    assert x.g == _as_pair(reciprocal_gap(two, R)) == _as_pair(Fraction(1, 2) - xr)
    thetas = {
        "s1": (compound(lower_conjugate(Q), R), max(xq, 1 - xq) - xr),
        "n2": (compound(Q, R), xq - xr),
        "n2b": (conjugate(R), 1 - xr),
        "n34": (compound(two, R), Fraction(1, 2) - xr),
    }
    for name, (theta, gap) in thetas.items():
        got = getattr(x, name)
        assert got == _as_pair(theta.reciprocal()) == _as_pair(max(gap, Fraction(0))), name
        assert exponent_text(got) == str(theta) == ("inf" if theta.is_inf else str(1 / gap))
    # the texts kept with the (q, r) memo entry, by evidence id
    assert x.q_text == str(Q)
    assert x.theta_text == {"S1": str(thetas["s1"][0]), "N2": str(thetas["n2"][0]),
                            "N2b": str(thetas["n2b"][0]), "N3": str(thetas["n34"][0]),
                            "N4": str(thetas["n34"][0])}
    for e, text in ((P, x.p), (Q, x.q), (R, x.r)):
        assert exponent_text(text) == str(e) == ("inf" if e.is_inf else str(1 / e.reciprocal()))
    assert (x.p_le_q, x.r_le_q, x.two_le_q) == (P <= Q, R <= Q, two <= Q)
    assert (x.p_le_q, x.r_le_q, x.two_le_q) == (xq <= xp, xq <= xr, xq <= Fraction(1, 2))


def _exponent_objects_built(call) -> list[str]:
    """The Fraction and ExtExponent constructors that ``call()`` runs."""
    watched = {Fraction.__new__.__code__, ExtExponent.__init__.__code__}
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            built.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return built


WARM_PARAMS = {
    "hom_besov": {"d": 1, "s": "1/2"},
    "inhom_besov": {"d": 1, "s": "5/3"},
    "alpha_modulation": {"d": 1, "alpha": "1/2", "s": "1/4"},
    "shearlet_smoothness": {"s": "7/6"},
    "shearlet_coorbit": {"c": "1/2", "alpha": "13/8", "beta": 3},
    "diagonal": {"d": 2, "alpha": ["-1/2", 0], "beta": ["-3/2", "-2"]},
}


@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("q", ("4/2", "5/2", "3", "4", "inf"))
def test_a_warm_decide_builds_no_exponent_objects(family, q):
    """After one call on the same literals, a decide reads p, q and r from
    the literal memo and the form from the form cache, and builds no
    ExtExponent and no Fraction: every cell is int pairs, the thresholds
    of the refined criteria at q in (2, inf) included."""
    built = {}
    for p, r in itertools.product(("1", "3/2", "3"), ("2", "5/2", "inf")):
        def run():
            return decide_sobolev(family, WARM_PARAMS[family], p=p, q=q, r=r, k=1)

        want = run().to_json()
        built[p, r] = _exponent_objects_built(run)
        assert run().to_json() == want
    assert built == dict.fromkeys(built, [])


@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("q", ("4/2", "3", "inf"))
def test_a_warm_decide_formats_only_the_text_of_r_in_a_gap_note(monkeypatch, family, q):
    """The texts of q and of every theta are kept with the (q, r) memo
    entry, and p's with the kept N1 record: a warm decide formats r's text
    alone, and only in a gap note."""
    def run():
        return decide_sobolev(family, WARM_PARAMS[family], p="3/2", q=q, r="5/2", k=1,
                              refine=False)

    want = run().to_json()
    formatted = []
    monkeypatch.setattr(embedding, "exponent_text",
                        lambda x: formatted.append(x) or exponent_text(x))
    assert run().to_json() == want
    gap_note = want["outcome"] == "Undetermined"
    assert formatted == [(2, 5)] * gap_note


def _decided(family: str, params) -> object:
    """The params and verdict of one fixed query, or the InvalidParams message."""
    try:
        _, parsed, _, _ = embedding._compiled(family, params, 1)
        verdict = decide(family, params, p=1, q=3, r=2, k=1, target="sobolev")
    except InvalidParams as exc:
        return f"InvalidParams: {exc}"
    return parsed, verdict.to_json()


def _parsed_directly(family: str, params) -> object:
    try:
        parsed = get_family(family).parse_params(params)
    except InvalidParams as exc:
        return f"InvalidParams: {exc}"
    return _decided(family, parsed)


# each probe follows a look-alike that a params memo keyed on values alone
# (1 == 1.0 == True, a tuple dumped as a list) would confuse it with
@pytest.mark.parametrize("family, cached, probe", [
    ("inhom_besov", {"d": 1, "s": "5/3"}, {"d": True, "s": "5/3"}),
    ("inhom_besov", {"d": 1, "s": "5/3"}, {"d": 1.0, "s": "5/3"}),
    ("inhom_besov", {"d": 1, "s": "5/3"}, {"d": "1", "s": "5/3"}),
    ("inhom_besov", {"d": 1, "s": "1/2"}, {"d": 1, "s": 0.5}),
    ("inhom_besov", {"d": 1, "s": "1/2"}, {"d": 1, "s": "1/2", "t": 0}),
    ("inhom_besov", {"d": 1, "s": "1/2"}, [["d", 1], ["s", "1/2"]]),
    ("diagonal", {"d": 2, "alpha": ["1/2", 1]}, {"d": 2, "alpha": ("1/2", 1)}),
    ("diagonal", {"d": 2, "alpha": [1, 2]}, {"d": 2, "alpha": (1, 2)}),
    ("diagonal", {"d": 2, "alpha": [1, 2]}, {"d": 2, "alpha": [1, 2.0]}),
    ("diagonal", {"d": 1, "alpha": ["1/2"]}, {"d": 1, "alpha": [[1, 2]]}),
    # 0.0 == -0.0, so both share a key: each reads as the Fraction 0
    ("inhom_besov", {"d": 1, "s": 0.0}, {"d": 1, "s": -0.0}),
    ("diagonal", {"d": 1, "alpha": [0.0]}, {"d": 1, "alpha": [-0.0]}),
    ("inhom_besov", {"d": 1, "s": "1/2"}, {"d": 1, "s": math.nan}),
    # a key that is no string gives no cache key: the params are parsed uncached
    ("hom_besov", {"d": 1}, {1: 2, "d": 1}),
])
def test_look_alike_params_decide_as_parsed(family, cached, probe):
    want = _parsed_directly(family, probe)
    _decided(family, cached)
    # twice: a probe that raises must raise again, as nothing failed is kept
    assert _decided(family, probe) == want
    assert _decided(family, probe) == want


def test_params_cache_keeps_look_alikes_apart():
    """After {"d": 1} is cached, documents that equal it as values or that
    JSON cannot encode (a Fraction, a cycle) still raise the parser's own
    error, every time: a failed parse is not cached."""
    memos.clear()
    decide("hom_besov", {"d": 1}, p=1, q=2, r=2, k=0, target="sobolev")
    cyclic = {"d": 1}
    cyclic["s"] = cyclic
    for probe in ({"d": True}, {"d": 1.0}, {"s": Fraction(1, 2)}, cyclic):
        with pytest.raises(InvalidParams) as want:
            get_family("hom_besov").parse_params(probe)
        for _ in range(2):
            with pytest.raises(InvalidParams, match=f"^{re.escape(str(want.value))}$"):
                decide("hom_besov", probe, p=1, q=2, r=2, k=0, target="sobolev")
    assert embedding._compiled_memo.cache_info().currsize == 1


@pytest.mark.parametrize("module, name, bound, call", [
    (embedding, "_compiled_memo", "FORM_MEMO_SIZE", lambda i: decide(
        "hom_besov", {"d": 1, "s": f"{i}/7"}, p=1, q=2, r=2, k=0, target="sobolev")),
    (embedding, "_of_q_and_r", "QR_MEMO_SIZE", lambda i: decide(
        "hom_besov", {"d": 1}, p=1, q=f"{i + 3}/{i + 1}", r=2, k=0, target="sobolev")),
    # each p adds its own N1 record
    (embedding, "_evidence", "EVIDENCE_MEMO_SIZE", lambda i: decide(
        "hom_besov", {"d": 1}, p=f"{i + 2}/{i + 1}", q=2, r=2, k=0, target="sobolev")),
    # more distinct exponent literals than the bound
    (exponents, "_parse_literal", "LITERAL_MEMO_SIZE", lambda i: [decide(
        "hom_besov", {"d": 1, "s": f"{i}/7"}, p="1", q=f"{i + 3}/{i + 1}", r=r, target="sobolev",
        k=0) for r in (f"{i + 2}/{i + 1}", "inf")]),
    (families, "family_covering", "COVERING_MEMO_SIZE",
     lambda i: families.covering_from_json({"family": "hom_besov", "params": {"d": i + 1}})),
], ids=["form", "qr", "record", "literal", "covering"])
@pytest.mark.usefixtures("cleared_memos")
def test_each_memo_stays_within_its_bound(module, name, bound, call):
    memo = getattr(module, name)
    size = memo.cache_info().maxsize
    assert size == getattr(module, bound)
    for i in range(size + 8):
        call(i)
    assert memo.cache_info().currsize == size


def test_kept_khintchine_verdicts_stay_within_their_bound():
    memos.clear()
    for i in range(embedding.KHINTCHINE_MEMO_SIZE + 8):
        decide("hom_besov", {"d": 1}, p=1, q=3, r=f"{i + 5}/{i + 1}", k=0, target="sobolev")
    memo = embedding._compiled("hom_besov", {"d": 1}, 0)[3].verdict
    # N3 and N4 each add one key per r
    assert memo.cache_info().maxsize == embedding.KHINTCHINE_MEMO_SIZE
    assert memo.cache_info().currsize == embedding.KHINTCHINE_MEMO_SIZE
    assert embedding._compiled_memo.cache_info().currsize == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data(), family=st.sampled_from(FAMILY_NAMES), target=st.sampled_from(TARGETS),
       p=st.sampled_from(BATCH_P), q=st.sampled_from(BATCH_Q), r=st.sampled_from(BATCH_R),
       refine=st.booleans())
def test_a_cell_reads_the_same_on_cleared_and_warm_memos(data, family, target, p, q, r, refine):
    """A cell decided on cleared memos, then again on the memos it warmed,
    gives the same document, and the second verdict holds the very N1 and
    membership records of the first: a repeated content is kept, not
    rebuilt."""
    k = data.draw(st.integers(target == "bv", 2), label="k")
    params = data.draw(near_threshold(family, k), label="params")

    def run() -> Verdict:
        return decide(family, params, p=p, q=q if target == "sobolev" else None, r=r, k=k,
                      target=target, refine=refine)

    memos.clear()
    cold = run()
    warm = run()
    assert warm.to_json() == cold.to_json()
    kept = ("N1", "S1", "N2", "N2b", "N3", "N4")
    pairs = [(w, c) for w, c in zip(warm.evidence, cold.evidence) if c.id in kept]
    assert {"N1", "S1", "N2"} <= {c.id for _, c in pairs}
    assert all(w is c for w, c in pairs)


_SWEEP_AXIS = ("1/2", "1", "3/2", "2", "5/2", "3", "4", "inf")


@settings(max_examples=60, deadline=None)
@given(draw=_family_draws, p=st.sampled_from(_SWEEP_AXIS), q=st.sampled_from(_SWEEP_AXIS),
       r=st.sampled_from(_SWEEP_AXIS), k=st.integers(0, 2), target=st.sampled_from(TARGETS))
def test_a_decide_reads_the_same_on_cold_and_warm_memos(draw, p, q, r, k, target):
    """One call gives the same verdict, or the same error, with every memo
    cleared and on memos that a sweep of its (q, r) neighbours warmed,
    cold first and warm first."""
    family, params = draw
    cell = dict(p=p, k=k, target=target)

    def run(q, r) -> object:
        try:
            return decide(family, params, q=None if target != "sobolev" else q, r=r,
                          **cell).to_json()
        except InvalidParams as exc:
            return f"InvalidParams: {exc}"

    sweep = list(itertools.product(_SWEEP_AXIS, repeat=2))
    memos.clear()
    cold = run(q, r)
    for cell_q, cell_r in sweep:
        run(cell_q, cell_r)
    assert run(q, r) == cold
    for cell_q, cell_r in sweep[::-1]:
        run(cell_q, cell_r)
    warm = run(q, r)
    memos.clear()
    assert run(q, r) == warm == cold


def _logged_checks(monkeypatch) -> list:
    """Every call the oracle cross-check receives, as (label, dp, g, x,
    verdict), passed on to the cross-check itself."""
    log = []
    cross_check = embedding._cross_check

    def spy(calls):
        log.extend((c.label, c.dp, c.g, c.x, c.verdict.value) for c in calls)
        cross_check(calls)

    monkeypatch.setattr(embedding, "_cross_check", spy)
    return log


@pytest.mark.parametrize("family, params", [
    ("hom_besov", {"d": 1, "s": "2/3"}),
    ("alpha_modulation", {"d": 1, "alpha": "1/2", "s": "1/4"}),
    ("shearlet_coorbit", {"c": 2, "alpha": "-3", "beta": 1}),
])
def test_the_oracle_check_receives_every_call_on_cold_and_warm_memos(monkeypatch, family,
                                                                     params):
    """Under the oracle check, each cell hands the cross-check S1 and N2 at
    (1/p - 1/q, 1/2 - 1/r), N2b at q = inf, N3 at dp = 0 and N4 at
    1/p - 1/2 (on a family with a Khintchine form, N4 for q >= 2), each with
    its 1/theta and the verdict its evidence reports, whether the kept
    verdicts answer or not."""
    def gap(a, b) -> tuple[int, int]:
        return _as_pair(_inverse(a) - _inverse(b))

    def clamp(pair):
        return pair if pair[0] > 0 else (0, 1)

    khintchine = get_family(family).khintchine is not None
    cells = list(itertools.product(("1", "3/2"), ("3/2", "3", "inf"), ("3/2", "4")))
    memos.clear()
    log, runs = _logged_checks(monkeypatch), []
    for _ in range(2):
        log.clear()
        want = []
        for p, q, r in cells:
            verdict = decide(family, params, p=p, q=q, r=r, k=1, target="sobolev",
                             oracle_check=True)
            reported = _reported(verdict)
            g, dp = gap(2, r), gap(p, q)
            xq = _inverse(q)
            asked = [("S1", dp, clamp(_as_pair(max(xq, 1 - xq) - _inverse(r)))),
                     ("N2", dp, clamp(gap(q, r)))]
            if q == "inf":
                asked.append(("N2b", dp, clamp(gap(1, r))))
            elif khintchine:
                asked.append(("N3", (0, 1), clamp(g)))
                if xq <= Fraction(1, 2):
                    asked.append(("N4", gap(p, 2), clamp(g)))
            want += [(label, at, g, x, reported[label][0]) for label, at, x in asked]
        assert log == want
        assert {"N3", "N4"} <= {call[0] for call in log} or not khintchine
        runs.append(list(log))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("family", [42, None, b"hom_besov", 1.5, ["hom_besov"]])
def test_a_family_that_is_no_family_is_refused(family):
    with pytest.raises(InvalidParams, match=f"^not a family: {re.escape(repr(family))}$"):
        decide(family, {}, p=1, q=2, r=2, k=0, target="sobolev")


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_parsed_params_key_the_form_cache(family):
    """Parsed params are their own cache key: a second decide with them hits
    the cache.  Their values as a plain tuple or list are a document, which
    the parser refuses, every time."""
    params = get_family(family).parse_params({})
    memo = embedding._compiled_memo
    memos.clear()
    first = decide(family, params, p=1, q=2, r=2, k=0, target="sobolev")
    assert decide(family, params, p=1, q=2, r=2, k=0, target="sobolev") == first
    assert (memo.cache_info().hits, memo.cache_info().currsize) == (1, 1)
    for look_alike in (tuple(params), list(params)) * 2:
        with pytest.raises(InvalidParams, match="parameters must be a JSON object$"):
            decide(family, look_alike, p=1, q=2, r=2, k=0, target="sobolev")
    assert memo.cache_info().currsize == 1


@pytest.mark.parametrize("owner, family", list(itertools.product(FAMILY_NAMES, repeat=2)))
def test_a_family_takes_parsed_params_of_its_own_type_only(owner, family):
    """Another family's parsed params are a document to the parser, which
    refuses it; the two dyadic families share their params type."""
    params = get_family(owner).parse_params({})
    if type(params) is get_family(family).params_type:
        decide(family, params, p=1, q=2, r=2, k=0, target="sobolev")
    else:
        with pytest.raises(InvalidParams, match="parameters must be a JSON object$"):
            decide(family, params, p=1, q=2, r=2, k=0, target="sobolev")
    assert (type(params) is get_family(family).params_type) == (
        owner == family or {owner, family} == {"hom_besov", "inhom_besov"})


def test_records_equal_instances_of_their_own_class_only():
    sector, params = RadialSector(2), ShearletSmoothnessParams(Fraction(2))
    assert tuple(sector) == tuple(params) and hash(sector) == hash(params)
    assert sector != params and not sector == params
    assert params != (Fraction(2),) and (Fraction(2),) != params
    assert sector == RadialSector(2) and hash(sector) == hash(RadialSector(2))
    assert not sector != RadialSector(2)
    assert {sector: 1, params: 2}[sector] == 1
    with pytest.raises(AttributeError):
        sector.d = 3
    with pytest.raises(AttributeError):
        params.t = 0


OFFSETS = (Fraction(-1, 2), Fraction(-1, 8), Fraction(0), Fraction(0), Fraction(1, 8),
           Fraction(1, 2))


@st.composite
def near_threshold(draw, family, k):
    """A params document on, or within 1/2 of, the family's threshold at a
    reference (p, q0, r0), q0 in (2, inf), as the decide_batch workload
    draws them."""
    def pick(values):
        return draw(st.sampled_from(values))

    p, q0, r0 = (ExtExponent(pick(axis)) for axis in (BATCH_P, ("5/2", "3", "4"), BATCH_R))
    dp = reciprocal_gap(p, q0)
    tail = max(reciprocal_gap(lower_conjugate(q0), r0), Fraction(0))
    gamma = Fraction(1, 2) - r0.reciprocal() + dp
    off, d = pick(OFFSETS), pick((1, 2))
    if family == "hom_besov":
        return {"d": d, "s": str(d * dp + off)}
    if family == "inhom_besov":
        return {"d": d, "s": str(k + d * dp + off)}
    if family == "alpha_modulation":
        alpha = pick((Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
        rhs = k + d * (alpha * dp + (1 - alpha) * tail)
        return {"d": d, "alpha": str(alpha), "s": str(rhs + off)}
    if family == "shearlet_smoothness":
        return {"s": str(k + Fraction(3, 2) * dp + Fraction(1, 2) * tail + off)}
    if family == "shearlet_coorbit":
        c = pick((Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)))
        beta = k + pick((Fraction(0), Fraction(1, 2), Fraction(2)))
        lo, hi = (beta, c * (beta - k)) if c >= 1 else (max(c * beta, c * (beta - k)), beta - k)
        target = pick((lo - 1, lo, (lo + hi) / 2, hi, hi + Fraction(1, 8)))
        return {"c": str(c), "alpha": str(target - (1 + c) * gamma), "beta": str(beta)}
    return {"d": d, "alpha": [str(-gamma + off + j) for j in range(d)],
            "beta": [str(-gamma - k + pick(OFFSETS) - j) for j in range(d)]}


def _reported(verdict: Verdict) -> dict:
    """Per membership record, the verdict and theta its detail reports."""
    found = (re.search(r" is (Member|NotMember) of l\^(\S+)$", e.detail) for e in verdict.evidence)
    return {e.id: m.groups() for e, m in zip(verdict.evidence, found) if m}


@pytest.mark.parametrize("family", FAMILY_NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.sampled_from((0, 1, 2)), p=st.sampled_from(BATCH_P),
       q=st.sampled_from(BATCH_Q), r=st.sampled_from(BATCH_R))
def test_compiled_verdicts_equal_membership_of_the_built_quotients(family, data, k, p, q, r):
    """Each S1/N2/N2b/N3/N4 verdict, decided on the compiled form, is
    decide_lp_membership of the quotient weight it stands for (restricted
    by khintchine_quotient for N3 and N4)."""
    doc = data.draw(near_threshold(family, k))
    fam = get_family(family)
    params = fam.parse_params(doc)
    p, q, r = ExtExponent(p), ExtExponent(q), ExtExponent(r)
    two = ExtExponent(2)
    g, dp_q = reciprocal_gap(two, r), reciprocal_gap(p, q)
    asked = {"S1": (dp_q, compound(lower_conjugate(q), r), False),
             "N2": (dp_q, compound(q, r), False)}
    if q.is_inf:
        asked["N2b"] = (dp_q, conjugate(r), False)
    elif fam.khintchine is not None:
        asked["N3"] = (Fraction(0), compound(two, r), True)
        if two <= q:
            asked["N4"] = (reciprocal_gap(p, two), compound(two, r), True)
    want = {}
    for ev_id, (dp, theta, restrict) in asked.items():
        weight = fam.quotient_form(params, k).at(dp, g)
        if restrict:
            weight = fam.khintchine_quotient(weight)
        want[ev_id] = (decide_lp_membership(weight, theta).value, str(theta))
    assert _reported(decide_sobolev(family, doc, p=p, q=q, r=r, k=k, refine=False)) == want


ORACLE_TAILS = Path(__file__).parent / "golden" / "oracle_tails.jsonl"


def _oracle_groups() -> itertools.groupby:
    """The oracle golden's lines grouped by query, in file order."""
    lines = ORACLE_TAILS.read_bytes().decode().splitlines(keepends=True)
    return itertools.groupby(lines, key=lambda line: json.loads(line)["query"])


def test_oracle_tails_replay_byte_for_byte():
    """The frozen oracle golden: every TailClassification, float for float."""
    old = ORACLE_TAILS.read_bytes()
    assert old.count(b"\n") >= 20
    new = "".join(oracle_lines(query) for query, _ in _oracle_groups()).encode()
    assert new == old, "\n".join(jsonl_changes(old, new))


def test_oracle_tails_replay_with_a_warm_memo_in_reverse_order():
    """The oracle memo is invisible: a cold pass, then a pass in reverse
    order that starts on the entries the first one left."""
    groups = [(query, "".join(group).encode()) for query, group in _oracle_groups()]
    memo = oracle_module._classified
    memos.clear()
    for order in (groups, groups[::-1]):
        for query, old in order:
            new = oracle_lines(query).encode()
            assert new == old, "\n".join(jsonl_changes(old, new))
    assert memo.cache_info().hits > 0


@pytest.mark.usefixtures("cleared_memos")
def test_pair_tail_bound_value_reaches_no_verdict(monkeypatch):
    """The gates read only whether a pair tail bound is finite: with every
    bound halved, the frozen oracle queries keep their verdict, window,
    partial sum and growth, and only reported tail bounds move."""
    bound = oracle_module._pair_tail_bound
    monkeypatch.setattr(oracle_module, "_pair_tail_bound", lambda *args: bound(*args) / 2.0)
    moved = 0
    for query, group in _oracle_groups():
        want = [json.loads(line)["tail"] for line in group]
        got = [json.loads(line)["tail"] for line in oracle_lines(query).splitlines()]
        assert [{**tail, "tail_bound": None} for tail in got] == \
            [{**tail, "tail_bound": None} for tail in want], query
        moved += sum(g["tail_bound"] != w["tail_bound"] for g, w in zip(got, want))
    assert moved  # the halved bounds reach the reported ones
