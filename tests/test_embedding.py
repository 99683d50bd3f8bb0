import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomp_embed import embedding, exponents
from decomp_embed.embedding import (
    Outcome,
    Verdict,
    decide,
    decide_bv,
    decide_cb,
    decide_sobolev,
)
from decomp_embed.errors import InvalidParams, OracleDisagreement
from decomp_embed.exponents import INF, ExtExponent, compound, lower_conjugate
from decomp_embed.families import get_family
from decomp_embed.seqspace import (
    TailClassification,
    decide_lp_membership,
    expweight_from_json,
    truncated_oracle,
)


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
    vb = decide_bv("inhom_besov", {"d": 1, "s": 2}, p=1, r=2, k=1)
    v1 = decide_sobolev("inhom_besov", {"d": 1, "s": 2}, p=1, q=1, r=2, k=1)
    assert vb.outcome == v1.outcome
    assert vb.evidence[0].id == "R1"
    assert vb.evidence[0].anchor == "Cor 6.1"
    assert vb.evidence[1:] == v1.evidence


def test_cb_equals_sup_sobolev():
    vc = decide_cb("hom_besov", {"d": 1, "s": "1/2"}, p=2, r=1, k=0)
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
        decide_bv("hom_besov", {"d": 1, "s": 0}, p=1, r=1, k=0)


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


def test_cross_check_runs_the_oracle_once_per_weight_and_theta(monkeypatch):
    asked, run = [], []

    def member(weight, theta):
        asked.append((weight, theta))
        return decide_lp_membership(weight, theta)

    def oracle(weight, theta):
        run.append((weight, theta))
        return truncated_oracle(weight, theta)

    monkeypatch.setattr(embedding, "decide_lp_membership", member)
    monkeypatch.setattr(embedding, "truncated_oracle", oracle)
    decide("hom_besov", {"d": 1, "s": "1/2"}, p=1, q=2, r=2, k=0, target="sobolev",
           oracle_check=True)
    # q <= 2 makes theta_suff = theta_nec, so S1 and N2 ask the same question
    assert len(set(asked)) < len(asked)
    assert run == list(dict.fromkeys(asked))


def test_cross_check_names_the_first_contradicting_call(monkeypatch):
    # S1 and N2 (one weight and theta) are NotMember, N3 is the first Member
    monkeypatch.setattr(embedding, "truncated_oracle",
                        lambda weight, theta: TailClassification("Divergent", 0))
    with pytest.raises(OracleDisagreement, match=r"^N3: oracle tail diverges"):
        decide("alpha_modulation", {"d": 1, "alpha": 0, "s": "9/40"}, p=3, q="3/2", r=3,
               k=0, target="sobolev", oracle_check=True)


DECIDE_GRID = Path(__file__).parent / "golden" / "decide_grid.jsonl"


def _grid_drift(lines: list[str]) -> list[dict]:
    """The queries of the decide grid lines whose replay differs, in order."""
    drifted = []
    for line in lines:
        query = json.loads(line)["query"]
        verdict = decide(query["family"], query["params"], p=query["p"], q=query.get("q"),
                         r=query["r"], target=query["target"], k=query["k"])
        got = json.dumps({"query": query, "verdict": verdict.to_json()},
                         separators=(",", ":")) + "\n"
        if got != line:
            drifted.append(query)
    return drifted


def test_decide_grid_replays_byte_for_byte():
    """The frozen grid of scripts/freeze_goldens.py: query and verdict per line."""
    lines = DECIDE_GRID.read_text().splitlines(keepends=True)
    assert len(lines) >= 200
    drifted = _grid_drift(lines)
    assert not drifted, f"{len(drifted)} of {len(lines)} verdicts drifted, first {drifted[0]}"


def test_decide_grid_replays_with_a_warm_memo_in_reverse_order():
    """The exponent literal memo is invisible: a cold pass, then a pass in
    reverse order that starts on the memo entries the first one left."""
    lines = DECIDE_GRID.read_text().splitlines(keepends=True)
    exponents._parse_literal.cache_clear()
    for order in (lines, lines[::-1]):
        drifted = _grid_drift(order)
        assert not drifted, f"{len(drifted)} verdicts drifted, first {drifted[0]}"
    assert exponents._parse_literal.cache_info().hits > 0


def _decided(family: str, params) -> object:
    """The params and verdict of one fixed query, or the InvalidParams message."""
    try:
        _, parsed = embedding._resolve(family, params)
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
])
def test_look_alike_params_decide_as_parsed(family, cached, probe):
    want = _parsed_directly(family, probe)
    _decided(family, cached)
    # twice: a probe that raises must raise again, as nothing failed is kept
    assert _decided(family, probe) == want
    assert _decided(family, probe) == want


def test_literal_memo_stays_within_its_bound():
    memo = exponents._parse_literal
    memo.cache_clear()
    size = memo.cache_info().maxsize
    assert size == exponents.LITERAL_MEMO_SIZE
    # more distinct exponent literals than the bound
    for i in range(size + 8):
        for r in (f"{i + 2}/{i + 1}", "inf"):
            decide("hom_besov", {"d": 1, "s": f"{i}/7"}, p="1", q=f"{i + 3}/{i + 1}", r=r,
                   target="sobolev", k=0)
    assert memo.cache_info().currsize == size


ORACLE_TAILS = Path(__file__).parent / "golden" / "oracle_tails.jsonl"


def _oracle_tail_lines(query: dict, monkeypatch) -> list[str]:
    """One line per distinct (weight, theta) the query puts to the oracle,
    in first-call order, as scripts/freeze_goldens.py writes them."""
    tails = {}
    if "u" in query:
        weight = expweight_from_json(query["u"]).quotient(expweight_from_json(query["v"]))
        theta = compound(ExtExponent(query["s"]), ExtExponent(query["r"]))
        tails[weight, theta] = truncated_oracle(weight, theta)
    else:
        def record(weight, theta):
            tail = truncated_oracle(weight, theta)
            tails.setdefault((weight, theta), tail)
            return tail

        with monkeypatch.context() as patch:
            patch.setattr(embedding, "truncated_oracle", record)
            decide(query["family"], query["params"], p=query["p"], q=query.get("q"),
                   r=query["r"], target=query["target"], k=query["k"], oracle_check=True)
    return [json.dumps({"query": query, "theta": str(theta), "tail": tail.to_json()},
                       separators=(",", ":")) + "\n"
            for (_, theta), tail in tails.items()]


def test_oracle_tails_replay_byte_for_byte(monkeypatch):
    """The frozen oracle golden: every TailClassification, float for float."""
    lines = ORACLE_TAILS.read_text().splitlines(keepends=True)
    assert len(lines) >= 20
    drifted = []
    for query, group in itertools.groupby(lines, key=lambda line: json.loads(line)["query"]):
        if _oracle_tail_lines(query, monkeypatch) != list(group):
            drifted.append(query)
    assert not drifted, f"{len(drifted)} queries drifted, first {drifted[0]}"
