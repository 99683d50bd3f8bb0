"""The embedding decision engine.

Given a family, its parameters, and the exponent data (p, q, r, k), the
engine evaluates one sufficient criterion and a battery of necessary ones,
all reduced to summability of quotient weights in l^theta spaces with
exactly computed theta.  The outcome is three-valued:

* ``Embeds`` when some sufficient criterion holds,
* ``DoesNotEmbed`` when some necessary criterion fails,
* ``Undetermined`` when neither happens; the verdict then carries a gap
  note locating the undecided regime.

Every criterion is reported as an evidence record with a stable id and
anchor so the verdict is machine-checkable.  A verdict where a sufficient
criterion holds while a necessary one fails would be internally
inconsistent and raises instead of returning.

The optional oracle check reruns every symbolic summability call through
the numeric tail oracle on truncated windows, once per distinct weight and
exponent, and raises
:class:`OracleDisagreement` if the two routes ever contradict each other.

The weights a verdict reads are pure functions of immutable keys, so they
are kept in bounded least-recently-used memos across calls: the parsed
params of a family (keyed by the canonical JSON text of the document), the
space weight u(r), the covering weight w^(t) and the quotient w^(t)/u.  A
(q, r) sweep with fixed family, params, p and k thus builds each of them
once.  Only successful builds are kept, so bad input raises on every call;
membership, the refined criteria and the oracle run on every call.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, is_dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import InconsistentVerdict, InvalidParams, OracleDisagreement
from .exponents import INF, ExtExponent, compound, conjugate, lower_conjugate
from .families import Family, get_family
from .seqspace import (
    ExpPolyWeight,
    Membership,
    TailClassification,
    decide_lp_membership,
    truncated_oracle,
)

__all__ = [
    "Outcome",
    "Evidence",
    "Verdict",
    "decide",
    "decide_sobolev",
    "decide_cb",
    "decide_bv",
    "TARGETS",
]

TARGETS = ("sobolev", "cb", "bv")

ANCHOR_P_LE_Q = "Thm 4.1"
ANCHOR_SUFFICIENT = "Cor 5.2(1)"
ANCHOR_NECESSARY = "Cor 5.2(2a)"
ANCHOR_NECESSARY_SUP = "Cor 5.2(2b)"
ANCHOR_KHINTCHINE_P = "Cor 5.2(2c-i)"
ANCHOR_KHINTCHINE_2 = "Cor 5.2(2c-ii)"
ANCHOR_BV_REDUCTION = "Cor 6.1"

_ONE = ExtExponent(1)
_TWO = ExtExponent(2)

# Bounds of the weight memos, each about one sweep's working set.  A sweep
# over a (q, r) grid of one (family, params, p, k) reads one params document,
# one space weight per r, one covering weight per t (the q axis, p and 2) and
# one quotient per (t, r), of which only those at t = p and t = 2 recur, 16
# on the 7 x 8 grid; every (q, r) cell is distinct.
PARAMS_MEMO_SIZE = 8
WEIGHT_MEMO_SIZE = 16
QUOTIENT_MEMO_SIZE = 32


class Outcome(str, enum.Enum):
    EMBEDS = "Embeds"
    DOES_NOT_EMBED = "DoesNotEmbed"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Evidence:
    id: str
    anchor: str
    holds: bool
    detail: str
    role: str  # "sufficient", "necessary", or "reduction"

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "holds": self.holds,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    evidence: tuple[Evidence, ...]
    gap_note: Optional[str] = None

    def to_json(self) -> dict:
        doc: dict = {
            "outcome": self.outcome.value,
            "evidence": [e.to_json() for e in self.evidence],
        }
        if self.outcome is Outcome.UNDETERMINED:
            doc["gap_note"] = self.gap_note
        return doc


class _SummabilityCall(NamedTuple):
    """One symbolic membership decision, kept for the oracle cross-check."""

    label: str
    weight: ExpPolyWeight
    theta: ExtExponent
    verdict: Membership


def _membership_evidence(
    ev_id: str,
    anchor: str,
    role: str,
    weight: ExpPolyWeight,
    theta: ExtExponent,
    what: str,
    calls: list[_SummabilityCall],
    *,
    extra_ok: bool = True,
    extra_note: str = "",
) -> Evidence:
    member = decide_lp_membership(weight, theta)
    calls.append(_SummabilityCall(ev_id, weight, theta, member))
    holds = extra_ok and member is Membership.MEMBER
    detail = f"{what} is {member.value} of l^{theta}"
    if extra_note:
        detail = f"{extra_note}; {detail}"
    return Evidence(ev_id, anchor, holds, detail, role)


def _validate_order(k: int) -> int:
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise InvalidParams("smoothness order k must be a nonnegative integer")
    return k


def _exponent(value) -> ExtExponent:
    """Coerce an exponent argument once; an ExtExponent passes through."""
    return value if isinstance(value, ExtExponent) else ExtExponent(value)


_JSON_SCALARS = (str, int, float, bool, type(None))


def _plain_json(obj) -> bool:
    """Whether a document is built from JSON types alone, subclasses excluded."""
    kind = type(obj)
    if kind is dict:
        return all(type(key) is str and _plain_json(val) for key, val in obj.items())
    if kind is list:
        return all(map(_plain_json, obj))
    return kind in _JSON_SCALARS


def _json_text(doc) -> Optional[str]:
    """The canonical JSON text of a plain JSON document, the params memo key.

    The text tells 1, 1.0, true and "1" apart; None means the document holds
    some other type (a tuple, a Fraction, a subclass), which is not memoized.
    """
    if not _plain_json(doc):
        return None
    try:
        return json.dumps(doc, sort_keys=True)
    except ValueError:  # an int past the digit limit of int-to-str conversion
        return None


@lru_cache(maxsize=PARAMS_MEMO_SIZE)
def _parsed_params(fam: Family, text: str):
    return fam.parse_params(json.loads(text))


@lru_cache(maxsize=WEIGHT_MEMO_SIZE)
def _space_weight(fam: Family, params, r: ExtExponent) -> ExpPolyWeight:
    return fam.space_weight(params, r)


@lru_cache(maxsize=WEIGHT_MEMO_SIZE)
def _covering_weight(fam: Family, params, k: int, p: ExtExponent, t: ExtExponent):
    return fam.weight_symbolic(params, k, p, t)


@lru_cache(maxsize=QUOTIENT_MEMO_SIZE)
def _quotient(
    fam: Family, params, k: int, p: ExtExponent, t: ExtExponent, r: ExtExponent
) -> ExpPolyWeight:
    """w^(t)/u(r), from the memoized covering and space weights."""
    return fam.quotient_weight(
        _covering_weight(fam, params, k, p, t), _space_weight(fam, params, r)
    )


def _resolve(family, params):
    fam = get_family(family) if isinstance(family, str) else family
    if not isinstance(fam, Family):
        raise InvalidParams(f"not a family: {family!r}")
    if not is_dataclass(params):
        text = _json_text(params)
        params = fam.parse_params(params) if text is None else _parsed_params(fam, text)
    return fam, params


def decide_sobolev(
    family,
    params,
    *,
    p,
    q,
    r,
    k: int,
    refine: bool = True,
    oracle_check: bool = False,
) -> Verdict:
    """Decide the embedding into the Sobolev space of order k over L^q."""
    fam, params = _resolve(family, params)
    p, q, r = _exponent(p), _exponent(q), _exponent(r)
    k = _validate_order(k)

    evidence: list[Evidence] = []
    calls: list[_SummabilityCall] = []

    p_le_q = p <= q
    evidence.append(
        Evidence(
            "N1",
            ANCHOR_P_LE_Q,
            p_le_q,
            f"p <= q {'holds' if p_le_q else 'fails'} for p = {p}, q = {q}",
            "necessary",
        )
    )

    quotient_q = _quotient(fam, params, k, p, q, r)
    theta_suff = compound(lower_conjugate(q), r)
    evidence.append(
        _membership_evidence(
            "S1",
            ANCHOR_SUFFICIENT,
            "sufficient",
            quotient_q,
            theta_suff,
            "w(q)/u",
            calls,
            extra_ok=p_le_q,
            extra_note=f"requires p <= q ({'holds' if p_le_q else 'fails'})",
        )
    )

    theta_nec = compound(q, r)
    evidence.append(
        _membership_evidence(
            "N2",
            ANCHOR_NECESSARY,
            "necessary",
            quotient_q,
            theta_nec,
            "w(q)/u",
            calls,
        )
    )

    if q.is_inf:
        evidence.append(
            _membership_evidence(
                "N2b",
                ANCHOR_NECESSARY_SUP,
                "necessary",
                quotient_q,
                conjugate(r),
                "w(inf)/u",
                calls,
            )
        )

    if not q.is_inf and fam.khintchine is not None:
        theta_k = compound(_TWO, r)
        kq_p = fam.khintchine_quotient(_quotient(fam, params, k, p, p, r))
        evidence.append(
            _membership_evidence(
                "N3",
                ANCHOR_KHINTCHINE_P,
                "necessary",
                kq_p,
                theta_k,
                "w(p)/u on the expanding part",
                calls,
            )
        )
        if _TWO <= q:
            kq_2 = fam.khintchine_quotient(_quotient(fam, params, k, p, _TWO, r))
            evidence.append(
                _membership_evidence(
                    "N4",
                    ANCHOR_KHINTCHINE_2,
                    "necessary",
                    kq_2,
                    theta_k,
                    "w(2)/u on the expanding part",
                    calls,
                )
            )

    if refine:
        for item in fam.refined_criteria(params, k, p, q, r):
            evidence.append(
                Evidence(
                    item["id"],
                    item["anchor"],
                    item["holds"],
                    item["detail"],
                    item["role"],
                )
            )

    verdict = _aggregate(evidence, q, r, theta_suff, theta_nec)
    if oracle_check:
        _cross_check(calls)
    return verdict


def _aggregate(
    evidence: list[Evidence],
    q: ExtExponent,
    r: ExtExponent,
    theta_suff: ExtExponent,
    theta_nec: ExtExponent,
) -> Verdict:
    sufficient_hit = any(e.holds for e in evidence if e.role == "sufficient")
    necessary_fail = any(not e.holds for e in evidence if e.role == "necessary")
    if sufficient_hit and necessary_fail:
        failing = [e.id for e in evidence if e.role == "necessary" and not e.holds]
        raise InconsistentVerdict(
            "internal inconsistency: a sufficient criterion holds while "
            f"necessary criteria {failing} fail"
        )
    if sufficient_hit:
        return Verdict(Outcome.EMBEDS, tuple(evidence))
    if necessary_fail:
        return Verdict(Outcome.DOES_NOT_EMBED, tuple(evidence))
    r_location = "in (q'', q]" if r <= q else "above q"
    note = (
        f"summability holds at l^{theta_nec} but is unresolved at "
        f"l^{theta_suff}; the borderline regime with q = {q} in (2, inf) and "
        f"r = {r} {r_location} is outside the decided range"
    )
    return Verdict(Outcome.UNDETERMINED, tuple(evidence), note)


def _cross_check(calls: list[_SummabilityCall]) -> None:
    """Check each call, in order, against the oracle; a weight and theta
    that recur (theta_suff = theta_nec when q <= 2) are run once."""
    tails: dict[tuple[ExpPolyWeight, ExtExponent], TailClassification] = {}
    for call in calls:
        key = (call.weight, call.theta)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = truncated_oracle(call.weight, call.theta)
        if tail.verdict == "Convergent" and call.verdict is Membership.NOT_MEMBER:
            raise OracleDisagreement(
                f"{call.label}: oracle tail converges at l^{call.theta} but the "
                "symbolic rule says NotMember"
            )
        if tail.verdict == "Divergent" and call.verdict is Membership.MEMBER:
            raise OracleDisagreement(
                f"{call.label}: oracle tail diverges at l^{call.theta} but the "
                "symbolic rule says Member"
            )


def decide_cb(
    family, params, *, p, r, k: int, refine: bool = True, oracle_check: bool = False
) -> Verdict:
    """Decide the embedding into C_b^k; this is the q = inf target."""
    return decide_sobolev(
        family, params, p=p, q=INF, r=r, k=k, refine=refine, oracle_check=oracle_check
    )


def decide_bv(
    family, params, *, p, r, k: int, refine: bool = True, oracle_check: bool = False
) -> Verdict:
    """Decide the embedding into the order-k bounded-variation space, k >= 1.

    The target coincides with the order-k Sobolev space over L^1, so the
    verdict is that of q = 1 with a reduction record prepended.
    """
    if _validate_order(k) < 1:
        raise InvalidParams("the bounded-variation target needs k >= 1")
    inner = decide_sobolev(
        family,
        params,
        p=p,
        q=_ONE,
        r=r,
        k=k,
        refine=refine,
        oracle_check=oracle_check,
    )
    reduction = Evidence(
        "R1",
        ANCHOR_BV_REDUCTION,
        True,
        "bounded-variation target of order k coincides with the q = 1 Sobolev target",
        "reduction",
    )
    return Verdict(inner.outcome, (reduction, *inner.evidence), inner.gap_note)


def decide(
    family,
    params,
    *,
    p,
    r,
    target: str,
    k: int,
    q=None,
    refine: bool = True,
    oracle_check: bool = False,
) -> Verdict:
    """Dispatch on the target space name; q is only meaningful for sobolev."""
    if target == "sobolev":
        if q is None:
            raise InvalidParams("target 'sobolev' needs the exponent q")
        return decide_sobolev(
            family, params, p=p, q=q, r=r, k=k, refine=refine, oracle_check=oracle_check
        )
    if q is not None:
        raise InvalidParams(f"target {target!r} does not take q")
    if target == "cb":
        return decide_cb(
            family, params, p=p, r=r, k=k, refine=refine, oracle_check=oracle_check
        )
    if target == "bv":
        return decide_bv(
            family, params, p=p, r=r, k=k, refine=refine, oracle_check=oracle_check
        )
    raise InvalidParams(f"unknown target {target!r}; expected one of {TARGETS}")
