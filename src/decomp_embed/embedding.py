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

Each quotient w^(t)/u(r) a verdict reads is a family's quotient form, whose
exponents are affine in the gaps 1/p - 1/t and 1/2 - 1/r, evaluated at the
cell's gaps with t = q, p and 2.  A cell is decided on the form's integer
coefficients and builds no weight.  The one thing kept across calls is a
bounded LRU cache of the parsed params and forms, keyed by the family, the
canonical JSON text of the params document (or the parsed params
themselves) and k, so a (q, r) sweep parses and compiles once.

The optional oracle check builds each weight a verdict read, checks the
compiled verdict against :func:`decide_lp_membership` on it (a mismatch
raises :class:`InconsistentVerdict`), and reruns every summability call
through the numeric tail oracle on truncated windows, once per distinct
weight and exponent; it raises :class:`OracleDisagreement` if the two routes
ever contradict each other.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, is_dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import InconsistentVerdict, InvalidParams, OracleDisagreement
from .exponents import (
    INF,
    ExtExponent,
    compound,
    conjugate,
    lower_conjugate,
    reciprocal_gap,
)
from .families import Family, get_family
from .seqspace import (
    ExpPolyWeight,
    Membership,
    QuotientForm,
    TailClassification,
    decide_exponents,
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
_ZERO = Fraction(0)
# bound of the cache of parsed params and quotient forms (see _compiled)
FORM_MEMO_SIZE = 16


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


class _Cell(NamedTuple):
    """A quotient form at one (dp, g): the exponent pairs the rules read,
    and what builds the weight when the oracle check needs it."""

    form: QuotientForm
    dp: Fraction
    g: Fraction
    exponents: list


def _cell(form: QuotientForm, dp: Fraction, g: Fraction) -> _Cell:
    return _Cell(form, dp, g, form.exponents(dp, g))


class _SummabilityCall(NamedTuple):
    """One symbolic membership decision, kept for the oracle cross-check."""

    label: str
    cell: _Cell
    theta: ExtExponent
    verdict: Membership


def _membership_evidence(
    ev_id: str,
    anchor: str,
    role: str,
    cell: _Cell,
    theta: ExtExponent,
    what: str,
    calls: list[_SummabilityCall],
    *,
    extra_ok: bool = True,
    extra_note: str = "",
) -> Evidence:
    member = decide_exponents(cell.exponents, theta)
    calls.append(_SummabilityCall(ev_id, cell, theta, member))
    holds = extra_ok and member is Membership.MEMBER
    detail = f"{what} is {member.value} of l^{theta}"
    if extra_note:
        detail = f"{extra_note}; {detail}"
    return Evidence(ev_id, anchor, holds, detail, role)


def _is_order(k) -> bool:
    return isinstance(k, int) and not isinstance(k, bool) and k >= 0


def _validate_order(k: int) -> int:
    if not _is_order(k):
        raise InvalidParams("smoothness order k must be a nonnegative integer")
    return k


def _exponent(value) -> ExtExponent:
    """Coerce an exponent argument once; an ExtExponent passes through."""
    return value if isinstance(value, ExtExponent) else ExtExponent(value)


_JSON_SCALARS = (str, int, float, bool, type(None))
# the encoder json.dumps(doc, sort_keys=True) builds on every call, built once
_KEY_ENCODER = json.JSONEncoder(sort_keys=True)


def _plain_json(obj) -> bool:
    """Whether a document is built from JSON types alone, subclasses excluded."""
    kind = type(obj)
    if kind is dict:
        return all(type(key) is str and _plain_json(val) for key, val in obj.items())
    if kind is list:
        return all(map(_plain_json, obj))
    return kind in _JSON_SCALARS


def _params_key(doc) -> Optional[str]:
    """The cache key of a params document: its ``json.dumps`` text with
    sorted keys, which tells 1, 1.0, true and "1" apart.  None for a
    document JSON cannot encode (a Fraction, mixed key types, a cycle, an
    int past the digit limit) or that holds other types (a tuple, which
    encodes like a list, a non-string key), which is parsed uncached."""
    try:
        text = _KEY_ENCODER.encode(doc)
    except (TypeError, ValueError):
        return None
    return text if _plain_json(doc) else None


def _compile(fam: Family, params, k: int) -> tuple:
    form = fam.quotient_form(params, k)
    return fam, params, form, fam.khintchine_quotient(form)


@functools.lru_cache(maxsize=FORM_MEMO_SIZE)
def _compiled_memo(fam: Family, key, k: int) -> tuple:
    # a failed parse raises, and lru_cache keeps nothing for it
    return _compile(fam, fam.parse_params(json.loads(key)) if type(key) is str else key, k)


def _compiled(family, params, k) -> tuple:
    """(family, parsed params, quotient form, Khintchine-restricted form or
    None), from the bounded cache when the params have a key: the parsed
    params dataclass itself, or :func:`_params_key` of a document.

    An invalid k leaves both forms None; the caller reports it after the
    exponents, so errors keep their order: family, params, exponents, k.
    """
    fam = get_family(family) if isinstance(family, str) else family
    if not isinstance(fam, Family):
        raise InvalidParams(f"not a family: {family!r}")
    key = params if is_dataclass(params) else _params_key(params)
    if key is not None and _is_order(k):
        return _compiled_memo(fam, key, k)
    if not is_dataclass(params):
        params = fam.parse_params(params)
    return _compile(fam, params, k) if _is_order(k) else (fam, params, None, None)


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
    fam, params, form, kform = _compiled(family, params, k)
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

    # each quotient reads r only through g = 1/2 - 1/r, and t = q, p or 2
    # only through 1/p - 1/t
    g = reciprocal_gap(_TWO, r)
    quotient_q = _cell(form, reciprocal_gap(p, q), g)
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

    if not q.is_inf and kform is not None:
        theta_k = compound(_TWO, r)
        kq_p = _cell(kform, _ZERO, g)
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
            kq_2 = _cell(kform, reciprocal_gap(p, _TWO), g)
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
        evidence.extend(Evidence(**item) for item in fam.refined_criteria(params, k, p, q, r))

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
    """Check each call, in order: build its weight, which must get the
    compiled verdict from :func:`decide_lp_membership`, and put it to the
    oracle; a weight and theta that recur (theta_suff = theta_nec when
    q <= 2) are run once."""
    built_of: dict[int, ExpPolyWeight] = {}  # S1, N2 and N2b share one cell
    tails: dict[tuple[ExpPolyWeight, ExtExponent], TailClassification] = {}
    for call in calls:
        cell = call.cell
        weight = built_of.get(id(cell))
        if weight is None:
            weight = built_of[id(cell)] = cell.form.at(cell.dp, cell.g)
        built = decide_lp_membership(weight, call.theta)
        if built is not call.verdict:
            raise InconsistentVerdict(
                f"{call.label}: the compiled form says {call.verdict.value} at "
                f"l^{call.theta} but its built weight is {built.value}"
            )
        key = (weight, call.theta)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = truncated_oracle(weight, call.theta)
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
