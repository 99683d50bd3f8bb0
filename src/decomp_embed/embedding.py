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

A (q, r) cell is read as reciprocal int pairs.  p, q and r are parsed once
(a literal string through the literal memo of :mod:`decomp_embed.exponents`)
into 1/p, 1/q and 1/r as reduced pairs (numerator, positive denominator),
1/inf = (0, 1).  Every gap and every 1/theta a verdict reads is affine in
them, clamped at 0, and every comparison is an integer cross product.  Each
quotient w^(t)/u(r) is a family's quotient form, whose exponents are affine
in the gaps 1/p - 1/t and 1/2 - 1/r, evaluated at the cell's gaps with
t = q, p and 2, and decided on the form's integer coefficients without
building a weight.  An :class:`ExtExponent` or a ``Fraction`` appears only
in the refined criteria's thresholds and under the oracle check; the
evidence text is made from the pairs.  Parsed params and forms are kept
across calls in a bounded LRU cache, keyed by the family, the canonical JSON
text of the params document (or the parsed params themselves) and k, so a
(q, r) sweep parses and compiles once.

The optional oracle check builds each weight and theta a verdict read,
checks the compiled verdict against :func:`decide_lp_membership` on them (a
mismatch raises :class:`InconsistentVerdict`), and reruns every summability
call through the numeric tail oracle on truncated windows, once per
distinct weight and exponent; it raises :class:`OracleDisagreement` if the
two routes ever contradict each other.
"""

from __future__ import annotations

import enum
import functools
import json
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import InconsistentVerdict, InvalidParams, OracleDisagreement
from .exponents import (
    INF,
    ExtExponent,
    Pair,
    clamped,
    conjugate_pair,
    exponent_text,
    from_reciprocal,
    lower_conjugate_pair,
    pair_le,
    pair_sub,
    reciprocal_pair,
)
from .families import Family, get_family
from .seqspace import (ExpPolyWeight, Membership, decide_lp_membership, decide_reciprocal,
                       record, refuse_unsupported)

__all__ = [
    "Outcome",
    "Evidence",
    "Verdict",
    "decide",
    "decide_sobolev",
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
_MEMBERSHIP_ANCHORS = {
    "S1": ANCHOR_SUFFICIENT,
    "N2": ANCHOR_NECESSARY,
    "N2b": ANCHOR_NECESSARY_SUP,
    "N3": ANCHOR_KHINTCHINE_P,
    "N4": ANCHOR_KHINTCHINE_2,
}

_ONE = ExtExponent(1)
_HALF = (1, 2)
# bound of the cache of parsed params and quotient forms (see _compiled)
FORM_MEMO_SIZE = 16


class Outcome(str, enum.Enum):
    EMBEDS = "Embeds"
    DOES_NOT_EMBED = "DoesNotEmbed"
    UNDETERMINED = "Undetermined"


@record
class Evidence(NamedTuple):
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


@record
class Verdict(NamedTuple):
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


class _Reciprocals(NamedTuple):
    """One (p, q, r) as a verdict reads it: 1/p, 1/q and 1/r, the gaps
    dp = 1/p - 1/q and g = 1/2 - 1/r, and 1/theta of each membership
    criterion (``n34`` for N3 and N4), each a reduced int pair with
    1/inf = (0, 1); and the comparisons.  The refined criteria read it too.
    """

    p: Pair
    q: Pair
    r: Pair
    dp: Pair
    g: Pair
    s1: Pair
    n2: Pair
    n2b: Pair
    n34: Pair
    p_le_q: bool
    r_le_q: bool
    two_le_q: bool


def _reciprocals(p, q, r) -> _Reciprocals:
    """Parse p, q and r once, then every gap and 1/theta is an affine
    function of their reciprocals clamped at 0: 1/q'' - 1/r for S1 (q'' the
    lower conjugate), 1/q - 1/r for N2, 1 - 1/r for N2b (theta = r') and
    1/2 - 1/r for N3 and N4."""
    xp, xq, xr = reciprocal_pair(p), reciprocal_pair(q), reciprocal_pair(r)
    g = pair_sub(_HALF, xr)
    return _Reciprocals(
        xp, xq, xr, pair_sub(xp, xq), g,
        clamped(pair_sub(lower_conjugate_pair(xq), xr)), clamped(pair_sub(xq, xr)),
        conjugate_pair(xr), clamped(g),
        pair_le(xq, xp), pair_le(xq, xr), pair_le(xq, _HALF),
    )


class _Cell(NamedTuple):
    """A quotient form at one (dp, g), both int pairs: the exponent pairs
    the rules read, and what builds the weight when the oracle check needs
    it."""

    form: ExpPolyWeight
    dp: Pair
    g: Pair
    exponents: list


def _cell(form: ExpPolyWeight, dp: Pair, g: Pair) -> _Cell:
    return _Cell(form, dp, g, form.pairs_at(dp, g))


class _SummabilityCall(NamedTuple):
    """One symbolic membership decision, kept for the oracle cross-check;
    ``x`` is 1/theta."""

    label: str
    cell: _Cell
    x: Pair
    verdict: Membership


def _is_order(k) -> bool:
    return isinstance(k, int) and not isinstance(k, bool) and k >= 0


def _validate_order(k: int) -> int:
    if not _is_order(k):
        raise InvalidParams("smoothness order k must be a nonnegative integer")
    return k


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
    int past the digit limit, nesting past the recursion limit) or that
    holds other types (a tuple, which encodes like a list, a non-string
    key), which is parsed uncached."""
    try:
        text = _KEY_ENCODER.encode(doc)
        return text if _plain_json(doc) else None
    except (TypeError, ValueError, RecursionError):
        return None


def _compile(fam: Family, params, k: int) -> tuple:
    form = refuse_unsupported(fam.quotient_form(params, k))
    kform = fam.khintchine_quotient(form)
    return fam, params, form, None if kform is None else refuse_unsupported(kform)


@functools.lru_cache(maxsize=FORM_MEMO_SIZE)
def _compiled_memo(fam: Family, key, k: int) -> tuple:
    # a failed parse raises, and lru_cache keeps nothing for it
    return _compile(fam, fam.parse_params(json.loads(key)) if type(key) is str else key, k)


def _compiled(family, params, k) -> tuple:
    """(family, parsed params, quotient form, Khintchine-restricted form or
    None), from the bounded cache when the params have a key: parsed params
    (of the family's ``params_type``) themselves, or :func:`_params_key` of a
    document.

    An invalid k leaves both forms None; the caller reports it after the
    exponents, so errors keep their order: family, params, exponents, k.
    """
    fam = get_family(family) if isinstance(family, str) else family
    if not isinstance(fam, Family):
        raise InvalidParams(f"not a family: {family!r}")
    parsed = isinstance(params, fam.params_type)
    key = params if parsed else _params_key(params)
    if key is not None and _is_order(k):
        return _compiled_memo(fam, key, k)
    if not parsed:
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
    x = _reciprocals(p, q, r)
    k = _validate_order(k)

    holds = "holds" if x.p_le_q else "fails"
    evidence = [
        Evidence(
            "N1",
            ANCHOR_P_LE_Q,
            x.p_le_q,
            f"p <= q {holds} for p = {exponent_text(x.p)}, q = {exponent_text(x.q)}",
            "necessary",
        )
    ]

    # each quotient reads r only through g = 1/2 - 1/r, and t = q, p or 2
    # only through 1/p - 1/t; per criterion its cell, 1/theta, the text
    # before its verdict, and what else it requires
    quotient_q = _cell(form, x.dp, x.g)
    asked = [
        ("S1", quotient_q, x.s1, f"requires p <= q ({holds}); w(q)/u", x.p_le_q),
        ("N2", quotient_q, x.n2, "w(q)/u", True),
    ]
    if not x.q[0]:  # q = inf
        asked.append(("N2b", quotient_q, x.n2b, "w(inf)/u", True))
    elif kform is not None:
        asked.append(("N3", _cell(kform, (0, 1), x.g), x.n34, "w(p)/u on the expanding part", True))
        if x.two_le_q:
            kq_2 = _cell(kform, pair_sub(x.p, _HALF), x.g)
            asked.append(("N4", kq_2, x.n34, "w(2)/u on the expanding part", True))
    calls: list[_SummabilityCall] = []
    for ev_id, cell, recip, what, ok in asked:
        member = decide_reciprocal(cell.exponents, recip)
        calls.append(_SummabilityCall(ev_id, cell, recip, member))
        evidence.append(
            Evidence(
                ev_id,
                _MEMBERSHIP_ANCHORS[ev_id],
                ok and member is Membership.MEMBER,
                f"{what} is {member.value} of l^{exponent_text(recip)}",
                "sufficient" if ev_id == "S1" else "necessary",
            )
        )

    if refine:
        evidence.extend(Evidence(**item) for item in fam.refined_criteria(params, k, x))

    verdict = _aggregate(evidence, x)
    if oracle_check:
        _cross_check(calls)
    return verdict


def _aggregate(evidence: list[Evidence], x: _Reciprocals) -> Verdict:
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
    r_location = "in (q'', q]" if x.r_le_q else "above q"
    note = (
        f"summability holds at l^{exponent_text(x.n2)} but is unresolved at "
        f"l^{exponent_text(x.s1)}; the borderline regime with q = {exponent_text(x.q)} "
        f"in (2, inf) and r = {exponent_text(x.r)} {r_location} is outside the "
        "decided range"
    )
    return Verdict(Outcome.UNDETERMINED, tuple(evidence), note)


def _cross_check(calls: list[_SummabilityCall]) -> None:
    """Check each call, in order: build its weight and theta, the weight
    must get the compiled verdict from :func:`decide_lp_membership`, and put
    both to the oracle; a weight and theta that recur (theta_suff =
    theta_nec when q <= 2) are run once."""
    from . import oracle

    built_of: dict[int, ExpPolyWeight] = {}  # S1, N2 and N2b share one cell
    tails: dict[tuple[ExpPolyWeight, ExtExponent], oracle.TailClassification] = {}
    for call in calls:
        cell, theta = call.cell, from_reciprocal(call.x)
        weight = built_of.get(id(cell))
        if weight is None:
            weight = built_of[id(cell)] = cell.form.at(Fraction(*cell.dp), Fraction(*cell.g))
        built = decide_lp_membership(weight, theta)
        if built is not call.verdict:
            raise InconsistentVerdict(
                f"{call.label}: the compiled form says {call.verdict.value} at "
                f"l^{theta} but its built weight is {built.value}"
            )
        key = (weight, theta)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = oracle.truncated_oracle(weight, theta)
        if tail.verdict == "Convergent" and call.verdict is Membership.NOT_MEMBER:
            raise OracleDisagreement(
                f"{call.label}: oracle tail converges at l^{theta} but the "
                "symbolic rule says NotMember"
            )
        if tail.verdict == "Divergent" and call.verdict is Membership.MEMBER:
            raise OracleDisagreement(
                f"{call.label}: oracle tail diverges at l^{theta} but the "
                "symbolic rule says Member"
            )


_BV_REDUCTION = Evidence(
    "R1",
    ANCHOR_BV_REDUCTION,
    True,
    "bounded-variation target of order k coincides with the q = 1 Sobolev target",
    "reduction",
)


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
    """Decide the embedding into the target space named by ``target``.

    ``sobolev`` is the order-k Sobolev space over L^q and the only target
    that takes q.  ``cb`` is C_b^k, the q = inf case.  ``bv`` is the order-k
    bounded-variation space, k >= 1, which coincides with the q = 1 case:
    its verdict is that of q = 1 with a reduction record prepended.
    """
    if target == "sobolev":
        if q is None:
            raise InvalidParams("target 'sobolev' needs the exponent q")
    elif q is not None:
        raise InvalidParams(f"target {target!r} does not take q")
    elif target == "cb":
        q = INF
    elif target == "bv":
        if _validate_order(k) < 1:
            raise InvalidParams("the bounded-variation target needs k >= 1")
        q = _ONE
    else:
        raise InvalidParams(f"unknown target {target!r}; expected one of {TARGETS}")
    verdict = decide_sobolev(
        family, params, p=p, q=q, r=r, k=k, refine=refine, oracle_check=oracle_check
    )
    if target != "bv":
        return verdict
    return Verdict(verdict.outcome, (_BV_REDUCTION, *verdict.evidence), verdict.gap_note)
