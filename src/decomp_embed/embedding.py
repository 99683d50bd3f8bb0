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
in the gaps 1/p - 1/t and 1/2 - 1/r, decided at the cell's gaps with
t = q, p and 2 by the form's compiled membership test, without building a
weight: the test evaluates only the exponents that depend on the gaps, once
for S1, N2 and N2b.  An :class:`ExtExponent` or a ``Fraction`` appears only
in the refined criteria's thresholds and under the oracle check; the
evidence text is made from the pairs.  Parsed params and forms are kept
across calls in a bounded LRU cache, keyed by the family, the typed items
of the params document (or the parsed params themselves) and k, so a
(q, r) sweep parses and compiles once.  What (q, r) alone gives, g, every
1/theta and their texts, is kept per (1/q, 1/r), and each kept
Khintchine-restricted form keeps its N3 and N4 verdicts per
(dp, g, 1/theta): within a sweep these two depend on r alone.  A call
computes only what reads p, the S1, N2 and N2b verdicts, the refined
criteria and the evidence.

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
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

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
from .seqspace import ExpPolyWeight, Membership, decide_lp_membership, record, refuse_unsupported

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
_NO_GAP = (0, 1)
# bound of the cache of parsed params and quotient forms (see _compiled)
FORM_MEMO_SIZE = 16
# bound of the memo of what (q, r) alone gives (see _of_q_and_r): a sweep's
# 7 x 8 (q, r) grid with its C_b and BV rows fits
QR_MEMO_SIZE = 128
# bound of each form-cache entry's kept N3 and N4 verdicts (see _Khintchine):
# both criteria at 16 values of r
KHINTCHINE_MEMO_SIZE = 32


class Outcome(str, enum.Enum):
    EMBEDS = "Embeds"
    DOES_NOT_EMBED = "DoesNotEmbed"
    UNDETERMINED = "Undetermined"


# members read once: each read of an enum member goes through a descriptor
_EMBEDS, _DOES_NOT_EMBED, _UNDETERMINED = Outcome
_MEMBER = Membership.MEMBER
_MEMBERSHIP_TEXT = {member: member.value for member in Membership}


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
    1/inf = (0, 1); the comparisons; and the texts of q and of each
    criterion's theta, by evidence id.  The refined criteria read it too.
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
    q_text: str
    theta_text: dict


@functools.lru_cache(maxsize=QR_MEMO_SIZE)
def _of_q_and_r(xq: Pair, xr: Pair) -> tuple:
    """g and every 1/theta, each an affine function of 1/q and 1/r clamped
    at 0: 1/q'' - 1/r for S1 (q'' the lower conjugate), 1/q - 1/r for N2,
    1 - 1/r for N2b (theta = r') and 1/2 - 1/r for N3 and N4; then r <= q
    and 2 <= q, and the texts of q and of each theta.  Kept per (1/q, 1/r),
    the int pairs of the parse."""
    g = pair_sub(_HALF, xr)
    s1, n2, n2b, n34 = (clamped(pair_sub(lower_conjugate_pair(xq), xr)),
                        clamped(pair_sub(xq, xr)), conjugate_pair(xr), clamped(g))
    n34_text = exponent_text(n34)
    texts = {"S1": exponent_text(s1), "N2": exponent_text(n2), "N2b": exponent_text(n2b),
             "N3": n34_text, "N4": n34_text}
    return (g, s1, n2, n2b, n34, pair_le(xq, xr), pair_le(xq, _HALF), exponent_text(xq), texts)


def _reciprocals(p, q, r) -> _Reciprocals:
    """Parse p, q and r once; what reads p is computed on every call, the
    rest read from the memo of (q, r)."""
    xp, xq, xr = reciprocal_pair(p), reciprocal_pair(q), reciprocal_pair(r)
    g, s1, n2, n2b, n34, r_le_q, two_le_q, q_text, theta_text = _of_q_and_r(xq, xr)
    return _Reciprocals(xp, xq, xr, pair_sub(xp, xq), g, s1, n2, n2b, n34,
                        pair_le(xq, xp), r_le_q, two_le_q, q_text, theta_text)


class _Khintchine(NamedTuple):
    """A Khintchine-restricted form and ``verdict(dp, g, x)``, its membership
    at the gaps (dp, g) in l^theta with 1/theta = x, all int pairs, kept in
    a bounded LRU that lives and goes with the form-cache entry: within a
    sweep N3 and N4 read it once per r."""

    form: ExpPolyWeight
    verdict: Callable[[Pair, Pair, Pair], Membership]


def _khintchine(kform: ExpPolyWeight) -> _Khintchine:
    test = kform.membership_test()
    return _Khintchine(kform, functools.lru_cache(maxsize=KHINTCHINE_MEMO_SIZE)(
        lambda dp, g, x: test.at(dp, g)(x)))


class _SummabilityCall(NamedTuple):
    """One symbolic membership decision, kept for the oracle cross-check:
    the form at the gaps (dp, g) in l^theta with 1/theta = ``x``."""

    label: str
    form: ExpPolyWeight
    dp: Pair
    g: Pair
    x: Pair
    verdict: Membership


def _is_order(k) -> bool:
    return isinstance(k, int) and not isinstance(k, bool) and k >= 0


def _validate_order(k: int) -> int:
    if not _is_order(k):
        raise InvalidParams("smoothness order k must be a nonnegative integer")
    return k


_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def _params_key(doc) -> Optional[tuple]:
    """The cache key of a params document of str keys whose values are JSON
    scalars or lists of them: its (key, type, value) items, sorted, a
    list's value its entries as (type, value) pairs.  The type keeps 1,
    1.0, true and "1" apart; 0.0 and -0.0 share a key, which every parser
    reads as the Fraction 0, and a NaN equals only itself.  None for any
    other document (a tuple, a subclass, a dict or a nested list, a
    non-string key), which is parsed uncached."""
    if type(doc) is not dict:
        return None
    items = []
    for key, val in doc.items():
        if type(key) is not str:
            return None
        kind = type(val)
        if kind is list:
            val = tuple([(type(entry), entry) for entry in val])
            if not all(entry_kind in _JSON_SCALARS for entry_kind, _ in val):
                return None
        elif kind not in _JSON_SCALARS:
            return None
        items.append((key, kind, val))
    items.sort()
    return tuple(items)


def _compile(fam: Family, params, k: int) -> tuple:
    form = refuse_unsupported(fam.quotient_form(params, k))
    kform = fam.khintchine_quotient(form)
    return fam, params, form, None if kform is None else _khintchine(refuse_unsupported(kform))


@functools.lru_cache(maxsize=FORM_MEMO_SIZE)
def _compiled_memo(fam: Family, key, k: int) -> tuple:
    # a failed parse raises, and lru_cache keeps nothing for it
    if type(key) is tuple:  # a document's key, not parsed params
        key = fam.parse_params({name: [entry for _, entry in val] if kind is list else val
                                for name, kind, val in key})
    return _compile(fam, key, k)


def _compiled(family, params, k) -> tuple:
    """(family, parsed params, quotient form, :class:`_Khintchine` of the
    restricted form or None), from the bounded cache when the params have a
    key: parsed params (of the family's ``params_type``) themselves, or
    :func:`_params_key` of a document.

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
    fam, params, form, khintchine = _compiled(family, params, k)
    x = _reciprocals(p, q, r)
    k = _validate_order(k)

    holds = "holds" if x.p_le_q else "fails"
    evidence = [
        Evidence(
            "N1",
            ANCHOR_P_LE_Q,
            x.p_le_q,
            f"p <= q {holds} for p = {exponent_text(x.p)}, q = {x.q_text}",
            "necessary",
        )
    ]

    # each quotient reads r only through g = 1/2 - 1/r, and t = q, p or 2
    # only through dp = 1/p - 1/t; per criterion its form, dp, 1/theta,
    # verdict, the text before the verdict, and what else it requires;
    # S1, N2 and N2b read one evaluation of the form's test at (dp, g)
    g = x.g
    member_of = form.membership_test().at(x.dp, g)
    asked = [
        ("S1", form, x.dp, x.s1, member_of(x.s1), f"requires p <= q ({holds}); w(q)/u", x.p_le_q),
        ("N2", form, x.dp, x.n2, member_of(x.n2), "w(q)/u", True),
    ]
    if not x.q[0]:  # q = inf
        asked.append(("N2b", form, x.dp, x.n2b, member_of(x.n2b), "w(inf)/u", True))
    elif khintchine is not None:
        kform, verdict = khintchine
        asked.append(("N3", kform, _NO_GAP, x.n34, verdict(_NO_GAP, g, x.n34),
                      "w(p)/u on the expanding part", True))
        if x.two_le_q:
            dp_2 = pair_sub(x.p, _HALF)
            asked.append(("N4", kform, dp_2, x.n34, verdict(dp_2, g, x.n34),
                          "w(2)/u on the expanding part", True))
    for ev_id, _, _, _, member, what, ok in asked:
        evidence.append(
            Evidence(
                ev_id,
                _MEMBERSHIP_ANCHORS[ev_id],
                ok and member is _MEMBER,
                f"{what} is {_MEMBERSHIP_TEXT[member]} of l^{x.theta_text[ev_id]}",
                "sufficient" if ev_id == "S1" else "necessary",
            )
        )

    if refine:
        evidence.extend(Evidence(**item) for item in fam.refined_criteria(params, k, x))

    verdict = _aggregate(evidence, x)
    if oracle_check:
        _cross_check([_SummabilityCall(ev_id, qform, dp, g, recip, member)
                      for ev_id, qform, dp, recip, member, _, _ in asked])
    return verdict


def _aggregate(evidence: list[Evidence], x: _Reciprocals) -> Verdict:
    sufficient_hit = necessary_fail = False
    for e in evidence:
        if e.holds:
            sufficient_hit = sufficient_hit or e.role == "sufficient"
        elif e.role == "necessary":
            necessary_fail = True
    if sufficient_hit and necessary_fail:
        failing = [e.id for e in evidence if e.role == "necessary" and not e.holds]
        raise InconsistentVerdict(
            "internal inconsistency: a sufficient criterion holds while "
            f"necessary criteria {failing} fail"
        )
    if sufficient_hit:
        return Verdict(_EMBEDS, tuple(evidence))
    if necessary_fail:
        return Verdict(_DOES_NOT_EMBED, tuple(evidence))
    r_location = "in (q'', q]" if x.r_le_q else "above q"
    note = (
        f"summability holds at l^{x.theta_text['N2']} but is unresolved at "
        f"l^{x.theta_text['S1']}; the borderline regime with q = {x.q_text} "
        f"in (2, inf) and r = {exponent_text(x.r)} {r_location} is outside the "
        "decided range"
    )
    return Verdict(_UNDETERMINED, tuple(evidence), note)


def _cross_check(calls: list[_SummabilityCall]) -> None:
    """Check each call, in order: build its weight and theta, the weight
    must get the compiled verdict from :func:`decide_lp_membership`, and put
    both to the oracle, whose memo runs a weight and theta that recur
    (theta_suff = theta_nec when q <= 2) once."""
    from . import oracle

    built_of: dict[tuple, ExpPolyWeight] = {}  # S1, N2 and N2b share one form and dp
    for call in calls:
        theta, key = from_reciprocal(call.x), (id(call.form), call.dp)
        weight = built_of.get(key)
        if weight is None:
            weight = built_of[key] = call.form.at(Fraction(*call.dp), Fraction(*call.g))
        built = decide_lp_membership(weight, theta)
        if built is not call.verdict:
            raise InconsistentVerdict(
                f"{call.label}: the compiled form says {call.verdict.value} at "
                f"l^{theta} but its built weight is {built.value}"
            )
        tail = oracle.truncated_oracle(weight, theta)
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
