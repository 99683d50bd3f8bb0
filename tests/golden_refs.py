"""Closed-form reference verdicts for the bundled index families.

Every function here re-derives the expected outcome for one family straight
from parameter inequalities over exact rationals.  Nothing below touches the
covering, weight, or sequence machinery, so a match with the engine means two
independent routes agree.
"""

from fractions import Fraction

from decomp_embed.exponents import INF, ExtExponent, lower_conjugate

EMB = "Embeds"
DNE = "DoesNotEmbed"
UND = "Undetermined"

_TWO = ExtExponent(2)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, list):
        return Fraction(x[0], x[1])
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def _vec(x, d: int) -> list[Fraction]:
    if isinstance(x, list):
        return [_frac(v) for v in x]
    return [_frac(x)] * d


def _inv(e: ExtExponent) -> Fraction:
    return e.reciprocal()


def _tail(q: ExtExponent, r: ExtExponent) -> Fraction:
    gap = _inv(lower_conjugate(q)) - _inv(r)
    return gap if gap > 0 else Fraction(0)


def golden_hom_besov(params, p, q, r, k):
    if p > q:
        return DNE
    if k >= 1:
        # the weight quotient grows on one tail of the two-sided lattice
        return DNE
    s = _frac(params["s"])
    a = params["d"] * (_inv(p) - _inv(q))
    if s != a:
        return DNE
    if r <= lower_conjugate(q):
        return EMB
    if q.is_inf or q <= _TWO:
        return DNE
    if r > q:
        return DNE
    if p == q and r > _TWO:
        return DNE
    return UND


def inhom_besov_threshold(params, p, q, r, k) -> Fraction:
    return k + params["d"] * (_inv(p) - _inv(q))


def alpha_modulation_threshold(params, p, q, r, k) -> Fraction:
    alpha = _frac(params["alpha"])
    return k + params["d"] * (alpha * (_inv(p) - _inv(q)) + (1 - alpha) * _tail(q, r))


def shearlet_smoothness_threshold(params, p, q, r, k) -> Fraction:
    return k + Fraction(3, 2) * (_inv(p) - _inv(q)) + Fraction(1, 2) * _tail(q, r)


def golden_inhom_besov(params, p, q, r, k):
    if p > q:
        return DNE
    s = _frac(params["s"])
    thr = inhom_besov_threshold(params, p, q, r, k)
    if s > thr:
        return EMB
    if s < thr:
        return DNE
    if r <= lower_conjugate(q):
        return EMB
    if q.is_inf or q <= _TWO:
        return DNE
    if r <= _TWO:
        return EMB
    if p == q:
        return DNE
    if r > q:
        return DNE
    return UND


def golden_alpha_modulation(params, p, q, r, k):
    if p > q:
        return DNE
    alpha = _frac(params["alpha"])
    s = _frac(params["s"])
    rhs = alpha_modulation_threshold(params, p, q, r, k)
    if s > rhs:
        return EMB
    if s < rhs:
        return DNE
    if r <= lower_conjugate(q):
        return EMB
    if q.is_inf or q <= _TWO:
        return DNE
    cut = q if (alpha == 0 and p == q) else _TWO
    if r <= cut:
        return EMB
    if r > q:
        return DNE
    return UND


def golden_shearlet_smoothness(params, p, q, r, k):
    if p > q:
        return DNE
    s = _frac(params["s"])
    thr = shearlet_smoothness_threshold(params, p, q, r, k)
    if s > thr:
        return EMB
    if s < thr:
        return DNE
    if r <= lower_conjugate(q):
        return EMB
    if q.is_inf or q <= _TWO:
        return DNE
    if r <= _TWO:
        return EMB
    if r > q:
        return DNE
    return UND


def _coorbit_member(c, beta, k, inv_theta, big_a):
    kk = Fraction(k)
    lo = max(c * beta, c * (beta - kk))
    if inv_theta == 0:
        if beta < kk:
            return False
        if c >= 1:
            return beta <= big_a <= c * (beta - kk)
        return lo <= big_a <= beta - kk
    if beta <= kk + inv_theta:
        return False
    if c >= 1:
        return beta + (c - 1) * inv_theta < big_a < c * (beta - kk)
    return lo < big_a < beta - kk - (1 - c) * inv_theta


def golden_shearlet_coorbit(params, p, q, r, k):
    if p > q:
        return DNE
    c = _frac(params["c"])
    alpha = _frac(params["alpha"])
    beta = _frac(params["beta"])
    gamma = Fraction(1, 2) - _inv(r) + _inv(p) - _inv(q)
    big_a = alpha + (1 + c) * gamma
    inv_suff = max(Fraction(0), _inv(lower_conjugate(q)) - _inv(r))
    if _coorbit_member(c, beta, k, inv_suff, big_a):
        return EMB
    if q.is_inf:
        return DNE
    inv_nec = max(Fraction(0), _inv(q) - _inv(r))
    if not _coorbit_member(c, beta, k, inv_nec, big_a):
        return DNE
    return UND


def golden_diagonal(params, p, q, r, k):
    if p > q:
        return DNE
    d = params["d"]
    alphas = _vec(params["alpha"], d)
    betas = _vec(params["beta"], d)
    gamma = _inv(q) - _inv(p) + _inv(r) - Fraction(1, 2)
    if any(a < gamma for a in alphas) or any(b > gamma - k for b in betas):
        return DNE
    if all(a > gamma for a in alphas) and all(b < gamma - k for b in betas):
        return EMB
    # equality in at least one coordinate
    if r <= lower_conjugate(q):
        return EMB
    if q.is_inf or q <= _TWO:
        return DNE
    if r > q:
        return DNE
    return UND


_GOLDEN = {
    "hom_besov": golden_hom_besov,
    "inhom_besov": golden_inhom_besov,
    "alpha_modulation": golden_alpha_modulation,
    "shearlet_smoothness": golden_shearlet_smoothness,
    "shearlet_coorbit": golden_shearlet_coorbit,
    "diagonal": golden_diagonal,
}


# per family with refined criteria: its anchor, the compared quantity and
# the threshold of that quantity
_REFINED = {
    "inhom_besov": ("Ex 7.2 (refined)", "smoothness", inhom_besov_threshold),
    "alpha_modulation": ("Ex 7.3 (refined)", "weight exponent", alpha_modulation_threshold),
    "shearlet_smoothness": ("Ex 7.4 (refined)", "smoothness", shearlet_smoothness_threshold),
}


def refined_threshold(family, params, p, q, r, k) -> Fraction:
    """The threshold of a family's refined criterion."""
    return _REFINED[family][2](params, p, q, r, k)


def golden_refined_records(family, params, p, q, r, k) -> list[tuple]:
    """The S2 and N5 records (id, anchor, holds, detail, role) of a family's
    refined criterion, from Fractions; none outside q in (2, inf).

    Both hold above the threshold, S2 only for p <= q.  At equality S2
    admits r <= 2, or r <= q in the sharp case (alpha_modulation at
    alpha = 0 and p = q), and N5 requires r <= q."""
    if q.is_inf or q <= _TWO:
        return []
    anchor, noun, _ = _REFINED[family]
    s, thr = _frac(params["s"]), refined_threshold(family, params, p, q, r, k)
    sharp = family == "alpha_modulation" and _frac(params["alpha"]) == 0 and p == q
    word = "above" if s > thr else "at" if s == thr else "below"
    suff = p <= q and (s > thr or (s == thr and r <= (q if sharp else _TWO)))
    nec = s > thr or (s == thr and r <= q)
    head = f"{noun} {word} threshold {thr}; "
    return [
        ("S2", anchor, suff, f"{head}equality admits r <= {'q' if sharp else '2'}", "sufficient"),
        ("N5", anchor, nec, f"{head}equality requires r <= q", "necessary"),
    ]


def golden_verdict(family, params, *, p, q=None, r, k, target="sobolev"):
    if target == "cb":
        q = INF
    elif target == "bv":
        q = ExtExponent(1)
    return _GOLDEN[family](params, p, q, r, k)
