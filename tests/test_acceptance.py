"""Acceptance gate: one test per headline guarantee.

Each test prints nothing on success and fails with a counted summary, so
the -v report reads as one pass/fail line per guarantee.
"""

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

from decomp_embed.cli import main as cli_main
from decomp_embed.covering import (
    certify_constants,
    neighbors,
    spectral_norm,
)
from decomp_embed.embedding import Outcome, decide, decide_sobolev
from decomp_embed.exponents import (
    INF,
    ExtExponent,
    compound,
    conjugate,
    lower_conjugate,
)
from decomp_embed.families import get_family
from decomp_embed.seqspace import (
    Atom,
    CoordFactor,
    ExpPolyWeight,
    LineSector,
    Membership,
    ProductSector,
    decide_lp_membership,
)
from decomp_embed.oracle import pow2f, truncated_oracle

from golden_refs import golden_verdict
from test_embedding import (
    ALPHA_CASES,
    COORBIT_BV_CASES,
    DIAGONAL_CASES,
    HOM_CASES,
    INHOM_CASES,
    SHEARLET_CASES,
)
from witnesses import holder_constant, iter_points, sequence_norm, witness_norm_ratios

GOLDEN_DIR = Path(__file__).parent / "golden"

GRID = [
    ExtExponent(Fraction(1, 2)),
    ExtExponent(1),
    ExtExponent(Fraction(3, 2)),
    ExtExponent(2),
    ExtExponent(3),
    INF,
]
KS = (0, 1, 2)


def test_acceptance_1_exponent_identities():
    rng = random.Random(101)
    pool = [Fraction(rng.randint(1, 48), rng.randint(1, 16)) for _ in range(400)]
    checked = 0
    for _ in range(10_000):
        p = INF if rng.random() < 0.1 else ExtExponent(rng.choice(pool))
        s = INF if rng.random() < 0.1 else ExtExponent(rng.choice(pool))
        r = INF if rng.random() < 0.1 else ExtExponent(rng.choice(pool))
        pc = conjugate(p)
        if p >= ExtExponent(1):
            assert p.reciprocal() + pc.reciprocal() == 1
            assert conjugate(pc) == p
        else:
            assert pc.is_inf
        low = lower_conjugate(p)
        assert low == min(p, pc)
        assert low <= ExtExponent(2)
        assert lower_conjugate(conjugate(p)) <= ExtExponent(2)
        comp = compound(s, r)
        gap = s.reciprocal() - r.reciprocal()
        assert comp.reciprocal() == max(Fraction(0), gap)
        assert comp.is_inf == (r <= s)
        for e in (p, s, r, comp):
            assert ExtExponent.from_json(e.to_json()) == e
        checked += 1
    assert checked == 10_000


def _line_weight(domain: str, rate: Fraction) -> ExpPolyWeight:
    return ExpPolyWeight.single(LineSector(domain), Atom.line(rate))


def test_acceptance_2_sequence_embedding_characterization():
    rng = random.Random(202)
    pool = [ExtExponent(Fraction(1, 2)), ExtExponent(1), ExtExponent(Fraction(3, 2)),
            ExtExponent(2), ExtExponent(3), INF]
    embed_count = fail_count = 0
    for _ in range(200):
        domain = rng.choice(["N0", "N0", "Nneg", "Z"])
        b = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
        delta = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
        s_exp, r_exp = rng.choice(pool), rng.choice(pool)
        theta = compound(s_exp, r_exp)
        if delta == 0 and not theta.is_inf and theta > ExtExponent(3):
            # a flat quotient diverges through window counting alone; keep
            # the counting rate above the 1.2-per-doubling growth gate
            r_exp = s_exp
        u = _line_weight(domain, b + delta)
        v = _line_weight(domain, b)
        if decide_lp_membership(u.quotient(v), compound(s_exp, r_exp)) is Membership.MEMBER:
            embed_count += 1
            const = holder_constant(u, v, r_exp, s_exp, 8)
            points = list(iter_points(u, 8))
            for _ in range(3):
                support = rng.sample(points, k=min(6, len(points)))
                vals = {pt: rng.uniform(-2.0, 2.0) for pt in support}
                lhs = sequence_norm(vals, u, s_exp)
                rhs = const * sequence_norm(vals, v, r_exp)
                assert lhs <= rhs * (1.0 + 1e-9)
        else:
            fail_count += 1
            ratios = [val for _, val in witness_norm_ratios(u, v, r_exp, s_exp, (4, 8, 16))]
            assert ratios[1] >= 1.2 * ratios[0], (domain, str(b), str(delta))
            assert ratios[2] >= 1.2 * ratios[1], (domain, str(b), str(delta))
    assert embed_count + fail_count == 200
    assert embed_count >= 40 and fail_count >= 40


def _grid_outcomes(family, param_lists):
    """Engine-vs-reference comparison; returns mismatches and seen outcomes."""
    mismatches = []
    seen = set()
    for p, q, r, k in product(GRID, GRID, GRID, KS):
        for params in param_lists(p, q, r, k):
            got = decide_sobolev(family, params, p=p, q=q, r=r, k=k).outcome.value
            want = golden_verdict(family, params, p=p, q=q, r=r, k=k)
            seen.add(got)
            if got != want:
                mismatches.append((family, params, str(p), str(q), str(r), k, got, want))
    return mismatches, seen


def test_acceptance_3_golden_grid():
    offsets = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))

    def rinv(e):
        return e.reciprocal()

    def hom(p, q, r, k):
        for d in (1, 2):
            base = d * (rinv(p) - rinv(q))
            for off in offsets:
                yield {"d": d, "s": str(base + off)}

    def inhom(p, q, r, k):
        for d in (1, 2):
            base = k + d * (rinv(p) - rinv(q))
            for off in offsets:
                yield {"d": d, "s": str(base + off)}

    def alpha_mod(p, q, r, k):
        tail = max(Fraction(0), rinv(lower_conjugate(q)) - rinv(r))
        for d in (1, 2):
            for alpha in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
                base = k + d * (alpha * (rinv(p) - rinv(q)) + (1 - alpha) * tail)
                for off in offsets:
                    yield {"d": d, "alpha": str(alpha), "s": str(base + off)}

    def shear(p, q, r, k):
        tail = max(Fraction(0), rinv(lower_conjugate(q)) - rinv(r))
        base = k + Fraction(3, 2) * (rinv(p) - rinv(q)) + Fraction(1, 2) * tail
        for off in offsets:
            yield {"s": str(base + off)}

    def coorbit(p, q, r, k):
        gamma = Fraction(1, 2) - rinv(r) + rinv(p) - rinv(q)
        for c in (Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)):
            for beta in (Fraction(k), Fraction(k) + 2):
                if c >= 1:
                    lo, hi = beta, c * (beta - k)
                else:
                    lo, hi = max(c * beta, c * (beta - k)), beta - k
                targets = {lo - 1, lo, (lo + hi) / 2, hi, hi + Fraction(1, 8)}
                for t in targets:
                    yield {
                        "c": str(c),
                        "alpha": str(t - (1 + c) * gamma),
                        "beta": str(beta),
                    }

    def diagonal(p, q, r, k):
        gamma = rinv(q) - rinv(p) + rinv(r) - Fraction(1, 2)
        for da, db in product(offsets, offsets):
            yield {"d": 1, "alpha": str(gamma + da), "beta": str(gamma - k + db)}
        yield {
            "d": 2,
            "alpha": [str(gamma), str(gamma + 1)],
            "beta": [str(gamma - k), str(gamma - k - 1)],
        }

    total_mismatches = []
    for family, maker in [
        ("hom_besov", hom),
        ("inhom_besov", inhom),
        ("alpha_modulation", alpha_mod),
        ("shearlet_smoothness", shear),
        ("shearlet_coorbit", coorbit),
        ("diagonal", diagonal),
    ]:
        mism, seen = _grid_outcomes(family, maker)
        total_mismatches.extend(mism)
        assert seen == {"Embeds", "DoesNotEmbed", "Undetermined"}, (family, seen)
    assert not total_mismatches, (
        f"{len(total_mismatches)} grid disagreements, first: {total_mismatches[0]}"
    )

    # spot fixtures, including the reduction targets
    for cases, family, target in [
        (HOM_CASES, "hom_besov", "sobolev"),
        (INHOM_CASES, "inhom_besov", "sobolev"),
        (ALPHA_CASES, "alpha_modulation", "sobolev"),
        (SHEARLET_CASES, "shearlet_smoothness", "sobolev"),
        (COORBIT_BV_CASES, "shearlet_coorbit", "bv"),
        (DIAGONAL_CASES, "diagonal", "sobolev"),
    ]:
        for params, kw, expected in cases:
            assert golden_verdict(family, params, target=target, **{
                key: ExtExponent(str(val)) if key in "pqr" else val
                for key, val in kw.items()
            }) == expected


def test_acceptance_4_weight_oracle_agreement():
    rng = random.Random(404)
    thetas = [ExtExponent(Fraction(1, 2)), ExtExponent(1), ExtExponent(Fraction(3, 2)),
              ExtExponent(2), ExtExponent(3), INF]
    contradictions = []
    classified = 0
    total = 500
    for i in range(total):
        theta = rng.choice(thetas)
        style = "poly" if i % 10 == 0 else ("plane" if i % 3 == 0 else "line")
        if style == "line":
            rate = Fraction(rng.choice([n for n in range(-8, 9) if n]),
                            rng.choice([1, 2, 4]))
            weight = _line_weight(rng.choice(["Z", "N0", "Nneg"]), rate)
        elif style == "plane":
            sector = ProductSector((
                LineSector(rng.choice(["N0", "Nneg", "Z"])),
                LineSector(rng.choice(["N0", "Nneg"])),
            ))
            factors = tuple(
                CoordFactor.symmetric(
                    Fraction(rng.choice([n for n in range(-6, 7) if n]),
                             rng.choice([1, 2]))
                )
                for _ in range(2)
            )
            weight = ExpPolyWeight.single(sector, Atom(Fraction(1), factors))
        else:
            # flat exponential rate with a polynomial profile; some of these
            # sit close to the summability boundary and may stay Inconclusive
            power = Fraction(rng.choice([-4, -3, -2, 2]), rng.choice([1, 2]))
            weight = ExpPolyWeight.single(
                LineSector("Z_nonzero"), Atom.line(Fraction(0), power=power)
            )
        symbolic = decide_lp_membership(weight, theta)
        tail = truncated_oracle(weight, theta)
        if tail.verdict == "Convergent" and symbolic is Membership.NOT_MEMBER:
            contradictions.append((i, str(theta)))
        if tail.verdict == "Divergent" and symbolic is Membership.MEMBER:
            contradictions.append((i, str(theta)))
        if tail.verdict != "Inconclusive":
            classified += 1
    assert not contradictions, contradictions[:5]
    assert classified >= int(0.9 * total), f"only {classified}/{total} classified"


def test_acceptance_5_covering_constants():
    for d in (1, 2):
        hom = get_family("hom_besov").covering(
            get_family("hom_besov").parse_params({"d": d, "s": 0})
        )
        assert certify_constants(hom, 8)["N_hat"] <= 9

    inhom_fam = get_family("inhom_besov")
    inhom = inhom_fam.covering(inhom_fam.parse_params({"d": 1, "s": 0}))
    consts = certify_constants(inhom, 8)
    assert consts["C_hat"] <= 16.0 + 1e-9
    assert len(neighbors(inhom, (0,), 8)) <= 4

    coorbit_fam = get_family("shearlet_coorbit")
    for c_str in ("-1", "1/2", "1", "2"):
        params = coorbit_fam.parse_params({"c": c_str})
        cov = coorbit_fam.covering(params)
        c = Fraction(c_str)
        extremes = {}
        for radius in (7, 8):
            ratios = []
            for idx in cov.window(radius):
                n, m = idx[0], idx[1]
                if not (-8 <= n <= 8):
                    continue
                t, _ = cov.transform(idx)
                surrogate = pow2f(float(n)) + pow2f(float(c * n)) * (1 + abs(m))
                ratios.append(spectral_norm(t) / surrogate)
            lo, hi = min(ratios), max(ratios)
            assert 0.25 <= lo <= hi <= 4.0, (c_str, radius, lo, hi)
            extremes[radius] = (lo, hi)
        (lo7, hi7), (lo8, hi8) = extremes[7], extremes[8]
        assert max(lo7, lo8) <= min(lo7, lo8) * 1.02
        assert max(hi7, hi8) <= min(hi7, hi8) * 1.02


def _random_family_query(rng):
    family = rng.choice([
        "hom_besov", "inhom_besov", "alpha_modulation",
        "shearlet_smoothness", "shearlet_coorbit", "diagonal",
    ])
    frac = lambda: Fraction(rng.randint(-18, 18), rng.randint(1, 6))
    if family in ("hom_besov", "inhom_besov"):
        params = {"d": rng.choice([1, 2]), "s": str(frac())}
    elif family == "alpha_modulation":
        params = {
            "d": rng.choice([1, 2]),
            "alpha": rng.choice(["0", "1/3", "1/2", "2/3"]),
            "s": str(frac()),
        }
    elif family == "shearlet_smoothness":
        params = {"s": str(frac())}
    elif family == "shearlet_coorbit":
        params = {
            "c": rng.choice(["-1", "1/2", "1", "2", "3/2"]),
            "alpha": str(frac()),
            "beta": str(frac()),
        }
    else:
        params = {"d": 1, "alpha": str(frac()), "beta": str(frac())}
    return family, params


def test_acceptance_6_query_invariants():
    rng = random.Random(606)
    exp_pool = [Fraction(n, d) for n in range(1, 25) for d in (1, 2, 3, 4)]

    def draw_exp():
        return INF if rng.random() < 0.12 else ExtExponent(rng.choice(exp_pool))

    small = ExtExponent(2)
    for i in range(10_000):
        family, params = _random_family_query(rng)
        p, q, r = draw_exp(), draw_exp(), draw_exp()
        k = rng.choice(KS)
        verdict = decide_sobolev(family, params, p=p, q=q, r=r, k=k)
        suff = any(e.holds for e in verdict.evidence if e.role == "sufficient")
        nec_fail = any(not e.holds for e in verdict.evidence if e.role == "necessary")
        assert not (suff and nec_fail)
        if q.is_inf or q <= small:
            assert verdict.outcome is not Outcome.UNDETERMINED
        if verdict.outcome is Outcome.UNDETERMINED:
            assert lower_conjugate(q) < r
            assert verdict.gap_note
        if i % 6 == 0:
            vc = decide(family, params, p=p, r=r, target="cb", k=k)
            assert vc == decide_sobolev(family, params, p=p, q=INF, r=r, k=k)
        if i % 6 == 3 and k >= 1:
            vb = decide(family, params, p=p, r=r, target="bv", k=k)
            inner = decide_sobolev(family, params, p=p, q=ExtExponent(1), r=r, k=k)
            assert vb.outcome == inner.outcome
            assert vb.evidence[0].id == "R1"
            assert vb.evidence[1:] == inner.evidence


def test_acceptance_7_cli_transcripts():
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    assert len(manifest) == 12
    failures = []
    for case in manifest:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(case["argv"])
        payload = buf.getvalue().encode()
        frozen = (GOLDEN_DIR / f"{case['name']}.out").read_bytes()
        if code != case["exit"] or payload != frozen:
            failures.append(case["name"])
    assert not failures, f"drifting CLI cases: {failures}"
