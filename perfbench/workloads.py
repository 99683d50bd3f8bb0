"""The four seeded workloads of the decomp-embed benchmark.

Each workload is a closed loop run by one client: the next query starts
only after the previous one returned.  Queries are grouped into *rounds*;
``rounds_per_s`` is how many rounds, with their reference samples, run in
a second at the samples' nominal speed, which sets a run's length.
A round has a fixed structure (which families, which subcommands, which
geometry sizes); the seed picks the parameters inside each slot and the
order.  The measuring loop always finishes whole rounds, so every run sees
the same mix and the seed moves the figures only through parameters whose
cost is similar.  Why each workload exists is written in README.md.

Every workload exposes the same four hooks, used by ``worker.py``:

* ``rounds(seed)``: the round pool, a list of lists of queries;
* ``warmup(seed)``: a few cheap queries run during set-up;
* ``execute(query)``: run one query, return its raw result (timed);
* ``check(queries, results)``: failure messages, one per failed query,
  plus the content report.

and a reference sample, ``reference`` (a function returning seconds) with
its nominal duration ``ref_nominal_s``: a fixed piece of work that uses no
code of the package, timed next to every query so that the host's speed
at that moment can be divided out (see README.md, "Speed reference").
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
GOLDEN = TESTS / "golden"

FAMILIES = (
    "hom_besov",
    "inhom_besov",
    "alpha_modulation",
    "shearlet_smoothness",
    "shearlet_coorbit",
    "diagonal",
)
OUTCOMES = ("Embeds", "DoesNotEmbed", "Undetermined")


def _inv(text: str) -> Fraction:
    return Fraction(0) if text == "inf" else 1 / Fraction(text)


def _inv_lower_conjugate(text: str) -> Fraction:
    """1/q'' for q'' = min(q, q'), from the exponent literal."""
    inv = _inv(text)
    return inv if inv > 1 else max(inv, 1 - inv)


def _tail(q: str, r: str) -> Fraction:
    return max(Fraction(0), _inv_lower_conjugate(q) - _inv(r))


def _traceback_in(text: str) -> bool:
    return "Traceback (most recent call last)" in text


def _call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """Run ``cli.main`` in process; exit code None means it raised."""
    from decomp_embed import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception is a failed query, not a crash
            traceback.print_exc(file=err)
            code = None
    return code, out.getvalue(), err.getvalue()


def kernel_sample() -> float:
    """Seconds for five runs of a fixed stdlib kernel: Fraction arithmetic,
    dict stores and a sort, the same kind of work as the in-process
    workloads, and none of the package's code."""
    t0 = perf_counter()
    for _ in range(5):
        acc, table = Fraction(0), {}
        for i in range(1, 120):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
            table[str(i)] = acc.numerator % 97
        sorted(table.items())
    return perf_counter() - t0


def array_sample() -> float:
    """Seconds for a fixed numpy kernel over 200 000 floats (exp2, log2,
    clip, a reduction), the kind of work the numeric tail oracle does."""
    import numpy as np

    t0 = perf_counter()
    x = np.linspace(-50.0, 50.0, 200_000)
    for _ in range(3):
        y = np.exp2(np.clip(x * 0.5 + np.log2(np.abs(x) + 1.0), -1100.0, 1100.0))
        float(np.maximum(y, 1.0).sum())
    return perf_counter() - t0


def mixed_sample() -> float:
    """Seconds for one kernel sample and one array sample."""
    return kernel_sample() + array_sample()


# the samples' medians on the 2-core Xeon VM the benchmark was tuned on
KERNEL_NOMINAL_S = 0.0055
MIXED_NOMINAL_S = 0.02


def _content_common(queries: list[dict]) -> dict:
    keys = {json.dumps([q.get("family"), q.get("params")], sort_keys=True) for q in queries}
    return {
        "queries": len(queries),
        "family_mix": dict(Counter(q.get("family") or "none" for q in queries)),
        "distinct_params_ratio": len(keys) / len(queries) if queries else 0.0,
    }


# ---------------------------------------------------------------------------
# decide_batch: library decide() over threshold-near (q, r) sweeps
# ---------------------------------------------------------------------------

class DecideBatch:
    """Library ``decide()`` sweeps in the style of the acceptance grid.

    A query is one sweep: it fixes (family, params, p, k) and calls
    ``decide`` on every cell of the (q, r) grid for the Sobolev target and
    of the r axis for C_b and BV (BV only for k >= 1), one call after the
    other.  A sweep, not a single call, is the unit so that the tail
    percentile lands on slow sweeps rather than on scheduler noise among
    tens of thousands of sub-millisecond calls.  The params sit on, or
    within 1/2 of, the family's threshold at a seeded reference (q0, r0),
    so the equality and refined criteria run.  A round is one sweep per
    family.
    """

    name = "decide_batch"
    reference = staticmethod(kernel_sample)
    ref_nominal_s = KERNEL_NOMINAL_S
    pool_rounds = 128
    rounds_per_s = 3.1
    trace_rounds_per_s = 1.0
    q_axis = ("1", "3/2", "2", "5/2", "3", "4", "inf")
    r_axis = ("1/2", "1", "3/2", "2", "5/2", "3", "4", "inf")
    p_choices = ("1/2", "1", "3/2", "2", "3")
    offsets = (Fraction(-1, 2), Fraction(-1, 8), Fraction(0), Fraction(0), Fraction(0),
               Fraction(0), Fraction(1, 8), Fraction(1, 2))

    def _params(self, rng: random.Random, family: str, p: str, q0: str, r0: str, k: int):
        off = rng.choice(self.offsets)
        dp = _inv(p) - _inv(q0)
        if family == "hom_besov":
            d = rng.choice((1, 2))
            return {"d": d, "s": str(d * dp + off)}
        if family == "inhom_besov":
            d = rng.choice((1, 2))
            return {"d": d, "s": str(k + d * dp + off)}
        if family == "alpha_modulation":
            d = rng.choice((1, 2))
            alpha = rng.choice((Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
            rhs = k + d * (alpha * dp + (1 - alpha) * _tail(q0, r0))
            return {"d": d, "alpha": str(alpha), "s": str(rhs + off)}
        if family == "shearlet_smoothness":
            thr = k + Fraction(3, 2) * dp + Fraction(1, 2) * _tail(q0, r0)
            return {"s": str(thr + off)}
        if family == "shearlet_coorbit":
            c = rng.choice((Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)))
            beta = Fraction(k) + rng.choice((Fraction(0), Fraction(1, 2), Fraction(2)))
            if c >= 1:
                lo, hi = beta, c * (beta - k)
            else:
                lo, hi = max(c * beta, c * (beta - k)), beta - k
            target = rng.choice((lo - 1, lo, (lo + hi) / 2, hi, hi + Fraction(1, 8)))
            gamma = Fraction(1, 2) - _inv(r0) + dp
            return {"c": str(c), "alpha": str(target - (1 + c) * gamma), "beta": str(beta)}
        gamma = -dp + _inv(r0) - Fraction(1, 2)
        if rng.random() < 0.75:
            da = rng.choice((Fraction(-1, 2), Fraction(0), Fraction(1, 2)))
            db = rng.choice((Fraction(-1, 2), Fraction(0), Fraction(1, 2)))
            return {"d": 1, "alpha": str(gamma + da), "beta": str(gamma - k + db)}
        return {"d": 2, "alpha": [str(gamma), str(gamma + 1)],
                "beta": [str(gamma - k + off), str(gamma - k - 1)]}

    def _sweep(self, rng: random.Random, family: str) -> dict:
        p = rng.choice(self.p_choices)
        # hom_besov never embeds for k >= 1, so it mostly sweeps k = 0
        k = rng.choice((0, 0, 1) if family == "hom_besov" else (0, 1, 2))
        # the reference q lies in (2, inf), where the equality cases can
        # stay Undetermined
        q0 = rng.choice(("5/2", "3", "4"))
        r0 = rng.choice(self.r_axis)
        cells = [("sobolev", q, r) for q in self.q_axis for r in self.r_axis]
        cells += [("cb", None, r) for r in self.r_axis]
        if k >= 1:
            cells += [("bv", None, r) for r in self.r_axis]
        return {"family": family, "params": self._params(rng, family, p, q0, r0, k),
                "p": p, "k": k, "cells": cells}

    def rounds(self, seed: int) -> list[list[dict]]:
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for _ in range(self.pool_rounds):
            order = list(FAMILIES)
            rng.shuffle(order)
            pool.append([self._sweep(rng, fam) for fam in order])
        return pool

    def warmup(self, seed: int) -> list[dict]:
        rng = random.Random(f"{self.name}:warmup:{seed}")
        return [dict(sweep, cells=sweep["cells"][::24])
                for sweep in (self._sweep(rng, fam) for fam in FAMILIES)]

    def execute(self, query: dict) -> list[str]:
        from decomp_embed import embedding

        fam, params, p, k = query["family"], query["params"], query["p"], query["k"]
        return [embedding.decide(fam, params, p=p, q=q, r=r, k=k, target=target).outcome.value
                for target, q, r in query["cells"]]

    def check(self, queries: list[dict], results: list) -> tuple[list[str], dict]:
        from decomp_embed.exponents import ExtExponent
        from golden_refs import golden_verdict

        failures = []
        outcomes, targets = Counter(), Counter()
        q_mid = 0
        for sweep, got in zip(queries, results):
            p = ExtExponent(sweep["p"])
            wrong = []
            for (target, q, r), res in zip(sweep["cells"], got):
                outcomes[res] += 1
                targets[target] += 1
                q_mid += q not in (None, "inf") and _inv(q) < Fraction(1, 2)
                want = golden_verdict(sweep["family"], sweep["params"], p=p,
                                      q=None if q is None else ExtExponent(q),
                                      r=ExtExponent(r), k=sweep["k"], target=target)
                if res != want:
                    wrong.append(f"q={q} r={r} {target}: got {res}, reference {want}")
            if wrong:
                failures.append(f"{sweep['family']} {sweep['params']} p={sweep['p']} "
                                f"k={sweep['k']}: {len(wrong)} cells differ, first {wrong[0]}")
        decides = sum(targets.values())
        content = _content_common(queries)
        content.update(
            decides=decides,
            target_mix=dict(targets),
            outcome_mix=dict(outcomes),
            q_in_2_inf_share=q_mid / decides if decides else 0.0,
        )
        return failures, content

    @staticmethod
    def refusal(content: dict) -> str | None:
        """Why the seed is refused, or None: every run must see every family
        and all three outcomes."""
        missing = (sorted(set(FAMILIES) - set(content["family_mix"]))
                   + sorted(set(OUTCOMES) - set(content["outcome_mix"])))
        return f"the run lacks {missing}" if missing else None


# ---------------------------------------------------------------------------
# oracle_audit: decide --oracle-check and check-sequence --oracle in process
# ---------------------------------------------------------------------------

# (family, params, target, p, q, r, k, perturbed key); the seed moves the
# perturbed parameter by j/16, j in -2..2 (and beta by 0 or 1/16 for the
# coorbit shapes).  The oracle cost of a shape moves by about 10 % under
# such a shift, while unrestricted coorbit draws vary 100-fold (0.02 to
# 2.6 s), so fixed shapes keep the workload's throughput a property of the
# code rather than of the seed.  The four coorbit shapes cost about the
# same (0.4 to 0.6 s on a 2-core Xeon VM), so together they form the slow
# cluster that the tail percentile falls into, and their two c values run
# the integer (exact) route.
ORACLE_SHAPES = (
    ("hom_besov", {"d": 1, "s": "2/3"}, "sobolev", "1", "3", "2", 0, "s"),
    ("hom_besov", {"d": 2, "s": "1"}, "sobolev", "1", "2", "2", 0, "s"),
    ("inhom_besov", {"d": 1, "s": "5/3"}, "sobolev", "1", "3", "2", 1, "s"),
    ("inhom_besov", {"d": 2, "s": "5/3"}, "bv", "1", None, "2", 1, "s"),
    ("alpha_modulation", {"d": 2, "alpha": "1/2", "s": "3"}, "sobolev", "1", "2", "2", 1, "s"),
    ("alpha_modulation", {"d": 1, "alpha": "1/3", "s": "1"}, "sobolev", "2", "3", "2", 0, "s"),
    ("shearlet_smoothness", {"s": "2"}, "sobolev", "1", "2", "4", 1, "s"),
    ("shearlet_smoothness", {"s": "7/6"}, "sobolev", "1", "3", "3", 0, "s"),
    ("shearlet_coorbit", {"c": "2", "alpha": "-3", "beta": "1"}, "sobolev", "1", "2", "2", 0,
     "alpha"),
    ("shearlet_coorbit", {"c": "2", "alpha": "0", "beta": "1"}, "sobolev", "3/2", "3", "2", 0,
     "alpha"),
    ("shearlet_coorbit", {"c": "-1", "alpha": "0", "beta": "1"}, "cb", "1", None, "2", 0,
     "alpha"),
    ("shearlet_coorbit", {"c": "-1", "alpha": "1", "beta": "2"}, "bv", "1", None, "2", 1,
     "alpha"),
    ("diagonal", {"d": 2, "alpha": ["-1/2", "0"], "beta": ["-3/2", "-2"]}, "sobolev", "1", "2",
     "2", 1, "alpha"),
    ("diagonal", {"d": 1, "alpha": "-1/6", "beta": "-1/6"}, "sobolev", "2", "3", "2", 0,
     "alpha"),
)

SEQ_EXPONENTS = ("1/2", "1", "3/2", "2", "3", "inf")


def _shift(value, delta: Fraction):
    if isinstance(value, list):
        return [str(Fraction(value[0]) + delta), *value[1:]]
    return str(Fraction(value) + delta)


def oracle_decide_argv(shape, j: int, jb: int) -> tuple[dict, list[str]]:
    family, params, target, p, q, r, k, key = shape
    params = dict(params)
    params[key] = _shift(params[key], Fraction(j, 16))
    if family == "shearlet_coorbit":
        params["beta"] = _shift(params["beta"], Fraction(jb, 16))
    argv = ["decide", "--family", family, "--params", json.dumps(params),
            "--target", target, "-p", p, "-r", r, "-k", str(k)]
    if q is not None:
        argv += ["-q", q]
    return params, argv


class OracleAudit:
    """In-process ``cli.main``: ``decide --oracle-check`` on every family and
    ``check-sequence --oracle`` on seeded exp-poly weights.

    A round is every shape of ``ORACLE_SHAPES`` once plus four
    check-sequence queries (two line weights, one product, one polynomial).
    """

    name = "oracle_audit"
    # the oracle's numpy work plus the exact decisions' Fraction work
    reference = staticmethod(mixed_sample)
    ref_nominal_s = MIXED_NOMINAL_S
    pool_rounds = 24
    rounds_per_s = 0.3
    trace_rounds_per_s = 0.12

    def _check_sequence(self, rng: random.Random, style: str) -> dict:
        def rate() -> Fraction:
            return Fraction(rng.choice([n for n in range(-8, 9) if n]), rng.choice((1, 2, 4)))

        if style == "line":
            kind = rng.choice(("Z", "N0", "Nneg"))
            b = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
            u = {"lattice": {"kind": kind}, "atoms": [{"exp2": [str(b + rate())]}]}
            v = {"lattice": {"kind": kind}, "atoms": [{"exp2": [str(b)]}]}
        elif style == "plane":
            domains = [rng.choice(("N0", "Nneg", "Z")), rng.choice(("N0", "Nneg"))]
            u = {"lattice": {"kind": "product", "domains": domains},
                 "atoms": [{"exp2": [str(rate()), str(rate())]}]}
            v = {"lattice": {"kind": "product", "domains": domains}}
        else:
            power = Fraction(rng.choice((-4, -3, -2, 2)), rng.choice((1, 2)))
            u = {"lattice": {"kind": "Z_nonzero"}, "atoms": [{"exp2": ["0"], "pow": [str(power)]}]}
            v = {"lattice": {"kind": "Z_nonzero"}}
        r, s = rng.choice(SEQ_EXPONENTS), rng.choice(SEQ_EXPONENTS)
        argv = ["check-sequence", "--u", json.dumps(u), "--v", json.dumps(v), "-r", r, "-s", s]
        return {"kind": "check-sequence", "family": None, "params": [u, v], "style": style,
                "argv": argv + ["--oracle"]}

    def _round(self, rng: random.Random) -> list[dict]:
        out = []
        for shape in ORACLE_SHAPES:
            params, argv = oracle_decide_argv(shape, rng.randint(-2, 2), rng.randint(0, 1))
            out.append({"kind": "decide", "family": shape[0], "params": params,
                        "target": shape[2], "q": shape[4],
                        "argv": argv + ["--oracle-check"], "plain_argv": argv})
        for style in ("line", "line", "plane", "poly"):
            out.append(self._check_sequence(rng, style))
        rng.shuffle(out)
        return out

    def rounds(self, seed: int) -> list[list[dict]]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self._round(rng) for _ in range(self.pool_rounds)]

    def warmup(self, seed: int) -> list[dict]:
        rng = random.Random(f"{self.name}:warmup:{seed}")
        _, argv = oracle_decide_argv(ORACLE_SHAPES[0], rng.randint(-2, 2), 0)
        return [{"kind": "decide", "argv": argv + ["--oracle-check"]},
                self._check_sequence(rng, "line")]

    def execute(self, query: dict):
        return _call_cli(query["argv"])

    def check(self, queries: list[dict], results: list) -> tuple[list[str], dict]:
        failures = []
        outcomes, tails = Counter(), Counter()
        for q, (code, out, err) in zip(queries, results):
            label = " ".join(q["argv"][:3])
            if code is None or _traceback_in(err):
                failures.append(f"{label}: traceback: {err.strip().splitlines()[-1:]}")
                continue
            if code not in (0, 1, 2):
                failures.append(f"{label}: exit {code}: {err.strip()}")
                continue
            doc = json.loads(out)
            if q["kind"] == "check-sequence":
                # the oracle's tail verdict must not contradict the exact answer
                embeds, tail = doc["embeds"], doc["oracle"]["verdict"]
                outcomes[f"embeds={embeds}"] += 1
                tails[tail] += 1
                if (tail == "Convergent" and not embeds) or (tail == "Divergent" and embeds):
                    failures.append(f"{label}: oracle {tail}, exact embeds={embeds}")
                elif code != (0 if embeds else 1):
                    failures.append(f"{label}: exit {code} with embeds={embeds}")
                continue
            outcomes[doc["outcome"]] += 1
            plain_code, plain_out, plain_err = _call_cli(q["plain_argv"])
            if plain_code != code:
                failures.append(f"{label}: exit {code} with the oracle, {plain_code} without")
                continue
            plain = json.loads(plain_out)
            if plain["outcome"] != doc["outcome"]:
                failures.append(f"{label}: outcome {doc['outcome']} with the oracle, "
                                f"{plain['outcome']} without")
        decides = [q for q in queries if q["kind"] == "decide"]
        content = _content_common(queries)
        content.update(
            kind_mix=dict(Counter(q["kind"] for q in queries)),
            target_mix=dict(Counter(q["target"] for q in decides)),
            check_sequence_styles=dict(Counter(q["style"] for q in queries if "style" in q)),
            outcome_mix=dict(outcomes),
            oracle_tail_mix=dict(tails),
            q_in_2_inf_share=(
                sum(1 for q in decides if q["q"] not in (None, "inf")
                    and _inv(q["q"]) < Fraction(1, 2)) / len(queries) if queries else 0.0
            ),
        )
        return failures, content


# ---------------------------------------------------------------------------
# covering_diag: verify-family and inspect-covering in process
# ---------------------------------------------------------------------------

# One slot per covering.  Each slot runs verify-family, inspect-covering
# without --index, and inspect-covering --index on a pair of lattice-near
# indices (the pair is what the neighbour-symmetry check compares).
# Whatever sets a slot's geometry, and so its cost (dimension, alpha, c and
# the radii), is fixed or walks a fixed cycle of equal-cost options round
# by round; the seed picks the weight parameters, the index pairs and the
# order of the round, and also the dimension and radii of the two dyadic
# slots, whose queries take milliseconds either way.  That keeps the cost
# of a round, and the run's throughput, independent of the seed.  The
# shearlet slots run at the smallest radii because their exact adjacency
# dominates the round.
COVERING_SLOTS = (
    {"family": "hom_besov", "cycle": {},
     "verify_r": (2, 3, 4), "inspect_r": (2, 3, 4),
     "weights": lambda rng: {"d": rng.choice((1, 2)),
                             "s": str(Fraction(rng.randint(-4, 4), 2))}},
    {"family": "inhom_besov", "cycle": {},
     "verify_r": (2, 3, 4), "inspect_r": (2, 3, 4),
     "weights": lambda rng: {"d": rng.choice((1, 2)),
                             "s": str(Fraction(rng.randint(0, 8), 2))}},
    {"family": "alpha_modulation", "cycle": {"d": (2,), "alpha": ("1/3", "1/2")},
     "verify_r": (2,), "inspect_r": (2,),
     "weights": lambda rng: {"s": str(Fraction(rng.randint(0, 8), 2))}},
    {"family": "diagonal", "cycle": {"d": (2,)},
     "verify_r": (1,), "inspect_r": (2,),
     "weights": lambda rng: {"alpha": str(Fraction(rng.randint(-2, 2), 2)),
                             "beta": str(Fraction(rng.randint(-4, 0), 2))}},
    {"family": "shearlet_smoothness", "cycle": {},
     "verify_r": (0,), "inspect_r": (1,),
     "weights": lambda rng: {"s": str(Fraction(rng.randint(0, 8), 4))}},
    {"family": "shearlet_coorbit", "cycle": {"c": ("-1", "1", "2")},
     "verify_r": (0,), "inspect_r": (1,),
     "weights": lambda rng: {"alpha": str(Fraction(rng.randint(-4, 4), 2)),
                             "beta": str(Fraction(rng.randint(0, 4), 2))}},
    {"family": "shearlet_coorbit", "cycle": {"c": ("1/2", "1/3", "3/2")},
     "verify_r": (1,), "inspect_r": (2,),
     "weights": lambda rng: {"alpha": str(Fraction(rng.randint(-4, 4), 2)),
                             "beta": str(Fraction(rng.randint(0, 4), 2))}},
)


class CoveringDiag:
    """In-process ``cli.main``: ``verify-family`` and ``inspect-covering``
    with and without ``--index`` over every family, with integer and
    fractional coorbit anisotropy ``c`` (exact versus float geometry)."""

    name = "covering_diag"
    reference = staticmethod(kernel_sample)
    ref_nominal_s = KERNEL_NOMINAL_S
    pool_rounds = 24
    rounds_per_s = 0.3
    trace_rounds_per_s = 0.07

    def rounds(self, seed: int) -> list[list[dict]]:
        from decomp_embed.families import covering_from_json

        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for n in range(self.pool_rounds):
            round_ = []
            for slot_no, slot in enumerate(COVERING_SLOTS):
                fam = slot["family"]
                params = {key: opts[n % len(opts)] for key, opts in slot["cycle"].items()}
                params.update(slot["weights"](rng))
                vr, ir = rng.choice(slot["verify_r"]), rng.choice(slot["inspect_r"])
                pjson = json.dumps(params)
                cov_doc = json.dumps({"family": fam, "params": params})
                base = {"family": fam, "params": params}
                round_.append(dict(base, kind="verify", argv=[
                    "verify-family", "--family", fam, "--params", pjson, "--radius", str(vr)]))
                round_.append(dict(base, kind="inspect", argv=[
                    "inspect-covering", "--covering", cov_doc, "--radius", str(ir)]))
                window = covering_from_json({"family": fam, "params": params}).window(ir)
                i = rng.randrange(len(window))
                j = min(len(window) - 1, i + rng.randint(1, 3))
                pair = f"{n}:{slot_no}"
                for idx in (window[i], window[j]):
                    round_.append(dict(base, kind="inspect_index", pair=pair,
                                       index=list(idx), argv=[
                        "inspect-covering", "--covering", cov_doc, "--radius", str(ir),
                        "--index=" + ",".join(str(x) for x in idx)]))
            rng.shuffle(round_)
            pool.append(round_)
        return pool

    def warmup(self, seed: int) -> list[dict]:
        cov = json.dumps({"family": "hom_besov", "params": {"d": 1, "s": 0}})
        return [
            {"argv": ["verify-family", "--family", "hom_besov", "--params", '{"d":1}',
                      "--radius", "2"]},
            {"argv": ["inspect-covering", "--covering", cov, "--radius", "2", "--index", "0"]},
        ]

    def execute(self, query: dict):
        return _call_cli(query["argv"])

    @staticmethod
    def _schema_error(kind: str, doc: dict) -> str | None:
        consts = doc.get("constants")
        if not isinstance(consts, dict) or set(consts) != {"N_hat", "C_hat", "R_hat",
                                                             "tightness_ok"}:
            return "constants block malformed"
        if kind == "verify":
            need = {"family", "label", "radius", "constants", "moderate", "surrogate",
                    "checks", "ok"}
            if set(doc) != need or not isinstance(doc["ok"], bool):
                return f"verify keys {sorted(doc)}"
            if set(doc["moderate"]) != {"C_uQ_hat", "ok", "estimates"}:
                return "moderate block malformed"
            return None
        need = {"label", "dimension", "radius", "window_size", "constants"}
        if kind == "inspect_index":
            need.add("neighbors")
        if set(doc) != need or not isinstance(doc["window_size"], int):
            return f"inspect keys {sorted(doc)}"
        return None

    def check(self, queries: list[dict], results: list) -> tuple[list[str], dict]:
        failures = []
        exits = Counter()
        windows = []
        pairs: dict[str, list] = {}
        for q, (code, out, err) in zip(queries, results):
            label = " ".join(q["argv"][:3])
            if code is None or _traceback_in(err):
                failures.append(f"{label}: traceback: {err.strip().splitlines()[-1:]}")
                continue
            exits[code] += 1
            if code not in (0, 1):
                failures.append(f"{label}: exit {code}: {err.strip()}")
                continue
            doc = json.loads(out)
            problem = self._schema_error(q["kind"], doc)
            if problem:
                failures.append(f"{label}: {problem}")
                continue
            if q["kind"] != "verify":
                windows.append(doc["window_size"])
            if q["kind"] == "inspect_index":
                pairs.setdefault(q["pair"], []).append((tuple(q["index"]),
                                                        {tuple(x) for x in doc["neighbors"]}))
        asymmetric = 0
        for pair in pairs.values():
            for (i, ni), (j, nj) in zip(pair, pair[1:]):
                if (j in ni) != (i in nj):
                    asymmetric += 1
                    failures.append(f"neighbour sets of {i} and {j} disagree")
        windows.sort()
        content = _content_common(queries)
        content.update(
            kind_mix=dict(Counter(q["kind"] for q in queries)),
            exit_mix={str(k): v for k, v in sorted(exits.items())},
            window_sizes={"min": windows[0], "median": windows[len(windows) // 2],
                          "max": windows[-1]} if windows else {},
            coorbit_c_mix=dict(Counter(q["params"]["c"] for q in queries
                                       if q["family"] == "shearlet_coorbit")),
            symmetry_pairs_checked=sum(len(p) - 1 for p in pairs.values()),
        )
        return failures, content


# ---------------------------------------------------------------------------
# cli_cold: one interpreter per golden CLI case
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """Environment for benchmark subprocesses: the checkout's ``src`` first
    and a fixed string-hash seed, so set and dict layouts repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def interpreter_sample() -> float:
    """Seconds for one ``python -c "import numpy"`` process: an interpreter
    start and the import of the package's one dependency, none of the
    package's own code."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), cwd=ROOT,
                   check=True, timeout=60)
    return perf_counter() - t0


# the interpreter sample's median on the 2-core Xeon VM the benchmark was tuned on
INTERPRETER_NOMINAL_S = 0.195


class CliCold:
    """``python -m decomp_embed.cli`` per case of the golden manifest.

    A round is the twelve manifest cases in a seeded order; each stdout is
    compared byte for byte with its frozen ``.out`` file."""

    name = "cli_cold"
    # each query starts an interpreter and imports numpy, so the reference
    # does the same
    reference = staticmethod(interpreter_sample)
    ref_nominal_s = INTERPRETER_NOMINAL_S
    pool_rounds = 16
    rounds_per_s = 0.18
    trace_rounds_per_s = 0.1

    def __init__(self):
        self.manifest = json.loads((GOLDEN / "manifest.json").read_text())
        self.frozen = {c["name"]: (GOLDEN / f"{c['name']}.out").read_bytes()
                       for c in self.manifest}
        self.env = child_env()

    def rounds(self, seed: int) -> list[list[dict]]:
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for _ in range(self.pool_rounds):
            cases = [dict(c) for c in self.manifest]
            rng.shuffle(cases)
            pool.append(cases)
        return pool

    def warmup(self, seed: int) -> list[dict]:
        return [dict(c) for c in self.manifest if c["name"] == "decide_hom_gap"]

    def command(self, query: dict) -> list[str]:
        return [sys.executable, "-m", "decomp_embed.cli", *query["argv"]]

    def execute(self, query: dict):
        proc = subprocess.run(self.command(query), capture_output=True, env=self.env,
                              cwd=ROOT, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")

    def check(self, queries: list[dict], results: list) -> tuple[list[str], dict]:
        failures = []
        exits = Counter()
        for q, (code, out, err) in zip(queries, results):
            exits[code] += 1
            if _traceback_in(err):
                failures.append(f"{q['name']}: traceback on stderr")
            elif code != q["exit"] or out != self.frozen[q["name"]]:
                failures.append(f"{q['name']}: exit {code} (want {q['exit']}) or stdout "
                                "differs from the golden file")
        content = {
            "queries": len(queries),
            "case_mix": dict(Counter(q["name"] for q in queries)),
            "subcommand_mix": dict(Counter(q["argv"][0] for q in queries)),
            "exit_mix": {str(k): v for k, v in sorted(exits.items())},
        }
        return failures, content


WORKLOADS = {w.name: w for w in (DecideBatch, OracleAudit, CoveringDiag, CliCold)}
