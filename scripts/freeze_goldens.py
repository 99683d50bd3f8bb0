#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Four kinds of golden are frozen:

* the CLI transcripts: one ``<case>.out`` per entry of ``CASES`` plus
  ``manifest.json`` with the argv and exit code of each;
* ``decide_grid.jsonl``: a seeded grid of library ``decide`` calls near
  every family's threshold, one compact JSON line per call holding the
  query and its ``Verdict.to_json()``;
* ``covering_constants.jsonl``: ``certify_constants`` and a sha256 of the
  sorted neighbour map for every family covering at radii 0-3, and for
  three- and four-dimensional coverings at the radii their windows
  afford, one compact JSON line per (covering, radius);
* ``oracle_tails.jsonl``: ``truncated_oracle(...).to_json()`` for every
  distinct (weight, theta) that a fixed list of ``decide --oracle-check``
  queries and ``check-sequence --oracle`` weight pairs puts to the oracle,
  one compact JSON line each holding the query, theta and the tail
  classification.

Run after a deliberate output-format change, inspect the diff, and check
the refreshed files in.  The test suite replays every case and compares
the output byte for byte.  ``--check`` compares instead of writing: it
names every golden file that would change and exits 1 if there is one.
For a drifted JSONL golden it also prints each changed line: the fields
the old and new line share (the query and theta of an oracle line), then
every field that moved, old -> new.  Each kind of golden starts from
cleared memos (``decomp_embed.memos.clear()``), as a fresh process does,
and the decide grid comes last.
``--check`` then replays the grid a second time, in reverse order, on the
five memos the decide path keeps as the forward pass left them warm: the
literal memo, the form cache, the (q, r) memo, the record memo and the
Khintchine verdicts of each form-cache entry; it names any line that
differs.

    PYTHONPATH=src python scripts/freeze_goldens.py [--check]
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from decomp_embed import memos, oracle
from decomp_embed.cli import main
from decomp_embed.covering import adjacency, certify_constants
from decomp_embed.embedding import decide
from decomp_embed.errors import InvalidParams
from decomp_embed.exponents import ExtExponent, compound
from decomp_embed.families import FAMILY_NAMES, covering_from_json
from decomp_embed.oracle import truncated_oracle
from decomp_embed.seqspace import expweight_from_json

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
GRID_FILE = "decide_grid.jsonl"
CONSTANTS_FILE = "covering_constants.jsonl"
ORACLE_FILE = "oracle_tails.jsonl"

CUSTOM_DOC = json.dumps(
    {
        "custom": {
            "dimension": 1,
            "indices": [[0], [1]],
            "T": [[[1]], [[2]]],
            "b": [[0], [3]],
            "base_set": {"ball": {"center": [0], "radius": 1}},
        }
    },
    separators=(",", ":"),
)

DECAY_WEIGHT = '{"lattice":{"kind":"N0"},"atoms":[{"exp2":["-1"]}]}'
GROW_WEIGHT = '{"lattice":{"kind":"N0"},"atoms":[{"exp2":["1/2"]}]}'
FLAT_WEIGHT = '{"lattice":{"kind":"N0"}}'

CASES = [
    ("decide_hom_embeds",
     ["decide", "--family", "hom_besov", "--params", '{"d":1,"s":"1/2"}',
      "-p", "1", "-q", "2", "-r", "2", "--oracle-check"]),
    ("decide_hom_gap",
     ["decide", "--family", "hom_besov", "--params", '{"d":1,"s":"2/3"}',
      "-p", "1", "-q", "3", "-r", "2"]),
    ("decide_alpha_sharp",
     ["decide", "--family", "alpha_modulation", "--params",
      '{"d":1,"alpha":0,"s":"1/3"}', "-p", "3", "-q", "3", "-r", "3"]),
    ("decide_shearlet_dne",
     ["decide", "--family", "shearlet_smoothness", "--params", '{"s":"15/8"}',
      "-p", "1", "-q", "2", "-r", "4", "-k", "1"]),
    ("decide_coorbit_bv",
     ["decide", "--family", "shearlet_coorbit", "--params",
      '{"c":"1/2","alpha":"7/4","beta":2}', "--target", "bv",
      "-p", "1", "-r", "1", "-k", "1"]),
    ("decide_diagonal_cb",
     ["decide", "--family", "diagonal", "--params",
      '{"d":1,"alpha":-2,"beta":-3}', "--target", "cb",
      "-p", "1", "-r", "2", "-k", "1"]),
    ("decide_inhom_pretty",
     ["decide", "--family", "inhom_besov", "--params", '{"d":1,"s":"5/3"}',
      "-p", "1", "-q", "3", "-r", "2", "-k", "1", "--pretty"]),
    ("inspect_family",
     ["inspect-covering", "--covering",
      '{"family":"hom_besov","params":{"d":2,"s":0}}',
      "--radius", "4", "--index", "0"]),
    ("inspect_custom",
     ["inspect-covering", "--covering", CUSTOM_DOC, "--radius", "2"]),
    ("check_seq_embeds",
     ["check-sequence", "--u", DECAY_WEIGHT, "--v", FLAT_WEIGHT,
      "-r", "2", "-s", "1", "--oracle"]),
    ("check_seq_fails",
     ["check-sequence", "--u", GROW_WEIGHT, "--v", FLAT_WEIGHT,
      "-r", "2", "-s", "2"]),
    ("verify_inhom",
     ["verify-family", "--family", "inhom_besov", "--params", '{"d":1,"s":1}',
      "--radius", "4"]),
]

# The decide grid: GRID_SWEEPS sweeps per family, each fixing (params, p, k)
# near the family's threshold at a reference (q0, r0) with q0 in (2, inf),
# so the equality cases and the refined criteria run, and deciding
# GRID_SOBOLEV_CELLS cells of the Sobolev target ((q0, r0) and random
# (q, r)), one C_b cell and, for k >= 1, one BV cell.
GRID_SEED = 1601
GRID_SWEEPS = 6
GRID_SOBOLEV_CELLS = 4
Q_AXIS = ("1", "3/2", "2", "5/2", "3", "4", "inf")
R_AXIS = ("1/2", "1", "3/2", "2", "5/2", "3", "4", "inf")
P_AXIS = ("1/2", "1", "3/2", "2", "3")
OFFSETS = tuple(Fraction(x) for x in ("-1/2", "-1/8", "0", "0", "0", "1/8", "1/2"))


def _params(rng: random.Random, family: str, p: str, q0: str, r0: str, k: int) -> dict:
    """Parameters on, or within 1/2 of, the family's threshold at (q0, r0)."""
    off = rng.choice(OFFSETS)
    dp = 1 / Fraction(p) - 1 / Fraction(q0)
    # q0 lies in (2, inf), so 1/q0'' = 1 - 1/q0
    tail = max(Fraction(0), 1 - 1 / Fraction(q0) - (0 if r0 == "inf" else 1 / Fraction(r0)))
    if family in ("hom_besov", "inhom_besov"):
        d = rng.choice((1, 2))
        base = d * dp + (k if family == "inhom_besov" else 0)
        return {"d": d, "s": str(base + off)}
    if family == "alpha_modulation":
        d = rng.choice((1, 2))
        alpha = rng.choice((Fraction(0), Fraction(1, 3), Fraction(1, 2)))
        rhs = k + d * (alpha * dp + (1 - alpha) * tail)
        return {"d": d, "alpha": str(alpha), "s": str(rhs + off)}
    if family == "shearlet_smoothness":
        return {"s": str(k + Fraction(3, 2) * dp + tail / 2 + off)}
    gamma = Fraction(1, 2) - (0 if r0 == "inf" else 1 / Fraction(r0)) + dp
    if family == "shearlet_coorbit":
        c = rng.choice((Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)))
        beta = k + rng.choice((Fraction(0), Fraction(2)))
        if c >= 1:
            lo, hi = beta, c * (beta - k)
        else:
            lo, hi = max(c * beta, c * (beta - k)), beta - k
        target = rng.choice((lo - 1, lo, (lo + hi) / 2, hi, hi + Fraction(1, 8)))
        return {"c": str(c), "alpha": str(target - (1 + c) * gamma), "beta": str(beta)}
    if rng.random() < 0.5:
        da, db = rng.choice(OFFSETS), rng.choice(OFFSETS)
        return {"d": 1, "alpha": str(da - gamma), "beta": str(db - gamma - k)}
    return {"d": 2, "alpha": [str(-gamma), str(1 - gamma)],
            "beta": [str(-gamma - k + off), str(-gamma - k - 1)]}


def grid_queries() -> list[dict]:
    """The seeded decide grid, as keyword arguments of ``decide``."""
    rng = random.Random(GRID_SEED)
    queries = []
    for family in FAMILY_NAMES:
        for _ in range(GRID_SWEEPS):
            p = rng.choice(P_AXIS)
            k = rng.choice((0, 1, 2))
            q0, r0 = rng.choice(("5/2", "3", "4")), rng.choice(R_AXIS)
            params = _params(rng, family, p, q0, r0, k)
            cells = [("sobolev", q0, r0)]
            cells += [("sobolev", rng.choice(Q_AXIS), rng.choice(R_AXIS))
                      for _ in range(GRID_SOBOLEV_CELLS - 1)]
            cells.append(("cb", None, rng.choice(R_AXIS)))
            if k >= 1:
                cells.append(("bv", None, rng.choice(R_AXIS)))
            for target, q, r in cells:
                query = {"family": family, "params": params, "target": target,
                         "p": p, "r": r, "k": k}
                if q is not None:
                    query["q"] = q
                queries.append(query)
    return queries


def grid_line(query: dict) -> str:
    """One golden line: the query and its verdict, compact JSON."""
    verdict = decide(query["family"], query["params"], p=query["p"], q=query.get("q"),
                     r=query["r"], target=query["target"], k=query["k"])
    return json.dumps({"query": query, "verdict": verdict.to_json()},
                      separators=(",", ":")) + "\n"


def _check_coverage(queries: list[dict], lines: list[str]) -> None:
    """Refuse a grid that misses a family, a target, an outcome or q in (2, inf)."""
    outcomes = {json.loads(line)["verdict"]["outcome"] for line in lines}
    missing = (sorted(set(FAMILY_NAMES) - {q["family"] for q in queries})
               + sorted({"sobolev", "cb", "bv"} - {q["target"] for q in queries})
               + sorted({"Embeds", "DoesNotEmbed", "Undetermined"} - outcomes))
    if not any(q.get("q") in ("5/2", "3", "4") for q in queries):
        missing.append("q in (2, inf)")
    if missing:
        raise SystemExit(f"decide grid lacks {missing}; change GRID_SEED")


# Every family, with exact and float geometry: alpha_modulation is exact
# only for d = 1 with an integer alpha/(1 - alpha), shearlet_coorbit only
# for an integer c.
CONSTANTS_COVERINGS = [
    {"family": "hom_besov", "params": {"d": 2}},
    {"family": "inhom_besov", "params": {"d": 2}},
    {"family": "alpha_modulation", "params": {"d": 1, "alpha": "1/2"}},
    {"family": "alpha_modulation", "params": {"d": 2, "alpha": "1/2"}},
    {"family": "shearlet_smoothness", "params": {}},
    *({"family": "shearlet_coorbit", "params": {"c": c}}
      for c in (-1, 1, 2, "1/2", "1/3", "3/2")),
    {"family": "diagonal", "params": {"d": 2, "alpha": "1/2", "beta": [0, [-1, 2]]}},
]
CONSTANTS_RADII = (0, 1, 2, 3)
# Three and four dimensions, each at the radii its window affords: diagonal
# d = 3 has 1 000 indices at radius 2, alpha_modulation d = 3 at alpha 1/2
# takes float transforms, and the custom covering maps a ball by four exact
# non-diagonal 4 x 4 similarities (quaternion matrices, the last of them
# orthogonal over 1/2), so its constants read 4 x 4 determinants and adjugates.
QUATERNIONS = [
    [[a, -b, -c, -e], [b, a, -e, c], [c, e, a, -b], [e, -c, b, a]]
    for a, b, c, e in ((1, 0, 0, 0), (1, 1, 1, 1), (1, 2, 2, 4), (2, 0, 0, 0))
]
DEEP_CONSTANTS_COVERINGS = [
    ({"family": "hom_besov", "params": {"d": 3}}, CONSTANTS_RADII),
    ({"family": "diagonal", "params": {"d": 3}}, (0, 1)),
    ({"family": "alpha_modulation", "params": {"d": 3, "alpha": "1/2"}}, CONSTANTS_RADII),
    ({"custom": {
        "dimension": 4,
        "indices": [[0], [1], [2], [3], [4]],
        "T": [*QUATERNIONS, [[f"{x}/2" for x in row] for row in QUATERNIONS[1]]],
        "b": [[0, 0, 0, 0], [2, 0, 0, 0], [0, 5, 0, 0], [0, 0, -9, 0], [0, 0, 0, "1/2"]],
        "base_set": {"ball": {"center": [0, 0, 0, 0], "radius": 1}},
    }}, (0,)),
]


def constants_line(doc: dict, radius: int) -> str:
    """One golden line: the constants of a covering window and a hash of its
    neighbour map, or the error an empty window raises."""
    cov = covering_from_json(doc)
    line = {"covering": doc, "radius": radius}
    try:
        line["constants"] = certify_constants(cov, radius)
    except InvalidParams as exc:
        line["error"] = str(exc)
    else:
        nbrs = sorted([list(i), [list(j) for j in js]] for i, js in adjacency(cov, radius)[0].items())
        line["neighbors_sha256"] = hashlib.sha256(
            json.dumps(nbrs, separators=(",", ":")).encode()).hexdigest()
    return json.dumps(line, separators=(",", ":")) + "\n"


# Every family and target under decide --oracle-check, the coorbit shapes on
# both integer routes (c = 2 and c = -1), a second c = -1 C_b query at
# beta = 17/16 whose outside rows have a finite closed-form rest, then the
# oracle half of check-sequence --oracle,
# truncated_oracle(u.quotient(v), compound(s, r)),
# on a line, a plane, a Z_nonzero power and a two-atom weight on an outside
# pair sector (theta = 2, inf and 3/2).  That weight has an exp2 rate on n
# and one power |m|^c per atom, so it also goes through check-sequence
# --oracle, exact decider and oracle alike.  Last, two atoms |m|^-1/2 and
# |m|^-1 at theta = 3/2, whose outside rows diverge: the exact decider says
# it does not embed.  The replay takes about 1.5 s.
ORACLE_DECIDE = [
    ("hom_besov", {"d": 1, "s": "1/2"}, "sobolev", "1", "2", "2", 0),
    ("inhom_besov", {"d": 2, "s": "5/3"}, "bv", "1", None, "2", 1),
    ("alpha_modulation", {"d": 1, "alpha": "1/3", "s": "1"}, "sobolev", "2", "3", "2", 0),
    ("alpha_modulation", {"d": 2, "alpha": "1/2", "s": "3"}, "sobolev", "1", "2", "2", 1),
    ("shearlet_smoothness", {"s": "2"}, "sobolev", "1", "2", "4", 1),
    ("shearlet_smoothness", {"s": "7/6"}, "sobolev", "1", "3", "3", 0),
    ("shearlet_coorbit", {"c": "2", "alpha": "-3", "beta": "1"}, "sobolev", "1", "2", "2", 0),
    ("shearlet_coorbit", {"c": "-1", "alpha": "0", "beta": "1"}, "cb", "1", None, "2", 0),
    ("shearlet_coorbit", {"c": "-1", "alpha": "0", "beta": "17/16"}, "cb", "1", None, "2", 0),
    ("shearlet_coorbit", {"c": "-1", "alpha": "1", "beta": "2"}, "bv", "1", None, "2", 1),
    ("diagonal", {"d": 1, "alpha": -2, "beta": -3}, "cb", "1", None, "2", 1),
    ("diagonal", {"d": 2, "alpha": ["-1/2", "0"], "beta": ["-3/2", "-2"]},
     "sobolev", "1", "2", "2", 1),
    # four dimensions, past the window cap of a grid: radial and product
    # pieces read by their structure
    ("alpha_modulation", {"d": 4, "s": "3"}, "sobolev", "1", "2", "2", 1),
    ("alpha_modulation", {"d": 4, "s": "3"}, "sobolev", "2", "3", "2", 0),
    ("diagonal", {"d": 4, "alpha": "-1/2", "beta": "-3/2"}, "sobolev", "1", "2", "2", 0),
    ("diagonal", {"d": 4, "alpha": "-1/2", "beta": "-3/2"}, "sobolev", "1", "1", "3/2", 0),
    # k = 1 products of d + 1 atoms: theta = inf read at the corners
    ("diagonal", {"d": 4, "alpha": "-1/2", "beta": "-3/2"}, "sobolev", "1", "2", "2", 1),
    ("diagonal", {"d": 5, "alpha": "-1/2", "beta": "-3/2"}, "sobolev", "1", "2", "2", 1),
]
_OUTSIDE = {"kind": "pairs", "lam": "1/2", "side": "outside", "shift": -1}
_OUTSIDE_ATOMS = [
    {"exp2": ["-1", "0"], "pow": ["0", "-2"]},
    {"coeff": "1/3", "exp2": ["-1/2", "0"], "pow": ["0", "-3/2"]},
]
_SLOW = {"kind": "pairs", "lam": "1", "side": "outside"}
ORACLE_SEQUENCE = [
    ({"lattice": {"kind": "Z"}, "atoms": [{"exp2": ["-3/2"]}]},
     {"lattice": {"kind": "Z"}, "atoms": [{"exp2": ["1/2"]}]}, "2", "1"),
    ({"lattice": {"kind": "product", "domains": ["N0", "Nneg"]},
      "atoms": [{"exp2": ["-1", "1/2"]}]},
     {"lattice": {"kind": "product", "domains": ["N0", "Nneg"]}}, "3", "3/2"),
    ({"lattice": {"kind": "Z_nonzero"}, "atoms": [{"exp2": ["0"], "pow": ["-3/2"]}]},
     {"lattice": {"kind": "Z_nonzero"}}, "2", "1"),
    ({"lattice": _OUTSIDE, "atoms": _OUTSIDE_ATOMS}, {"lattice": _OUTSIDE}, "2", "1"),
    ({"lattice": _OUTSIDE, "atoms": _OUTSIDE_ATOMS}, {"lattice": _OUTSIDE}, "1", "2"),
    ({"lattice": _OUTSIDE, "atoms": _OUTSIDE_ATOMS}, {"lattice": _OUTSIDE}, "3", "1"),
    ({"lattice": _SLOW, "atoms": [{"pow": ["0", "-1/2"]}, {"pow": ["0", "-1"]}]},
     {"lattice": _SLOW}, "3", "1"),
]


def oracle_queries() -> list[dict]:
    """The oracle golden's queries: decide keyword arguments, then
    check-sequence weight pairs with their exponents r and s."""
    queries = []
    for family, params, target, p, q, r, k in ORACLE_DECIDE:
        query = {"family": family, "params": params, "target": target, "p": p, "r": r, "k": k}
        if q is not None:
            query["q"] = q
        queries.append(query)
    queries += [{"u": u, "v": v, "r": r, "s": s} for u, v, r, s in ORACLE_SEQUENCE]
    return queries


def oracle_lines(query: dict) -> str:
    """The golden lines of one query: one per distinct (weight, theta) the
    query puts to the oracle, in the order of its first call."""
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

        with mock.patch.object(oracle, "truncated_oracle", record):
            decide(query["family"], query["params"], p=query["p"], q=query.get("q"),
                   r=query["r"], target=query["target"], k=query["k"], oracle_check=True)
    return "".join(
        json.dumps({"query": query, "theta": str(theta), "tail": tail.to_json()},
                   separators=(",", ":")) + "\n"
        for (_, theta), tail in tails.items()
    )


def run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def goldens() -> dict[str, bytes]:
    """Every golden file name with the content the code produces now, each
    kind from cleared memos; the decide grid comes last, so that the memos
    it leaves warm are those of its own pass."""
    memos.clear()
    files = {}
    manifest = []
    for name, argv in CASES:
        code, payload = run(argv)
        files[f"{name}.out"] = payload
        manifest.append({"name": name, "argv": argv, "exit": code})
    files["manifest.json"] = (json.dumps(manifest, indent=2) + "\n").encode()
    memos.clear()
    constants = "".join(
        constants_line(doc, r) for doc, radii in [
            *((doc, CONSTANTS_RADII) for doc in CONSTANTS_COVERINGS), *DEEP_CONSTANTS_COVERINGS]
        for r in radii
    ).encode()
    memos.clear()
    tails = "".join(oracle_lines(q) for q in oracle_queries()).encode()
    memos.clear()
    queries = grid_queries()
    lines = [grid_line(q) for q in queries]
    _check_coverage(queries, lines)
    return {**files, GRID_FILE: "".join(lines).encode(), CONSTANTS_FILE: constants,
            ORACLE_FILE: tails}


def warm_grid_drift(grid: bytes) -> list[dict]:
    """The queries whose line differs when the decide grid is replayed in
    reverse order right after a forward pass, on the five memos of the
    decide path as that pass left them (see the module docstring)."""
    lines = grid.decode().splitlines(keepends=True)
    queries = [json.loads(line)["query"] for line in lines]
    return [q for q, line in zip(reversed(queries), reversed(lines)) if grid_line(q) != line]


def _leaves(obj, path: str = ""):
    """(dotted path, value) for every non-dict value of a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    else:
        yield path, obj


def jsonl_changes(old: bytes, new: bytes) -> list[str]:
    """The report lines of a drifted JSONL golden, line by line: what the
    old and new line share, then each field that moved, old -> new."""
    olds, news = old.decode().splitlines(), new.decode().splitlines()
    out = [] if len(olds) == len(news) else [f"  {len(olds)} lines -> {len(news)} lines"]
    for lineno, (a, b) in enumerate(zip(olds, news), 1):
        if a == b:
            continue
        ja, jb = json.loads(a), json.loads(b)
        same = {k: v for k, v in jb.items() if ja.get(k) == v}
        out.append(f"  line {lineno}: {json.dumps(same, separators=(',', ':'))}")
        was, now = dict(_leaves(ja)), dict(_leaves(jb))
        for path in dict.fromkeys([*was, *now]):
            if was.get(path, "absent") != now.get(path, "absent"):
                out.append(f"    {path}: {was.get(path, 'absent')} -> {now.get(path, 'absent')}")
    return out


def main_freeze(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="report drifted goldens and exit 1 without writing")
    args = parser.parse_args(argv)
    files = goldens()
    if args.check:
        drifted = [name for name, payload in files.items()
                   if not (GOLDEN / name).is_file() or (GOLDEN / name).read_bytes() != payload]
        for name in drifted:
            print(f"drifted: {name}")
            if name.endswith(".jsonl") and (GOLDEN / name).is_file():
                for line in jsonl_changes((GOLDEN / name).read_bytes(), files[name]):
                    print(line)
        print(f"{len(files) - len(drifted)} of {len(files)} golden files unchanged")
        warm = warm_grid_drift(files[GRID_FILE])
        if warm:
            print(f"drifted: {GRID_FILE} replayed in reverse on warm caches, "
                  f"{len(warm)} lines, first {json.dumps(warm[0])}")
        return 1 if drifted or warm else 0
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        (GOLDEN / name).write_bytes(payload)
        print(f"{name}: {len(payload)} bytes")
    print(f"wrote {len(files)} files to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main_freeze())
