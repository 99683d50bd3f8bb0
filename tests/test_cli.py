import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decomp_embed
from decomp_embed import cli
from decomp_embed.cli import main
from decomp_embed.families import FAMILY_NAMES, covering_from_json, family_covering
from decomp_embed.oracle import TailClassification
from witnesses import WARNINGS_AS_ERRORS

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue()


@pytest.mark.parametrize("case", MANIFEST, ids=[c["name"] for c in MANIFEST])
def test_golden_transcript(case):
    code_a, out_a, _ = run_cli(case["argv"])
    code_b, out_b, _ = run_cli(case["argv"])
    assert out_a == out_b, "output of a repeated invocation drifted"
    assert code_a == code_b == case["exit"]
    assert out_a == (GOLDEN / f"{case['name']}.out").read_bytes()


def test_manifest_covers_the_surface():
    assert len(MANIFEST) == 12
    assert {c["exit"] for c in MANIFEST} >= {0, 1, 2}
    assert {c["argv"][0] for c in MANIFEST} == {
        "decide", "inspect-covering", "check-sequence", "verify-family",
    }
    flat = [tok for c in MANIFEST for tok in c["argv"]]
    assert "--pretty" in flat and "--oracle" in flat and "--oracle-check" in flat


def test_outputs_are_single_json_lines_or_pretty():
    for case in MANIFEST:
        payload = (GOLDEN / f"{case['name']}.out").read_bytes()
        assert payload.endswith(b"\n")
        json.loads(payload)
        if "--pretty" not in case["argv"]:
            assert payload.count(b"\n") == 1


def custom_covering(**fields) -> str:
    """A one-index custom covering document with some fields replaced."""
    doc = {"dimension": 1, "indices": [[0]], "T": [[[1]]], "b": [[0]],
           "base_set": {"ball": {"center": [0], "radius": 1}}}
    return json.dumps({"custom": {**doc, **fields}})


def _radial(d: int, **doc) -> str:
    """A weight document on the radial lattice of dimension d."""
    return json.dumps({"lattice": {"kind": "radial", "d": d}, **doc})


# a dimension of 10^9: the d x d entries of a transform, a window of 3^d
# or 2^d indices and the 10^9 entries of diagonal's parameter vectors each
# meet the cap; so do the 4d + 1 exponents of each radial atom, at 10^6 too
_HUGE_DIMENSION = [
    ["verify-family", "--family", "hom_besov", "--params", '{"d":1000000000}', "--radius", "1"],
    ["verify-family", "--family", "inhom_besov", "--params", '{"d":1000000000}', "--radius", "0"],
    ["inspect-covering", "--covering", '{"family":"diagonal","params":{"d":1000000000}}',
     "--radius", "0"],
    ["inspect-covering", "--covering", '{"family":"alpha_modulation","params":{"d":1000000000}}',
     "--radius", "1"],
    ["inspect-covering", "--covering", '{"family":"alpha_modulation","params":{"d":1000000000}}',
     "--radius", "0"],
    *(["decide", "--family", "alpha_modulation", "--params",
       json.dumps({"d": d, "alpha": "1/2", "s": "1"}), "-p", "1", "-q", "3", "-r", "2", "-k", "1"]
      for d in (10**6, 10**9)),
    *(["check-sequence", "--u", _radial(d, atoms=[{"radial_pow": "-1"}]), "--v", _radial(d),
       "-r", "2", "-s", "1"] for d in (10**6, 10**9)),
]


@pytest.mark.parametrize("argv,code", [
    (["decide", "--family", "hom_besov", "-q", "2", "-r", "2"], 64),
    (["decide", "--family", "hom_besov", "-p", "0.1234567", "-q", "2", "-r", "2"], 64),
    (["decide", "--family", "nope", "-p", "1", "-q", "2", "-r", "2"], 64),
    (["decide", "--family", "hom_besov", "--params", "{oops",
      "-p", "1", "-q", "2", "-r", "2"], 65),
    (["decide", "--family", "hom_besov", "--params", '{"d":1}',
      "--target", "bv", "-p", "1", "-r", "1"], 64),          # bv needs k >= 1
    (["decide", "--family", "hom_besov", "--params", '{"d":1}',
      "--target", "cb", "-p", "1", "-q", "2", "-r", "1"], 64),  # q makes no sense
    (["decide", "--family", "hom_besov", "--params", '{"d":1,"s":0,"x":1}',
      "-p", "1", "-q", "2", "-r", "2"], 64),
    (["inspect-covering", "--covering", '{"frame":1}'], 65),
    (["inspect-covering", "--covering", "[]"], 65),
    (["check-sequence", "--u", '{"lattice":{"kind":"??"}}',
      "--v", '{"lattice":{"kind":"Z"}}', "-r", "2", "-s", "2"], 65),
    (["check-sequence", "--u", '{"lattice":{"kind":"Z"}}',
      "--v", '{"pieces":[{"lattice":{"kind":"N0"}},{"lattice":{"kind":"Nneg"}}]}',
      "-r", "2", "-s", "2"], 70),
    ([], 64),
    (["decide", "--family", "hom_besov", "-p", "1/0", "-q", "2", "-r", "2"], 64),
    (["decide", "--family", "hom_besov", "--params", '{"s":"1/0"}',
      "-p", "1", "-q", "2", "-r", "2"], 64),
    (["decide", "--family", "hom_besov", "--params", '{"s":Infinity}',
      "-p", "1", "-q", "2", "-r", "2"], 64),
    (["decide", "--family", "hom_besov", "--params", "[1]",
      "-p", "1", "-q", "2", "-r", "2"], 64),
    (["check-sequence", "--u", '{"lattice":{"kind":"N0"},"atoms":[{"exp2":"1/0"}]}',
      "--v", '{"lattice":{"kind":"N0"}}', "-r", "2", "-s", "2"], 65),
    (["inspect-covering", "--covering", '{"family":"hom_besov"}', "--radius", "-1"], 64),
    (["verify-family", "--family", "hom_besov", "--radius", "-1"], 64),
    (["inspect-covering", "--covering", '{"family":"alpha_modulation"}',
      "--radius", "0"], 64),                                  # empty window
    (["inspect-covering", "--covering", '{"family":"hom_besov"}',
      "--radius", "2", "--index", "99"], 64),
    # a malformed --index is a usage error before the window meets the cap
    (["inspect-covering", "--covering", '{"family":"shearlet_smoothness"}',
      "--radius", "40", "--index", "a,b"], 64),
    # a window whose count has thousands of digits meets the cap at once
    (["inspect-covering", "--covering", '{"family":"shearlet_smoothness"}',
      "--radius", "15000"], 70),
    (["verify-family", "--family", "shearlet_coorbit", "--radius", "15000"], 70),
    (["inspect-covering", "--covering", '{"family":"shearlet_smoothness"}',
      "--radius", "200000"], 70),
    (["verify-family", "--family", "shearlet_smoothness", "--radius", "200000"], 70),
    # a huge dimension is refused before anything of its size is built
    *([argv, 70] for argv in _HUGE_DIMENSION),
    # a window past the float range fails at its first such index
    (["verify-family", "--family", "diagonal", "--radius", "200000"], 70),
    (["inspect-covering", "--covering", '{"family":"inhom_besov"}', "--radius", "200000"], 70),
    (["inspect-covering", "--covering", json.dumps({"custom": {
        "dimension": 1, "indices": [[0]], "T": [[[0]]], "b": [[0]],
        "base_set": {"ball": {"center": [0], "radius": 1}}}})], 65),
    (["inspect-covering", "--covering", custom_covering(indices=[["a"]])], 65),
    (["inspect-covering", "--covering", custom_covering(indices=[5])], 65),
    (["inspect-covering", "--covering", custom_covering(dimension="x")], 65),
    (["check-sequence", "--u", '{"lattice":{"kind":"product","domains":5}}',
      "--v", '{"lattice":{"kind":"Z"}}', "-r", "2", "-s", "2"], 65),
    (["check-sequence", "--u", '{"lattice":{"kind":"Z"},"atoms":5}',
      "--v", '{"lattice":{"kind":"Z"}}', "-r", "2", "-s", "2"], 65),
    (["decide", "--family", "hom_besov", "--params", '{"s":"0.1234567"}',
      "-p", "1", "-q", "2", "-r", "2"], 64),
    (["check-sequence", "--u", '{"lattice":{"kind":"radial","d":2.5}}',
      "--v", '{"lattice":{"kind":"radial","d":2}}', "-r", "2", "-s", "2"], 65),
    (["decide", "--family", "hom_besov", "--params", '{"s":"1.0000000000000001"}',
      "-p", "1", "-q", "2", "-r", "2"], 64),
    (["check-sequence", "--u", '{"lattice":{"kind":"product","domains":[]}}',
      "--v", '{"lattice":{"kind":"Z"}}', "-r", "2", "-s", "2"], 65),
    (["inspect-covering", "--covering", custom_covering(
        indices=[[0], [1, 2]], T=[[[1]], [[2]]], b=[[0], [3]])], 65),
    (["inspect-covering", "--covering", custom_covering(
        dimension=2, T=[[[1, 0], [0, 1]]], b=[[0, 0]],
        base_set={"polygon": {"vertices": [[0, 0], [1, 1]]}})], 65),
    (["inspect-covering", "--covering", '{"family":"hom_besov"}', "--radius", "x"], 64),
    (["decide", "--family", "hom_besov", "--params", '{"d":1,"s":1.0000000000000001}',
      "-p", "1", "-q", "2", "-r", "2"], 64),
    (["verify-family", "--family", "hom_besov", "--params", '{"s":1e400}'], 64),
    (["check-sequence", "--u", '{"lattice":{"kind":"N0"},"atoms":[{"exp2":-1.0000000000000001}]}',
      "--v", '{"lattice":{"kind":"N0"}}', "-r", "2", "-s", "2"], 65),
    (["inspect-covering", "--covering",
      custom_covering().replace('"radius": 1}', '"radius": 1.0000000000000001}')], 65),
    # empty or degenerate base sets
    (["inspect-covering", "--covering", custom_covering(
        base_set={"ball": {"center": [0], "radius": -1}})], 65),
    (["inspect-covering", "--covering", custom_covering(
        base_set={"ball": {"center": [0], "radius": 0}})], 65),
    (["inspect-covering", "--covering", custom_covering(
        base_set={"box": {"lo": [2], "hi": [1]}})], 65),
    (["inspect-covering", "--covering", custom_covering(
        base_set={"box": {"lo": [1], "hi": [1]}})], 65),
    (["inspect-covering", "--covering", custom_covering(
        base_set={"annulus": {"inner": 3, "outer": 1}})], 65),
    (["inspect-covering", "--covering", custom_covering(
        base_set={"annulus": {"inner": -1, "outer": 1}})], 65),
    (["inspect-covering", "--covering", custom_covering(
        dimension=2, T=[[[1, 0], [0, 1]]], b=[[0, 0]],
        base_set={"polygon": {"vertices": [[0, 0], [1, 1], [2, 2]]}})], 65),
    (["inspect-covering", "--covering", custom_covering(
        dimension=2, T=[[[1, 0], [0, 1]]], b=[[0, 0]],
        base_set={"cone_trapezoid": {"x": [1, 1], "slope": [-1, 1]}})], 65),
    # numbers outside the float range: in the document (65), or reached
    # only by T^-1, a transition matrix or a transformed set (70)
    (["inspect-covering", "--covering", custom_covering(T=[[[10**400]]])], 65),
    (["inspect-covering", "--covering", custom_covering(b=[[-10**400]])], 65),
    (["inspect-covering", "--covering", custom_covering(
        base_set={"ball": {"center": [10**400], "radius": 1}})], 65),
    (["inspect-covering", "--covering", custom_covering(
        dimension=2, T=[[[1, 0], [0, 1]]], b=[[0, 0]],
        base_set={"polygon": {"vertices": [[0, 0], [1, 0], [0, f"{10**400}/3"]]}})], 65),
    (["inspect-covering", "--covering", custom_covering(
        indices=[[0], [1]], T=[[[f"1/{10**400}"]], [[1]]], b=[[0], [0]])], 70),
    (["inspect-covering", "--covering", custom_covering(
        indices=[[0], [1]], T=[[[f"1/{10**200}"]], [[10**200]]], b=[[0], [0]])], 70),
    (["inspect-covering", "--covering", custom_covering(
        T=[[[10**200]]], base_set={"ball": {"center": [0], "radius": 10**200}})], 70),
    (["inspect-covering", "--covering",
      custom_covering().replace('"radius": 1}', '"radius": 1' + "0" * 5000 + "}")], 65),
    # the oracle reads coefficients and exponents as floats: one past the
    # float range, or a coefficient that underflows to 0, is unsupported
    (["check-sequence", "--u", json.dumps({"lattice": {"kind": "Z"},
                                           "atoms": [{"coeff": 10**400}]}),
      "--v", '{"lattice":{"kind":"Z"}}', "-r", "2", "-s", "1", "--oracle"], 70),
    (["check-sequence", "--u", json.dumps({"lattice": {"kind": "N0"},
                                           "atoms": [{"exp2": -10**400}]}),
      "--v", '{"lattice":{"kind":"N0"}}', "-r", "2", "-s", "1", "--oracle"], 70),
    (["decide", "--family", "hom_besov", "--params", json.dumps({"s": 10**400}),
      "-p", "1", "-q", "2", "-r", "2", "--oracle-check"], 70),
    (["check-sequence", "--u", json.dumps({"lattice": {"kind": "pairs"},
                                           "atoms": [{"coeff": f"1/{10**400}"}]}),
      "--v", '{"lattice":{"kind":"pairs"}}', "-r", "2", "-s", "1", "--oracle"], 70),
    (["check-sequence", "--u", json.dumps({"lattice": {"kind": "Z"},
                                           "atoms": [{"coeff": f"1/{10**400}"}]}),
      "--v", '{"lattice":{"kind":"Z"}}', "-r", "2", "-s", "1", "--oracle"], 70),
    # the tail bound reads a pair sector's lam as a float
    *([["check-sequence", "--u", doc, "--v", doc, "-r", "1", "-s", "1", "--oracle"], 70]
      for doc in [json.dumps({"lattice": {"kind": "pairs", "lam": 10**400, "side": side},
                              "atoms": [{}]}) for side in ("outside", "inside")]),
    # JSON nested past the recursion limit is not valid JSON, on every command
    *([argv, 65] for doc in ("[" * 3000 + "]" * 3000, '{"a":' * 3000 + "1" + "}" * 3000)
      for argv in (
          ["decide", "--family", "hom_besov", "--params", doc, "-p", "1", "-q", "2", "-r", "2"],
          ["inspect-covering", "--covering", doc],
          ["check-sequence", "--u", doc, "--v", '{"lattice":{"kind":"Z"}}', "-r", "2", "-s", "2"],
          ["check-sequence", "--u", '{"lattice":{"kind":"Z"}}', "--v", doc, "-r", "2", "-s", "2"],
          ["verify-family", "--family", "hom_besov", "--params", doc])),
    # a field that parses but is too deep for the form cache's key is refused by the parse
    (["decide", "--family", "hom_besov", "--params", '{"s":' + "[" * 500 + "1" + "]" * 500 + "}",
      "-p", "1", "-q", "2", "-r", "2"], 64),
])
def test_error_exit_codes(argv, code):
    got, _, err = run_cli(argv)
    assert got == code
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    if argv[:1] == ["check-sequence"] and argv[-1] == "--oracle":
        # the exact route keeps its verdict without the oracle
        assert run_cli(argv[:-1])[0] in (0, 1)


def _check_u(u, v='{"lattice":{"kind":"Z"}}'):
    return ["check-sequence", "--u", u, "--v", v, "-r", "2", "-s", "2"]


_BALL_2D = {"ball": {"center": [0, 0], "radius": 1}}


@pytest.mark.parametrize("argv, code, message", [
    # base sets and custom coverings
    (["inspect-covering", "--covering", custom_covering(base_set="ball")], 65,
     "not a base-set descriptor"),
    (["inspect-covering", "--covering", custom_covering(base_set={"ball": 5})], 65,
     "bad base-set descriptor"),
    (["inspect-covering", "--covering", custom_covering(base_set={"sphere": {}})], 65,
     "unknown base-set kind 'sphere'"),
    (["inspect-covering", "--covering", '{"custom":5}'], 65,
     "custom covering must be an object"),
    (["inspect-covering", "--covering", custom_covering(b=[[0], [1]])], 65,
     "T and b must run parallel to the index list"),
    (["inspect-covering", "--covering", custom_covering(b=[[0, 0]])], 65,
     "offsets must have one entry per dimension"),
    (["inspect-covering", "--covering", custom_covering(
        base_set=[{"ball": {"center": [0], "radius": 1}}] * 2)], 65,
     "per-index base sets must run parallel to indices"),
    (["inspect-covering", "--covering", custom_covering(base_set=[_BALL_2D])], 65,
     "base-set dimension mismatch"),
    (["inspect-covering", "--covering", custom_covering(base_set=_BALL_2D)], 65,
     "base-set dimension mismatch"),
    (["inspect-covering", "--covering", custom_covering(
        base_set={"box": {"lo": [0, 0], "hi": [1, 1]}})], 65, "base-set dimension mismatch"),
    (["inspect-covering", "--covering", custom_covering(
        base_set={"polygon": {"vertices": [[0, 0], [1, 0], [0, 1]]}})], 65,
     "base-set dimension mismatch"),
    # sectors, atoms and weights
    (_check_u('{"lattice":{"kind":"product","domains":["bogus"]}}'), 65,
     "unknown line domain 'bogus'"),
    (_check_u('{"lattice":{"kind":"radial","d":0}}'), 65, "dimension must be >= 1"),
    (_check_u('{"lattice":{"kind":"pairs","n_domain":"Z"}}'), 65,
     "pair sector n-domain must be N0 or Nneg"),
    (_check_u('{"lattice":{"kind":"pairs","side":"middle"}}'), 65,
     "pair sector side must be inside or outside"),
    (_check_u('{"lattice":{"kind":"pairs","shift":2}}'), 65,
     "pair sector shift must be in {-1, 0, 1}"),
    (_check_u('{"lattice":"Z"}'), 65, "not a sector descriptor"),
    (_check_u('{"lattice":{"kind":"Z"},"atoms":[{"coeff":0}]}'), 65,
     "atom coefficient must be positive"),
    (_check_u('{"lattice":{"kind":"Z"},"atoms":[5]}'), 65, "not an atom descriptor"),
    (_check_u('{"lattice":{"kind":"Z"},"atoms":[{"exp2":[0,0]}]}'), 65,
     "atom exponent lists must match the sector dimension"),
    (_check_u('{"pieces":5}'), 65, "pieces must be a list"),
    # a u/v pair on different lattices has no quotient
    (_check_u('{"lattice":{"kind":"Z"}}', '{"lattice":{"kind":"N0"}}'), 70,
     "quotient across different sectors"),
    # window 1 fits the float range and window 3 does not: the error names
    # the r + 2 map of verify-family
    (["verify-family", "--family", "alpha_modulation", "--params", '{"d":1,"alpha":"999/1000"}',
      "--radius", "1"], 70, "at radius 3 leaves the float range"),
])
def test_schema_refusals_print_one_error_line(argv, code, message):
    got, out, err = run_cli(argv)
    assert (got, out) == (code, b"")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert message in err


@pytest.mark.parametrize("side", ["inside", "outside"])
def test_oracle_bounds_a_row_rate_whose_float_gap_cancels(side):
    # at a = -10^-20, 1 - 2^(a/2) rounds to 0, which the tail bound divided by
    lattice = {"kind": "pairs", "side": side}
    u = json.dumps({"lattice": lattice, "atoms": [{"exp2": [f"-1/{10**20}", 0], "pow": [0, -3]}]})
    code, out, err = run_cli(["check-sequence", "--u", u, "--v", json.dumps({"lattice": lattice}),
                              "-r", "2", "-s", "1", "--oracle"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["embeds"] is True and doc["oracle"]["verdict"] in ("Convergent", "Inconclusive")


def test_oracle_refuses_an_asymmetric_m_power_as_the_decider_does():
    # |m|^-2 on +m and |m|^-3 on -m: exit 70 with one error line, with or
    # without the oracle
    pairs = {"kind": "pairs", "lam": "1/2", "side": "outside", "shift": -1}
    u = json.dumps({"lattice": pairs, "atoms": [{"pow": [0, {"pos": "-2", "neg": "-3"}]}]})
    argv = ["-m", "decomp_embed.cli", "check-sequence", "--u", u,
            "--v", json.dumps({"lattice": pairs}), "-r", "2", "-s", "1"]
    for extra in ([], ["--oracle"]):
        proc = _run_python([*argv, *extra])
        assert (proc.returncode, proc.stdout) == (70, "")
        assert proc.stderr == "error: pair sectors need a symmetric m power\n"


_Z = {"kind": "Z"}
_LAM_NEGATIVE = {"kind": "pairs", "lam": -1}


# a weight is refused before any atom is decided: a non-member atom or
# piece ahead of a refused one does not turn the refusal into exit 1
@pytest.mark.parametrize("u, v, message", [
    ({"lattice": _Z, "atoms": [{"pow": ["1"]}, {"radial_pow": "-2"}]}, {"lattice": _Z},
     "radial powers are only supported on radial sectors"),
    ({"lattice": _Z, "atoms": [{"radial_pow": "-2"}, {"pow": ["1"]}]}, {"lattice": _Z},
     "radial powers are only supported on radial sectors"),
    ({"pieces": [{"lattice": _Z, "atoms": [{"exp2": ["1"]}]}, {"lattice": _LAM_NEGATIVE}]},
     {"pieces": [{"lattice": _Z}, {"lattice": _LAM_NEGATIVE}]},
     "pair sector with lam < 0 on n >= 0"),
], ids=["non-member-atom-first", "refused-atom-first", "non-member-piece-first"])
@pytest.mark.parametrize("extra", [[], ["--oracle"]], ids=["exact", "oracle"])
def test_a_refused_weight_exits_70_in_any_order(u, v, message, extra):
    argv = ["check-sequence", "--u", json.dumps(u), "--v", json.dumps(v), "-r", "1", "-s", "1"]
    assert run_cli([*argv, *extra]) == (70, b"", f"error: {message}\n")


@pytest.mark.parametrize("r, s, exponent", [("2", "1", 2), ("1", "1", "inf")])
def test_oracle_sums_a_weight_without_pieces_to_zero(r, s, exponent):
    # an empty quotient is the zero sequence: it embeds, and the oracle agrees
    argv = ["check-sequence", "--u", '{"pieces": []}', "--v", '{"pieces": []}',
            "-r", r, "-s", s]
    code, out, err = run_cli(argv)
    assert (code, json.loads(out), err) == (0, {"embeds": True, "exponent": exponent}, "")
    code, out, err = run_cli([*argv, "--oracle"])
    assert (code, err) == (0, "")
    oracle = json.loads(out)["oracle"]
    assert (oracle["verdict"], oracle["partial_sum"], oracle["tail_bound"]) == (
        "Convergent", 0.0, 0.0)


def test_oracle_skips_inside_rows_too_wide_to_count():
    # lam = 10^300 is a float, but 2^(lam n) is no int the row cap could be
    # checked against: from row 1 on every row is past the cap, and flagged
    doc = json.dumps({"lattice": {"kind": "pairs", "lam": 10**300, "side": "inside"},
                      "atoms": [{}]})
    code, out, err = run_cli(["check-sequence", "--u", doc, "--v", doc,
                              "-r", "1", "-s", "1", "--oracle"])
    assert (code, err) == (0, "")
    assert json.loads(out)["oracle"]["verdict"] == "Inconclusive"


# T_0 has no closed-form image of the ball, so it takes a bounding ball whose
# radius ||T_0|| squares past the float range; both sets hold the origin
@pytest.mark.parametrize("t0", [[["1e160", 1], [0, 1]], [["1e160", 0], [0, 1]]])
@WARNINGS_AS_ERRORS
def test_norms_past_the_squared_float_range_keep_the_neighbours(t0):
    doc = custom_covering(dimension=2, indices=[[0], [1]], T=[t0, [[1, 0], [0, 1]]],
                          b=[[0, 0], [0, 0]], base_set={"ball": {"center": [0, 0], "radius": 1}})
    code, out, err = run_cli(["inspect-covering", "--covering", doc, "--radius", "1"])
    assert (code, err) == (0, "")
    constants = json.loads(out)["constants"]
    assert constants["N_hat"] == 2
    assert constants["C_hat"] == pytest.approx(1e160, rel=1e-12)


def test_radius_error_names_the_requirement():
    _, _, err = run_cli(["inspect-covering", "--covering", '{"family":"hom_besov"}',
                         "--radius", "x"])
    assert err == "error: argument --radius: must be a non-negative integer, got 'x'\n"


@pytest.mark.parametrize("number", ["0.5", "0.3333333333333333", "5e-1"])
def test_json_numbers_a_float_keeps_follow_the_float_rule(number):
    code, out, _ = run_cli(["decide", "--family", "hom_besov", "--params",
                            f'{{"d":1,"s":{number}}}', "-p", "1", "-q", "2", "-r", "2"])
    assert code in (0, 1) and json.loads(out)["outcome"]


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from _leaves(val, path + (key,))
    elif isinstance(doc, list):
        for key, val in enumerate(doc):
            yield from _leaves(val, path + (key,))
    else:
        yield path


def _replace_leaf(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _leaf_mutations():
    """Every golden check-sequence and custom-covering argv, one JSON leaf replaced."""
    for case in MANIFEST:
        if case["argv"][0] != "check-sequence" and case["name"] != "inspect_custom":
            continue
        argv = case["argv"]
        for pos in range(1, len(argv)):
            if argv[pos - 1] not in ("--u", "--v", "--covering"):
                continue
            doc = json.loads(argv[pos])
            for path in _leaves(doc):
                for value in (True, 2.5, "x", "1/0", [1], {}, None, -1):
                    mutated = _replace_leaf(doc, path, value)
                    yield pytest.param(
                        argv[:pos] + [json.dumps(mutated)] + argv[pos + 1:],
                        id=f"{case['name']}-{argv[pos - 1]}-{'.'.join(map(str, path))}={value!r}",
                    )


@pytest.mark.parametrize("argv", _leaf_mutations())
def test_leaf_mutations_exit_cleanly(argv):
    code, out, err = run_cli(argv)
    assert code in {0, 1, 2, 10, 64, 65, 70}
    if code in (0, 1, 2):
        json.loads(out)
    assert "Traceback" not in err


_FLAGS = {
    "decide": ("--family", "--params", "--target", "-p", "-q", "-r", "-k"),
    "inspect-covering": ("--covering", "--radius", "--index"),
    "check-sequence": ("--u", "--v", "-r", "-s"),
    "verify-family": ("--family", "--params", "--radius"),
}
_SWITCHES = ("--pretty", "--refine", "--no-refine", "--oracle-check", "--oracle")
# every JSON document of the golden argv, plus literals on both sides of each rule
_VALUES = tuple(sorted({tok for c in MANIFEST for tok in c["argv"] if tok.startswith("{")})) + (
    *FAMILY_NAMES, "nope", "sobolev", "cb", "bv", "1", "2", "3/2", "inf", "0", "-1", "1/0",
    "0.5", "1e400", "1.0000000000000001", "x", "", "0,1", "99", "{}", "[1]", "{oops",
    '{"s":1.0000000000000001}', '{"d":2,"s":"1/2"}', '{"lattice":{"kind":"radial","d":2}}',
)


@st.composite
def _argvs(draw):
    """A golden argv with a few options changed, dropped or added, and
    sometimes a stray token."""
    golden = draw(st.sampled_from(MANIFEST))["argv"]
    command, rest = golden[0], golden[1:]
    options = []  # (flag, value) pairs and (switch,) singletons
    while rest:
        takes_value = rest[0] not in _SWITCHES
        options.append(tuple(rest[:1 + takes_value]))
        rest = rest[1 + takes_value:]
    flags = st.sampled_from(_FLAGS[command])
    values = st.sampled_from(_VALUES)
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(("value", "drop", "add", "switch", "stray")))
        pos = draw(st.integers(0, len(options)))
        if action == "value" and pos < len(options) and len(options[pos]) == 2:
            options[pos] = (options[pos][0], draw(values))
        elif action == "drop" and pos < len(options):
            del options[pos]
        elif action == "add":
            options.insert(pos, (draw(flags), draw(values)))
        elif action == "switch":
            options.insert(pos, (draw(st.sampled_from(_SWITCHES)),))
        elif action == "stray":
            options.insert(pos, (draw(st.one_of(values, flags)),))
    argv = [command, *(tok for option in options for tok in option)]
    if command in ("inspect-covering", "verify-family"):
        # argparse keeps the last --radius; larger windows only cost time
        argv += ["--radius", "0"]
    return argv


@given(_argvs())
@settings(max_examples=100, deadline=None)
def test_argv_fuzz_keeps_the_exit_code_contract(argv):
    code, out, err = run_cli(argv)
    assert code in {0, 1, 2, 10, 64, 65, 70}
    if code in (0, 1, 2):
        json.loads(out)
    assert "Traceback" not in err


def test_malformed_window_cap_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "abc")
    code, _, err = run_cli(["inspect-covering", "--covering", '{"family":"hom_besov"}'])
    assert code == 64
    assert "DECOMP_EMBED_MAX_WINDOW" in err


@pytest.mark.parametrize("doc, count", [
    ('{"family":"hom_besov"}', 9),
    ('{"family":"inhom_besov"}', 5),
    ('{"family":"alpha_modulation","params":{"d":2}}', 80),
    ('{"family":"shearlet_smoothness"}', 269),
    ('{"family":"shearlet_coorbit"}', 594),
    ('{"family":"diagonal","params":{"d":2}}', 324),
    (custom_covering(indices=[[3], [-1], [0], [1]], T=[[[1]], [[2]], [[4]], [[8]]],
                     b=[[0]] * 4), 4),
], ids=[*FAMILY_NAMES, "custom"])
def test_exceeded_window_cap_is_an_internal_limit(monkeypatch, doc, count):
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "3")
    code, out, err = run_cli(["inspect-covering", "--covering", doc, "--radius", "4"])
    assert (code, out) == (70, b"")
    assert err.startswith(f"error: window of {count} indices exceeds the cap of 3 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", zip(_HUGE_DIMENSION, [
    "a transform of 1000000000000000000 entries exceeds the cap of 1000000 ",
    "a transform of 1000000000000000000 entries exceeds the cap of 1000000 ",
    "a parameter vector of 1000000000 entries exceeds the cap of 1000000 ",
    "window of about 2^1584962500 indices exceeds the cap of 1000000 ",
    "a transform of 1000000000000000000 entries exceeds the cap of 1000000 ",
    "a radial form of 12000003 exponents exceeds the cap of 1000000 ",
    "a radial form of 12000000003 exponents exceeds the cap of 1000000 ",
    "a radial form of 4000001 exponents exceeds the cap of 1000000 ",
    "a radial form of 4000000001 exponents exceeds the cap of 1000000 ",
]))
def test_a_huge_dimension_is_refused_at_once(monkeypatch, argv, message):
    monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW", raising=False)
    family_covering.cache_clear()
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (70, b"")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_verify_family_surrogate_past_the_float_range_is_unsupported():
    # b_35 = 35^100 is exact, but its square, about 1e309, is no float
    code, out, err = run_cli(["verify-family", "--family", "alpha_modulation",
                              "--params", '{"d":1,"alpha":"99/100"}', "--radius", "35"])
    assert (code, out) == (70, b"")
    assert err.startswith("error: covering 'alpha_modulation(d=1, alpha=99/100)' at radius 35 "
                          "leaves the float range: ")
    assert err.count("\n") == 1


def test_a_window_past_the_float_range_names_its_own_radius():
    # each index is placed with its bounding box, so radius r fails before
    # verify-family reads its neighbour map at r + 2
    code, out, err = run_cli(["verify-family", "--family", "diagonal", "--radius", "15000"])
    assert (code, out) == (70, b"")
    assert err.startswith("error: covering 'diagonal(d=1)' at radius 15000 "
                          "leaves the float range: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["verify-family", "--family", "shearlet_coorbit", "--radius", "12"],
     "window of 1900602 indices exceeds the cap of 1000000 "),
    (["inspect-covering", "--covering", '{"family":"hom_besov"}', "--radius", "20000"],
     "covering 'hom_besov(d=1)' at radius 20000 leaves the float range: "),
])
def test_a_refused_window_is_refused_before_its_indices_are_placed(monkeypatch, argv, message):
    """verify-family checks the cap of r + 2 before it places radius r, and
    a window's ends, where its largest sets sit, are placed first."""
    monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW", raising=False)
    family_covering.cache_clear()
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 5
    assert (code, out) == (70, b"")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_float_power_overflow_in_a_transform_prints_its_message():
    # float ** float in the transform overflows; its OverflowError carries
    # the (errno, message) tuple as args, and only the message is printed
    code, out, err = run_cli(["verify-family", "--family", "alpha_modulation",
                              "--params", '{"d":2,"alpha":"999/1000"}', "--radius", "1"])
    assert (code, out) == (70, b"")
    assert err == ("error: covering 'alpha_modulation(d=2, alpha=999/1000)' at radius 3 "
                   "leaves the float range: Numerical result out of range\n")
    assert "(34," not in err


def test_errors_repeat_on_a_shared_covering(monkeypatch):
    """A covering kept from an earlier command still checks the window cap
    and the float range, and the constants it keeps are copied out."""
    inspect = ["inspect-covering", "--covering", '{"family":"shearlet_smoothness"}',
               "--radius", "4"]
    assert run_cli(inspect)[0] == 0
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "3")
    code, out, err = run_cli(inspect)
    assert (code, out) == (70, b"")
    assert err.startswith("error: window of 269 indices exceeds the cap of 3 ")
    code, _, err = run_cli([*inspect, "--index", "a,b"])
    assert code == 64 and err.startswith("error: --index must be")
    # verify-family at radius 1 reads its map at radius 3, whose 137
    # indices must pass the cap even when that map is kept
    verify = ["verify-family", "--family", "shearlet_smoothness", "--radius", "1"]
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "1000")
    assert run_cli(verify)[0] in (0, 1)
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "100")
    code, out, err = run_cli(verify)
    assert (code, out) == (70, b"")
    assert err.startswith("error: window of 137 indices exceeds the cap of 100 ")
    monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW")
    overflow = ["verify-family", "--family", "alpha_modulation",
                "--params", '{"d":2,"alpha":"999/1000"}', "--radius", "1"]
    first, second = run_cli(overflow), run_cli(overflow)
    assert first == second and first[0] == 70 and "leaves the float range" in first[2]


def test_certified_constants_are_a_copy():
    from decomp_embed.covering import certify_constants

    cov = covering_from_json({"family": "hom_besov", "params": {"d": 2}})
    got = certify_constants(cov, 3)
    want = dict(got)
    got["N_hat"] = -1
    got.clear()
    assert certify_constants(cov, 3) == want


def test_exceeded_window_cap_bounds_the_oracle_grid(monkeypatch):
    # a product piece of several atoms keeps the grid at a finite theta,
    # which holds 513^2 points at radius 256 in 2-D; the cap is checked first
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "1000")
    code, out, err = run_cli(["decide", "--family", "diagonal",
                              "--params", '{"d":2,"alpha":["-1/2","0"],"beta":["-3/2","-2"]}',
                              "-p", "1", "-q", "3/2", "-r", "2", "-k", "1", "--oracle-check"])
    assert (code, out) == (70, b"")
    assert err.startswith("error: window of 263169 indices exceeds the cap of 1000 ")
    assert err.count("\n") == 1


def test_corner_route_answers_diagonal_d6_at_theta_inf(monkeypatch):
    # at theta = inf the seven atoms on Z^6 are read at the corners of each
    # shell's boxes, 450 000 candidates under the default cap; every choice
    # of one of nine candidates per axis made 2 125 764
    monkeypatch.delenv("DECOMP_EMBED_MAX_WINDOW", raising=False)
    code, out, err = run_cli(["decide", "--family", "diagonal",
                              "--params", '{"d":6,"alpha":"-1/2","beta":"-3/2"}',
                              "-p", "1", "-q", "2", "-r", "2", "-k", "1", "--oracle-check"])
    assert (code, err) == (0, "")
    assert json.loads(out)["outcome"] == "Embeds"


def test_exceeded_window_cap_bounds_the_oracle_square_counts(monkeypatch):
    # a radial piece at theta = 6 counts its points per squared norm, and
    # the cap is checked before each outer sum of the reachable norms and an
    # axis's squares: at radius 8, 116 norms of three axes times 9 squares
    monkeypatch.setenv("DECOMP_EMBED_MAX_WINDOW", "1000")
    code, out, err = run_cli(["decide", "--family", "alpha_modulation",
                              "--params", '{"d":4,"s":3}',
                              "-p", "2", "-q", "3", "-r", "2", "-k", "0", "--oracle-check"])
    assert (code, out) == (70, b"")
    assert err.startswith("error: window of 1044 indices exceeds the cap of 1000 ")
    assert err.count("\n") == 1


def test_parser_is_built_once_per_process():
    cli._build_parser.cache_clear()
    for case in MANIFEST[:4]:
        run_cli(case["argv"])
    run_cli(["decide", "--family", "nope"])
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_help_exits_clean():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert b"usage: decomp-embed" in out and b"decide" in out


def test_decimal_exponents_with_small_denominator_are_accepted():
    code, out, _ = run_cli([
        "decide", "--family", "hom_besov", "--params", '{"d":1,"s":"1/2"}',
        "-p", "1", "-q", "2.0", "-r", "0.5",
    ])
    assert code == 0
    assert json.loads(out)["outcome"] == "Embeds"


def test_oracle_disagreement_exit(monkeypatch):
    import decomp_embed.oracle as oracle

    fake = TailClassification(verdict="Divergent", window_radius=8, partial_sum=1e15)
    monkeypatch.setattr(oracle, "truncated_oracle", lambda *a, **kw: fake)
    code, _, err = run_cli([
        "decide", "--family", "hom_besov", "--params", '{"d":1,"s":"1/2"}',
        "-p", "1", "-q", "2", "-r", "2", "--oracle-check",
    ])
    assert code == 10
    assert "oracle" in err


def test_oracle_convergence_on_a_non_member_is_a_disagreement(monkeypatch):
    import decomp_embed.oracle as oracle

    fake = TailClassification(verdict="Convergent", window_radius=8, partial_sum=1.0)
    monkeypatch.setattr(oracle, "truncated_oracle", lambda *a, **kw: fake)
    code, out, err = run_cli([
        "decide", "--family", "hom_besov", "--params", '{"d":1,"s":"-1/2"}',
        "-p", "1", "-q", "2", "-r", "2", "--oracle-check",
    ])  # S1 is NotMember
    assert (code, out) == (10, b"")
    assert err.startswith("error: S1: oracle tail converges") and err.count("\n") == 1


def test_a_built_weight_that_decides_otherwise_is_an_internal_error(monkeypatch):
    from decomp_embed.seqspace import ExpPolyWeight

    at = ExpPolyWeight.at
    monkeypatch.setattr(ExpPolyWeight, "at", lambda self, dp, g: at(self, dp + 100, g))
    code, out, err = run_cli([
        "decide", "--family", "hom_besov", "--params", '{"d":1,"s":"1/2"}',
        "-p", "1", "-q", "2", "-r", "2", "--oracle-check",
    ])
    assert (code, out) == (70, b"")
    assert err.startswith("error: S1: the compiled form says Member at l^inf but its built "
                          "weight is NotMember") and err.count("\n") == 1


def test_inconsistent_verdict_is_an_internal_error(monkeypatch):
    from decomp_embed.families import HomBesovFamily

    holding = {"id": "S2", "anchor": "test", "role": "sufficient", "holds": True,
               "detail": "forced"}
    monkeypatch.setattr(HomBesovFamily, "refined_criteria", lambda self, *a: [holding])
    code, out, err = run_cli(["decide", "--family", "hom_besov",
                              "-p", "3", "-q", "2", "-r", "2"])  # p > q fails N1
    assert (code, out) == (70, b"")
    assert err.startswith("error: internal inconsistency") and err.count("\n") == 1
    assert "Traceback" not in err


def test_refine_toggle_changes_verdict():
    base = ["decide", "--family", "inhom_besov", "--params", '{"d":1,"s":"5/3"}',
            "-p", "1", "-q", "3", "-r", "2", "-k", "1"]
    code_on, _, _ = run_cli(base)
    code_off, _, _ = run_cli(base + ["--no-refine"])
    assert (code_on, code_off) == (0, 2)


# each probe is a fresh interpreter: a module, once loaded, stays in sys.modules
_PROBED = ("numpy", "decomp_embed.covering", "decomp_embed.oracle", "dataclasses")
_NUMPY_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import decomp_embed
else:
    from decomp_embed.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
print(json.dumps({"exit": code, "loaded": [m for m in %r if m in sys.modules]}))
""" % (_PROBED,)

def _run_python(args, timeout=120):
    """A fresh interpreter with this checkout's package first on the path."""
    src = Path(decomp_embed.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_ten_dimensional_custom_covering_answers_in_a_fresh_process():
    """Determinants and adjugates by elimination, in O(d^3): a cofactor
    expansion has 10! terms here.  The box base set's radius is read axis
    by axis, not over its 1 024 corners."""
    d = 10
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    shear = [[2 * int(i == j) + int(j == i + 1) for j in range(d)] for i in range(d)]
    doc = custom_covering(dimension=d, indices=[[0], [1], [2]],
                          T=[eye, shear, [[3 * x for x in row] for row in eye]],
                          b=[[0] * d, [1] + [0] * (d - 1), [0] * d],
                          base_set={"box": {"lo": [-1] * d, "hi": [1] * d}})
    proc = _run_python(["-m", "decomp_embed.cli", "inspect-covering", "--covering", doc,
                        "--radius", "0"], timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["constants"] == {
        "N_hat": 3, "C_hat": 3.0, "R_hat": math.sqrt(10), "tightness_ok": False}


@pytest.mark.parametrize("case", [None, *MANIFEST],
                         ids=["import decomp_embed", *(c["name"] for c in MANIFEST)])
def test_numpy_is_imported_only_by_the_oracle(case):
    """Only --oracle and --oracle-check load the oracle and numpy, and only
    inspect-covering and verify-family load covering geometry; the
    package's own dataclasses live in the oracle and in covering."""
    argv = case and case["argv"]
    proc = _run_python(["-c", _NUMPY_PROBE, json.dumps(argv)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    oracle = bool(argv) and ("--oracle" in argv or "--oracle-check" in argv)
    geometry = bool(argv) and argv[0] in ("inspect-covering", "verify-family")
    loaded = {"numpy": oracle, "decomp_embed.oracle": oracle, "decomp_embed.covering": geometry,
              "dataclasses": oracle or geometry}
    assert result == {"exit": case and case["exit"], "loaded": [m for m in _PROBED if loaded[m]]}


def _import_time_nodes(node):
    """The nodes of a module that run when it is imported: all but the
    bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def _imported(node) -> set:
    """The modules an import statement of the package may load."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    module = ".".join(filter(None, ["decomp_embed" if node.level else "", node.module]))
    return {module, *(f"{module}.{alias.name}" for alias in node.names)}


def test_the_oracle_shares_no_code_with_the_decider():
    """oracle.py takes only the weight types from seqspace, and
    no module of the package imports it when it is itself imported."""
    package = Path(decomp_embed.__file__).parent
    tree = ast.parse((package / "oracle.py").read_text())
    from_package = {node.module: {alias.name for alias in node.names}
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert set(from_package) == {"errors", "seqspace"}
    assert from_package["seqspace"] <= {
        "ExpPolyWeight", "Piece", "Atom", "CoordFactor", "LineSector", "ProductSector",
        "RadialSector", "PairSector", "Sector"}
    for path in package.glob("*.py"):
        for node in _import_time_nodes(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert "decomp_embed.oracle" not in _imported(node), path.name


def test_oracle_overflow_leaves_stderr_empty():
    # the outside pair row of |m|^100 grows without bound, and its sup reads inf
    proc = _run_python([
        "-m", "decomp_embed.cli", "check-sequence",
        "--u", '{"lattice":{"kind":"pairs","side":"outside"},"atoms":[{"pow":[0,100]}]}',
        "--v", '{"lattice":{"kind":"pairs","side":"outside"},"atoms":[{}]}',
        "-r", "1", "-s", "1", "--oracle",
    ])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (
        '{"embeds":false,"exponent":"inf","oracle":{"verdict":"Divergent",'
        '"window_radius":3,"partial_sum":Infinity,"tail_bound":null,"growth":Infinity}}\n'
    )


@pytest.mark.parametrize("coeff", ["1e200", "1e300"])
def test_oracle_pair_coefficient_past_the_float_range_makes_no_traceback(coeff):
    # the theta-th power of the coefficient, 1e400 or 1e600 at theta = 2,
    # is past the float range in the bound on the rows past the window
    pairs = {"kind": "pairs", "lam": "1", "side": "outside"}
    u = {"lattice": pairs, "atoms": [{"coeff": coeff, "exp2": ["-1", "0"], "pow": ["0", "-3"]}]}
    proc = _run_python(["-m", "decomp_embed.cli", "check-sequence", "--u", json.dumps(u),
                        "--v", json.dumps({"lattice": pairs}), "-r", "2", "-s", "1", "--oracle"])
    assert (proc.returncode, proc.stderr, proc.stdout.count("\n")) == (0, "", 1)
    assert json.loads(proc.stdout)["embeds"] is True


@WARNINGS_AS_ERRORS
def test_oracle_sup_row_of_large_terms_is_their_sup():
    # every term of the row is 1e305: the sup is finite although the sum of
    # its terms is past the float range.  The tail bound is the sup of the
    # rows past the window, the largest of its parts, not their sum
    pairs = {"kind": "pairs", "lam": 0, "side": "outside"}
    code, out, err = run_cli([
        "check-sequence",
        "--u", json.dumps({"lattice": pairs, "atoms": [{"coeff": "1e305"}]}),
        "--v", json.dumps({"lattice": pairs}),
        "-r", "1", "-s", "inf", "--oracle",
    ])
    assert (code, err) == (0, "")
    assert out == (
        b'{"embeds":true,"exponent":"inf","oracle":{"verdict":"Convergent",'
        b'"window_radius":20,"partial_sum":1e+305,"tail_bound":1e+305,"growth":null}}\n'
    )


@WARNINGS_AS_ERRORS
def test_oracle_sup_tail_bound_is_the_largest_part():
    # every term is 1e308; past the window the bound of the rows takes the
    # larger of the two signs of m, where their sum is past the float range
    pairs = {"kind": "pairs", "lam": 0, "side": "outside"}
    code, out, err = run_cli([
        "check-sequence",
        "--u", json.dumps({"lattice": pairs, "atoms": [{"coeff": "1e308"}]}),
        "--v", json.dumps({"lattice": pairs}),
        "-r", "1", "-s", "inf", "--oracle",
    ])
    assert (code, err) == (0, "")
    assert out == (
        b'{"embeds":true,"exponent":"inf","oracle":{"verdict":"Convergent",'
        b'"window_radius":20,"partial_sum":1e+308,"tail_bound":1e+308,"growth":null}}\n'
    )


@pytest.mark.parametrize("c", ["500", "-1000"])
def test_oracle_check_passes_over_row_bounds_past_the_float_range(c):
    # from some row on the bound 2^(lam n) of a pair sector passes 2^1024,
    # where no float |m| exists; those rows are left unevaluated and flagged
    argv = ["decide", "--family", "shearlet_coorbit",
            "--params", json.dumps({"c": c, "alpha": "0", "beta": "1"}),
            "-p", "1", "-q", "2", "-r", "2", "-k", "0"]
    plain = run_cli(argv)
    assert plain[0] == 0
    assert run_cli([*argv, "--oracle-check"]) == plain


@WARNINGS_AS_ERRORS
def test_oracle_row_with_a_saturated_base_makes_no_nan():
    # 2^(80 n) |m|^-60 on |m| >= 4^n: from row 13 on the n-factor is past the
    # float range while the m-terms underflow, and their product must not
    # become inf * 0; every term is at most 2^(-40 n), so the sup is 1
    pairs = {"kind": "pairs", "n_domain": "N0", "lam": 2, "side": "outside"}
    code, out, err = run_cli([
        "check-sequence",
        "--u", json.dumps({"lattice": pairs, "atoms": [{"exp2": [80, 0], "pow": [0, -60]}]}),
        "--v", json.dumps({"lattice": pairs, "atoms": [{}]}),
        "-r", "1", "-s", "1", "--oracle",
    ])
    assert (code, err) == (0, "")
    oracle = json.loads(out)["oracle"]
    assert (oracle["verdict"], oracle["partial_sum"]) == ("Convergent", 1.0)
