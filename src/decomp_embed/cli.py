"""Command-line front end.

Every subcommand prints a single JSON document on stdout.  Output is
compact and byte-stable for fixed inputs; ``--pretty`` switches to an
indented rendering of the same document.

Exit codes:

* 0, 1, 2 -- verdicts only: a ``decide`` run maps its outcome to 0
  (Embeds), 1 (DoesNotEmbed) or 2 (Undetermined); ``check-sequence`` and
  ``verify-family`` use 0/1 for pass/fail;
* 10 -- the symbolic route and the numeric oracle disagree;
* 64 -- usage: bad arguments, parameters or exponents, and a malformed
  ``DECOMP_EMBED_MAX_WINDOW`` value;
* 65 -- schema: malformed JSON documents, empty base sets and covering
  numbers outside the float range among them;
* 70 -- unsupported weights or geometry (a covering whose derived
  geometry leaves the float range among it), a window that exceeds the
  cap (a covering window or the oracle's grid), and internal errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NoReturn

from .embedding import TARGETS, decide
from .errors import (
    DecompEmbedError,
    InexactExponent,
    InvalidParams,
    MissingTightnessWitness,
    OracleDisagreement,
    SchemaError,
)
from .exponents import ExtExponent, compound, json_float
from .families import FAMILY_NAMES, covering_from_json, get_family
from .seqspace import decide_sequence_embedding, expweight_from_json

EX_OK = 0
EX_ORACLE = 10
EX_USAGE = 64
EX_SCHEMA = 65
EX_WEIGHT = 70

_OUTCOME_EXIT = {"Embeds": 0, "DoesNotEmbed": 1, "Undetermined": 2}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, like every other error."""

    def error(self, message: str) -> NoReturn:
        self.exit(EX_USAGE, f"error: {message}\n")


def _radius(text: str) -> int:
    """The argparse type of --radius: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _json_arg(text: str, what: str) -> object:
    """Parse a JSON argument; a number a float would round raises InexactExponent."""
    try:
        return json.loads(text, parse_float=json_float)
    except InexactExponent:
        raise
    except ValueError as exc:  # bad syntax, or an integer above the int digit limit
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def _document_arg(text: str, what: str) -> object:
    """Parse a weight or covering document, where a bad literal is a schema error."""
    try:
        return _json_arg(text, what)
    except InexactExponent as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def _weight_arg(text: str, what: str):
    doc = _document_arg(text, what)
    try:
        return expweight_from_json(doc)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def _emit(doc: object, pretty: bool) -> None:
    if pretty:
        text = json.dumps(doc, indent=2)
    else:
        text = json.dumps(doc, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _cmd_decide(args: argparse.Namespace) -> int:
    params = _json_arg(args.params, "--params")
    verdict = decide(
        args.family,
        params,
        p=args.p,
        q=args.q,
        r=args.r,
        k=args.k,
        target=args.target,
        refine=args.refine,
        oracle_check=args.oracle_check,
    )
    _emit(verdict.to_json(), args.pretty)
    return _OUTCOME_EXIT[verdict.outcome.value]


def _cmd_inspect_covering(args: argparse.Namespace) -> int:
    from .covering import certify_constants, neighbors

    cov = covering_from_json(_document_arg(args.covering, "--covering"))
    window = cov.window(args.radius)
    doc = {
        "label": cov.label,
        "dimension": cov.dimension,
        "radius": args.radius,
        "window_size": len(window),
        "constants": certify_constants(cov, args.radius),
    }
    if args.index is not None:
        try:
            idx = tuple(int(tok) for tok in args.index.split(","))
        except ValueError as exc:
            raise InvalidParams(f"--index must be a comma-separated integer tuple: {exc}")
        doc["neighbors"] = sorted(list(j) for j in neighbors(cov, idx, args.radius))
    _emit(doc, args.pretty)
    return EX_OK


def _cmd_check_sequence(args: argparse.Namespace) -> int:
    u = _weight_arg(args.u, "--u")
    v = _weight_arg(args.v, "--v")
    embeds = decide_sequence_embedding(u, v, args.r, args.s) == "Embeds"
    theta = compound(args.s, args.r)
    doc = {"embeds": embeds, "exponent": theta.to_json()}
    if args.oracle:
        from . import oracle

        doc["oracle"] = oracle.truncated_oracle(u.quotient(v), theta).to_json()
    _emit(doc, args.pretty)
    return EX_OK if embeds else 1


def _cmd_verify_family(args: argparse.Namespace) -> int:
    from .covering import certify_constants, check_moderate, norm_surrogate_check, probe_weight

    fam = get_family(args.family)
    params = fam.parse_params(_json_arg(args.params, "--params"))
    cov = fam.covering(params)
    constants = certify_constants(cov, args.radius)
    moderate = check_moderate(cov, probe_weight(cov), (args.radius, args.radius + 2))
    try:
        surrogate = norm_surrogate_check(cov, args.radius)
    except MissingTightnessWitness:
        surrogate = None
    checks = {
        "constants_finite": math.isfinite(constants["C_hat"]),
        "moderate_ok": bool(moderate["ok"]),
        "surrogate_bounded": surrogate is None
        or (surrogate["min_ratio"] > 0.0 and math.isfinite(surrogate["max_ratio"])),
    }
    doc = {
        "family": fam.name,
        "label": cov.label,
        "radius": args.radius,
        "constants": constants,
        "moderate": moderate,
        "surrogate": surrogate,
        "checks": checks,
        "ok": all(checks.values()),
    }
    _emit(doc, args.pretty)
    return EX_OK if doc["ok"] else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="decomp-embed",
        description="decide decomposition-space embeddings into smoothness targets",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser(
        "decide",
        parents=[common],
        help="decide one embedding question for a built-in family",
    )
    d.add_argument("--family", required=True, choices=list(FAMILY_NAMES))
    d.add_argument("--params", default="{}", help="family parameters as JSON")
    d.add_argument("--target", default="sobolev", choices=list(TARGETS))
    d.add_argument("-p", type=ExtExponent, required=True, metavar="P")
    d.add_argument("-q", type=ExtExponent, default=None, metavar="Q",
                   help="integrability of the sobolev target")
    d.add_argument("-r", type=ExtExponent, required=True, metavar="R")
    d.add_argument("-k", type=int, default=0, metavar="K", help="smoothness order")
    d.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True,
                   help="apply family-specific sharpenings")
    d.add_argument("--oracle-check", action="store_true",
                   help="replay every summability call on the numeric oracle")
    d.set_defaults(func=_cmd_decide)

    i = sub.add_parser(
        "inspect-covering",
        parents=[common],
        help="window size, structure constants and neighbors of a covering",
    )
    i.add_argument("--covering", required=True,
                   help='JSON: {"family":...,"params":...} or {"custom":...}')
    i.add_argument("--radius", type=_radius, default=4)
    i.add_argument("--index", default=None, help="comma-separated index tuple")
    i.set_defaults(func=_cmd_inspect_covering)

    c = sub.add_parser(
        "check-sequence",
        parents=[common],
        help="decide a weighted sequence-space embedding l^r_v -> l^s_u",
    )
    c.add_argument("--u", required=True, help="target weight as JSON")
    c.add_argument("--v", required=True, help="source weight as JSON")
    c.add_argument("-r", type=ExtExponent, required=True, metavar="R")
    c.add_argument("-s", type=ExtExponent, required=True, metavar="S")
    c.add_argument("--oracle", action="store_true",
                   help="attach the truncated-sum classification of u/v")
    c.set_defaults(func=_cmd_check_sequence)

    v = sub.add_parser(
        "verify-family",
        parents=[common],
        help="run the covering diagnostics for a built-in family",
    )
    v.add_argument("--family", required=True, choices=list(FAMILY_NAMES))
    v.add_argument("--params", default="{}", help="family parameters as JSON")
    v.add_argument("--radius", type=_radius, default=4)
    v.set_defaults(func=_cmd_verify_family)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EX_OK if not exc.code else EX_USAGE
        return args.func(args)
    except OracleDisagreement as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_ORACLE
    except (InvalidParams, InexactExponent) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_USAGE
    except SchemaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_SCHEMA
    except DecompEmbedError as exc:
        # UnsupportedWeight and the remaining operational limits
        sys.stderr.write(f"error: {exc}\n")
        return EX_WEIGHT


if __name__ == "__main__":
    sys.exit(main())
