"""Command line front end.

Subcommands: valuate (apply a stored classified valuation to one polytope),
fit (recover coefficients from a stored valuation or an external oracle),
verify (run the seeded check suite), demo-usc (semicontinuity tables).  Only
fit, verify and demo-usc import the check suite, `slval.harness`, as they run.
The parser is built once, at import, and parses every call of `main`.

Exit codes are a stable contract: 0 pass, 1 check failure, 2 usage or
parse error, 3 external oracle failure, 141 (128 + SIGPIPE) when the reader
of stdout has gone.  Scalars cross the boundary as exact strings, never as
floats.  An oracle command that has not answered within ORACLE_TIMEOUT_S
seconds is killed and counts as an oracle failure, as do oracle values in
another quadratic field than --field-d's.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .exactnum import (FieldMismatchError, Scalar, ScalarParseError, _check_discriminant,
                       _merge_discriminants)
from .polytope import Polytope
from .polytope import from_json as polytope_from_json
from .polytope import to_json as polytope_to_json
from .valuation import _field, evaluate
from .valuation import from_json as valuation_from_json


#: seconds an --oracle-cmd process gets to answer every polytope (exit 3 after)
ORACLE_TIMEOUT_S = 600


class UsageError(Exception):
    pass


class OracleError(Exception):
    pass


def _integer(text: str, ok, message: str) -> int:
    """The option's int if `ok` accepts it; else argparse's usage error, `message`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not ok(value):
        raise argparse.ArgumentTypeError(message)
    return value


def _positive(text: str) -> int:
    return _integer(text, lambda value: value >= 1, "must be at least 1")


def _dimension(text: str) -> int:
    return _integer(text, lambda value: 2 <= value <= 4, "supported dimensions are 2 to 4")


def _discriminant(text: str) -> int:
    try:
        return _check_discriminant(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slval",
        description="exact shear-invariant valuations on rational polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    valuate = sub.add_parser("valuate", help="evaluate a stored valuation on a polytope file")
    valuate.add_argument("--in", dest="polytope_path", required=True, metavar="FILE")
    valuate.add_argument("--valuation", required=True, metavar="FILE")
    valuate.add_argument("--format", choices=("json", "text"), default="text")
    valuate.set_defaults(func=_cmd_valuate)

    fit = sub.add_parser("fit", help="recover the five coefficients of a valuation")
    fit.add_argument("--n", type=_dimension, default=2)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--cases", type=_positive, default=100,
                     help="validation polytopes for the residual")
    source = fit.add_mutually_exclusive_group(required=True)
    source.add_argument("--valuation", metavar="FILE",
                        help="self-test against a stored valuation")
    source.add_argument("--oracle-cmd", metavar="CMD",
                        help="external command fed polytope JSON lines on stdin; "
                             f"killed after {ORACLE_TIMEOUT_S} s")
    fit.add_argument("--field-d", type=_discriminant, default=2,
                     help="discriminant of the surd validation simplices, 0 to skip them")
    fit.add_argument("--format", choices=("json", "text"), default="json")
    fit.set_defaults(func=_cmd_fit)

    verify = sub.add_parser("verify", help="run the seeded check suite")
    verify.add_argument("--n", type=_dimension, default=2)
    verify.add_argument("--field-d", type=_discriminant, default=2,
                        help="discriminant for the surd checks, 0 to skip them")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--cases", type=_positive, default=20)
    verify.add_argument("--inject-broken", action="store_true",
                        help="add a deliberately broken plugin to exercise witnesses")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.set_defaults(func=_cmd_verify)

    demo = sub.add_parser("demo-usc", help="semicontinuity tables for the origin terms")
    demo.add_argument("--c0p", default="1", metavar="SCALAR")
    demo.add_argument("--d0", default="0", metavar="SCALAR")
    demo.add_argument("--steps", type=_positive, default=4)
    demo.add_argument("--format", choices=("json", "text"), default="text")
    demo.set_defaults(func=_cmd_demo_usc)

    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")
    except (OSError, ValueError) as exc:  # ValueError: an int past Python's digit limit
        raise UsageError(f"cannot read {path}: {exc}")
    except RecursionError:
        raise UsageError(f"{path} nests its JSON too deeply to read")


def _load_polytope(path: str) -> tuple[Polytope, int]:
    """The polytope of the file and the field the file declares, which a
    polytope with only rational vertices does not keep."""
    obj = _load_json(path)
    try:
        return polytope_from_json(obj), obj["field_d"]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a polytope file: {exc}")


def _load_valuation(path: str):
    """The valuation of the file and the one field of all its numbers: a
    clash of fields inside the file is the file's error alone."""
    try:
        val = valuation_from_json(_load_json(path))
        return val, _field(*val)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a valuation file: {exc}")


def _cmd_valuate(args: argparse.Namespace) -> int:
    """Reads the valuation file and fixes its field before it reads the
    polytope file, which hulls it."""
    val, e = _load_valuation(args.valuation)
    try:
        poly, field_d = _load_polytope(args.polytope_path)
        _merge_discriminants(e, field_d)
        result = evaluate(val, poly)
    except FieldMismatchError as exc:
        raise UsageError(f"{args.valuation} and {args.polytope_path} lie in different fields: {exc}")
    except ValueError as exc:  # more pulling cells than triangulate.MAX_CELLS
        raise UsageError(f"cannot valuate {args.polytope_path}: {exc}")
    if args.format == "json":
        print(json.dumps({"value": str(result)}, sort_keys=True))
    else:
        print(result)
    return 0


def _oracle_values(cmd: str, field_d: int, polys: list[Polytope]) -> list[Scalar]:
    """The oracle's answers to polys, in order; an answer in another field than
    field_d's raises FieldMismatchError."""
    import shlex
    import subprocess
    payload = "".join(json.dumps(polytope_to_json(P), sort_keys=True) + "\n" for P in polys)
    try:
        proc = subprocess.run(
            shlex.split(cmd), input=payload, capture_output=True, text=True,
            timeout=ORACLE_TIMEOUT_S,
        )
    except OSError as exc:
        raise OracleError(f"cannot run {cmd!r}: {exc}")
    except subprocess.TimeoutExpired:
        raise OracleError(f"oracle gave no answer within {ORACLE_TIMEOUT_S} s")
    except UnicodeDecodeError as exc:
        raise OracleError(f"unreadable oracle output: {exc}")
    if proc.returncode != 0:
        detail = proc.stderr.strip().rpartition("\n")[2].strip() or f"exit code {proc.returncode}"
        raise OracleError(f"oracle failed: {detail}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if len(lines) != len(polys):
        raise OracleError(
            f"oracle answered {len(lines)} of {len(polys)} polytopes"
        )
    values = []
    for line in lines:
        try:
            value = Scalar.parse(line.strip())
        except ScalarParseError as exc:
            raise OracleError(f"unreadable oracle value {line.strip()!r}: {exc}")
        _merge_discriminants(value.d, field_d)
        values.append(value)
    return values


def _cmd_fit(args: argparse.Namespace) -> int:
    from .harness import fit_classification
    if args.valuation is not None:
        val, _ = _load_valuation(args.valuation)
        values_of = lambda polys: [evaluate(val, P) for P in polys]
    else:
        values_of = functools.partial(_oracle_values, args.oracle_cmd, args.field_d)
    try:
        report = fit_classification(values_of, args.n, seed=args.seed,
                                    validation_count=args.cases, field_d=args.field_d)
    except FieldMismatchError as exc:
        mismatch = f"--field-d {args.field_d} lie in different fields: {exc}"
        if args.valuation is None:
            raise OracleError(f"oracle values and {mismatch}")
        raise UsageError(f"{args.valuation} and {mismatch}")
    exact = report.residual_max.is_zero()
    if args.format == "json":
        print(json.dumps({
            "coefficients": [str(c) for c in report.coefficients],
            "probe_values": [str(v) for v in report.probe_values],
            "residual_max": str(report.residual_max),
        }, sort_keys=True))
    else:
        names = ("c0", "c0p", "cn", "d0", "dn")
        for name, c in zip(names, report.coefficients):
            print(f"{name} = {c}")
        print(f"residual_max = {report.residual_max}")
    return 0 if exact else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .harness import run_suite
    all_pass = True
    for line in run_suite(args.n, seed=args.seed, cases=args.cases,
                          field_d=args.field_d, include_broken=args.inject_broken):
        all_pass = all_pass and line["pass"]
        if args.format == "json":
            print(json.dumps(line, sort_keys=True))
        else:
            verdict = "PASS" if line["pass"] else "FAIL"
            extra = f" [{line['label']}]" if "label" in line else ""
            print(f"{verdict} {line['check']} seed={line['seed']}{extra}")
            if "witness" in line:
                print(f"     witness: {json.dumps(line['witness'], sort_keys=True)}")
    return 0 if all_pass else 1


def _cmd_demo_usc(args: argparse.Namespace) -> int:
    from .harness import _scalarize, usc_sequences
    try:
        c0p = Scalar.parse(args.c0p)
        d0 = Scalar.parse(args.d0)
    except ScalarParseError as exc:
        raise UsageError(str(exc))
    try:
        (report,) = usc_sequences([(c0p, d0)], args.steps)
    except FieldMismatchError as exc:
        raise UsageError(f"--c0p and --d0 lie in different fields: {exc}")
    verdict = (
        "not upper semicontinuous"
        if report["violation"]
        else "upper semicontinuous along tested sequences"
    )
    if args.format == "json":
        payload = {"c0p": c0p, "d0": d0, "verdict": verdict,
                   **{key: report[key] for key in ("scales", "sequence1", "sequence2")}}
        print(json.dumps(_scalarize(payload), sort_keys=True))
    else:
        tables = (
            ("shrinking segments [-s*e1, s*e1], limit {0}", "sequence1"),
            ("flattening diamonds conv{±s*e1, ±e2}, limit [-e2, e2]", "sequence2"),
        )
        for title, key in tables:
            print(title)
            for s, v in zip(report["scales"], report[key]["values"]):
                print(f"  s = {str(s):<6} value = {v}")
            print(f"  limit value = {report[key]['limit_value']}")
        print(f"verdict: {verdict}")
    return 0


#: the one parser of the process; parsing keeps no state from call to call
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader of stdout has gone; pointing stdout at the null device
        # keeps the flush at interpreter exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
