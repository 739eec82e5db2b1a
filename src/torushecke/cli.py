"""Command-line front end.

Exit codes: 0 when everything requested passed, 1 when a check found
violations (reports are still written), 2 for usage errors, unreadable
input, or a datum/command mismatch.  Reports carry a "schema" field and
are byte-identical for identical inputs and seed.  The HECKE_SEED
environment variable overrides --seed when set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .demazure import NotInSpan, normal_form
from .elliptic import (EllipticCurveParams, EllipticError, check_elliptic,
                       verify_prop46)
from .laurent import LaurentError
from .membership import check_membership
from .presentations import (action_preservation_suite, bernstein_suite,
                            braid_suite, closure_suite, delta_criterion_suite,
                            quadratic_suite, verify_daha_suite)
from .rootdata import CartanMatrixError, RootDatumError, preset_datum
from .scalars import ScalarParseError
from .serialize import (SerializeError, datum_from_dict, datum_to_dict,
                        dump_report, element_from_dict, element_to_dict,
                        load_json, normal_form_to_dict)

VERIFY_SUITES = ("quadratic", "braid", "membership-closure", "delta-criterion",
                 "bernstein", "daha", "action-preservation")
ELLIPTIC_SUITES = ("involution", "prop46", "braid-failure")

_INPUT_ERRORS = (SerializeError, RootDatumError, CartanMatrixError,
                 LaurentError, ScalarParseError, OSError)


def _load_datum(source: str):
    path = Path(source)
    if path.suffix == ".json" or path.exists():
        return datum_from_dict(load_json(path.read_text()), source)
    return preset_datum(source)


def _load_element(datum, path: str):
    return element_from_dict(datum, load_json(Path(path).read_text()))


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _seed_from(args) -> int:
    env = os.environ.get("HECKE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SerializeError(f"HECKE_SEED must be an integer, got {env!r}")
    return args.seed


def _stream(report) -> None:
    for e in report.entries:
        if hasattr(e, "relation"):
            print(f"{e.relation}  {e.instance}  {e.status}", file=sys.stderr)
        else:
            print(f"{e.element}  {e.check}  {e.value:.3e}  {e.status}",
                  file=sys.stderr)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="torushecke",
        description="exact torus Hecke algebra toolkit with a numerical "
                    "elliptic companion")
    sub = top.add_subparsers(dest="command", required=True)

    def add_datum_arg(p):
        p.add_argument("-d", "--datum", required=True,
                       help="preset name (A1, A2, B2, G2, A1aff, A2aff, "
                            "optionally -der) or datum JSON file")

    def add_out(p):
        p.add_argument("-o", "--output", help="write the report here "
                                              "instead of stdout")

    p = sub.add_parser("datum", help="print roots and Weyl data up to bounds")
    add_datum_arg(p)
    p.add_argument("--max-height", type=int, default=3)
    p.add_argument("--max-length", type=int, default=3)
    add_out(p)

    p = sub.add_parser("mul", help="multiply element files left to right")
    add_datum_arg(p)
    p.add_argument("files", nargs="+", help="element JSON files")
    add_out(p)

    p = sub.add_parser("check", help="membership filtration check")
    add_datum_arg(p)
    p.add_argument("file", help="element JSON file")
    p.add_argument("--level", choices=("htilde", "hq"), default="hq")
    add_out(p)

    p = sub.add_parser("nf", help="normal form in the generator basis")
    add_datum_arg(p)
    p.add_argument("file", help="element JSON file")
    add_out(p)

    p = sub.add_parser("verify", help="run a relation or membership suite")
    add_datum_arg(p)
    p.add_argument("--suite", choices=VERIFY_SUITES, required=True)
    p.add_argument("--max-length", type=int, default=None,
                   help="length bound for the braid suite")
    p.add_argument("--samples", type=_positive_int, default=None,
                   help="sample count for the randomized suites")
    p.add_argument("--seed", type=int, default=0)
    add_out(p)

    p = sub.add_parser("elliptic", help="numerical checks on a complex torus")
    p.add_argument("-d", "--datum", default=None,
                   help="finite preset of rank at most 2 "
                        "(default A1, or A2 for braid-failure)")
    p.add_argument("--suite", choices=ELLIPTIC_SUITES, required=True)
    p.add_argument("--tau", default="1j",
                   help="period ratio, a Python complex literal")
    p.add_argument("--q", default="0.23+0.11j", dest="q_point",
                   help="shift point q on the curve, a Python complex literal")
    p.add_argument("--tol", type=_positive_float, default=1e-9,
                   help="tolerance for the involution deviation")
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    return top


def _cmd_datum(args) -> int:
    datum = _load_datum(args.datum)
    payload = datum_to_dict(datum, args.max_height, args.max_length)
    _emit(dump_report(payload), args.output)
    return 0


def _cmd_mul(args) -> int:
    datum = _load_datum(args.datum)
    prod = None
    for path in args.files:
        x = _load_element(datum, path)
        prod = x if prod is None else prod * x
    _emit(dump_report(element_to_dict(prod)), args.output)
    return 0


def _cmd_check(args) -> int:
    datum = _load_datum(args.datum)
    x = _load_element(datum, args.file)
    report = check_membership(x, args.level)
    _emit(dump_report(report.to_dict()), args.output)
    return 0 if report.ok else 1


def _cmd_nf(args) -> int:
    datum = _load_datum(args.datum)
    x = _load_element(datum, args.file)
    try:
        nf = normal_form(x)
    except NotInSpan as exc:
        payload = {"in_span": False, "stage": exc.stage,
                   "word": list(exc.word), "detail": exc.detail}
        _emit(dump_report(payload), args.output)
        return 1
    payload = {"in_span": True}
    payload.update(normal_form_to_dict(nf))
    _emit(dump_report(payload), args.output)
    return 0


def _cmd_verify(args) -> int:
    datum = _load_datum(args.datum)
    seed = _seed_from(args)
    suite = args.suite
    try:
        if suite == "quadratic":
            report = quadratic_suite(datum)
        elif suite == "braid":
            report = braid_suite(datum, args.max_length)
        elif suite == "membership-closure":
            report = closure_suite(datum, args.samples or 200, seed)
        elif suite == "delta-criterion":
            if datum.kind != "finite":
                raise ValueError("delta-criterion runs on finite data only")
            report = delta_criterion_suite(datum, args.samples or 100, seed)
        elif suite == "bernstein":
            report = bernstein_suite(datum)
        elif suite == "daha":
            report = verify_daha_suite(datum)
        else:
            report = action_preservation_suite(datum, args.samples or 100, seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _stream(report)
    payload = {"suite": suite, "ok": report.ok, "entries": report.to_list()}
    _emit(dump_report(payload), args.output)
    return 0 if report.ok else 1


def _cmd_elliptic(args) -> int:
    try:
        tau = complex(args.tau)
        q_point = complex(args.q_point)
    except ValueError:
        print("error: --tau and --q must be complex literals like 0.3+1.1j",
              file=sys.stderr)
        return 2
    seed = _seed_from(args)
    try:
        params = EllipticCurveParams(1.0, tau, q_point)
        if args.suite == "prop46":
            report = verify_prop46(params, args.m_max, seed)
        else:
            default = "A2" if args.suite == "braid-failure" else "A1"
            datum = _load_datum(args.datum or default)
            report = check_elliptic(params, datum, args.suite,
                                    samples=100, seed=seed, tol=args.tol)
    except EllipticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _stream(report)
    payload = {"suite": args.suite, "ok": report.ok,
               "entries": report.to_list()}
    _emit(dump_report(payload), args.output)
    return 0 if report.ok else 1


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {"datum": _cmd_datum, "mul": _cmd_mul, "check": _cmd_check,
                "nf": _cmd_nf, "verify": _cmd_verify,
                "elliptic": _cmd_elliptic}
    try:
        return handlers[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
