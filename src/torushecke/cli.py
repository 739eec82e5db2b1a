"""Command-line front end: a thin table over the library.

Exit codes: 0 when everything requested passed, 1 when a check found
violations (reports are still written), 2 for a refusal.  A refusal is
a usage error, unreadable input, or data that a command or suite does
not accept; it prints "error: ..." to stderr and writes no report.  The
suites check their own preconditions and raise ValueError, and
``run_cli`` is the one place that turns a ValueError or OSError into
exit 2.  Reports carry a "schema" field and are byte-identical for
identical inputs and seed.  The HECKE_SEED environment variable
overrides --seed when set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .demazure import NotInSpan, normal_form
from .elliptic import EllipticCurveParams, check_elliptic, verify_prop46
from .laurent import LaurentError
from .membership import LEVELS, check_membership
from .presentations import (action_preservation_suite, bernstein_suite,
                            braid_suite, closure_suite, delta_criterion_suite,
                            quadratic_suite, verify_daha_suite)
from .rootdata import preset_datum
from .serialize import (datum_from_dict, datum_to_dict, dump_report,
                        element_from_dict, element_to_dict, load_json,
                        normal_form_to_dict)


def _given(**options) -> dict:
    """The options that were given on the command line; the suite's own
    signature supplies the rest."""
    return {k: v for k, v in options.items() if v is not None}


def _sampled(suite):
    def run(datum, args, seed):
        return suite(datum, seed=seed, **_given(count=args.samples))
    return run, ("samples",)


# suite name -> (call(datum, args, seed), the options among --samples and
# --max-length it reads); the keys are the --suite choices, and giving a
# suite an option it does not read is refused
VERIFY_SUITES = {
    "quadratic": (lambda datum, args, seed: quadratic_suite(datum), ()),
    "braid": (lambda datum, args, seed: braid_suite(datum, args.max_length),
              ("max_length",)),
    "membership-closure": _sampled(closure_suite),
    "delta-criterion": _sampled(delta_criterion_suite),
    "bernstein": (lambda datum, args, seed: bernstein_suite(datum), ()),
    "daha": (lambda datum, args, seed: verify_daha_suite(datum), ()),
    "action-preservation": _sampled(action_preservation_suite),
}


def _on_datum(suite: str, default: str):
    def run(params, args, seed):
        datum = _load_datum(args.datum or default)
        return check_elliptic(params, datum, suite, seed=seed,
                              **_given(tol=args.tol))
    return run, ("datum", "tol")


# the same for elliptic, over -d, --tol and --m-max; -d defaults to the
# preset named here
ELLIPTIC_SUITES = {
    "involution": _on_datum("involution", "A1"),
    "prop46": (lambda params, args, seed: verify_prop46(
        params, seed=seed, **_given(m_max=args.m_max)), ("m_max",)),
    "braid-failure": _on_datum("braid-failure", "A2"),
}


def _load_datum(source: str):
    path = Path(source)
    if path.suffix == ".json" or path.exists():
        return datum_from_dict(load_json(path.read_text()), source)
    return preset_datum(source)


def _load_element(datum, path: str):
    return element_from_dict(datum, load_json(Path(path).read_text()))


def _seed_from(args) -> int:
    env = os.environ.get("HECKE_SEED", args.seed)
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"HECKE_SEED must be an integer, got {env!r}")


def _arg_type(convert, accept, wording: str):
    """An argparse type= function refusing what `accept` rejects."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {wording}, got {text!r}")
        return value
    return parse


_positive_int = _arg_type(int, lambda v: v > 0, "a positive integer")
_nonnegative_int = _arg_type(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _arg_type(float, lambda v: math.isfinite(v) and v > 0,
                            "a finite positive number")
_complex = _arg_type(complex, lambda v: True, "a complex literal like 0.3+1.1j")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="torushecke",
        description="exact torus Hecke algebra toolkit with a numerical "
                    "elliptic companion")
    sub = top.add_subparsers(dest="command", required=True)

    presets = "preset name (A1, A2, B2, G2, A1aff, A2aff) or datum JSON file"

    def command(name, run, summary, **datum):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("-d", "--datum",
                       **(datum or {"required": True, "help": presets}))
        p.add_argument("-o", "--output",
                       help="write the report here instead of stdout")
        return p

    p = command("datum", _cmd_datum, "print roots and Weyl data up to bounds")
    p.add_argument("--max-height", type=_nonnegative_int, default=3)
    p.add_argument("--max-length", type=_nonnegative_int, default=3)

    p = command("mul", _cmd_mul, "multiply element files left to right")
    p.add_argument("files", nargs="+", help="element JSON files")

    p = command("check", _cmd_check, "membership filtration check")
    p.add_argument("file", help="element JSON file")
    p.add_argument("--level", choices=LEVELS, default="hq")

    p = command("nf", _cmd_nf, "normal form in the generator basis")
    p.add_argument("file", help="element JSON file")

    p = command("verify", _cmd_verify, "run a relation or membership suite")
    p.add_argument("--suite", choices=tuple(VERIFY_SUITES), required=True)
    p.add_argument("--max-length", type=int, default=None,
                   help="braid length bound (default: all of W if finite, "
                        "else max(4, largest finite m_ij))")
    p.add_argument("--samples", type=_positive_int, default=None,
                   help="sample count for the randomized suites")
    p.add_argument("--seed", type=int, default=0)

    p = command("elliptic", _cmd_elliptic,
                "numerical checks on a complex torus", default=None,
                help="finite preset of rank at most 2 "
                     "(default A1, or A2 for braid-failure)")
    p.add_argument("--suite", choices=tuple(ELLIPTIC_SUITES), required=True)
    p.add_argument("--tau", type=_complex, default="1j",
                   help="period ratio, a Python complex literal")
    p.add_argument("--q", type=_complex, default="0.23+0.11j", dest="q_point",
                   help="shift point q on the curve, a Python complex literal")
    p.add_argument("--tol", type=_positive_float, default=None,
                   help="deviation tolerance for involution and braid-failure")
    p.add_argument("--m-max", type=int, default=None,
                   help="highest derivative order for prop46")
    p.add_argument("--seed", type=int, default=0)
    return top


# Each command returns (report payload, exit code 0 or 1); a refusal raises.


def _cmd_datum(args):
    datum = _load_datum(args.datum)
    return datum_to_dict(datum, args.max_height, args.max_length), 0


def _cmd_mul(args):
    datum = _load_datum(args.datum)
    prod = None
    for i, path in enumerate(args.files):
        x = _load_element(datum, path)
        # on affine data a twist can take a factor of x past the exponent
        # bound that x passed on load
        try:
            prod = x if prod is None else prod * x
        except LaurentError as exc:
            raise ValueError(f"files[{i}] ({Path(path).name}): {exc}") from None
    return element_to_dict(prod), 0


def _cmd_check(args):
    x = _load_element(_load_datum(args.datum), args.file)
    report = check_membership(x, args.level)
    return report.to_dict(), 0 if report.ok else 1


def _cmd_nf(args):
    x = _load_element(_load_datum(args.datum), args.file)
    try:
        nf = normal_form(x)
    except NotInSpan as exc:
        return {"in_span": False, "stage": exc.stage,
                "word": list(exc.word), "detail": exc.detail}, 1
    return {"in_span": True, **normal_form_to_dict(nf)}, 0


def _suite_report(args, report):
    """Stream the entries to stderr; the payload of a verify or elliptic run."""
    for e in report.entries:
        if hasattr(e, "relation"):
            print(f"{e.relation}  {e.instance}  {e.status}", file=sys.stderr)
        else:
            print(f"{e.element}  {e.check}  {e.value:.3e}  {e.status}",
                  file=sys.stderr)
    payload = {"suite": args.suite, "ok": report.ok,
               "entries": report.to_list()}
    return payload, 0 if report.ok else 1


def _refuse_unread(args, options, reads) -> None:
    for option in options:
        if getattr(args, option) is not None and option not in reads:
            flag = "--" + option.replace("_", "-")
            raise ValueError(f"{flag} is not read by the {args.suite} suite")


def _cmd_verify(args):
    run, reads = VERIFY_SUITES[args.suite]
    _refuse_unread(args, ("samples", "max_length"), reads)
    datum = _load_datum(args.datum)
    seed = _seed_from(args)
    return _suite_report(args, run(datum, args, seed))


def _cmd_elliptic(args):
    run, reads = ELLIPTIC_SUITES[args.suite]
    _refuse_unread(args, ("datum", "tol", "m_max"), reads)
    seed = _seed_from(args)
    params = EllipticCurveParams(1.0, args.tau, args.q_point)
    return _suite_report(args, run(params, args, seed))


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # every refusal in the package is a ValueError; OSError covers files
    try:
        payload, code = args.run(args)
        text = dump_report(payload)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
