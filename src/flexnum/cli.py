"""Command-line front end.

Subcommands: eval, limit, cauchy, recur, borel-ritt, match.  Exit codes:
0 the stated claim holds, 1 it fails, 2 an error (parse failure, domain
error, unmet precondition) or a reader that closed standard output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from typing import Optional

# The numeric layers import numpy; each numeric command imports them itself,
# so that the symbolic commands do not pay for importing numpy.
from . import dsl, seq
from .errors import FlexError


def _conc_from_args(args):
    from .concretize import Concretization

    overrides = {}
    if args.eps0 is not None:
        overrides["eps0"] = args.eps0
    if args.delta is not None:
        overrides["delta"] = Fraction(args.delta)
    if args.micro_exp is not None:
        overrides["micro_exp"] = Fraction(args.micro_exp)
    if args.seed is not None:
        overrides["seed"] = args.seed
    return Concretization(**overrides)


def _parse_segment(text: str) -> seq.Segment:
    head, _, tail = text.partition(":")
    head = head.strip()
    if head == "limited":
        return seq.limited()
    if head == "all":
        return seq.all_naturals()
    if head == "finite":
        return seq.finite(int(tail))
    if head == "halo":
        return seq.halo_times(Fraction(tail))
    if head == "galaxy":
        return seq.galaxy_times(Fraction(tail))
    raise ValueError(f"unknown segment {text!r}; use limited/all/finite:m/halo:q/galaxy:q")


def _csv_rows(payload: dict, prefix: str = ""):
    """One ``(key, text)`` row per field; a nested dict's fields get dotted
    keys (``evidence.route``)."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _csv_rows(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", str(value)


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        # The writer quotes a value holding a comma, a quote or a line break.
        csv.writer(sys.stdout, lineterminator="\n").writerows(_csv_rows(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args) -> int:
    if args.n is not None:
        term = dsl.parse_seq(args.expr)
        value = seq.eval_at(term, args.n)
    else:
        value = dsl.parse_extnum(args.expr)
    _emit(args, {"value": dsl.print_extnum(value)}, [dsl.print_extnum(value)])
    return 0


def _cmd_limit(args) -> int:
    term = dsl.parse_seq(args.expr)
    if args.wrt is not None:
        report = seq.limit_wrt_segment(term, _parse_segment(args.wrt))
    else:
        report = seq.n_limit(term)
    ok = report.converges
    if ok and args.to is not None:
        target = dsl.parse_extnum(args.to)
        nx = dsl.parse_neutrix(args.neutrix) if args.neutrix else report.minimal_neutrix
        ok = seq.n_converges(term, target, nx) if args.wrt is None else (
            report.converges and target == report.limit
        )
    payload = report.to_dict()
    payload["claim_holds"] = ok
    lines = [
        f"status: {report.status.value}",
        f"limit: {payload['limit']}",
        f"minimal neutrix: {payload['minimal_neutrix']}",
        f"strong: {report.strong}",
    ]
    if args.witness:
        lines.append(report.witness)
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_cauchy(args) -> int:
    term = dsl.parse_seq(args.expr)
    nx = dsl.parse_neutrix(args.neutrix)
    ok = seq.is_cauchy(term, nx)
    _emit(args, {"cauchy": ok, "neutrix": str(nx)}, [f"{nx}-Cauchy: {ok}"])
    return 0 if ok else 1


def _cmd_recur(args) -> int:
    from . import recur

    conc = _conc_from_args(args)
    f = dsl.parse_recur_rhs(args.f)
    u0 = dsl.parse_extnum(args.u0)
    nx = dsl.parse_neutrix(args.neutrix)
    reference = dsl.parse_extnum(args.reference)
    spec = recur.RecurrenceSpec(f, u0, args.horizon, n0=args.n0)
    verdict = recur.classify_stability(
        spec, reference, nx, conc, samples=args.samples, seed=1 if args.seed is None else args.seed
    )
    lines = [
        f"stable: {verdict.stable.value}",
        f"asymptotically stable: {verdict.asymptotically_stable.value}",
        f"strongly asymptotically stable: {verdict.strongly_asymptotically_stable.value}",
    ] + [f"  {k}: {v}" for k, v in verdict.evidence.items()]
    _emit(args, verdict.to_dict(), lines)
    return 1 if verdict.falsified_any and args.claim != "report" else 0


def _cmd_borel_ritt(args) -> int:
    from . import apps

    conc = _conc_from_args(args)
    coeffs = [Fraction(c.strip()) for c in args.coeffs.split(",")]
    shadow = apps.borel_ritt(coeffs, args.order)
    levels = range(args.order) if args.check_all else range(min(1, args.order))
    results = {n: apps.shadow_check(shadow.value, coeffs, n, conc) for n in levels}
    ok = all(results.values())
    payload = {
        "value": dsl.print_extnum(shadow.value),
        "levels": {str(n): bool(v) for n, v in results.items()},
        "certificate_pairs": len(shadow.certificate.pair_bounds),
        "claim_holds": ok,
    }
    lines = [f"b = {payload['value']}"] + [
        f"shadow level {n}: {'ok' if v else 'FAIL'}" for n, v in results.items()
    ]
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_match(args) -> int:
    from . import apps

    conc = _conc_from_args(args)
    f = dsl.parse_scalar_field(args.f)
    dt = args.eps / 20.0 if args.dt == "auto" else float(args.dt)
    problem = apps.SlowCurveProblem(
        f=f, eps0=args.eps, y0=args.y0, t_max=args.tmax, dt=dt, attract_width=args.width
    )
    result = apps.match_simulate(problem, conc)
    payload = {
        "t_enter_halo": result.t_enter_halo,
        "t_enter_eps_tube": result.t_enter_eps_tube,
        "halo_radius": result.halo_radius,
        "tube_radius": result.tube_radius,
        "violations": list(result.violations),
        "claim_holds": result.ok,
    }
    if args.format == "csv":
        stride = max(1, len(result.ts) // args.csv_points)
        print("t,y,region")
        for i, (t, y, region) in enumerate(result.rows()):
            if i % stride == 0:
                print(f"{t},{y},{region}")
        return 0 if result.ok else 1
    lines = [
        f"halo entry: {result.t_enter_halo} (radius {result.halo_radius:.3g})",
        f"eps-tube entry: {result.t_enter_eps_tube} (radius {result.tube_radius:.3g})",
        f"violations: {list(result.violations) or 'none'}",
    ]
    _emit(args, payload, lines)
    return 0 if result.ok else 1


def _common_options(suppress: bool) -> argparse.ArgumentParser:
    """The options every command accepts, before or after the subcommand.

    The subcommands' copies default to SUPPRESS, so that a value given
    before the subcommand is not overwritten by their defaults.
    """
    default = argparse.SUPPRESS if suppress else None
    p = argparse.ArgumentParser(add_help=False, argument_default=default)
    p.add_argument("--eps0", type=float, help="scale value for the oracle")
    p.add_argument("--delta", help="half-exponent buffer (rational)")
    p.add_argument("--micro-exp", help="microhalo exponent (rational)")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--format", choices=("text", "json", "csv"), default=default if suppress else "text",
        help="output format",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexnum",
        description="external-number arithmetic, flexible-sequence limits and their numeric oracle",
        parents=[_common_options(suppress=False)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_options(suppress=True)]

    p = sub.add_parser("eval", parents=common, help="evaluate an external-number or sequence expression")
    p.add_argument("expr")
    p.add_argument("--n", type=int, default=None, help="evaluate a sequence term at this index")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("limit", parents=common, help="decide convergence of a sequence term")
    p.add_argument("expr")
    p.add_argument("--wrt", default=None, help="segment: limited|all|finite:m|halo:q|galaxy:q")
    p.add_argument("--to", default=None, help="claimed limit (external number)")
    p.add_argument("--neutrix", default=None, help="claimed convergence neutrix")
    p.add_argument("--witness", action="store_true", help="print the derivation trace")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("cauchy", parents=common, help="N-Cauchy test for a sequence term")
    p.add_argument("expr")
    p.add_argument("--neutrix", required=True)
    p.set_defaults(func=_cmd_cauchy)

    p = sub.add_parser("recur", parents=common, help="stability of a flexible recurrence")
    p.add_argument("--f", required=True, help="right-hand side over n, u and external literals")
    p.add_argument("--u0", required=True)
    p.add_argument("--neutrix", required=True)
    p.add_argument("--reference", default="0", help="reference solution initial value")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--n0", type=int, default=0)
    p.add_argument(
        "--claim", choices=("stability", "report"), default="stability",
        help="'report' never exits nonzero",
    )
    p.set_defaults(func=_cmd_recur)

    p = sub.add_parser("borel-ritt", parents=common, help="construct and check a shadow expansion")
    p.add_argument("--coeffs", required=True, help="comma-separated rationals")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--check-all", action="store_true")
    p.set_defaults(func=_cmd_borel_ritt)

    p = sub.add_parser("match", parents=common, help="slow-curve matching for eps*y' = f(t,y)")
    p.add_argument("--f", required=True, help="field f(t, y), e.g. \"-y\"")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--dt", default="auto")
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--csv-points", type=int, default=200)
    p.set_defaults(func=_cmd_match)
    return parser


_VALUE_OPTIONS = {
    "--f", "--u0", "--neutrix", "--to", "--reference", "--coeffs", "--wrt", "--dt",
}


def _join_dash_values(argv: list) -> list:
    """Turn ['--f', '-y'] into ['--f=-y'] so argparse accepts dash-leading values."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTIONS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_dash_values(list(argv)))
    try:
        code = args.func(args)
        # Flushed here, so that a closed stdout is met inside this try.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`flexnum ... | head`): stop quietly, and
        # point stdout at devnull so the interpreter's last flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except FlexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # A compiled term evaluates one nested call per level of the tree.
        print("error: expression too deeply nested to evaluate", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # A cross-check inside the library (Cauchy two-route agreement, the
        # strong-convergence invariant) contradicted itself.
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
