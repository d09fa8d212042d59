"""Command-line front end: chromatic and LLT expansions plus every
verification scope, with deterministic JSON, LaTeX-fragment, or plain output.

Exit codes: 0 all checks pass, 1 a mathematical check failed (or an internal
computation error), 2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import BudgetExceededError
from .gkm import gkm_report
from .hessgraph import (
    HessenbergFunction,
    csf,
    hessenberg_all,
    llt,
    orientation_e_expansion,
    verify_identities,
)
from .permco import complete_graph_agreement, permco_report
from .qrat import QRat
from .symfunc import BASES, SymFunc

SCOPES = ("identities", "gkm", "permutohedron", "complete-graph", "all")


def _plain_coeff(c: QRat) -> str:
    """The bare numerator when the denominator is 1, else the canonical form."""
    num, den = c.string_parts()
    return num if den == "1" else c.to_string()


def _symfunc_plain(f: SymFunc) -> str:
    terms = f.terms()
    if not terms:
        return "0"
    return "\n".join(f"{f.basis}_{''.join(map(str, p)) or '0'}: {_plain_coeff(c)}" for p, c in terms)


def _print_report(report: dict, fmt: str, latex_lines: list[str], plain_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    elif fmt == "latex":
        for line in latex_lines:
            print(line)
    else:
        for line in plain_lines:
            print(line)


def _expansion_command(name: str, args: argparse.Namespace) -> int:
    h = HessenbergFunction.parse(args.h)
    start = time.time()
    f = (llt(h) if name == "llt" else csf(h)).in_basis(args.basis)
    report: dict = {
        "command": name,
        "inputs": {"h": list(h.values), "basis": args.basis},
        "result": f.to_json_obj(),
    }
    latex = [f.to_latex()]
    plain = [_symfunc_plain(f)]
    code = 0
    if name == "llt" and args.shifted:
        report["inputs"]["shifted"] = True
        positive, table = llt(h).is_e_positive_shifted()
        shifted = SymFunc.from_q_table("e", h.n, table)
        orient = orientation_e_expansion(h).in_basis("e")
        verdict = shifted == orient and positive
        report["shifted_e_expansion"] = shifted.to_json_obj()
        report["orientation_expansion"] = orient.to_json_obj()
        report["e_positive"] = positive
        report["verdict"] = "pass" if verdict else "fail"
        report["passed"] = verdict
        latex.append(shifted.to_latex())
        plain.append(_symfunc_plain(shifted))
        plain.append(f"verdict: {report['verdict']}")
        if not verdict:
            code = 1
    report["timing_seconds"] = round(time.time() - start, 6)
    _print_report(report, args.format, latex, plain)
    return code


def _checks_for_scope(scope: str, h: HessenbergFunction | None, n: int | None) -> list[dict]:
    """The check records of every report the scope runs, in order, each name
    prefixed by the h or the n it ran on."""

    def each_h(report):
        return [("h=" + ",".join(map(str, fn.values)), report, fn)
                for fn in ([h] if h is not None else hessenberg_all(n))]

    runs = []  # (prefix, report, argument), in output order
    if scope in ("identities", "all"):
        runs += each_h(verify_identities)
    if scope == "gkm" or (scope == "all" and (h is not None or n <= 3)):
        runs += each_h(gkm_report)
    if scope in ("permutohedron", "all") and h is None:
        runs.append((f"n={n}", permco_report, n))
    if scope in ("complete-graph", "all") and h is None:
        runs.append((f"n={n}", complete_graph_agreement, n))
    return [dict(c, name=f"{prefix}: {c['name']}") for prefix, report, arg in runs for c in report(arg)]


def _verify_command(args: argparse.Namespace) -> int:
    h = HessenbergFunction.parse(args.h) if args.h else None
    n = args.n
    if h is None and n is None:
        raise UsageError("verify needs --h or --n")
    if h is not None and n is not None:
        raise UsageError("pass only one of --h and --n")
    if n is not None and n < 1:
        raise UsageError(f"--n must be at least 1, got {n}")
    if args.scope in ("permutohedron", "complete-graph") and h is not None:
        raise UsageError(f"--scope {args.scope} takes --n, not --h")
    if args.format == "latex":
        raise UsageError("verify supports --format json or plain")
    start = time.time()
    checks = _checks_for_scope(args.scope, h, n)
    passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "inputs": {
            "scope": args.scope,
            "h": list(h.values) if h else None,
            "n": n,
        },
        "checks": checks,
        "passed": passed,
        "timing_seconds": round(time.time() - start, 6),
    }
    plain = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}"
        + (f" ({c['detail']})" if c["detail"] and not c["passed"] else "")
        for c in checks
    ]
    plain.append(f"{'all passed' if passed else 'FAILURES'}: {sum(c['passed'] for c in checks)}/{len(checks)}")
    _print_report(report, args.format, [], plain)
    return 0 if passed else 1


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessllt",
        description="Exact chromatic/LLT expansions and verification scopes "
        "for unit interval graphs and their cohomology models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--h", help="Hessenberg function as a comma list, e.g. 2,3,3")
        p.add_argument(
            "--format", choices=("json", "latex", "plain"), default="json",
            help="output format (default json)",
        )

    p_llt = sub.add_parser("llt", help="unicellular LLT polynomial of h")
    add_common(p_llt)
    p_llt.add_argument("--basis", choices=BASES, default="e")
    p_llt.add_argument(
        "--shifted", action="store_true",
        help="also expand at q+1 and check the orientation model",
    )

    p_csf = sub.add_parser("csf", help="chromatic quasisymmetric function of h")
    add_common(p_csf)
    p_csf.add_argument("--basis", choices=BASES, default="e")

    p_verify = sub.add_parser("verify", help="run a verification scope")
    add_common(p_verify)
    p_verify.add_argument("--scope", choices=SCOPES, required=True)
    p_verify.add_argument("--n", type=int, help="rank; runs every Hessenberg function where applicable")
    return parser


def main(argv: list[str] | None = None) -> int:
    # every BLAS product has inner dimension <= 32, too small for a second thread
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _verify_command(args)
        if not args.h:
            raise UsageError(f"{args.command} requires --h")
        return _expansion_command(args.command, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # malformed Hessenberg functions and other input-shaped failures
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
