"""Acceptance gate: every primary deliverable checked end to end at exact
arithmetic, one pass/fail line per criterion (run with -v).
"""

import json
import re
import time

from hessllt.cli import main
from hessllt.gkm import gkm_report
from hessllt.hessgraph import (
    HessenbergFunction,
    hessenberg_all,
    llt,
    orientation_e_expansion,
    verify_identities,
)
from hessllt.permco import (
    coinvariant_closed_form_check,
    coinvariant_flag_cross_check,
    complete_graph_agreement,
    permco_report,
    q_binomial_sum_check,
)

H = HessenbergFunction.parse
TIMING = re.compile(r'"timing_seconds": [-+0-9.eE]+')


def _conclude(name: str, failures: list, started: float, limit: float | None = None):
    elapsed = time.monotonic() - started
    if limit is not None and elapsed > limit:
        failures.append(f"exceeded {limit:.0f}s time budget ({elapsed:.1f}s)")
    status = "PASS" if not failures else "FAIL"
    print(f"{status} {name} [{elapsed:.1f}s]")
    assert not failures, f"{name}: {failures}"


def test_criterion_1_identity_suite_all_h_up_to_n6():
    started = time.monotonic()
    failures = []
    for n in range(1, 7):
        for h in hessenberg_all(n):
            for check in verify_identities(h):
                if not check["passed"]:
                    failures.append((h.values, check["name"], check["detail"]))
    _conclude("identity suite, every h with n <= 6", failures, started, limit=120)


def test_criterion_2_orientation_model_and_e_positivity():
    started = time.monotonic()
    failures = []
    cases = [h for n in range(1, 6) for h in hessenberg_all(n)]
    cases.append(H("2,3,4,5,6,6"))
    cases.append(H("6,6,6,6,6,6"))
    for h in cases:
        shifted = llt(h).subs_coeffs(lambda c: c.subs_q_plus_one()).in_basis("e")
        orient = orientation_e_expansion(h).in_basis("e")
        if orient != shifted:
            failures.append((h.values, "orientation model mismatch"))
        positive, _ = llt(h).is_e_positive_shifted()
        if not positive:
            failures.append((h.values, "shifted expansion not e-positive"))
    _conclude(
        "orientation model equals the shifted llt expansion, with e-positivity",
        failures,
        started,
    )


def test_criterion_3_moment_graph_laws():
    started = time.monotonic()
    failures = []
    for h in hessenberg_all(3):
        for check in gkm_report(h):
            if not check["passed"]:
                failures.append((h.values, check["name"], check["detail"]))
    n4_started = time.monotonic()
    for text in ("2,3,4,4", "4,4,4,4"):
        for check in gkm_report(H(text)):
            if not check["passed"]:
                failures.append((text, check["name"], check["detail"]))
    n4_elapsed = time.monotonic() - n4_started
    if n4_elapsed > 300:
        failures.append(f"n=4 reports exceeded 300s ({n4_elapsed:.1f}s)")
    _conclude("moment-graph laws at n = 3 (all h) and n = 4", failures, started)


def test_criterion_4_permutohedron_reports():
    started = time.monotonic()
    failures = []
    for n in range(2, 7):
        for check in permco_report(n):
            if not check["passed"]:
                failures.append((n, check["name"], check["detail"]))
    _conclude("permutohedron face modules, n = 2..6", failures, started)


def test_criterion_5_coinvariant_closed_forms():
    started = time.monotonic()
    failures = []
    for n in range(2, 6):
        for check in coinvariant_closed_form_check(n):
            if not check["passed"]:
                failures.append((n, check["name"], check["detail"]))
    for n in (2, 3):
        if not coinvariant_flag_cross_check(n):
            failures.append((n, "flag cross-check"))
    for n in range(2, 11):
        for i in range(1, n):
            if not q_binomial_sum_check(n, i):
                failures.append((n, i, "gaussian binomial sum"))
    for n in range(2, 6):
        if not all(check["passed"] for check in complete_graph_agreement(n)):
            failures.append((n, "complete graph agreement"))
    _conclude(
        "coinvariant closed forms, gaussian binomials, complete graphs",
        failures,
        started,
    )


def test_criterion_6_cli_contract(capsys):
    started = time.monotonic()
    failures = []

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    code, out = run("llt", "--h", "2,2", "--basis", "e")
    obj = json.loads(out)
    if code != 0 or [t["coeff"] for t in obj["result"]["terms"]] != [
        "(q - 1)/(1)",
        "(1)/(1)",
    ]:
        failures.append("llt golden expansion")

    code, out = run("llt", "--h", "2,3,3", "--basis", "e", "--shifted")
    if code != 0 or json.loads(out)["verdict"] != "pass":
        failures.append("shifted verdict")

    code, out = run("verify", "--scope", "identities", "--h", "2,2")
    if code != 0 or not json.loads(out)["passed"]:
        failures.append("verify identities")

    code, _ = run("llt", "--h", "2,1")
    capsys.readouterr()
    if code != 2:
        failures.append("usage error exit code")

    code, _ = run("llt", "--h", "3,4,5,6,7,8,9,9,9")
    capsys.readouterr()
    if code != 3:
        failures.append("budget exit code")

    _, out1 = run("verify", "--scope", "gkm", "--n", "3")
    _, out2 = run("verify", "--scope", "gkm", "--n", "3")
    if TIMING.sub("T", out1) != TIMING.sub("T", out2):
        failures.append("verify output not deterministic")

    _conclude("command-line contract: goldens, exit codes, determinism", failures, started)
