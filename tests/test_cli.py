"""Command-line interface: golden outputs, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hessllt.gkm as gkm
import hessllt.linalg as linalg
from hessllt.cli import main
from hessllt.errors import check
from hessllt.gkm import gkm_report
from hessllt.hessgraph import HessenbergFunction, llt, verify_identities
from hessllt.permco import (
    coinvariant_closed_form_check,
    complete_graph_agreement,
    face_module_twin_check,
    permco_report,
)
from hessllt.qrat import QPoly

TIMING = re.compile(r'"timing_seconds": [-+0-9.eE]+')
GOLDEN_VERIFY_ALL_N3 = Path(__file__).with_name("verify_all_n3.json")
SRC = Path(__file__).resolve().parent.parent / "src"
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestExpansionCommands:
    def test_llt_json_golden(self, capsys):
        code, obj, _ = run_json(capsys, "llt", "--h", "2,2", "--basis", "e")
        assert code == 0
        obj.pop("timing_seconds")
        assert obj == {
            "command": "llt",
            "inputs": {"h": [2, 2], "basis": "e"},
            "result": {
                "basis": "e",
                "n": 2,
                "terms": [
                    {"partition": [2], "coeff": "(q - 1)/(1)"},
                    {"partition": [1, 1], "coeff": "(1)/(1)"},
                ],
            },
        }

    def test_csf_plain_golden(self, capsys):
        code, out, _ = run(capsys, "csf", "--h", "2,2", "--basis", "e", "--format", "plain")
        assert code == 0
        assert out == "e_2: q + 1\n"

    def test_csf_latex_golden(self, capsys):
        code, out, _ = run(capsys, "csf", "--h", "3,3,3", "--basis", "e", "--format", "latex")
        assert code == 0
        assert out == "(q^3 + 2*q^2 + 2*q + 1)e_{3}\n"

    def test_llt_power_sum_basis(self, capsys):
        code, obj, _ = run_json(capsys, "llt", "--h", "1,2", "--basis", "p")
        assert code == 0
        assert obj["result"]["terms"] == [
            {"partition": [1, 1], "coeff": "(1)/(1)"}
        ]

    def test_llt_matches_library(self, capsys):
        code, obj, _ = run_json(capsys, "llt", "--h", "2,3,3", "--basis", "s")
        assert code == 0
        expected = llt(HessenbergFunction.parse("2,3,3")).in_basis("s").to_json_obj()
        assert obj["result"] == expected

    def test_llt_shifted_verdict(self, capsys):
        code, obj, _ = run_json(
            capsys, "llt", "--h", "2,3,3", "--basis", "e", "--shifted"
        )
        assert code == 0
        assert obj["verdict"] == "pass"
        assert obj["e_positive"] is True
        assert obj["passed"] is True
        assert obj["shifted_e_expansion"]["terms"] == [
            {"partition": [3], "coeff": "(q^2)/(1)"},
            {"partition": [2, 1], "coeff": "(2*q)/(1)"},
            {"partition": [1, 1, 1], "coeff": "(1)/(1)"},
        ]
        assert obj["orientation_expansion"] == obj["shifted_e_expansion"]


class TestVerifyCommand:
    def test_identities_single_h(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "--scope", "identities", "--h", "2,2")
        assert code == 0
        assert obj["passed"] is True
        assert len(obj["checks"]) == 7
        assert all(c["passed"] for c in obj["checks"])

    def test_identities_plain_lines(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "identities", "--h", "2,2", "--format", "plain"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 8  # 7 checks + summary
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "all passed: 7/7"

    def test_gkm_scope(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "--scope", "gkm", "--h", "2,3,3")
        assert code == 0
        assert obj["passed"] is True
        assert len(obj["checks"]) == 7

    def test_complete_graph_scope(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "--scope", "complete-graph", "--n", "2")
        assert code == 0
        assert obj["passed"] is True
        names = [c["name"] for c in obj["checks"]]
        assert "n=2: complete-graph partition 2" in names
        assert "n=2: complete-graph totals" in names

    def test_permutohedron_scope(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "--scope", "permutohedron", "--n", "3")
        assert code == 0
        assert obj["passed"] is True

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "hessllt.cli.verify_identities",
            lambda h: [check("synthetic", False, "forced failure")],
        )
        code, obj, _ = run_json(capsys, "verify", "--scope", "identities", "--h", "2,2")
        assert code == 1
        assert obj["passed"] is False

    def test_uncancelled_qrat_passes_every_permutohedron_check(self, capsys, monkeypatch):
        # With a gcd that never cancels, a quotient of polynomials leaves
        # canonical form.  No check forms such a quotient: the Gaussian
        # binomial sums too compare polynomials with denominators cleared.
        monkeypatch.setattr(QPoly, "gcd", lambda self, other: QPoly.one())
        code, obj, _ = run_json(capsys, "verify", "--scope", "permutohedron", "--n", "3")
        assert code == 0
        assert obj["checks"] and all(c["passed"] for c in obj["checks"])


def zero_the_last_nonzero_row(A):
    rows = np.flatnonzero(A.any(axis=1))
    if rows.size:
        A[rows[-1]] = 0


def zero_the_last_pivot_column(A):
    _, pivots, _ = linalg.blocked_rref(A, linalg.SMALL_PRIMES[0], full=False)
    if pivots:
        A[:, pivots[-1]] = 0


class TestNullspaceRetries:
    """An unlucky first prime costs certified nullspaces more primes and
    changes no report byte."""

    @staticmethod
    def report(capsys, monkeypatch, argv, fault=None):
        """The report without timing_seconds, its exit code and the primes
        eliminated, with fault applied to each matrix at the first prime."""
        real = linalg.nullspace_small
        primes = set()

        def eliminate(A, p):
            primes.add(p)
            if fault and p == linalg.SMALL_PRIMES[0]:
                A = np.array(A)
                fault(A)
            return real(A, p)

        monkeypatch.setattr(linalg, "nullspace_small", eliminate)
        monkeypatch.setattr(gkm, "_space_cache", {})  # build every degree piece afresh
        code, obj, _ = run_json(capsys, "verify", *argv)
        obj.pop("timing_seconds")
        return code, obj, primes

    @pytest.mark.parametrize(
        "argv, fault, retries",
        [
            # every gkm constraint matrix has a redundant last row, so
            # there this fault leaves each elimination as it was
            (("--scope", "gkm", "--h", "2,3,4,4"), zero_the_last_nonzero_row, False),
            (("--scope", "permutohedron", "--n", "4"), zero_the_last_nonzero_row, True),
            (("--scope", "gkm", "--h", "2,3,4,4"), zero_the_last_pivot_column, True),
        ],
        ids=["gkm-row", "permutohedron-row", "gkm-pivot-column"],
    )
    def test_an_unlucky_first_prime_changes_no_report(self, capsys, monkeypatch, argv, fault, retries):
        code, expected, primes = self.report(capsys, monkeypatch, argv)
        assert code == 0 and primes == {linalg.SMALL_PRIMES[0]}
        code, obj, primes = self.report(capsys, monkeypatch, argv, fault)
        assert code == 0 and obj == expected
        assert (len(primes) > 1) == retries


class TestReportRecords:
    def test_verify_all_n3_golden(self, capsys):
        """Every report function feeds this scope; its JSON, without
        timing_seconds, is pinned byte for byte."""
        code, obj, _ = run_json(capsys, "verify", "--scope", "all", "--n", "3")
        assert code == 0
        obj.pop("timing_seconds")
        assert len(obj["checks"]) == 82
        assert json.dumps(obj, indent=2) + "\n" == GOLDEN_VERIFY_ALL_N3.read_text()

    def test_reports_return_check_records(self):
        h = HessenbergFunction((2, 3, 3))
        for checks in (
            verify_identities(h),
            gkm_report(h),
            permco_report(3),
            face_module_twin_check(3),
            coinvariant_closed_form_check(3),
            complete_graph_agreement(3),
        ):
            assert isinstance(checks, list) and checks
            for c in checks:
                assert list(c) == ["name", "passed", "detail"]
                assert type(c["passed"]) is bool and isinstance(c["detail"], str)
            assert len({c["name"] for c in checks}) == len(checks)


class TestExitCodes:
    def test_invalid_h_not_monotone(self, capsys):
        code, out, err = run(capsys, "llt", "--h", "2,1")
        assert code == 2
        assert "usage error" in err

    def test_invalid_h_below_index(self, capsys):
        code, _, err = run(capsys, "llt", "--h", "0,2")
        assert code == 2

    def test_missing_h(self, capsys):
        code, _, err = run(capsys, "llt")
        assert code == 2

    def test_verify_needs_h_or_n(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "identities")
        assert code == 2

    def test_verify_rejects_both_h_and_n(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "identities", "--h", "2,2", "--n", "3")
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_verify_rejects_n_below_one(self, capsys, n):
        code, out, err = run(capsys, "verify", "--scope", "identities", "--n", n)
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_verify_rejects_latex(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "identities", "--h", "2,2", "--format", "latex")
        assert code == 2

    def test_budget_exit_three(self, capsys):
        code, _, err = run(capsys, "llt", "--h", "3,4,5,6,7,8,9,9,9")
        assert code == 3
        assert "budget" in err

    def test_gkm_budget_exit_three(self, capsys):
        code, _, err = run(capsys, "verify", "--scope", "gkm", "--h", "2,3,4,5,5")
        assert code == 3

    def test_bad_flag_is_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["llt", "--h", "2,2", "--basis", "z"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_expansion_bytes_stable(self, capsys):
        _, out1, _ = run(capsys, "llt", "--h", "2,3,3", "--basis", "e", "--shifted")
        _, out2, _ = run(capsys, "llt", "--h", "2,3,3", "--basis", "e", "--shifted")
        assert TIMING.sub("T", out1) == TIMING.sub("T", out2)

    def test_verify_bytes_stable(self, capsys):
        args = ("verify", "--scope", "identities", "--n", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert TIMING.sub("T", out1) == TIMING.sub("T", out2)

    def test_llt_bytes_independent_of_hash_seed(self):
        # the coloring tallies are Counters: no output may follow their iteration order
        argv = [sys.executable, "-m", "hessllt.cli", "llt", "--h", "2,3,4,5,6,7,7", "--basis", "e", "--shifted"]
        outs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(TIMING.sub("T", proc.stdout))
        assert outs[0] == outs[1]


class TestBlasThreads:
    """cli.main runs OpenBLAS on one thread unless the caller exported a count.
    NumPy loads on first use, so the default set by main reaches OpenBLAS."""

    SCRIPT = (
        "import json, sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "from hessllt import cli\n"
        "import child\n"
        "code = cli.main(['verify', '--scope', 'gkm', '--h', '2,2'])\n"
        "print(json.dumps([code, child._blas_record()['blas_threads']]))\n"
    )

    @pytest.mark.skipif(CPUS < 2, reason="OpenBLAS caps its threads at the CPUs")
    @pytest.mark.parametrize("preset, expected", [(None, 1), ("2", 2)])
    def test_openblas_thread_count_after_main(self, preset, expected):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        perfbench = SRC.parent / "perfbench"
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(SRC), str(perfbench)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, threads = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        if threads is None:
            pytest.skip("NumPy's BLAS is not an OpenBLAS with a thread-count symbol")
        assert threads == expected
