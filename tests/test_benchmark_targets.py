"""The functions the traced benchmark run wraps must exist under their names,
and each benchmark workload, run in a cold traced child process as the
benchmark starts it, must reproduce its stored digest and record calls in
every span the traced benchmark run requires of it."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hessllt.cli  # noqa: F401  (loads every module the targets name)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_is_defined_by_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("layers").TARGETS
    assert targets
    for t in targets:
        module_name, _, cls = t.owner.partition(":")
        owner = sys.modules[module_name]
        if cls:
            owner = owner.__dict__[cls]
        assert t.attr in owner.__dict__, f"{t.span}: {t.owner} has no {t.attr}"


@pytest.mark.parametrize("workload", ["gkm-n4", "identities-n5", "llt-n7", "permutohedron-n5"])
def test_workload_report_matches_its_digest(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--out", str(out), "--trace", "--",
         *run.WORKLOADS[workload].argv],
        cwd=PERFBENCH.parent, capture_output=True, timeout=300,
    )
    expected = json.loads((PERFBENCH / "digests.json").read_text())[workload]
    assert proc.returncode == expected["exit_code"], proc.stderr.decode()
    assert run.report_digest(proc.stdout, proc.returncode) == expected["sha256"]
    spans = json.loads(out.read_text())["spans"]
    silent = [s for s in run.WORKLOADS[workload].spans if not spans.get(s, {}).get("calls")]
    assert not silent, f"spans with no calls: {silent}"
