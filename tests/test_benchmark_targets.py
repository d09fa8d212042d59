"""The functions the traced benchmark run wraps must exist under their names,
and each benchmark workload fast enough for the suite, run in-process, must
reproduce its stored digest."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import hessllt.cli  # loads every module the targets name

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


@pytest.mark.parametrize("workload", ["gkm-n4", "identities-n5", "llt-n7"])
def test_gkm_workload_report_matches_its_digest(monkeypatch, capsys, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    code = hessllt.cli.main(list(run.WORKLOADS[workload].argv))
    stdout = capsys.readouterr().out.encode()
    expected = json.loads((PERFBENCH / "digests.json").read_text())[workload]
    assert code == expected["exit_code"]
    assert run.report_digest(stdout, code) == expected["sha256"]
