"""The functions the traced benchmark run wraps must exist under their names,
and each benchmark workload, run in-process under the benchmark's span
tracer, must reproduce its stored digest and record calls in every span the
traced benchmark run requires of it."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import hessllt.cli  # loads every module the targets name
from hessllt import gkm

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
def test_gkm_workload_report_matches_its_digest(monkeypatch, capsys, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # as in a cold child: mp_mul runs only while the complement factors are cold
    monkeypatch.setattr(gkm, "_space_cache", {})
    gkm._complement_factors.cache_clear()
    gkm._numerator_terms.cache_clear()
    run = importlib.import_module("run")
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    tracer = spans.Tracer(nested=layers.NESTED)
    undo = spans.install(tracer, layers.TARGETS, "hessllt")
    try:
        code = hessllt.cli.main(list(run.WORKLOADS[workload].argv))
    finally:
        spans.uninstall(undo)
    stdout = capsys.readouterr().out.encode()
    expected = json.loads((PERFBENCH / "digests.json").read_text())[workload]
    assert code == expected["exit_code"]
    assert run.report_digest(stdout, code) == expected["sha256"]
    silent = [s for s in run.WORKLOADS[workload].spans
              if s not in tracer.stats or not tracer.stats[s].calls]
    assert not silent, f"spans with no calls: {silent}"
