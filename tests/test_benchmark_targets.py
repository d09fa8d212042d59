"""The functions the traced benchmark run wraps must exist under their names."""

import importlib
import sys
from pathlib import Path

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
