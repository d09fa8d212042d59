"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from layers import NESTED, TARGETS, per_layer_metrics  # noqa: E402
from run import END_TO_END, WORKLOADS, report_digest  # noqa: E402
from spans import Target, Tracer, install, uninstall  # noqa: E402


class FakeClock:
    """Advances by one second whenever it is read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_span_accounting_on_a_nested_call():
    tracer = Tracer(clock=FakeClock(), nested=[("inner", "outer")])
    inner = tracer.wrap("inner", lambda x: x + 1)

    def body():
        return inner(1) + inner(2)

    outer = tracer.wrap("outer", body)
    assert outer() == 5
    assert inner(0) == 1  # a call outside "outer" is not nested in it

    st = tracer.stats
    # clock reads: outer in 1, inner 2..3, inner 4..5, outer out 6, inner 7..8
    assert (st["inner"].calls, st["inner"].total_s, st["inner"].self_s) == (3, 3.0, 3.0)
    assert (st["outer"].calls, st["outer"].total_s, st["outer"].self_s) == (1, 5.0, 3.0)
    assert tracer.nested_calls[("inner", "outer")] == 2


def test_recursion_counts_total_time_once():
    tracer = Tracer(clock=FakeClock())

    def fact(k):
        return 1 if k <= 1 else k * traced(k - 1)

    traced = tracer.wrap("fact", fact)
    assert traced(3) == 6
    st = tracer.stats["fact"]
    # reads 1,2,3 in; 4,5,6 out: outermost span lasts 5, the self times add to 5
    assert (st.calls, st.total_s, st.self_s) == (3, 5.0, 5.0)


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ArithmeticError("unlucky prime")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(ArithmeticError):
        traced()
    assert tracer.stats["boom"].calls == 1
    assert not tracer._stack


def test_observe_adds_counters():
    tracer = Tracer(clock=FakeClock())
    traced = tracer.wrap("f", lambda n: n * 2, observe=lambda t, a, k, r: t.count("work", r))
    traced(3)
    traced(4)
    assert tracer.counters == {"work": 14}


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.core defines f and Thing; fakepkg.user and fakepkg itself
    import f by name, as `from .core import f` would."""

    def f(x):
        return x * 10

    class Thing:
        def method(self):
            return "m"

    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    core.f, core.Thing = f, Thing
    user.f = f
    user.g = lambda x: user.f(x) + 1
    pkg.f = f
    for module in (pkg, core, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return pkg, core, user, f, Thing


def test_install_rebinds_every_name_bound_to_the_function(fake_package):
    pkg, core, user, f, Thing = fake_package
    tracer = Tracer(clock=FakeClock())
    undo = install(tracer, [Target("core.f", "fakepkg.core", "f"),
                            Target("core.method", "fakepkg.core:Thing", "method")], "fakepkg")
    assert core.f is user.f is pkg.f
    assert core.f is not f
    assert user.g(1) == 11  # called through the name user imported
    assert pkg.f(2) == 20
    assert Thing().method() == "m"
    assert tracer.stats["core.f"].calls == 2
    assert tracer.stats["core.method"].calls == 1

    uninstall(undo)
    assert core.f is f and user.f is f and pkg.f is f
    assert Thing.__dict__["method"].__name__ == "method"
    user.g(1)
    assert tracer.stats["core.f"].calls == 2


def test_digest_ignores_timing_and_includes_exit_code():
    a = json.dumps({"passed": True, "timing_seconds": 1.5}).encode()
    b = json.dumps({"timing_seconds": 9.0, "passed": True}, indent=2).encode()
    assert report_digest(a, 0) == report_digest(b, 0)
    assert report_digest(a, 0) != report_digest(a, 1)
    assert report_digest(a, 0) != report_digest(json.dumps({"passed": False}).encode(), 0)
    assert report_digest(b"not json", 0) != report_digest(b"not json!", 0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()
    spans = {t.span for t in TARGETS}
    for workload in WORKLOADS.values():
        assert set(workload.spans) <= spans
    assert {s for pair in NESTED for s in pair} <= spans


def test_digests_cover_every_workload():
    digests = json.loads((HERE / "digests.json").read_text())
    assert set(digests) == set(WORKLOADS)
