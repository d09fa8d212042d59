"""Span accounting and by-identity wrapping of hessllt's public functions.

A Tracer keeps one stack of open spans and aggregates, per span name, the
number of calls, the total time and the self time (duration minus the part
covered by child spans).  Spans are closed in stack order, so child spans
never overlap and their durations simply add up.  A name that recurses into
itself adds to its total time only at its outermost call, so total time is
never counted twice.  The tracer is single-threaded: the hessllt CLI runs in
one thread.

install() wraps each target and rebinds every ``hessllt.*`` module attribute
that *is* the original function, so a name imported with ``from .x import f``
is traced too.  Methods are patched on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 nested: Iterable[tuple[str, str]] = ()):
        """nested: (child, ancestor) pairs; nested_calls counts calls of child
        made while ancestor is open."""
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self.nested_calls: dict[tuple[str, str], int] = {pair: 0 for pair in nested}
        self._ancestors: dict[str, list[str]] = {}
        for child, ancestor in self.nested_calls:
            self._ancestors.setdefault(child, []).append(ancestor)
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._open: dict[str, int] = {}  # name -> open spans of that name

    def enter(self, name: str) -> None:
        for ancestor in self._ancestors.get(name, ()):
            if self._open.get(ancestor):
                self.nested_calls[(name, ancestor)] += 1
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self._open[name] -= 1
        st = self.stats.setdefault(name, SpanStats())
        st.calls += 1
        st.self_s += duration - covered
        if not self._open[name]:
            st.total_s += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             observe: Callable[[Tracer, tuple, dict, object], None] | None = None) -> Callable:
        """Return fn wrapped in a span; observe(tracer, args, kwargs, result)
        may add counters from a call that returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced


@dataclass(frozen=True)
class Target:
    """A span named `span` around `attr` of `owner` (a dotted module path,
    optionally followed by ':Class')."""

    span: str
    owner: str
    attr: str
    observe: Callable | None = None


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    obj = sys.modules[module_name]
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer, targets: Iterable[Target], package: str) -> list[tuple[object, str, object]]:
    """Wrap every target and rebind by identity across the loaded modules of
    `package`.  Returns the (owner, attr, original) list that uninstall()
    takes to undo the patching."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    undo: list[tuple[object, str, object]] = []
    for target in targets:
        owner = _resolve(target.owner)
        original = owner.__dict__[target.attr]
        wrapped = tracer.wrap(target.span, original, target.observe)
        undo.append((owner, target.attr, original))
        setattr(owner, target.attr, wrapped)
        if isinstance(owner, type):
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original and not (module is owner and attr == target.attr):
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapped)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
