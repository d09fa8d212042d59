"""The hessllt layers the traced run measures, and the metrics made from them.

Each span is named ``<module>.<function>`` after the ``src/hessllt`` module
that defines the wrapped function.  Every span yields ``.calls``, ``.total_s``
and ``.self_s``; the derived metrics below are computed from span counts and
the counters that ``observe`` hooks add.
"""

from __future__ import annotations

from spans import Target


def _rref_work(tracer, args, kwargs, result) -> None:
    rows, cols = args[0].shape
    tracer.count("linalg.blocked_rref.cells", rows * cols)
    tracer.count("linalg.blocked_rref.ops", result[0] * rows * cols)


TARGETS = (
    Target("cli.main", "hessllt.cli", "main"),
    Target("hessgraph.llt", "hessllt.hessgraph", "llt"),
    Target("hessgraph.csf", "hessllt.hessgraph", "csf"),
    Target("hessgraph.orientation_e_expansion", "hessllt.hessgraph", "orientation_e_expansion"),
    Target("hessgraph.verify_identities", "hessllt.hessgraph", "verify_identities"),
    Target("symfunc.in_basis", "hessllt.symfunc:SymFunc", "in_basis"),
    Target("symfunc.eq", "hessllt.symfunc:SymFunc", "__eq__"),
    Target("symfunc.omega", "hessllt.symfunc:SymFunc", "omega"),
    Target("symfunc.plethysm_scale", "hessllt.symfunc:SymFunc", "plethysm_scale"),
    Target("symfunc.tables", "hessllt.symfunc", "tables"),
    Target("qrat.gcd", "hessllt.qrat:QPoly", "gcd"),
    Target("characters.frobenius_char", "hessllt.characters", "frobenius_char"),
    Target("characters.induced_young", "hessllt.characters", "induced_young"),
    Target("multipoly.mp_mul", "hessllt.multipoly", "mp_mul"),
    Target("multipoly.mp_divide_linear", "hessllt.multipoly", "mp_divide_linear"),
    Target("linalg.blocked_rref", "hessllt.linalg", "blocked_rref", _rref_work),
    Target("linalg.nullspace_small", "hessllt.linalg", "nullspace_small"),
    Target("linalg.certified_integer_nullspace", "hessllt.linalg", "certified_integer_nullspace"),
    Target("linalg.tracer_setup", "hessllt.linalg:SubspaceTracer", "__init__"),
    Target("linalg.tracer_trace", "hessllt.linalg:SubspaceTracer", "trace"),
    Target("gkm.gkm_report", "hessllt.gkm", "gkm_report"),
    Target("gkm.degree_piece", "hessllt.gkm", "degree_piece"),
    Target("gkm.lifted_nullspace", "hessllt.gkm", "_lifted_nullspace"),
    Target("gkm.quotient_graded_character", "hessllt.gkm", "quotient_graded_character"),
    Target("gkm.space_trace", "hessllt.gkm:GkmSpace", "trace"),
    Target("gkm.localization_pushforward", "hessllt.gkm", "localization_pushforward"),
    Target("permco.permco_report", "hessllt.permco", "permco_report"),
    Target("permco.face_module_character", "hessllt.permco", "face_module_character"),
    Target("permco.face_and_h_series", "hessllt.permco", "face_and_h_series"),
    Target("permco.coinvariant_graded_character", "hessllt.permco", "coinvariant_graded_character"),
    Target("permco.complete_graph_agreement", "hessllt.permco", "complete_graph_agreement"),
)

# (child, ancestor) call counts behind the prime-retry ratios
NESTED = (
    ("linalg.nullspace_small", "linalg.certified_integer_nullspace"),
    ("linalg.nullspace_small", "gkm.lifted_nullspace"),
    ("linalg.tracer_trace", "gkm.space_trace"),
)

# name, unit, better: every metric a traced run reports
DERIVED = (
    ("linalg.blocked_rref.cells", "count", "lower"),
    ("linalg.blocked_rref.ops", "count", "lower"),
    ("linalg.blocked_rref.ops_per_s", "1/s", "higher"),
    ("linalg.nullspace.primes", "count", "lower"),
    ("linalg.nullspace.lift_calls", "count", "lower"),
    ("linalg.nullspace.primes_per_call", "ratio", "lower"),
    ("gkm.trace.attempts", "count", "lower"),
    ("gkm.trace.attempts_per_call", "ratio", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = []
    for t in TARGETS:
        out += [(f"{t.span}.calls", "count", "lower"),
                (f"{t.span}.total_s", "s", "lower"),
                (f"{t.span}.self_s", "s", "lower")]
    return out + list(DERIVED)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(record: dict, speed: float = 1.0) -> dict[str, float]:
    """Span and derived values of one traced child's record (everything but
    the trace.* overhead metrics, which need the untraced runs too), with span
    times multiplied by the child's speed factor."""
    spans = record["spans"]
    counters = record["counters"]
    nested = {(c, a): n for c, a, n in record["nested"]}
    values: dict[str, float] = {}
    for t in TARGETS:
        st = spans.get(t.span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        values[f"{t.span}.calls"] = st["calls"]
        values[f"{t.span}.total_s"] = st["total_s"] * speed
        values[f"{t.span}.self_s"] = st["self_s"] * speed

    def calls(span: str) -> int:
        return values[f"{span}.calls"]

    ops = counters.get("linalg.blocked_rref.ops", 0)
    values["linalg.blocked_rref.cells"] = counters.get("linalg.blocked_rref.cells", 0)
    values["linalg.blocked_rref.ops"] = ops
    values["linalg.blocked_rref.ops_per_s"] = _ratio(ops, values["linalg.blocked_rref.total_s"])
    primes = (nested[("linalg.nullspace_small", "linalg.certified_integer_nullspace")]
              + nested[("linalg.nullspace_small", "gkm.lifted_nullspace")])
    lifts = calls("linalg.certified_integer_nullspace") + calls("gkm.lifted_nullspace")
    values["linalg.nullspace.primes"] = primes
    values["linalg.nullspace.lift_calls"] = lifts
    values["linalg.nullspace.primes_per_call"] = _ratio(primes, lifts)
    attempts = nested[("linalg.tracer_trace", "gkm.space_trace")]
    values["gkm.trace.attempts"] = attempts
    values["gkm.trace.attempts_per_call"] = _ratio(attempts, calls("gkm.space_trace"))
    return values
