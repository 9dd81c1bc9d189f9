"""Per-layer metrics of a traced pass, and the end-to-end metric each one
should move.  Names and units live in BENCHMARK.json; this module computes
the values and states the mapping."""

from __future__ import annotations

from spans import LAYERS, Tracer


def _add(tracer: Tracer, key: str, value) -> None:
    tracer.sums[key] = tracer.sums.get(key, 0) + value


def _enum_hook(tracer, args, result):
    _add(tracer, "psl.enum.elements", len(result))
    tracer.levels.add(args[0])


# qualified name of a wrapped callable -> hook(tracer, args, result)
HOOKS = {
    "psl.enumerate_sl": _enum_hook,
    "psl.element_order": lambda t, a, r: _add(t, "psl.order.mults", r),
    "psl.projective_element_order": lambda t, a, r: _add(t, "psl.order.mults", r),
    "cusps.enumerate_cusps": lambda t, a, r: _add(t, "cusps.classes", len(r)),
    "cusps.width_bruteforce": lambda t, a, r: _add(t, "cusps.scan_steps", r),
    "canonical.elimination_solve": lambda t, a, r: _add(t, "canonical.elim.steps", len(r.steps)),
    "curve.verify_isomorphism_numeric": lambda t, a, r: _add(t, "curve.iso.samples", r["samples"]),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass except golden.load_s and
    trace.overhead, which the caller measures outside the pass."""
    out: dict[str, float] = {}
    for layer, (spans, self_s) in tracer.layer_totals().items():
        if layer in LAYERS:
            out[f"{layer}.calls"] = spans
            out[f"{layer}.self_s"] = self_s
    enumerations = tracer.count("psl.enumerate_sl")
    out["psl.enum.calls"] = enumerations
    out["psl.enum.per_level"] = enumerations / len(tracer.levels) if tracer.levels else 0.0
    out["psl.canon.calls"] = tracer.count("psl.psl_canon") + tracer.count("psl.projective_canon")
    out["canonical.sigma.tests"] = tracer.count("canonical.sigma_preserves_ideal")
    out["arith.cyclo.muls"] = tracer.count("arith.Cyclotomic.__mul__")
    out["cli.checks"] = tracer.count("cli.make_check") + tracer.count("cli.bool_check")
    for key in ("psl.enum.elements", "psl.order.mults", "cusps.classes", "cusps.scan_steps",
                "canonical.elim.steps", "curve.iso.samples"):
        out[key] = tracer.sums.get(key, 0)
    return out


_SHARE = "pass_s on the workload where the layer's self time is largest"

# per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    **{f"{layer}.calls": "spans entering the layer; " + _SHARE for layer in LAYERS},
    **{f"{layer}.self_s": _SHARE for layer in LAYERS},
    "psl.self_s": "pass_s and op_tail_ms on oracle-sweep, its largest share",
    "psl.enum.calls": "pass_s and op_tail_ms on oracle-sweep",
    "psl.enum.elements": "pass_s and op_tail_ms on oracle-sweep",
    "psl.canon.calls": "pass_s and op_tail_ms on oracle-sweep",
    "psl.order.mults": "pass_s and op_tail_ms on oracle-sweep (max order at 29 and 40 set the tail)",
    "psl.enum.per_level": "pass_s on level-queries (hot levels repeat); not peak_rss_mib on oracle-sweep",
    "cusps.classes": "pass_s on level-queries (cusps queries up to level 60); small on oracle-sweep",
    "cusps.scan_steps": "pass_s on level-queries (cusps queries up to level 60); small on oracle-sweep",
    "canonical.self_s": "pass_s and op_p50_ms on cover-geometry (the sigma tests hold the median)",
    "canonical.elim.steps": "pass_s and op_tail_ms on cover-geometry only",
    "canonical.sigma.tests": "op_p50_ms and pass_s on cover-geometry only",
    "arith.cyclo.muls": "op_p50_ms and pass_s on cover-geometry only",
    "poly.self_s": "pass_s and op_tail_ms on cover-geometry only (elimination)",
    "curve.iso.samples": "pass_s on cover-geometry only",
    "cli.self_s": "op_p50_ms on level-queries (parse, check assembly, JSON render)",
    "cli.checks": "pass_s on level-queries (table verification queries)",
    "golden.load_s": "setup_s on every workload",
    "trace.overhead": "nothing; divides per-layer self times back to untraced scale",
}
