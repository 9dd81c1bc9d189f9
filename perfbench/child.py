"""One pass of a workload in a fresh interpreter, or its set-up alone.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py < request.json

Set-up is timed from the start of setup(): importing modcurve.cli,
the first golden.load_golden() and cli.build_parser().  The request on
stdin is {"ops": [...], "trace": bool, "spans_path": str | null}.  The
report is one JSON object on stdout.  Each operation is timed alone; its
answer check runs after the interval closes.  The calibration loop runs
between operations; the report carries raw times and the factors that
scale them to reference speed.
"""

import os
import sys
import time

from calib import SLICE_S, calibrate, speed_factor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def setup() -> tuple[float, float]:
    """(set-up seconds, first golden load seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import modcurve.cli
    from modcurve import golden
    if not os.path.abspath(modcurve.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"modcurve was imported from {modcurve.cli.__file__}, not {SRC}")
    t1 = time.perf_counter()
    golden.load_golden()
    t2 = time.perf_counter()
    modcurve.cli.build_parser()
    return time.perf_counter() - t0, t2 - t1


def run_pass(request: dict) -> dict:
    import resource
    import ops as kinds
    from metrics import HOOKS, layer_metrics
    from spans import Tracer

    tracer = None
    if request["trace"]:
        import modcurve
        from modcurve import (arith, canonical, cli, curve, cusps, equation, genus,
                              golden, poly, psl)
        tracer = Tracer()
        tracer.install([modcurve, arith, psl, cusps, genus, equation, curve, canonical,
                        poly, golden, cli],
                       [arith.Cyclotomic, arith.GaussRational, poly.Poly, canonical.MPoly],
                       HOOKS)
    latencies, cal_index, failures = [], [], []
    clock = time.perf_counter_ns
    cals, cal_at = [calibrate()], time.perf_counter()
    for i, op in enumerate(request["ops"]):
        run, check = kinds.KINDS[op["kind"]]
        if tracer:
            tracer.begin_op(op["kind"])
        t0 = clock()
        try:
            result, error = run(op), None
        except Exception as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer:
            tracer.end_op()
        latencies.append(t1 - t0)
        cal_index.append(len(cals) - 1)
        if time.perf_counter() - cal_at >= SLICE_S:
            cals.append(calibrate())
            cal_at = time.perf_counter()
        if error is None:
            try:
                error = check(op, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append([i, op["kind"], error])
    cals.append(calibrate())
    # an operation's calibrations: the last one before it, the first after it
    scales = [speed_factor(cals[j], cals[j + 1]) for j in cal_index]
    report = {"latencies_ns": latencies, "scales": scales, "failures": failures,
              "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        import statistics
        scale = statistics.median(scales)
        report["layers"] = {name: value * scale if name.endswith("_s") else value
                            for name, value in layer_metrics(tracer).items()}
        if request.get("spans_path"):
            tracer.write(request["spans_path"])
    return report


def main() -> None:
    calibrate()  # first run of the loop warms the interpreter's specialization
    before = calibrate()
    setup_s, golden_s = setup()
    scale = speed_factor(before, calibrate())
    # imported only now so that set-up time covers exactly what modcurve needs
    import json
    report = {"setup_s": setup_s * scale, "golden_load_s": golden_s * scale}
    if "--setup-only" not in sys.argv[1:]:
        report.update(run_pass(json.load(sys.stdin)))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
