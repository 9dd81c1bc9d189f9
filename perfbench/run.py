"""The modcurve benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --reference     # ROADMAP north-star commands, once each
    python3 perfbench/run.py --smoke         # the benchmark's own self-test

Run from anywhere; modcurve is imported from the src/ directory next to
perfbench/.  A workload run generates its operations from the seed, then
measures set-up in fresh interpreters and runs passes over the operations,
each pass in a fresh interpreter, one after another (a closed loop with one
client and one thread).  Times are scaled to reference speed (calib.py),
and a run makes as many passes as fit in --seconds at the seed
implementation's reference-speed pass time.  Every answer is checked.  The last line of output is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calib import calibrate, speed_factor
from metrics import MOVES
from workloads import NOMINAL_PASS_S, WORKLOADS, generate, inputs_hash

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 7
DEADLINE_S = 170  # a run ends well inside the 180 s a harness may allow

REFERENCE = (
    (["verify"], "0.24 s"),
    (["verify", "--oracles", "--q-max", "40"], "29 s (verify_oracles(40) in process)"),
    (["group", "--q", "40", "--max-order"], "1.64 s"),
    (["group", "--q", "40", "--center"], "0.75 s (center(40) alone)"),
    (["canonical"], "none (elimination_solve alone: 14 ms)"),
    (["equation", "--q", "8", "--solve-constants"], "none"),
)


class ChildFailed(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_child(args: list[str], request: dict | None, timeout: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON report."""
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], cwd=ROOT, text=True,
                              input=None if request is None else json.dumps(request),
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"pass exceeded {timeout:.0f} s and was killed") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile that leaves at least ten
    samples above it: the eleventh largest sample, by nearest rank."""
    n = len(samples)
    if n <= 10:
        return 100.0, max(samples)
    return 100 * (n - 10) / n, sorted(samples)[n - 11]


def scaled_ms(report: dict) -> list[float]:
    """A pass's operation latencies in ms at reference speed (see calib.py)."""
    return [ns / 1e6 * f for ns, f in zip(report["latencies_ns"], report["scales"])]


def pass_s(reports: list[dict]) -> float:
    """Median over passes of a pass's time at reference speed."""
    return statistics.median(sum(scaled_ms(r)) / 1e3 for r in reports)


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
            tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    ops = generate(workload, seed, tiny)
    lines = [f"modcurve benchmark: workload={workload} seed={seed} seconds={seconds} "
             f"trace={int(trace)}",
             f"inputs: {len(ops)} operations, sha256 {inputs_hash(ops)}",
             f"machine: {os.cpu_count()} CPUs, Python {platform.python_version()} "
             f"({platform.python_implementation()})"]
    deadline = time.monotonic() + DEADLINE_S
    spans_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}.tsv")

    run_child(["--setup-only"], None, DEADLINE_S)  # compiles bytecode; not counted
    setups = [run_child(["--setup-only"], None, DEADLINE_S) for _ in range(SETUP_RUNS)]

    count = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    plan = [False, True] * max(1, count // 2) if trace else [False] * count
    passes: list[tuple[bool, dict]] = []
    attempted = failed = 0
    errors: list[str] = []
    longest = 0.0
    for with_trace in plan:
        if time.monotonic() + longest > deadline:
            errors.append(f"stopped after {len(passes)} of {len(plan)} passes: time limit")
            break
        attempted += len(ops)
        t0 = time.monotonic()
        try:
            report = run_child([], {"ops": ops, "trace": with_trace, "spans_path": spans_path},
                               max(1.0, deadline - time.monotonic()))
        except ChildFailed as exc:  # a crash fails every operation of the pass
            failed += len(ops)
            errors.append(f"pass {len(passes) + 1} crashed: {exc}")
            continue
        finally:
            longest = max(longest, time.monotonic() - t0)
        failed += len(report["failures"])
        errors += [f"op {i} {kind}: {why}" for i, kind, why in report["failures"]]
        passes.append((with_trace, report))

    plain = [r for t, r in passes if not t]
    traced = [r for t, r in passes if t]
    if not plain or (trace and not traced):
        raise ChildFailed("no pass completed: " + "; ".join(errors[:3]))
    speed = statistics.median(f for r in plain for f in r["scales"])
    lines.append(f"passes: {len(plain)} untraced, {len(traced)} traced; one fresh "
                 f"interpreter each; closed loop, one client; times at reference "
                 f"speed, median speed factor {speed:.3f} (calib.py)")

    values: dict[str, float] = {"golden.load_s": statistics.median(
        s["golden_load_s"] for s in setups)}
    # every pass runs the same operations; each operation's median across
    # passes stands for its samples, one per pass
    per_pass = [scaled_ms(r) for r in plain]
    per_op = [statistics.median(p[i] for p in per_pass) for i in range(len(ops))]
    samples = [m for m in per_op for _ in plain]
    pct, tail = tail_latency(samples)
    values.update({
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "pass_s": pass_s(plain),
        "op_p50_ms": statistics.median(samples),
        "op_tail_ms": tail,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in plain),
    })
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "pass_s": f"median of {len(plain)} passes; checks excluded; raw median "
                  f"{statistics.median(sum(r['latencies_ns']) / 1e9 for r in plain):.4g} s",
        "op_p50_ms": f"median of {len(samples)} samples ({len(ops)} operations x "
                     f"{len(plain)} passes, each operation at its median)",
        "op_tail_ms": f"p{pct:.2f} of {len(samples)} samples, {min(10, len(samples) - 1)} "
                      f"beyond it",
        "ok_ratio": f"fail_ratio = {failed}/{attempted} = {failed / attempted:g}",
        "peak_rss_mib": "median ru_maxrss of the untraced pass processes",
    }
    if trace:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        values["trace.overhead"] = pass_s(traced) / values["pass_s"]
        lines.append(f"spans of the last traced pass: {os.path.relpath(spans_path, ROOT)}")

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = notes.get(m["name"]) or (f"moves: {MOVES[m['name']]}" if trace else "")
        lines.append(f"{m['name']:<24} {values[m['name']]:>14.6g} {m['unit']:<6} {note}")
    unlisted = sorted(set(values) - {m["name"] for m in spec["end_to_end"] + spec["per_layer"]})
    if unlisted:
        raise ChildFailed(f"metrics missing from BENCHMARK.json: {unlisted}")
    lines += [f"FAILED {e}" for e in errors[:20]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def reference() -> int:
    """Time the ROADMAP north-star command list once each, in process."""
    sys.path.insert(0, SRC)
    import modcurve.cli
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        model = next((line.split(":", 1)[1].strip() for line in f
                      if line.startswith("model name")), model)
    print(f"machine: {os.cpu_count()} CPUs, {model}, Python {platform.python_version()}")
    print(f"{'command':<40} {'raw s':>9} {'ref s':>9} exit  ROADMAP baseline (raw)")
    worst = 0
    for argv, baseline in REFERENCE:
        before = calibrate()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            status = modcurve.cli.main(argv)
            elapsed = time.perf_counter() - t0
        scaled = elapsed * speed_factor(before, calibrate())
        worst = max(worst, status)
        print(f"{' '.join(argv):<40} {elapsed:>9.3f} {scaled:>9.3f} {status:>4}  {baseline}",
              flush=True)
    return 1 if worst else 0


def smoke(spec: dict) -> int:
    """Run every workload on a tiny input, untraced and traced; check that
    every metric is printed with its unit, no answer is wrong and the input
    hash is stable for a fixed seed."""
    problems = []
    for workload in WORKLOADS:
        for tiny in (True, False):
            a = inputs_hash(generate(workload, 7, tiny))
            if a != inputs_hash(generate(workload, 7, tiny)) or \
                    a == inputs_hash(generate(workload, 8, tiny)):
                problems.append(f"{workload}: input hash is not a function of the seed")
        for trace in (False, True):
            result, lines = measure(workload, 7, 0, trace, spec, tiny=True)
            listed = spec["per_layer"] if trace else spec["end_to_end"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in listed}:
                problems.append(f"{workload} trace={int(trace)}: metrics {got}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed")
                problems += [line for line in lines if line.startswith("FAILED")]
            print(f"smoke {workload} trace={int(trace)}: {result['attempted']} ops, "
                  f"{result['failed']} failed, {len(got)} metrics", flush=True)
    for p in problems:
        print(f"SMOKE FAILURE {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--reference", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modcurve", "__init__.py")):
        print(f"error: no modcurve sources under {SRC}", file=sys.stderr)
        return 2
    if args.reference:
        return reference()
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
