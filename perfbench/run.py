"""qcap benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qcap checkout; qcap is imported from ./src with
QCAP_THREADS=1. Workloads: solve, sim-bsc, sim-dmc, verify, cli.

--trace 0 measures the end-to-end metrics with no wrappers installed.
--trace 1 installs the per-layer wrappers, writes the spans to
.perfbench/trace-<workload>-<seed>.jsonl and reports the per-layer
metrics, including the tracing overhead measured by replaying the first
calls untraced.

ops_per_s is at the reference core speed on every workload but cli: a
fixed kernel (calibrate.py) is timed between ops, and the run's
throughput is scaled by the kernel's slowdown against calibrate.REF_S.
The wall-clock throughput is printed beside it. setup_s is wall time.

Human-readable lines (metric table, provenance, checks) come first; the
last stdout line is one JSON object with correct, attempted, failed and
metrics. The exit code is 1 when an output check fails, 2 on usage or
environment errors (no ./src/qcap), 0 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3              # this process plus fresh children
IMPORT_SAMPLES = 3
REPLAY_SHARE = 1.0 / 3.0       # traced-run share replayed untraced for the overhead
TAIL_BEYOND = 10
# end-to-end metrics in the result line; the rest are printed beside them.
# Call-latency order statistics swing 20-35% between identical runs on a
# shared 2-vCPU VM, past the largest bound a gated metric may have.
GATED = ("setup_s", "ops_per_s", "peak_rss_mb")


def _bootstrap():
    """Put ./src first on sys.path and cap BLAS threads before numpy loads."""
    if not (ROOT / "src" / "qcap" / "__init__.py").is_file():
        print("error: run from the root of a qcap checkout (no src/qcap here)",
              file=sys.stderr)
        sys.exit(2)
    os.environ["QCAP_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)


def _setup(name, seed):
    import qcap
    import workloads

    if not Path(qcap.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: qcap imported from {qcap.__file__}, not ./src", file=sys.stderr)
        sys.exit(2)
    wl = workloads.WORKLOADS[name]
    return qcap, wl, wl.build(qcap, seed)


def process_age() -> float:
    """Seconds since this process started (kernel clock, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime", encoding="ascii") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _child_setup_seconds(argv, env) -> float:
    """Set-up time a fresh child reports for itself."""
    out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    return float(out.split()[-1])


def _child_seconds(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def tail(latencies):
    """(value, percentile, samples): the highest order statistic with at
    least TAIL_BEYOND samples above it, or the maximum when there are too
    few samples."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def timed_loop(wl, state, seconds, ctx, tracer=None, meter=None):
    """Run the calls of `seconds` worth of whole passes.

    The pass count comes from the workload's nominal pass time, so every
    run of a workload makes the same calls however fast the machine is
    at that moment; order statistics then compare like with like.
    Returns the records and the wall seconds of the calls, without the
    time `meter` spent timing its kernel between them.
    """
    from workloads import Record

    passes = max(1, round(seconds / wl.nominal_pass_s))
    records = []
    clock = time.perf_counter
    t0 = clock()
    for i, call in enumerate(itertools.islice(wl.calls(state), passes * wl.pass_len)):
        if tracer is not None:
            tracer.op = i
            frame = tracer.open("op")
            frame.counts["label"] = call.label
            frame.counts["units"] = call.units
        t = clock()
        try:
            result, error = call.fn(ctx), None
        except Exception as exc:   # a raising op is a failed op; check() judges it
            result, error = None, exc
        dt = clock() - t
        if tracer is not None:
            tracer.close(frame, None if error is None else type(error).__name__)
        records.append(Record(call, result, error, dt))
        if meter is not None:
            meter.after_op(dt)
    if meter is not None:
        meter.flush()
    return records, clock() - t0 - (meter.spent if meter is not None else 0.0)


def replay_seconds(records, ctx) -> float:
    """Re-run the given calls untraced and return their summed latency."""
    clock = time.perf_counter
    total = 0.0
    for rec in records:
        t = clock()
        try:
            rec.call.fn(ctx)
        except Exception:
            pass
        total += clock() - t
    return total


def failed_units(wl, records) -> int:
    return sum(r.call.units for r in records if wl.failed(r))


def end_to_end(wl, records, elapsed, setup_times, meter, rss_mb) -> dict:
    """ops_per_s is scaled by the meter's slowdown when there is a meter.

    setup_s stays in wall seconds: scaling it by the slowdown widened its
    spread over ten runs (0.15-0.29 to 0.21-0.44, IQR over median), since
    a fresh process's imports and page faults do not slow like the kernel.
    """
    lat = [r.seconds for r in records]
    units = sum(r.call.units for r in records)
    tail_v, tail_pct, n = tail(lat)
    slowdown = meter.slowdown() if meter is not None else 1.0
    e2e = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": units / elapsed * slowdown, "unit": "op/s"},
    }
    if meter is not None:
        e2e["ops_per_wall_s"] = {"value": units / elapsed, "unit": "op/s"}
        e2e["core_slowdown"] = {"value": slowdown, "unit": "ratio"}
    return e2e | {
        "call_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "call_tail_s": {"value": tail_v, "unit": "s",
                        "percentile": round(tail_pct, 2), "samples": n},
        "fail_frac": {"value": failed_units(wl, records) / units, "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["solve", "sim-bsc", "sim-dmc", "verify", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import qcap, build the inputs and exit (set-up timing)")
    args = ap.parse_args(argv)
    args.seed %= 1 << 63           # numpy seeds must be nonnegative
    _bootstrap()
    qcap, wl, state = _setup(args.workload, args.seed)
    setup_self = process_age()
    if args.setup_only:
        print(f"{setup_self:.6f}")
        return 0

    import calibrate
    import provenance
    from workloads import Ctx, child_env

    env = child_env()
    me = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
          "--seed", str(args.seed), "--setup-only"]
    tracer = None
    if args.trace:
        import instrument
        from tracer import Tracer

        tracer = Tracer()
        instrument.install(tracer, qcap)
    ctx = Ctx(tracer=tracer, inprocess=bool(args.trace))
    meter = calibrate.Meter() if wl.calibrated and not args.trace else None
    records, elapsed = timed_loop(wl, state, args.seconds, ctx, tracer, meter)
    if args.workload == "cli" and not args.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    wrong = wl.check(qcap, state, records)
    failed = failed_units(wl, records)
    prov = provenance.collect(ROOT, args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"

    if not args.trace:
        setup_times = [setup_self] + [_child_setup_seconds(me, env)
                                      for _ in range(SETUP_SAMPLES - 1)]
        e2e = end_to_end(wl, records, elapsed, setup_times, meter, rss_kb / 1024.0)
        for name, mv in e2e.items():
            extra = (f"  (p{mv['percentile']:g} of {mv['samples']} calls)"
                     if name == "call_tail_s" else "")
            print(f"{name:14s} {mv['value']:.6g} {mv['unit']}{extra}")
        report = {"provenance": prov, "metrics": e2e, "setup_samples_s": setup_times,
                  "kernel_samples_s": meter.samples if meter is not None else []}
        metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in GATED}
    else:
        import trace_report

        # overhead: the first calls again, same inputs, wrappers removed
        budget = REPLAY_SHARE * args.seconds
        head, spent = [], 0.0
        for rec in records:
            if head and spent + rec.seconds > budget:
                break
            head.append(rec)
            spent += rec.seconds
        plain = replay_seconds(head, Ctx(inprocess=True))
        imports = [_child_seconds([sys.executable, "-c", "import qcap.cli"], env)
                   for _ in range(IMPORT_SAMPLES)]
        header = {"workload": args.workload, "seed": args.seed,
                  "overhead_frac": 1.0 - plain / spent,
                  "overhead_calls": len(head),
                  "cli_import_s": statistics.median(imports),
                  "provenance": prov}
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(path, header)
        trace = trace_report.Trace.load(path)
        print(trace_report.format_table(trace))
        metrics, missing = trace_report.metrics_for(trace)
        print(trace_report.format_metrics(metrics))
        if missing:
            wrong.append("per-layer metrics missing: " + ", ".join(missing))
        report = {"provenance": prov, "metrics": metrics, "trace": str(path)}

    for key in ("law_check", "grid_trail", "grid_spacing_bound"):
        if key in state:
            report[key] = state[key]
            print(f"{key}: {json.dumps(state[key])}")
    report["calls"] = [[r.call.label, round(r.seconds, 6), not wl.failed(r)]
                       for r in records]
    report["wrong"] = wrong
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("provenance: " + json.dumps(prov))
    for w in wrong:
        print(f"WRONG: {w}")
    print(json.dumps({"correct": not wrong,
                      "attempted": sum(r.call.units for r in records),
                      "failed": failed, "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
