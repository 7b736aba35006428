"""Record benchmark numbers for every workload on a list of seeds.

    python3 perfbench/baseline.py --seeds 1,7 --out perfbench/baseline.json

Runs each workload untraced and traced on each seed, one run at a time,
from the root of a checkout, and stores every run's result (the report
run.py writes under .perfbench/, plus correct/attempted/failed) in one
JSON file. A run whose output check fails is recorded as such.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("solve", "sim-bsc", "sim-dmc", "verify", "cli")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,7")
    ap.add_argument("--seconds", default=None,
                    help="run length; defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seconds = args.seconds or str(json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    out = {"seconds": float(seconds), "runs": []}
    for seed in [int(s) for s in args.seeds.split(",")]:
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
                    capture_output=True, text=True, timeout=600)
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                report = json.loads(Path(
                    f".perfbench/result-{workload}-{seed}-trace{trace}.json").read_text())
                report.pop("trace", None)
                out["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                                    "exit": proc.returncode, **last, "report": report})
                print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode} "
                      f"attempted {last['attempted']} failed {last['failed']}", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
