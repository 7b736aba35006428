"""Read traced-run JSONL files into per-layer tables and metrics.

Usage: python3 perfbench/trace_report.py TRACE.jsonl [TRACE.jsonl ...]

For each file (one traced run of one workload) it prints a table of
self time, total time and calls per layer, then the per-layer metrics.
It exits 1 if a metric is missing on a workload where it applies, that
is, when the records the metric is computed from are absent.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

import instrument as ins

SIM = ("sim-bsc", "sim-dmc")
EVERY = ("solve", "sim-bsc", "sim-dmc", "verify", "cli")

# metric -> (unit, workloads whose traced run must produce it)
METRICS = {
    "qmath.eig_calls": ("count", ("solve", "verify")),
    "qmath.eig_s": ("s", ("solve", "verify")),
    "qmath.eig_mats_per_call": ("count", ("verify",)),
    "qmath.entropy_calls": ("count", ("cli",)),
    "qmath.entropy_s": ("s", ("cli",)),
    "capacity.iters": ("count", ("solve",)),
    "capacity.iter_s": ("s", ("solve",)),
    "capacity.eig_per_iter": ("count", ("solve",)),
    "capacity.stalls": ("count", ("solve",)),
    "capacity.grid_s": ("s", ("verify",)),
    "capacity.grid_points_per_s": ("1/s", ("verify",)),
    "capacity.grid_eig_share": ("ratio", ("verify",)),
    "capacity.ad_s": ("s", ("cli",)),
    "reverse_shannon.trial_s": ("s", SIM),
    "reverse_shannon.set_size": ("count", SIM),
    "reverse_shannon.members_scanned": ("count", SIM),
    "reverse_shannon.scan_rate": ("1/s", SIM),
    "reverse_shannon.useful_ratio": ("ratio", SIM),
    "reverse_shannon.streams_per_trial": ("count", ("sim-dmc", "cli")),
    "reverse_shannon.stream_s": ("s", ("sim-dmc", "cli")),
    "reverse_shannon.sample_outputs_s": ("s", ("sim-dmc",)),
    "reverse_shannon.batch_overhead_s": ("s", SIM + ("cli",)),
    "reverse_shannon.fallback_frac": ("ratio", SIM),
    "reverse_shannon.oracle_s": ("s", ("verify",)),
    "reverse_shannon.oracle_terms": ("count", ("verify",)),
    "reverse_shannon.oracle_terms_per_s": ("1/s", ("verify",)),
    "typeclasses.sample_calls": ("count", ("sim-dmc",)),
    "typeclasses.sample_s": ("s", ("sim-dmc",)),
    "typeclasses.report_s": ("s", ("cli",)),
    "typeclasses.types_summed": ("count", ("cli",)),
    "gaussian.sweep_s": ("s", ("cli",)),
    "gaussian.points": ("count", ("cli",)),
    "cli.import_s": ("s", EVERY),
    **{f"cli.{v}_s": ("s", ("cli",)) for v in ins.CLI_VERBS},
    "trace.overhead_frac": ("ratio", EVERY),
}

# metrics whose count comes from sizes, not from observation
COMPUTED = ("reverse_shannon.set_size", "capacity.grid_points_per_s",
            "reverse_shannon.oracle_terms", "reverse_shannon.oracle_terms_per_s")


class Trace:
    def __init__(self, records):
        self.header = {}
        self.spans = []
        self.agg = []
        for rec in records:
            kind = rec.pop("kind")
            if kind == "header":
                self.header = rec
            elif kind == "span":
                rec["dur"] = rec["end"] - rec["start"]
                self.spans.append(rec)
            else:
                self.agg.append(rec)
        self.by_name = defaultdict(list)
        for s in self.spans:
            self.by_name[s["name"]].append(s)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls(json.loads(line) for line in fh if line.strip())

    def named(self, name):
        return self.by_name.get(name, [])

    def aggs(self, last, outermost=False, anchors=None):
        out = []
        for a in self.agg:
            path = a["path"]
            if path[-1] != last:
                continue
            if outermost and last in path[:-1]:
                continue
            if anchors is not None and a["anchor"] not in anchors:
                continue
            out.append(a)
        return out

    def layer_table(self):
        """Per-layer calls, total and self seconds."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["dur"]
        nested = defaultdict(float)
        for a in self.agg:
            if len(a["path"]) == 1:
                child_time[a["anchor"]] += a["seconds"]
            else:
                nested[(a["anchor"], tuple(a["path"][:-1]))] += a["seconds"]
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            row = rows[s["name"]]
            row[0] += 1
            row[1] += s["dur"]
            row[2] += s["dur"] - child_time[s["id"]]
        for a in self.agg:
            row = rows[a["path"][-1]]
            own = a["seconds"] - nested[(a["anchor"], tuple(a["path"]))]
            row[0] += a["calls"]
            row[2] += own
            if a["path"][-1] not in a["path"][:-1]:
                row[1] += a["seconds"]
        return dict(rows)


def _mean(values):
    return sum(values) / len(values) if values else None


def _ratio(num, den):
    return num / den if den else None


def compute(tr: Trace) -> dict:
    """Every per-layer metric; None where its source records are absent."""
    h = tr.header
    # an op is a protocol trial on sim-*, one public call elsewhere
    n_ops = sum(s["counts"]["units"] for s in tr.named("op"))
    m = {}

    eig = tr.aggs(ins.EIG)
    eig_calls = sum(a["calls"] for a in eig)
    m["qmath.eig_calls"] = _ratio(eig_calls, n_ops) if eig else None
    m["qmath.eig_s"] = _ratio(sum(a["seconds"] for a in eig), n_ops) if eig else None
    m["qmath.eig_mats_per_call"] = _ratio(sum(a["units"] for a in eig), eig_calls)
    ent = tr.aggs(ins.ENTROPY, outermost=True)
    m["qmath.entropy_calls"] = _ratio(sum(a["calls"] for a in ent), n_ops) if ent else None
    m["qmath.entropy_s"] = _ratio(sum(a["seconds"] for a in ent), n_ops) if ent else None

    solves = tr.named(ins.SOLVE)
    iters = [s["counts"]["iters"] for s in solves if "iters" in s.get("counts", {})]
    m["capacity.iters"] = _mean(iters)
    gaps = []
    for s in solves:
        times = s.get("counts", {}).get("cb_times", [])
        gaps += [b - a for a, b in zip(times, times[1:])]
    m["capacity.iter_s"] = statistics.median(gaps) if gaps else None
    solve_ids = {s["id"] for s in solves}
    solve_eig = sum(a["calls"] for a in tr.aggs(ins.EIG, anchors=solve_ids))
    m["capacity.eig_per_iter"] = _ratio(solve_eig, sum(iters)) if solves else None
    m["capacity.stalls"] = (sum(s.get("counts", {}).get("stall", 0) for s in solves)
                            if solves else None)

    grids = tr.named(ins.GRID)
    grid_s = sum(s["dur"] for s in grids)
    m["capacity.grid_s"] = _mean([s["dur"] for s in grids])
    m["capacity.grid_points_per_s"] = _ratio(
        sum(s["counts"]["points_computed"] for s in grids), grid_s)
    grid_ids = {s["id"] for s in grids}
    m["capacity.grid_eig_share"] = _ratio(
        sum(a["seconds"] for a in tr.aggs(ins.EIG, anchors=grid_ids)), grid_s)
    m["capacity.ad_s"] = _mean([s["dur"] for s in tr.named(ins.AD)])

    trials = tr.named(ins.TRIAL)
    n_trials = len(trials)
    trial_s = sum(s["dur"] for s in trials)
    trial_ids = {s["id"] for s in trials}
    m["reverse_shannon.trial_s"] = _mean([s["dur"] for s in trials])
    m["reverse_shannon.set_size"] = _mean(
        [s["counts"]["set_size_computed"] for s in trials])
    members = (sum(s.get("counts", {}).get("z_words", 0) for s in trials)
               + sum(a["units"] for a in tr.aggs(ins.STREAM, anchors=trial_ids)))
    m["reverse_shannon.members_scanned"] = _ratio(members, n_trials)
    m["reverse_shannon.scan_rate"] = _ratio(members, trial_s)
    m["reverse_shannon.useful_ratio"] = _ratio(
        sum(s.get("counts", {}).get("index_path", 0) for s in trials), members)
    streams = tr.aggs(ins.STREAM, outermost=True)
    m["reverse_shannon.streams_per_trial"] = (
        _ratio(sum(a["calls"] for a in streams), n_trials) if streams else None)
    m["reverse_shannon.stream_s"] = (
        _ratio(sum(a["seconds"] for a in streams), n_trials) if streams else None)
    outs = tr.aggs(ins.SAMPLE_OUT)
    m["reverse_shannon.sample_outputs_s"] = (
        _ratio(sum(a["seconds"] for a in outs), n_trials) if outs else None)
    costs = tr.named(ins.COST)
    m["reverse_shannon.batch_overhead_s"] = (
        _ratio(sum(s["dur"] for s in costs) - trial_s, n_trials) if costs else None)
    m["reverse_shannon.fallback_frac"] = _ratio(
        sum(s.get("counts", {}).get("fallbacks", 0.0) for s in costs),
        sum(s.get("counts", {}).get("trials", 0) for s in costs))

    oracles = tr.named(ins.ORACLE)
    m["reverse_shannon.oracle_s"] = _mean([s["dur"] for s in oracles])
    terms = [s["counts"]["terms_computed"] for s in oracles]
    m["reverse_shannon.oracle_terms"] = _mean(terms)
    m["reverse_shannon.oracle_terms_per_s"] = _ratio(
        sum(terms), sum(s["dur"] for s in oracles))

    samples = tr.aggs(ins.SAMPLE_TYPE)
    m["typeclasses.sample_calls"] = (
        _ratio(sum(a["calls"] for a in samples), n_ops) if samples else None)
    m["typeclasses.sample_s"] = (
        _ratio(sum(a["seconds"] for a in samples), n_ops) if samples else None)
    reports = tr.named(ins.REPORT)
    m["typeclasses.report_s"] = _mean([s["dur"] for s in reports])
    m["typeclasses.types_summed"] = _mean([s["counts"]["types"] for s in reports])

    sweeps = tr.named(ins.GSWEEP)
    m["gaussian.sweep_s"] = _mean([s["dur"] for s in sweeps])
    m["gaussian.points"] = _mean(
        [s["counts"]["points"] for s in sweeps if "points" in s.get("counts", {})])

    m["cli.import_s"] = h.get("cli_import_s")
    for verb in ins.CLI_VERBS:
        m[f"cli.{verb}_s"] = _mean([s["dur"] for s in tr.named(f"cli.{verb}")])
    m["trace.overhead_frac"] = h.get("overhead_frac")
    return m


def metrics_for(tr: Trace) -> tuple[dict, list]:
    """(metrics with units, missing names) for one traced run.

    A metric that does not apply to the workload and has no source
    records reads 0: the layer did no work there.
    """
    workload = tr.header.get("workload")
    raw = compute(tr)
    missing = []
    out = {}
    for name, (unit, applies) in METRICS.items():
        value = raw.get(name)
        if value is None:
            if workload in applies:
                missing.append(name)
            value = 0.0
        out[name] = {"value": float(value), "unit": unit}
    return out, missing


def format_table(tr: Trace) -> str:
    rows = sorted(tr.layer_table().items(), key=lambda kv: -kv[1][2])
    lines = [f"workload {tr.header.get('workload')} seed {tr.header.get('seed')}: "
             f"{len(tr.named('op'))} ops, trace.overhead_frac "
             f"{tr.header.get('overhead_frac', float('nan')):.4f}",
             f"  {'layer':36s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}"]
    for name, (calls, total, own) in rows:
        lines.append(f"  {name:36s} {calls:10d} {total:10.4f} {own:10.4f}")
    return "\n".join(lines)


def format_metrics(metrics: dict) -> str:
    return "\n".join(
        f"  {name:40s} {mv['value']:.6g} {mv['unit']}"
        + (" (computed)" if name in COMPUTED else "")
        for name, mv in metrics.items())


def main(paths) -> int:
    status = 0
    for path in paths:
        tr = Trace.load(path)
        print(format_table(tr))
        metrics, missing = metrics_for(tr)
        print(format_metrics(metrics))
        if missing:
            print(f"  MISSING for {tr.header.get('workload')}: {', '.join(missing)}")
            status = 1
    return status


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
