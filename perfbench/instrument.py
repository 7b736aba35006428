"""Wrappers for the traced run, one per row of the per-layer metric table.

Every wrapper sits on a public qcap name, at the name its caller looks
up at call time, or on the numpy eigensolvers qcap reaches through
``np.linalg``. Counts that are derived from sizes (set size, lattice
points, oracle terms) are computed here from the call's arguments and
are labelled as computed in the report.
"""

from __future__ import annotations

import math

import numpy as np

# span and aggregate names; the trace reader keys on these
EIG = "qmath.eig"
ENTROPY = "qmath.entropy"
SOLVE = "capacity.solve"
GRID = "capacity.grid"
AD = "capacity.ad"
COST = "reverse_shannon.cost_statistics"
TRIAL = "reverse_shannon.trial"
STREAM = "reverse_shannon.stream"
SAMPLE_OUT = "reverse_shannon.sample_outputs"
ORACLE = "reverse_shannon.oracle"
SAMPLE_TYPE = "typeclasses.sample"
REPORT = "typeclasses.report"
GSWEEP = "gaussian.sweep"
CLI_VERBS = ("table1", "capacity", "sweep", "gaussian", "rst_simulate",
             "rst_verify", "typical")


def grid_points(resolution: float) -> int:
    """Lattice points bloch_grid_ce evaluates, by its own axis and ball rule."""
    axis = np.arange(-1.0, 1.0 + resolution / 2, resolution)
    sq = axis * axis
    total = 0
    ry2 = sq[:, None] + sq[None, :]
    for rx2 in sq:
        total += int(np.count_nonzero(rx2 + ry2 <= 1.0 + 1e-12))
    return total


def set_size(rate_bits: float, n: int, eps: float) -> int:
    """The protocol's sizing rule: ceil(2^(n (rate + eps/2)))."""
    return max(math.ceil(2.0 ** (n * (rate_bits + eps / 2.0))), 1)


def oracle_terms(qcap, channel, n: int, eps, zsize) -> int:
    """Weight terms the exact oracle sums: per input block, n_out^(|Z|+1)."""
    rs = qcap.reverse_shannon
    is_bsc = not isinstance(channel, rs.DMC)
    dmc = rs.bsc(float(channel)) if is_bsc else channel
    n_out = dmc.d_out ** n
    total = 0
    for xb in np.ndindex(*([dmc.d_in] * n)):
        if zsize is not None:
            size = zsize
        elif is_bsc:
            size = set_size(rs.bsc_capacity(float(channel)), n, eps)
        else:
            tc = qcap.typeclasses.type_of(xb, dmc.d_in)
            q = np.asarray(tc.counts, float) / n
            size = set_size(rs.constrained_mi(dmc, q), n, eps)
        total += n_out ** (size + 1)
    return total


class _CountingBitGen:
    """Forwards to a Philox bit generator and counts raw words drawn."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def random_raw(self, size=None, output=True):
        words = 1 if size is None else int(np.prod(size))
        frame = self._tracer.stack[-1] if self._tracer.stack else None
        if frame is not None:
            frame.counts["z_words"] = frame.counts.get("z_words", 0) + words
        return self._inner.random_raw(size, output)

    def advance(self, delta):
        self._inner.advance(delta)
        return self

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def install(tracer, qcap) -> None:
    """Install every wrapper; `tracer.uninstall()` removes them again."""
    import qcap.capacity as capacity
    import qcap.cli as cli
    import qcap.gaussian as gaussian
    import qcap.qmath as qmath
    import qcap.reverse_shannon as rs
    import qcap.typeclasses as typeclasses

    def mats(args, kwargs):
        a = args[0] if args else kwargs["a"]
        shape = np.shape(a)
        return int(np.prod(shape[:-2])) if len(shape) > 2 else 1

    tracer.wrap_hot(np.linalg, "eigh", EIG, mats)
    tracer.wrap_hot(np.linalg, "eigvalsh", EIG, mats)
    for mod in (qmath, capacity):
        tracer.wrap_hot(mod, "von_neumann_entropy", ENTROPY)
        tracer.wrap_hot(mod, "quantum_mutual_information", ENTROPY)

    def solve_counts(counts, args, kwargs, result, exc):
        best = result if exc is None else getattr(exc, "best", None)
        if best is not None:
            counts["iters"] = int(best.iterations)
        if exc is not None and type(exc).__name__ == "ConvergenceError":
            counts["stall"] = 1

    tracer.wrap_span(capacity, "ce_maximize", SOLVE, solve_counts)
    tracer.wrap_span(capacity, "ce_maximize_constrained", SOLVE, solve_counts)

    def grid_counts(counts, args, kwargs, result, exc):
        res = args[1] if len(args) > 1 else kwargs.get("resolution", 0.01)
        counts["points_computed"] = grid_points(float(res))

    tracer.wrap_span(capacity, "bloch_grid_ce", GRID, grid_counts)
    tracer.wrap_span(capacity, "ad_ce", AD)
    tracer.wrap_span(capacity, "ad_ch", AD)

    def cost_counts(counts, args, kwargs, result, exc):
        if result is not None:
            counts["trials"] = int(result["trials"])
            counts["fallbacks"] = float(result["fallback_rate"]) * result["trials"]

    tracer.wrap_span(rs, "cost_statistics", COST, cost_counts)

    def trial_counts(counts, args, kwargs, result, exc):
        channel, cfg, _, x = args[:4]
        if isinstance(channel, rs.DMC):
            tc = typeclasses.type_of(x, channel.d_in)
            rate = rs.constrained_mi(channel, np.asarray(tc.counts, float) / cfg.n)
        else:
            rate = rs.bsc_capacity(float(channel))
        counts["set_size_computed"] = set_size(rate, cfg.n, cfg.eps)
        if result is not None:
            counts["index_path"] = 0 if result[1].fallback else 1

    tracer.wrap_span(rs, "bsc_simulate", TRIAL, trial_counts)
    tracer.wrap_span(rs, "dmc_simulate", TRIAL, trial_counts)

    shared_cls = rs.SharedRandomness
    for meth in ("stream", "element_stream", "derive"):
        tracer.wrap_hot(
            shared_cls, meth, STREAM,
            (lambda a, k: 1 if a[1] == "X" else 0) if meth == "element_stream" else None)
    raw_bitgen = shared_cls.__dict__["bitgen"]

    def bitgen(self, tag, *idx):
        if not tracer.stack:
            return raw_bitgen(self, tag, *idx)
        outermost = not tracer.hot
        bg = tracer.hot_call(STREAM, raw_bitgen, (self, tag) + idx, {})
        return _CountingBitGen(bg, tracer) if tag == "Z" and outermost else bg

    tracer.patch(shared_cls, "bitgen", bitgen)
    tracer.wrap_hot(rs.DMC, "sample_outputs", SAMPLE_OUT)
    tracer.wrap_hot(rs, "sample_from_type", SAMPLE_TYPE)

    def oracle_counts(counts, args, kwargs, result, exc):
        channel, n = args[0], args[1]
        counts["terms_computed"] = oracle_terms(
            qcap, channel, n, kwargs.get("eps"), kwargs.get("zsize"))

    tracer.wrap_span(rs, "exact_faithfulness_oracle", ORACLE, oracle_counts)

    def report_counts(counts, args, kwargs, result, exc):
        counts["types"] = counts.pop("_types", 0)

    tracer.wrap_span(typeclasses, "typical_subspace_report", REPORT, report_counts)
    raw_types = typeclasses.TypicalEigenstateSet.__dict__["admissible_types"]

    def admissible_types(self):
        frame = tracer.stack[-1] if tracer.stack else None
        for counts in raw_types(self):
            if frame is not None:
                frame.counts["_types"] = frame.counts.get("_types", 0) + 1
            yield counts

    tracer.patch(typeclasses.TypicalEigenstateSet, "admissible_types",
                 admissible_types)

    def sweep_counts(counts, args, kwargs, result, exc):
        if result is not None:
            counts["points"] = len(result)

    tracer.wrap_span(gaussian, "sweep", GSWEEP, sweep_counts)
    for verb in CLI_VERBS:
        tracer.wrap_span(cli, "cmd_" + verb, "cli." + verb)
