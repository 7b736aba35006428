"""A fixed reference kernel that tracks how fast this core runs right now.

On a shared VM the core's speed drifts by up to 2x over seconds, with
whatever the neighbours run. The same qcap call then takes 0.6x to 1.5x
its usual time, coherently across every call of a run, so wall-clock
throughput of identical runs spreads by 14-41% (IQR over median).

The kernel does two kinds of work the workloads are made of: small-matrix
LAPACK calls through numpy, and sha256 plus a Philox construction and a
short draw. Over five-seed sets of the workloads these two tracked the
workloads' slowdown best; a pure-Python loop and a scan of a 16 MiB word
array tracked it worse and were left out. The kernel never calls qcap,
so a change to qcap cannot change it. Timing it between the ops of a run
and scaling the run's throughput by its slowdown against `REF_S` gives
the throughput at the reference speed, which is what `ops_per_s`
reports on the workloads whose ops run in this process.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# one sample's seconds on the 2-vCPU Xeon VM the benchmark was built on,
# near the fastest that VM ran it; it only sets the scale of the figures
REF_S = 0.0055
GAP_S = 0.2         # ops time between two samples in a timed loop


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(20010611)
        a = rng.standard_normal((6, 6))
        self.herm = a + a.T
        self.keys = [hashlib.sha256(str(i).encode()).digest() for i in range(150)]
        self.sample()   # first-call costs (imports, caches) are not speed

    def run(self) -> int:
        acc = sum(int(np.linalg.eigvalsh(self.herm)[0] > 0) for _ in range(270))
        for key in self.keys:
            seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "little")
            acc += int(np.random.Generator(np.random.Philox(seed)).integers(0, 8, 16).sum())
        return acc

    def sample(self) -> float:
        t = time.perf_counter()
        self.run()
        return time.perf_counter() - t


class Meter:
    """Samples the kernel between ops; each sample stands for the ops
    time that ran since the one before it."""

    def __init__(self):
        self.kernel = Kernel()
        self.samples = []       # (kernel seconds, ops seconds it stands for)
        self.pending = 0.0
        self.spent = 0.0        # wall seconds spent in the kernel

    def after_op(self, seconds: float):
        self.pending += seconds
        if self.pending >= GAP_S:
            self.flush()

    def flush(self):
        if self.pending > 0.0:
            t = time.perf_counter()
            self.samples.append((self.kernel.sample(), self.pending))
            self.spent += time.perf_counter() - t
            self.pending = 0.0

    def slowdown(self) -> float:
        """Ops-time-weighted mean kernel time over REF_S: 1.3 means the
        core ran 1.3x slower than the reference during the ops."""
        total = sum(w for _, w in self.samples)
        return sum(s * w for s, w in self.samples) / total / REF_S
