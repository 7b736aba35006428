"""The five workloads: inputs from a seed, the public calls, output checks.

Each workload is a closed loop with one caller. `calls` yields `Call`
objects forever, in passes of `pass_len`; the runner times `Call.fn` over
whole passes. `check` returns the list of wrong outputs; an op that
raised counts as failed, and as wrong too unless the workload expects
that exception.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

import laws

SOLVE_TOL = 1e-7
GRID_RES = 0.02
ORACLE_TOL = 1e-12
SE_BOUND = 4.0
CHILD_TIMEOUT_S = 120


def derived_seed(seed: int, *labels) -> int:
    text = "|".join(str(v) for v in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 1


@dataclass
class Call:
    label: str
    fn: object            # fn(ctx) -> result
    units: int = 1        # ops this call completes (protocol trials per batch)
    data: dict = field(default_factory=dict)


@dataclass
class Ctx:
    """How to run a call: traced in-process, or plain."""

    tracer: object = None
    inprocess: bool = False   # cli only: main(argv) instead of a subprocess


@dataclass
class Record:
    call: Call
    result: object
    error: BaseException | None
    seconds: float


class Workload:
    name = ""
    pass_len = 1              # calls per pass
    nominal_pass_s = 1.0      # seconds per pass on a 2-core Xeon (Sapphire Rapids) VM
    calibrated = True         # ops_per_s is scaled to the reference core speed

    def build(self, qcap, seed: int):
        raise NotImplementedError

    def calls(self, state):
        raise NotImplementedError

    def check(self, qcap, state, records) -> list:
        raise NotImplementedError

    def failed(self, rec: Record) -> bool:
        return rec.error is not None


# ---------------------------------------------------------------------------

class Solve(Workload):
    """Random channels are one fixed base draw, rotated per seed.

    Input, output and environment unitaries leave the solver's path (and
    so its iteration count and cost) unchanged in exact arithmetic, while
    changing every matrix the solver sees. Per-seed cost then stays
    constant, so the spread between seeds measures the program rather
    than the luck of the draw. Stalls at the float precision floor still
    occur on the d_in=5 channels at their natural rate.
    """

    name = "solve"
    PAIRS = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (5, 2), (5, 5)]
    CONSTRAINED = [(3, 3), (4, 2)]
    BOUND = 0.3
    BASE_SEED = 0
    pass_len = 2 * len(PAIRS) + 6 + len(CONSTRAINED)
    nominal_pass_s = 8.0

    def build(self, qcap, seed):
        from qcap.rand import random_channel

        ch = qcap.channels
        fixed = [
            ("noiseless", ch.noiseless(2), 2.0, 5e-4),
            ("erasure", ch.erasure(2, 0.5), 1.0, 5e-4),
            ("depolarizing", ch.depolarizing(2, 2.0 / 3.0), 0.2075, 5e-4),
            ("dephasing", ch.dephasing(2), 1.0, 5e-4),
            ("amplitude_damping", ch.amplitude_damping(0.5), None, 1e-6),
            ("switched_3to2", ch.switched_3to2(), 2.0, 1e-3),
        ]
        rng = np.random.default_rng(self.BASE_SEED)
        base = [(f"random_{d}x{e}", random_channel(d, d, e, rng))
                for d, e in self.PAIRS for _ in range(2)]
        base_cons = [(f"constrained_{d}x{e}", random_channel(d, d, e, rng),
                      qcap.capacity.EnergyConstraint(np.diag(np.arange(d, dtype=float)),
                                                     self.BOUND))
                     for d, e in self.CONSTRAINED]
        state = {"qcap": qcap, "seed": seed, "fixed": fixed, "base": base,
                 "base_cons": base_cons, "passes": {}}
        self._pass(state, 0)
        return state

    def _pass(self, state, p):
        """Pass p's calls: the base panel under rotations drawn from (seed, p)."""
        if p not in state["passes"]:
            qcap = state["qcap"]
            rng = np.random.default_rng([state["seed"], p])
            rand = [(lbl, _rotate(qcap, chan, rng, True), None, None, None)
                    for lbl, chan in state["base"]]
            # the constraint fixes the input basis, so rotate outputs only
            cons = [(lbl, _rotate(qcap, chan, rng, False), c, None, None)
                    for lbl, chan, c in state["base_cons"]]
            fixed = [(lbl, chan, None, ref, tol) for lbl, chan, ref, tol in state["fixed"]]
            # spread the instant closed cases evenly through the pass
            order = list(rand + cons)
            for i, item in enumerate(fixed):
                order.insert(i * len(order) // len(fixed) + i, item)
            state["passes"] = {p: order}
        return state["passes"][p]

    def calls(self, state):
        cap = state["qcap"].capacity
        p = 0
        while True:
            for lbl, chan, cons, ref, tol in self._pass(state, p):
                def fn(ctx, chan=chan, cons=cons):
                    cb = _solver_callback(ctx.tracer)
                    if cons is None:
                        return cap.ce_maximize(chan, tol=SOLVE_TOL, callback=cb)
                    return cap.ce_maximize_constrained(chan, cons, tol=SOLVE_TOL,
                                                       callback=cb)
                yield Call(lbl, fn, data={"channel": chan, "constraint": cons,
                                          "ref": ref, "ref_tol": tol})
            p += 1

    def expected_error(self, rec):
        return type(rec.error).__name__ == "ConvergenceError"

    def check(self, qcap, state, records):
        wrong = []
        ad_ref = None
        for rec in records:
            if rec.error is not None:
                if not self.expected_error(rec):
                    wrong.append(f"{rec.call.label}: raised {rec.error!r}")
                continue
            res, d = rec.result, rec.call.data
            if not res.gap_bound <= SOLVE_TOL:
                wrong.append(f"{rec.call.label}: gap {res.gap_bound} > tol")
            again = qcap.quantum_mutual_information(d["channel"], res.rho)
            if abs(again - res.value) > 1e-9:
                wrong.append(f"{rec.call.label}: value {res.value} but objective {again}")
            ref, tol = d["ref"], d["ref_tol"]
            if rec.call.label == "amplitude_damping":
                if ad_ref is None:
                    ad_ref = qcap.ad_ce(0.5)[0]
                ref = ad_ref
            if ref is not None and abs(res.value - ref) > tol:
                wrong.append(f"{rec.call.label}: {res.value} vs reference {ref}")
            if d["constraint"] is not None:
                load = float(np.trace(d["constraint"].observable @ res.rho).real)
                if load > self.BOUND + 1e-9:
                    wrong.append(f"{rec.call.label}: constraint load {load} > {self.BOUND}")
        return wrong


def _rotate(qcap, channel, rng, rotate_input: bool):
    """The same channel in other bases: K_k -> V (sum_j W_kj K_j) U^dag."""
    from qcap.rand import random_unitary

    ks = np.stack(channel.kraus)
    w = random_unitary(len(ks), rng)
    v = random_unitary(channel.d_out, rng)
    u = random_unitary(channel.d_in, rng) if rotate_input else np.eye(channel.d_in)
    ks = np.einsum("kj,jab->kab", w, ks)
    return qcap.QuantumChannel([v @ k @ u.conj().T for k in ks])


def _solver_callback(tracer):
    if tracer is None:
        return None
    import time

    def cb(it, value, gap):
        if tracer.stack:
            tracer.stack[-1].counts.setdefault("cb_times", []).append(time.perf_counter())
        return False

    return cb


# ---------------------------------------------------------------------------

class _Sim(Workload):
    """Protocol trials through `cost_statistics`, one batch per call."""

    batch = 1

    def sources(self, state):
        """Yield (label, source, law key) for every call, forever."""
        raise NotImplementedError

    def p_fallback(self, key) -> float:
        """Exact fallback probability of one trial of a call with this key."""
        raise NotImplementedError

    def calls(self, state):
        rs = state["qcap"].reverse_shannon
        for b, (label, source, key) in enumerate(self.sources(state)):
            bseed = derived_seed(state["seed"], self.name, b)

            def fn(ctx, source=source, bseed=bseed):
                with warnings.catch_warnings():
                    # one-trial batches have no standard error; numpy says so
                    warnings.simplefilter("ignore", RuntimeWarning)
                    return rs.cost_statistics(state["channel"], state["cfg"],
                                              self.batch, source, bseed)
            yield Call(f"{label}_{b}", fn, units=self.batch, data={"law_key": key})

    def check(self, qcap, state, records):
        wrong = []
        laws_by_key = {}
        trials = fallbacks = 0
        expected = var = 0.0
        for rec in records:
            if rec.error is not None:
                wrong.append(f"{rec.call.label}: raised {rec.error!r}")
                continue
            r = rec.result
            if r["trials"] != self.batch:
                wrong.append(f"{rec.call.label}: {r['trials']} trials")
            key = rec.call.data["law_key"]
            if key not in laws_by_key:
                laws_by_key[key] = self.p_fallback(key)
            p = laws_by_key[key]
            trials += r["trials"]
            fallbacks += round(r["fallback_rate"] * r["trials"])
            expected += p * r["trials"]
            var += p * (1.0 - p) * r["trials"]
            wrong += self.check_batch(state, rec)
        if trials:
            se = math.sqrt(var)
            state["law_check"] = {"trials": trials, "fallbacks": fallbacks,
                                  "law_expected": expected, "se": se,
                                  "fallback_rate": fallbacks / trials,
                                  "law_rate": expected / trials}
            if abs(fallbacks - expected) > SE_BOUND * se:
                wrong.append(f"{fallbacks} fallbacks in {trials} trials is "
                             f"{abs(fallbacks - expected) / se:.1f} SE from the exact "
                             f"law's {expected:.2f}")
        return wrong

    def check_batch(self, state, rec):
        return []


class SimBsc(_Sim):
    name = "sim-bsc"
    batch = 8
    nominal_pass_s = 0.34
    P, N, EPS = 0.1, 32, 0.25

    def build(self, qcap, seed):
        cfg = qcap.ProtocolConfig(self.N, self.EPS)
        size = laws.set_size(1.0 - laws.h2(self.P), self.N, self.EPS)
        return {"qcap": qcap, "seed": seed, "channel": self.P, "cfg": cfg,
                "width": (size - 1).bit_length()}

    def sources(self, state):
        while True:
            yield "batch", ("fixed", [0] * self.N), None

    def p_fallback(self, key):
        return laws.bsc_fallback(self.P, self.N, self.EPS)

    def check_batch(self, state, rec):
        # every trial sends 1 + index width bits, or 1 + n on fallback
        r = rec.result
        fb = round(r["fallback_rate"] * r["trials"])
        want = fb * (1 + self.N) + (r["trials"] - fb) * (1 + state["width"])
        got = r["mean_bits_per_symbol"] * self.N * r["trials"]
        if abs(got - want) > 1e-6:
            return [f"{rec.call.label}: {got} bits sent, sizing rule gives {want}"]
        return []


class SimDmc(_Sim):
    """Inputs follow the iid (0.6, 0.4) source's type law, stratified.

    A trial's cost is proportional to its set size, which is fixed by the
    input's type (CV 0.36 across iid draws). Each pass of PASS trials
    therefore takes the types in proportion to Binomial(16, 0.6), rounded
    by largest remainder, and draws each input uniformly from its type
    class with `itc-uniform`. Every run then does the same work, while
    the type and set size still change from trial to trial.
    """

    name = "sim-dmc"
    MATRIX = [[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]]
    N, EPS = 16, 0.5
    P0 = 0.6                  # source probability of letter 0
    PASS = 16
    pass_len = PASS
    nominal_pass_s = 2.6

    def build(self, qcap, seed):
        dmc = qcap.DMC(self.MATRIX)
        cfg = qcap.ProtocolConfig(self.N, self.EPS, "general")
        return {"qcap": qcap, "seed": seed, "channel": dmc, "cfg": cfg,
                "schedule": self.schedule()}

    def schedule(self) -> list:
        """Zero counts for one pass, in proportion to Binomial(N, P0)."""
        from scipy.stats import binom

        share = [binom.pmf(a, self.N, self.P0) * self.PASS for a in range(self.N + 1)]
        count = [math.floor(v) for v in share]
        by_rest = sorted(range(self.N + 1), key=lambda a: count[a] - share[a])
        for a in by_rest[: self.PASS - sum(count)]:
            count[a] += 1
        return [a for a in range(self.N + 1) for _ in range(count[a])]

    def sources(self, state):
        while True:
            for a in state["schedule"]:
                yield f"zeros{a}", ("itc-uniform", (a, self.N - a)), a

    def p_fallback(self, a):
        return laws.dmc_fallback_given_type(self.MATRIX, a, self.N, self.EPS)


# ---------------------------------------------------------------------------

class Verify(Workload):
    name = "verify"
    ENVS = (2, 3, 4)
    pass_len = 5
    nominal_pass_s = 5.4
    DMC_MATRIX = [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]

    def build(self, qcap, seed):
        from qcap.rand import random_channel

        rng = np.random.default_rng([seed])
        chans = {env: random_channel(2, 2, env, rng) for env in self.ENVS}
        return {"qcap": qcap, "seed": seed, "channels": chans,
                "dmc": qcap.DMC(self.DMC_MATRIX)}

    def calls(self, state):
        cap = state["qcap"].capacity
        rs = state["qcap"].reverse_shannon
        chans = state["channels"]

        def grid(env):
            return Call(f"grid_env{env}",
                        lambda ctx: cap.bloch_grid_ce(chans[env], GRID_RES),
                        data={"env": env})
        oracles = [
            Call("oracle_bsc", lambda ctx: rs.exact_faithfulness_oracle(0.3, 2, eps=1.0)),
            Call("oracle_dmc", lambda ctx: rs.exact_faithfulness_oracle(
                state["dmc"], 2, zsize=4)),
        ]
        while True:
            yield grid(2)
            yield oracles[0]
            yield grid(3)
            yield oracles[1]
            yield grid(4)

    def check(self, qcap, state, records):
        wrong = []
        ref = {}
        for rec in records:
            if rec.error is not None:
                wrong.append(f"{rec.call.label}: raised {rec.error!r}")
                continue
            if rec.call.label.startswith("oracle"):
                if not rec.result <= ORACLE_TOL:
                    wrong.append(f"{rec.call.label}: deviation {rec.result}")
                continue
            env = rec.call.data["env"]
            if env not in ref:
                res = qcap.ce_maximize(state["channels"][env], tol=SOLVE_TOL)
                ref[env] = res.value + res.gap_bound
            upper = ref[env]
            value = rec.result[0]
            slack = laws.grid_spacing_bound(GRID_RES, upper)
            state.setdefault("grid_spacing_bound", {})[env] = slack
            if value > upper + 1e-9:
                wrong.append(f"{rec.call.label}: grid {value} above solver bound {upper}")
            if upper - value > slack:
                wrong.append(f"{rec.call.label}: grid {value} trails {upper} "
                             f"by more than {slack:.4g}")
            state.setdefault("grid_trail", {})[env] = upper - value
        return wrong


# ---------------------------------------------------------------------------

class Cli(Workload):
    name = "cli"
    TYPICAL_BIG = ["typical", "check", "--probs", "0.7,0.3", "--n", "2000",
                   "--delta", "1/10"]
    pass_len = 11             # one invocation of each verb
    nominal_pass_s = 17.0
    # The ops run in children while this process waits. A kernel timed in
    # the waiting parent read 1.6-3.2x slow and did not track them: over
    # ten runs it spread ops_per_s by 0.33 (IQR over median) against 0.10
    # in wall time. So cli reports wall-clock throughput.
    calibrated = False

    def build(self, qcap, seed):
        rng = np.random.default_rng([seed])

        def grid(lo, hi):
            vals = np.sort(rng.uniform(lo, hi, 3))
            return ",".join(f"{v:.3g}" for v in vals)
        s_vals = grid(0.05, 10.0)
        argvs = [
            ["table1"],
            ["capacity", "ce", "--preset", "amplitude-damping:0.5"],
            ["capacity", "ce", "--preset", "depolarizing:0.3:3"],
            ["sweep"],
            ["gaussian", "--S", s_vals, "--N", grid(0.5, 50.0), "--k", grid(0.5, 2.0)],
            ["gaussian", "--S", s_vals, "--limit"],
            ["rst", "simulate", "--bsc", "0.1", "--n", "8", "--eps", "0.25",
             "--trials", "10000", "--seed", str(seed)],
            ["rst", "verify-exact", "--bsc", "0.3", "--n", "2", "--eps", "1.0"],
            ["typical", "check", "--probs", "0.7,0.3", "--n", "20", "--delta", "1/10"],
            ["typical", "check", "--probs", "0.5,0.3,0.2", "--n", "400", "--delta", "1/10"],
            self.TYPICAL_BIG,
        ]
        assert len(argvs) == self.pass_len
        return {"qcap": qcap, "seed": seed, "argvs": argvs}

    def calls(self, state):
        while True:
            for argv in state["argvs"]:
                yield Call(" ".join(argv), lambda ctx, a=argv: run_cli(a, ctx),
                           data={"argv": argv})

    def failed(self, rec):
        return rec.error is not None or rec.result["code"] != 0

    def expected_error(self, rec):
        return (rec.call.data["argv"] == self.TYPICAL_BIG and rec.error is None
                and rec.result["code"] == 1 and "OverflowError" in rec.result["err"])

    def check(self, qcap, state, records):
        wrong = []
        first = {}
        for rec in records:
            argv = rec.call.data["argv"]
            key = tuple(argv)
            if rec.error is not None:
                wrong.append(f"{key}: raised {rec.error!r}")
                continue
            res = rec.result
            if res["code"] != 0:
                if not self.expected_error(rec):
                    wrong.append(f"{key}: exit {res['code']}: {res['err'][-300:]}")
                continue
            if key in first and first[key] != res["out"]:
                wrong.append(f"{key}: stdout differs between invocations")
            first.setdefault(key, res["out"])
            wrong += [f"{key}: {w}" for w in self._check_output(state, argv, res["out"])]
        # a second invocation of every verb, in-process, must print the same bytes
        for key, out in first.items():
            again = run_cli(list(key), Ctx(inprocess=True))
            if again["out"] != out:
                wrong.append(f"{key}: in-process stdout differs from the child's")
        return wrong

    def _check_output(self, state, argv, out):
        verb = argv[0]
        if verb in ("sweep", "gaussian"):
            lines = out.strip().splitlines()
            width = len(lines[0].split(","))
            for line in lines[1:]:
                cells = line.split(",")
                if len(cells) != width:
                    return [f"ragged CSV row {line!r}"]
                try:
                    [float(c) for c in cells]
                except ValueError:
                    return [f"non-numeric CSV row {line!r}"]
            return [] if len(lines) > 1 else ["CSV has no rows"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        if verb == "table1":
            return [f"table1 row {r['channel']} delta {r['delta']}"
                    for r in doc["rows"] if abs(r["delta"]) > 5e-4]
        if argv[:4] == ["capacity", "ce", "--preset", "amplitude-damping:0.5"]:
            return [] if abs(doc["value"] - 1.0) <= 1e-5 else [f"value {doc['value']}"]
        if verb == "rst" and argv[1] == "verify-exact":
            return [] if doc["exact"] else [f"deviation {doc['max_deviation']}"]
        if verb == "rst":
            law, rate, n = laws.bsc_fallback(0.1, 8, 0.25), doc["fallback_rate"], doc["trials"]
            se = math.sqrt(law * (1 - law) / n)
            return ([] if abs(rate - law) <= SE_BOUND * se
                    else [f"fallback {rate} is {abs(rate - law) / se:.1f} SE from {law:.5f}"])
        if verb == "typical":
            return [] if len(doc["bounds_ok"]) == 3 else ["bounds_ok malformed"]
        return []


def child_env() -> dict:
    env = dict(os.environ, QCAP_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_cli(argv, ctx: Ctx) -> dict:
    """One qcap invocation: a child process, or main(argv) in this process."""
    if not ctx.inprocess:
        proc = subprocess.run([sys.executable, "-m", "qcap.cli", *argv],
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return {"code": proc.returncode, "out": proc.stdout, "err": proc.stderr}
    from qcap import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            # what an uncaught exception does to the child: traceback, exit 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


WORKLOADS = {w.name: w for w in (Solve(), SimBsc(), SimDmc(), Verify(), Cli())}
