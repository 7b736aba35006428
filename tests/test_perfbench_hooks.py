"""The benchmark's workloads and trace wrappers still fit the qcap in src/.

perfbench/instrument.py wraps qcap functions and methods by name, and
perfbench/workloads.py calls the public API with fixed arguments. A name
that moves or disappears in src/, or a signature that changes, would
otherwise surface only as a KeyError in a traced benchmark run or as
failed ops in a plain one.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np

import qcap
from qcap import capacity, cli, gaussian, qmath, reverse_shannon, typeclasses

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    # by path, so the benchmark's flat module names stay out of sys.modules;
    # the private name is there only while the body runs, as dataclasses
    # look their module up by name
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_install_wraps_qcap_names_and_uninstall_restores_them():
    owners = (np.linalg, qmath, capacity, cli, gaussian, reverse_shannon, typeclasses,
              reverse_shannon.SharedRandomness, reverse_shannon.DMC,
              typeclasses.TypicalEigenstateSet)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load("tracer").Tracer()
    _load("instrument").install(tracer, qcap)
    try:
        wrapped = {(id(owner), attr) for owner, attr, _ in tracer._undo}
        assert len(wrapped) == len(tracer._undo) >= 20
        for owner, names in zip(owners, before):
            changed = {attr for attr, value in vars(owner).items() if names.get(attr) is not value}
            assert changed == {attr for oid, attr in wrapped if oid == id(owner)}, owner
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert after.keys() == names.keys(), owner
        moved = [attr for attr, value in names.items() if after[attr] is not value]
        assert moved == [], (owner, moved)


def _assert_pass_ok(wl, state, records, name):
    # a failure the workload expects (cli's overflowing typical check) is its output
    expected = getattr(wl, "expected_error", lambda rec: False)
    assert [(r.call.label, r.error) for r in records
            if wl.failed(r) and not expected(r)] == [], name
    assert wl.check(qcap, state, records) == [], name


def test_every_workload_runs_one_clean_pass(monkeypatch):
    # workloads.py imports laws by its flat name; the name is gone after the test
    monkeypatch.setitem(sys.modules, "laws", _load("laws"))
    workloads = _load("workloads")
    ctx = workloads.Ctx(inprocess=True)  # cli calls main(argv) in this process
    for name, wl in workloads.WORKLOADS.items():
        state = wl.build(qcap, 1)
        records = []
        for call in itertools.islice(wl.calls(state), wl.pass_len):
            try:
                result, error = call.fn(ctx), None
            except Exception as exc:  # as the runner does: a raising op is a failed op
                result, error = None, exc
            records.append(workloads.Record(call, result, error, 0.0))
        _assert_pass_ok(wl, state, records, name)


def test_every_workload_runs_one_traced_pass(monkeypatch, tmp_path):
    # as `run.py --trace 1` does: the wrappers must see every layer a
    # workload's metrics come from, however src/ reaches the wrapped names;
    # run and trace_report import these by their flat names, gone after the test
    for flat in ("laws", "instrument", "workloads"):
        monkeypatch.setitem(sys.modules, flat, _load(flat))
    workloads, instrument = sys.modules["workloads"], sys.modules["instrument"]
    tracer_mod, run, trace_report = _load("tracer"), _load("run"), _load("trace_report")
    for name, wl in workloads.WORKLOADS.items():
        state = wl.build(qcap, 1)
        tracer = tracer_mod.Tracer()
        instrument.install(tracer, qcap)
        try:  # 0 s: exactly one pass
            records, _ = run.timed_loop(wl, state, 0.0,
                                        workloads.Ctx(tracer=tracer, inprocess=True), tracer)
        finally:
            tracer.uninstall()
        _assert_pass_ok(wl, state, records, name)
        path = tmp_path / f"{name}.jsonl"
        tracer.write_jsonl(path, {"workload": name, "seed": 1, "overhead_frac": 0.0,
                                  "cli_import_s": 0.0})
        assert trace_report.metrics_for(trace_report.Trace.load(path))[1] == [], name
