"""The benchmark's trace wrappers find every qcap name they wrap, and come off cleanly.

perfbench/instrument.py wraps qcap functions and methods by name. A name
that moves or disappears in src/ would otherwise surface only as a
KeyError in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import qcap
from qcap import capacity, cli, gaussian, qmath, reverse_shannon, typeclasses

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    # by path, so the benchmark's flat module names stay out of sys.modules
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
