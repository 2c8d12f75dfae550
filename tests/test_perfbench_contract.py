"""The benchmark (perfbench/) reads the package by name.  Its tracer wraps
package functions and methods on the modules and classes where callers look
them up: a renamed or moved name makes ``Tracer.install`` raise KeyError, and
a callee that is no longer looked up there drops out of the per-layer
numbers.  Its workloads and run script read further names (such as
``BarConfig().zero_threshold`` and ``SparseColumnMatrix.column``); a rename
there fails every benchmark operation.  These tests catch all of that."""

import os
from pathlib import Path

import sparsecox as sc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_sees_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    ds = sc.simulate(sc.SimScenario(n=120, p=40, beta0=[0.8, 0, 0.6], seed=3))
    tracer = Tracer()
    tracer.install(sc)
    try:
        sc.sjs_coxbar(ds, 8)
    finally:
        tracer.uninstall()
    assert tracer.calls("fit_bar", within="sjs_coxbar") > 0
    assert tracer.calls("ccd_minimize", within="sjs_screen") > 0
    for name in ("fit_ridge", "probe", "commit", "derivs", "full_gradient", "refresh",
                 "state_build"):
        assert tracer.calls(name) > 0, name


def test_desk_study_replicate_passes_its_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(os, "environ", dict(os.environ))  # run.py pins BLAS threads
    from run import store_mb
    from workloads import DeskStudy

    wl = DeskStudy(seed=5)
    wl.prepare(sc, tmp_path)
    ds = wl.produce(sc, 0)
    assert wl.check(sc, 0, ds, wl.fit(sc, ds)) == []
    assert wl.summary_problems() == []
    assert store_mb(ds) > 0
