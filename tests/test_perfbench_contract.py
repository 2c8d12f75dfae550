"""The benchmark (perfbench/) reads the package by name.  Its tracer wraps
package functions and methods on the modules and classes where callers look
them up: a renamed or moved name makes ``Tracer.install`` raise KeyError, and
a callee that is no longer looked up there drops out of the per-layer
numbers.  Its workloads and run script read further names (such as
``BarConfig().zero_threshold`` and ``SparseColumnMatrix.column``); a rename
there fails every benchmark operation.  Its ``setup_s`` times a fresh
``import sparsecox``, which must not pull in scipy or the process pool.
These tests catch all of that."""

import os
import subprocess
import sys
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
    # the ridge start steps whole vectors, so the probe and commit counts stay CCD's own
    for name in ("probe", "commit"):
        assert tracer.calls(name, within="fit_ridge") == 0, name


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


def test_screen_highdim_replicate_passes_its_checks(monkeypatch, tmp_path):
    # the checks read fit.screen, and screen.selected and screen.beta of the polish's last refit
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(os, "environ", dict(os.environ))  # run.py pins BLAS threads
    from workloads import ScreenHighdim

    wl = ScreenHighdim(seed=5)
    wl.prepare(sc, tmp_path)
    ds = wl.produce(sc, 0)
    fit = wl.fit(sc, ds)
    assert fit.screen is not None and 0 < fit.screen.selected.size <= wl.m
    assert wl.check(sc, 0, ds, fit) == []
    assert wl.summary_problems() == []


def test_store_mb_measures_the_one_store(monkeypatch):
    # data.store_mb adds up the columns; they must be the design's one store, not copies
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(os, "environ", dict(os.environ))  # run.py pins BLAS threads
    from run import store_mb

    ds = sc.simulate(sc.SimScenario(n=120, p=40, beta0=[0.8, 0, 0.6], seed=3))
    for derived in (ds.select_columns([5, 2, 5, 39]), sc.standardize(ds, "center-and-scale")):
        design = derived.design
        assert store_mb(derived) == (design.pos.nbytes + design.val.nbytes) / 1e6 > 0


def test_import_loads_neither_scipy_nor_the_process_pool():
    code = ("import sys, sparsecox; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy' or m.startswith('concurrent.futures')))")
    src = str(Path(sc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
