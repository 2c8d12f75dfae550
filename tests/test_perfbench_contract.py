"""The benchmark's tracer (perfbench/tracer.py) wraps package functions and
methods by name on the modules and classes where callers look them up.  A
renamed or moved name makes ``Tracer.install`` raise KeyError, and a callee
that is no longer looked up there drops out of the per-layer numbers; this
test catches both."""

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
