import math
from dataclasses import replace

import numpy as np
import pytest

from sparsecox import (BarConfig, LinearPredictorState, SurvivalDataset, fit_bar, sjs_coxbar,
                       sjs_screen)
from sparsecox import screening
from sparsecox.sim import SimScenario, simulate, replicate_seed


def small_signal_dataset(seed=0, n=150, p=12):
    scen = SimScenario(n=n, p=p, beta0=[0.8, 0, 0.9, 0, 1.0], design="ar1:0.5",
                       censoring=0.2, seed=seed)
    return simulate(scen), scen


def test_m_equals_p_keeps_everything():
    ds, _ = small_signal_dataset(n=80, p=5)
    res = sjs_screen(ds, 5)
    assert set(res.selected.tolist()) == set(range(5))


def test_m_out_of_range():
    ds, _ = small_signal_dataset(n=60, p=6)
    with pytest.raises(ValueError):
        sjs_screen(ds, 0)
    with pytest.raises(ValueError):
        sjs_screen(ds, 7)


def test_zero_design_tie_rule():
    ds = SurvivalDataset.from_dense([1.0, 2.0, 3.0], [1, 1, 0], np.zeros((3, 6)))
    res = sjs_screen(ds, 3)
    # deterministic tie handling keeps the smallest column indices
    np.testing.assert_array_equal(res.selected, [0, 1, 2])
    np.testing.assert_array_equal(res.beta, np.zeros(6))


def test_screen_result_invariants():
    ds, scen = small_signal_dataset(seed=5)
    for m in (2, 4, 8):
        res = sjs_screen(ds, m)
        assert res.selected.size <= m
        assert np.unique(res.selected).size == res.selected.size
        assert set(np.flatnonzero(res.beta)) <= set(res.selected.tolist())


def test_screen_finds_true_signals():
    found = 0
    for r in range(10):
        ds, scen = small_signal_dataset(seed=replicate_seed(7, r), n=200, p=30)
        res = sjs_screen(ds, 10)
        if set(scen.true_support.tolist()) <= set(res.selected.tolist()):
            found += 1
    assert found >= 9


def test_polish_never_hurts_likelihood():
    ds, _ = small_signal_dataset(seed=9)
    res = sjs_screen(ds, 4)
    # restricted MPLE on the selected set is at least as good as the
    # thresholded gradient iterate that produced it; compare against zero
    assert (LinearPredictorState(ds, res.beta).loglik()
            >= LinearPredictorState(ds, np.zeros(ds.p)).loglik())


def test_polish_losing_likelihood_raises(monkeypatch):
    ds, _ = small_signal_dataset(seed=9)
    solve = screening.ccd_minimize
    monkeypatch.setattr(screening, "ccd_minimize",
                        lambda *args: replace(solve(*args), loglik=-math.inf))
    with pytest.raises(RuntimeError, match="polish decreased the likelihood"):
        sjs_screen(ds, 4)



def test_unconverged_polish_is_reported(monkeypatch):
    ds, _ = small_signal_dataset(seed=9)
    settled = sjs_screen(ds, 4)
    assert settled.converged
    solve = screening.ccd_minimize
    monkeypatch.setattr(screening, "ccd_minimize",
                        lambda *args: replace(solve(*args), converged=False))
    screen = sjs_screen(ds, 4)
    np.testing.assert_array_equal(screen.selected, settled.selected)
    assert not screen.converged
    assert not sjs_coxbar(ds, 4, BarConfig(lambda_rule="bic")).converged

def test_two_stage_equals_full_bar_when_m_is_p():
    ds, _ = small_signal_dataset(seed=11, n=120, p=6)
    cfg = BarConfig(lambda_rule="bic")
    two = sjs_coxbar(ds, 6, cfg)
    full = fit_bar(ds, cfg)
    np.testing.assert_allclose(two.beta, full.beta, atol=1e-10)
    np.testing.assert_array_equal(two.support, full.support)


def test_two_stage_zero_structure():
    ds, scen = small_signal_dataset(seed=13, n=200, p=40)
    fit = sjs_coxbar(ds, 8, BarConfig(lambda_rule="bic"))
    off = np.setdiff1d(np.arange(40), fit.screen.selected)
    assert np.all(fit.beta[off] == 0.0)
    assert set(fit.support.tolist()) <= set(fit.screen.selected.tolist())


def test_removed_signal_columns_never_selected():
    ds, scen = small_signal_dataset(seed=17, n=150, p=20)
    keep = np.arange(5, 20)  # drop all true-signal columns
    sub = ds.select_columns(keep)
    fit = sjs_coxbar(sub, 6, BarConfig(lambda_rule="bic"))
    assert fit.beta.shape == (15,)
    # support refers to the reduced column space only
    assert set(fit.support.tolist()) <= set(range(15))


def test_coverage_monotone_in_m():
    # enlarging m never decreases true-support coverage (desk scale)
    reps = 12
    ms = (4, 8, 16)
    coverage = {m: 0 for m in ms}
    for r in range(reps):
        ds, scen = small_signal_dataset(seed=replicate_seed(23, r), n=200, p=60)
        truth = set(scen.true_support.tolist())
        for m in ms:
            sel = set(sjs_screen(ds, m).selected.tolist())
            coverage[m] += int(truth <= sel)
    assert coverage[4] <= coverage[8] <= coverage[16]
