import dataclasses
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecox import (
    BarConfig,
    LinearPredictorState,
    SurvivalDataset,
    fit_bar,
    fit_ridge,
    grouping_bound_check,
    information_criteria,
    path_over,
    standardize,
)
from sparsecox import bar
from sparsecox.sim import SimScenario, simulate, replicate_seed

from conftest import dense_loglik, dense_full_newton_mple, make_dataset

BETA0_DESK = [0.20, 0, 0.35, 0, 0.50, 0.55, 0, 0, 0.70, 0.80]


def desk_scenario(n=300, p=10, seed=0):
    return SimScenario(n=n, p=p, beta0=BETA0_DESK[: min(p, 10)], design="ar1:0.5",
                       censoring=0.2, seed=seed)


# -- information criteria -------------------------------------------------


def test_information_criteria_values():
    aic, bic, cbic = information_criteria(-500.0, 5, 1000, 800)
    assert aic == pytest.approx(1010.0)
    assert bic == pytest.approx(1000 + 5 * math.log(1000), abs=1e-9)
    assert bic == pytest.approx(1034.54, abs=0.01)
    assert cbic == pytest.approx(1033.42, abs=0.01)

    aic0, bic0, cbic0 = information_criteria(-500.0, 0, 1000, 800)
    assert aic0 == bic0 == cbic0 == 1000.0


# -- ridge ----------------------------------------------------------------


def test_ridge_zero_design():
    ds = SurvivalDataset.from_dense([1.0, 2.0], [1, 1], np.zeros((2, 3)))
    fit = fit_ridge(ds, 1.0)
    np.testing.assert_array_equal(fit.beta, np.zeros(3))


def test_ridge_shrinks_with_xi(rng):
    ds, _ = make_dataset(rng, 60, 3, beta_scale=0.8)
    b1 = fit_ridge(ds, 1.0)
    b1000 = fit_ridge(ds, 1000.0)
    assert np.linalg.norm(b1000.beta) < np.linalg.norm(b1.beta)


def test_bar_selects_the_same_support_from_either_ridge_start(monkeypatch):
    # the Newton ridge start against the coordinate-descent solve of the
    # same strictly convex problem, on criterion 1's design
    newton = []
    for r in range(10):
        ds = simulate(replace(desk_scenario(n=1000, p=100), seed=replicate_seed(20260810, r)))
        newton.append(fit_bar(ds, BarConfig(lambda_rule="bic")))
    from sparsecox.solver import ccd_minimize

    monkeypatch.setattr(bar, "fit_ridge", lambda ds, xi: ccd_minimize(
        ds, np.full(ds.p, xi), np.zeros(ds.p)))
    for r, fit in enumerate(newton):
        ds = simulate(replace(desk_scenario(n=1000, p=100), seed=replicate_seed(20260810, r)))
        ccd = fit_bar(ds, BarConfig(lambda_rule="bic"))
        np.testing.assert_array_equal(fit.support, ccd.support)
        assert fit.loglik == pytest.approx(ccd.loglik, rel=1e-8)


_THREAD_FIT = """
import sys
import numpy as np
import sparsecox as sc
rng = np.random.default_rng(1)  # the one-thread and two-thread dot products differ here
X = rng.standard_normal((12000, 5))
eta = (X * np.array([0.5, -0.4, 0.0, 0.3, 0.0])).sum(axis=1)
ds = sc.SurvivalDataset.from_dense(rng.exponential(size=12000) / np.exp(eta), np.ones(12000), X)
fit = sc.fit_bar(ds, sc.BarConfig(lambda_rule="bic"))
sys.stdout.write(fit.beta.tobytes().hex() + " " + repr(fit.loglik) + f" {fit.sweeps} {fit.outer_iterations}")
"""


def test_fit_does_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product over its threads above 10,000 elements,
    # and 12,000 events put every event-tail reduction past that
    src = str(Path(bar.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREAD_FIT], env=env, capture_output=True,
                              text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# -- BAR outer loop --------------------------------------------------------


def test_bar_config_tunes_only_lambda_and_xi():
    names = [f.name for f in dataclasses.fields(BarConfig)]
    assert names == ["xi", "lambda_rule", "lambda_value"]
    assert BarConfig().zero_threshold == 1e-8


@pytest.mark.parametrize("kwargs", [
    {"xi": math.nan}, {"xi": math.inf}, {"xi": 0.0},
    {"lambda_rule": "fixed", "lambda_value": math.nan},
    {"lambda_rule": "fixed", "lambda_value": math.inf},
    {"lambda_rule": "fixed", "lambda_value": -1.0},
])
def test_bar_config_refuses_bad_tuning(kwargs):
    # nan > 0 is False, so an unchecked nan lambda would skip the reweighting
    # and return the unpenalized fit as a converged BAR fit
    with pytest.raises(ValueError, match="xi must be|lambda_value"):
        BarConfig(**kwargs)


def test_bar_zero_design_converges_immediately():
    ds = SurvivalDataset.from_dense([1.0, 2.0], [1, 1], np.zeros((2, 3)))
    fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
    np.testing.assert_array_equal(fit.beta, np.zeros(3))
    assert fit.support.size == 0
    assert fit.outer_iterations == 1
    assert fit.converged


def test_bar_requires_events(rng):
    _, (t, _, X) = make_dataset(rng, 10, 2)
    ds = SurvivalDataset.from_dense(t, np.zeros(10), X)
    with pytest.raises(ValueError, match="event"):
        fit_bar(ds, BarConfig())


def test_cbic_rule_refuses_one_event(rng):
    # ln(1) = 0 would silently return the unpenalized fit with every column
    _, (t, _, X) = make_dataset(rng, 40, 3)
    status = np.zeros(40)
    status[7] = 1
    ds = SurvivalDataset.from_dense(t, status, X)
    with pytest.raises(ValueError, match="cbic rule needs at least two events"):
        fit_bar(ds, BarConfig(lambda_rule="cbic"))
    assert fit_bar(ds, BarConfig(lambda_rule="bic")).lam == math.log(40)


def test_bar_support_regrowth_raises(monkeypatch, rng):
    _, (t, status, X) = make_dataset(rng, 40, 3)
    X[:, 2] = 0.0  # the ridge start leaves this column at exact zero, so it is locked
    ds = SurvivalDataset.from_dense(t, status, X)
    solve = bar.ccd_minimize

    def reviving_solve(ds, weights, beta0):
        fit = solve(ds, weights, beta0)
        frozen = weights == np.inf
        if frozen[2]:
            fit = replace(fit, beta=np.where(frozen, 0.5, fit.beta))
        return fit

    monkeypatch.setattr(bar, "ccd_minimize", reviving_solve)
    with pytest.raises(RuntimeError, match="support grew"):
        fit_bar(ds, BarConfig(lambda_rule="bic"))


def test_bar_converged_covers_every_inner_solve(monkeypatch, rng):
    ds, _ = make_dataset(rng, 80, 4, beta_scale=0.6)
    config = BarConfig(lambda_rule="bic")
    assert fit_bar(ds, config).converged

    ridge = bar.fit_ridge
    with monkeypatch.context() as m:
        m.setattr(bar, "fit_ridge", lambda *args: replace(ridge(*args), converged=False))
        assert not fit_bar(ds, config).converged

    solve, calls = bar.ccd_minimize, []

    def first_outer_unconverged(ds, weights, beta0):
        calls.append(None)
        fit = solve(ds, weights, beta0)
        return replace(fit, converged=False) if len(calls) == 2 else fit

    monkeypatch.setattr(bar, "ccd_minimize", first_outer_unconverged)
    fit = fit_bar(ds, config)
    assert fit.outer_iterations > 1  # the unconverged solve is not the last one
    assert not fit.converged


def test_bar_lambda_zero_equals_mple(rng):
    # with no penalty the reweighting fixed point is the unpenalized MPLE
    ds, (t, status, X) = make_dataset(rng, 100, 3, beta_scale=0.6)
    fit = fit_bar(ds, BarConfig(lambda_rule="fixed", lambda_value=0.0))
    ref = dense_full_newton_mple(t, status, X)
    assert np.max(np.abs(fit.beta - ref)) < 1e-4


def test_bar_desk_design_selects_strong_signals():
    hits = 0
    for r in range(20):
        scen = replace(desk_scenario(n=300, p=10), seed=replicate_seed(555, r))
        ds = simulate(scen)
        fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
        sup = set(fit.support.tolist())
        if {4, 5, 8, 9} <= sup:
            hits += 1
        # exact zeros off the support
        off = np.setdiff1d(np.arange(10), fit.support)
        assert np.all(fit.beta[off] == 0.0)
    assert hits >= 19  # >= 95% of replicates carry all four strong signals


def test_bar_monotone_support_and_exact_zeros(rng):
    ds, _ = make_dataset(rng, 120, 8, beta_scale=0.5)
    fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
    zeros = fit.beta[np.setdiff1d(np.arange(8), fit.support)]
    assert np.all(zeros == 0.0)
    assert fit.df == fit.support.size
    assert fit.aic is not None and fit.bic is not None and fit.cbic is not None


def test_bar_fixed_point_residual(rng):
    # one more outer iteration at the reported fit moves beta < _OUTER_TOL
    scen = desk_scenario(n=300, p=10, seed=3)
    ds = simulate(scen)
    fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
    assert fit.converged
    from sparsecox.solver import ccd_minimize

    weights = np.full(ds.p, np.inf)
    live = fit.beta != 0.0
    weights[live] = 0.5 * fit.lam / np.abs(fit.beta[live]) ** 2
    again = ccd_minimize(ds, weights, fit.beta)
    assert np.max(np.abs(again.beta - fit.beta)) < bar._OUTER_TOL


@st.composite
def edge_datasets(draw):
    """Tiny datasets with tied times, empty and duplicated columns, p = 0,
    one event and no event at all."""
    n = draw(st.integers(1, 8))
    time = draw(st.lists(st.sampled_from([1.0, 2.0, 2.5, 4.0]), min_size=n, max_size=n))
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    cols = []
    for kind in draw(st.lists(st.sampled_from(["empty", "duplicate", "values"]), max_size=4)):
        if kind == "empty":
            cols.append(np.zeros(n))
        elif kind == "duplicate" and cols:
            cols.append(cols[-1])
        else:
            cols.append(np.asarray(draw(st.lists(
                st.floats(-2, 2, allow_subnormal=False), min_size=n, max_size=n))))
    X = np.column_stack(cols) if cols else np.zeros((n, 0))
    return SurvivalDataset.from_dense(time, status, X), X


# lambda = 0 is left out: on separable data the unpenalized partial likelihood
# has no maximum, so the fit runs for tens of seconds and can end in the
# solver's non-finite-objective RuntimeError (see FOUND in CHANGES.md)
@settings(max_examples=300, deadline=None)
@given(data=edge_datasets(),
       config=st.sampled_from([BarConfig(lambda_rule="bic"), BarConfig(lambda_rule="cbic"),
                               BarConfig(lambda_rule="fixed", lambda_value=3.0)]))
def test_bar_documented_outcomes_on_edge_data(data, config):
    ds, X = data
    if ds.event_count == 0:
        with pytest.raises(ValueError, match="at least one event"):
            fit_bar(ds, config)
        return
    if ds.event_count == 1 and config.lambda_rule == "cbic":
        with pytest.raises(ValueError, match="cbic rule needs at least two events"):
            fit_bar(ds, config)
        return
    fit = fit_bar(ds, config)
    assert fit.beta.shape == (ds.p,) and np.all(np.isfinite(fit.beta))
    nonzero = fit.beta[fit.beta != 0.0]
    assert np.all(np.abs(nonzero) >= BarConfig.zero_threshold)
    assert np.all(fit.beta[~np.any(X != 0.0, axis=0)] == 0.0)  # empty columns
    assert fit.df == np.count_nonzero(fit.beta)
    assert fit.loglik == LinearPredictorState(ds, fit.beta).loglik()
    if ds.p == 0:
        assert fit.converged and fit.support.size == 0


def test_bar_agrees_with_oracle_model_fit():
    # when the true support is recovered, the nonzero block matches the
    # fit computed on the true submodel alone
    truth_idx = [0, 2, 4, 5, 8, 9]
    agree = 0
    reps = 60
    for r in range(reps):
        scen = replace(desk_scenario(n=1000, p=100), seed=replicate_seed(1234, r))
        ds = simulate(scen)
        fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
        oracle = fit_bar(ds.select_columns(truth_idx), BarConfig(lambda_rule="bic"))
        full_block = fit.beta[truth_idx]
        if np.max(np.abs(full_block - oracle.beta)) < 0.05:
            agree += 1
    assert agree >= int(0.9 * reps)


# -- grid and path ----------------------------------------------------------


def bic_grid_search(ds, grid):
    """Lambda grid search: the BIC-minimizing fit along the path (ties go
    to the smaller lambda) and the path itself."""
    path = path_over(ds, "lambda", grid)
    return path.fits[int(np.argmin([f.bic for f in path.fits]))], path


def test_grid_singleton_equals_bic_rule(rng):
    scen = desk_scenario(n=200, p=6, seed=7)
    ds = simulate(scen)
    lam = math.log(ds.n)
    grid_fit, path = bic_grid_search(ds, [lam])
    bic_fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
    np.testing.assert_array_equal(grid_fit.beta, bic_fit.beta)
    assert path is not None and len(path.fits) == 1


def test_grid_returns_minimizing_member(rng):
    scen = desk_scenario(n=300, p=10, seed=11)
    ds = simulate(scen)
    lam = math.log(ds.n)
    grid = [0.5 * lam, lam, 2 * lam]
    fit, path = bic_grid_search(ds, grid)
    scores = [f.bic for f in path.fits]
    assert fit.bic == min(scores)
    assert fit.bic <= scores[0] and fit.bic <= scores[2]


def test_grid_selection_no_sparser_than_fixed_rule():
    # a BIC-minimizing grid search trades false positives for false
    # negatives, so on average it selects at least as many columns as
    # the fixed ln(n) rule
    grid_support = 0
    fixed_support = 0
    for r in range(100):
        scen = replace(desk_scenario(n=300, p=10), seed=replicate_seed(404, r))
        ds = simulate(scen)
        lam = math.log(ds.n)
        grid_fit, _ = bic_grid_search(ds, [0.5 * lam, lam, 2 * lam])
        fixed_fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
        grid_support += grid_fit.support.size
        fixed_support += fixed_fit.support.size
    assert grid_support >= fixed_support


def test_path_singleton_and_failed_points(rng):
    scen = desk_scenario(n=200, p=6, seed=13)
    ds = simulate(scen)
    path = path_over(ds, "lambda", [math.log(ds.n)], BarConfig())
    assert len(path.fits) == 1 and path.errors == [None]
    single = fit_bar(ds, BarConfig(lambda_rule="fixed", lambda_value=math.log(ds.n)))
    np.testing.assert_array_equal(path.fits[0].beta, single.beta)


def test_path_records_fit_failures_and_propagates_bugs(monkeypatch):
    ds = simulate(desk_scenario(n=60, p=3, seed=13))

    def failing_fit(exc):
        def fit(ds, config):
            raise exc("no fit here")
        return fit

    monkeypatch.setattr(bar, "fit_bar", failing_fit(ValueError))
    path = path_over(ds, "lambda", [1.0, 2.0], BarConfig(), threads=1)
    assert path.fits == [None, None] and path.errors == ["no fit here"] * 2
    monkeypatch.setattr(bar, "fit_bar", failing_fit(TypeError))
    with pytest.raises(TypeError, match="no fit here"):
        path_over(ds, "lambda", [1.0, 2.0], BarConfig(), threads=1)


@pytest.mark.parametrize("grid", [[math.nan, 1.0], [1.0, math.inf], [2.0, 1.0], []])
def test_path_refuses_a_grid_that_is_not_finite_and_ascending(grid):
    # nan compares False, so a nan point would pass the ascending check alone
    ds = simulate(desk_scenario(n=60, p=3, seed=13))
    with pytest.raises(ValueError, match="nonempty, finite and strictly ascending"):
        path_over(ds, "lambda", grid)


def test_path_huge_lambda_empties_support(rng):
    scen = desk_scenario(n=200, p=6, seed=17)
    ds = simulate(scen)
    path = path_over(ds, "lambda", [1.0, 1e6], BarConfig())
    assert path.fits[-1].support.size == 0


def test_path_csv_format(tmp_path, rng):
    scen = desk_scenario(n=120, p=4, seed=19)
    ds = simulate(scen)
    path = path_over(ds, "xi", [0.5, 1.0], BarConfig(lambda_rule="bic"))
    out = tmp_path / "path.csv"
    path.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tuning,converged,df,loglik,aic,bic,cbic," + ",".join(
        f"beta_{j+1}" for j in range(4)
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    # full precision round-trip
    assert float(first[3]) == path.fits[0].loglik


# -- grouping ----------------------------------------------------------------


def test_grouping_requires_standardized(rng):
    ds, _ = make_dataset(rng, 30, 3)
    fit = fit_bar(ds, BarConfig())
    with pytest.raises(ValueError, match="standardized"):
        grouping_bound_check(fit, ds, 1.0)


def test_grouping_duplicated_columns_equal_coefficients(rng):
    # two identical columns, both informative: estimates must coincide
    n = 150
    z = rng.standard_normal(n)
    X = np.column_stack([z, z, rng.standard_normal(n)])
    t = rng.exponential(size=n) / np.exp(0.9 * z + 0.4 * X[:, 2])
    status = (rng.random(n) > 0.2).astype(int)
    ds = standardize(SurvivalDataset.from_dense(t, status, X), "center-and-scale")
    lam = math.log(n)
    fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
    rep = grouping_bound_check(fit, ds, lam)
    assert rep.ok
    if fit.beta[0] != 0.0 and fit.beta[1] != 0.0:
        assert abs(fit.beta[0] - fit.beta[1]) <= 1e-6


def test_grouping_uncorrelated_columns_trivially_ok(rng):
    ds, _ = make_dataset(rng, 100, 4, beta_scale=0.7)
    std = standardize(ds, "center-and-scale")
    fit = fit_bar(std, BarConfig(lambda_rule="bic"))
    rep = grouping_bound_check(fit, std, math.log(100))
    assert rep.ok
    assert len(rep.pairs) == fit.support.size * (fit.support.size - 1) // 2
