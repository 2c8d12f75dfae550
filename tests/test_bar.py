import math
from dataclasses import replace

import numpy as np
import pytest

from sparsecox import (
    BarConfig,
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


# -- BAR outer loop --------------------------------------------------------


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


def test_bar_support_regrowth_raises(monkeypatch, rng):
    _, (t, status, X) = make_dataset(rng, 40, 3)
    X[:, 2] = 0.0  # the ridge start leaves this column at exact zero, so it is locked
    ds = SurvivalDataset.from_dense(t, status, X)
    solve = bar.ccd_minimize

    def reviving_solve(ds, penalty, beta0, opts=None):
        fit = solve(ds, penalty, beta0, opts)
        if penalty.frozen[2]:
            fit = replace(fit, beta=np.where(penalty.frozen, 0.5, fit.beta))
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

    def first_outer_unconverged(ds, penalty, beta0, opts=None):
        calls.append(None)
        fit = solve(ds, penalty, beta0, opts)
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
    # one more outer iteration at the reported fit moves beta < outer_tol
    scen = desk_scenario(n=300, p=10, seed=3)
    ds = simulate(scen)
    cfg = BarConfig(lambda_rule="bic")
    fit = fit_bar(ds, cfg)
    assert fit.converged
    from sparsecox.solver import PenaltySpec, ccd_minimize

    frozen = fit.beta == 0.0
    weights = np.zeros(ds.p)
    live = ~frozen
    weights[live] = 0.5 * fit.lam / np.abs(fit.beta[live]) ** 2
    again = ccd_minimize(ds, PenaltySpec(weights, frozen), fit.beta, cfg.solver)
    assert np.max(np.abs(again.beta - fit.beta)) < cfg.outer_tol


def test_bar_d_parameter_less_sparse_on_average():
    # larger d weakens the small-coefficient penalty, so supports can
    # only grow on average
    sizes = {0.0: 0, 0.5: 0}
    for r in range(100):
        scen = replace(desk_scenario(n=300, p=10), seed=replicate_seed(99, r))
        ds = simulate(scen)
        for d in sizes:
            fit = fit_bar(ds, BarConfig(lambda_rule="bic", d=d))
            sizes[d] += fit.support.size
    assert sizes[0.5] >= sizes[0.0]


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
