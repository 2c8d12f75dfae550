from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from sparsecox import MethodConfig, SimScenario, fit_bar, run_benchmark, score, simulate
from sparsecox.sim import format_beta_spec, parse_beta_spec, replicate_seed


def test_beta_spec_round_trip():
    spec = "0.2,0.0,0.35x2,-1.0x3"
    vals = parse_beta_spec(spec)
    np.testing.assert_allclose(vals, [0.2, 0.0, 0.35, 0.35, -1.0, -1.0, -1.0])
    assert parse_beta_spec(format_beta_spec(vals)).tolist() == vals.tolist()


def test_scenario_config_round_trip(tmp_path):
    scen = SimScenario(n=50, p=8, beta0=[0.5, 0, 0.7], design="ar1:0.5",
                       censoring=0.2, seed=42)
    path = tmp_path / "scenario.cfg"
    scen.to_config(path)
    back = SimScenario.from_config(path)
    assert back.n == 50 and back.p == 8 and back.seed == 42
    np.testing.assert_array_equal(back.beta0, scen.beta0)
    assert back.design == "ar1:0.5" and back.censoring == 0.2


def test_simulate_deterministic():
    scen = SimScenario(n=200, p=5, beta0=[0.5], design="ar1:0.5", censoring=0.2, seed=9)
    a, b = simulate(scen), simulate(scen)
    np.testing.assert_array_equal(a.time, b.time)
    np.testing.assert_array_equal(a.status, b.status)
    for j in range(5):
        np.testing.assert_array_equal(a.design.dense_column(j), b.design.dense_column(j))


def test_null_model_times_are_standard_exponential():
    scen = SimScenario(n=10000, p=1, beta0=[0.0], design="ar1:0.5", censoring=0.0, seed=3)
    ds = simulate(scen)
    assert ds.event_count == ds.n
    # mean of Exp(1) within 3 standard errors
    assert abs(ds.time.mean() - 1.0) < 3.0 / np.sqrt(ds.n)


def test_zero_censoring_all_events():
    scen = SimScenario(n=300, p=2, beta0=[0.4], design="ar1:0.5", censoring=0.0, seed=5)
    ds = simulate(scen)
    assert ds.event_count == 300


def test_ar1_adjacent_correlation():
    scen = SimScenario(n=10000, p=6, beta0=[0.0], design="ar1:0.5", censoring=0.0, seed=7)
    ds = simulate(scen)
    X = np.column_stack([ds.design.dense_column(j) for j in range(6)])
    for j in range(5):
        r = np.corrcoef(X[:, j], X[:, j + 1])[0, 1]
        assert abs(r - 0.5) < 0.05


def test_binary_design_density_and_values():
    scen = SimScenario(n=5000, p=20, beta0=[0.7], design="binary:0.98",
                       censoring=0.5, seed=11)
    ds = simulate(scen)
    total = ds.design.nnz()
    density = total / (5000 * 20)
    assert abs(density - 0.02) < 0.005
    for j in range(20):
        _, vals = ds.design.column(j)
        assert np.all(vals == 1.0)


@pytest.mark.parametrize("target", [0.2, 0.5, 0.95])
def test_censoring_calibration(target):
    scen = SimScenario(n=2000, p=4, beta0=[0.5, -0.5], design="ar1:0.5",
                       censoring=target, seed=13)
    realized = []
    for r in range(20):
        ds = simulate(replace(scen, seed=replicate_seed(77, r)))
        realized.append(1.0 - ds.event_count / ds.n)
    assert abs(np.mean(realized) - target) < 0.02


def test_score_identity_and_zero():
    beta0 = np.array([0.2, 0.0, 0.35, 0.0, 0.5, 0.55])
    m = score(beta0, beta0)
    assert (m.ssb, m.fp, m.fn, m.tm) == (0.0, 0, 0, 1)
    assert m.acr == 4  # all four nonzero signals correctly ranked

    z = score(np.zeros(6), beta0)
    assert z.fn == 4 and z.fp == 0 and z.tm == 0
    assert z.ssb == pytest.approx(np.sum(beta0**2))


def test_score_hand_example():
    m = score(np.array([0.3, 0.1, 0.0, 0.0]), np.array([0.2, 0.0, 0.35, 0.0]))
    assert m.ssb == pytest.approx(0.1425)
    assert m.fp == 1 and m.fn == 1 and m.tm == 0


def test_score_metric_consistency(rng):
    for _ in range(50):
        p = int(rng.integers(1, 8))
        bt = np.where(rng.random(p) < 0.5, rng.uniform(0.2, 1, p), 0.0)
        bh = np.where(rng.random(p) < 0.5, rng.uniform(0.2, 1, p), 0.0)
        m = score(bh, bt)
        assert (m.tm == 1) == (m.fp == 0 and m.fn == 0)


def test_score_carries_criteria_and_is_frozen():
    m = score(np.array([0.3, 0.0]), np.array([0.2, 0.0]), aic=10.5, bic=12.25)
    assert (m.aic, m.bic) == (10.5, 12.25)
    assert score(np.zeros(2), np.zeros(2)).aic is None
    with pytest.raises(FrozenInstanceError):
        m.aic = 0.0


def test_run_benchmark_rows_carry_fit_criteria():
    scen = SimScenario(n=120, p=6, beta0=[0.8, 0, 0.9], design="ar1:0.5",
                       censoring=0.2, seed=0)
    method = MethodConfig.from_name("bic-coxbar")
    report = run_benchmark(scen, method, replicates=2, seed=101)
    for rep, metrics in report.rows:
        fit = fit_bar(simulate(replace(scen, seed=replicate_seed(101, rep))), method.bar)
        assert (metrics.aic, metrics.bic) == (fit.aic, fit.bic)
    assert report.aic == np.mean([m.aic for _, m in report.rows])


def test_run_benchmark_deterministic(tmp_path):
    scen = SimScenario(n=120, p=6, beta0=[0.8, 0, 0.9], design="ar1:0.5",
                       censoring=0.2, seed=0)
    method = MethodConfig.from_name("bic-coxbar")
    r1 = run_benchmark(scen, method, replicates=3, seed=101)
    r2 = run_benchmark(scen, method, replicates=3, seed=101)
    assert (r1.ssb, r1.fp, r1.fn, r1.tm, r1.acr) == (r2.ssb, r2.fp, r2.fn, r2.tm, r2.acr)
    assert r1.inclusion == r2.inclusion
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.to_csv(out1)
    r2.to_csv(out2)
    strip = lambda text: [",".join(v for k, v in enumerate(line.split(","))
                                   if k != 9) for line in text.splitlines()]
    # identical bytes apart from the wall-clock runtime column
    assert strip(out1.read_text()) == strip(out2.read_text())


def test_run_benchmark_threads_invariant():
    scen = SimScenario(n=120, p=6, beta0=[0.8, 0, 0.9], design="ar1:0.5",
                       censoring=0.2, seed=0)
    method = MethodConfig.from_name("bic-coxbar")
    seq = run_benchmark(scen, method, replicates=4, seed=55, threads=1)
    par = run_benchmark(scen, method, replicates=4, seed=55, threads=4)
    assert (seq.ssb, seq.fp, seq.fn, seq.tm) == (par.ssb, par.fp, par.fn, par.tm)


def test_run_benchmark_records_failures(tmp_path):
    # replicate 0 of this stream has zero events, so its fit must fail;
    # the failure is counted, the other replicates still aggregate
    scen = SimScenario(n=25, p=2, beta0=[0.5], design="ar1:0.5",
                       censoring=0.9, seed=0)
    rep = run_benchmark(scen, MethodConfig.from_name("bic-coxbar"),
                        replicates=6, seed=7)
    assert len(rep.failures) >= 1
    assert rep.failures[0][0] == 0 and "event" in rep.failures[0][1]
    assert len(rep.rows) + len(rep.failures) == 6
    out = tmp_path / "r.csv"
    rep.to_csv(out)
    header, row = out.read_text().strip().splitlines()
    assert header.split(",")[-1] == "failures"
    assert row.split(",")[-1] == str(len(rep.failures))


def test_run_benchmark_validates_reps():
    scen = SimScenario(n=50, p=2, beta0=[0.5], design="ar1:0.5", censoring=0.2, seed=0)
    with pytest.raises(ValueError):
        run_benchmark(scen, MethodConfig.from_name("bic-coxbar"), replicates=0, seed=1)


def test_method_config_names():
    assert MethodConfig.from_name("bic-coxbar").bar.lambda_rule == "bic"
    assert MethodConfig.from_name("cbic-coxbar").bar.lambda_rule == "cbic"
    assert MethodConfig.from_name("coxbar", lam=3.0).bar.lambda_value == 3.0
    assert MethodConfig.from_name("sjs-bic-coxbar", screen_m=10).screen_m == 10
    with pytest.raises(ValueError):
        MethodConfig.from_name("coxbar")
    with pytest.raises(ValueError):
        MethodConfig.from_name("sjs-bic-coxbar")
    with pytest.raises(ValueError):
        MethodConfig.from_name("lasso")
