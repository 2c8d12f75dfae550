"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output on failure).  Monte Carlo settings follow the benchmark
designs, except that criteria 4 and 5 are sized by the information their
bounds need (see their comments); seeds are fixed so reruns are
reproducible.
"""

import math
import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import sparsecox as sc
from sparsecox.sim import replicate_seed
from sparsecox.solver import PenaltySpec, _coord_step, ccd_minimize

from conftest import dense_loglik, make_dataset

DESK_BETA0 = [0.20, 0, 0.35, 0, 0.50, 0.55, 0, 0, 0.70, 0.80]
MASTER_SEED = 20260810


def _criterion(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def desk_scenario(n, p=100):
    return sc.SimScenario(n=n, p=p, beta0=DESK_BETA0, design="ar1:0.5",
                          censoring=0.2, seed=0)


# ---------------------------------------------------------------------------
# Criterion 1: moderate-sample selection quality, n = 1000


def test_criterion_1_table_n1000():
    method = sc.MethodConfig.from_name("bic-coxbar")
    rep = sc.run_benchmark(desk_scenario(1000), method, replicates=100,
                           seed=MASTER_SEED, threads=4)
    detail = (f"n=1000 SSB={rep.ssb:.4f} (<=0.04) FP={rep.fp:.3f} (<=0.10) "
              f"FN={rep.fn:.3f} (<=0.15) TM={rep.tm:.2f} (>=0.85)")
    ok = rep.ssb <= 0.04 and rep.fp <= 0.10 and rep.fn <= 0.15 and rep.tm >= 0.85
    _criterion(1, ok, detail)


# ---------------------------------------------------------------------------
# Criterion 2: moderate-sample selection quality, n = 300, both presets


def test_criterion_2_table_n300():
    details = []
    ok = True
    for name in ("bic-coxbar", "cbic-coxbar"):
        method = sc.MethodConfig.from_name(name)
        rep = sc.run_benchmark(desk_scenario(300), method, replicates=100,
                               seed=MASTER_SEED + 1, threads=4)
        good = (rep.fp <= 0.5 and rep.fn <= 1.2 and rep.tm >= 0.10
                and rep.ssb <= 0.15)
        ok = ok and good
        details.append(f"{name}: SSB={rep.ssb:.3f} (<=0.15) FP={rep.fp:.3f} (<=0.5) "
                       f"FN={rep.fn:.3f} (<=1.2) TM={rep.tm:.2f} (>=0.10)")
    _criterion(2, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 3: support is insensitive to the ridge tuning xi


def test_criterion_3_xi_insensitivity():
    scen = replace(desk_scenario(300), seed=replicate_seed(MASTER_SEED, 3))
    ds = sc.simulate(scen)
    grid = np.logspace(-3, 2, 25)
    path = sc.path_over(ds, "xi", grid, sc.BarConfig(lambda_rule="bic"))
    assert all(e is None for e in path.errors)
    supports = [tuple(f.support.tolist()) for f in path.fits]
    distinct = set(supports)
    ok = len(distinct) == 1
    _criterion(3, ok, f"support sets across 25 xi values in [1e-3, 1e2]: "
                      f"{len(distinct)} distinct (need 1); support={supports[0]}")


# ---------------------------------------------------------------------------
# Criterion 4: sparse massive-sample run (direction of the large-scale study)
#
# Selection consistency is a large-sample promise, so the design has to
# carry enough information for the recall bound.  The yardstick is the
# oracle: the unpenalised Cox fit restricted to the 36 true columns, whose
# Wald |z| ranks the true columns and whose score |z| ranks the noise
# columns.  The lam = ln n preset keeps a coordinate at about
# |z| > sqrt(2 ln n).  Measured on this seed (p=2000, binary:0.98, 95%
# censored), with the oracle's count of columns above that threshold:
#
#      n     events  median info  sqrt(2 ln n)  true above  noise above
#    20000     1041        20         4.45         6/36          0
#   100000     5399       106         4.80        30/36          1
#   150000     8048       158         4.88        32/36          0
#   200000    10789       211         4.94        35/36          0
#
# At n=20000 the oracle's 4th-weakest true |z| is 1.63 while its
# 4th-largest noise |z| is 3.33, so no threshold whatever gives >= 33/36
# with <= 3 false positives; fit_bar recovered 5/36 (FP 0) there.  At
# n=200000 fit_bar recovers 36/36 with FP 0.  The oracle gate below
# re-checks the design before BAR is judged, so a smaller design fails
# as infeasible instead of as a BAR defect.


def _coordinate_z(ds, beta, fitted):
    """|z| of every column at ``beta``, each from its own coordinate
    information: Wald |z| for the columns where ``fitted`` is set, score
    |z| for the rest (0 for a column without information)."""
    state = sc.LinearPredictorState(ds, beta)
    z = np.zeros(ds.p)
    for j in range(ds.p):
        g1, g2 = state.coord_derivatives(j)
        if g2 < 0.0:
            z[j] = abs(beta[j] if fitted[j] else g1 / g2) * math.sqrt(-g2)
    return z


def _oracle_z(ds, true_cols):
    """Column |z| at the unpenalised fit restricted to ``true_cols``."""
    frozen = np.ones(ds.p, dtype=bool)
    frozen[true_cols] = False
    fit = ccd_minimize(ds, PenaltySpec.unpenalized(ds.p, frozen), np.zeros(ds.p))
    return _coordinate_z(ds, fit.beta, ~frozen)


def _peak_rss_mb():
    """Peak resident set of this process in MB, from its own VmHWM
    (ru_maxrss of a spawned child also carries its parent's high-water
    mark, so it cannot stand in)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError as exc:
        raise RuntimeError(f"cannot read this process's peak RSS: {exc}") from exc
    raise RuntimeError("cannot read this process's peak RSS: no VmHWM line "
                       "in /proc/self/status")


def _simulate_and_fit_bar(scen):
    t0 = time.perf_counter()
    ds = sc.simulate(scen)
    fit = sc.fit_bar(ds, sc.BarConfig(lambda_rule="bic"))
    return fit.support.tolist(), time.perf_counter() - t0, _peak_rss_mb()


def test_criterion_4_sparse_massive_sample():
    truth = np.concatenate([
        np.full(6, 0.7), np.full(6, 0.5), np.full(6, 1.0),
        np.full(6, -0.7), np.full(6, -0.5), np.full(6, -1.0),
    ])
    scen = sc.SimScenario(n=200000, p=2000, beta0=truth, design="binary:0.98",
                          censoring=0.95, seed=MASTER_SEED)
    true_cols = np.arange(36)
    threshold = math.sqrt(2.0 * math.log(scen.n))
    z = _oracle_z(sc.simulate(scen), true_cols)
    oracle_true = int(np.sum(z[true_cols] > threshold))
    oracle_noise = int(np.sum(np.delete(z, true_cols) > threshold))
    assert oracle_true >= 33 and oracle_noise <= 3, (
        f"design n={scen.n} cannot carry criterion 4: even the oracle puts only "
        f"{oracle_true}/36 true and {oracle_noise} noise |z| above "
        f"sqrt(2 ln n)={threshold:.2f}")

    # a fresh process, so the peak RSS is that of simulate + fit_bar alone
    # and not of whatever ran earlier in this one
    with ProcessPoolExecutor(1, mp_context=mp.get_context("spawn")) as pool:
        support, elapsed, peak_mb = pool.submit(_simulate_and_fit_bar, scen).result()

    sup = set(support)
    true_sup = set(true_cols.tolist())
    recovered = len(sup & true_sup)
    fp = len(sup - true_sup)
    # float64 storage of the dense n x p design alone
    dense_mb = scen.n * scen.p * 8 / 2**20
    detail = (f"n={scen.n} recovered={recovered}/36 (>=33) FP={fp} (<=3) "
              f"time={elapsed:.0f}s (<600) peakRSS={peak_mb:.0f}MB "
              f"(< dense {dense_mb:.0f}MB); oracle {oracle_true}/36 true, "
              f"{oracle_noise} noise above {threshold:.2f}")
    ok_perf = elapsed < 600 and peak_mb < dense_mb
    ok_select = recovered >= 33 and fp <= 3
    _criterion(4, ok_perf and ok_select, detail)


# ---------------------------------------------------------------------------
# Criterion 5: screening keeps the true support; two-stage quality
#
# Coverage needs every true column among the top m = floor(n / ln n) of
# p=2500, which the weakest signal (beta=0.2) can only reach once n carries
# it clear of the noise order statistics.  The size is set by two
# yardsticks, neither of them the method under test: the oracle ranking
# (Wald |z| of the unpenalised fit on the true columns, score |z| at that
# fit for the rest), which measures what the design can carry, and the
# marginal score ranking at beta=0, which measures what a screen starting
# from the data alone is handed (sjs_screen's first round ranks the same
# scores, without dividing by each column's information).  Coverage out of
# 100 over this replicate stream:
#
#     n    m   oracle  marginal  sjs_coxbar
#    300   52    76       53     40/100, FN 0.92, FP 1.07
#    400   66    94       77
#    500   80   100       91     86/100, FN 0.39, FP 0.50
#    600   93   100       96     97/100, FN 0.19, FP 0.45
#
# At n=300 the beta=0.2 column has a median oracle rank of 11.5 and a
# worst of 608, so no ranking reaches 90/100 there.  n=500 is the smallest
# size on this grid at which both yardsticks reach 90/100.  There
# sjs_coxbar covers the support less often than the marginal ranking it
# starts from, so the criterion fails on coverage until the screen keeps
# at least what that ranking keeps.  The gate below re-checks both
# yardsticks, so a smaller design fails as infeasible instead of as a
# screening defect.


def _ranking_covers(z, true_cols, m):
    """Whether every true column has fewer than m columns strictly above it."""
    return all(np.sum(z > z[j]) < m for j in true_cols)


def test_criterion_5_screening():
    scen = sc.SimScenario(n=500, p=2500, beta0=DESK_BETA0, design="ar1:0.5",
                          censoring=0.2, seed=0)
    m = int(scen.n / math.log(scen.n))
    true_cols = scen.true_support
    true_sup = set(true_cols.tolist())
    cfg = sc.BarConfig(lambda_rule="bic")
    oracle_covered = marginal_covered = covered = 0
    fps, fns = [], []
    for r in range(100):
        ds = sc.simulate(replace(scen, seed=replicate_seed(MASTER_SEED + 5, r)))
        oracle_covered += _ranking_covers(_oracle_z(ds, true_cols), true_cols, m)
        marginal_z = _coordinate_z(ds, np.zeros(ds.p), np.zeros(ds.p, dtype=bool))
        marginal_covered += _ranking_covers(marginal_z, true_cols, m)
        fit = sc.sjs_coxbar(ds, m, cfg)
        if true_sup <= set(fit.screen.selected.tolist()):
            covered += 1
        metrics = sc.score(fit.beta, scen.beta0)
        fps.append(metrics.fp)
        fns.append(metrics.fn)
    assert oracle_covered >= 90 and marginal_covered >= 90, (
        f"design n={scen.n} m={m} cannot carry criterion 5: the oracle ranking "
        f"covers the support in {oracle_covered}/100 and the marginal score "
        f"ranking in {marginal_covered}/100 replicates (need >= 90 each)")
    fp, fn = float(np.mean(fps)), float(np.mean(fns))
    detail = (f"n={scen.n} m={m} coverage={covered}/100 (>=90) "
              f"two-stage FN={fn:.2f} (<=1.5) FP={fp:.2f} (<=3); "
              f"oracle ranking {oracle_covered}/100, marginal {marginal_covered}/100")
    _criterion(5, covered >= 90 and fn <= 1.5 and fp <= 3.0, detail)


# ---------------------------------------------------------------------------
# Criterion 6: always-on property suite


def test_criterion_6a_derivatives_vs_finite_differences():
    rng = np.random.default_rng(MASTER_SEED)
    h = 1e-5
    eps = np.finfo(float).eps
    checked = 0
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 50))
        p = int(rng.integers(1, 10))
        ds, _ = make_dataset(rng, n, p)
        beta = rng.uniform(-1, 1, size=p)
        j = int(rng.integers(0, p))
        g1, g2 = sc.LinearPredictorState(ds, beta).coord_derivatives(j)

        def ll(b, j=j, beta=beta, ds=ds):
            v = beta.copy()
            v[j] = b
            return sc.LinearPredictorState(ds, v).loglik()

        l0, lp, lm = ll(beta[j]), ll(beta[j] + h), ll(beta[j] - h)
        fd1 = (lp - lm) / (2 * h)
        fd2 = (lp - 2 * l0 + lm) / h**2
        scale = max(abs(l0), abs(lp), abs(lm), 1.0)
        tol1 = 1e-5 * abs(fd1) + 8 * eps * scale / h
        tol2 = 1e-5 * abs(fd2) + 8 * eps * scale / h**2
        assert abs(g1 - fd1) <= tol1
        assert abs(g2 - fd2) <= tol2
        worst = max(worst, abs(g1 - fd1) / (abs(fd1) + 1e-12))
        checked += 1
    _criterion("6a", checked == 200,
               f"gradient/curvature vs central differences on {checked} instances "
               f"(rel tol 1e-5, worst g1 rel dev {worst:.2e})")


def test_criterion_6b_sparse_vs_dense_reference():
    from conftest import dense_coord_derivs

    rng = np.random.default_rng(MASTER_SEED + 6)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(3, 40))
        p = int(rng.integers(1, 6))
        ds, (t, status, X) = make_dataset(rng, n, p)
        std = sc.standardize(ds, "center-and-scale") if n > 2 else ds
        Xs = np.column_stack([std.design.dense_column(j) for j in range(p)])
        Xs_orig = np.empty_like(Xs)
        Xs_orig[std.order] = Xs
        beta = rng.uniform(-1, 1, size=p)
        st = sc.LinearPredictorState(std, beta)
        for j in range(p):
            g1, g2 = st.coord_derivatives(j)
            r1, r2 = dense_coord_derivs(t, status, Xs_orig, beta, j)
            worst = max(worst, abs(g1 - r1), abs(g2 - r2))
            assert abs(g1 - r1) <= 1e-10 and abs(g2 - r2) <= 1e-10
    _criterion("6b", True, f"sparse scan vs dense reference, worst abs dev {worst:.1e} (<=1e-10)")


def test_criterion_6c_monotone_descent_everywhere():
    rng = np.random.default_rng(MASTER_SEED + 7)
    checked = 0
    for _ in range(25):
        n = int(rng.integers(10, 80))
        p = int(rng.integers(1, 8))
        ds, _ = make_dataset(rng, n, p)
        w = float(rng.choice([0.0, 0.5, 5.0]))
        fit = ccd_minimize(ds, PenaltySpec(np.full(p, w)), np.zeros(p))
        assert np.all(np.diff(fit.trace) <= 1e-12)
        checked += 1
    _criterion("6c", True, f"objective trace non-increasing (1e-12 slack) on {checked} fits")


def test_criterion_6d_exact_zero_semantics():
    # phi = 1/w = 0 makes the updated coordinate exactly zero
    rng = np.random.default_rng(MASTER_SEED + 8)
    for _ in range(100):
        b = float(rng.uniform(-5, 5))
        g1 = float(rng.uniform(-10, 10))
        g2 = float(-rng.uniform(0, 10))
        assert b + _coord_step(b, g1, g2, math.inf) == 0.0
    # zero-locking: support shrinks monotonically across reweighting steps
    scen = desk_scenario(300, p=20)
    supports = []
    for r in range(5):
        ds = sc.simulate(replace(scen, seed=replicate_seed(MASTER_SEED + 8, r)))
        fit = sc.fit_bar(ds, sc.BarConfig(lambda_rule="bic"))
        off = np.setdiff1d(np.arange(20), fit.support)
        assert np.all(fit.beta[off] == 0.0)
        supports.append(fit.support.size)
    _criterion("6d", True, "phi=0 steps land on exact zero; BAR zeros are bit-exact")


def test_criterion_6e_one_dimensional_oracle():
    rng = np.random.default_rng(MASTER_SEED + 9)
    x = rng.standard_normal((50, 1))
    t = rng.exponential(size=50) / np.exp(0.8 * x[:, 0])
    status = (rng.random(50) > 0.25).astype(int)
    status[int(np.argmin(t))] = 1
    ds = sc.SurvivalDataset.from_dense(t, status, x)
    worst = 0.0
    for xi in (0.0, 0.1, 1.0, 10.0):
        pen = PenaltySpec.unpenalized(1) if xi == 0.0 else PenaltySpec.ridge(1, xi)
        fit = ccd_minimize(ds, pen, np.zeros(1))
        ref = minimize_scalar(
            lambda b: -2.0 * dense_loglik(t, status, x, [b]) + xi * b * b,
            bracket=(-3.0, 0.0, 3.0), method="golden", options={"xtol": 1e-12},
        ).x
        worst = max(worst, abs(fit.beta[0] - ref))
        assert abs(fit.beta[0] - ref) <= 1e-6
    _criterion("6e", True, f"golden-section agreement, worst dev {worst:.1e} (<=1e-6)")


def test_criterion_6f_grouping_bound():
    scen = sc.SimScenario(n=300, p=10, beta0=DESK_BETA0, design="ar1:0.5",
                          censoring=0.2, seed=0)
    violations = 0
    for r in range(100):
        ds = sc.simulate(replace(scen, seed=replicate_seed(MASTER_SEED + 10, r)))
        std = sc.standardize(ds, "center-and-scale")
        fit = sc.fit_bar(std, sc.BarConfig(lambda_rule="bic"))
        rep = sc.grouping_bound_check(fit, std, math.log(std.n))
        violations += len(rep.violations)

    # duplicated columns: the bound collapses to equality of coefficients
    rng = np.random.default_rng(MASTER_SEED + 11)
    dup_ok = True
    for _ in range(5):
        z = rng.standard_normal(200)
        X = np.column_stack([z, z, rng.standard_normal(200)])
        t = rng.exponential(size=200) / np.exp(0.9 * z + 0.4 * X[:, 2])
        status = (rng.random(200) > 0.2).astype(int)
        std = sc.standardize(sc.SurvivalDataset.from_dense(t, status, X),
                             "center-and-scale")
        fit = sc.fit_bar(std, sc.BarConfig(lambda_rule="bic"))
        if fit.beta[0] != 0.0 and fit.beta[1] != 0.0:
            dup_ok = dup_ok and abs(fit.beta[0] - fit.beta[1]) <= 1e-6
        dup_ok = dup_ok and sc.grouping_bound_check(fit, std, math.log(200)).ok
    _criterion("6f", violations == 0 and dup_ok,
               f"grouping bound: {violations} violations over 100 replicates; "
               f"duplicated columns agree within 1e-6")


def test_criterion_6g_seed_determinism(tmp_path):
    scen_file = tmp_path / "scen.cfg"
    sc.SimScenario(n=150, p=10, beta0=DESK_BETA0, design="ar1:0.5",
                   censoring=0.2, seed=7).to_config(scen_file)
    from sparsecox.cli import main

    outputs = {}
    for tag, threads in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / f"rep_{tag}.csv"
        code = main(["bench", "--scenario", str(scen_file), "--method", "bic-coxbar",
                     "--reps", "4", "--seed", "99", "--threads", str(threads),
                     "--out", str(out)])
        assert code == 0
        # mask the wall-clock runtime column (position 9), the one
        # measurement that cannot be byte-stable
        rows = [line.split(",") for line in out.read_text().splitlines()]
        outputs[tag] = ["\x1f".join(v for k, v in enumerate(r) if k != 9) for r in rows]
    same = outputs["a"] == outputs["b"] == outputs["c"]

    surv1, des1 = tmp_path / "s1.csv", tmp_path / "d1.dat"
    surv2, des2 = tmp_path / "s2.csv", tmp_path / "d2.dat"
    for sv, dz in ((surv1, des1), (surv2, des2)):
        assert main(["simulate", "--scenario", str(scen_file), "--out-surv", str(sv),
                     "--out-design", str(dz)]) == 0
    files_same = (surv1.read_bytes() == surv2.read_bytes()
                  and des1.read_bytes() == des2.read_bytes())
    _criterion("6g", same and files_same,
               "byte-identical outputs across reruns and threads in {1,4} "
               "(runtime column excluded)")
