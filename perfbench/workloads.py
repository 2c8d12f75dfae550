"""The three benchmark designs: how each makes its inputs, fits them and
checks the fit against the independent reference in ``reference.py``.

A workload makes its inputs from the run's seed only.  Replicate r of a
simulation design is ``simulate`` at ``replicate_seed(seed, r)``, the stream
``run_benchmark`` replays; massive-sparse writes one such dataset to files
before timing and loads it in every round.  ``check`` returns the list of
problems found (empty when the fit is right) and records the worst margins
seen in ``self.stats``.
"""

import math
from dataclasses import replace

import numpy as np

from reference import Breslow, read_coord, read_survival

# Criterion 1 and 5 signal: the acceptance suite's desk design.
DESK_BETA0 = np.array([0.20, 0, 0.35, 0, 0.50, 0.55, 0, 0, 0.70, 0.80])
# Criterion 4 signal: six blocks of six columns.
MASSIVE_BETA0 = np.repeat([0.7, 0.5, 1.0, -0.7, -0.5, -1.0], 6)

# A selected coefficient is stationary when its score equals lam / (2 beta_j)
# up to what a coordinate error of STATIONARITY_STEP would leave: the score
# moves by info_jj per unit of beta_j and lam / (2 beta_j) by lam / (2 beta_j^2),
# and the reweighting lags the last inner solve by up to one more step.  The
# solver stops at steps of 1e-6, so 1e-4 leaves a hundredfold margin.
STATIONARITY_STEP = 1e-4
LOGLIK_RTOL = 1e-10
# The desk check rejects criterion 1's bounds only on evidence this strong.
SELECTION_ALPHA = 1e-6


def binomial_upper_tail(k, n, q):
    """P(X >= k) for X ~ Binomial(n, q)."""
    return sum(math.comb(n, i) * q**i * (1.0 - q) ** (n - i) for i in range(k, n + 1))


class Workload:
    name = None
    round_s = None  # seconds per round when this was written; sizes the traced block only

    def __init__(self, seed):
        self.seed = seed
        self.stats = {"loglik_rel_err": 0.0, "stationarity_ratio": 0.0}

    def summary_problems(self):
        """Problems that only the whole run can show."""
        return []

    def _bump(self, key, value):
        self.stats[key] = max(self.stats.get(key, 0.0), value)

    def _check_bar(self, sc, fit, ref, score, column, n):
        """Checks every BIC-preset BAR fit must pass.  ``score`` is the
        reference score at fit.beta, ``column(j)`` the dense column j in
        input order."""
        problems = []
        beta = fit.beta
        nonzero = np.flatnonzero(beta)
        if not np.array_equal(np.asarray(fit.support), nonzero) or fit.df != nonzero.size:
            problems.append(f"support {fit.support} / df {fit.df} is not the nonzero "
                            f"pattern {nonzero} of beta")
        threshold = sc.BarConfig().zero_threshold
        if np.any(np.abs(beta[nonzero]) < threshold):
            problems.append(f"a coefficient in the support is below {threshold:g} "
                            "instead of an exact zero")

        rel = abs(fit.loglik - ref.loglik) / max(1.0, abs(ref.loglik))
        self._bump("loglik_rel_err", rel)
        if not rel <= LOGLIK_RTOL:
            problems.append(f"loglik {fit.loglik!r} vs reference {ref.loglik!r} "
                            f"(relative error {rel:.2e})")
        bic = -2.0 * ref.loglik + math.log(n) * nonzero.size
        if not abs(fit.bic - bic) <= LOGLIK_RTOL * max(1.0, abs(bic)):
            problems.append(f"bic {fit.bic!r} vs -2 loglik + ln(n) df = {bic!r}")

        lam = math.log(n)
        for j in nonzero:
            b = beta[j]
            residual = abs(score[j] - lam / (2.0 * b))
            bound = STATIONARITY_STEP * (ref.information(column(j)) + lam / (b * b))
            self._bump("stationarity_ratio", residual / bound)
            if not residual <= bound:
                problems.append(f"column {j + 1}: score {score[j]:.6g} is not lam/(2 beta) = "
                                f"{lam / (2.0 * b):.6g} (|diff| {residual:.2e} > {bound:.2e})")
        return problems


class MassiveSparse(Workload):
    """n=20000, p=2000, binary:0.98, 95% censored, read back from sparse-coord files."""

    name = "massive-sparse"
    round_s = 26.0

    def prepare(self, sc, workdir):
        scenario = sc.SimScenario(n=20000, p=2000, beta0=MASSIVE_BETA0, design="binary:0.98",
                                  censoring=0.95, seed=sc.sim.replicate_seed(self.seed, 0))
        self.files = (str(workdir / "survival.csv"), str(workdir / "design.coord"))
        sc.save_dataset(sc.simulate(scenario), *self.files, "sparse-coord")
        # the reference reads what was written, not the simulated object
        self.time, self.status = read_survival(self.files[0])
        self.n, self.p, self.rows, self.cols, self.vals = read_coord(self.files[1])
        by_col = np.argsort(self.cols, kind="stable")
        self.col_bounds = np.searchsorted(self.cols[by_col], np.arange(self.p + 1))
        self.by_col = by_col

    def produce(self, sc, r):
        return sc.load_dataset(*self.files, "sparse-coord")

    def fit(self, sc, ds):
        return sc.fit_bar(ds, sc.BarConfig(lambda_rule="bic"))

    def _column(self, j):
        idx = self.by_col[self.col_bounds[j]:self.col_bounds[j + 1]]
        x = np.zeros(self.n)
        x[self.rows[idx]] = self.vals[idx]
        return x

    def check(self, sc, r, ds, fit):
        beta = np.asarray(fit.beta)
        if beta.shape != (self.p,):
            return [f"beta has shape {beta.shape}, expected ({self.p},)"]
        eta = np.bincount(self.rows, weights=self.vals * beta[self.cols], minlength=self.n)
        ref = Breslow(self.time, self.status, eta)
        score = ref.score_coord(self.rows, self.cols, self.vals, self.p)
        return self._check_bar(sc, fit, ref, score, self._column, self.n)


class _Simulated(Workload):
    """A design replayed from run_benchmark's replicate stream."""

    base = None  # the SimScenario whose seed the replicates replace

    def produce(self, sc, r):
        return sc.simulate(replace(self.base, seed=sc.sim.replicate_seed(self.seed, r)))

    def _reference(self, ds, beta):
        X = ds.dense_design_original_order()
        ref = Breslow(ds.time, ds.status, X @ beta)
        return X, ref, ref.score_dense(X)


class DeskStudy(_Simulated):
    """Criterion 1: n=1000, p=100, ar1:0.5, 20% censored, BIC preset."""

    name = "desk-study"
    round_s = 0.85

    def __init__(self, seed):
        super().__init__(seed)
        self.fits = self.with_fp = self.with_fn = self.not_tm = 0

    def prepare(self, sc, workdir):
        self.base = sc.SimScenario(n=1000, p=100, beta0=DESK_BETA0, design="ar1:0.5",
                                   censoring=0.2, seed=0)

    def fit(self, sc, ds):
        return sc.fit_bar(ds, sc.BarConfig(lambda_rule="bic"))

    def check(self, sc, r, ds, fit):
        beta = np.asarray(fit.beta)
        X, ref, score = self._reference(ds, beta)
        problems = self._check_bar(sc, fit, ref, score, lambda j: X[:, j], ds.n)
        truth = np.zeros(beta.shape[0])
        truth[:DESK_BETA0.shape[0]] = DESK_BETA0
        fp = int(np.count_nonzero((beta != 0.0) & (truth == 0.0)))
        fn = int(np.count_nonzero((beta == 0.0) & (truth != 0.0)))
        self.fits += 1
        self.with_fp += fp > 0
        self.with_fn += fn > 0
        self.not_tm += fp > 0 or fn > 0
        return problems

    def summary_problems(self):
        """Criterion 1 holds FP <= 0.10, FN <= 0.15 and TM >= 0.85 as means.
        P(FP > 0) <= E[FP], so replicates with a false positive are at most
        Binomial(fits, 0.10) when the bound holds (likewise FN and 1 - TM).
        A run fails the check when its count is that unlikely under the bound."""
        self.stats.update(fits=self.fits, with_fp=self.with_fp, with_fn=self.with_fn,
                          not_tm=self.not_tm)
        problems = []
        for what, k, q in (("FP > 0", self.with_fp, 0.10), ("FN > 0", self.with_fn, 0.15),
                           ("TM = 0", self.not_tm, 0.15)):
            tail = binomial_upper_tail(k, self.fits, q)
            if tail < SELECTION_ALPHA:
                problems.append(f"{what} in {k} of {self.fits} fits: P = {tail:.1e} "
                                f"under criterion 1's bound {q}")
        return problems


class ScreenHighdim(_Simulated):
    """Criterion 5: n=500, p=2500, m=floor(n / ln n)=80, ar1:0.5, 20% censored."""

    name = "screen-highdim"
    round_s = 4.0

    def prepare(self, sc, workdir):
        self.base = sc.SimScenario(n=500, p=2500, beta0=DESK_BETA0, design="ar1:0.5",
                                   censoring=0.2, seed=0)
        self.m = int(self.base.n / math.log(self.base.n))

    def fit(self, sc, ds):
        return sc.sjs_coxbar(ds, self.m, sc.BarConfig(lambda_rule="bic"))

    def check(self, sc, r, ds, fit):
        beta = np.asarray(fit.beta)
        X, ref, score = self._reference(ds, beta)
        problems = self._check_bar(sc, fit, ref, score, lambda j: X[:, j], ds.n)
        screen = fit.screen
        selected = np.asarray(screen.selected)
        if selected.size > self.m:
            problems.append(f"screen kept {selected.size} columns, more than m={self.m}")
        if not set(np.flatnonzero(beta).tolist()) <= set(selected.tolist()):
            problems.append("support lies outside the screened set")
        screen_beta = np.asarray(screen.beta)
        if np.any(np.delete(screen_beta, selected) != 0.0):
            problems.append("screen estimate is nonzero outside the screened set")
        # the screen's last refit is unpenalized on the kept columns
        sref = Breslow(ds.time, ds.status, X @ screen_beta)
        sscore = X[:, selected].T @ sref.residual
        for j, s in zip(selected, sscore):
            bound = STATIONARITY_STEP * sref.information(X[:, j])
            self._bump("screen_score_ratio", abs(s) / bound)
            if not abs(s) <= bound:
                problems.append(f"screen column {j + 1}: score {s:.3g} is not zero "
                                f"(bound {bound:.2e})")
        return problems


WORKLOADS = {w.name: w for w in (MassiveSparse, DeskStudy, ScreenHighdim)}
