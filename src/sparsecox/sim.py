"""Synthetic survival data generation and selection benchmarking.

Event times T = E / exp(x.beta0), E ~ Exp(1), follow a proportional-hazards
model with unit baseline hazard; any other constant would only rescale time.
Censoring times are U(0, u_max) with u_max calibrated by bisection so the
expected censoring fraction over a 50000-subject pilot sample matches the
target.  Designs are either AR(1) Gaussian (corr(x_i, x_j) = rho^|i-j|)
or sparse binary (i.i.d. Bernoulli placement of 1s at density 1 -
sparsity).

All randomness flows through counter-based Philox streams keyed by
(seed, stream role), so identical scenarios reproduce byte-identical
datasets and replicate streams can be generated independently in any
order (benchmark replicate r uses entropy (master_seed, r)).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace

import numpy as np

from .data import SurvivalDataset
from .bar import fit_bar, BarConfig, _run_jobs
from .screening import sjs_coxbar

__all__ = [
    "SimScenario",
    "SelectionMetrics",
    "MethodConfig",
    "BenchmarkReport",
    "simulate",
    "score",
    "run_benchmark",
    "replicate_seed",
]

_STREAM_DESIGN, _STREAM_EVENT, _STREAM_CENSOR, _STREAM_PILOT = 0, 1, 2, 3
_PILOT_SIZE = 50000
_CALIB_TOL = 0.005     # half a percentage point
_CALIB_MAX_STEPS = 60
_SCENARIO_KEYS = ("n", "p", "beta0", "design", "censoring", "seed")


def _rng(seed, stream):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def replicate_seed(master_seed, rep):
    """Deterministic per-replicate seed derived from the master seed."""
    return int(np.random.SeedSequence((int(master_seed), int(rep))).generate_state(1)[0])


@dataclass
class SimScenario:
    """Generative configuration.

    ``beta0`` may be shorter than p; it is zero-padded.  ``design`` is
    "ar1:RHO" or "binary:SPARSITY" (SPARSITY = fraction of zero entries;
    nonzero entries are 1).
    """

    n: int
    p: int
    beta0: np.ndarray
    design: str = "ar1:0.5"
    censoring: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 0:
            raise ValueError("n must be positive and p nonnegative")
        beta0 = np.asarray(self.beta0, dtype=np.float64).ravel()
        if beta0.shape[0] > self.p:
            raise ValueError("beta0 longer than p")
        full = np.zeros(self.p)
        full[: beta0.shape[0]] = beta0
        bad = np.flatnonzero(~np.isfinite(full))
        if bad.size:
            raise ValueError(f"beta0 coefficient {bad[0] + 1} is {full[bad[0]]}; it must be finite")
        self.beta0 = full
        if not 0.0 <= self.censoring < 1.0:
            raise ValueError("censoring target must lie in [0, 1)")
        self.design_kind, self.design_param = _parse_design(self.design)

    @property
    def true_support(self):
        return np.flatnonzero(self.beta0)

    @classmethod
    def from_config(cls, path):
        """Read a flat key=value scenario file (see README for the syntax);
        an unknown or repeated key raises ValueError naming its line."""
        fields = {}
        with open(path, "rt", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _SCENARIO_KEYS:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                if key in fields:
                    raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
                fields[key] = value.strip()
        missing = set(_SCENARIO_KEYS) - set(fields)
        if missing:
            raise ValueError(f"{path}: missing keys {sorted(missing)}")
        return cls(
            n=int(fields["n"]),
            p=int(fields["p"]),
            beta0=parse_beta_spec(fields["beta0"]),
            design=fields["design"],
            censoring=float(fields["censoring"]),
            seed=int(fields["seed"]),
        )

    def to_config(self, path):
        with open(path, "wt", encoding="utf-8") as fh:
            fh.write(f"n={self.n}\n")
            fh.write(f"p={self.p}\n")
            fh.write("beta0=" + format_beta_spec(self.beta0) + "\n")
            fh.write(f"design={self.design}\n")
            fh.write(f"censoring={repr(float(self.censoring))}\n")
            fh.write(f"seed={self.seed}\n")


def _parse_design(spec):
    kind, _, param = spec.partition(":")
    if kind == "ar1":
        rho = float(param)
        if not -1.0 < rho < 1.0:
            raise ValueError("ar1 correlation must lie in (-1, 1)")
        return kind, rho
    if kind == "binary":
        sparsity = float(param)
        if not 0.0 <= sparsity < 1.0:
            raise ValueError("binary sparsity must lie in [0, 1)")
        return kind, sparsity
    raise ValueError(f"unknown design kind {spec!r}")


def parse_beta_spec(text):
    """Parse "0.2,0,0.35" or block syntax "0.7x10,-0.5x6" (value x count)."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "x" in tok:
            value, _, count = tok.partition("x")
            out.extend([float(value)] * int(count))
        else:
            out.append(float(tok))
    return np.asarray(out)


def format_beta_spec(beta0):
    """Run-length block form of a coefficient vector."""
    beta0 = np.asarray(beta0, dtype=np.float64)
    parts = []
    i = 0
    while i < beta0.shape[0]:
        j = i
        while j < beta0.shape[0] and beta0[j] == beta0[i]:
            j += 1
        run = j - i
        val = repr(float(beta0[i]))
        parts.append(f"{val}x{run}" if run > 1 else val)
        i = j
    return ",".join(parts)


# -- generation ---------------------------------------------------------------


def _ar1_columns(rng, n, n_cols, rho):
    """First n_cols columns of the AR(1) process, column by column."""
    X = np.empty((n, n_cols))
    if n_cols == 0:
        return X
    X[:, 0] = rng.standard_normal(n)
    sd = np.sqrt(1.0 - rho * rho)
    for j in range(1, n_cols):
        X[:, j] = rho * X[:, j - 1] + sd * rng.standard_normal(n)
    return X


def _linear_predictor_pilot(scenario, rng, size):
    """Pilot draws of x.beta0 (only the columns that carry signal)."""
    sup = scenario.true_support
    if sup.size == 0:
        return np.zeros(size)
    if scenario.design_kind == "ar1":
        jmax = int(sup.max()) + 1
        X = _ar1_columns(rng, size, jmax, scenario.design_param)
        return X @ scenario.beta0[:jmax]
    density = 1.0 - scenario.design_param
    eta = np.zeros(size)
    for j in sup:
        eta += scenario.beta0[j] * (rng.random(size) < density)
    return eta


def _calibrate_umax(scenario):
    """u_max such that the expected censoring fraction hits the target.

    Uses the expected fraction conditional on pilot event times,
    E min(T/u, 1), which is exact, monotone in u, and bisectable.
    """
    target = scenario.censoring
    rng = _rng(scenario.seed, _STREAM_PILOT)
    eta = _linear_predictor_pilot(scenario, rng, _PILOT_SIZE)
    t = rng.exponential(size=_PILOT_SIZE) / np.exp(eta)

    def frac(u):
        return float(np.minimum(t / u, 1.0).mean())

    lo, hi = float(np.min(t)) / 2.0, float(np.max(t)) * 2.0
    for _ in range(_CALIB_MAX_STEPS):
        if frac(hi) <= target:
            break
        hi *= 4.0
    else:
        raise ValueError(
            f"censoring calibration failed: achievable range is about "
            f"({frac(hi):.4f}, 1); target {target} unreachable"
        )
    for _ in range(_CALIB_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        f = frac(mid)
        if abs(f - target) <= _CALIB_TOL:
            return mid
        if f > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simulate(scenario):
    """Draw one dataset under the scenario; deterministic given its seed."""
    n, p = scenario.n, scenario.p
    rng_design = _rng(scenario.seed, _STREAM_DESIGN)
    rng_event = _rng(scenario.seed, _STREAM_EVENT)

    if scenario.design_kind == "ar1":
        X = _ar1_columns(rng_design, n, p, scenario.design_param)
        eta = X @ scenario.beta0
    else:
        density = 1.0 - scenario.design_param
        cols = []
        eta = np.zeros(n)
        for j in range(p):
            rows = np.flatnonzero(rng_design.random(n) < density)
            cols.append((rows, np.ones(rows.shape[0])))
            if scenario.beta0[j] != 0.0:
                eta[rows] += scenario.beta0[j]

    t_event = rng_event.exponential(size=n) / np.exp(eta)
    if np.any(t_event <= 0.0):
        raise RuntimeError("degenerate zero event time drawn; change the seed")

    if scenario.censoring == 0.0:
        time, status = t_event, np.ones(n, dtype=np.int8)
    else:
        u_max = _calibrate_umax(scenario)
        c = _rng(scenario.seed, _STREAM_CENSOR).uniform(0.0, u_max, size=n)
        status = (t_event <= c).astype(np.int8)
        time = np.minimum(t_event, c)

    if scenario.design_kind == "ar1":
        return SurvivalDataset.from_dense(time, status, X)
    return SurvivalDataset.from_columns(time, status, cols)


# -- scoring ------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionMetrics:
    """Per-fit selection scores against the generative truth, plus the
    fit's information criteria when ``score`` was given them.

    acr counts true-support coefficients whose rank by |estimate| (within
    the true support) matches their rank by |truth|; ranks use midranks
    for ties.
    """

    ssb: float
    fp: int
    fn: int
    acr: float
    included: np.ndarray
    aic: float = None
    bic: float = None

    @property
    def tm(self):
        """1 when the selected support is exactly the true support."""
        return int(self.fp == 0 and self.fn == 0)


def score(beta_hat, beta_true, *, aic=None, bic=None):
    # scipy.stats takes most of a fresh `import sparsecox`; only scoring needs it
    from scipy.stats import rankdata

    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    beta_true = np.asarray(beta_true, dtype=np.float64)
    if beta_hat.shape != beta_true.shape:
        raise ValueError("coefficient vectors have different lengths")
    ssb = float(np.sum((beta_hat - beta_true) ** 2))
    true_sup = beta_true != 0.0
    est_sup = beta_hat != 0.0
    fp = int(np.count_nonzero(est_sup & ~true_sup))
    fn = int(np.count_nonzero(~est_sup & true_sup))
    if np.any(true_sup):
        r_true = rankdata(np.abs(beta_true[true_sup]))
        r_est = rankdata(np.abs(beta_hat[true_sup]))
        acr = float(np.count_nonzero(r_true == r_est))
    else:
        acr = 0.0
    return SelectionMetrics(ssb=ssb, fp=fp, fn=fn, acr=acr,
                            included=est_sup[true_sup].copy(), aic=aic, bic=bic)


# -- benchmarking -------------------------------------------------------------


@dataclass
class MethodConfig:
    """An estimator to benchmark: a BAR configuration, optionally behind
    a screening stage."""

    name: str
    bar: BarConfig
    screen_m: int = None

    @classmethod
    def from_name(cls, name, lam=None, xi=1.0, screen_m=None):
        base = name.removeprefix("sjs-")
        rule = {"bic-coxbar": "bic", "cbic-coxbar": "cbic", "coxbar": "fixed"}.get(base)
        if rule is None:
            raise ValueError(f"unknown method {name!r}")
        if base != name and screen_m is None:
            raise ValueError("sjs methods need screen_m")
        if base == name and screen_m is not None:
            raise ValueError(f"method {name!r} does not screen; use 'sjs-{name}'")
        if rule == "fixed" and lam is None:
            raise ValueError("method 'coxbar' needs an explicit lambda")
        if rule != "fixed" and lam is not None:
            raise ValueError(f"method {name!r} picks its own lambda")
        cfg = BarConfig(xi=xi, lambda_rule=rule, lambda_value=lam)
        return cls(name=name, bar=cfg, screen_m=screen_m)


@dataclass
class BenchmarkReport:
    method: str
    reps: int
    ssb: float
    fp: float
    fn: float
    tm: float
    acr: float
    aic: float
    bic: float
    mean_runtime_ms: float
    inclusion: dict
    failures: list
    rows: list

    def to_csv(self, path):
        cols = ["method", "reps", "SSB", "FP", "FN", "TM", "ACR", "AIC", "BIC",
                "mean_runtime_ms"]
        cols += [f"incl_{j}" for j in sorted(self.inclusion)]
        cols += ["failures"]
        vals = [self.method, str(self.reps)]
        vals += [_num(v) for v in (self.ssb, self.fp, self.fn, self.tm, self.acr,
                                   self.aic, self.bic, self.mean_runtime_ms)]
        vals += [_num(self.inclusion[j]) for j in sorted(self.inclusion)]
        vals += [str(len(self.failures))]
        with open(path, "wt", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            fh.write(",".join(vals) + "\n")


def _num(v):
    return f"{v:.6g}"


def _run_replicate(scenario, method, rep, master_seed):
    rep_scenario = replace(scenario, beta0=scenario.beta0,
                           seed=replicate_seed(master_seed, rep))
    ds = simulate(rep_scenario)
    t0 = _time.perf_counter()
    if method.screen_m is not None:
        fit = sjs_coxbar(ds, method.screen_m, method.bar)
    else:
        fit = fit_bar(ds, method.bar)
    ms = (_time.perf_counter() - t0) * 1000.0
    return score(fit.beta, scenario.beta0, aic=fit.aic, bic=fit.bic), ms


def run_benchmark(scenario, method, replicates, seed, threads=1):
    """Simulate/fit/score ``replicates`` datasets and aggregate the means.

    A replicate that raises ValueError, OverflowError or RuntimeError is
    recorded on the report as a failure (and counted in the CSV), never
    silently dropped; any other exception propagates.  Results do not
    depend on ``threads``.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    jobs = [(scenario, method, r, seed) for r in range(replicates)]
    results, failures = [], []
    for rep, (payload, exc) in enumerate(_run_jobs(_run_replicate, jobs, threads)):
        if exc is None:
            results.append((rep, *payload))
        else:
            failures.append((rep, f"{type(exc).__name__}: {exc}"))
    if not results:
        raise RuntimeError(f"all {replicates} replicates failed; first: {failures[0][1]}")

    sup = scenario.true_support
    metrics = [m for _, m, _ in results]
    incl = np.mean([m.included for m in metrics], axis=0) if sup.size else np.empty(0)
    report = BenchmarkReport(
        method=method.name,
        reps=replicates,
        ssb=float(np.mean([m.ssb for m in metrics])),
        fp=float(np.mean([m.fp for m in metrics])),
        fn=float(np.mean([m.fn for m in metrics])),
        tm=float(np.mean([m.tm for m in metrics])),
        acr=float(np.mean([m.acr for m in metrics])),
        aic=float(np.mean([m.aic for m in metrics])),
        bic=float(np.mean([m.bic for m in metrics])),
        mean_runtime_ms=float(np.mean([ms for _, _, ms in results])),
        inclusion={int(j) + 1: float(v) for j, v in zip(sup, incl)},
        failures=failures,
        rows=[(r, m) for r, m, _ in results],
    )
    return report
