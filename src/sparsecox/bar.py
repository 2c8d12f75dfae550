"""Broken-adaptive-ridge (BAR) fitting: sparse Cox regression by iteratively
reweighted L2-penalized partial-likelihood optimization.

The estimator starts from a plain ridge fit (uniform weight xi), then
repeatedly re-solves with per-coordinate weights lam / (2 beta_j^2) taken
from the previous iterate (a Gaussian prior with variance beta_j^2 / lam
against the deviance), warm-starting each solve.  Coordinates whose
magnitude falls below ``BarConfig.zero_threshold`` are locked to exact zero
and never revisited, so the active space only shrinks.  The loop stops once
an outer iteration moves every coefficient by less than _OUTER_TOL or locks
them all, or after _OUTER_MAX iterations.  The limit is a local optimizer of
an L0-type criterion; lam = ln(n) or ln(#events) makes that criterion BIC or
censored BIC, which is why those two presets need no data-driven tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .solver import PenaltySpec, ccd_minimize, newton_ridge
from .likelihood import LinearPredictorState
from .data import MODE_CENTER_SCALE

__all__ = [
    "BarConfig",
    "BarFit",
    "PathResult",
    "GroupingReport",
    "fit_ridge",
    "fit_bar",
    "information_criteria",
    "path_over",
    "grouping_bound_check",
]

_LAMBDA_RULES = ("fixed", "bic", "cbic")
_OUTER_MAX = 200
_OUTER_TOL = 1e-6
_GROUPING_TOL = 1e-6  # see GroupingReport


@dataclass
class BarConfig:
    """Tuning for the reweighted-ridge outer loop.

    lambda_rule: "bic" (lam = ln n), "cbic" (lam = ln #events) or "fixed"
    (lambda_value); a lambda search is ``path_over(ds, "lambda", grid)``
    and an argmin over its fits.  xi and lambda_value must be finite.
    """

    xi: float = 1.0
    lambda_rule: str = "bic"
    lambda_value: float = None
    zero_threshold: ClassVar[float] = 1e-8  # |beta_j| below this locks j at exact 0

    def __post_init__(self):
        if not 0.0 < self.xi < math.inf:
            raise ValueError("xi must be positive and finite")
        if self.lambda_rule not in _LAMBDA_RULES:
            raise ValueError(f"unknown lambda rule {self.lambda_rule!r}")
        if self.lambda_rule == "fixed":
            if self.lambda_value is None or not 0.0 <= self.lambda_value < math.inf:
                raise ValueError("fixed rule needs a nonnegative, finite lambda_value")

    def resolve_lambda(self, ds):
        if self.lambda_rule == "bic":
            return math.log(ds.n)
        if self.lambda_rule == "cbic":
            if ds.event_count < 2:  # ln 1 = 0 would silently leave the fit unpenalized
                raise ValueError("cbic rule needs at least two events")
            return math.log(ds.event_count)
        return float(self.lambda_value)


@dataclass(frozen=True)
class BarFit:
    """One BAR fit.  ``loglik`` is evaluated at the zero-locked ``beta``;
    ``sweeps`` counts the Newton iterations of the ridge start plus the
    coordinate sweeps of every outer solve.  ``screen`` is the ScreenResult
    of the screening stage for a two-stage fit, None otherwise."""

    beta: np.ndarray
    loglik: float
    sweeps: int
    outer_iterations: int
    converged: bool
    lam: float
    aic: float
    bic: float
    cbic: float
    screen: object = field(repr=False, default=None)

    @property
    def support(self):
        return np.flatnonzero(self.beta)

    @property
    def df(self):
        return int(np.count_nonzero(self.beta))


@dataclass
class PathResult:
    """Fits along an ascending tuning grid (lambda or xi)."""

    tunings: np.ndarray
    fits: list
    errors: list

    def to_csv(self, path):
        p = max((f.beta.shape[0] for f in self.fits if f is not None), default=0)
        header = ["tuning", "converged", "df", "loglik", "aic", "bic", "cbic"]
        header += [f"beta_{j + 1}" for j in range(p)]
        with open(path, "wt", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for t, fit in zip(self.tunings, self.fits):
                if fit is None:
                    row = [f"{t:.17g}", "0"] + ["nan"] * (5 + p)
                else:
                    row = [f"{t:.17g}", "1" if fit.converged else "0", str(fit.df)]
                    row += [f"{v:.17g}" for v in (fit.loglik, fit.aic, fit.bic, fit.cbic)]
                    row += [f"{v:.17g}" for v in fit.beta]
                fh.write(",".join(row) + "\n")


def information_criteria(loglik, df, n, event_count):
    """(aic, bic, cbic) scores: -2*loglik + penalty * df with penalties
    2, ln(n) and ln(#events)."""
    base = -2.0 * loglik
    return (base + 2.0 * df,
            base + math.log(n) * df,
            base + math.log(event_count) * df)


def fit_ridge(ds, xi):
    """Cox ridge fit with uniform weight xi, started from beta = 0 and solved
    by truncated Newton (``solver.newton_ridge``): ``sweeps`` on the result
    counts Newton iterations."""
    if not 0.0 < xi < math.inf:
        raise ValueError("xi must be positive and finite")
    return newton_ridge(ds, float(xi))


def fit_bar(ds, config=None):
    """Fit the BAR estimator (see module docstring).

    Non-convergence, of the outer loop within _OUTER_MAX reweighting steps
    or of any inner solve (ridge start included), is flagged on the result,
    not raised.  Every reported zero coefficient is bit-exact 0, and the
    support can only shrink across outer iterations; an inner solve that
    revives a locked coordinate raises RuntimeError.
    """
    if config is None:
        config = BarConfig()
    if ds.event_count < 1:
        raise ValueError("fitting requires at least one event")

    lam = config.resolve_lambda(ds)
    zeta = config.zero_threshold

    ridge = fit_ridge(ds, config.xi)
    beta = ridge.beta
    frozen = np.abs(beta) < zeta
    beta[frozen] = 0.0
    sweeps_total = ridge.sweeps
    inner_converged = ridge.converged

    converged = False
    outer = 0
    for outer in range(1, _OUTER_MAX + 1):
        weights = np.zeros(ds.p)
        live = ~frozen
        # Gaussian-prior reweighting: penalty lam * b^2 / (2 prev^2), i.e.
        # prior variance prev^2 / lam against the deviance.  The factor 2
        # matters: without it the ln(n) preset over-thresholds weak signals
        # instead of selecting like a BIC rule; see README.
        weights[live] = 0.5 * lam / beta[live] ** 2
        inner = ccd_minimize(ds, PenaltySpec(weights, frozen), beta)
        sweeps_total += inner.sweeps
        inner_converged = inner_converged and inner.converged
        change = float(np.max(np.abs(inner.beta - beta))) if ds.p else 0.0
        beta = inner.beta
        newly = np.abs(beta) < zeta
        if np.any(frozen & ~newly):
            raise RuntimeError("support grew across outer iterations")
        frozen = newly
        beta[frozen] = 0.0
        if change < _OUTER_TOL:
            converged = True
            break
        if np.all(frozen):
            converged = True
            break

    # re-evaluate at the zero-locked vector so loglik matches beta
    loglik = LinearPredictorState(ds, beta).loglik()
    aic, bic, cbic = information_criteria(loglik, int(np.count_nonzero(beta)), ds.n,
                                          ds.event_count)
    return BarFit(beta=beta.copy(), loglik=loglik, sweeps=sweeps_total,
                  outer_iterations=outer, converged=converged and inner_converged, lam=lam,
                  aic=aic, bic=bic, cbic=cbic)


def _guarded(task):
    fn, args = task
    try:
        return fn(*args), None
    except (ValueError, OverflowError, RuntimeError) as exc:  # a failed job, not a bug
        return None, exc


def _run_jobs(fn, jobs, threads):
    """``fn(*job)`` for every job, serially or on ``threads`` worker
    processes, as (result, None) pairs in job order.  A ValueError,
    OverflowError or RuntimeError gives (None, exc); any other exception
    propagates.  ``fn`` must be a module-level function."""
    tasks = [(fn, job) for job in jobs]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_guarded, tasks))
    return [_guarded(task) for task in tasks]


def _fit_point(ds, axis, value, config):
    if axis == "lambda":
        config = replace(config, lambda_rule="fixed", lambda_value=value)
    else:
        config = replace(config, xi=value)
    return fit_bar(ds, config)


def path_over(ds, axis, grid, config=None, threads=1):
    """One BAR fit per grid point, varying lambda or xi (other tuning fixed).

    A ValueError, OverflowError or RuntimeError at a grid point is recorded
    and the path continues; any other exception propagates.
    Grid points may be fit by a worker pool; results do not depend on
    ``threads``.
    """
    if axis not in ("lambda", "xi"):
        raise ValueError("axis must be 'lambda' or 'xi'")
    if config is None:
        config = BarConfig()
    grid = np.asarray([float(v) for v in grid])
    if grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be nonempty, finite and strictly ascending")
    if axis == "xi" and np.any(grid <= 0):
        raise ValueError("xi grid values must be positive")
    outcomes = _run_jobs(_fit_point, [(ds, axis, float(v), config) for v in grid], threads)
    return PathResult(tunings=grid, fits=[f for f, _ in outcomes],
                      errors=[None if e is None else str(e) for _, e in outcomes])


@dataclass
class GroupingReport:
    """Pairwise check of the correlated-covariate bound

        |1/b_i - 1/b_j| <= sqrt(2 (n-1)(1-r_ij)) * sqrt(n) * (1+d_n) / lam

    over nonzero coefficient pairs.  The comparison is done on the
    coefficient-difference scale, |b_i - b_j| <= |b_i b_j| * bound + 1e-6,
    with an absolute slack for finite solver precision; duplicated columns
    (r = 1) therefore require |b_i - b_j| <= 1e-6.
    """

    pairs: list
    violations: list

    @property
    def ok(self):
        return not self.violations


def grouping_bound_check(fit, ds, lam):
    """Diagnostic for a converged fit on center-and-scale data; see
    GroupingReport for the inequality checked."""
    if ds.design.standardization != MODE_CENTER_SCALE:
        raise ValueError("grouping check requires a center-and-scale standardized dataset")
    if lam <= 0:
        raise ValueError("lam must be positive")
    sup = fit.support
    n, d_n = ds.n, ds.event_count
    cols = {int(j): ds.design.dense_column(int(j)) for j in sup}
    pairs, violations = [], []
    for a in range(sup.shape[0]):
        for b in range(a + 1, sup.shape[0]):
            i, j = int(sup[a]), int(sup[b])
            r = float(np.dot(cols[i], cols[j])) / (n - 1)
            r = min(max(r, -1.0), 1.0)
            bound = math.sqrt(2.0 * (n - 1) * (1.0 - r)) * math.sqrt(n) * (1.0 + d_n) / lam
            bi, bj = fit.beta[i], fit.beta[j]
            lhs = abs(bi - bj)
            rhs = abs(bi * bj) * bound + _GROUPING_TOL
            rec = (i, j, r, lhs, rhs)
            pairs.append(rec)
            if lhs > rhs:
                violations.append(rec)
    return GroupingReport(pairs=pairs, violations=violations)
