"""Joint covariate screening by sparsity-restricted partial-likelihood
maximization (iterative hard thresholding), and the two-stage screen-then-BAR
estimator for p >> n.

Each round takes a gradient step on the log-partial likelihood, keeps the m
largest coordinates (ties go to the smaller column index), and debiases the
kept set with an unpenalized coordinate-descent refit.  The step size is the
inverse of the largest per-coordinate curvature at the start (the classical
safe ascent step); a round whose refit cannot be evaluated falls back to
halved steps.  Iteration stops when the kept set repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .likelihood import LinearPredictorState
from .solver import PenaltySpec, SolverOptions, ccd_minimize

__all__ = ["ScreenOptions", "ScreenResult", "sjs_screen", "sjs_coxbar"]


@dataclass
class ScreenOptions:
    max_iter: int = 50
    max_halvings: int = 40
    solver: SolverOptions = field(default_factory=SolverOptions)


@dataclass
class ScreenResult:
    """Kept column indices (ascending), the restricted estimate over the
    full coordinate space, rounds used, and whether the kept set settled."""

    selected: np.ndarray
    beta: np.ndarray
    iterations: int
    converged: bool


def _top_m(values, m):
    """Indices of the m largest |values|; equal magnitudes keep the smaller index."""
    mag = np.abs(values)
    order = np.lexsort((np.arange(mag.shape[0]), -mag))
    return np.sort(order[:m])


def _restricted_loglik(ds, beta):
    try:
        return LinearPredictorState(ds, beta).loglik()
    except OverflowError:
        return -np.inf


def _polish(ds, keep, start, start_ll, opts):
    """Unpenalized coordinate-descent refit restricted to the kept set.
    Returns None when the start point is too extreme to refit."""
    frozen = np.ones(ds.p, dtype=bool)
    frozen[keep] = False
    try:
        fit = ccd_minimize(ds, PenaltySpec.unpenalized(ds.p, frozen), start, opts.solver)
    except (RuntimeError, OverflowError):
        return None
    if fit.loglik < start_ll - 1e-8 * (1.0 + abs(start_ll)):
        raise RuntimeError("polish decreased the likelihood")
    return fit


def sjs_screen(ds, m, opts=None):
    """Screen down to at most m columns (see module docstring).

    A round in which no halved step yields a refittable kept set stalls:
    the previous set is returned with converged = False.
    """
    if opts is None:
        opts = ScreenOptions()
    m = int(m)
    if not 1 <= m <= ds.p:
        raise ValueError(f"m must lie in [1, p]; got m={m}, p={ds.p}")
    if ds.event_count < 1:
        raise ValueError("screening requires at least one event")

    beta = np.zeros(ds.p)
    state = LinearPredictorState(ds, beta)
    curvature = max((-state.coord_derivatives(j)[1] for j in range(ds.p)), default=0.0)
    eta0 = 1.0 / curvature if curvature > 0.0 else 1.0

    prev_keep = None
    converged = False
    it = 0
    for it in range(1, opts.max_iter + 1):
        grad = LinearPredictorState(ds, beta).full_gradient()
        eta = eta0
        accepted = None
        keep = None
        for _ in range(opts.max_halvings + 1):
            keep = _top_m(beta + eta * grad, m)
            trial = np.zeros(ds.p)
            trial[keep] = (beta + eta * grad)[keep]
            trial_ll = _restricted_loglik(ds, trial)
            if np.isfinite(trial_ll):
                fit = _polish(ds, keep, trial, trial_ll, opts)
                if fit is not None:
                    accepted = fit
                    break
            eta *= 0.5
        if accepted is None:
            sel = prev_keep if prev_keep is not None else _top_m(beta, m)
            return ScreenResult(selected=np.asarray(sel, dtype=np.int64), beta=beta,
                                iterations=it, converged=False)
        beta = accepted.beta
        if prev_keep is not None and np.array_equal(keep, prev_keep):
            converged = True
            break
        prev_keep = keep

    selected = np.flatnonzero(beta)
    if selected.size == 0:
        # degenerate (e.g. empty design): fall back to the thresholded set
        selected = prev_keep if prev_keep is not None else _top_m(beta, m)
    return ScreenResult(selected=np.asarray(selected, dtype=np.int64), beta=beta,
                        iterations=it, converged=converged)


def sjs_coxbar(ds, m, config=None, opts=None):
    """Two-stage estimator: screen to at most m columns, fit BAR on the
    screened columns (a no-copy column view), re-embed with exact zeros
    off the screened set.  The result carries the screen on ``screen``."""
    # looked up in .bar on each call, so a wrapper installed there
    # (perfbench/tracer.py) sees the BAR stage
    from .bar import fit_bar

    screen = sjs_screen(ds, m, opts)
    fit = fit_bar(ds.select_columns(screen.selected), config)
    beta = np.zeros(ds.p)
    beta[screen.selected] = fit.beta
    return replace(fit, beta=beta, converged=fit.converged and screen.converged, screen=screen)
