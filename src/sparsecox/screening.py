"""Joint covariate screening by sparsity-restricted partial-likelihood
maximization (iterative hard thresholding), and the two-stage screen-then-BAR
estimator for p >> n.

Each round takes a gradient step on the log-partial likelihood, keeps the m
largest coordinates (ties go to the smaller column index), and debiases the
kept set with an unpenalized coordinate-descent refit.  The step size is the
inverse of the largest per-coordinate curvature at the start (the classical
safe ascent step); a round whose refit cannot be evaluated falls back to
at most _MAX_HALVINGS halved steps.  Iteration stops when the kept set
repeats, or after _MAX_ROUNDS rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .likelihood import LinearPredictorState
from .solver import ccd_minimize

__all__ = ["ScreenResult", "sjs_screen", "sjs_coxbar"]

_MAX_ROUNDS = 50
_MAX_HALVINGS = 40


@dataclass
class ScreenResult:
    """Kept column indices (ascending), the restricted estimate over the
    full coordinate space, rounds used, and whether the kept set settled
    with every accepted refit converged."""

    selected: np.ndarray
    beta: np.ndarray
    iterations: int
    converged: bool


def _top_m(values, m):
    """Indices of the m largest |values|; equal magnitudes keep the smaller index."""
    mag = np.abs(values)
    order = np.lexsort((np.arange(mag.shape[0]), -mag))
    return np.sort(order[:m])


def _polish(ds, keep, start):
    """Unpenalized coordinate-descent refit restricted to the kept set.
    Returns None when the start point is too extreme to refit."""
    weights = np.full(ds.p, np.inf)  # +inf freezes every column off the kept set
    weights[keep] = 0.0
    try:
        fit = ccd_minimize(ds, weights, start)
    except (RuntimeError, OverflowError):
        return None
    start_ll = -0.5 * fit.trace[0]  # exact: the penalty is zero
    if fit.loglik < start_ll - 1e-8 * (1.0 + abs(start_ll)):
        raise RuntimeError("polish decreased the likelihood")
    return fit


def sjs_screen(ds, m):
    """Screen down to at most m columns (see module docstring).

    A round in which no halved step yields a refittable kept set stalls:
    the previous set is returned with converged = False.  A refit that
    stops at the solver's sweep limit also leaves converged False.
    """
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
    settled = False
    polished = True  # every accepted refit converged
    it = 0
    for it in range(1, _MAX_ROUNDS + 1):
        grad = LinearPredictorState(ds, beta).full_gradient()
        eta = eta0
        for _ in range(_MAX_HALVINGS + 1):
            keep = _top_m(beta + eta * grad, m)
            trial = np.zeros(ds.p)
            trial[keep] = (beta + eta * grad)[keep]
            accepted = _polish(ds, keep, trial)
            if accepted is not None:
                break
            eta *= 0.5
        if accepted is None:
            sel = prev_keep if prev_keep is not None else _top_m(beta, m)
            return ScreenResult(selected=np.asarray(sel, dtype=np.int64), beta=beta,
                                iterations=it, converged=False)
        beta = accepted.beta
        polished = polished and accepted.converged
        if prev_keep is not None and np.array_equal(keep, prev_keep):
            settled = True
            break
        prev_keep = keep

    selected = np.flatnonzero(beta)
    if selected.size == 0:
        # degenerate (e.g. empty design): fall back to the thresholded set
        selected = prev_keep if prev_keep is not None else _top_m(beta, m)
    return ScreenResult(selected=np.asarray(selected, dtype=np.int64), beta=beta,
                        iterations=it, converged=settled and polished)


def sjs_coxbar(ds, m, config=None):
    """Two-stage estimator: screen to at most m columns, fit BAR on a copy
    of the screened columns (``select_columns``), re-embed with exact zeros
    off the screened set.  The result carries the screen on ``screen``."""
    # looked up in .bar on each call, so a wrapper installed there
    # (perfbench/tracer.py) sees the BAR stage
    from .bar import fit_bar

    screen = sjs_screen(ds, m)
    fit = fit_bar(ds.select_columns(screen.selected), config)
    beta = np.zeros(ds.p)
    beta[screen.selected] = fit.beta
    return replace(fit, beta=beta, converged=fit.converged and screen.converged, screen=screen)
