"""Cyclic coordinate descent for F(beta) = -2*loglik(beta) + sum_j w_j beta_j^2.

Each sweep visits every unfrozen coordinate once and applies a single
Newton step of the restricted objective, written in the stabilized form

    delta = (g1/w_j - beta_j) / (-g2/w_j + 1),

whose denominator is >= 1, so the step degrades gracefully as w_j -> inf
(the new coordinate value goes to exactly zero instead of overflowing).
Steps are clamped by a per-coordinate trust radius adapted as
max(2*|step|, radius/2), and a step is only accepted if the objective does
not increase.  A rejected step is halved until one is accepted, or until
the quadratic model's predicted decrease of the next halved step,

    pred(s) = 2*g1*s + g2*s^2 - w_j*((beta_j + s)^2 - beta_j^2),

is within a few ulps of |F|, where no trial can beat rounding; the visit
is then skipped.  A step that overflows or gives a non-finite objective is
halved without that test, at most max_halvings times.  The recorded
objective trace is therefore non-increasing by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .likelihood import LinearPredictorState

__all__ = ["PenaltySpec", "SolverOptions", "SolverResult", "ccd_minimize"]


class PenaltySpec:
    """Per-coordinate quadratic penalty weights plus frozen flags.

    A frozen coordinate is pinned at exactly 0 (the w_j = +inf limit
    without arithmetic on infinities); its weight entry is ignored.
    """

    def __init__(self, weights, frozen=None):
        weights = np.asarray(weights, dtype=np.float64)
        if frozen is None:
            frozen = np.zeros(weights.shape[0], dtype=bool)
        frozen = np.asarray(frozen, dtype=bool)
        if frozen.shape != weights.shape:
            raise ValueError("weights and frozen flags have different lengths")
        live = ~frozen
        if not np.all(np.isfinite(weights[live])) or np.any(weights[live] < 0.0):
            raise ValueError("penalty weights must be finite and nonnegative")
        self.weights = weights
        self.frozen = frozen

    @classmethod
    def ridge(cls, p, xi):
        if xi < 0:
            raise ValueError("ridge weight must be nonnegative")
        return cls(np.full(p, float(xi)))

    @classmethod
    def unpenalized(cls, p, frozen=None):
        return cls(np.zeros(p), frozen)


@dataclass
class SolverOptions:
    """Tolerances and trust-region constants for ccd_minimize.

    Convergence needs both tests in the same sweep: the objective change
    satisfies |dF| <= tol_obj * (1 + |F|) and the largest applied step
    satisfies max|d beta_j| <= tol_beta.
    """

    max_sweeps: int = 1000
    tol_obj: float = 1e-8
    tol_beta: float = 1e-6
    trust_init: float = 1.0
    trust_expand: float = 2.0
    trust_shrink: float = 0.5
    trust_min: float = 1e-8
    max_halvings: int = 30

    def __post_init__(self):
        for name in ("max_sweeps", "tol_obj", "tol_beta", "trust_init",
                     "trust_expand", "trust_shrink", "trust_min"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SolverResult:
    """One ccd_minimize solve.  ``loglik`` and ``objective`` are recomputed
    from scratch at exit so they agree with ``beta`` under re-evaluation;
    ``trace`` is the objective at the start and after every accepted step."""

    beta: np.ndarray
    loglik: float
    objective: float
    sweeps: int
    converged: bool
    trace: np.ndarray = field(repr=False)

    @property
    def support(self):
        return np.flatnonzero(self.beta)

    @property
    def df(self):
        return int(np.count_nonzero(self.beta))


_EPS_UNPENALIZED = 1e-12  # curvature guard for w_j = 0 coordinates
_ROUNDING_ULPS = 4.0  # predicted decreases within this many ulps of |F| end a visit


def _coord_step(b, g1, g2, w_j):
    """Newton step for one coordinate (module docstring).  At w_j = inf the
    updated coordinate b + step is exactly zero."""
    if w_j > 0.0:
        return (g1 / w_j - b) / (-g2 / w_j + 1.0)
    return g1 / (-g2 + _EPS_UNPENALIZED)


def ccd_minimize(ds, penalty, beta0, opts=None):
    """Minimize -2*loglik + sum_j w_j beta_j^2 by cyclic coordinate descent.

    Parameters
    ----------
    ds : SurvivalDataset
    penalty : PenaltySpec
    beta0 : starting coefficients; frozen coordinates must be zero.
    opts : SolverOptions, optional.

    Returns a SolverResult; ``converged`` is False when max_sweeps ran out
    (not an error).  A non-finite objective that survives every step
    halving raises RuntimeError.
    """
    if opts is None:
        opts = SolverOptions()
    beta0 = np.asarray(beta0, dtype=np.float64)
    if beta0.shape[0] != ds.p:
        raise ValueError("beta0 length does not match p")
    if not np.all(np.isfinite(beta0)):
        raise ValueError("beta0 must be finite")
    if np.any(beta0[penalty.frozen] != 0.0):
        raise ValueError("frozen coordinates must start at zero")

    weights = penalty.weights
    live = np.flatnonzero(~penalty.frozen)
    state = LinearPredictorState(ds, beta0)
    beta = state.beta
    beta[penalty.frozen] = 0.0

    ll_run = state.loglik()
    pen_run = float(np.dot(weights[live], beta[live] ** 2))
    f_last = -2.0 * ll_run + pen_run
    trace = [f_last]
    radius = np.full(ds.p, opts.trust_init)

    converged = False
    sweep = 0
    for sweep in range(1, opts.max_sweeps + 1):
        state.refresh()
        ll_run = state.loglik()
        pen_run = float(np.dot(weights[live], beta[live] ** 2))
        f_sweep_start = f_last
        max_step = 0.0

        for j in live:
            b = beta[j]
            g1, g2 = state.coord_derivatives(j)
            w_j = weights[j]
            step = _coord_step(b, g1, g2, w_j)
            r = radius[j]
            if step > r:
                step = r
            elif step < -r:
                step = -r
            if step == 0.0:
                radius[j] = max(r * opts.trust_shrink, opts.trust_min)
                continue

            applied = 0.0
            saw_finite = False
            for _ in range(opts.max_halvings + 1):
                trial = state.probe_coord_update(j, step)
                rejected_finite = False
                if trial is not None:
                    d_pen = w_j * ((b + step) ** 2 - b * b)
                    f_new = -2.0 * (ll_run + trial.loglik_delta) + (pen_run + d_pen)
                    if np.isfinite(f_new):
                        saw_finite = True
                        if f_new <= f_last:
                            state.commit(trial)
                            ll_run += trial.loglik_delta
                            pen_run += d_pen
                            f_last = f_new
                            trace.append(f_new)
                            applied = step
                            break
                        rejected_finite = True
                step *= 0.5
                if step == 0.0:
                    break
                if rejected_finite:
                    pred = 2.0 * g1 * step + g2 * step * step - w_j * ((b + step) ** 2 - b * b)
                    if pred <= _ROUNDING_ULPS * math.ulp(f_last):
                        break
            if applied == 0.0 and not saw_finite:
                raise RuntimeError(
                    f"non-finite objective for coordinate {j + 1} after step halvings"
                )
            mag = abs(applied)
            if mag > max_step:
                max_step = mag
            radius[j] = max(opts.trust_expand * mag, r * opts.trust_shrink, opts.trust_min)

        obj_ok = abs(f_sweep_start - f_last) <= opts.tol_obj * (1.0 + abs(f_sweep_start))
        if obj_ok and max_step <= opts.tol_beta:
            converged = True
            break

    # report from a clean re-evaluation so the result is self-consistent
    state.refresh()
    loglik = state.loglik()
    objective = -2.0 * loglik + float(np.dot(weights[live], beta[live] ** 2))
    return SolverResult(beta=beta.copy(), loglik=loglik, objective=objective, sweeps=sweep,
                        converged=converged, trace=np.asarray(trace))
