"""Minimizers of F(beta) = -2*loglik(beta) + sum_j w_j beta_j^2: cyclic
coordinate descent for any weights and frozen set, and a truncated Newton
solve for the uniform ridge weight xi started at zero.

Coordinate descent.

Each sweep visits every unfrozen coordinate once and applies a single
Newton step of the restricted objective, written in the stabilized form

    delta = (g1/w_j - beta_j) / (-g2/w_j + 1),

whose denominator is >= 1, so the step degrades gracefully as w_j -> inf
(the new coordinate value goes to exactly zero instead of overflowing).
Steps are clipped to +-_MAX_STEP, and a step is only accepted if the
objective does not increase.  A rejected step is halved until one is
accepted, or until the quadratic model's predicted decrease of the next
halved step,

    pred(s) = 2*g1*s + g2*s^2 - w_j*((beta_j + s)^2 - beta_j^2),

is within a few ulps of |F|, where no trial can beat rounding; the visit
is then skipped.  A step that overflows or gives a non-finite objective is
halved without that test, at most _MAX_HALVINGS times.  The recorded
objective trace is therefore non-increasing by construction.

A solve converges when one sweep satisfies both |dF| <= _TOL_OBJ * (1 + |F|)
and max|d beta_j| <= _TOL_BETA, and gives up after _MAX_SWEEPS sweeps.

Truncated Newton (ridge).  Each iteration solves (2 H + 2 xi I) d = -grad F,
with H v from ``LinearPredictorState.hvp``, by conjugate gradients stopped
at the Eisenstat-Walker forcing term (Eisenstat & Walker, SIAM J. Sci.
Comput. 1996), and backtracks from the full step until the Armijo condition
holds on the state's ``probe_step``, whose exact log-likelihood change stays
resolved where F itself does not; a step it refuses for overflow or with a
non-finite decrease is rejected.  The solve converges when ||grad F|| <=
_NEWTON_GTOL * max(1, ||grad F(0)||) and gives up after _NEWTON_MAX iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .likelihood import LinearPredictorState

__all__ = ["PenaltySpec", "SolverResult", "ccd_minimize", "newton_ridge"]


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


@dataclass(frozen=True)
class SolverResult:
    """One solve.  ``loglik`` and ``objective`` are recomputed from scratch
    at exit so they agree with ``beta`` under re-evaluation; ``trace`` is the
    objective at the start and after every accepted step; ``sweeps`` counts
    coordinate sweeps (ccd_minimize) or Newton iterations (newton_ridge)."""

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


_MAX_SWEEPS = 1000
_TOL_OBJ = 1e-8
_TOL_BETA = 1e-6
_MAX_STEP = 1.0  # largest first trial step of a coordinate visit
_MAX_HALVINGS = 30
_EPS_UNPENALIZED = 1e-12  # curvature guard for w_j = 0 coordinates
_ROUNDING_ULPS = 4.0  # predicted decreases within this many ulps of |F| end a visit
_NEWTON_MAX = 100
_NEWTON_GTOL = 1e-9
_ARMIJO = 1e-4  # fraction of the directional derivative a step must achieve


def _coord_step(b, g1, g2, w_j):
    """Newton step for one coordinate (module docstring).  At w_j = inf the
    updated coordinate b + step is exactly zero."""
    if w_j > 0.0:
        return (g1 / w_j - b) / (-g2 / w_j + 1.0)
    return g1 / (-g2 + _EPS_UNPENALIZED)


def ccd_minimize(ds, penalty, beta0):
    """Minimize -2*loglik + sum_j w_j beta_j^2 by cyclic coordinate descent.

    Parameters
    ----------
    ds : SurvivalDataset
    penalty : PenaltySpec
    beta0 : starting coefficients; frozen coordinates must be zero.

    Returns a SolverResult; ``converged`` is False when _MAX_SWEEPS ran out
    (not an error).  A non-finite objective that survives every step
    halving raises RuntimeError.
    """
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
    pen_run = float((weights[live] * beta[live] ** 2).sum())
    f_last = -2.0 * ll_run + pen_run
    trace = [f_last]

    converged = False
    sweep = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        state.refresh()
        ll_run = state.loglik()
        pen_run = float((weights[live] * beta[live] ** 2).sum())
        f_sweep_start = f_last
        max_step = 0.0

        for j in live:
            b = beta[j]
            g1, g2 = state.coord_derivatives(j)
            w_j = weights[j]
            step = min(max(_coord_step(b, g1, g2, w_j), -_MAX_STEP), _MAX_STEP)
            if step == 0.0:
                continue

            applied = 0.0
            saw_finite = False
            for _ in range(_MAX_HALVINGS + 1):
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

        obj_ok = abs(f_sweep_start - f_last) <= _TOL_OBJ * (1.0 + abs(f_sweep_start))
        if obj_ok and max_step <= _TOL_BETA:
            converged = True
            break

    # report from a clean re-evaluation so the result is self-consistent
    state.refresh()
    loglik = state.loglik()
    objective = -2.0 * loglik + float((weights[live] * beta[live] ** 2).sum())
    return SolverResult(beta=beta.copy(), loglik=loglik, objective=objective, sweeps=sweep,
                        converged=converged, trace=np.asarray(trace))


def _norm(v):
    return math.sqrt(float((v * v).sum()))


def _conjugate_gradients(state, xi, grad, target):
    """d with ||(2 H + 2 xi I) d + grad|| <= target, or the last conjugate
    gradient iterate after p of them."""
    d = np.zeros_like(grad)
    r = -grad
    direction = r.copy()
    rr = float((r * r).sum())
    for _ in range(grad.shape[0]):
        a_dir = state.hvp(direction)
        a_dir += xi * direction
        a_dir *= 2.0
        curv = float((direction * a_dir).sum())
        if not curv > 0.0:
            break
        alpha = rr / curv
        d += alpha * direction
        r -= alpha * a_dir
        rr_next = float((r * r).sum())
        if math.sqrt(rr_next) <= target:
            break
        direction *= rr_next / rr
        direction += r
        rr = rr_next
    return d


def newton_ridge(ds, xi):
    """Minimize -2*loglik + xi*||beta||^2 from beta = 0 by truncated Newton
    (module docstring).  Returns a SolverResult whose ``sweeps`` counts
    Newton iterations; ``converged`` is False when _NEWTON_MAX ran out or no
    halved step met the Armijo condition."""
    state = LinearPredictorState(ds, np.zeros(ds.p))
    beta = state.beta
    f = -2.0 * state.loglik()
    trace = [f]
    grad = 2.0 * (xi * beta - state.full_gradient())
    gnorm = _norm(grad)
    tol = _NEWTON_GTOL * max(1.0, gnorm)
    forcing = 0.5
    converged = gnorm <= tol
    iteration = 0
    while not converged and iteration < _NEWTON_MAX:
        iteration += 1
        step = _conjugate_gradients(state, xi, grad, max(forcing * gnorm, 0.5 * tol))
        u = state.times(step)
        slope = float((grad * step).sum())
        pen_lin, pen_quad = 2.0 * float((beta * step).sum()), float((step * step).sum())
        t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = state.probe_step(step, u, t)
            if trial is not None:
                df = -2.0 * trial.loglik_delta + xi * t * (pen_lin + t * pen_quad)
                if math.isfinite(df) and df <= _ARMIJO * t * slope:
                    break
            t *= 0.5
        else:
            break  # no halved step decreases F: report the solve unconverged
        state.commit_step(trial)
        f += df
        trace.append(f)
        grad = 2.0 * (xi * beta - state.full_gradient())
        gnorm, previous = _norm(grad), gnorm
        converged = gnorm <= tol
        # Eisenstat-Walker choice 2 (gamma 0.9, alpha 2), safeguarded
        floor = 0.9 * forcing * forcing
        forcing = min(0.5, 0.9 * (gnorm / previous) ** 2)
        if floor > 0.1:
            forcing = max(forcing, floor)

    state = LinearPredictorState(ds, beta)
    loglik = state.loglik()
    objective = -2.0 * loglik + xi * float((beta * beta).sum())
    return SolverResult(beta=beta.copy(), loglik=loglik, objective=objective,
                        sweeps=iteration, converged=converged, trace=np.asarray(trace))
