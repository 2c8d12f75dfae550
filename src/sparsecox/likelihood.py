"""The Cox log-partial likelihood state that every solver drives.

All quantities are evaluated in the dataset's descending-time order, where
each event's risk set is the prefix ending at ``event_end``.  Writing
D_e for the prefix sum of w = exp(eta) at an event's risk-set end,
A_e / B_e for the prefix sums of x*w / x^2*w over a column's nonzero
entries, the unpenalized log-partial likelihood and its coordinate
derivatives are

    ll   = sum_events eta_e - ln D_e                     (Breslow ties)
    g1_j = sum_events x_ej - A_e / D_e
    g2_j = -sum_events [ B_e/D_e - (A_e/D_e)^2 ]         (always <= 0)

Per column the scan touches only the nonzero entries plus the events at or
after the first nonzero, so an all-zero suffix of a column costs nothing.
The per-column event offsets come from the dataset's read-only
``column_scans``, built once per dataset.

The state also gives the score and Hessian-vector products in O(nnz + n)
each, from the design's own products X v and X^T z.  Writing u = X v,
Lambda_i = sum_{e: i <= end_e} 1/D_e, S_e = sum_{k <= end_e} w_k u_k and
C_i = sum_{e: i <= end_e} S_e / D_e^2,

    score = X^T (delta - w * Lambda)
    H v   = X^T (w * (Lambda * u - C))          (H: Hessian of -ll)

A coordinate probe and a whole-vector probe (beta + t * delta) both give
the exact log-likelihood change, as log1p of the denominator ratios, or
None past the overflow limit; each has its own commit.

Every reduction is numpy's own, never a BLAS call, so no result depends on
the BLAS thread count.  Penalty terms are the solver's business, never
added here.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

__all__ = ["LinearPredictorState"]


def eta_limit(n):
    """Largest |eta| for which a prefix sum of n terms exp(eta) stays finite."""
    return 700.0 - float(np.log(n + 1.0))


# beta[j] + delta, uncommitted; new_eta is None when the step moves no eta
_CoordTrial = namedtuple("_CoordTrial", "j delta new_eta new_w patch loglik_delta")
_StepTrial = namedtuple("_StepTrial", "step new_eta loglik_delta")  # beta + step, uncommitted


class LinearPredictorState:
    """Per-subject linear predictors and the risk-set denominators at the
    events, for one beta.  Owned by a single solver worker.
    """

    def __init__(self, ds, beta):
        beta = np.array(beta, dtype=np.float64)
        if beta.shape[0] != ds.p:
            raise ValueError(f"beta has length {beta.shape[0]}, expected p={ds.p}")
        if not np.all(np.isfinite(beta)):
            raise ValueError("non-finite coefficient")
        self.ds = ds
        self.beta = beta
        self.eta_limit = eta_limit(ds.n)
        eta = ds.design.times(beta)
        bad = np.flatnonzero(~(np.abs(eta) <= self.eta_limit))  # NaN too
        if bad.size:
            subject = int(ds.order[bad[0]])
            raise OverflowError(
                f"linear predictor overflow for subject {subject + 1} (eta={eta[bad[0]]:.3g})"
            )
        self.eta = eta
        self.w = np.exp(eta)
        self.refresh()

    # -- evaluation -------------------------------------------------------

    def loglik(self):
        ds = self.ds
        if ds.event_count == 0:
            return 0.0
        return float(self.eta[ds.event_pos].sum() - np.log(self.denom_at_events).sum())

    def coord_derivatives(self, j):
        """(g1, g2) of the log-partial likelihood for coordinate j."""
        ds = self.ds
        pos, val, ev_lo, ev_idx, sum_delta_x = ds.column_scans[j]
        if ev_lo >= ds.event_pos.shape[0]:  # also every empty column
            return 0.0, 0.0
        aw = val * self.w[pos]
        cum_a = np.cumsum(aw)
        cum_b = np.cumsum(val * aw)
        sel = ev_idx - 1
        d = self.denom_at_events[ev_lo:]
        r = cum_a[sel] / d
        g1 = sum_delta_x - float(r.sum())
        g2 = float((r * r).sum() - (cum_b[sel] / d).sum())
        # exact math gives a per-event variance >= 0; clamp rounding residue
        return g1, min(g2, 0.0)

    def full_gradient(self):
        """The score: g1 of every coordinate (module docstring)."""
        r = self.w * self._at_risk(1.0 / self.denom_at_events)
        np.negative(r, out=r)
        r[self.ds.event_pos] += 1.0
        return self.ds.design.transpose_times(r)

    def hvp(self, v):
        """Hessian of -loglik times v (module docstring)."""
        u = self.ds.design.times(v)
        per_event = np.cumsum(self.w * u)[self.ds.event_end] / self.denom_at_events
        per_event /= self.denom_at_events
        z = self._at_risk(per_event)
        np.subtract(self._at_risk(1.0 / self.denom_at_events) * u, z, out=z)
        z *= self.w
        return self.ds.design.transpose_times(z)

    def _at_risk(self, per_event):
        """sum_{e: i <= end_e} per_event[e] for every sorted position i."""
        acc = np.bincount(self.ds.event_end, weights=per_event, minlength=self.ds.n)
        rev = acc[::-1]
        np.cumsum(rev, out=rev)
        return acc

    # -- updates ----------------------------------------------------------

    def probe_coord_update(self, j, delta):
        """Evaluate a coordinate step without committing it.

        Returns a trial carrying the exact log-likelihood change, or None
        when a new |eta| is past the overflow limit or not a number.
        """
        ds = self.ds
        pos, val, ev_lo, ev_idx, sum_delta_x = ds.column_scans[j]
        if pos.shape[0] == 0 or delta == 0.0:
            return _CoordTrial(j, delta, None, None, None, 0.0)
        new_eta = self.eta[pos] + delta * val
        if not np.abs(new_eta).max() <= self.eta_limit:
            return None
        new_w = np.exp(new_eta)
        patch = np.cumsum(new_w - self.w[pos])[ev_idx - 1]
        if ev_lo < ds.event_pos.shape[0]:
            d_old = self.denom_at_events[ev_lo:]
            with np.errstate(divide="ignore", invalid="ignore"):
                dlog = np.log1p(patch / d_old)
            ll_delta = delta * sum_delta_x - float(dlog.sum())
        else:
            ll_delta = 0.0
        return _CoordTrial(j, delta, new_eta, new_w, patch, ll_delta)

    def commit(self, trial):
        ds = self.ds
        j = trial.j
        self.beta[j] += trial.delta
        if trial.new_eta is None:
            return
        pos, _, ev_lo, _, _ = ds.column_scans[j]
        self.eta[pos] = trial.new_eta
        self.w[pos] = trial.new_w
        if ev_lo < ds.event_pos.shape[0]:
            self.denom_at_events[ev_lo:] += trial.patch

    def probe_step(self, delta, u, t):
        """Evaluate beta + t * delta, with u = X delta, without committing it:
        a trial carrying the log-likelihood change (possibly non-finite), or
        None when a new |eta| is past the overflow limit or not a number."""
        ds = self.ds
        new_eta = self.eta + t * u
        if not np.abs(new_eta).max() <= self.eta_limit:
            return None
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            patch = np.cumsum(self.w * np.expm1(t * u))[ds.event_end]
            dlog = np.log1p(patch / self.denom_at_events)
            ll_delta = t * float(u[ds.event_pos].sum()) - float(dlog.sum())
        return _StepTrial(t * delta, new_eta, ll_delta)

    def commit_step(self, trial):
        self.beta += trial.step
        self.eta, self.w = trial.new_eta, np.exp(trial.new_eta)
        self.refresh()

    def refresh(self):
        """Rebuild the denominators from w, clearing accumulated patch drift."""
        self.denom_at_events = np.cumsum(self.w)[self.ds.event_end]
