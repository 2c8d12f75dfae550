"""Cox log-partial likelihood and per-coordinate derivatives.

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
``column_scans``, built once per dataset.  Penalty terms are the solver's
business, never added here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LinearPredictorState"]


class _CoordTrial:
    """Uncommitted coordinate step: holds everything needed to commit."""

    __slots__ = ("j", "delta", "new_eta", "new_w", "patch", "loglik_delta")

    def __init__(self, j, delta, new_eta, new_w, patch, loglik_delta):
        self.j = j
        self.delta = delta
        self.new_eta = new_eta
        self.new_w = new_w
        self.patch = patch
        self.loglik_delta = loglik_delta


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
        # exp must stay finite even after summing n terms into a prefix
        self.eta_limit = 700.0 - float(np.log(ds.n + 1.0))
        eta = np.zeros(ds.n)
        for j in np.flatnonzero(beta):
            pos, val = ds.design.columns[j]
            if pos.shape[0]:
                eta[pos] += beta[j] * val
        bad = np.flatnonzero(np.abs(eta) > self.eta_limit)
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
        g2 = float(np.dot(r, r) - (cum_b[sel] / d).sum())
        # exact math gives a per-event variance >= 0; clamp rounding residue
        return g1, min(g2, 0.0)

    def full_gradient(self):
        return np.array([self.coord_derivatives(j)[0] for j in range(self.ds.p)])

    # -- updates ----------------------------------------------------------

    def probe_coord_update(self, j, delta):
        """Evaluate a coordinate step without committing it.

        Returns a trial carrying the exact log-likelihood change, or None
        when exp(eta) would overflow.
        """
        ds = self.ds
        pos, val, ev_lo, ev_idx, sum_delta_x = ds.column_scans[j]
        if pos.shape[0] == 0 or delta == 0.0:
            return _CoordTrial(j, delta, None, None, None, 0.0)
        new_eta = self.eta[pos] + delta * val
        if np.abs(new_eta).max() > self.eta_limit:
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

    def refresh(self):
        """Rebuild the denominators from w, clearing accumulated patch drift."""
        self.denom_at_events = np.cumsum(self.w)[self.ds.event_end]
