"""Independent Breslow partial likelihood, score and coordinate information.

Everything here works on raw arrays in the input order: survival times,
event indicators and the linear predictor eta = X beta.  Risk sets come from
a plain descending sort of the times, cumulative sums and tie groups, so no
code is shared with the package under test (which keeps its own sorted,
column-sparse store and patches prefix sums in place).

With S_i the sum of exp(eta_j) over the risk set {j : t_j >= t_i} (tied
event times share one S, the Breslow convention):

    loglik = sum_{events i} eta_i - ln S_i
    score  = X^T (delta - exp(eta) * Lambda),  Lambda_j = sum_{events i, t_i <= t_j} 1 / S_i
    info_k = sum_{events i} [ A2_ik / S_i - (A1_ik / S_i)^2 ]

where A1_ik and A2_ik are the risk-set sums of x_k exp(eta) and
x_k^2 exp(eta).  The score is the martingale-residual form of the
per-event sum, so it costs one pass over the rows whatever the column count.
"""

import numpy as np


class Breslow:
    """Breslow quantities at one linear predictor (arrays in input order)."""

    def __init__(self, time, status, eta):
        time = np.asarray(time, dtype=np.float64)
        event = np.asarray(status) == 1
        eta = np.asarray(eta, dtype=np.float64)
        if not (time.shape == event.shape == eta.shape):
            raise ValueError("time, status and eta must have one entry per subject")
        order = np.argsort(-time, kind="stable")
        key = -time[order]  # ascending
        # tie group of each sorted position: [first, last], inclusive
        first = np.searchsorted(key, key, side="left")
        last = np.searchsorted(key, key, side="right") - 1

        shift = float(eta.max())  # exp stays finite; every ratio is unchanged
        w = np.exp(eta[order] - shift)
        ev = event[order]
        risk = np.cumsum(w)[last]  # S_i / exp(shift) at every sorted position
        self.loglik = float(np.sum(eta[order][ev] - shift - np.log(risk[ev])))

        hazard = np.where(ev, 1.0 / risk, 0.0)
        cum_hazard = np.cumsum(hazard[::-1])[::-1][first]
        residual = np.empty_like(w)
        residual[order] = ev - w * cum_hazard
        self.residual = residual

        self._order, self._last, self._ev = order, last, ev
        self._w, self._risk_ev = w, risk[ev]

    def score_dense(self, X):
        """Score of every column of a dense design (rows in input order)."""
        return np.asarray(X, dtype=np.float64).T @ self.residual

    def score_coord(self, rows, cols, vals, p):
        """Score of every column of a design given as 0-based coordinate triples."""
        return np.bincount(cols, weights=vals * self.residual[rows], minlength=p)

    def information(self, x):
        """Diagonal information -d2 loglik / d beta_k^2 of one dense column."""
        xs = np.asarray(x, dtype=np.float64)[self._order]
        a1 = np.cumsum(xs * self._w)[self._last][self._ev] / self._risk_ev
        a2 = np.cumsum(xs * xs * self._w)[self._last][self._ev] / self._risk_ev
        return float(np.sum(a2 - a1 * a1))


def read_survival(path):
    """(time, status) from an ``id,time,status`` CSV, rows in file order."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != 3 or not np.array_equal(table[:, 0], np.arange(1, table.shape[0] + 1)):
        raise ValueError(f"{path}: expected rows 'id,time,status' with ids 1..n")
    return table[:, 1], table[:, 2].astype(np.int8)


def read_coord(path):
    """(n, p, rows, cols, vals) from a sparse-coordinate design file; the
    returned row and column indices are 0-based."""
    with open(path, "rt", encoding="ascii") as fh:
        n, p, nnz = (int(tok) for tok in fh.readline().split())
    table = np.loadtxt(path, skiprows=1, ndmin=2)
    if table.shape != (nnz, 3):
        raise ValueError(f"{path}: header declares {nnz} entries, found {table.shape[0]}")
    return (n, p, table[:, 0].astype(np.int64) - 1, table[:, 1].astype(np.int64) - 1,
            table[:, 2].copy())
