"""Shared test helpers: independent dense oracles and small dataset factories.

The oracles below work on raw (time, status, X) arrays in the original
input order and build risk sets by direct time comparison, so they share
no code path with the package's sorted prefix-sum machinery.
"""

import numpy as np
import pytest

from sparsecox import SurvivalDataset


def dense_loglik(time, status, X, beta):
    """Breslow log-partial likelihood by brute-force risk-set enumeration."""
    time = np.asarray(time, dtype=float)
    X = np.asarray(X, dtype=float)
    eta = X @ np.asarray(beta, dtype=float)
    ll = 0.0
    for i in range(len(time)):
        if status[i]:
            risk = time >= time[i]
            ll += eta[i] - np.log(np.sum(np.exp(eta[risk])))
    return ll


def dense_coord_derivs(time, status, X, beta, j):
    """(g1, g2) for coordinate j by the two-pass dense reference."""
    time = np.asarray(time, dtype=float)
    X = np.asarray(X, dtype=float)
    eta = X @ np.asarray(beta, dtype=float)
    w = np.exp(eta)
    g1 = 0.0
    g2 = 0.0
    for i in range(len(time)):
        if status[i]:
            risk = time >= time[i]
            d = np.sum(w[risk])
            a = np.sum(X[risk, j] * w[risk]) / d
            b = np.sum(X[risk, j] ** 2 * w[risk]) / d
            g1 += X[i, j] - a
            g2 -= b - a * a
    return g1, g2


def dense_score_and_hessian(time, status, X, beta):
    """Gradient and Hessian of the log-partial likelihood by brute-force
    risk-set enumeration."""
    time = np.asarray(time, dtype=float)
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    w = np.exp(X @ np.asarray(beta, dtype=float))
    grad = np.zeros(p)
    hess = np.zeros((p, p))
    for i in range(n):
        if status[i]:
            risk = time >= time[i]
            wr = w[risk]
            d = wr.sum()
            xr = X[risk]
            mean = xr.T @ wr / d
            grad += X[i] - mean
            hess -= (xr * wr[:, None]).T @ xr / d - np.outer(mean, mean)
    return grad, hess


def dense_full_newton_mple(time, status, X, tol=1e-10, max_iter=100):
    """Unpenalized maximum partial-likelihood estimate by full Newton steps
    with the dense Hessian (independent of the coordinate-descent path)."""
    beta = np.zeros(np.shape(X)[1])
    for _ in range(max_iter):
        grad, hess = dense_score_and_hessian(time, status, X, beta)
        step = np.linalg.solve(hess, -grad)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    return beta


def random_survival_data(rng, n, p, tie_fraction=0.3, censor_fraction=0.3,
                         beta_scale=0.5):
    """Small random survival arrays with deliberate ties."""
    X = rng.standard_normal((n, p))
    beta = rng.uniform(-beta_scale, beta_scale, size=p)
    t = rng.exponential(size=n) / np.exp(X @ beta)
    if tie_fraction > 0:
        # snap a fraction of the times onto a coarse grid to force ties
        snap = rng.random(n) < tie_fraction
        t[snap] = np.ceil(t[snap] * 4) / 4 + 0.25
    status = (rng.random(n) > censor_fraction).astype(int)
    if status.sum() == 0:
        status[int(np.argmin(t))] = 1
    return t, status, X


def check_dataset(ds):
    """Assert every dataset invariant by brute force, from the input-order
    time and status: the order is the documented sort, the cached sorted
    arrays and event ends agree with it, and every column is int64
    positions strictly increasing in [0, n) with finite nonzero values."""
    n = ds.n
    assert n == ds.time.shape[0] == ds.status.shape[0] >= 1
    assert np.all(np.isfinite(ds.time)) and np.all(ds.time > 0.0)
    assert set(np.unique(ds.status).tolist()) <= {0, 1}
    expected = sorted(range(n), key=lambda i: (-ds.time[i], -ds.status[i], i))
    assert ds.order.tolist() == expected
    np.testing.assert_array_equal(ds.time_sorted, ds.time[ds.order])
    np.testing.assert_array_equal(ds.status_sorted, ds.status[ds.order])
    assert ds.event_pos.tolist() == [k for k in range(n) if ds.status_sorted[k] == 1]
    assert ds.event_count == ds.event_pos.shape[0]
    for e, end in zip(ds.event_pos, ds.event_end, strict=True):
        in_risk = ds.time_sorted >= ds.time_sorted[e]
        assert in_risk[: end + 1].all() and not in_risk[end + 1:].any()
    assert ds.p == ds.design.p == len(ds.design.columns)
    assert ds.design.n == n
    for pos, val in ds.design.columns:
        assert pos.dtype == np.int64 and val.dtype == np.float64
        assert pos.shape == val.shape
        assert np.all(np.diff(pos) > 0) and np.all((0 <= pos) & (pos < n))
        assert np.all(np.isfinite(val)) and np.all(val != 0.0)


def make_dataset(rng, n, p, **kwargs):
    t, status, X = random_survival_data(rng, n, p, **kwargs)
    return SurvivalDataset.from_dense(t, status, X), (t, status, X)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
