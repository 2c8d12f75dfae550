"""The benchmark's Breslow reference against brute-force risk-set enumeration.

Run with ``python3 -m pytest perfbench/test_reference.py``.  Times are drawn
from a few integers so that tied event times, tied censorings and events
tied with censorings all occur, and about a third of the subjects are
censored.
"""

import numpy as np
import pytest

from reference import Breslow, read_coord, read_survival


def brute_force(time, status, X, beta):
    """loglik, score and diagonal information, one risk set at a time."""
    eta = X @ beta
    w = np.exp(eta)
    loglik = 0.0
    score = np.zeros(X.shape[1])
    info = np.zeros(X.shape[1])
    for i in range(time.shape[0]):
        if status[i] != 1:
            continue
        risk = time >= time[i]
        s = w[risk].sum()
        loglik += eta[i] - np.log(s)
        a1 = (X[risk] * w[risk, None]).sum(axis=0) / s
        a2 = (X[risk] ** 2 * w[risk, None]).sum(axis=0) / s
        score += X[i] - a1
        info += a2 - a1 * a1
    return loglik, score, info


def tied_case(rng, n, p):
    time = rng.integers(1, 5, size=n).astype(np.float64)
    status = (rng.random(n) < 0.65).astype(np.int8)
    status[rng.integers(n)] = 1
    X = rng.standard_normal((n, p)) * (rng.random((n, p)) < 0.6)
    beta = rng.uniform(-1.5, 1.5, size=p)
    return time, status, X, beta


@pytest.mark.parametrize("case", range(200))
def test_matches_brute_force_with_ties_and_censoring(case):
    rng = np.random.default_rng(case)
    n, p = int(rng.integers(2, 16)), int(rng.integers(1, 5))
    time, status, X, beta = tied_case(rng, n, p)
    ref = Breslow(time, status, X @ beta)
    loglik, score, info = brute_force(time, status, X, beta)
    assert ref.loglik == pytest.approx(loglik, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(ref.score_dense(X), score, rtol=1e-10, atol=1e-12)
    for k in range(p):
        assert ref.information(X[:, k]) == pytest.approx(info[k], rel=1e-10, abs=1e-12)


def test_all_times_tied():
    time = np.full(6, 2.0)
    status = np.array([1, 0, 1, 1, 0, 1], dtype=np.int8)
    X = np.arange(12.0).reshape(6, 2) / 10.0
    beta = np.array([0.3, -0.2])
    ref = Breslow(time, status, X @ beta)
    loglik, score, info = brute_force(time, status, X, beta)
    assert ref.loglik == pytest.approx(loglik, rel=1e-13)
    np.testing.assert_allclose(ref.score_dense(X), score, rtol=1e-12, atol=1e-13)
    assert ref.information(X[:, 1]) == pytest.approx(info[1], rel=1e-12)


def test_large_linear_predictor_does_not_overflow():
    rng = np.random.default_rng(7)
    time, status, X, beta = tied_case(rng, 12, 3)
    shifted = Breslow(time, status, X @ beta + 800.0)
    plain = Breslow(time, status, X @ beta)
    assert shifted.loglik == pytest.approx(plain.loglik, rel=1e-12)
    np.testing.assert_allclose(shifted.residual, plain.residual, rtol=1e-12, atol=1e-12)


def test_coordinate_score_equals_dense_score(tmp_path):
    rng = np.random.default_rng(11)
    time, status, X, beta = tied_case(rng, 14, 4)
    surv, design = tmp_path / "s.csv", tmp_path / "d.coord"
    surv.write_text("id,time,status\n" + "".join(
        f"{i + 1},{float(t)!r},{d}\n" for i, (t, d) in enumerate(zip(time, status))))
    rows, cols = np.nonzero(X.T)[::-1]
    design.write_text(f"{X.shape[0]} {X.shape[1]} {rows.shape[0]}\n" + "".join(
        f"{r + 1} {c + 1} {float(X[r, c])!r}\n" for r, c in zip(rows, cols)))
    t2, s2 = read_survival(surv)
    n, p, r2, c2, v2 = read_coord(design)
    assert (n, p) == X.shape and np.array_equal(t2, time) and np.array_equal(s2, status)
    eta = np.bincount(r2, weights=v2 * beta[c2], minlength=n)
    ref = Breslow(t2, s2, eta)
    np.testing.assert_allclose(ref.score_coord(r2, c2, v2, p), ref.score_dense(X),
                               rtol=1e-12, atol=1e-13)
