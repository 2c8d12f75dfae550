import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecox import LinearPredictorState, SurvivalDataset, ccd_minimize, likelihood, standardize

from conftest import (check_dataset, dense_coord_derivs, dense_loglik, dense_score_and_hessian,
                      make_dataset)


def two_subject_dataset():
    # times (1, 2), both events, x = (0, 1)
    return SurvivalDataset.from_dense([1.0, 2.0], [1, 1], np.array([[0.0], [1.0]]))


def test_init_state_zero_beta(rng):
    ds, _ = make_dataset(rng, 12, 3)
    st = LinearPredictorState(ds, np.zeros(3))
    np.testing.assert_array_equal(st.eta, np.zeros(12))
    np.testing.assert_array_equal(st.w, np.ones(12))
    np.testing.assert_array_equal(st.denom_at_events,
                                  np.arange(1, 13, dtype=float)[ds.event_end])


def test_init_state_two_subject_hand_values():
    ds = two_subject_dataset()
    st = LinearPredictorState(ds, np.array([np.log(2.0)]))
    np.testing.assert_allclose(st.w, [2.0, 1.0])
    np.testing.assert_allclose(st.denom_at_events, [2.0, 3.0])


def test_init_state_matches_dense_product(rng):
    for _ in range(10):
        ds, (t, status, X) = make_dataset(rng, int(rng.integers(3, 40)), 4)
        beta = rng.uniform(-1, 1, size=4)
        st = LinearPredictorState(ds, beta)
        np.testing.assert_allclose(st.eta, (X @ beta)[ds.order], atol=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_init_state_overflow_names_subject(rng):  # 2 * 1e308 overflows before the state refuses it
    ds, _ = make_dataset(rng, 5, 1)
    with pytest.raises(OverflowError, match="subject"):
        LinearPredictorState(ds, np.array([1e5]))
    # inf - inf makes eta NaN for subjects 1 and 2, which no comparison with the limit passes
    ds = SurvivalDataset.from_dense([1, 2, 3], [1, 1, 0], [[2, 2], [2, 2], [0, 0]])
    for start in (lambda b: LinearPredictorState(ds, b),
                  lambda b: ccd_minimize(ds, np.ones(2), beta0=b)):
        with pytest.raises(OverflowError, match=r"subject 2 \(eta=nan\)"):
            start(np.array([1e308, -1e308]))


def test_loglik_hand_values(rng):
    # single subject, event: ll = r - ln(exp(r)) = 0 for any beta
    one = SurvivalDataset.from_dense([1.0], [1], np.array([[2.0]]))
    assert LinearPredictorState(one, np.array([0.7])).loglik() == pytest.approx(0.0, abs=1e-12)

    ds = two_subject_dataset()
    assert LinearPredictorState(ds, np.zeros(1)).loglik() == pytest.approx(-np.log(2.0), abs=1e-12)

    _, (t, _, X) = make_dataset(rng, 8, 2)
    censored = SurvivalDataset.from_dense(t, np.zeros(8), X)
    assert LinearPredictorState(censored, np.zeros(2)).loglik() == 0.0


def test_loglik_matches_dense_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        ds, (t, status, X) = make_dataset(rng, n, 3)
        beta = rng.uniform(-1, 1, size=3)
        st = LinearPredictorState(ds, beta)
        assert st.loglik() == pytest.approx(dense_loglik(t, status, X, beta), rel=1e-10, abs=1e-10)


def test_coord_derivatives_hand_values():
    ds = two_subject_dataset()
    st = LinearPredictorState(ds, np.zeros(1))
    g1, g2 = st.coord_derivatives(0)
    assert g1 == pytest.approx(-0.5, abs=1e-12)
    assert g2 == pytest.approx(-0.25, abs=1e-12)


def test_zero_column_derivatives(rng):
    ds, _ = make_dataset(rng, 10, 1)
    ds2 = SurvivalDataset.from_dense(ds.time, ds.status, np.zeros((10, 2)))
    st = LinearPredictorState(ds2, np.zeros(2))
    assert st.coord_derivatives(0) == (0.0, 0.0)
    assert st.coord_derivatives(1) == (0.0, 0.0)


def test_derivatives_match_dense_reference(rng):
    # sparse prefix-scan equals the dense two-pass formula to 1e-10
    for _ in range(20):
        n = int(rng.integers(3, 40))
        p = int(rng.integers(1, 6))
        ds, (t, status, X) = make_dataset(rng, n, p)
        beta = rng.uniform(-1, 1, size=p)
        st = LinearPredictorState(ds, beta)
        for j in range(p):
            g1, g2 = st.coord_derivatives(j)
            r1, r2 = dense_coord_derivs(t, status, X, beta, j)
            assert g1 == pytest.approx(r1, abs=1e-10)
            assert g2 == pytest.approx(r2, abs=1e-10)


def test_derivatives_match_finite_differences(rng):
    h = 1e-5
    eps = np.finfo(float).eps
    for _ in range(25):
        n = int(rng.integers(4, 50))
        p = int(rng.integers(1, 6))
        ds, (t, status, X) = make_dataset(rng, n, p)
        beta = rng.uniform(-1, 1, size=p)
        st = LinearPredictorState(ds, beta)
        j = int(rng.integers(0, p))
        g1, g2 = st.coord_derivatives(j)

        def ll(b):
            v = beta.copy()
            v[j] = b
            return LinearPredictorState(ds, v).loglik()

        l0, lp, lm = ll(beta[j]), ll(beta[j] + h), ll(beta[j] - h)
        fd1 = (lp - lm) / (2 * h)
        fd2 = (lp - 2 * l0 + lm) / h**2
        # the difference quotients carry their own rounding floor
        scale = max(abs(l0), abs(lp), abs(lm), 1.0)
        assert g1 == pytest.approx(fd1, rel=1e-5, abs=8 * eps * scale / h)
        assert g2 == pytest.approx(fd2, rel=1e-5, abs=8 * eps * scale / h**2)


def test_second_derivative_nonpositive(rng):
    for _ in range(20):
        ds, _ = make_dataset(rng, int(rng.integers(2, 30)), 3)
        beta = rng.uniform(-2, 2, size=3)
        st = LinearPredictorState(ds, beta)
        for j in range(3):
            assert st.coord_derivatives(j)[1] <= 0.0


def test_coord_update_identity_and_zero_column(rng):
    ds, _ = make_dataset(rng, 15, 2)
    st = LinearPredictorState(ds, np.array([0.3, -0.2]))
    eta_before = st.eta.copy()
    st.commit(st.probe_coord_update(0, 0.0))
    np.testing.assert_array_equal(st.eta, eta_before)

    dsz = SurvivalDataset.from_dense(ds.time, ds.status, np.zeros((15, 1)))
    stz = LinearPredictorState(dsz, np.zeros(1))
    stz.commit(stz.probe_coord_update(0, 5.0))
    assert stz.beta[0] == 5.0
    np.testing.assert_array_equal(stz.eta, np.zeros(15))


def test_incremental_updates_match_recompute(rng):
    ds, _ = make_dataset(rng, 40, 5)
    st = LinearPredictorState(ds, np.zeros(5))
    for k in range(60):
        if k % 10 == 9:  # a whole-vector step now and then
            delta, t = rng.uniform(-0.2, 0.2, size=5), float(rng.choice([1.0, 0.5, 0.25]))
            ll = st.loglik()
            trial = st.probe_step(delta, ds.design.times(delta), t)
            st.commit_step(trial)
            assert st.loglik() - ll == pytest.approx(trial.loglik_delta, rel=1e-9, abs=1e-12)
            fresh = LinearPredictorState(ds, st.beta)
            for name in ("eta", "w", "denom_at_events"):
                np.testing.assert_allclose(getattr(st, name), getattr(fresh, name), rtol=1e-9,
                                           atol=1e-12)
        else:
            j = int(rng.integers(0, 5))
            st.commit(st.probe_coord_update(j, float(rng.uniform(-0.2, 0.2))))
    fresh = LinearPredictorState(ds, st.beta)
    np.testing.assert_allclose(st.eta, fresh.eta, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(st.denom_at_events, fresh.denom_at_events, rtol=1e-9)


def test_update_overflow_leaves_state_unchanged(rng):
    ds, _ = make_dataset(rng, 10, 1)
    st = LinearPredictorState(ds, np.zeros(1))
    eta = st.eta.copy()
    denom = st.denom_at_events.copy()
    assert st.probe_coord_update(0, 1e6) is None
    for delta in (np.array([1e6]), np.array([np.nan])):  # past the limit, or no number at all
        assert st.probe_step(delta, ds.design.times(delta), 1.0) is None
    np.testing.assert_array_equal(st.eta, eta)
    np.testing.assert_array_equal(st.denom_at_events, denom)
    assert st.beta[0] == 0.0


def test_coord_probe_refuses_a_nan_eta():
    ds = SurvivalDataset.from_dense([1, 2, 3], [1, 1, 0], [[2], [1], [0.5]])
    state = LinearPredictorState(ds, np.zeros(1))
    assert state.probe_coord_update(0, np.nan) is None


def _near_the_limit(limit):
    """Magnitudes at, just inside and just past the overflow limit, their
    halves and thirds, and anything in between."""
    edges = [limit, np.nextafter(limit, 0.0), np.nextafter(limit, np.inf), limit / 2, limit / 3]
    mag = st.sampled_from(edges) | st.floats(0.0, 1.1 * limit)
    return mag | mag.map(float.__neg__)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), p=st.integers(1, 3), data=st.data())
def test_overflow_boundary_of_builds_and_probes(n, p, data):
    # a probe inside the limit may still give a non-finite change: patch / D
    # overflows when D is near exp(-limit); the solvers refuse such trials
    limit = likelihood.eta_limit(n)
    entries = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0])
    X = np.asarray(data.draw(st.lists(st.lists(entries, min_size=p, max_size=p),
                                      min_size=n, max_size=n))).reshape(n, p)
    status = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ds = SurvivalDataset.from_dense(np.arange(1.0, n + 1), status, X)
    X = X[ds.order]

    beta = np.asarray(data.draw(st.lists(_near_the_limit(limit), min_size=p, max_size=p)))
    eta = np.zeros(n)
    for j in range(p):  # X beta, column by column as the design adds it up
        eta += X[:, j] * beta[j]
    if not np.all(np.abs(eta) <= limit):
        with pytest.raises(OverflowError):
            LinearPredictorState(ds, beta)
        beta = np.zeros(p)
        eta = np.zeros(n)
    state = LinearPredictorState(ds, beta)
    np.testing.assert_array_equal(state.eta, eta)

    delta = data.draw(_near_the_limit(limit) | st.sampled_from([np.nan, np.inf, -np.inf]))
    j = data.draw(st.integers(0, p - 1))
    moved = X[:, j] != 0.0
    new_eta = eta[moved] + delta * X[moved, j]
    trial = state.probe_coord_update(j, delta)
    assert (trial is None) == (not np.all(np.abs(new_eta) <= limit))
    if trial is not None and moved.any() and delta != 0.0:
        np.testing.assert_array_equal(trial.new_eta, new_eta)

    step = np.asarray(data.draw(st.lists(_near_the_limit(limit), min_size=p, max_size=p)))
    t = data.draw(st.sampled_from([1.0, 0.5, 2.0 ** -10]))
    u = ds.design.times(step)
    refused = not np.all(np.abs(eta + t * u) <= limit)
    assert (state.probe_step(step, u, t) is None) == refused


def test_full_gradient(rng):
    ds, (t, status, X) = make_dataset(rng, 25, 4)
    beta = rng.uniform(-0.5, 0.5, size=4)
    st = LinearPredictorState(ds, beta)
    g = st.full_gradient()
    # one whole-vector kernel call: the same sums in another order
    for j in range(4):
        assert g[j] == pytest.approx(st.coord_derivatives(j)[0], rel=1e-12, abs=1e-12)
    dsz = SurvivalDataset.from_dense(t, status, np.zeros((25, 3)))
    np.testing.assert_array_equal(LinearPredictorState(dsz, np.zeros(3)).full_gradient(), np.zeros(3))


def test_scan_memo_is_per_dataset(rng):
    # a dataset built on another's design must not reuse its event scans
    ds, (t, status, X) = make_dataset(rng, 30, 3, tie_fraction=0.0)
    beta = rng.uniform(-0.5, 0.5, size=3)
    st = LinearPredictorState(ds, beta)
    for j in range(3):
        st.coord_derivatives(j)
    events, censored = np.flatnonzero(status == 1), np.flatnonzero(status == 0)
    status2 = status.copy()
    status2[events[:3]] = 0
    status2[censored[:3]] = 1
    swapped = SurvivalDataset(t, status2, ds.design)
    check_dataset(swapped)
    assert swapped.event_count == ds.event_count
    got = LinearPredictorState(swapped, beta)
    fresh = LinearPredictorState(SurvivalDataset.from_dense(t, status2, X), beta)
    for j in range(3):
        np.testing.assert_allclose(got.coord_derivatives(j), fresh.coord_derivatives(j),
                                   rtol=0, atol=1e-12)


# -- whole-vector kernels ----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    times=st.lists(st.integers(1, 4), min_size=1, max_size=12),  # few values: many ties
    data=st.data(),
    p=st.integers(0, 4),
    events=st.sampled_from(["random", "one", "none"]),
    duplicate=st.booleans(),
    center=st.booleans(),
)
def test_score_kernel_matches_coord_derivatives(times, data, p, events, duplicate, center):
    n = len(times)
    t = np.asarray(times, dtype=float)
    status = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if events != "random":
        status[:] = 0
        if events == "one":
            status[data.draw(st.integers(0, n - 1))] = 1
    values = st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.5, 0.5])  # mostly zeros: empty columns
    X = np.asarray(data.draw(st.lists(st.lists(values, min_size=p, max_size=p),
                                      min_size=n, max_size=n)), dtype=float).reshape(n, p)
    if duplicate and p >= 2:
        X[:, 1] = X[:, 0]
    ds = SurvivalDataset.from_dense(t, status, X)
    if center and n >= 2:  # no column may be constant, so rows 0 and 1 differ
        X[0], X[1] = 1.5, -1.0
        ds = standardize(SurvivalDataset.from_dense(t, status, X), "center-and-scale")
    beta = np.asarray(data.draw(st.lists(st.floats(-1, 1, allow_subnormal=False),
                                         min_size=p, max_size=p)))
    state = LinearPredictorState(ds, beta)
    got = state.full_gradient()
    assert got.shape == (p,)
    for j in range(p):
        g1 = state.coord_derivatives(j)[0]
        assert got[j] == pytest.approx(g1, rel=1e-10, abs=1e-10)
        if ds.design.nnz(j) == 0:
            assert got[j] == 0.0


def test_hvp_matches_finite_differences_of_the_score(rng):
    h = 1e-6
    for _ in range(25):
        n = int(rng.integers(4, 50))
        p = int(rng.integers(1, 6))
        ds, _ = make_dataset(rng, n, p)
        if rng.random() < 0.5:
            ds = standardize(ds, "center-and-scale")
        beta = rng.uniform(-1, 1, size=p)
        v = rng.standard_normal(p)
        fd = (LinearPredictorState(ds, beta - h * v).full_gradient()
              - LinearPredictorState(ds, beta + h * v).full_gradient()) / (2 * h)
        np.testing.assert_allclose(LinearPredictorState(ds, beta).hvp(v), fd, rtol=1e-5,
                                   atol=1e-6 * (1.0 + np.abs(fd).max()))


def test_hvp_matches_dense_hessian(rng):
    for _ in range(20):
        n = int(rng.integers(3, 40))
        p = int(rng.integers(1, 6))
        ds, (t, status, X) = make_dataset(rng, n, p)
        X[rng.random(X.shape) < 0.3] = 0.0  # sparse columns, some of them empty
        X[:, -1] = 0.0
        ds = SurvivalDataset.from_dense(t, status, X)
        beta = rng.uniform(-1, 1, size=p)
        grad, hess = dense_score_and_hessian(t, status, X, beta)
        state = LinearPredictorState(ds, beta)
        np.testing.assert_allclose(state.full_gradient(), grad, rtol=1e-10, atol=1e-10)
        for v in np.eye(p).tolist() + [rng.standard_normal(p).tolist()]:
            v = np.asarray(v)
            np.testing.assert_allclose(state.hvp(v), -hess @ v, rtol=1e-10, atol=1e-10)
    empty = SurvivalDataset.from_dense([1.0, 2.0], [1, 1], np.zeros((2, 0)))
    assert LinearPredictorState(empty, np.zeros(0)).hvp(np.zeros(0)).shape == (0,)
