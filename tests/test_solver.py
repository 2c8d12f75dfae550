import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from sparsecox import (
    BarConfig,
    LinearPredictorState,
    SimScenario,
    SurvivalDataset,
    ccd_minimize,
    fit_bar,
    simulate,
)
from sparsecox import likelihood, solver
from sparsecox.sim import replicate_seed
from sparsecox.solver import _coord_step, fit_ridge

from conftest import dense_loglik, make_dataset


def golden_1d(objective):
    res = minimize_scalar(objective, bracket=(-3.0, 0.0, 3.0), method="golden",
                          options={"xtol": 1e-12})
    return res.x


def single_covariate_dataset(rng, n=50):
    x = rng.standard_normal((n, 1))
    t = rng.exponential(size=n) / np.exp(0.8 * x[:, 0])
    status = (rng.random(n) > 0.25).astype(int)
    status[int(np.argmin(t))] = 1
    return SurvivalDataset.from_dense(t, status, x), (t, status, x)


# -- stabilized step, with phi = 1/w_j ------------------------------------


def test_step_phi_zero_gives_exact_zero():
    for beta_j, g1, g2 in [(0.7, 3.0, -1.0), (-1.3, -2.0, -5.0), (0.0, 1.0, -0.1)]:
        step = _coord_step(beta_j, g1, g2, math.inf)
        assert beta_j + step == 0.0


def test_step_fixed_point():
    assert _coord_step(1.0, 0.5, -1.0, 1 / 2.0) == 0.0


def test_step_hand_value():
    assert _coord_step(0.0, 1.0, -1.0, 1 / 1.0) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    beta_j=st.floats(-10, 10, allow_subnormal=False),
    g1=st.floats(-100, 100, allow_subnormal=False),
    g2=st.floats(-1e6, 0, allow_subnormal=False),
    phi=st.floats(1e-8, 1e6, allow_subnormal=False),
)
def test_step_matches_unstabilized_newton(beta_j, g1, g2, phi):
    # direct -F'/F'' for F = -2*ll + beta^2/phi
    step = _coord_step(beta_j, g1, g2, 1 / phi)
    direct = (2 * g1 - 2 * beta_j / phi) / (-2 * g2 + 2 / phi)
    # numerator cancellation bounds the achievable agreement
    cushion = 1e-10 * (abs(phi * g1) + abs(beta_j)) / (-phi * g2 + 1.0)
    assert step == pytest.approx(direct, rel=1e-10, abs=cushion)


# -- ccd_minimize --------------------------------------------------------


def test_zero_design_converges_first_sweep():
    ds = SurvivalDataset.from_dense([1.0, 2.0, 3.0], [1, 0, 1], np.zeros((3, 2)))
    fit = ccd_minimize(ds, np.full(2, 1.0), np.zeros(2))
    assert fit.sweeps == 1 and fit.converged
    np.testing.assert_array_equal(fit.beta, np.zeros(2))
    assert fit.support.size == 0


def test_single_covariate_unpenalized_matches_golden(rng):
    ds, (t, status, x) = single_covariate_dataset(rng)
    fit = ccd_minimize(ds, np.zeros(1), np.zeros(1))
    ref = golden_1d(lambda b: -2.0 * dense_loglik(t, status, x, [b]))
    assert fit.beta[0] == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("xi", [0.1, 1.0, 10.0])
def test_single_covariate_ridge_matches_golden(rng, xi):
    ds, (t, status, x) = single_covariate_dataset(rng)
    fit = ccd_minimize(ds, np.full(1, xi), np.zeros(1))
    ref = golden_1d(lambda b: -2.0 * dense_loglik(t, status, x, [b]) + xi * b * b)
    assert fit.beta[0] == pytest.approx(ref, abs=1e-6)


def test_objective_trace_monotone(rng):
    for _ in range(5):
        ds, _ = make_dataset(rng, 40, 6)
        fit = ccd_minimize(ds, np.full(6, 0.5), np.zeros(6))
        assert np.all(np.diff(fit.trace) <= 1e-12)


def test_frozen_coordinates_stay_bit_exact_zero(rng):
    ds, _ = make_dataset(rng, 30, 5)
    frozen = np.array([True, False, True, False, False])
    fit = ccd_minimize(ds, np.where(frozen, np.inf, 1.0), np.zeros(5))
    for j in (0, 2):
        # bit pattern of positive zero
        assert fit.beta[j] == 0.0 and np.signbit(fit.beta[j]) == False  # noqa: E712
    assert fit.df == np.count_nonzero(fit.beta)


def test_frozen_must_start_at_zero(rng):
    ds, _ = make_dataset(rng, 10, 2)
    frozen = np.array([True, False])
    with pytest.raises(ValueError, match="frozen"):
        ccd_minimize(ds, np.where(frozen, np.inf, 1.0), np.array([0.5, 0.0]))


def test_ridge_shrinkage_monotone_toward_zero(rng):
    ds, _ = make_dataset(rng, 60, 4, beta_scale=0.8)
    norms = []
    for w in (1.0, 10.0, 100.0, 1000.0):
        fit = ccd_minimize(ds, np.full(4, w), np.zeros(4))
        norms.append(np.linalg.norm(fit.beta))
    assert all(norms[k + 1] < norms[k] for k in range(3))


def test_column_permutation_robustness(rng):
    ds, (t, status, X) = make_dataset(rng, 80, 5, beta_scale=0.6)
    perm = rng.permutation(5)
    ds_perm = SurvivalDataset.from_dense(t, status, X[:, perm])
    fit = ccd_minimize(ds, np.full(5, 1.0), np.zeros(5))
    fit_perm = ccd_minimize(ds_perm, np.full(5, 1.0), np.zeros(5))
    assert np.max(np.abs(fit.beta[perm] - fit_perm.beta)) < 1e-6


def test_result_self_consistent(rng):
    ds, (t, status, X) = make_dataset(rng, 35, 3)
    fit = ccd_minimize(ds, np.full(3, 2.0), np.zeros(3))
    ll = dense_loglik(t, status, X, fit.beta)
    assert fit.loglik == pytest.approx(ll, rel=1e-8)
    assert fit.objective == pytest.approx(-2 * ll + 2.0 * np.sum(fit.beta**2), rel=1e-8)
    np.testing.assert_array_equal(fit.support, np.flatnonzero(fit.beta))


def test_max_sweeps_flags_nonconvergence(rng, monkeypatch):
    ds, _ = make_dataset(rng, 60, 4, beta_scale=0.8)
    monkeypatch.setattr(solver, "_MAX_SWEEPS", 1)
    fit = ccd_minimize(ds, np.full(4, 0.1), np.zeros(4))
    assert not fit.converged and fit.sweeps == 1


def test_penalty_weights_validation():
    ds = SurvivalDataset.from_dense([1.0, 2.0, 3.0], [1, 0, 1],
                                    [[1.0, 0.5], [0.0, 2.0], [1.0, 1.0]])
    for weights in ([1.0, -0.5], [1.0, np.nan], [1.0, -np.inf], [1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="weights"):
            ccd_minimize(ds, np.array(weights), np.zeros(2))
    # +inf freezes a coordinate: it is never visited and stays at +0.0
    fit = ccd_minimize(ds, np.array([1.0, np.inf]), np.zeros(2))
    assert fit.beta[1] == 0.0 and not np.signbit(fit.beta[1])
    assert fit.objective == -2.0 * fit.loglik + fit.beta[0] ** 2


def test_halving_stops_at_rounding_floor(monkeypatch):
    # near a coordinate's optimum every trial step loses to rounding; such a
    # visit used to probe all _MAX_HALVINGS + 1 steps before giving up
    scen = SimScenario(n=2000, p=100, beta0=np.repeat([0.7, 0.5, 1.0, -0.7, -0.5, -1.0], 6),
                       design="binary:0.98", censoring=0.95, seed=3)
    ds = simulate(scen)
    visits = []
    derivs, probe = LinearPredictorState.coord_derivatives, LinearPredictorState.probe_coord_update

    def counting_derivs(self, j):
        visits.append(0)
        return derivs(self, j)

    def counting_probe(self, j, delta):
        visits[-1] += 1
        return probe(self, j, delta)

    monkeypatch.setattr(LinearPredictorState, "coord_derivatives", counting_derivs)
    monkeypatch.setattr(LinearPredictorState, "probe_coord_update", counting_probe)
    fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
    assert fit.converged
    assert sum(visits) > 0
    assert visits.count(solver._MAX_HALVINGS + 1) == 0


def test_first_probe_is_newton_step_clipped_to_cap(monkeypatch):
    # criterion 2's first replicate (n=300 desk design): an adaptive
    # per-coordinate radius cuts some of these first probes shorter
    scen = SimScenario(n=300, p=100, beta0=[0.2, 0, 0.35, 0, 0.5, 0.55, 0, 0, 0.7, 0.8],
                       design="ar1:0.5", censoring=0.2, seed=replicate_seed(20260811, 0))
    ds = simulate(scen)
    raw, first = [], []
    step_fn, probe = solver._coord_step, LinearPredictorState.probe_coord_update

    def recording_step(*args):
        raw.append(step_fn(*args))
        first.append(None)
        return raw[-1]

    def recording_probe(self, j, delta):
        if first[-1] is None:
            first[-1] = delta
        return probe(self, j, delta)

    monkeypatch.setattr(solver, "_coord_step", recording_step)
    monkeypatch.setattr(LinearPredictorState, "probe_coord_update", recording_probe)
    fit_bar(ds, BarConfig(lambda_rule="bic"))
    capped = np.clip(raw, -solver._MAX_STEP, solver._MAX_STEP)
    probed = np.array([f is not None for f in first])
    np.testing.assert_array_equal(probed, capped != 0.0)
    np.testing.assert_array_equal([f for f in first if f is not None], capped[probed])


class _ScriptedState:
    """One-coordinate stand-in for LinearPredictorState whose probes return
    scripted outcomes: None (overflow) or a trial with the given loglik
    change.  Its derivatives put every step's predicted decrease far below
    the rounding floor of F = 100."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.steps = []

    def __call__(self, ds, beta):  # stands in for the constructor
        self.beta = np.array(beta, dtype=np.float64)
        return self

    def refresh(self):
        pass

    def loglik(self):
        return -50.0

    def coord_derivatives(self, j):
        return 1e-14, -1.0

    def probe_coord_update(self, j, delta):
        self.steps.append(delta)
        ll_delta = self.outcomes.pop(0) if self.outcomes else None
        return None if ll_delta is None else SimpleNamespace(delta=delta, loglik_delta=ll_delta)

    def commit(self, trial):
        self.beta[0] += trial.delta


def _scripted_fit(monkeypatch, outcomes):
    state = _ScriptedState(outcomes)
    monkeypatch.setattr(solver, "LinearPredictorState", state)
    ds = SurvivalDataset.from_dense([1.0, 2.0], [1, 1], np.ones((2, 1)))
    return state, ccd_minimize(ds, np.zeros(1), np.zeros(1))


def test_overflow_and_nonfinite_trials_keep_halving(monkeypatch):
    # overflow, then a non-finite objective, then an accepted step: the
    # rounding-floor stop must not end the visit on the first two
    state, fit = _scripted_fit(monkeypatch, [None, -math.inf, 0.0])
    first = state.steps[0]
    assert state.steps[:3] == [first, first / 2, first / 4]
    assert fit.beta[0] == first / 4
    assert fit.converged


def test_overflow_on_every_halving_raises(monkeypatch):
    with pytest.raises(RuntimeError, match="non-finite objective"):
        _scripted_fit(monkeypatch, [])


# -- fit_ridge ------------------------------------------------------------


def newton_datasets(rng):
    for n, p, xi in ((40, 1, 0.1), (60, 4, 1.0), (80, 6, 0.01), (120, 8, 10.0), (30, 12, 1.0)):
        yield make_dataset(rng, n, p, beta_scale=0.8)[0], xi
    desk = SimScenario(n=300, p=30, beta0=[0.2, 0, 0.35, 0, 0.5, 0.55, 0, 0, 0.7, 0.8],
                       design="ar1:0.5", censoring=0.2, seed=replicate_seed(20260811, 0))
    yield simulate(desk), 1.0
    sparse = SimScenario(n=2000, p=60, beta0=np.repeat([0.7, -0.5, 1.0], 4),
                         design="binary:0.95", censoring=0.9, seed=3)
    yield simulate(sparse), 1.0


def test_newton_ridge_matches_coordinate_descent(rng):
    for ds, xi in newton_datasets(rng):
        newton = fit_ridge(ds, xi)
        ccd = ccd_minimize(ds, np.full(ds.p, xi), np.zeros(ds.p))
        assert newton.converged and ccd.converged
        assert newton.objective <= ccd.objective + 4 * math.ulp(ccd.objective)
        assert np.max(np.abs(newton.beta - ccd.beta)) <= 1e-5
        assert np.all(np.diff(newton.trace) <= 0.0)
        assert newton.trace[0] == -2.0 * LinearPredictorState(ds, np.zeros(ds.p)).loglik()
        ll = LinearPredictorState(ds, newton.beta).loglik()
        assert newton.loglik == ll
        assert newton.objective == -2.0 * ll + xi * float((newton.beta ** 2).sum())


def test_newton_ridge_stops_on_the_gradient_norm(rng):
    ds, _ = make_dataset(rng, 80, 5, beta_scale=0.8)
    fit = fit_ridge(ds, 0.5)
    grad = 2.0 * (0.5 * fit.beta - LinearPredictorState(ds, fit.beta).full_gradient())
    start = 2.0 * np.linalg.norm(LinearPredictorState(ds, np.zeros(ds.p)).full_gradient())
    assert fit.converged and 1 <= fit.sweeps < solver._NEWTON_MAX
    assert np.linalg.norm(grad) <= 2 * solver._NEWTON_GTOL * max(1.0, start)


def test_newton_ridge_zero_design_and_no_columns():
    for X in (np.zeros((3, 2)), np.zeros((3, 0))):
        ds = SurvivalDataset.from_dense([1.0, 2.0, 3.0], [1, 0, 1], X)
        fit = fit_ridge(ds, 1.0)
        assert fit.converged and fit.sweeps == 0
        np.testing.assert_array_equal(fit.beta, np.zeros(X.shape[1]))
        assert fit.trace.shape == (1,) and fit.objective == fit.trace[0]


def test_newton_ridge_rejects_steps_past_the_overflow_limit(rng, monkeypatch):
    ds, _ = make_dataset(rng, 60, 3, beta_scale=1.5)
    free = fit_ridge(ds, 0.01)
    with monkeypatch.context() as m:
        m.setattr(solver, "_NEWTON_MAX", 1)
        first = fit_ridge(ds, 0.01)
    # the first full step reaches |eta| = reach; cap eta well below it
    reach = np.abs(LinearPredictorState(ds, first.beta).eta).max()
    limit = 0.25 * reach
    monkeypatch.setattr(likelihood, "eta_limit", lambda n: limit)
    fit = fit_ridge(ds, 0.01)
    assert np.all(np.isfinite(fit.beta)) and np.isfinite(fit.objective)
    assert np.abs(LinearPredictorState(ds, fit.beta).eta).max() <= limit * (1 + 1e-12)
    assert np.all(np.diff(fit.trace) <= 0.0)
    assert fit.objective > free.objective  # the optimum lies past the limit


def test_newton_ridge_iteration_cap_flags_nonconvergence(rng, monkeypatch):
    ds, _ = make_dataset(rng, 60, 4, beta_scale=0.8)
    monkeypatch.setattr(solver, "_NEWTON_MAX", 1)
    fit = fit_ridge(ds, 0.1)
    assert not fit.converged and fit.sweeps == 1
    assert fit.trace.shape == (2,) and fit.trace[1] < fit.trace[0]
