"""CBF/CLF filters and the N-step predictive safety filter."""

import numpy as np
import pytest

from certikit import dyn, filters, geom
from certikit.errors import InfeasibleFilter


def integrator():
    return dyn.linear_ode(np.zeros((1, 1)), np.ones((1, 1)))


def test_barrier_gradient_consistency():
    bar = filters.quadratic_barrier(np.eye(2), np.zeros(2), 1.0)
    bar.validate_gradient(np.array([0.3, -0.4]))
    bad = filters.BarrierSpec(
        h=lambda x: float(x[0] ** 2), grad_h=lambda x: np.array([5.0]), kappa=1.0
    )
    with pytest.raises(ValueError):
        bad.validate_gradient(np.array([1.0]))


def test_cbf_passes_safe_nominal_through():
    bar = filters.affine_barrier(np.array([-1.0]), 1.0, 1.0)  # h = 1 - x
    flt = filters.CbfFilter(integrator(), bar, geom.Box([-2.0], [2.0]))
    u = flt.filter(np.array([0.0]), np.array([0.5]))  # cap is 1.0
    assert u[0] == 0.5  # exact passthrough


def test_cbf_clamps_unsafe_nominal():
    bar = filters.affine_barrier(np.array([-1.0]), 1.0, 1.0)
    flt = filters.CbfFilter(integrator(), bar, geom.Box([-2.0], [2.0]))
    x = np.array([0.9])
    u = flt.filter(x, np.array([1.5]))  # cap is kappa * h = 0.1
    assert u[0] == pytest.approx(0.1, abs=1e-7)


def test_cbf_multiple_barriers_box_stays_invariant():
    box = geom.Box([-1.0], [1.0])
    bars = filters.box_barrier(box, kappa=1.0)
    flt = filters.CbfFilter(integrator(), bars, geom.Box([-5.0], [5.0]))
    rng = np.random.default_rng(0)
    x = np.array([0.0])
    for _ in range(500):
        u = flt.filter(x, rng.uniform(-4, 4, 1))
        x = x + 0.01 * u
        assert -1.0 - 1e-9 <= x[0] <= 1.0 + 1e-9


def test_cbf_infeasible_raises_with_certificate():
    # barrier needs u >= 10 at x close to the boundary; box caps at 1
    bar = filters.affine_barrier(np.array([-1.0]), 1.0, 100.0)
    flt = filters.CbfFilter(integrator(), bar, geom.Box([-1.0], [1.0]))
    with pytest.raises(InfeasibleFilter):
        flt.filter(np.array([1.2]), np.array([0.0]))  # h = -0.2, needs u <= -20


def test_clf_check_stabilizable():
    # dx/dt = u: V = x^2 decreases with u = -x available
    clf = filters.quadratic_clf(np.eye(1), kappa_v=1.0)
    rep = filters.clf_check(integrator(), np.array([0.5]), clf, geom.Box([-2.0], [2.0]))
    assert rep["passed"]
    assert rep["inf_lie_derivative"] <= rep["threshold"] + 1e-9


def test_clf_gradient_finite_difference_without_grad():
    clf = filters.ClfSpec(lambda x: float(x @ x), None)
    x = np.array([0.5, -1.5, 2.0])
    np.testing.assert_allclose(clf.gradient(x), 2.0 * x, rtol=0, atol=1e-8)


def test_clf_check_reports_failure():
    # input box too small to achieve the decrease rate
    clf = filters.quadratic_clf(np.eye(1), kappa_v=100.0)
    rep = filters.clf_check(integrator(), np.array([1.0]), clf, geom.Box([-0.1], [0.1]))
    assert not rep["passed"]
    assert not rep["decrease_ok"]


def test_psf_linear_passthrough_when_safe():
    model = dyn.LinearMap(np.array([[1.0]]), np.array([[0.1]]))
    cfg = filters.PsfConfig(
        horizon=3,
        state_set=geom.Box([-10.0], [10.0]),
        input_set=geom.Box([-1.0], [1.0]),
        terminal_set=geom.Box([-10.0], [10.0]),
    )
    u0, diag = filters.predictive_safety_filter(model, np.array([0.0]), np.array([0.2]), cfg)
    assert u0[0] == pytest.approx(0.2, abs=1e-5)
    assert diag["qp_status"] == "Optimal"
    assert not diag["terminal_set_defaulted"]


def test_psf_blocks_exit():
    # x+ = x + u with x constrained to [-1, 1]; from x = 0.95 the nominal
    # u = 1 must be cut so every predicted state stays inside
    model = dyn.LinearMap(np.array([[1.0]]), np.array([[1.0]]))
    cfg = filters.PsfConfig(
        horizon=2,
        state_set=geom.Box([-1.0], [1.0]),
        input_set=geom.Box([-1.0], [1.0]),
        terminal_set=geom.Box([-1.0], [1.0]),
    )
    u0, _ = filters.predictive_safety_filter(model, np.array([0.95]), np.array([1.0]), cfg)
    assert u0[0] <= 0.05 + 1e-5


def test_psf_default_terminal_flagged():
    model = dyn.LinearMap(np.array([[1.0]]), np.array([[1.0]]))
    cfg = filters.PsfConfig(
        horizon=2, state_set=geom.Box([-1.0], [1.0]), input_set=geom.Box([-1.0], [1.0])
    )
    _, diag = filters.predictive_safety_filter(model, np.array([0.0]), np.array([0.1]), cfg)
    assert diag["terminal_set_defaulted"]


def test_psf_soft_slack_reports_magnitude():
    # start outside the state set: hard constraints infeasible, slack absorbs
    model = dyn.LinearMap(np.array([[1.0]]), np.array([[1.0]]))
    hard = filters.PsfConfig(
        horizon=2, state_set=geom.Box([-1.0], [1.0]), input_set=geom.Box([-0.1], [0.1])
    )
    with pytest.raises(InfeasibleFilter):
        filters.predictive_safety_filter(model, np.array([2.0]), np.array([0.0]), hard)
    soft = filters.PsfConfig(
        horizon=2,
        state_set=geom.Box([-1.0], [1.0]),
        input_set=geom.Box([-0.1], [0.1]),
        slack_weight=100.0,
    )
    _, diag = filters.predictive_safety_filter(model, np.array([2.0]), np.array([0.0]), soft)
    assert diag["max_slack"] > 0.5


def test_psf_nonlinear_sqp_runs():
    # mildly nonlinear ODE discretized to a map: successive linearization path
    ode = dyn.ControlAffineODE(
        drift=lambda x: np.array([-x[0] + 0.05 * x[0] ** 2]),
        input_map=lambda x: np.array([[1.0]]),
        state_dim=1,
        input_dim=1,
        kind="custom",
    )
    psf_model = dyn._OdeMapAdapter(ode, 0.1)
    cfg = filters.PsfConfig(
        horizon=3,
        state_set=geom.Box([-2.0], [2.0]),
        input_set=geom.Box([-1.0], [1.0]),
        terminal_set=geom.Box([-2.0], [2.0]),
    )
    u0, diag = filters.predictive_safety_filter(psf_model, np.array([0.5]), np.array([0.3]), cfg)
    assert diag["sqp_iterations"] >= 1
    assert diag.get("approximation") == "successive_linearization"
    assert -1.0 <= u0[0] <= 1.0
