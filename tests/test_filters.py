"""CBF/CLF filters and the N-step predictive safety filter."""

import numpy as np
import pytest

from certikit import dyn, filters, geom, nn, qp
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


def test_clf_check_matches_box_vertex_minimum():
    # the second input column is zero at x, so its coefficient is exactly 0
    ode = dyn.linear_ode(np.array([[0.2, -1.0], [0.5, 0.1]]), np.array([[1.0, 0.0], [-2.0, 0.0]]))
    clf = filters.quadratic_clf(np.eye(2), kappa_v=0.5)
    x = np.array([0.5, 0.3])
    box = geom.Box([-1.0, 0.5], [2.0, 3.0])
    rep = filters.clf_check(ode, x, clf, box)
    gv = clf.gradient(x)
    brute = min(
        float(gv @ (ode.f(x) + ode.g(x) @ np.array(u)))
        for u in [(a, b) for a in (-1.0, 2.0) for b in (0.5, 3.0)]
    )
    assert rep["inf_lie_derivative"] == pytest.approx(brute, abs=1e-12)
    assert rep["minimizer_u"] == [2.0, 0.5]


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


def test_psf_learned_network_model_episode():
    # the filter-loop benchmark's learned model: a 16-unit sigmoid MLP fitted
    # to the N = 10 double integrator by least squares on its output layer
    dt = 0.1
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt**2], [dt]])
    rng = np.random.default_rng(2024)
    W1, b1 = 0.3 * rng.normal(size=(16, 3)), 0.3 * rng.normal(size=16)
    Z = rng.uniform(-2.0, 2.0, size=(800, 3))
    H = np.hstack([1.0 / (1.0 + np.exp(-(Z @ W1.T + b1))), np.ones((800, 1))])
    coef, *_ = np.linalg.lstsq(H, Z[:, :2] @ A.T + Z[:, 2:] @ B.T, rcond=None)
    net = nn.Mlp((nn.Layer(W1, b1, "sigmoid"), nn.Layer(coef[:-1].T, coef[-1], "identity")))
    model = dyn.NetworkMap(net, input_dim=1)
    cfg = filters.PsfConfig(
        horizon=10,
        state_set=geom.Box([-1.0, -1.0], [1.0, 1.0]),
        input_set=geom.Box([-1.0], [1.0]),
        terminal_set=geom.Box([-0.8, 0.0], [0.8, 0.0]),
    )
    psf = filters.PredictiveSafetyFilter(model, cfg)
    x = np.array([0.3, 0.1])
    interventions = 0
    for k in range(10):  # a gentle swinging reference
        u_nom = 0.6 * np.sin(0.3 * k + 1.0)
        u, diag = psf.filter(x, [u_nom])
        assert diag["approximation"] == "successive_linearization"
        assert -1.0 - 1e-9 <= u[0] <= 1.0 + 1e-9
        interventions += abs(u[0] - u_nom) > 1e-3
        x = dyn.step(model, x, u)
        assert np.all(np.abs(x) <= 1.0 + 1e-6)
    assert interventions >= 1  # the last tick brakes before the wall


def test_psf_double_integrator_qp_is_kkt_exact():
    # the N = 10 double integrator of the filter-loop benchmark, pushed
    # towards the wall p = 1 for 20 ticks by one filter
    dt = 0.1
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt**2], [dt]])
    cfg = filters.PsfConfig(
        horizon=10,
        state_set=geom.Box([-1.0, -1.0], [1.0, 1.0]),
        input_set=geom.Box([-1.0], [1.0]),
        terminal_set=geom.Box([-0.8, 0.0], [0.8, 0.0]),
    )
    flt = filters.PredictiveSafetyFilter(dyn.LinearMap(A, B), cfg)
    x = np.array([0.2, 0.3])
    braked = 0
    for _ in range(20):
        plan = ([A] * 10, [B] * 10, [np.zeros(2)] * 10, x, np.array([1.2]))
        prob = flt._build_qp(*plan)
        sol = qp.solve(prob)
        assert sol.status == "Optimal"
        assert np.array_equal(flt.filter(x, np.array([1.2]))[0], sol.z[:1])
        Az = prob.A @ sol.z
        assert max(np.max(prob.l - Az), np.max(Az - prob.u)) <= 1e-12
        assert np.max(np.abs(prob.P @ sol.z + prob.q + prob.A.T @ sol.dual)) <= 1e-12
        braked += sol.z[0] < 1.0 - 1e-6
        x = A @ x + B @ sol.z[:1]
    assert braked > 0


def _random_set(rng, n, box):
    if box:
        lo = rng.uniform(-1.5, -0.5, n)
        return geom.Box(lo, lo + rng.uniform(1.0, 3.0, n))
    k = int(rng.integers(n + 1, 2 * n + 3))
    return geom.HPolytope(rng.normal(size=(k, n)), rng.uniform(0.5, 2.0, k))


def _halfspaces(s):
    if isinstance(s, geom.HPolytope):
        return s.A, s.b
    eye = np.eye(s.dim)
    return np.vstack([eye, -eye]), np.concatenate([s.upper, -s.lower])


@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
@pytest.mark.parametrize("terminal", ["explicit", "default"])
@pytest.mark.parametrize("box", [True, False], ids=["box", "hpolytope"])
def test_psf_qp_encodes_rollout_and_sets(box, terminal, soft):
    # what the stacked QP means, read through z = (u, x, slacks) only: a
    # rolled-out plan satisfies every dynamics row, each state row measures
    # one row of X at one stage (or of E at x_N), and each slack relaxes one
    rng = np.random.default_rng(3)
    violated = 0
    for _ in range(20):
        n, m, N = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 6))
        X = _random_set(rng, n, box)
        E = _random_set(rng, n, box) if terminal == "explicit" else None
        weight = 7.0 if soft else 0.0
        cfg = filters.PsfConfig(N, X, geom.Box(-np.ones(m), np.ones(m)), E, weight)
        flt = filters.PredictiveSafetyFilter(dyn.LinearMap(np.eye(n), np.ones((n, m))), cfg)
        As = [0.6 * rng.normal(size=(n, n)) for _ in range(N)]
        Bs = [rng.normal(size=(n, m)) for _ in range(N)]
        cs = [0.3 * rng.normal(size=n) for _ in range(N)]
        us = rng.uniform(-1.0, 1.0, size=(N, m))
        xs = [rng.uniform(-1.5, 1.5, n)]
        for i in range(N):
            xs.append(As[i] @ xs[i] + Bs[i] @ us[i] + cs[i])
        u_nom = rng.normal(size=m)
        prob = flt._build_qp(As, Bs, cs, xs[0], u_nom)

        X_A, X_b = _halfspaces(X)
        E_A, E_b = _halfspaces(X if E is None else E)
        n_slack = N * X_A.shape[0] + E_A.shape[0] if soft else 0
        assert prob.n == N * (n + m) + n_slack
        z = np.concatenate([us.ravel(), np.concatenate(xs[1:]), np.zeros(n_slack)])
        Az = prob.A @ z
        eq = prob.l == prob.u
        assert eq.sum() == N * n
        assert np.max(np.abs(Az[eq] - prob.l[eq])) <= 1e-12
        inputs = np.isfinite(prob.l) & np.isfinite(prob.u) & ~eq
        assert inputs.sum() == N * m and np.all(prob.l[inputs] == -1.0) and np.all(prob.u[inputs] == 1.0)
        state = np.isneginf(prob.l)
        residual = np.concatenate([X_A @ xs[i] - X_b for i in range(1, N + 1)] + [E_A @ xs[N] - E_b])
        assert state.sum() == residual.size
        np.testing.assert_allclose(np.sort(Az[state] - prob.u[state]), np.sort(residual), rtol=0, atol=1e-12)
        # every set row a state violates is violated by exactly one QP row
        assert np.sum(Az[state] > prob.u[state]) == np.sum(residual > 0)
        violated += np.sum(residual > 0)
        assert prob.objective(z) == pytest.approx(0.5 * us[0] @ us[0] - u_nom @ us[0], abs=1e-12)
        if soft:
            slack_rows = (prob.l == 0.0) & np.isposinf(prob.u)
            assert slack_rows.sum() == n_slack
            for k in range(n_slack):
                dz = np.zeros(prob.n)
                dz[N * (n + m) + k] = 0.5
                dAz = prob.A @ dz
                assert np.sum(dAz[state] == -0.5) == 1 and np.sum(dAz[state] != 0.0) == 1
                assert np.sum(dAz[slack_rows] == 0.5) == 1
                assert prob.objective(dz) == 0.5 * weight * 0.25
    assert violated > 0
