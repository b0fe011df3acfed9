"""CBF/CLF filters and the N-step predictive safety filter."""

import numpy as np
import pytest

from certikit import dyn, filters, geom, nn, qp
from certikit.errors import DimensionMismatch, InfeasibleFilter, SqpNoConverge


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


@pytest.mark.parametrize("scale", [1e5, 1e6])
def test_barrier_exact_gradient_validates_far_from_origin(scale):
    # the reference gradient's rounding error is about eps |h(x)| / step;
    # a step that grows with max|x| keeps it below GRADIENT_TOL (1 + |grad h|)
    bar = filters.quadratic_barrier(np.eye(2), np.zeros(2), 1.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        bar.validate_gradient(rng.normal(size=2) * scale)


def test_cbf_rejects_input_box_of_wrong_dim():
    with pytest.raises(DimensionMismatch):
        filters.CbfFilter(
            dyn.linear_ode([[0.0]], [[1.0]]), filters.affine_barrier([-1.0], 1.0), geom.Box([-1.0, -1.0], [1.0, 1.0])
        )


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


def test_cbf_answer_stays_in_input_box():
    # at x = (0, -0.5) the disk barrier caps u1 at 1.15 with u0 on its box
    # bound -2; qp.solve's KKT acceptance puts u0 a few ulps below -2, and
    # the filter clips it back
    plane = dyn.linear_ode(np.zeros((2, 2)), np.eye(2))
    bars = [
        filters.affine_barrier([-1.0, 0.0], 1.0),
        filters.affine_barrier([0.0, -1.0], 1.0),
        filters.quadratic_barrier(-np.eye(2), [0.3, 0.3], -(0.3**2)),
    ]
    flt = filters.CbfFilter(plane, bars, geom.Box([-2.0, -2.0], [2.0, 2.0]))
    u = flt.filter(np.array([0.0, -0.5]), np.array([-2.5, 2.5]))
    assert u[0] == -2.0
    assert u[1] == pytest.approx(1.15, abs=1e-12)


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
    gv = clf.grad_V(x)
    brute = min(
        float(gv @ (ode.f(x) + ode.g(x) @ np.array(u)))
        for u in [(a, b) for a in (-1.0, 2.0) for b in (0.5, 3.0)]
    )
    assert rep["inf_lie_derivative"] == pytest.approx(brute, abs=1e-12)
    assert rep["minimizer_u"] == [2.0, 0.5]


def test_clf_gradient_finite_difference_without_grad():
    # V = x'x with no grad_V: the Lie derivative -2 x'x uses the fd gradient
    clf = filters.ClfSpec(lambda x: float(x @ x))
    x = np.array([0.5, -1.5, 2.0])
    ode = dyn.linear_ode(-np.eye(3))
    rep = filters.clf_check(ode, x, clf, geom.Box([-1.0], [1.0]))
    assert rep["inf_lie_derivative"] == pytest.approx(-2.0 * float(x @ x), rel=0, abs=1e-8)


def test_clf_gradient_of_lyapunov_candidate_is_exact():
    core = nn.Icnn(
        W=(np.eye(2), np.array([[0.5, 0.5]])),
        U=(np.array([[1.0, 0.3]]),),
        b=(np.zeros(2), np.zeros(1)),
        activations=("softplus", "softplus"),
    )
    V = nn.LyapunovCandidate(core, eps_quad=0.05)
    x = np.array([0.4, -1.1])
    ode = dyn.linear_ode(np.array([[-1.0, 0.5], [0.0, -2.0]]))  # g = 0: inf Lie = gv.f
    rep = filters.clf_check(ode, x, filters.ClfSpec(V), geom.Box([-1.0], [1.0]))
    _, gv = nn.value_and_gradient(V, x)
    assert rep["value"] == nn.lyapunov_eval(V, x)
    assert rep["inf_lie_derivative"] == float(gv @ ode.f(x))
    fd = nn.central_difference(lambda z: nn.lyapunov_eval(V, z), x)
    np.testing.assert_allclose(gv, fd, atol=1e-8)


def test_clf_check_rejects_two_output_network_v():
    V = nn.Mlp((nn.Layer(np.eye(2), np.zeros(2), "identity"),))
    with pytest.raises(ValueError):
        filters.clf_check(dyn.linear_ode(-np.eye(2)), np.ones(2), filters.ClfSpec(V), geom.Box([-1.0], [1.0]))


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
    u0, diag = filters.PredictiveSafetyFilter(model, cfg).filter(np.array([0.0]), np.array([0.2]))
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
    u0, _ = filters.PredictiveSafetyFilter(model, cfg).filter(np.array([0.95]), np.array([1.0]))
    assert u0[0] <= 0.05 + 1e-5


def test_psf_default_terminal_flagged():
    model = dyn.LinearMap(np.array([[1.0]]), np.array([[1.0]]))
    cfg = filters.PsfConfig(
        horizon=2, state_set=geom.Box([-1.0], [1.0]), input_set=geom.Box([-1.0], [1.0])
    )
    _, diag = filters.PredictiveSafetyFilter(model, cfg).filter(np.array([0.0]), np.array([0.1]))
    assert diag["terminal_set_defaulted"]


def test_psf_soft_slack_reports_magnitude():
    # start outside the state set: hard constraints infeasible, slack absorbs
    model = dyn.LinearMap(np.array([[1.0]]), np.array([[1.0]]))
    hard = filters.PsfConfig(
        horizon=2, state_set=geom.Box([-1.0], [1.0]), input_set=geom.Box([-0.1], [0.1])
    )
    with pytest.raises(InfeasibleFilter):
        filters.PredictiveSafetyFilter(model, hard).filter(np.array([2.0]), np.array([0.0]))
    soft = filters.PsfConfig(
        horizon=2,
        state_set=geom.Box([-1.0], [1.0]),
        input_set=geom.Box([-0.1], [0.1]),
        slack_weight=100.0,
    )
    _, diag = filters.PredictiveSafetyFilter(model, soft).filter(np.array([2.0]), np.array([0.0]))
    assert diag["max_slack"] > 0.5


def test_psf_nonlinear_sqp_runs():
    # mildly nonlinear ODE discretized to a map: successive linearization path
    ode = dyn.ControlAffineODE(
        drift=lambda x: np.array([-x[0] + 0.05 * x[0] ** 2]),
        input_map=lambda x: np.array([[1.0]]),
        state_dim=1,
        input_dim=1,
    )
    psf_model = dyn._OdeMapAdapter(ode, 0.1)
    cfg = filters.PsfConfig(
        horizon=3,
        state_set=geom.Box([-2.0], [2.0]),
        input_set=geom.Box([-1.0], [1.0]),
        terminal_set=geom.Box([-2.0], [2.0]),
    )
    u0, diag = filters.PredictiveSafetyFilter(psf_model, cfg).filter(np.array([0.5]), np.array([0.3]))
    assert diag["sqp_iterations"] >= 1
    assert diag.get("approximation") == "successive_linearization"
    assert -1.0 <= u0[0] <= 1.0


def _double_integrator_models():
    """The filter-loop benchmark's N = 10 double integrator: its exact linear
    model, its learned model (a 16-unit sigmoid MLP fitted by least squares on
    its output layer) and the PSF config."""
    dt = 0.1
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt**2], [dt]])
    rng = np.random.default_rng(2024)
    W1, b1 = 0.3 * rng.normal(size=(16, 3)), 0.3 * rng.normal(size=16)
    Z = rng.uniform(-2.0, 2.0, size=(800, 3))
    H = np.hstack([1.0 / (1.0 + np.exp(-(Z @ W1.T + b1))), np.ones((800, 1))])
    coef, *_ = np.linalg.lstsq(H, Z[:, :2] @ A.T + Z[:, 2:] @ B.T, rcond=None)
    net = nn.Mlp((nn.Layer(W1, b1, "sigmoid"), nn.Layer(coef[:-1].T, coef[-1], "identity")))
    cfg = filters.PsfConfig(
        horizon=10,
        state_set=geom.Box([-1.0, -1.0], [1.0, 1.0]),
        input_set=geom.Box([-1.0], [1.0]),
        terminal_set=geom.Box([-0.8, 0.0], [0.8, 0.0]),
    )
    return dyn.LinearMap(A, B), dyn.NetworkMap(net, input_dim=1), cfg


def test_psf_learned_network_model_episode():
    _, model, cfg = _double_integrator_models()
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


@pytest.mark.parametrize("learned", [False, True], ids=["exact", "learned"])
@pytest.mark.parametrize("u_nom", [0.0, -0.0])
def test_psf_zero_nominal_input(learned, u_nom):
    # with u_nom = 0 the plan's cost has no linear term and weighs only u0, so
    # every term of the optimum's stationarity residual is near 0; the QP
    # answer must still be certified
    exact, network, cfg = _double_integrator_models()
    u, diag = filters.PredictiveSafetyFilter(network if learned else exact, cfg).filter([0.25, -0.05], [u_nom])
    assert diag["qp_status"] == "Optimal"
    assert abs(u[0]) <= 1e-12


@pytest.mark.parametrize("learned", [False, True], ids=["exact", "learned"])
@pytest.mark.parametrize("u_nom", [1.0, 1.5, -1.0])
def test_psf_answer_stays_in_input_box(learned, u_nom):
    # from rest the input bound u0 = +-1 binds; qp.solve's KKT acceptance
    # puts the QP's answer a few ulps outside it, and the filter clips it back
    exact, network, cfg = _double_integrator_models()
    u, _ = filters.PredictiveSafetyFilter(network if learned else exact, cfg).filter([0.0, 0.0], [u_nom])
    assert u[0] == np.sign(u_nom)


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
        # the filter answers the same QP, clipped into the input box
        assert np.array_equal(flt.filter(x, np.array([1.2]))[0], np.clip(sol.z[:1], -1.0, 1.0))
        Az = prob.A @ sol.z
        assert max(np.max(prob.l - Az), np.max(Az - prob.u)) <= 1e-12
        assert np.max(np.abs(prob.P @ sol.z + prob.q + prob.A.T @ sol.dual)) <= 1e-12
        braked += sol.z[0] < 1.0 - 1e-6
        x = A @ x + B @ sol.z[:1]
    assert braked > 0


def test_psf_qp_is_condensed():
    # the plan's inputs are the only variables: no predicted state and no
    # dynamics row, so the filter-loop QP has N*m = 10 variables and
    # 10 input-box rows, 4 * 10 state rows and 4 terminal rows
    exact, _, cfg = _double_integrator_models()
    flt = filters.PredictiveSafetyFilter(exact, cfg)
    prob = flt._build_qp([exact.A] * 10, [exact.B] * 10, [np.zeros(2)] * 10, np.array([0.2, 0.3]), np.array([1.2]))
    assert (prob.n, prob.m) == (10, 54)
    assert not np.any(prob.l == prob.u)


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
    # what the condensed QP means, read through z = (u, slacks) only: at a
    # plan's inputs, each state row measures one row of X at one stage of the
    # rolled-out plan (or of E at x_N), and each slack relaxes one
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
        assert prob.n == N * m + n_slack
        z = np.concatenate([us.ravel(), np.zeros(n_slack)])
        Az = prob.A @ z
        inputs = np.isfinite(prob.l) & np.isfinite(prob.u)
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
                dz[N * m + k] = 0.5
                dAz = prob.A @ dz
                assert np.sum(dAz[state] == -0.5) == 1 and np.sum(dAz[state] != 0.0) == 1
                assert np.sum(dAz[slack_rows] == 0.5) == 1
                assert prob.objective(dz) == 0.5 * weight * 0.25
    assert violated > 0


def test_psf_learned_model_persistent_push_fails_typed():
    # the learned model under the exact-model episode's persistent push, 20
    # episodes of 20 ticks: every episode either completes or ends in
    # InfeasibleFilter, after ticks that all keep the state inside the state
    # set. 174 ticks complete; the bound is the 127 that completed when the
    # SQP's steps were clipped to a trust box and it gave up (SqpNoConverge)
    _, model, cfg = _double_integrator_models()
    psf = filters.PredictiveSafetyFilter(model, cfg)
    ticks = 0
    for ep in range(20):
        rng = np.random.default_rng([1, ep])
        x = rng.uniform([-0.5, -0.3], [0.5, 0.3])
        push = rng.choice([-1.0, 1.0])
        for u_nom in [push * rng.uniform(0.5, 1.5, size=1) for _ in range(20)]:
            try:
                u, _ = psf.filter(x, u_nom)
            except InfeasibleFilter:
                break
            ticks += 1
            x = dyn.step(model, x, u)
            assert np.all(np.abs(x) <= 1.0 + 1e-6)
    assert ticks >= 127


def test_psf_sqp_no_converge_raises_typed():
    # one pass cannot converge on a tick whose plan must move: from rest the
    # first input passes u_nom = 1 through, but the terminal set (v = 0)
    # turns the nominal plan's later inputs into a brake
    _, model, cfg = _double_integrator_models()
    psf = filters.PredictiveSafetyFilter(model, cfg)
    u, diag = psf.filter([0.0, 0.0], [1.0])
    assert u[0] == pytest.approx(1.0, abs=1e-12) and diag["sqp_iterations"] >= 2
    psf.SQP_MAX = 1
    with pytest.raises(SqpNoConverge):
        psf.filter([0.0, 0.0], [1.0])


@pytest.mark.parametrize(
    "x, u_nom",
    [([0.1, 0.0], [0.2, 0.2]), ([0.1, 0.0, 0.0], [0.2]), ([0.1], [0.2]), ([0.1, 0.0], [])],
    ids=["u_nom_too_long", "x_too_long", "x_too_short", "u_nom_empty"],
)
def test_psf_rejects_wrong_dims(x, u_nom):
    # a 2-state, 1-input model, exact and learned
    exact, learned, cfg = _double_integrator_models()
    for model in (exact, learned):
        with pytest.raises(DimensionMismatch):
            filters.PredictiveSafetyFilter(model, cfg).filter(x, u_nom)
