"""Discrete maps, ODE integration, closed-loop composition, linearization."""

import warnings

import numpy as np
import pytest
from helpers_oracles import decimal_jacobian

from certikit import dyn, nn
from certikit.errors import DimensionMismatch, NonFiniteState


def test_linear_map_step():
    m = dyn.LinearMap(np.array([[0.5, 0.0], [0.0, 2.0]]), np.array([[1.0], [0.0]]))
    out = dyn.step(m, [1.0, 1.0], [0.25])
    np.testing.assert_allclose(out, [0.75, 2.0])


def test_step_rejects_wrong_dims():
    m = dyn.LinearMap(np.eye(2))
    with pytest.raises(DimensionMismatch):
        dyn.step(m, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        dyn.step(m, [1.0, 2.0], [0.5])  # autonomous map takes no input


def test_polynomial_map_matches_hand_computation():
    # x+ = (x1^2, x0*x1): quadratic only
    Q = np.zeros((2, 2, 2))
    Q[0, 1, 1] = 1.0
    Q[1, 0, 1] = Q[1, 1, 0] = 0.5
    m = dyn.PolynomialMap(np.zeros((2, 2)), Q)
    np.testing.assert_allclose(dyn.step(m, [2.0, 3.0]), [9.0, 6.0])


def test_network_map_step():
    net = nn.Mlp((nn.Layer(np.array([[1.0, 1.0]]), np.array([0.0]), "relu"),))
    m = dyn.NetworkMap(net, input_dim=1)
    assert m.state_dim == 1
    np.testing.assert_allclose(dyn.step(m, [2.0], [3.0]), [5.0])


def test_simulate_map_rollout():
    m = dyn.KoopmanLatentMap(0.5 * np.eye(1))
    traj = dyn.simulate_map(m, [8.0], 3)
    np.testing.assert_allclose(traj.ravel(), [8.0, 4.0, 2.0, 1.0])


def test_rk4_exponential_accuracy():
    # dx/dt = -x from x=1 over t=1: error ~ dt^4
    ode = dyn.linear_ode(np.array([[-1.0]]))
    dt = 0.01
    traj = dyn.simulate_ode(ode, [1.0], np.zeros((100, 1)), dt)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-9
    assert traj.times[-1] == pytest.approx(1.0)


def test_rk4_order_slope():
    ode = dyn.linear_ode(np.array([[-1.0]]))
    errs = []
    for n in (10, 20, 40):
        traj = dyn.simulate_ode(ode, [1.0], np.zeros((n, 1)), 1.0 / n)
        errs.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
    slopes = np.diff(-np.log2(errs))
    assert np.all(slopes > 3.5)


@pytest.mark.filterwarnings("ignore:overflow")
def test_simulate_ode_diverging_raises_with_step():
    ode = dyn.linear_ode(np.array([[50.0]]))
    # the same RK4 stages on a float64 scalar: the first step that overflows
    x, expected = np.float64(1.0), None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 2001):
            k1 = 50.0 * x
            k2 = 50.0 * (x + 0.5 * k1)
            k3 = 50.0 * (x + 0.5 * k2)
            k4 = 50.0 * (x + k3)
            x = x + (1.0 / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(x):
                expected = k
                break
    assert expected is not None
    with pytest.raises(NonFiniteState) as exc:
        dyn.simulate_ode(ode, [1.0], np.zeros((2000, 1)), 1.0)
    assert exc.value.step == expected
    assert str(expected) in str(exc.value)


def test_bicycle_clamps_inputs():
    b = dyn.BicycleModel(steer_limit=0.3, accel_limit=1.0)
    traj1 = dyn.simulate_ode(b, [0, 0, 0, 5.0], [[10.0, 99.0]], 0.1)
    traj2 = dyn.simulate_ode(b, [0, 0, 0, 5.0], [[0.3, 1.0]], 0.1)
    np.testing.assert_allclose(traj1.states[-1], traj2.states[-1])


def test_closed_loop_linear_gain_is_exact():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    K = np.array([[-10.0, -5.0]])
    cl = dyn.closed_loop(dyn.LinearMap(A, B), dyn.LinearPolicy(K))
    assert isinstance(cl, dyn.LinearMap)
    np.testing.assert_allclose(cl.A, A + B @ K)
    x = np.array([0.5, -0.2])
    np.testing.assert_allclose(dyn.step(cl, x), A @ x + B @ (K @ x))


def test_closed_loop_ode_discretization():
    ode = dyn.linear_ode(np.array([[-1.0]]), np.array([[0.0]]))
    cl = dyn.closed_loop(ode, None, dt=0.1)
    x = dyn.step(cl, [1.0])
    assert x[0] == pytest.approx(np.exp(-0.1), abs=1e-7)


def test_linearize_matches_linear_map_exactly():
    A = np.array([[0.3, 1.0], [0.0, 0.9]])
    B = np.array([[0.0], [1.0]])
    Aj, Bj = dyn.linearize(dyn.LinearMap(A, B), [1.0, 2.0], [0.1])
    np.testing.assert_array_equal(Aj, A)
    np.testing.assert_array_equal(Bj, B)


def test_linearize_polynomial_fd_accuracy():
    Q = np.zeros((1, 1, 1))
    Q[0, 0, 0] = 1.0
    m = dyn.PolynomialMap(np.array([[0.5]]), Q)  # x+ = 0.5x + x^2
    A, _ = dyn.linearize(m, [2.0])
    assert A[0, 0] == pytest.approx(0.5 + 2 * 2.0, abs=1e-6)


@pytest.mark.parametrize("act", ["sigmoid", "softplus", "relu", "identity"])
@pytest.mark.parametrize("m", [0, 1])
def test_linearize_network_matches_decimal_jacobian(act, m):
    rng = np.random.default_rng([m, len(act)])
    n = 2
    net = nn.Mlp(
        (
            nn.Layer(rng.normal(size=(8, n + m)), rng.normal(size=8), act),
            nn.Layer(rng.normal(size=(6, 8)) / 2, rng.normal(size=6), act),
            nn.Layer(rng.normal(size=(n, 6)), rng.normal(size=n), "identity"),
        )
    )
    layers = [(l.W.tolist(), l.b.tolist(), l.activation) for l in net.layers]
    model = dyn.NetworkMap(net, input_dim=m)
    for _ in range(5):
        x, u = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, m)
        A, B = dyn.linearize(model, x, u if m else None)
        ref = np.array(decimal_jacobian(layers, np.concatenate([x, u])))
        assert A.shape == (n, n) and B.shape == (n, m)
        err = np.max(np.abs(np.hstack([A, B]) - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))


def test_linearize_network_across_relu_kink_is_exact():
    # f(x, u) = relu(x) + relu(x - u) at x = 3e-6, u = 0: both units active,
    # and a central difference with step 1e-5 crosses both kinks
    net = nn.Mlp(
        (
            nn.Layer([[1.0, 0.0], [1.0, -1.0]], [0.0, 0.0], "relu"),
            nn.Layer([[1.0, 1.0]], [0.0], "identity"),
        )
    )
    A, B = dyn.linearize(dyn.NetworkMap(net, input_dim=1), [3e-6], [0.0])
    assert A.tolist() == [[2.0]] and B.tolist() == [[-1.0]]


def test_linearize_identity_network_returns_weights_bit_exactly():
    rng = np.random.default_rng(3)
    A0, B0 = rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
    net = nn.Mlp((nn.Layer(np.hstack([A0, B0]), rng.normal(size=3), "identity"),))
    A, B = dyn.linearize(dyn.NetworkMap(net, input_dim=2), rng.normal(size=3), rng.normal(size=2))
    np.testing.assert_array_equal(A, A0)
    np.testing.assert_array_equal(B, B0)


@pytest.mark.parametrize("act", ["sigmoid", "softplus"])
def test_linearize_network_saturated_units_warn_nothing(act):
    # preactivations of +800 and -800
    net = nn.Mlp(
        (
            nn.Layer([[800.0, 0.0], [-800.0, 0.0]], [0.0, 0.0], act),
            nn.Layer([[1.0, 1.0]], [0.0], "identity"),
        )
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A, B = dyn.linearize(dyn.NetworkMap(net, input_dim=1), [1.0], [0.5])
    assert np.all(np.isfinite(A)) and np.all(np.isfinite(B))
    assert B.tolist() == [[0.0]]


def test_phs_structure_and_energy():
    sys = dyn.PhsSystem(
        S=np.array([[0.0, 0.5], [-0.5, 0.0]]),
        L=np.zeros((2, 1)),
        G=np.array([[0.0], [1.0]]),
        P=np.eye(2),
    )
    np.testing.assert_allclose(sys.J, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(sys.R, np.zeros((2, 2)))
    assert sys.hamiltonian([3.0, 4.0]) == pytest.approx(12.5)
    traj = dyn.simulate_ode(dyn.phs_ode(sys), [1.0, 0.0], np.zeros((100, 1)), 0.01)
    H = [sys.hamiltonian(x) for x in traj.states]
    assert max(H) - min(H) < 1e-9


def test_model_roundtrip_serialization():
    models = [
        dyn.LinearMap(np.eye(2), np.array([[1.0], [0.0]])),
        dyn.KoopmanLatentMap(0.7 * np.eye(3)),
        dyn.NetworkMap(nn.Mlp((nn.Layer(np.eye(2), np.zeros(2), "relu"),))),
    ]
    for m in models:
        m2 = dyn.model_from_dict(dyn.model_to_dict(m))
        assert type(m2) is type(m)
        x = np.ones(m.state_dim)
        u = np.ones(m.input_dim) if m.input_dim else None
        np.testing.assert_allclose(dyn.step(m2, x, u), dyn.step(m, x, u))


def test_trajectory_csv(tmp_path):
    ode = dyn.linear_ode(np.array([[-1.0]]), np.array([[1.0]]))
    traj = dyn.simulate_ode(ode, [1.0], np.ones((5, 1)), 0.1)
    path = tmp_path / "traj.csv"
    dyn.trajectory_to_csv(traj, path)
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    assert raw.shape == (6, 3)
    np.testing.assert_allclose(raw[:, 1], traj.states[:, 0], rtol=1e-10)
