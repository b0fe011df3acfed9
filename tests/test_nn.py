"""Network evaluation, ICNN validation, Lipschitz bounds, and weight I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certikit import geom, nn
from certikit.errors import DimensionMismatch, UnsupportedActivation, UnsupportedModel


def small_mlp():
    return nn.Mlp(
        (
            nn.Layer(np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.0, -1.0]), "relu"),
            nn.Layer(np.array([[1.0, 1.0]]), np.array([0.5]), "identity"),
        )
    )


def test_forward_known_values():
    net = small_mlp()
    # x = (1, 0): pre = (1, -0.5) -> relu (1, 0) -> out 1 + 0.5 = 1.5
    assert nn.forward(net, np.array([1.0, 0.0]))[0] == pytest.approx(1.5)
    # batch path agrees with single path
    X = np.array([[1.0, 0.0], [0.2, -0.3]])
    batch = nn.forward(net, X)
    for i, x in enumerate(X):
        np.testing.assert_allclose(batch[i], nn.forward(net, x))


def test_activation_values():
    assert nn._act("softplus", np.array([0.0]))[0] == pytest.approx(np.log(2.0))
    assert nn._act("sigmoid", np.array([0.0]))[0] == pytest.approx(0.5)
    # overflow-safe softplus for large inputs
    assert nn._act("softplus", np.array([800.0]))[0] == pytest.approx(800.0)


def test_layer_validation():
    with pytest.raises(DimensionMismatch):
        nn.Layer(np.eye(2), np.zeros(3))
    with pytest.raises(UnsupportedActivation):
        nn.Layer(np.eye(2), np.zeros(2), "tanh")
    with pytest.raises(DimensionMismatch):
        nn.Mlp((nn.Layer(np.eye(2), np.zeros(2)), nn.Layer(np.ones((1, 3)), np.zeros(1))))


def make_icnn(u_entry=1.0):
    return nn.Icnn(
        W=(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.5, 0.5]])),
        U=(np.array([[u_entry, 0.3]]),),
        b=(np.zeros(2), np.zeros(1)),
        activations=("softplus", "softplus"),
    )


def test_icnn_convexity_report_passes():
    net = make_icnn()
    rep = nn.check_icnn(net, geom.Box([-2, -2], [2, 2]), trials=200, seed=0)
    assert rep["passed"]
    assert rep["structural_ok"] and rep["midpoint_convexity_ok"]


def test_icnn_negative_latent_weight_flagged():
    net = make_icnn(u_entry=-0.8)
    rep = nn.check_icnn(net, geom.Box([-2, -2], [2, 2]), trials=50, seed=0)
    assert not rep["structural_ok"]
    assert rep["structural_violations"]


def test_icnn_rejects_nonconvex_activation():
    with pytest.raises(UnsupportedActivation):
        nn.Icnn(
            W=(np.eye(2), np.ones((1, 2))),
            U=(np.ones((1, 2)),),
            b=(np.zeros(2), np.zeros(1)),
            activations=("sigmoid", "relu"),
        )


def test_icnn_jacobian_closed_form():
    # out = softplus(U softplus(x) + 0.5 (x1 + x2)), so
    # d out / dx = sig(pre) (U diag(sig(x)) + [0.5, 0.5]) with sig = softplus'
    net = make_icnn()
    U = net.U[0][0]
    sig = lambda t: 1.0 / (1.0 + np.exp(-t))
    for x in ([0.3, -1.2], [2.0, 0.5], [-3.0, -0.1]):
        x = np.array(x)
        pre = U @ np.logaddexp(0.0, x) + 0.5 * x.sum()
        expected = sig(pre) * (U * sig(x) + 0.5)
        np.testing.assert_allclose(nn.jacobian(net, x), [expected], rtol=1e-14)


def test_jacobian_rejects_other_networks_and_wrong_dims():
    with pytest.raises(UnsupportedModel):
        nn.jacobian(nn.LyapunovCandidate(make_icnn(), eps_quad=1e-3), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        nn.jacobian(small_mlp(), np.zeros(3))


def test_lyapunov_zero_at_origin_and_positive():
    V = nn.LyapunovCandidate(make_icnn(), eps_quad=1e-3)
    assert nn.lyapunov_eval(V, np.zeros(2)) == 0.0
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 2))
    vals = nn.lyapunov_eval(V, X)
    # the shifted softplus can dip at most log 2 below zero
    assert np.all(vals >= 1e-3 * np.sum(X**2, axis=1) - np.log(2.0) - 1e-12)


def test_lipschitz_bound_linear_exact():
    W = np.array([[3.0, 0.0], [0.0, 1.0]])
    net = nn.Mlp((nn.Layer(W, np.zeros(2), "identity"),))
    assert nn.lipschitz_bound(net) == pytest.approx(3.0, rel=1e-6)


def test_lipschitz_bound_dominates_samples():
    rng = np.random.default_rng(4)
    net = nn.Mlp(
        (
            nn.Layer(rng.normal(size=(5, 3)), rng.normal(size=5), "relu"),
            nn.Layer(rng.normal(size=(2, 5)), rng.normal(size=2), "identity"),
        )
    )
    L = nn.lipschitz_bound(net)
    X = rng.normal(size=(200, 3))
    Y = X + rng.normal(scale=0.1, size=X.shape)
    num = np.linalg.norm(nn.forward(net, X) - nn.forward(net, Y), axis=1)
    den = np.linalg.norm(X - Y, axis=1)
    assert np.all(num <= L * den + 1e-9)


def test_lipschitz_bound_covers_near_tied_singular_values():
    # W = U diag(s) V' has spectral norm 1; with the top two singular values
    # this close, power iteration stops early and comes in under the norm
    rng = np.random.default_rng(12)
    s = np.array([1.0, 1.0 - 1e-4, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    for _ in range(50):
        U, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        V, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        net = nn.Mlp((nn.Layer(U @ np.diag(s) @ V.T, np.zeros(8), "identity"),))
        assert nn.lipschitz_bound(net) >= 1.0


def test_weight_roundtrip(tmp_path):
    for net in (small_mlp(), make_icnn(), nn.LyapunovCandidate(make_icnn(), 1e-2)):
        p = tmp_path / "net.json"
        nn.save_network(net, p)
        net2 = nn.load_network(p)
        x = np.array([0.3, -0.7])
        if isinstance(net, nn.LyapunovCandidate):
            assert nn.lyapunov_eval(net2, x) == pytest.approx(nn.lyapunov_eval(net, x))
        else:
            np.testing.assert_allclose(nn.forward(net2, x), nn.forward(net, x))


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_icnn_midpoint_convexity_property(ax, ay, bx, by):
    net = make_icnn()
    a = np.array([ax, ay])
    b = np.array([bx, by])
    fm = nn.forward(net, 0.5 * (a + b))[0]
    avg = 0.5 * (nn.forward(net, a)[0] + nn.forward(net, b)[0])
    assert fm <= avg + 1e-9
