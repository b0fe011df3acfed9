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


def test_layer_rejects_weights_that_are_not_2d():
    # a 3-D W would pass the bias check (shape[0] == 1) and fail later, deep in milp
    with pytest.raises(DimensionMismatch):
        nn.Layer(np.ones((1, 1, 1)), np.zeros(1))


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
        np.testing.assert_allclose(nn.value_and_jacobian(net, x)[1], [expected], rtol=1e-14)


def test_jacobian_rejects_other_networks_and_wrong_dims():
    with pytest.raises(UnsupportedModel):
        nn.value_and_jacobian(lambda x: x, np.zeros(2))
    with pytest.raises(UnsupportedModel):
        nn.value_and_jacobian(nn.LyapunovCandidate(make_icnn(), eps_quad=0.05), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        nn.value_and_jacobian(small_mlp(), np.zeros(3))


def test_lyapunov_candidate_jacobian_closed_form():
    # V = softplus(g(x) - g(0)) - softplus(0) + eps |x|^2 with g the ICNN above,
    # so grad V = sig(g(x) - g(0)) grad g(x) + 2 eps x, sig = softplus'
    V = nn.LyapunovCandidate(make_icnn(), eps_quad=0.05)
    U = V.core.U[0][0]
    sig = lambda t: 1.0 / (1.0 + np.exp(-t))
    pre = lambda x: U @ np.logaddexp(0.0, x) + 0.5 * x.sum()
    for x in ([0.3, -1.2], [2.0, 0.5], [-3.0, -0.1]):
        x = np.array(x)
        grad_g = sig(pre(x)) * (U * sig(x) + 0.5)
        s = np.logaddexp(0.0, pre(x)) - np.logaddexp(0.0, pre(np.zeros(2)))
        v, grad = nn.value_and_gradient(V, x)
        assert v == nn.lyapunov_eval(V, x)
        np.testing.assert_allclose(grad, sig(s) * grad_g + 0.1 * x, rtol=1e-14)


def test_value_and_gradient_of_network_is_its_pass():
    rng = np.random.default_rng(3)
    net = _random_mlp(rng, (3, 5, 4, 1), ("softplus", "relu", "identity"))
    for net in (net, make_icnn()):
        for x in rng.normal(size=(10, net.in_dim)):
            v, grad = nn.value_and_gradient(net, x)
            assert v == nn.forward(net, x)[0]
            assert np.array_equal(grad, nn.value_and_jacobian(net, x)[1][0])


def test_value_and_gradient_of_callable():
    f = lambda x: float(np.sum(np.sin(x)))
    x = np.array([0.3, -1.2, 2.5])
    g = np.array([1.0, 2.0, 3.0])
    v, grad = nn.value_and_gradient(f, x, lambda z: g)
    assert v == f(x)
    assert np.array_equal(grad, g)
    # central differences at step h = 1e-5 (1 + 2.5): truncation h^2/6 ~ 2e-10
    # plus rounding ~ eps/h ~ 6e-12 per coordinate
    v, grad = nn.value_and_gradient(f, x)
    assert v == f(x)
    np.testing.assert_allclose(grad, np.cos(x), rtol=0, atol=1e-9)


def test_central_difference_step_scales_with_the_point():
    for x in (np.zeros(2), np.array([3.0, -250.0, 0.5])):
        seen = []
        f = lambda z: seen.append(z.copy()) or float(z @ z)
        nn.value_and_gradient(f, x)
        assert np.array_equal(seen[0], x) and len(seen) == 1 + 2 * x.size
        h = 1e-5 * (1.0 + np.max(np.abs(x)))
        for i, (plus, minus) in enumerate(zip(seen[1::2], seen[2::2])):
            np.testing.assert_allclose(plus - minus, 2 * h * np.eye(x.size)[i], rtol=1e-9, atol=0)
            np.testing.assert_allclose(plus + minus, 2 * x, rtol=1e-15, atol=0)


def _random_mlp(rng, dims, acts):
    return nn.Mlp(
        tuple(nn.Layer(rng.normal(size=(o, i)), rng.normal(size=o), a) for i, o, a in zip(dims, dims[1:], acts))
    )


def _rounding_room(first, second, Z, k):
    """Room for two evaluation orders of the same two affine layers on rows Z:
    each result is within (k + 2) eps of the sum of its absolute terms,
    sum |W_2| (|W_1| |z| + |b_1|) + |b_2|, where k is the two dot products'
    summed length (a standard dot-product rounding bound), so they differ by
    at most twice that; 4 (k + 2) eps leaves a factor of two over it. A relu
    applied to both is 1-Lipschitz and keeps the bound."""
    terms = (np.abs(Z) @ np.abs(first.W).T + np.abs(first.b)) @ np.abs(second.W).T + np.abs(second.b)
    return 4 * (k + 2) * np.finfo(float).eps * terms


def test_compose_is_sequential_evaluation():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 4))
    f = _random_mlp(rng, [3, 5, 2], ["relu", "identity"])
    # an inner net ending in relu is followed by the outer net's layers as they are
    g = _random_mlp(rng, [4, 6, 3], ["sigmoid", "relu"])
    fg = nn.compose(f, g)
    assert len(fg.layers) == 4
    assert np.array_equal(nn.forward(fg, X), nn.forward(f, nn.forward(g, X)))
    # an identity last layer is fused into the outer net's first layer, which
    # sums the same terms in another order
    g = _random_mlp(rng, [4, 6, 3], ["sigmoid", "identity"])
    f = _random_mlp(rng, [3, 5], ["relu"])
    fg = nn.compose(f, g)
    assert len(fg.layers) == 2
    z = nn.forward(nn.Mlp(g.layers[:1]), X)
    err = np.abs(nn.forward(fg, X) - nn.forward(f, nn.forward(g, X)))
    assert np.all(err <= _rounding_room(g.layers[1], f.layers[0], z, 6 + 3))


def test_stack_is_concatenated_evaluation():
    # the stacked net sums the same terms with zeros between them, which BLAS
    # may group differently from the separate products, so it agrees with
    # the concatenated outputs within the rounding room of its own two layers
    rng = np.random.default_rng(4)
    nets = [_random_mlp(rng, [3, h, o], ["relu", "identity"]) for h, o in ((5, 1), (4, 2), (7, 1))]
    s = nn.stack(*nets)
    assert s.in_dim == 3 and s.out_dim == 4 and len(s.layers) == 2
    X = rng.normal(size=(200, 3))
    err = np.abs(nn.forward(s, X) - np.hstack([nn.forward(net, X) for net in nets]))
    assert np.all(err <= _rounding_room(*s.layers, X, 3 + 16))


def test_compose_and_stack_reject_mismatches():
    f = small_mlp()  # 2 -> 1, relu then identity
    with pytest.raises(DimensionMismatch):
        nn.compose(f, f)
    with pytest.raises(UnsupportedModel):
        nn.compose(f, make_icnn())
    with pytest.raises(DimensionMismatch):
        nn.stack(f, nn.Mlp((nn.Layer(np.ones((2, 3)), np.zeros(2), "relu"), f.layers[1])))
    with pytest.raises(UnsupportedModel):  # depth
        nn.stack(f, nn.Mlp(f.layers[:1] + (nn.Layer(np.eye(2), np.zeros(2), "relu"),) + f.layers[1:]))
    with pytest.raises(UnsupportedModel):  # activation
        nn.stack(f, nn.Mlp((nn.Layer(f.layers[0].W, f.layers[0].b, "sigmoid"), f.layers[1])))
    with pytest.raises(UnsupportedModel):
        nn.stack()


def test_lyapunov_candidate_rejects_unknown_outer():
    with pytest.raises(UnsupportedActivation):
        nn.LyapunovCandidate(make_icnn(), eps_quad=0.05, outer="tanh")
    d = nn.network_to_dict(nn.LyapunovCandidate(make_icnn(), eps_quad=0.05))
    d["outer"] = "tanh"
    with pytest.raises(UnsupportedActivation):
        nn.network_from_dict(d)


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
