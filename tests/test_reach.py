"""Interval propagation soundness, sampled templates, sample-size bounds,
and invariant-set estimation."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from certikit import dyn, geom, nn, reach
from certikit.errors import DimensionMismatch, NonFiniteState, NotFixedPoint, SampleSizeOverflow, UnsupportedModel


def test_interval_linear_exact():
    A = np.array([[0.5, -0.25], [0.0, 0.5]])
    res = reach.propagate_interval(dyn.LinearMap(A), geom.Box([-1, -1], [1, 1]), 1)
    box = res.regions[-1]
    # exact interval image: |A| applied to the radius
    np.testing.assert_allclose(box.lower, [-0.75, -0.5])
    np.testing.assert_allclose(box.upper, [0.75, 0.5])
    assert res.guarantee == "sound_overapprox"


def test_interval_network_sound():
    rng = np.random.default_rng(0)
    net = nn.Mlp(
        (
            nn.Layer(rng.normal(size=(6, 2)), rng.normal(size=6), "relu"),
            nn.Layer(rng.normal(size=(2, 6)), rng.normal(size=2), "identity"),
        )
    )
    model = dyn.NetworkMap(net)
    x0 = geom.Box([-0.5, -0.5], [0.5, 0.5])
    res = reach.propagate_interval(model, x0, 2)
    X = geom.sample_region(x0, 500, rng)
    for _ in range(2):
        X = np.array([dyn.step(model, x) for x in X])
    final = res.regions[-1]
    assert all(geom.contains(final, x) for x in X)


def test_interval_rejects_controlled_and_unsupported():
    with pytest.raises(UnsupportedModel):
        reach.propagate_interval(
            dyn.LinearMap(np.eye(1), np.ones((1, 1))), geom.Box([0.0], [1.0]), 1
        )
    Q = np.zeros((1, 1, 1))
    with pytest.raises(UnsupportedModel):
        reach.propagate_interval(
            dyn.PolynomialMap(np.eye(1), Q), geom.Box([0.0], [1.0]), 1
        )


def test_interval_rejects_a_box_of_the_wrong_dimension():
    net = nn.Mlp((nn.Layer(np.eye(2), np.zeros(2), "relu"),))
    for model in (dyn.LinearMap(np.eye(2)), dyn.NetworkMap(net)):
        with pytest.raises(DimensionMismatch):
            reach.propagate_interval(model, geom.Box([0.0], [1.0]), 1)


def test_preactivation_bounds_contain_samples():
    rng = np.random.default_rng(1)
    net = nn.Mlp(
        (
            nn.Layer(rng.normal(size=(4, 2)), rng.normal(size=4), "relu"),
            nn.Layer(rng.normal(size=(1, 4)), rng.normal(size=1), "identity"),
        )
    )
    box = geom.Box([-1, -1], [1, 1])
    bounds = reach.network_preactivation_bounds(net, box)
    X = geom.sample_region(box, 300, rng)
    Z = X
    for (lo, hi), layer in zip(bounds, net.layers):
        pre = Z @ layer.W.T + layer.b
        assert np.all(pre >= lo - 1e-12) and np.all(pre <= hi + 1e-12)
        Z = np.maximum(pre, 0.0) if layer.activation == "relu" else pre


def test_interval_overflow_raises_at_its_step():
    # 1e300 stays finite after one step and overflows at the second
    with pytest.raises(NonFiniteState) as exc:
        reach.propagate_interval(dyn.LinearMap(np.array([[1e300]])), geom.Box([-1.0], [1.0]), 3)
    assert exc.value.step == 2


def test_preactivation_bounds_overflow_names_the_layer():
    net = nn.Mlp(
        (
            nn.Layer(np.array([[1e300], [-1e300]]), np.zeros(2), "relu"),
            nn.Layer(np.array([[1e300, 1e300]]), np.zeros(1), "identity"),
        )
    )
    with pytest.raises(NonFiniteState) as exc:
        reach.network_preactivation_bounds(net, geom.Box([-1.0], [1.0]))
    assert exc.value.step == 2


def test_hull_distance_values():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert reach.hull_distance(tri, np.array([0.2, 0.2])) == pytest.approx(0.0, abs=1e-5)
    assert reach.hull_distance(tri, np.array([1.0, 1.0])) == pytest.approx(
        np.sqrt(0.5), abs=1e-4
    )


def test_sample_hull_containment_matches_facet_equations():
    """Fresh-sample containment of the sampled hull equals the rate read off
    Qhull's facet equations (eps = 0: no slack beyond the 1e-7 tolerance)."""
    model = dyn.LinearMap(np.array([[1.0, 0.3], [0.0, 0.2]]))
    x0 = geom.Box([-1.0, -1.0], [1.0, 1.0])
    cfg = reach.ReachConfig(steps=2, template="sample_hull", n_samples=100, eps=0.0, seed=1)
    res = reach.reach_sampled(model, x0, cfg)
    # the fresh samples reach_sampled draws after its cloud
    rng = np.random.default_rng(1)
    geom.sample_region(x0, 100, rng)
    F = geom.sample_region(x0, 100, rng)
    F = np.array([dyn.step(model, dyn.step(model, x)) for x in F])
    eq = ConvexHull(res.regions[2].points).equations
    margin = np.max(F @ eq[:, :2].T + eq[:, 2], axis=1)
    assert np.min(np.abs(margin)) > 1e-6  # no sample is ambiguous
    exact = float(np.mean(margin <= 0.0))
    assert exact == pytest.approx(0.79)
    assert res.metadata["fresh_containment"][1] == exact


@pytest.mark.parametrize("template", ["interval", "pca_box", "sample_hull", "ball_union"])
def test_reach_sampled_templates_contain_pushed_samples(template):
    model = dyn.LinearMap(np.array([[0.5, 0.1], [0.0, 0.5]]))
    cfg = reach.ReachConfig(steps=3, template=template, n_samples=150, eps=0.1, seed=0)
    res = reach.reach_sampled(model, geom.Box([-1, -1], [1, 1]), cfg)
    assert len(res.regions) == 4
    assert res.guarantee == "statistical"
    assert res.metadata["fresh_containment"][-1] >= 0.9


def test_reach_sampled_deterministic():
    model = dyn.LinearMap(0.8 * np.eye(2))
    cfg = reach.ReachConfig(steps=2, template="interval", n_samples=50, eps=0.01, seed=7)
    r1 = reach.reach_sampled(model, geom.Box([-1, -1], [1, 1]), cfg)
    r2 = reach.reach_sampled(model, geom.Box([-1, -1], [1, 1]), cfg)
    assert r1.to_dict() == r2.to_dict()


def test_sample_size_monotone_and_overflow():
    n1 = reach.sample_size(0.2, 0.1, 1.0, 2.0, 2)
    n2 = reach.sample_size(0.1, 0.1, 1.0, 2.0, 2)
    assert n2 > n1 >= 1
    n3 = reach.sample_size(0.2, 0.05, 1.0, 2.0, 2)
    assert n3 >= n1
    with pytest.raises(SampleSizeOverflow):
        reach.sample_size(1e-6, 0.1, 10.0, 10.0, 6)


def test_estimate_invariant_contraction():
    model = dyn.LinearMap(0.5 * np.eye(2))
    cfg = reach.ReachConfig(steps=1, n_samples=200, eps=0.2, seed=3)
    est = reach.estimate_invariant(
        model, geom.Box([-1, -1], [1, 1]), np.zeros(2), cfg, {"r": 0.1, "T": 20}
    )
    # everything contracts to the origin, so all samples label positive
    assert est.n_positive == est.n_samples
    assert est.recurrence_verified


def test_estimate_invariant_rejects_moving_point():
    model = dyn.LinearMap(0.5 * np.eye(2))
    cfg = reach.ReachConfig(n_samples=10, seed=0)
    with pytest.raises(NotFixedPoint):
        reach.estimate_invariant(
            model, geom.Box([-1, -1], [1, 1]), np.array([0.5, 0.5]), cfg, {"r": 0.1, "T": 5}
        )
