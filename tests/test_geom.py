"""Region containment, padding, PCA box fitting, Hausdorff, and sampling."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from certikit import geom
from certikit.errors import DimensionMismatch, NegativeRadius


def test_box_contains():
    b = geom.Box([-1, -1], [1, 1])
    assert geom.contains(b, [0.0, 0.0])
    assert geom.contains(b, [1.0, -1.0])  # boundary is inside
    assert not geom.contains(b, [1.0001, 0.0])


def test_box_validation():
    with pytest.raises(ValueError):
        geom.Box([1.0], [0.0])


@pytest.mark.parametrize("lower, upper", [([np.nan], [1.0]), ([0.0], [np.nan]), ([0.0, np.nan], [1.0, np.nan])])
def test_box_rejects_nan_bounds(lower, upper):
    with pytest.raises(ValueError):
        geom.Box(lower, upper)


def test_box_infinite_bounds_stay_legal():
    box = geom.Box([-np.inf, 0.0], [np.inf, np.inf])
    assert box.dim == 2


def test_hull_membership():
    ps = geom.PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert geom.contains(ps, [0.25, 0.25])
    assert geom.contains(ps, [0.5, 0.5])  # on the hull boundary
    assert not geom.contains(ps, [0.6, 0.6])


def _polygon_distance(pts, x):
    """Exact distance from x to the convex polygon spanned by pts: zero when
    no Qhull facet equation is violated, else the nearest hull edge."""
    hull = ConvexHull(pts)
    if np.all(hull.equations[:, :2] @ x + hull.equations[:, 2] <= 0.0):
        return 0.0
    v = pts[hull.vertices]
    best = np.inf
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        t = np.clip((x - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
        best = min(best, np.linalg.norm(a + t * (b - a) - x))
    return best


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
def test_hull_distance_exact_on_polygons(scale):
    rng = np.random.default_rng(11)
    for _ in range(30):
        pts = scale * rng.normal(size=(int(rng.integers(3, 80)), 2))
        for x in scale * rng.normal(size=(4, 2)) * 1.5:
            exact = _polygon_distance(pts, x)
            assert abs(geom.hull_distance(pts, x) - exact) <= 1e-9 * scale


def test_hull_distance_degenerate_clouds():
    # a single point
    assert geom.hull_distance(np.array([[1.0, 2.0]]), np.array([4.0, 6.0])) == pytest.approx(5.0, rel=1e-14)
    assert geom.contains(geom.PointSet(np.array([[1.0, 2.0]])), [1.0, 2.0])
    # duplicates of the segment [(0, 0), (2, 0)]
    dup = np.repeat(np.array([[0.0, 0.0], [2.0, 0.0]]), 10, axis=0)
    assert geom.hull_distance(dup, np.array([1.0, 3.0])) == pytest.approx(3.0, rel=1e-14)
    assert geom.hull_distance(dup, np.array([-4.0, 3.0])) == pytest.approx(5.0, rel=1e-14)
    # collinear points on y = 2x, t in [0, 1]
    t = np.linspace(0.0, 1.0, 25)
    line = np.column_stack([t, 2.0 * t])
    assert geom.hull_distance(line, np.array([0.5, 1.0])) <= 1e-15
    assert geom.hull_distance(line, np.array([2.0, -1.0])) == pytest.approx(np.sqrt(5.0), rel=1e-14)
    assert geom.hull_distance(line, np.array([2.0, 2.0])) == pytest.approx(1.0, rel=1e-14)
    assert geom.contains(geom.PointSet(line), [0.25, 0.5])
    assert not geom.contains(geom.PointSet(line), [0.25, 0.51])
    # a 2000-point 1-D cloud
    cloud = np.random.default_rng(3).uniform(-1.0, 3.0, size=(2000, 1))
    assert geom.hull_distance(cloud, np.array([5.0])) == pytest.approx(5.0 - cloud.max(), rel=1e-14)
    assert geom.hull_distance(cloud, np.array([-2.0])) == pytest.approx(cloud.min() + 2.0, rel=1e-14)
    assert geom.hull_distance(cloud, np.array([0.5])) <= 1e-14
    assert geom.contains(geom.PointSet(cloud), [cloud.max()])


def test_ball_union_contains():
    bu = geom.BallUnion(geom.PointSet(np.array([[0.0, 0.0], [2.0, 0.0]])), 0.5)
    assert geom.contains(bu, [0.4, 0.0])
    assert geom.contains(bu, [2.0, 0.5])
    assert not geom.contains(bu, [1.0, 0.0])


def test_ball_union_negative_radius():
    with pytest.raises(NegativeRadius):
        geom.BallUnion(geom.PointSet(np.zeros((1, 2))), -0.1)


def test_pad_box_per_coordinate():
    b = geom.pad(geom.Box([0.0, 0.0], [1.0, 1.0]), 0.25)
    np.testing.assert_allclose(b.lower, [-0.25, -0.25])
    np.testing.assert_allclose(b.upper, [1.25, 1.25])


def test_pad_pointset_becomes_ball_union():
    ps = geom.PointSet(np.array([[0.0, 0.0]]))
    r = geom.pad(ps, 0.3)
    assert isinstance(r, geom.BallUnion)
    assert geom.contains(r, [0.0, 0.29])


def test_hpolytope_pad_shifts_faces():
    # unit square as Ax <= b
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    poly = geom.HPolytope(A, np.ones(4))
    padded = geom.pad(poly, 0.5)
    assert geom.contains(padded, [1.4, 0.0])
    assert not geom.contains(padded, [1.6, 0.0])


def test_fit_oriented_box_recovers_rotation():
    rng = np.random.default_rng(0)
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    raw = rng.uniform([-2, -0.5], [2, 0.5], size=(500, 2))
    pts = raw @ R.T
    ob = geom.fit_oriented_box(geom.PointSet(pts))
    # long axis should align with the rotated first axis (up to sign)
    align = abs(ob.axes[:, 0] @ R[:, 0])
    assert align > 0.99
    assert all(geom.contains(ob, p) for p in pts[:50])


def test_fit_oriented_box_degenerate_cloud():
    pts = np.tile([1.0, 2.0], (5, 1))
    ob = geom.fit_oriented_box(geom.PointSet(pts))
    assert geom.contains(ob, [1.0, 2.0])
    np.testing.assert_allclose(ob.half_widths, 0.0, atol=1e-12)


def test_hausdorff_symmetric_and_zero_on_self():
    a = geom.PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = geom.PointSet(np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert geom.hausdorff(a, a) == 0.0
    assert geom.hausdorff(a, b) == pytest.approx(1.0)
    assert geom.hausdorff(a, b) == geom.hausdorff(b, a)


def test_hausdorff_matches_broadcast_formula_bitwise():
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3, 4):
        for n, m in ((1, 1), (1, 17), (23, 1), (40, 60)):
            pa = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4)
            pb = rng.normal(size=(m, dim))
            d = np.sqrt(np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2))
            old = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
            assert geom.hausdorff(geom.PointSet(pa), geom.PointSet(pb)) == old


def test_sample_region_box_inside_and_deterministic():
    b = geom.Box([-1.0, 2.0], [1.0, 3.0])
    s1 = geom.sample_region(b, 200, np.random.default_rng(9))
    s2 = geom.sample_region(b, 200, np.random.default_rng(9))
    np.testing.assert_array_equal(s1, s2)
    assert all(geom.contains(b, x) for x in s1)


def test_sample_region_ball_union_inside():
    bu = geom.BallUnion(geom.PointSet(np.array([[0.0, 0.0], [3.0, 0.0]])), 1.0)
    s = geom.sample_region(bu, 300, np.random.default_rng(2))
    assert all(geom.contains(bu, x) for x in s)


def test_region_roundtrip_serialization():
    regions = [
        geom.Box([-1.0], [1.0]),
        geom.PointSet(np.array([[0.0, 1.0], [1.0, 0.0]])),
        geom.BallUnion(geom.PointSet(np.array([[0.5, 0.5]])), 0.2),
        geom.HPolytope(np.array([[1.0, 0.0]]), np.array([2.0])),
    ]
    for r in regions:
        r2 = geom.region_from_dict(geom.region_to_dict(r))
        assert type(r2) is type(r)
        assert r2.dim == r.dim


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        geom.contains(geom.Box([0.0], [1.0]), [0.0, 0.0])
