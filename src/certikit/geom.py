"""Geometric set representations, template fitting, and set metrics.

All regions are immutable and JSON-serializable (tagged by a "kind" field).
The distance to (and membership in) the convex hull of a point cloud is one
exact Lawson-Hanson NNLS solve; box padding is per-coordinate (an outer
approximation of the 2-norm pad), while BallUnion keeps exact 2-norm semantics.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.spatial.distance import directed_hausdorff

from .errors import DimensionMismatch, NegativeRadius, NoConvergence

__all__ = [
    "Box",
    "OrientedBox",
    "HPolytope",
    "PointSet",
    "BallUnion",
    "contains",
    "hull_distance",
    "pad",
    "fit_oriented_box",
    "hausdorff",
    "region_to_dict",
    "region_from_dict",
    "sample_region",
]

CONTAINS_TOL = 1e-9  # contains: slack of each membership test (relative for HPolytope and PointSet)


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).ravel()
        hi = np.asarray(self.upper, dtype=float).ravel()
        if lo.size < 1 or lo.shape != hi.shape:
            raise DimensionMismatch("box bounds must be same-length nonempty vectors")
        if not np.all(lo <= hi):
            raise ValueError("require lower <= upper, with no NaN bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return self.lower.size


@dataclass(frozen=True)
class OrientedBox:
    center: np.ndarray
    axes: np.ndarray  # columns orthonormal
    half_widths: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).ravel()
        ax = np.atleast_2d(np.asarray(self.axes, dtype=float))
        hw = np.asarray(self.half_widths, dtype=float).ravel()
        n = c.size
        if ax.shape != (n, n) or hw.size != n:
            raise DimensionMismatch("axes must be n x n and half_widths length n")
        if np.max(np.abs(ax.T @ ax - np.eye(n))) > 1e-8:
            raise ValueError("axes columns must be orthonormal")
        if np.any(hw < 0):
            raise ValueError("half_widths must be nonnegative")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "axes", ax)
        object.__setattr__(self, "half_widths", hw)

    @property
    def dim(self):
        return self.center.size


@dataclass(frozen=True)
class HPolytope:
    """{x : A x <= b}."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if A.shape[0] < 1 or b.size != A.shape[0]:
            raise DimensionMismatch("need m >= 1 rows and matching b")
        if np.any(np.all(A == 0.0, axis=1)):
            raise ValueError("rows of A must be nonzero")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self):
        return self.A.shape[1]


@dataclass(frozen=True)
class PointSet:
    """Finite point cloud; contains() means membership in its convex hull."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("point set must be nonempty")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class BallUnion:
    centers: PointSet
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise NegativeRadius("radius must be >= 0")
        if not isinstance(self.centers, PointSet):
            object.__setattr__(self, "centers", PointSet(self.centers))

    @property
    def dim(self):
        return self.centers.dim


def _check_dim(region, x):
    x = np.asarray(x, dtype=float).ravel()
    if x.size != region.dim:
        raise DimensionMismatch(f"point has dim {x.size}, region has dim {region.dim}")
    return x


def hull_distance(points: np.ndarray, x: np.ndarray) -> float:
    """Euclidean distance from x to the convex hull of a finite point set.

    One Lawson-Hanson NNLS solve, mu = argmin_{mu >= 0} ||D mu||^2 + (1'mu - 1)^2
    with D = (points - x)' scaled by max(1, max|D|). Writing mu = t nu with nu
    on the simplex, the best t leaves ||D nu||^2 / (1 + ||D nu||^2), which grows
    with ||D nu||; so nu = mu / 1'mu weighs the hull point nearest to x.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    D = (pts - x).T
    A = np.vstack([D / max(1.0, np.max(np.abs(D))), np.ones(len(pts))])
    try:
        mu, _ = nnls(A, np.append(np.zeros(x.size), 1.0))
    except RuntimeError as e:
        raise NoConvergence(f"hull distance NNLS: {e}") from e
    return float(np.linalg.norm(pts.T @ (mu / mu.sum()) - x))


def contains(region, x) -> bool:
    x = _check_dim(region, x)
    if isinstance(region, Box):
        return bool(np.all(x >= region.lower - CONTAINS_TOL) and np.all(x <= region.upper + CONTAINS_TOL))
    if isinstance(region, OrientedBox):
        proj = region.axes.T @ (x - region.center)
        return bool(np.all(np.abs(proj) <= region.half_widths + CONTAINS_TOL))
    if isinstance(region, HPolytope):
        return bool(np.all(region.A @ x <= region.b + CONTAINS_TOL * (1 + np.abs(region.b))))
    if isinstance(region, BallUnion):
        d2 = np.sum((region.centers.points - x) ** 2, axis=1)
        return bool(np.min(d2) <= (region.radius + CONTAINS_TOL) ** 2)
    if isinstance(region, PointSet):
        return hull_distance(region.points, x) <= CONTAINS_TOL * (1.0 + np.linalg.norm(x))
    raise TypeError(f"unknown region type {type(region).__name__}")


def pad(region, eps: float):
    """Minkowski sum with the 2-norm eps-ball (boxes pad per coordinate)."""
    if eps < 0:
        raise NegativeRadius("eps must be >= 0")
    if isinstance(region, Box):
        return Box(region.lower - eps, region.upper + eps)
    if isinstance(region, OrientedBox):
        return OrientedBox(region.center, region.axes, region.half_widths + eps)
    if isinstance(region, PointSet):
        return BallUnion(region, eps)
    if isinstance(region, BallUnion):
        return BallUnion(region.centers, region.radius + eps)
    if isinstance(region, HPolytope):
        # outer pad: shift each face out by eps along its unit normal
        norms = np.linalg.norm(region.A, axis=1)
        return HPolytope(region.A, region.b + eps * norms)
    raise TypeError(f"unknown region type {type(region).__name__}")


def fit_oriented_box(points: PointSet) -> OrientedBox:
    """PCA-oriented bounding box of a point cloud.

    Axes are covariance eigenvectors in descending eigenvalue order; ties are
    broken lexicographically and each axis sign is fixed so its first nonzero
    entry is positive, for reproducibility.
    """
    pts = points.points
    n = points.dim
    mean = pts.mean(axis=0)
    centered = pts - mean
    if np.max(np.abs(centered), initial=0.0) < 1e-15:
        # degenerate cloud: zero-width box at the common point
        return OrientedBox(mean, np.eye(n), np.zeros(n))
    cov = centered.T @ centered / max(len(points) - 1, 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals)
    evals, evecs = evals[order], evecs[:, order]
    # canonical signs, then lexicographic tie-break among equal eigenvalues
    for j in range(n):
        col = evecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            evecs[:, j] = -col
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(evals[j + 1] - evals[i]) <= 1e-12 * max(1.0, abs(evals[i])):
            j += 1
        if j > i:
            block = evecs[:, i : j + 1]
            keys = sorted(range(block.shape[1]), key=lambda k: tuple(block[:, k]))
            evecs[:, i : j + 1] = block[:, keys]
        i = j + 1
    proj = centered @ evecs
    return OrientedBox(mean, evecs, np.max(np.abs(proj), axis=0))


def hausdorff(a: PointSet, b: PointSet) -> float:
    """Exact finite-set Hausdorff distance in the 2-norm."""
    if a.dim != b.dim:
        raise DimensionMismatch("point sets must share a dimension")
    pa, pb = a.points, b.points
    return float(max(directed_hausdorff(pa, pb)[0], directed_hausdorff(pb, pa)[0]))


def sample_region(region, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform i.i.d. samples from a region (Box/OrientedBox/BallUnion supported)."""
    if isinstance(region, Box):
        return rng.uniform(region.lower, region.upper, size=(n, region.dim))
    if isinstance(region, OrientedBox):
        local = rng.uniform(-region.half_widths, region.half_widths, size=(n, region.dim))
        return region.center + local @ region.axes.T
    if isinstance(region, BallUnion):
        # uniform over the union via rejection from per-ball sampling
        centers = region.centers.points
        d = region.dim
        out = np.empty((n, d))
        filled = 0
        while filled < n:
            take = n - filled
            idx = rng.integers(0, len(centers), size=take)
            dirs = rng.normal(size=(take, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = region.radius * rng.uniform(size=take) ** (1.0 / d)
            cand = centers[idx] + dirs * radii[:, None]
            # accept with probability 1/(number of covering balls)
            cover = np.zeros(take)
            for c in centers:
                cover += np.sum((cand - c) ** 2, axis=1) <= region.radius**2 + 1e-12
            keep = rng.uniform(size=take) < 1.0 / np.maximum(cover, 1)
            kept = cand[keep]
            out[filled : filled + kept.shape[0]] = kept
            filled += kept.shape[0]
        return out
    raise TypeError(f"cannot sample from region type {type(region).__name__}")


# -- JSON serialization ----------------------------------------------------


def region_to_dict(region) -> dict:
    if isinstance(region, Box):
        return {
            "kind": "box",
            "dim": region.dim,
            "lower": region.lower.tolist(),
            "upper": region.upper.tolist(),
        }
    if isinstance(region, OrientedBox):
        return {
            "kind": "oriented_box",
            "dim": region.dim,
            "center": region.center.tolist(),
            "axes": region.axes.tolist(),
            "half_widths": region.half_widths.tolist(),
        }
    if isinstance(region, HPolytope):
        return {"kind": "hpolytope", "dim": region.dim, "A": region.A.tolist(), "b": region.b.tolist()}
    if isinstance(region, PointSet):
        return {"kind": "point_set", "dim": region.dim, "points": region.points.tolist()}
    if isinstance(region, BallUnion):
        return {
            "kind": "ball_union",
            "dim": region.dim,
            "centers": region.centers.points.tolist(),
            "radius": region.radius,
        }
    raise TypeError(f"unknown region type {type(region).__name__}")


def region_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "box":
        return Box(d["lower"], d["upper"])
    if kind == "oriented_box":
        return OrientedBox(d["center"], d["axes"], d["half_widths"])
    if kind == "hpolytope":
        return HPolytope(d["A"], d["b"])
    if kind == "point_set":
        return PointSet(d["points"])
    if kind == "ball_union":
        return BallUnion(PointSet(d["centers"]), d["radius"])
    raise ValueError(f"unknown region kind {kind!r}")
