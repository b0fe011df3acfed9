"""Set-propagation and sampling-based reachability, sample-size bounds, and
invariant-set estimation.

Interval propagation is sound (guaranteed outer boxes); the sampling-based
estimators are statistical, with the sampling distribution fixed to uniform
over the initial region and results deterministic for a given seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import spatial

from . import dyn, geom, nn, qp
from .errors import NotFixedPoint, SampleSizeOverflow, UnsupportedModel

__all__ = [
    "ReachConfig",
    "ReachResult",
    "InvariantEstimate",
    "propagate_interval",
    "reach_sampled",
    "sample_size",
    "estimate_invariant",
    "hull_distance",
]

TEMPLATES = ("interval", "pca_box", "sample_hull", "ball_union")


@dataclass(frozen=True)
class ReachConfig:
    steps: int = 1
    template: str = "ball_union"
    n_samples: int = 100
    eps: float = 0.0
    delta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.n_samples < 1:
            raise ValueError("steps and n_samples must be >= 1")
        if self.template not in TEMPLATES:
            raise ValueError(f"template must be one of {TEMPLATES}")
        if self.eps < 0 or not (0 < self.delta < 1):
            raise ValueError("require eps >= 0 and delta in (0,1)")


@dataclass(frozen=True)
class ReachResult:
    regions: tuple  # K+1 SetRegions, regions[0] = initial set
    guarantee: str  # sound_overapprox | statistical
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "guarantee": self.guarantee,
            "metadata": self.metadata,
            "regions": [geom.region_to_dict(r) for r in self.regions],
        }


@dataclass(frozen=True)
class InvariantEstimate:
    region: geom.BallUnion
    oracle_radius: float
    oracle_horizon: int
    recurrence_verified: bool
    n_positive: int
    n_samples: int

    def to_dict(self):
        return {
            "region": geom.region_to_dict(self.region),
            "oracle_radius": self.oracle_radius,
            "oracle_horizon": self.oracle_horizon,
            "recurrence_verified": self.recurrence_verified,
            "n_positive": self.n_positive,
            "n_samples": self.n_samples,
            "guarantee": "statistical",
        }


# -- sound interval propagation -------------------------------------------


def _interval_pass(layers, lo, hi, pre_bounds=None):
    """Interval bound propagation through monotone (W, b, activation) layers;
    appends each preactivation box to pre_bounds if given. b = None adds no
    bias: a zero bias would turn -0.0 bounds into 0.0."""
    for W, b, activation in layers:
        c = W @ (0.5 * (lo + hi))
        r = np.abs(W) @ (0.5 * (hi - lo))
        if b is not None:
            c = c + b
        lo, hi = c - r, c + r
        if pre_bounds is not None:
            pre_bounds.append((lo, hi))
        lo, hi = nn._act(activation, lo), nn._act(activation, hi)
    return lo, hi


def _net_layers(net: nn.Mlp):
    return [(layer.W, layer.b, layer.activation) for layer in net.layers]


def propagate_interval(model, x0: geom.Box, steps: int) -> ReachResult:
    """Sound per-step boxes: exact interval images for linear maps, interval
    bound propagation for ReLU networks."""
    if isinstance(model, (dyn.LinearMap, dyn.KoopmanLatentMap)):
        A = model.A if isinstance(model, dyn.LinearMap) else model.K
        layers = [(A, None, "identity")]
    elif isinstance(model, dyn.NetworkMap):
        layers = _net_layers(model.net)
    else:
        raise UnsupportedModel(
            f"interval propagation does not support {type(model).__name__}; use sampling"
        )
    if model.input_dim > 0:
        raise UnsupportedModel("interval propagation needs an autonomous map")
    regions = [x0]
    lo, hi = x0.lower.copy(), x0.upper.copy()
    for _ in range(steps):
        lo, hi = _interval_pass(layers, lo, hi)
        regions.append(geom.Box(lo, hi))
    return ReachResult(tuple(regions), "sound_overapprox", {"method": "interval"})


def network_preactivation_bounds(net: nn.Mlp, x0: geom.Box):
    """Per-layer preactivation interval bounds by IBP (used by the MILP encoder)."""
    if any(layer.activation not in ("relu", "identity") for layer in net.layers):
        raise UnsupportedModel("bounds only for relu/identity layers")
    bounds = []
    _interval_pass(_net_layers(net), x0.lower, x0.upper, bounds)
    return bounds


# -- sampling-based reachability ------------------------------------------


def hull_distance(points: np.ndarray, x: np.ndarray, tol=1e-8) -> float:
    """Euclidean distance from x to the convex hull of a finite point set."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    # the hull of the vertices is the hull of the set, so reducing large
    # clouds to their hull vertices keeps the projection QP small and exact
    if pts.shape[0] > 64 and 2 <= pts.shape[1] <= 6:
        try:
            pts = pts[spatial.ConvexHull(pts).vertices]
        except spatial.QhullError:
            pass  # degenerate cloud (e.g. collinear): fall back to all points
    G = pts.T  # n x k
    k = G.shape[1]
    x = np.asarray(x, dtype=float).ravel()
    P = G.T @ G
    P = P + 1e-12 * np.eye(k)
    q = -G.T @ x
    A = np.vstack([np.ones((1, k)), np.eye(k)])
    l = np.concatenate([[1.0], np.zeros(k)])
    u = np.concatenate([[1.0], np.ones(k)])
    sol = qp.solve(qp.QProblem(P, q, A, l, u), tol=tol)
    lam = np.clip(sol.z, 0.0, None)
    s = lam.sum()
    lam = lam / s if s > 0 else lam
    return float(np.linalg.norm(G @ lam - x))


def _template_region(samples: np.ndarray, template: str, eps: float):
    ps = geom.PointSet(samples)
    if template == "ball_union":
        return geom.BallUnion(ps, eps)
    if template == "sample_hull":
        return ps  # hull semantics; eps slack applied at containment time
    if template == "pca_box":
        return geom.fit_oriented_box(ps, pad=eps)
    if template == "interval":
        return geom.pad(geom.Box(samples.min(axis=0), samples.max(axis=0)), eps)
    raise ValueError(template)


def template_contains(region, x, eps: float, template: str) -> bool:
    """Containment with the eps pad applied for hull templates."""
    if template == "sample_hull":
        return hull_distance(region.points, x) <= eps + 1e-7
    return geom.contains(region, x)


def reach_sampled(model, x0, cfg: ReachConfig) -> ReachResult:
    """Push N uniform samples through the map and fit the configured template
    at every step; reports fresh-sample containment rates."""
    rng = np.random.default_rng(cfg.seed)
    X = geom.sample_region(x0, cfg.n_samples, rng)
    regions = [x0]
    clouds = [X]
    for _ in range(cfg.steps):
        X = np.array([dyn.step(model, x) for x in X])
        clouds.append(X)
        regions.append(_template_region(X, cfg.template, cfg.eps))
    # fresh-sample containment per step
    n_fresh = min(cfg.n_samples, 200)
    F = geom.sample_region(x0, n_fresh, rng)
    rates = []
    for k in range(1, cfg.steps + 1):
        F = np.array([dyn.step(model, x) for x in F])
        rates.append(
            float(np.mean([template_contains(regions[k], x, cfg.eps, cfg.template) for x in F]))
        )
    meta = {
        "method": "sampling",
        "template": cfg.template,
        "n_samples": cfg.n_samples,
        "eps": cfg.eps,
        "pad_norm": "l2",
        "distribution": "uniform",
        "seed": cfg.seed,
        "fresh_containment": rates,
    }
    return ReachResult(tuple(regions), "statistical", meta)


def sample_size(eps, delta, lipschitz, diameter, dim) -> int:
    """Covering-number-based sufficient sample count.

    N = ceil(B^d * ln(B^d / delta)) with B = c*L*D*sqrt(d)/eps and the
    documented engineering constant c = 2. Not claimed tight.
    """
    if min(eps, delta, lipschitz, diameter, dim) <= 0 or delta >= 1:
        raise ValueError("require eps, L, D, dim > 0 and 0 < delta < 1")
    c = 2.0
    base = c * lipschitz * diameter * math.sqrt(dim) / eps
    log_cover = dim * math.log(max(base, 1.0 + 1e-12))
    if log_cover > math.log(1e15):
        raise SampleSizeOverflow(
            f"covering number exp({log_cover:.1f}) too large; use a coarser eps"
        )
    cover = math.exp(log_cover)
    return int(math.ceil(cover * max(math.log(cover / delta), 1.0)))


def estimate_invariant(model, domain: geom.Box, x_star, cfg: ReachConfig, oracle) -> InvariantEstimate:
    """Label uniform samples with the ball-convergence oracle and pad the
    positives into a ball-union estimate; verify recurrence on the sample set.

    oracle: {"r": ball radius around x_star, "T": horizon}. A sample is
    positive iff its T-step trajectory stays in `domain` and enters B_r(x*).
    """
    x_star = np.asarray(x_star, dtype=float).ravel()
    r, T = float(oracle["r"]), int(oracle["T"])
    if r <= 0 or T < 1:
        raise ValueError("oracle needs r > 0 and T >= 1")
    fixed_defect = np.max(np.abs(dyn.step(model, x_star) - x_star), initial=0.0)
    if fixed_defect > 1e-8:
        raise NotFixedPoint(f"x_star moves by {fixed_defect:.3g} under the map")

    rng = np.random.default_rng(cfg.seed)
    X = geom.sample_region(domain, cfg.n_samples, rng)

    def label(x0):
        x = x0
        for _ in range(T):
            x = dyn.step(model, x)
            if not geom.contains(domain, x):
                return False
            if np.linalg.norm(x - x_star) <= r:
                return True
        return bool(np.linalg.norm(x - x_star) <= r)

    labels = np.array([label(x) for x in X])
    positives = X[labels]
    if positives.shape[0] == 0:
        positives = x_star[None, :]
    region = geom.BallUnion(geom.PointSet(positives), cfg.eps)
    # recurrence: one-step image of each positive stays in the estimate or B_r(x*)
    recurrence = True
    for x in positives:
        y = dyn.step(model, x)
        if np.linalg.norm(y - x_star) <= r:
            continue
        if not geom.contains(region, y):
            recurrence = False
            break
    return InvariantEstimate(
        region, r, T, bool(recurrence), int(labels.sum()), cfg.n_samples
    )
