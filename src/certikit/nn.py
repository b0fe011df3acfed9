"""Inference and structural validation of feedforward networks, ICNNs, and
Lyapunov candidates, and the package's derivatives: exact network Jacobians
(`value_and_jacobian`), the one finite-difference rule (`central_difference`)
and the one evaluator of scalar certificate fields (`value_and_gradient`).

No training here: networks are loaded from (or saved to) a portable JSON
weight format and evaluated exactly, layer by layer.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DimensionMismatch, UnsupportedActivation, UnsupportedModel

__all__ = [
    "Layer",
    "Mlp",
    "Icnn",
    "LyapunovCandidate",
    "compose",
    "stack",
    "forward",
    "value_and_jacobian",
    "central_difference",
    "value_and_gradient",
    "lyapunov_eval",
    "check_icnn",
    "lipschitz_bound",
    "save_network",
    "load_network",
]

_ACTIVATIONS = ("relu", "sigmoid", "softplus", "identity")


def _act(name, x):
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    if name == "softplus":
        # overflow-safe log(1 + e^x)
        return np.logaddexp(0.0, x)
    if name == "identity":
        return x
    raise UnsupportedActivation(name)


def _slope(name, z, out):
    """Derivative of activation `name` at preactivation z, given out = act(z).

    relu's slope is 1 where z > 0 and 0 elsewhere, so 0 at an exact kink (a
    one-sided derivative; any value in [0, 1] is a valid subgradient there).
    """
    if name == "relu":
        return (z > 0).astype(float)
    if name == "sigmoid":
        return out * (1.0 - out)
    if name == "softplus":
        return expit(z)  # e^z / (1 + e^z), cannot overflow
    return np.ones_like(z)  # identity; _act rejects every other name


@dataclass(frozen=True)
class Layer:
    W: np.ndarray
    b: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if W.ndim != 2:
            raise DimensionMismatch(f"weight matrix must be 2-D, got {W.ndim}-D")
        if b.size != W.shape[0]:
            raise DimensionMismatch("bias length must match output rows")
        if not np.all(np.isfinite(W)) or not np.all(np.isfinite(b)):
            raise ValueError("weights must be finite")
        if self.activation not in _ACTIVATIONS:
            raise UnsupportedActivation(self.activation)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class Mlp:
    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.W.shape[1] != prev.W.shape[0]:
                raise DimensionMismatch("consecutive layer dimensions must chain")
        object.__setattr__(self, "layers", layers)

    @property
    def in_dim(self):
        return self.layers[0].W.shape[1]

    @property
    def out_dim(self):
        return self.layers[-1].W.shape[0]


@dataclass(frozen=True)
class Icnn:
    """Input-convex network: z1 = act(W0 x + b0); z_{i+1} = act(U_i z_i + W_i x + b_i).

    Entries of every U_i must be nonnegative and activations convex
    nondecreasing (relu or softplus), which guarantees a convex map.
    """

    W: tuple  # input skip weights, len L
    U: tuple  # latent weights, len L-1
    b: tuple
    activations: tuple

    def __post_init__(self):
        W = tuple(np.atleast_2d(np.asarray(w, dtype=float)) for w in self.W)
        U = tuple(np.atleast_2d(np.asarray(u, dtype=float)) for u in self.U)
        b = tuple(np.asarray(v, dtype=float).ravel() for v in self.b)
        acts = tuple(self.activations)
        if len(U) != len(W) - 1 or len(b) != len(W) or len(acts) != len(W):
            raise DimensionMismatch("need L input weights, L-1 latent weights, L biases")
        for a in acts:
            if a not in ("relu", "softplus"):
                raise UnsupportedActivation(f"ICNN activation must be convex nondecreasing, got {a}")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "activations", acts)

    @property
    def in_dim(self):
        return self.W[0].shape[1]

    @property
    def out_dim(self):
        return self.W[-1].shape[0]

    def structural_violations(self):
        out = []
        for i, u in enumerate(self.U):
            if np.any(u < 0):
                idx = np.unravel_index(int(np.argmin(u)), u.shape)
                out.append(f"U[{i}]{list(idx)} = {u[idx]:.6g} < 0")
        return out


@dataclass(frozen=True)
class LyapunovCandidate:
    """V(x) = sigma(g(x) - g(0)) - sigma(0) + eps_quad * ||x||^2.

    The outer softplus is shifted by sigma(0) so V(0) = 0 holds exactly.
    """

    core: Icnn
    eps_quad: float
    outer: str = "softplus"

    def __post_init__(self):
        if self.eps_quad <= 0:
            raise ValueError("eps_quad must be > 0")
        if self.core.out_dim != 1:
            raise DimensionMismatch("Lyapunov core must be scalar-valued")
        if self.outer not in _ACTIVATIONS:
            raise UnsupportedActivation(self.outer)

    @property
    def in_dim(self):
        return self.core.in_dim


def compose(outer: Mlp, inner: Mlp) -> Mlp:
    """The network x -> outer(inner(x)). An identity last layer of inner is
    fused into outer's first layer as (W_o W_i, W_o b_i + b_o), so composing
    adds no affine layer (and a MILP encoding no variables)."""
    if not (isinstance(outer, Mlp) and isinstance(inner, Mlp)):
        raise UnsupportedModel("compose needs two Mlp networks")
    if outer.in_dim != inner.out_dim:
        raise DimensionMismatch(f"outer takes {outer.in_dim} inputs, inner gives {inner.out_dim}")
    last, first = inner.layers[-1], outer.layers[0]
    if last.activation != "identity":
        return Mlp(inner.layers + outer.layers)
    fused = Layer(first.W @ last.W, first.W @ last.b + first.b, first.activation)
    return Mlp(inner.layers[:-1] + (fused,) + outer.layers[1:])


def stack(*nets: Mlp) -> Mlp:
    """The network x -> [f_1(x); f_2(x); ...] for Mlps of one input dimension,
    depth and per-layer activations: the first layer stacks their weights, the
    later ones are block-diagonal."""
    if not nets or not all(isinstance(net, Mlp) for net in nets):
        raise UnsupportedModel("stack needs Mlp networks")
    if len({net.in_dim for net in nets}) != 1:
        raise DimensionMismatch("stacked networks must share their input dimension")
    acts = [layer.activation for layer in nets[0].layers]
    if any([layer.activation for layer in net.layers] != acts for net in nets):
        raise UnsupportedModel("stacked networks must have the same depth and activations")
    # imported here, not at the top: importing scipy.linalg ahead of
    # scipy.special made importing certikit about 30 ms slower
    from scipy.linalg import block_diag

    layers = []
    for k, act in enumerate(acts):
        Ws = [net.layers[k].W for net in nets]
        b = np.concatenate([net.layers[k].b for net in nets])
        layers.append(Layer(np.vstack(Ws) if k == 0 else block_diag(*Ws), b, act))
    return Mlp(tuple(layers))


def forward(net, x):
    """Exact evaluation; accepts a vector or an (N, dim) batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != net.in_dim:
        raise DimensionMismatch(f"input dim {X.shape[1]}, network expects {net.in_dim}")
    if isinstance(net, Mlp):
        Z = X
        for layer in net.layers:
            Z = _act(layer.activation, Z @ layer.W.T + layer.b)
    elif isinstance(net, Icnn):
        Z = _act(net.activations[0], X @ net.W[0].T + net.b[0])
        for i in range(1, len(net.W)):
            Z = _act(net.activations[i], Z @ net.U[i - 1].T + X @ net.W[i].T + net.b[i])
    else:
        raise TypeError(f"cannot evaluate {type(net).__name__}")
    return Z[0] if single else Z


def value_and_jacobian(net, x):
    """(net(x), exact Jacobian at x, shape (out_dim, in_dim)) of an Mlp or
    Icnn at one point x; the value equals `forward(net, x)` bit for bit.

    One forward pass carries J <- diag(act'(z_k)) W_k J layer by layer
    (forward-mode differentiation; an Icnn layer carries
    J_k = diag(act'(z_k)) (U_k J_{k-1} + W_k)). Preactivations are formed as in
    `forward`, and relu's slope at an exact kink is 0 (see `_slope`).
    """
    if not isinstance(net, (Mlp, Icnn)):
        raise UnsupportedModel(f"no Jacobian for {type(net).__name__}")
    x = np.asarray(x, dtype=float).ravel()
    if x.size != net.in_dim:
        raise DimensionMismatch(f"input dim {x.size}, network expects {net.in_dim}")
    X = x[None, :]
    # a sigmoid preactivation below about -709 overflows exp to inf, and the
    # sigmoid is still the correctly rounded 0.0
    with np.errstate(over="ignore"):
        if isinstance(net, Mlp):
            Z, J = X, None
            for layer in net.layers:
                pre = Z @ layer.W.T + layer.b
                Z = _act(layer.activation, pre)
                WJ = layer.W if J is None else layer.W @ J
                J = _slope(layer.activation, pre, Z).T * WJ
        else:
            pre = X @ net.W[0].T + net.b[0]
            Z = _act(net.activations[0], pre)
            J = _slope(net.activations[0], pre, Z).T * net.W[0]
            for i in range(1, len(net.W)):
                pre = Z @ net.U[i - 1].T + X @ net.W[i].T + net.b[i]
                Z = _act(net.activations[i], pre)
                J = _slope(net.activations[i], pre, Z).T * (net.U[i - 1] @ J + net.W[i])
    return Z[0], J


def central_difference(f, x):
    """Central differences (f(x + h e_i) - f(x - h e_i)) / (2 h), one
    coordinate at a time (unbatched: batched matmuls round differently), at
    the step h = 1e-5 (1 + max|x|) that scales with x (Nocedal & Wright,
    Numerical Optimization, 2nd ed., sec. 8.1): the gradient of a scalar f,
    or the Jacobian of a vector-valued f (one column per coordinate)."""
    h = 1e-5 * (1.0 + np.max(np.abs(x), initial=0.0))
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def value_and_gradient(field, x, grad=None):
    """(f(x), grad f(x)) of a scalar field f at one point x.

    A one-output Mlp or Icnn: both exact, from one `value_and_jacobian` pass.
    A LyapunovCandidate: sigma'(g(x) - g(0)) grad g(x) + 2 eps_quad x, with g
    and grad g from its core's pass. A network of more outputs raises
    ValueError. Any other callable: float(f(x)), with grad(x) when grad is
    given, else `central_difference`.
    """
    x = np.asarray(x, dtype=float).ravel()
    if isinstance(field, LyapunovCandidate):
        g, Jg = value_and_jacobian(field.core, x)
        val, slope = _candidate(field, g, x[None, :])
        return float(val[0]), (slope * Jg + 2.0 * field.eps_quad * x)[0]
    if isinstance(field, (Mlp, Icnn)):
        if field.out_dim != 1:
            raise ValueError(f"a scalar field needs one output, the network has {field.out_dim}")
        v, J = value_and_jacobian(field, x)
        return float(v[0]), J[0]
    if grad is not None:
        return float(field(x)), np.asarray(grad(x), dtype=float).ravel()
    f = lambda z: float(field(z))
    return f(x), central_difference(f, x)


def _candidate(V: LyapunovCandidate, g, X):
    """V at the points X (N, dim) from its core's outputs g (N,), and the outer
    slope sigma'(g - g(0)) there."""
    s = g - forward(V.core, np.zeros(V.in_dim))[0]
    out = _act(V.outer, s)
    val = out - _act(V.outer, np.zeros(1))[0] + V.eps_quad * np.sum(X**2, axis=1)
    return val, _slope(V.outer, s, out)


def lyapunov_eval(V: LyapunovCandidate, x):
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    val = _candidate(V, forward(V.core, X)[:, 0], X)[0]
    return float(val[0]) if x.ndim == 1 else val


def check_icnn(net: Icnn, domain, trials: int, seed: int):
    """Structural check plus randomized midpoint-convexity test.

    Returns a dict report; failures are entries, never exceptions.
    """
    from .geom import sample_region

    if trials < 1:
        raise ValueError("trials must be >= 1")
    violations = net.structural_violations()
    structural_ok = not violations
    rng = np.random.default_rng(seed)
    a = sample_region(domain, trials, rng)
    b = sample_region(domain, trials, rng)
    fa = forward(net, a)
    fb = forward(net, b)
    fm = forward(net, 0.5 * (a + b))
    gap = fm - 0.5 * (fa + fb)
    bad = np.any(gap > 1e-9, axis=1)
    convex_ok = not bool(bad.any())
    witness = None
    if not convex_ok:
        i = int(np.argmax(np.max(gap, axis=1)))
        witness = {"a": a[i].tolist(), "b": b[i].tolist(), "gap": float(np.max(gap[i]))}
    return {
        "check": "icnn",
        "passed": structural_ok and convex_ok,
        "structural_ok": structural_ok,
        "structural_violations": violations,
        "midpoint_convexity_ok": convex_ok,
        "trials": trials,
        "worst_midpoint_gap": float(np.max(gap)),
        "witness": witness,
    }


def lipschitz_bound(net: Mlp) -> float:
    """Product of layer spectral norms; a guaranteed upper bound since every
    allowed activation is 1-Lipschitz (sigmoid slope <= 1/4 <= 1).

    Each norm comes from the SVD and is rounded up by a relative 1e-12, far
    above the SVD's own error, so the product never falls below the true one.
    """
    bound = 1.0
    for layer in net.layers:
        bound *= np.linalg.norm(layer.W, 2) * (1 + 1e-12)
    return float(bound)


# -- JSON weight format ----------------------------------------------------


def network_to_dict(net) -> dict:
    if isinstance(net, Mlp):
        return {
            "kind": "mlp",
            "layers": [
                {"w": l.W.tolist(), "b": l.b.tolist(), "act": l.activation} for l in net.layers
            ],
        }
    if isinstance(net, Icnn):
        return {
            "kind": "icnn",
            "layers": [
                {
                    "w": net.W[i].tolist(),
                    "u": net.U[i - 1].tolist() if i > 0 else None,
                    "b": net.b[i].tolist(),
                    "act": net.activations[i],
                }
                for i in range(len(net.W))
            ],
        }
    if isinstance(net, LyapunovCandidate):
        d = network_to_dict(net.core)
        d["kind"] = "lyapunov"
        d["eps_quad"] = net.eps_quad
        d["outer"] = net.outer
        return d
    raise TypeError(f"cannot serialize {type(net).__name__}")


def network_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "mlp":
        return Mlp(tuple(Layer(l["w"], l["b"], l["act"]) for l in d["layers"]))
    if kind in ("icnn", "lyapunov"):
        W = tuple(l["w"] for l in d["layers"])
        U = tuple(l["u"] for l in d["layers"][1:])
        b = tuple(l["b"] for l in d["layers"])
        acts = tuple(l["act"] for l in d["layers"])
        core = Icnn(W, U, b, acts)
        if kind == "icnn":
            return core
        return LyapunovCandidate(core, d["eps_quad"], d.get("outer", "softplus"))
    raise ValueError(f"unknown network kind {kind!r}")


def save_network(net, path):
    with open(path, "w") as f:
        json.dump(network_to_dict(net), f, sort_keys=True)


def load_network(path):
    with open(path) as f:
        return network_from_dict(json.load(f))
