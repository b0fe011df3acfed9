"""Dynamics model representations, simulation, closed-loop composition, and
linearization (exact for LinearMap and NetworkMap; central differences
otherwise).

The model library is deliberately closed (linear, polynomial, ReLU-network,
Koopman-latent maps; linear/polynomial/PHS/bicycle ODEs) so downstream
verifiers can pattern-match on structure.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import DimensionMismatch, NonFiniteState, UnsupportedModel

__all__ = [
    "LinearMap",
    "PolynomialMap",
    "NetworkMap",
    "KoopmanLatentMap",
    "ComposedMap",
    "ControlAffineODE",
    "PhsSystem",
    "BicycleModel",
    "Trajectory",
    "step",
    "simulate_map",
    "simulate_ode",
    "closed_loop",
    "linearize",
    "central_difference",
    "linear_ode",
    "phs_ode",
]


# -- discrete maps ---------------------------------------------------------


@dataclass(frozen=True)
class LinearMap:
    """x+ = A x + B u (B may be empty for autonomous maps)."""

    A: np.ndarray
    B: np.ndarray | None = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch("A must be square")
        B = self.B
        if B is not None:
            B = np.atleast_2d(np.asarray(B, dtype=float))
            if B.shape[0] != A.shape[0]:
                raise DimensionMismatch("B rows must match A")
            if B.shape[1] == 0:
                B = None
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def state_dim(self):
        return self.A.shape[0]

    @property
    def input_dim(self):
        return 0 if self.B is None else self.B.shape[1]


@dataclass(frozen=True)
class PolynomialMap:
    """x+_i = (L x)_i + x' Q[i] x with Q[i] symmetric."""

    linear: np.ndarray
    quadratic: np.ndarray  # shape (n, n, n), symmetric in last two indices

    def __post_init__(self):
        L = np.atleast_2d(np.asarray(self.linear, dtype=float))
        Q = np.asarray(self.quadratic, dtype=float)
        n = L.shape[0]
        if L.shape != (n, n) or Q.shape != (n, n, n):
            raise DimensionMismatch("need n x n linear part and n x n x n tensor")
        if np.max(np.abs(Q - np.swapaxes(Q, 1, 2)), initial=0.0) > 1e-12:
            raise ValueError("quadratic tensor must be symmetric in its last two indices")
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "quadratic", Q)

    @property
    def state_dim(self):
        return self.linear.shape[0]

    input_dim = 0


@dataclass(frozen=True)
class NetworkMap:
    """x+ = net([x; u])."""

    net: nn.Mlp
    input_dim: int = 0

    @property
    def state_dim(self):
        return self.net.in_dim - self.input_dim


@dataclass(frozen=True)
class KoopmanLatentMap:
    K: np.ndarray

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        if K.shape[0] != K.shape[1]:
            raise DimensionMismatch("K must be square")
        object.__setattr__(self, "K", K)

    @property
    def state_dim(self):
        return self.K.shape[0]

    input_dim = 0


@dataclass(frozen=True)
class ComposedMap:
    """Autonomous map x -> f(x, pi(x)) from a model and a policy."""

    model: object
    policy: object  # ZeroPolicy | LinearPolicy | NetworkPolicy

    @property
    def state_dim(self):
        return self.model.state_dim

    input_dim = 0


@dataclass(frozen=True)
class ZeroPolicy:
    dim: int

    def __call__(self, x):
        return np.zeros(self.dim)


@dataclass(frozen=True)
class LinearPolicy:
    K: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", np.atleast_2d(np.asarray(self.K, dtype=float)))

    def __call__(self, x):
        return self.K @ x


@dataclass(frozen=True)
class NetworkPolicy:
    net: nn.Mlp

    def __call__(self, x):
        return nn.forward(self.net, x)


def _point(model, x, u):
    """(x, u) as float vectors, checked against the model's dimensions."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != model.state_dim:
        raise DimensionMismatch(f"state dim {x.size}, model expects {model.state_dim}")
    m = model.input_dim
    if m > 0:
        if u is None:
            raise DimensionMismatch("model has inputs; u is required")
        u = np.asarray(u, dtype=float).ravel()
        if u.size != m:
            raise DimensionMismatch(f"input dim {u.size}, model expects {m}")
    elif u is not None and np.asarray(u).size > 0:
        raise DimensionMismatch("autonomous model takes no input")
    return x, u


def step(model, x, u=None):
    """One exact evaluation of a discrete map."""
    x, u = _point(model, x, u)
    m = model.input_dim
    if isinstance(model, LinearMap):
        out = model.A @ x
        if model.B is not None:
            out = out + model.B @ u
    elif isinstance(model, PolynomialMap):
        out = model.linear @ x + np.einsum("ijk,j,k->i", model.quadratic, x, x)
    elif isinstance(model, KoopmanLatentMap):
        out = model.K @ x
    elif isinstance(model, NetworkMap):
        z = x if m == 0 else np.concatenate([x, u])
        out = nn.forward(model.net, z)
    elif isinstance(model, ComposedMap):
        out = step(model.model, x, model.policy(x))
    elif isinstance(model, _OdeMapAdapter):
        out = simulate_ode(model.ode, x, [u], model.dt).states[-1]
    else:
        raise UnsupportedModel(f"unknown discrete map {type(model).__name__}")
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("map produced NaN/Inf")
    return out


def simulate_map(model, x0, steps, u_seq=None):
    """Roll a discrete map forward; returns an array of steps+1 states."""
    x = np.asarray(x0, dtype=float).ravel()
    out = np.empty((steps + 1, x.size))
    out[0] = x
    for k in range(steps):
        u = None if u_seq is None else u_seq[k]
        x = step(model, x, u)
        out[k + 1] = x
    return out


# -- continuous-time models ------------------------------------------------


@dataclass(frozen=True)
class ControlAffineODE:
    """dx/dt = f(x) + g(x) u with drift/input maps from the closed library."""

    drift: object  # callable x -> n-vector
    input_map: object  # callable x -> (n, m) matrix
    state_dim: int
    input_dim: int
    kind: str = "custom"

    def f(self, x):
        return np.asarray(self.drift(x), dtype=float)

    def g(self, x):
        return np.atleast_2d(np.asarray(self.input_map(x), dtype=float))


def linear_ode(A, B=None):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if B is None:
        B = np.zeros((n, 1))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return ControlAffineODE(
        drift=lambda x, A=A: A @ x,
        input_map=lambda x, B=B: B,
        state_dim=n,
        input_dim=B.shape[1],
        kind="linear",
    )


@dataclass(frozen=True)
class PhsSystem:
    """Port-Hamiltonian system with quadratic Hamiltonian H = 1/2 x'Px.

    J = S - S' is skew-symmetric and R = L L' is PSD by construction.
    """

    S: np.ndarray
    L: np.ndarray
    G: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        L = np.atleast_2d(np.asarray(self.L, dtype=float))
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        n = S.shape[0]
        if S.shape != (n, n) or L.shape[0] != n or P.shape != (n, n) or G.shape[0] != n:
            raise DimensionMismatch("PHS parameter shapes inconsistent")
        if np.max(np.abs(P - P.T), initial=0.0) > 1e-10:
            raise ValueError("P must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (P + P.T))) <= 0:
            raise ValueError("P must be positive definite")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "P", 0.5 * (P + P.T))

    @property
    def J(self):
        return self.S - self.S.T

    @property
    def R(self):
        return self.L @ self.L.T

    @property
    def state_dim(self):
        return self.S.shape[0]

    @property
    def input_dim(self):
        return self.G.shape[1]

    def hamiltonian(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ self.P @ x)

    def grad_h(self, x):
        return self.P @ np.asarray(x, dtype=float)

    def output(self, x):
        return self.G.T @ self.grad_h(x)


def phs_ode(sys: PhsSystem) -> ControlAffineODE:
    JR = sys.J - sys.R
    return ControlAffineODE(
        drift=lambda x, JR=JR, P=sys.P: JR @ (P @ x),
        input_map=lambda x, G=sys.G: G,
        state_dim=sys.state_dim,
        input_dim=sys.input_dim,
        kind="phs",
    )


@dataclass(frozen=True)
class BicycleModel:
    """Kinematic bicycle: state (x, y, heading, speed), input (steer, accel).

    Inputs are clamped to the declared limits before integration.
    """

    wheelbase: float = 2.5
    steer_limit: float = 0.5
    accel_limit: float = 3.0

    def __post_init__(self):
        if min(self.wheelbase, self.steer_limit, self.accel_limit) <= 0:
            raise ValueError("limits must be > 0")

    state_dim = 4
    input_dim = 2

    def clamp(self, u):
        # scalar min/max give the same values as np.clip and are faster on scalars
        u = np.asarray(u, dtype=float).ravel()
        return np.array(
            [
                min(max(u[0], -self.steer_limit), self.steer_limit),
                min(max(u[1], -self.accel_limit), self.accel_limit),
            ]
        )

    def f(self, x, u):
        _, _, psi, v = x
        delta, a = u
        return np.array(
            [v * np.cos(psi), v * np.sin(psi), v * np.tan(delta) / self.wheelbase, a]
        )


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray | None = None

    def __len__(self):
        return self.states.shape[0]


def _rhs(sys, x, u):
    if isinstance(sys, BicycleModel):
        return sys.f(x, u)
    return sys.f(x) + sys.g(x) @ u


def simulate_ode(sys, x0, u_seq, dt) -> Trajectory:
    """Classical RK4 with zero-order-hold inputs, one step of length dt per
    input; bicycle inputs are clamped once per step.

    Returns all states (len(u_seq) + 1 rows).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != sys.state_dim:
        raise DimensionMismatch("initial state dimension mismatch")
    n_steps = len(u_seq)
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, x.size))
    inputs = np.empty((n_steps + 1, sys.input_dim))
    states[0] = x
    # finiteness is checked once, after the loop; arithmetic past a
    # divergence only produces inf/nan, so it runs quietly
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            u = np.asarray(u_seq[k], dtype=float).ravel()
            if u.size != sys.input_dim:
                raise DimensionMismatch("input dimension mismatch")
            if isinstance(sys, BicycleModel):
                u = sys.clamp(u)
            inputs[k] = u
            k1 = _rhs(sys, x, u)
            k2 = _rhs(sys, x + 0.5 * dt * k1, u)
            k3 = _rhs(sys, x + 0.5 * dt * k2, u)
            k4 = _rhs(sys, x + dt * k3, u)
            x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            states[k + 1] = x
            inputs[k + 1] = u
    bad = ~np.isfinite(states[1:]).all(axis=1)
    if bad.any():
        step = int(np.argmax(bad)) + 1
        raise NonFiniteState(f"state diverged at step {step}", step=step)
    return Trajectory(times, states, inputs)


def closed_loop(model, policy, dt=None):
    """Compose a model with a state-feedback policy into an autonomous map.

    ODE models are discretized by one RK4 step of length dt per map step.
    """
    if isinstance(model, ControlAffineODE):
        if dt is None:
            raise ValueError("closed_loop over an ODE needs dt")
        policy = _coerce_policy(policy, model.state_dim, model.input_dim)
        return ComposedMap(_OdeMapAdapter(model, dt), policy)

    policy = _coerce_policy(policy, model.state_dim, model.input_dim)
    if isinstance(model, LinearMap) and isinstance(policy, ZeroPolicy):
        return LinearMap(model.A)
    if isinstance(model, LinearMap) and isinstance(policy, LinearPolicy):
        B = model.B if model.B is not None else np.zeros((model.state_dim, policy.K.shape[0]))
        return LinearMap(model.A + B @ policy.K)
    return ComposedMap(model, policy)


@dataclass(frozen=True)
class _OdeMapAdapter:
    ode: ControlAffineODE
    dt: float

    @property
    def state_dim(self):
        return self.ode.state_dim

    @property
    def input_dim(self):
        return self.ode.input_dim


def _coerce_policy(policy, state_dim, input_dim):
    if isinstance(policy, (ZeroPolicy, LinearPolicy, NetworkPolicy)):
        p = policy
    elif isinstance(policy, nn.Mlp):
        p = NetworkPolicy(policy)
    elif policy is None:
        p = ZeroPolicy(input_dim)
    else:
        raise UnsupportedModel("policy must be ZeroPolicy, LinearPolicy, or a network")
    if isinstance(p, LinearPolicy):
        if p.K.shape != (input_dim, state_dim):
            raise DimensionMismatch("policy gain must be input_dim x state_dim")
    elif isinstance(p, NetworkPolicy):
        if p.net.in_dim != state_dim or p.net.out_dim != input_dim:
            raise DimensionMismatch("policy network dims must match model")
    return p


def central_difference(f, x, h):
    """Central differences (f(x + h e_i) - f(x - h e_i)) / (2 h), evaluated one
    coordinate at a time: the gradient of a scalar f, or the Jacobian of a
    vector-valued f (one column per coordinate).

    The evaluations are not batched: batched matmuls round differently.
    """
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def linearize(model, x, u=None):
    """Jacobians (A, B) of a discrete map at (x, u): exact for LinearMap and
    NetworkMap (one forward pass, `nn.jacobian`); central differences with
    step 1e-5 (1 + max|x|) otherwise."""
    x = np.asarray(x, dtype=float).ravel()
    if isinstance(model, LinearMap):
        B = model.B if model.B is not None else np.zeros((model.state_dim, 0))
        return model.A.copy(), B.copy()
    if isinstance(model, NetworkMap):
        x, u = _point(model, x, u)
        J = nn.jacobian(model.net, x if model.input_dim == 0 else np.concatenate([x, u]))
        A, B = J[:, : x.size], J[:, x.size :]
    else:
        h = 1e-5 * (1.0 + np.max(np.abs(x), initial=0.0))
        A = central_difference(lambda xi: step(model, xi, u), x, h)
        if model.input_dim > 0:
            u = np.asarray(u, dtype=float).ravel()
            B = central_difference(lambda ui: step(model, x, ui), u, h)
        else:
            B = np.empty((x.size, 0))
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise NonFiniteState("non-finite Jacobian")
    return A, B


# -- serialization ---------------------------------------------------------


def model_to_dict(model) -> dict:
    if isinstance(model, LinearMap):
        return {
            "kind": "linear",
            "A": model.A.tolist(),
            "B": None if model.B is None else model.B.tolist(),
        }
    if isinstance(model, PolynomialMap):
        return {"kind": "polynomial", "linear": model.linear.tolist(), "quadratic": model.quadratic.tolist()}
    if isinstance(model, KoopmanLatentMap):
        return {"kind": "koopman", "K": model.K.tolist()}
    if isinstance(model, NetworkMap):
        return {"kind": "network", "net": nn.network_to_dict(model.net), "input_dim": model.input_dim}
    raise UnsupportedModel(f"cannot serialize {type(model).__name__}")


def model_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "linear":
        return LinearMap(d["A"], d.get("B"))
    if kind == "polynomial":
        return PolynomialMap(d["linear"], d["quadratic"])
    if kind == "koopman":
        return KoopmanLatentMap(d["K"])
    if kind == "network":
        return NetworkMap(nn.network_from_dict(d["net"]), d.get("input_dim", 0))
    raise UnsupportedModel(f"unknown model kind {kind!r}")


def trajectory_to_csv(traj: Trajectory, path):
    n = traj.states.shape[1]
    m = 0 if traj.inputs is None else traj.inputs.shape[1]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t"] + [f"x{i}" for i in range(n)] + [f"u{j}" for j in range(m)])
        for k in range(len(traj)):
            row = [traj.times[k], *traj.states[k]]
            if m:
                row += list(traj.inputs[k])
            w.writerow([f"{v:.12g}" for v in row])
