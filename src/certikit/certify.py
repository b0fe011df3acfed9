"""Structural and spectral certificates: Schur stability, singular-value
clamping, orthogonality defects, port-Hamiltonian structure and dissipation,
conservation checks, Lyapunov decrease loss, and Zubov PDE residuals.

Checks never raise on a failed property; violations become report entries.
"""

from dataclasses import dataclass

import numpy as np

from . import dyn, nn
from .errors import DimensionMismatch, NoConvergence

__all__ = [
    "spectral_radius",
    "is_schur",
    "SvdClampSpec",
    "svd_clamp",
    "orthogonality_defect",
    "phs_checks",
    "conservation_check",
    "quadratic_energy_check",
    "lyapunov_decrease_loss",
    "AnalyticField",
    "ZubovSpec",
    "zubov_residual",
]

SCHUR_MARGIN = 1e-12


def _eigvals(K):
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape[0] != K.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if not np.all(np.isfinite(K)):
        raise ValueError("matrix must be finite")
    try:
        return np.linalg.eigvals(K)
    except np.linalg.LinAlgError as e:  # LAPACK QR iteration cap
        raise NoConvergence(str(e)) from e


def spectral_radius(K) -> float:
    return float(np.max(np.abs(_eigvals(K))))


def is_schur(K) -> bool:
    return spectral_radius(K) < 1.0 - SCHUR_MARGIN


@dataclass(frozen=True)
class SvdClampSpec:
    """Unconstrained singular-value parameters squashed into (lambda_min, lambda_max)."""

    raw: np.ndarray
    lambda_min: float
    lambda_max: float

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=float).ravel()
        if not (0 <= self.lambda_min < self.lambda_max):
            raise ValueError("require 0 <= lambda_min < lambda_max")
        object.__setattr__(self, "raw", raw)

    def sigma_diag(self):
        # overflow-safe logistic
        s = np.where(
            self.raw >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.raw, 0, None))),
            np.exp(np.clip(self.raw, None, 0)) / (1.0 + np.exp(np.clip(self.raw, None, 0))),
        )
        return self.lambda_max - (self.lambda_max - self.lambda_min) * s


def svd_clamp(spec: SvdClampSpec, U, V) -> np.ndarray:
    """K = U diag(clamped) V; every clamped value lies strictly inside the band."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    d = spec.raw.size
    if U.shape != (d, d) or V.shape != (d, d):
        raise DimensionMismatch("U, V must be d x d with d = len(raw)")
    return U @ (spec.sigma_diag()[:, None] * V)


def orthogonality_defect(M, norm="spectral") -> float:
    """||I - MM'|| + ||I - M'M||; zero iff M is orthogonal.

    The matrix norm defaults to spectral; Frobenius is available as an option.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch("matrix must be square")
    eye = np.eye(M.shape[0])
    if norm == "spectral":
        nf = lambda X: float(np.linalg.norm(X, 2))
    elif norm == "fro":
        nf = lambda X: float(np.linalg.norm(X, "fro"))
    else:
        raise ValueError("norm must be 'spectral' or 'fro'")
    return nf(eye - M @ M.T) + nf(eye - M.T @ M)


def phs_checks(sys: dyn.PhsSystem, traj: dyn.Trajectory, tol_dissipation=1e-6) -> dict:
    """Structure and dissipation audit of a simulated port-Hamiltonian trajectory.

    Verifies skew-symmetry of J, positive semidefiniteness of R, the per-step
    discrete dissipation inequality dH <= int u'y dt (trapezoid quadrature),
    and the equilibrium gradient condition at the origin.
    """
    J, R = sys.J, sys.R
    skew_defect = float(np.max(np.abs(J + J.T), initial=0.0))
    r_min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (R + R.T))))
    grad0 = float(np.max(np.abs(sys.grad_h(np.zeros(sys.state_dim))), initial=0.0))

    H = np.array([sys.hamiltonian(x) for x in traj.states])
    if traj.inputs is not None and traj.inputs.shape[1] > 0:
        uy = np.einsum("ki,ki->k", traj.inputs, np.array([sys.output(x) for x in traj.states]))
    else:
        uy = np.zeros(len(traj))
    dt = np.diff(traj.times)
    supplied = 0.5 * dt * (uy[:-1] + uy[1:])
    slack = np.diff(H) - supplied  # must be <= tol per step
    worst = int(np.argmax(slack)) if slack.size else 0
    checks = [
        {"name": "j_skew_symmetric", "passed": skew_defect <= 1e-12, "value": skew_defect, "tol": 1e-12},
        {"name": "r_psd", "passed": r_min_eig >= -1e-10, "value": r_min_eig, "tol": -1e-10},
        {
            "name": "dissipation",
            "passed": bool(slack.size == 0 or np.max(slack) <= tol_dissipation),
            "value": float(np.max(slack, initial=0.0)),
            "tol": tol_dissipation,
            "witness_step": worst,
        },
        {"name": "equilibrium_gradient", "passed": grad0 == 0.0, "value": grad0, "tol": 0.0},
    ]
    return {
        "check": "phs",
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "energy_initial": float(H[0]),
        "energy_final": float(H[-1]),
        "max_energy_drift": float(np.max(np.abs(H - H[0]))),
    }


def conservation_check(model, samples, tol=1e-8) -> dict:
    """Max over samples of |sum_i f_i(x)| (ODE) or |sum_i (f(x) - x)_i| (map)."""
    pts = samples.points if hasattr(samples, "points") else np.atleast_2d(samples)
    defects = np.empty(pts.shape[0])
    for k, x in enumerate(pts):
        if isinstance(model, dyn.ControlAffineODE):
            defects[k] = abs(float(np.sum(model.f(x))))
        else:
            defects[k] = abs(float(np.sum(dyn.step(model, x) - x)))
    worst = int(np.argmax(defects))
    return {
        "check": "conservation",
        "passed": bool(np.max(defects) <= tol),
        "max_defect": float(np.max(defects)),
        "tol": tol,
        "witness": pts[worst].tolist(),
    }


def quadratic_energy_check(model: dyn.PolynomialMap, samples, tol=1e-10) -> dict:
    """Energy-preservation of the quadratic terms: e(x) = x'Q(x,x) must vanish.

    Also reports the algebraic defect: the largest fully-symmetrized
    coefficient of the cubic form (zero iff e is identically zero).
    """
    if not isinstance(model, dyn.PolynomialMap):
        raise TypeError("quadratic_energy_check needs a PolynomialMap")
    Q = model.quadratic
    pts = samples.points if hasattr(samples, "points") else np.atleast_2d(samples)
    e = np.array([float(x @ np.einsum("ijk,j,k->i", Q, x, x)) for x in pts])
    sym = (
        Q
        + np.transpose(Q, (0, 2, 1))
        + np.transpose(Q, (1, 0, 2))
        + np.transpose(Q, (1, 2, 0))
        + np.transpose(Q, (2, 0, 1))
        + np.transpose(Q, (2, 1, 0))
    ) / 6.0
    worst = int(np.argmax(np.abs(e)))
    return {
        "check": "quadratic_energy",
        "passed": bool(np.max(np.abs(e), initial=0.0) <= tol),
        "max_energy_rate": float(np.max(np.abs(e), initial=0.0)),
        "algebraic_defect": float(np.max(np.abs(sym), initial=0.0)),
        "tol": tol,
        "witness": pts[worst].tolist(),
    }


def lyapunov_decrease_loss(V, trajectories) -> float:
    """Sum of squared hinges of V-increase over every sampled transition."""

    def v_eval(X):
        if isinstance(V, nn.LyapunovCandidate):
            return nn.lyapunov_eval(V, X)
        if isinstance(V, nn.Mlp):
            return nn.forward(V, X)[:, 0]
        return np.array([float(V(x)) for x in X])

    total = 0.0
    for traj in trajectories:
        X = traj.states if isinstance(traj, dyn.Trajectory) else np.atleast_2d(np.asarray(traj, dtype=float))
        if X.shape[0] < 2:
            continue
        vals = v_eval(X)
        inc = np.maximum(0.0, np.diff(vals))
        total += float(np.sum(inc**2))
    return total


@dataclass(frozen=True)
class AnalyticField:
    """Scalar field with an exact gradient, for closed-form Zubov checks."""

    value: object  # callable x -> float
    grad: object  # callable x -> vector

    def __call__(self, x):
        return float(self.value(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class ZubovSpec:
    W: object  # AnalyticField | nn.Mlp
    dynamics: object  # callable x -> dx/dt
    psi: object = None  # positive-definite field, defaults to x'x

    def psi_eval(self, x):
        if self.psi is None:
            return float(x @ x)
        return float(self.psi(x))


def _w_and_grad(W, x):
    if isinstance(W, AnalyticField):
        return float(W.value(x)), np.asarray(W.grad(x), dtype=float)
    if isinstance(W, nn.Mlp):
        w_eval = lambda z: nn.forward(W, z)[0]
    else:
        w_eval = lambda z: float(W(z))
    w = float(w_eval(x))
    return w, dyn.central_difference(w_eval, x, 1e-5)


def zubov_residual(spec: ZubovSpec, samples, range_tol=1e-9) -> dict:
    """PDE residual grad W . f + Psi (1 - W) over samples, plus range checks.

    W must map into (0,1) away from the equilibrium and vanish at the origin.
    """
    pts = samples.points if hasattr(samples, "points") else np.atleast_2d(samples)
    res = np.empty(pts.shape[0])
    range_violations = []
    for k, x in enumerate(pts):
        w, g = _w_and_grad(spec.W, x)
        f = np.asarray(spec.dynamics(x), dtype=float)
        res[k] = g @ f + spec.psi_eval(x) * (1.0 - w)
        if np.linalg.norm(x) > 1e-12 and not (-range_tol < w < 1.0 + range_tol):
            range_violations.append({"x": x.tolist(), "w": w})
    w0, _ = _w_and_grad(spec.W, np.zeros(pts.shape[1]))
    worst = int(np.argmax(np.abs(res)))
    return {
        "check": "zubov_residual",
        "max_residual": float(np.max(np.abs(res))),
        "mean_residual": float(np.mean(np.abs(res))),
        "witness": pts[worst].tolist(),
        "w_at_origin": w0,
        "origin_ok": abs(w0) <= range_tol,
        "range_violations": range_violations,
        "passed": abs(w0) <= range_tol and not range_violations,
    }
