"""Structural and spectral certificates: Schur stability, singular-value
clamping, orthogonality defects, port-Hamiltonian structure and dissipation,
conservation checks, and Zubov PDE residuals, with W and its gradient from
`nn.value_and_gradient`.

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
    "ZubovSpec",
    "zubov_residual",
]

SCHUR_MARGIN = 1e-12
DISSIPATION_TOL = 1e-6  # phs_checks: per-step slack dH - supplied energy
CONSERVATION_TOL = 1e-8  # conservation_check: max |sum of components|
ENERGY_TOL = 1e-10  # quadratic_energy_check: max |x'Q(x, x)|
ZUBOV_RANGE_TOL = 1e-9  # zubov_residual: W in (0, 1) off the origin, W(0) = 0


def _eigvals(K):
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatch(f"matrix must be square and 2-D, got shape {K.shape}")
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


def orthogonality_defect(M) -> float:
    """||I - MM'|| + ||I - M'M|| in the spectral norm; zero iff M is orthogonal."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch("matrix must be square")
    eye = np.eye(M.shape[0])
    return float(np.linalg.norm(eye - M @ M.T, 2)) + float(np.linalg.norm(eye - M.T @ M, 2))


def phs_checks(sys: dyn.PhsSystem, traj: dyn.Trajectory) -> dict:
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
    slack = np.diff(H) - supplied  # must be <= DISSIPATION_TOL per step
    worst = int(np.argmax(slack)) if slack.size else 0
    checks = [
        {"name": "j_skew_symmetric", "passed": skew_defect <= 1e-12, "value": skew_defect, "tol": 1e-12},
        {"name": "r_psd", "passed": r_min_eig >= -1e-10, "value": r_min_eig, "tol": -1e-10},
        {
            "name": "dissipation",
            "passed": bool(slack.size == 0 or np.max(slack) <= DISSIPATION_TOL),
            "value": float(np.max(slack, initial=0.0)),
            "tol": DISSIPATION_TOL,
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


def conservation_check(model, samples) -> dict:
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
        "passed": bool(np.max(defects) <= CONSERVATION_TOL),
        "max_defect": float(np.max(defects)),
        "tol": CONSERVATION_TOL,
        "witness": pts[worst].tolist(),
    }


def quadratic_energy_check(model: dyn.PolynomialMap, samples) -> dict:
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
        "passed": bool(np.max(np.abs(e), initial=0.0) <= ENERGY_TOL),
        "max_energy_rate": float(np.max(np.abs(e), initial=0.0)),
        "algebraic_defect": float(np.max(np.abs(sym), initial=0.0)),
        "tol": ENERGY_TOL,
        "witness": pts[worst].tolist(),
    }


@dataclass(frozen=True)
class ZubovSpec:
    W: object  # callable x -> float, one-output nn.Mlp or nn.LyapunovCandidate
    dynamics: object  # callable x -> dx/dt
    psi: object = None  # positive-definite field, defaults to x'x
    grad_W: object = None  # callable x -> vector for a callable W, else fd

    def psi_eval(self, x):
        if self.psi is None:
            return float(x @ x)
        return float(self.psi(x))


def zubov_residual(spec: ZubovSpec, samples) -> dict:
    """PDE residual grad W . f + Psi (1 - W) over samples, plus range checks.

    W must map into (0,1) away from the equilibrium and vanish at the origin.
    """
    pts = samples.points if hasattr(samples, "points") else np.atleast_2d(samples)
    res = np.empty(pts.shape[0])
    range_violations = []
    for k, x in enumerate(pts):
        w, g = nn.value_and_gradient(spec.W, x, spec.grad_W)
        f = np.asarray(spec.dynamics(x), dtype=float)
        res[k] = g @ f + spec.psi_eval(x) * (1.0 - w)
        if np.linalg.norm(x) > 1e-12 and not (-ZUBOV_RANGE_TOL < w < 1.0 + ZUBOV_RANGE_TOL):
            range_violations.append({"x": x.tolist(), "w": w})
    w0, _ = nn.value_and_gradient(spec.W, np.zeros(pts.shape[1]), spec.grad_W)
    worst = int(np.argmax(np.abs(res)))
    return {
        "check": "zubov_residual",
        "max_residual": float(np.max(np.abs(res))),
        "mean_residual": float(np.mean(np.abs(res))),
        "witness": pts[worst].tolist(),
        "w_at_origin": w0,
        "origin_ok": abs(w0) <= ZUBOV_RANGE_TOL,
        "range_violations": range_violations,
        "passed": abs(w0) <= ZUBOV_RANGE_TOL and not range_violations,
    }
