"""Runtime safety filters: CBF/CLF quadratic programs and the N-step
predictive safety filter.

Class-K gains are restricted to the linear form alpha(s) = kappa * s so that
every filter solve stays a convex QP, solved exactly by `qp.solve`.
"""

from dataclasses import dataclass

import numpy as np

from . import dyn, geom, nn, qp
from .errors import DimensionMismatch, InfeasibleFilter, SqpNoConverge

__all__ = [
    "BarrierSpec",
    "affine_barrier",
    "quadratic_barrier",
    "box_barrier",
    "ClfSpec",
    "PsfConfig",
    "CbfFilter",
    "clf_check",
    "PredictiveSafetyFilter",
    "predictive_safety_filter",
]


@dataclass(frozen=True)
class BarrierSpec:
    """Safe set {x : h(x) >= 0} with exact gradient and linear class-K gain."""

    h: object  # callable x -> float
    grad_h: object  # callable x -> vector
    kappa: float = 1.0

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")

    def validate_gradient(self, x, tol=1e-6):
        x = np.asarray(x, dtype=float).ravel()
        g = np.asarray(self.grad_h(x), dtype=float).ravel()
        fd = dyn.central_difference(self.h, x, 1e-6)
        err = np.max(np.abs(fd - g), initial=0.0)
        if err > tol * (1.0 + np.max(np.abs(g), initial=0.0)):
            raise ValueError(f"grad_h inconsistent with h (fd error {err:.3g})")


def affine_barrier(a, b, kappa=1.0) -> BarrierSpec:
    """h(x) = a'x + b."""
    a = np.asarray(a, dtype=float).ravel()
    return BarrierSpec(lambda x: float(a @ x + b), lambda x: a.copy(), kappa)


def quadratic_barrier(P, c, r2, kappa=1.0) -> BarrierSpec:
    """h(x) = r2 - (x-c)'P(x-c)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    c = np.asarray(c, dtype=float).ravel()
    return BarrierSpec(
        lambda x: float(r2 - (x - c) @ P @ (x - c)),
        lambda x: -2.0 * P @ (np.asarray(x, dtype=float) - c),
        kappa,
    )


def box_barrier(box: geom.Box, kappa=1.0):
    """One affine barrier per face of the box."""
    specs = []
    for i in range(box.dim):
        e = np.zeros(box.dim)
        e[i] = 1.0
        specs.append(affine_barrier(e, -box.lower[i], kappa))
        specs.append(affine_barrier(-e, box.upper[i], kappa))
    return specs


@dataclass(frozen=True)
class ClfSpec:
    """Lyapunov function with sandwich bounds c1||x||^2 <= V <= c2||x||^2."""

    V: object  # callable x -> float, or LyapunovCandidate
    grad_V: object  # callable x -> vector (None for LyapunovCandidate: fd)
    kappa_v: float = 1.0
    c1: float = 0.0
    c2: float = np.inf

    def __post_init__(self):
        if self.kappa_v <= 0:
            raise ValueError("kappa_v must be > 0")
        if self.c1 > self.c2:
            raise ValueError("require c1 <= c2")

    def value(self, x):
        if isinstance(self.V, nn.LyapunovCandidate):
            return float(nn.lyapunov_eval(self.V, x))
        return float(self.V(x))

    def gradient(self, x):
        if self.grad_V is not None:
            return np.asarray(self.grad_V(x), dtype=float).ravel()
        return dyn.central_difference(self.value, np.asarray(x, dtype=float).ravel(), 1e-6)


def quadratic_clf(P, kappa_v=1.0) -> ClfSpec:
    P = np.atleast_2d(np.asarray(P, dtype=float))
    evals = np.linalg.eigvalsh(0.5 * (P + P.T))
    return ClfSpec(
        lambda x: float(x @ P @ x),
        lambda x: 2.0 * P @ np.asarray(x, dtype=float),
        kappa_v,
        float(evals.min()),
        float(evals.max()),
    )


@dataclass(frozen=True)
class PsfConfig:
    horizon: int
    state_set: object  # Box | HPolytope
    input_set: geom.Box
    terminal_set: object = None  # defaults to state_set (non-certified default)
    slack_weight: float = 0.0  # 0 = hard constraints

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.slack_weight < 0:
            raise ValueError("slack_weight must be >= 0")


class CbfFilter:
    """Minimal-deviation CBF QP filter (Ames et al., ECC 2019)."""

    def __init__(self, sys: dyn.ControlAffineODE, barriers, u_box: geom.Box):
        if isinstance(barriers, BarrierSpec):
            barriers = [barriers]
        self.sys = sys
        self.barriers = list(barriers)
        self.u_box = u_box
        self._eye = np.eye(sys.input_dim)

    def filter(self, x, u_nom):
        x = np.asarray(x, dtype=float).ravel()
        u_nom = np.asarray(u_nom, dtype=float).ravel()
        m = self.sys.input_dim
        if u_nom.size != m:
            raise DimensionMismatch("u_nom dimension mismatch")
        f = self.sys.f(x)
        g = self.sys.g(x)
        k = len(self.barriers)
        A = np.concatenate((self._eye, np.empty((k, m))))
        lo = np.concatenate((self.u_box.lower, np.empty(k)))
        hi = np.concatenate((self.u_box.upper, np.full(k, np.inf)))
        for i, bar in enumerate(self.barriers, m):
            gh = np.asarray(bar.grad_h(x), dtype=float).ravel()
            # gh.(f + g u) >= -kappa h  ->  (gh.g) u >= -kappa h - gh.f
            A[i] = gh @ g
            lo[i] = -bar.kappa * bar.h(x) - gh @ f
        # the nominal input is the QP optimum whenever it is already feasible
        Au = A @ u_nom
        if (Au >= lo - 1e-12).all() and (Au <= hi + 1e-12).all():
            return u_nom.copy()
        prob = qp.QProblem(self._eye, -u_nom, A, lo, hi)
        sol = qp.solve(prob)
        if sol.status == "PrimalInfeasible":
            raise InfeasibleFilter(
                "CBF constraint incompatible with input box at this state",
                certificate=sol.certificate,
            )
        return sol.z


def clf_check(sys: dyn.ControlAffineODE, x, clf: ClfSpec, u_box: geom.Box) -> dict:
    """Minimize the Lie derivative over the input box and report whether the
    CLF decrease and sandwich conditions hold; violations are entries."""
    x = np.asarray(x, dtype=float).ravel()
    v = clf.value(x)
    gv = clf.gradient(x)
    f = sys.f(x)
    g = sys.g(x)
    # min over u in box of gv.(f + g u): each u_i sits at the bound against c_i
    c = gv @ g
    u = np.where(c > 0, u_box.lower, np.where(c < 0, u_box.upper, np.clip(0.0, u_box.lower, u_box.upper)))
    inf_lie = float(gv @ f + c @ u)
    threshold = -clf.kappa_v * v
    nx2 = float(x @ x)
    sandwich_ok = clf.c1 * nx2 - 1e-9 <= v <= clf.c2 * nx2 + 1e-9
    decrease_ok = inf_lie <= threshold + 1e-9
    return {
        "check": "clf",
        "passed": decrease_ok and sandwich_ok,
        "value": v,
        "inf_lie_derivative": inf_lie,
        "threshold": threshold,
        "decrease_ok": decrease_ok,
        "sandwich_ok": sandwich_ok,
        "minimizer_u": u.tolist(),
    }


def _set_rows(s, n):
    """(A, b) rows with A x <= b for a Box or HPolytope."""
    if isinstance(s, geom.Box):
        eye = np.eye(n)
        return np.vstack([eye, -eye]), np.concatenate([s.upper, -s.lower])
    if isinstance(s, geom.HPolytope):
        return s.A.copy(), s.b.copy()
    raise TypeError("constraint sets must be Box or HPolytope")


class PredictiveSafetyFilter:
    """N-step predictive safety filter.

    Exact QP for linear models; nonlinear models run successive linearization
    (at most 10 SQP passes with a trust-region box of 10% of the input range),
    which is a documented desk-scale approximation. Each pass linearizes with
    `dyn.linearize`: exact for LinearMap and NetworkMap; central differences
    otherwise.
    """

    SQP_MAX = 10

    def __init__(self, model, cfg: PsfConfig):
        self.model = model
        self.cfg = cfg
        self.terminal_defaulted = cfg.terminal_set is None

    def _build_qp(self, As, Bs, cs, x0, u_nom):
        """Stacked-variable QP over z = (u_0..u_{N-1}, x_1..x_N [, slacks]).

        Row blocks, in order: the dynamics x_{i+1} - A_i x_i - B_i u_i = c_i,
        stage by stage; the N*m input-box rows; the state rows X(x_1)..X(x_N),
        then E(x_N); in soft mode, one slack per state row, then the rows
        slack >= 0.
        """
        cfg = self.cfg
        N = cfg.horizon
        n = self.model.state_dim
        m = self.model.input_dim
        X_A, X_b = _set_rows(cfg.state_set, n)
        term = cfg.terminal_set if cfg.terminal_set is not None else cfg.state_set
        E_A, E_b = _set_rows(term, n)
        soft = cfg.slack_weight > 0
        nu, nx, kx = N * m, N * n, X_A.shape[0]
        ns = N * kx + E_A.shape[0]  # state rows, and slacks in soft mode
        nv = nu + nx + (ns if soft else 0)
        s0 = nx + nu  # first state row
        A = np.zeros((s0 + (2 * ns if soft else ns), nv))
        lo = np.full(A.shape[0], -np.inf)
        hi = np.full(A.shape[0], np.inf)
        # dynamics
        A[np.arange(nx), nu + np.arange(nx)] = 1.0
        for i in range(N):
            rows = slice(i * n, (i + 1) * n)
            A[rows, i * m : (i + 1) * m] = -Bs[i]
            if i == 0:
                # row by row: a matvec As[0] @ x0 sums in another order and
                # can move the last bit of every PSF answer
                rhs = [cs[0][r] + As[0][r] @ x0 for r in range(n)]
            else:
                A[rows, nu + (i - 1) * n : nu + i * n] = -As[i]
                rhs = cs[i]
            lo[rows] = hi[rows] = rhs
        # input box
        A[nx + np.arange(nu), np.arange(nu)] = 1.0
        lo[nx:s0] = np.tile(cfg.input_set.lower, N)
        hi[nx:s0] = np.tile(cfg.input_set.upper, N)
        # state and terminal sets
        for i in range(N):
            A[s0 + i * kx : s0 + (i + 1) * kx, nu + i * n : nu + (i + 1) * n] = X_A
        A[s0 + N * kx : s0 + ns, nu + nx - n : nu + nx] = E_A
        hi[s0 : s0 + ns] = np.concatenate([np.tile(X_b, N), E_b])
        P = np.zeros((nv, nv))
        P[:m, :m] = np.eye(m)
        q = np.zeros(nv)
        q[:m] = -u_nom
        if soft:
            # diagonal entries only: -np.eye would write -0.0 off the diagonal
            k = np.arange(ns)
            A[s0 + k, nu + nx + k] = -1.0
            A[s0 + ns + k, nu + nx + k] = 1.0
            lo[s0 + ns :] = 0.0
            P[nu + nx :, nu + nx :] = cfg.slack_weight * np.eye(ns)
        return qp.QProblem(P, q, A, lo, hi)

    def filter(self, x, u_nom):
        x = np.asarray(x, dtype=float).ravel()
        u_nom = np.asarray(u_nom, dtype=float).ravel()
        cfg = self.cfg
        N = cfg.horizon
        n = self.model.state_dim
        m = self.model.input_dim
        linear = isinstance(self.model, dyn.LinearMap)
        if linear:
            B0 = self.model.B if self.model.B is not None else np.zeros((n, m))
            As, Bs, cs = [self.model.A] * N, [B0] * N, [np.zeros(n)] * N
        else:
            # successive linearization around the rolled-out nominal plan
            trust = 0.1 * np.max(cfg.input_set.upper - cfg.input_set.lower)
            u_plan = np.tile(np.clip(u_nom, cfg.input_set.lower, cfg.input_set.upper), (N, 1))
        for it in range(self.SQP_MAX):
            if not linear:
                xs = [x]
                for i in range(N):
                    xs.append(dyn.step(self.model, xs[-1], u_plan[i]))
                As, Bs, cs = [], [], []
                for i in range(N):
                    Ai, Bi = dyn.linearize(self.model, xs[i], u_plan[i])
                    As.append(Ai)
                    Bs.append(Bi)
                    cs.append(xs[i + 1] - Ai @ xs[i] - Bi @ u_plan[i])
            sol = qp.solve(self._build_qp(As, Bs, cs, x, u_nom))
            if sol.status == "PrimalInfeasible":
                raise InfeasibleFilter("predictive safety filter infeasible", certificate=sol.certificate)
            if linear:
                return sol.z[:m], self._diagnostics(sol, sqp_iters=0)
            new_plan = sol.z[: N * m].reshape(N, m)
            step_sz = np.max(np.abs(new_plan - u_plan), initial=0.0)
            u_plan = u_plan + np.clip(new_plan - u_plan, -trust, trust)
            if step_sz <= 1e-8:
                break
            if it == self.SQP_MAX - 1 and step_sz > 1e-3 * (1 + np.max(np.abs(u_plan))):
                raise SqpNoConverge(f"SQP step still {step_sz:.3g} after {self.SQP_MAX} iterations")
        diags = self._diagnostics(sol, sqp_iters=it + 1)
        diags["approximation"] = "successive_linearization"
        return u_plan[0], diags

    def _diagnostics(self, sol, sqp_iters):
        N = self.cfg.horizon
        slacks = sol.z[N * (self.model.state_dim + self.model.input_dim) :]  # empty in hard mode
        active = int(np.sum(np.abs(sol.dual) > 1e-7))
        return {
            "active_constraints": active,
            "max_slack": float(np.max(slacks, initial=0.0)),
            "slack_weight": self.cfg.slack_weight,
            "sqp_iterations": sqp_iters,
            "terminal_set_defaulted": self.terminal_defaulted,
            "qp_status": sol.status,
            "qp_iterations": sol.iterations,
        }


def predictive_safety_filter(model, x, u_nom, cfg: PsfConfig):
    """One-shot N-step PSF solve; returns (u0, diagnostics)."""
    return PredictiveSafetyFilter(model, cfg).filter(x, u_nom)
