"""Runtime safety filters: CBF/CLF quadratic programs and the N-step
predictive safety filter.

Class-K gains are restricted to the linear form alpha(s) = kappa * s so that
every filter solve stays a convex QP. Each filter holds a private
warm-started QP solver instance; use one filter per control loop.
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
    """Minimal-deviation CBF QP filter with a private warm-started solver."""

    def __init__(self, sys: dyn.ControlAffineODE, barriers, u_box: geom.Box):
        if isinstance(barriers, BarrierSpec):
            barriers = [barriers]
        self.sys = sys
        self.barriers = list(barriers)
        self.u_box = u_box
        # a loose ADMM tolerance plus the exact active-set polish is both
        # faster and more accurate here than tight splitting iterations
        self.solver = qp.AdmmSolver(tol=1e-6, rho=1.0)

    def filter(self, x, u_nom):
        x = np.asarray(x, dtype=float).ravel()
        u_nom = np.asarray(u_nom, dtype=float).ravel()
        m = self.sys.input_dim
        if u_nom.size != m:
            raise DimensionMismatch("u_nom dimension mismatch")
        f = self.sys.f(x)
        g = self.sys.g(x)
        rows = [np.eye(m)]
        lo = [self.u_box.lower]
        hi = [self.u_box.upper]
        for bar in self.barriers:
            gh = np.asarray(bar.grad_h(x), dtype=float).ravel()
            # gh.(f + g u) >= -kappa h  ->  (gh.g) u >= -kappa h - gh.f
            rows.append((gh @ g)[None, :])
            lo.append(np.array([-bar.kappa * bar.h(x) - gh @ f]))
            hi.append(np.array([np.inf]))
        A = np.vstack(rows)
        # the nominal input is the QP optimum whenever it is already feasible
        Au = A @ u_nom
        if np.all(Au >= np.concatenate(lo) - 1e-12) and np.all(
            Au <= np.concatenate(hi) + 1e-12
        ):
            return u_nom.copy()
        prob = qp.QProblem(np.eye(m), -u_nom, A, np.concatenate(lo), np.concatenate(hi))
        sol = self.solver.solve(prob)
        if sol.status == "PrimalInfeasible" or (
            sol.status == "MaxIter" and sol.primal_residual > 1e-6
        ):
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
    # min over u in box of gv.(f + g u): LP in u
    c = gv @ g
    m = sys.input_dim
    sol = qp.solve_lp(c, np.eye(m), u_box.lower, u_box.upper, tol=1e-9)
    inf_lie = float(gv @ f + c @ sol.z)
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
        "minimizer_u": sol.z.tolist(),
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
    which is a documented desk-scale approximation.
    """

    SQP_MAX = 10

    def __init__(self, model, cfg: PsfConfig):
        self.model = model
        self.cfg = cfg
        self.solver = qp.AdmmSolver(tol=1e-9)
        self.terminal_defaulted = cfg.terminal_set is None

    def _build_qp(self, As, Bs, cs, x0, u_nom):
        """Stacked-variable QP: z = (u_0..u_{N-1}, x_1..x_N [, slacks])."""
        cfg = self.cfg
        N = cfg.horizon
        n = self.model.state_dim
        m = self.model.input_dim
        X_A, X_b = _set_rows(cfg.state_set, n)
        term = cfg.terminal_set if cfg.terminal_set is not None else cfg.state_set
        E_A, E_b = _set_rows(term, n)
        soft = cfg.slack_weight > 0
        n_state_rows = N * X_A.shape[0] + E_A.shape[0] if soft else 0
        nv = N * m + N * n + (n_state_rows if soft else 0)

        def u_idx(i):
            return slice(i * m, (i + 1) * m)

        def x_idx(i):  # i in 1..N
            return slice(N * m + (i - 1) * n, N * m + i * n)

        rows, lo, hi = [], [], []

        def add(row, l, u):
            rows.append(row)
            lo.append(l)
            hi.append(u)

        # dynamics: x_{i+1} - A x_i - B u_i = c_i
        for i in range(N):
            for r in range(n):
                row = np.zeros(nv)
                row[N * m + i * n + r] = 1.0
                row[u_idx(i)] = -Bs[i][r]
                rhs = cs[i][r]
                if i == 0:
                    rhs = rhs + As[i][r] @ x0
                else:
                    row[x_idx(i)] = -As[i][r]
                add(row, rhs, rhs)
        # input box
        for i in range(N):
            for j in range(m):
                row = np.zeros(nv)
                row[i * m + j] = 1.0
                add(row, cfg.input_set.lower[j], cfg.input_set.upper[j])
        # state and terminal sets (with optional slack)
        slack_pos = N * m + N * n
        srow = 0
        for i in range(1, N + 1):
            SA, Sb = (X_A, X_b) if i < N else (
                np.vstack([X_A, E_A]),
                np.concatenate([X_b, E_b]),
            )
            for r in range(SA.shape[0]):
                row = np.zeros(nv)
                row[x_idx(i)] = SA[r]
                if soft:
                    row[slack_pos + srow] = -1.0
                    srow += 1
                add(row, -np.inf, Sb[r])
        if soft:
            for k in range(srow):
                row = np.zeros(nv)
                row[slack_pos + k] = 1.0
                add(row, 0.0, np.inf)
            nv_used = slack_pos + srow
        else:
            nv_used = nv
        A = np.array(rows)[:, :nv_used]
        P = np.zeros((nv_used, nv_used))
        P[:m, :m] = np.eye(m)
        q = np.zeros(nv_used)
        q[:m] = -u_nom
        if soft:
            P[slack_pos:nv_used, slack_pos:nv_used] = cfg.slack_weight * np.eye(srow)
        return qp.QProblem(P, q, A, np.array(lo), np.array(hi)), slack_pos, nv_used

    def _solve_linear(self, As, Bs, cs, x0, u_nom):
        prob, slack_pos, nv = self._build_qp(As, Bs, cs, x0, u_nom)
        sol = self.solver.solve(prob)
        if sol.status == "PrimalInfeasible":
            raise InfeasibleFilter("predictive safety filter infeasible", certificate=sol.certificate)
        if sol.status == "MaxIter" and sol.primal_residual > 1e-6:
            raise InfeasibleFilter("predictive safety filter did not converge")
        return sol, slack_pos, nv

    def filter(self, x, u_nom):
        x = np.asarray(x, dtype=float).ravel()
        u_nom = np.asarray(u_nom, dtype=float).ravel()
        cfg = self.cfg
        N = cfg.horizon
        n = self.model.state_dim
        m = self.model.input_dim
        if isinstance(self.model, dyn.LinearMap):
            A0, B0 = self.model.A, self.model.B if self.model.B is not None else np.zeros((n, m))
            As = [A0] * N
            Bs = [B0] * N
            cs = [np.zeros(n)] * N
            sol, slack_pos, nv = self._solve_linear(As, Bs, cs, x, u_nom)
            u0 = sol.z[:m]
            diags = self._diagnostics(sol, slack_pos, nv, sqp_iters=0)
            return u0, diags

        # nonlinear: successive linearization around the rolled-out nominal plan
        u_range = cfg.input_set.upper - cfg.input_set.lower
        trust = 0.1 * np.max(u_range)
        u_plan = np.tile(np.clip(u_nom, cfg.input_set.lower, cfg.input_set.upper), (N, 1))
        prev_u0 = None
        for it in range(self.SQP_MAX):
            xs = [x]
            for i in range(N):
                xs.append(dyn.step(self.model, xs[-1], u_plan[i]))
            As, Bs, cs = [], [], []
            for i in range(N):
                Ai, Bi = dyn.linearize(self.model, xs[i], u_plan[i])
                ci = xs[i + 1] - Ai @ xs[i] - Bi @ u_plan[i]
                As.append(Ai)
                Bs.append(Bi)
                cs.append(ci)
            sol, slack_pos, nv = self._solve_linear(As, Bs, cs, x, u_nom)
            new_plan = sol.z[: N * m].reshape(N, m)
            step_sz = np.max(np.abs(new_plan - u_plan), initial=0.0)
            u_plan = u_plan + np.clip(new_plan - u_plan, -trust, trust)
            if step_sz <= 1e-8:
                break
            if it == self.SQP_MAX - 1 and step_sz > 1e-3 * (1 + np.max(np.abs(u_plan))):
                raise SqpNoConverge(f"SQP step still {step_sz:.3g} after {self.SQP_MAX} iterations")
        u0 = u_plan[0]
        diags = self._diagnostics(sol, slack_pos, nv, sqp_iters=it + 1)
        diags["approximation"] = "successive_linearization"
        return u0, diags

    def _diagnostics(self, sol, slack_pos, nv, sqp_iters):
        slacks = sol.z[slack_pos:nv] if self.cfg.slack_weight > 0 else np.array([])
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
