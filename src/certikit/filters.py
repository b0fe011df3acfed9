"""Runtime safety filters: CBF/CLF quadratic programs and the N-step
predictive safety filter.

Class-K gains are restricted to the linear form alpha(s) = kappa * s so that
every filter solve stays a convex QP, solved exactly by `qp.solve`. The
predictive filter's QP is condensed (Jerez, Kerrigan & Constantinides,
CDC-ECC 2011): the plan's inputs are its only variables. Nonlinear models
plan by a full-step SQP, one linearization per stage and pass. A CLF's value
and gradient, and the reference gradient that checks a barrier's, come from
`nn.value_and_gradient`.
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
]

GRADIENT_TOL = 1e-6  # BarrierSpec.validate_gradient: fd error relative to 1 + max|grad_h|


@dataclass(frozen=True)
class BarrierSpec:
    """Safe set {x : h(x) >= 0} with exact gradient and linear class-K gain."""

    h: object  # callable x -> float
    grad_h: object  # callable x -> vector
    kappa: float = 1.0

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")

    def validate_gradient(self, x):
        x = np.asarray(x, dtype=float).ravel()
        g = np.asarray(self.grad_h(x), dtype=float).ravel()
        fd = nn.value_and_gradient(self.h, x)[1]
        err = np.max(np.abs(fd - g), initial=0.0)
        if err > GRADIENT_TOL * (1.0 + np.max(np.abs(g), initial=0.0)):
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

    V: object  # callable x -> float, one-output nn.Mlp or nn.LyapunovCandidate
    grad_V: object = None  # callable x -> vector for a callable V, else fd
    kappa_v: float = 1.0
    c1: float = 0.0
    c2: float = np.inf

    def __post_init__(self):
        if self.kappa_v <= 0:
            raise ValueError("kappa_v must be > 0")
        if self.c1 > self.c2:
            raise ValueError("require c1 <= c2")


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
        if u_box.dim != sys.input_dim:
            raise DimensionMismatch(f"input box has dim {u_box.dim}, the system {sys.input_dim} inputs")
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
        # qp.solve's KKT acceptance can leave the answer a few ulps outside
        # the input box, which holds the exact optimum
        return sol.z.clip(self.u_box.lower, self.u_box.upper, out=sol.z)


def clf_check(sys: dyn.ControlAffineODE, x, clf: ClfSpec, u_box: geom.Box) -> dict:
    """Minimize the Lie derivative over the input box and report whether the
    CLF decrease and sandwich conditions hold; violations are entries."""
    x = np.asarray(x, dtype=float).ravel()
    v, gv = nn.value_and_gradient(clf.V, x, clf.grad_V)
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
    """N-step predictive safety filter (Wabersich & Zeilinger, Automatica 2021).

    One condensed QP (`_build_qp`) keeps the plan's first input closest to the
    nominal one while every predicted state stays in the state set and the
    last in the terminal set. A LinearMap is answered by that one QP.
    Other models run a plain SQP, a documented desk-scale approximation: from
    the clipped nominal plan, each pass linearizes once per stage with
    `dyn.linearize` (its value f(x_i, u_i) is the next stage's point), solves
    the QP and takes its plan whole, at most SQP_MAX passes, stopping once
    no input moves more than 1e-8. A step still above 1e-3 (1 + max|u|) at
    the last pass raises SqpNoConverge.
    """

    SQP_MAX = 10

    def __init__(self, model, cfg: PsfConfig):
        self.model = model
        self.cfg = cfg
        self.terminal_defaulted = cfg.terminal_set is None

    def _build_qp(self, As, Bs, cs, x0, u_nom):
        """Condensed QP over z = (u_0..u_{N-1} [, slacks]).

        The plan's states are affine in its inputs: from M = 0 and o = x0,
        M <- A_i M + B_i E_i and o <- A_i o + c_i give x_{i+1} = M u + o, where
        E_i picks u_i out of u. Row blocks, in order: the N*m input-box rows;
        the state rows X(x_1)..X(x_N), then E(x_N), each X_A x <= X_b written
        as X_A M u <= X_b - X_A o; in soft mode, one slack per state row, then
        the rows slack >= 0.
        """
        cfg = self.cfg
        N = cfg.horizon
        n = self.model.state_dim
        m = self.model.input_dim
        X_A, X_b = _set_rows(cfg.state_set, n)
        term = cfg.terminal_set if cfg.terminal_set is not None else cfg.state_set
        E_A, E_b = _set_rows(term, n)
        soft = cfg.slack_weight > 0
        nu, kx = N * m, X_A.shape[0]
        ns = N * kx + E_A.shape[0]  # state rows, and slacks in soft mode
        nv = nu + (ns if soft else 0)
        A = np.zeros((nu + (2 * ns if soft else ns), nv))
        lo = np.full(A.shape[0], -np.inf)
        hi = np.full(A.shape[0], np.inf)
        # input box
        A[np.arange(nu), np.arange(nu)] = 1.0
        lo[:nu] = np.tile(cfg.input_set.lower, N)
        hi[:nu] = np.tile(cfg.input_set.upper, N)
        # state and terminal sets; A_i M is still 0 in u_i's columns
        M, o = np.zeros((n, nu)), x0
        for i in range(N):
            M = As[i] @ M
            M[:, i * m : (i + 1) * m] = Bs[i]
            o = As[i] @ o + cs[i]
            rows = slice(nu + i * kx, nu + (i + 1) * kx)
            A[rows, :nu] = X_A @ M
            hi[rows] = X_b - X_A @ o
        A[nu + N * kx : nu + ns, :nu] = E_A @ M
        hi[nu + N * kx : nu + ns] = E_b - E_A @ o
        P = np.zeros((nv, nv))
        P[:m, :m] = np.eye(m)
        q = np.zeros(nv)
        q[:m] = -u_nom
        if soft:
            # diagonal entries only: -np.eye would write -0.0 off the diagonal
            k = np.arange(ns)
            A[nu + k, nu + k] = -1.0
            A[nu + ns + k, nu + k] = 1.0
            lo[nu + ns :] = 0.0
            P[nu:, nu:] = cfg.slack_weight * np.eye(ns)
        return qp.QProblem(P, q, A, lo, hi)

    def filter(self, x, u_nom):
        x = np.asarray(x, dtype=float).ravel()
        u_nom = np.asarray(u_nom, dtype=float).ravel()
        model, cfg = self.model, self.cfg
        N, n, m = cfg.horizon, model.state_dim, model.input_dim
        if x.size != n or u_nom.size != m:
            raise DimensionMismatch(f"x, u_nom of sizes {x.size}, {u_nom.size}; the model expects {n}, {m}")
        if isinstance(model, dyn.LinearMap):
            B = model.B if model.B is not None else np.zeros((n, m))
            sol = self._solve([model.A] * N, [B] * N, [np.zeros(n)] * N, x, u_nom)
            return self._in_box(sol.z[:m]), self._diagnostics(sol, sqp_iters=0)
        # full-step successive linearization, from the clipped nominal plan;
        # each stage's value is the next stage's linearization point
        u_plan = np.tile(np.clip(u_nom, cfg.input_set.lower, cfg.input_set.upper), (N, 1))
        for it in range(self.SQP_MAX):
            As, Bs, cs = [], [], []
            xi = x
            for ui in u_plan:
                x_next, Ai, Bi = dyn.linearize(model, xi, ui)
                As.append(Ai)
                Bs.append(Bi)
                cs.append(x_next - Ai @ xi - Bi @ ui)
                xi = x_next
            sol = self._solve(As, Bs, cs, x, u_nom)
            new_plan = sol.z[: N * m].reshape(N, m)
            step_sz = np.max(np.abs(new_plan - u_plan), initial=0.0)
            u_plan = new_plan
            if step_sz <= 1e-8:
                break
            if it == self.SQP_MAX - 1 and step_sz > 1e-3 * (1 + np.max(np.abs(u_plan))):
                raise SqpNoConverge(f"SQP step still {step_sz:.3g} after {self.SQP_MAX} iterations")
        diags = self._diagnostics(sol, sqp_iters=it + 1)
        diags["approximation"] = "successive_linearization"
        return self._in_box(u_plan[0]), diags

    def _in_box(self, u):
        """u clipped in place into the input set: qp.solve's KKT acceptance can
        leave a QP answer a few ulps outside it, and the exact optimum is in it."""
        return u.clip(self.cfg.input_set.lower, self.cfg.input_set.upper, out=u)

    def _solve(self, As, Bs, cs, x0, u_nom):
        sol = qp.solve(self._build_qp(As, Bs, cs, x0, u_nom))
        if sol.status == "PrimalInfeasible":
            raise InfeasibleFilter("predictive safety filter infeasible", certificate=sol.certificate)
        return sol

    def _diagnostics(self, sol, sqp_iters):
        slacks = sol.z[self.cfg.horizon * self.model.input_dim :]  # empty in hard mode
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

