"""Dense convex QP solver: a least-distance active set, one KKT solve and a
floating-point check of the answer.

Solves  min 1/2 z'Pz + q'z  s.t.  l <= Az <= u  with P symmetric PSD.

1. Proposal. With P + eps I = L L' (eps = 1e-10 max(1, max diag P)) and
   z0 = -(P + eps I)^-1 q, the substitution v = L'(z - z0) turns the
   regularised QP into the least-distance program min ||v|| s.t. G v >= h,
   one row per finite bound. Lawson & Hanson ("Solving Least Squares
   Problems", ch. 23) solve it with one NNLS call on [G'; h']. The rows with
   a positive weight, plus the equality rows, are the proposed active set;
   the regularised point itself is never returned.
2. Answer. The KKT system of the original P on that active set, by lstsq.
3. Check. The answer is Optimal when its primal violation and stationarity
   residual are within a rounding bound and every active multiplier has the
   right sign. Otherwise the most violated inactive row is added, or the
   worst wrong-signed row dropped, and the KKT system solved again, at most
   m + n times; when neither applies, the solve is repeated once with a step
   of iterative refinement, and that answer's stationarity residual may also
   meet the normwise bound of the whole KKT solve (see `LdpSolver.solve`).

PrimalInfeasible carries a Farkas vector y (A'y = 0, u'y+ + l'y- < 0) whose
weights are re-solved on the NNLS support without the regularisation;
DualInfeasible carries a ray d (d'Pd = 0, q'd < 0, Ad in the recession cone
of [l, u]): the least-squares residual of the last KKT solve. Each is
returned only after it passes its check in floating point; an NNLS residual
alone decides nothing. Anything else raises NoConvergence.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.optimize import nnls

from .errors import NoConvergence

__all__ = ["QProblem", "QpSolution", "LdpSolver", "solve"]

_SYM_TOL = 1e-10


@dataclass(frozen=True)
class QProblem:
    """min 1/2 z'Pz + q'z subject to l <= Az <= u."""

    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        q = np.asarray(self.q, dtype=float).ravel()
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        l = np.asarray(self.l, dtype=float).ravel()
        u = np.asarray(self.u, dtype=float).ravel()
        n = q.size
        if P.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {P.shape}")
        if A.shape[1] != n:
            raise ValueError(f"A must have {n} columns, got {A.shape}")
        m = A.shape[0]
        if l.shape != (m,) or u.shape != (m,):
            raise ValueError("l, u must match the number of constraint rows")
        if not (np.isfinite(P).all() and np.isfinite(q).all() and np.isfinite(A).all()):
            raise ValueError("P, q and A must be finite")
        if np.abs(P - P.T).max(initial=0.0) > _SYM_TOL * max(1.0, np.abs(P).max(initial=0.0)):
            raise ValueError("P must be symmetric")
        if not (l <= u).all():
            raise ValueError("require l <= u elementwise, with no NaN bound")
        object.__setattr__(self, "P", 0.5 * (P + P.T))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "u", u)

    @property
    def n(self):
        return self.q.size

    @property
    def m(self):
        return self.A.shape[0]

    def objective(self, z):
        return 0.5 * z @ self.P @ z + self.q @ z


@dataclass
class QpSolution:
    z: np.ndarray
    dual: np.ndarray
    status: str  # Optimal | PrimalInfeasible | DualInfeasible
    primal_residual: float
    dual_residual: float
    iterations: int = 0  # KKT solves
    objective: float = np.nan
    certificate: np.ndarray | None = None


def _ldp_support(prob):
    """Rows with a positive NNLS weight in the least-distance program of the
    regularised QP, as masks over the rows A z >= l and -A z >= -u."""
    P, A, n, m = prob.P, prob.A, prob.n, prob.m
    bound = np.concatenate((prob.l, -prob.u))  # the finite rows of [A; -A] z >= [l; -u]
    fin = np.isfinite(bound)
    S = np.concatenate((A, -A))[fin]
    on = np.zeros(2 * m, bool)
    if S.shape[0] == 0:
        return on[:m], on[m:]  # scipy's nnls needs at least one column
    try:
        L = np.linalg.cholesky(P + 1e-10 * max(1.0, P.diagonal().max(initial=0.0)) * np.eye(n))
    except np.linalg.LinAlgError as e:
        raise ValueError("P must be positive semidefinite") from e
    z0 = -dpotrs(L, prob.q, lower=1)[0]  # LAPACK directly: QProblem checked the input once
    G = dtrtrs(L.T, S.T, lower=0, trans=1)[0].T  # S L^-T, as L^-1 S'
    rho = np.sqrt((G * G).sum(1))
    rho[rho == 0.0] = 1.0
    e = np.zeros(n + 1)
    e[n] = 1.0
    try:  # nnls([G'; h'] / rho, e) with h = [l; -u] - S z0
        w, _ = nnls(np.concatenate((G.T, (bound[fin] - S @ z0)[None])) / rho, e)
    except RuntimeError as err:
        raise NoConvergence(f"LDP NNLS: {err}") from err
    on[fin] = w > 0
    return on[:m], on[m:]


def _kkt(prob, act, b, refine):
    """Least-squares solve of the KKT system of P on the rows in `act`, with
    one step of iterative refinement when `refine` is set."""
    n = prob.n
    Aa = prob.A[act]
    KKT = np.zeros((n + Aa.shape[0],) * 2)
    KKT[:n, :n], KKT[:n, n:], KKT[n:, :n] = prob.P, Aa.T, Aa
    rhs = np.concatenate((-prob.q, b[act]))
    sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
    if refine:
        sol = sol + np.linalg.lstsq(KKT, rhs - KKT @ sol, rcond=None)[0]
    y = np.zeros(prob.m)
    y[act] = sol[n:]
    return sol[:n], y


def _gamma(prob):
    """Relative rounding bound of the checks: 16 units of roundoff per term of
    the longest KKT row."""
    return 16 * (prob.n + prob.m + 1) * np.finfo(float).eps


def _farkas(prob, on_lo, on_hi):
    """A Farkas vector y (A'y = 0 and u'y+ + l'y- < 0 beyond rounding, so no z
    has l <= Az <= u) from the NNLS support, whose weights are re-solved
    without the regularisation: [A_lo', -A_hi'; l_lo', -u_hi'] w = e; or None."""
    A, l, u = prob.A, prob.l, prob.u
    E = np.vstack([np.hstack([A[on_lo].T, -A[on_hi].T]), np.concatenate([l[on_lo], -u[on_hi]])])
    w, *_ = np.linalg.lstsq(E, np.append(np.zeros(prob.n), 1.0), rcond=None)
    w = np.maximum(w, 0.0)
    y = np.zeros(prob.m)
    y[on_hi] += w[on_lo.sum() :]
    y[on_lo] -= w[: on_lo.sum()]
    gamma = _gamma(prob)
    terms = np.where(y > 0, u, np.where(y < 0, l, 0.0)) * y
    if terms.sum() + gamma * np.abs(terms).sum() >= 0:
        return None
    return y if np.max(np.abs(A.T @ y)) <= gamma * np.max(np.abs(A).T @ np.abs(y)) else None


def _is_ray(prob, d):
    """d'Pd = 0 (so Pd = 0), q'd < 0 and Ad in the recession cone of [l, u],
    each beyond rounding (so a NaN rejects d): the objective is unbounded below along d."""
    gamma = _gamma(prob)
    absd = np.abs(d)
    Ad = prob.A @ d
    tol = gamma * (np.abs(prob.A) @ absd).max(initial=0.0)
    return bool(
        d @ prob.P @ d <= gamma * (absd @ np.abs(prob.P) @ absd)
        and prob.q @ d + gamma * (np.abs(prob.q) @ absd) < 0
        and ((Ad <= tol) | np.isinf(prob.u)).all() and ((Ad >= -tol) | np.isinf(prob.l)).all()
    )


class LdpSolver:
    """Stateless exact QP solver: LDP active set, KKT solve, checked answer."""

    def solve(self, prob: QProblem) -> QpSolution:
        P, q, A, l, u = prob.P, prob.q, prob.A, prob.l, prob.u
        n, m = prob.n, prob.m
        on_lo, on_hi = _ldp_support(prob)
        eq = l == u
        act = eq | on_lo | on_hi
        upper = on_hi.copy()  # the bound an active inequality row sits on
        absA, absP, absq = np.abs(A), np.abs(P), np.abs(q)
        row_norm = absA.sum(1)
        gamma = _gamma(prob)
        refine = False
        for it in range(1, n + m + 2):
            z, y = _kkt(prob, act, np.where(upper, u, l), refine)
            Az = A @ z
            viol = np.maximum(l - Az, Az - u)
            stat = P @ z + q + A.T @ y
            r_prim = float(viol.max(initial=0.0))
            r_dual = float(np.abs(stat).max())
            # rounding bounds: per row for feasibility, over the gradient for
            # stationarity; both scale with the whole KKT solution (z, y),
            # since a least-squares solve's error is normwise over it
            absy = np.abs(y)
            size = max(np.abs(z).max(), absy.max(initial=0.0))
            tol_p = gamma * (row_norm * size + np.abs(Az.clip(l, u)))
            tol_d = gamma * (absP @ np.abs(z) + absq + absA.T @ absy).max()
            wrong = np.where(eq, 0.0, np.where(upper, -y, y))  # > 0: wrong sign (y is 0 off act)
            wrong_tol = 1e-12 * (1.0 + absy.max(initial=0.0))
            if (viol <= tol_p).all() and r_dual <= tol_d and (wrong <= wrong_tol).all():
                return QpSolution(z, y, "Optimal", r_prim, r_dual, it, float(prob.objective(z)))
            if it == 1 and (cert := _farkas(prob, on_lo, on_hi)) is not None:
                return QpSolution(z, y, "PrimalInfeasible", r_prim, r_dual, it, certificate=cert)
            add = ~act & (viol > tol_p)
            if add.any():
                i = int(np.argmax(np.where(add, viol, -np.inf)))
                act[i], upper[i] = True, Az[i] > u[i]
            elif (wrong > wrong_tol).any():
                act[int(np.argmax(wrong))] = False
            elif not refine:
                refine = True  # the active set stands: refine its solve
                continue
            elif (viol <= tol_p).all() and r_dual <= gamma * ((absP.sum(1) + absA.sum(0)).max() * size + absq.max()):
                # the refined solve of a standing active set may also meet the
                # normwise bound of the KKT solve, gamma(max row sum of |[P A']|
                # * max(|z|, |y|) + |q|): tol_d shrinks to nothing when every
                # term of Pz + q + A'y is near 0, as at an optimum with zero
                # multipliers where P weighs only coordinates that are 0
                return QpSolution(z, y, "Optimal", r_prim, r_dual, it, float(prob.objective(z)))
            else:
                break
            refine = False
        # a least-squares KKT residual lies in null(P) and null(A_active)
        if _is_ray(prob, -stat):
            return QpSolution(z, y, "DualInfeasible", r_prim, r_dual, it, certificate=-stat)
        raise NoConvergence(f"QP answer not certified after {it} KKT solves")


# bench/tracer.py wraps `qp.AdmmSolver.solve`; the next benchmark change drops this alias.
AdmmSolver = LdpSolver


def solve(prob: QProblem) -> QpSolution:
    """Solve one QP (see the module docstring)."""
    return LdpSolver().solve(prob)
