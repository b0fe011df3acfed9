"""Dense convex QP/LP solver based on ADMM operator splitting.

Solves  min 1/2 z'Pz + q'z  s.t.  l <= Az <= u  with P symmetric PSD.
The iteration follows the standard splitting used by operator-splitting
QP solvers: an (always solvable) regularized KKT step, projection of the
constraint image onto [l, u], and a dual update with over-relaxation.
Infeasibility is detected from the normalized divergence certificates of
the successive-difference sequences.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["QProblem", "QpSolution", "AdmmSolver", "solve", "solve_lp"]

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
        if np.max(np.abs(P - P.T), initial=0.0) > _SYM_TOL * max(1.0, np.max(np.abs(P), initial=0.0)):
            raise ValueError("P must be symmetric")
        if np.any(l > u):
            raise ValueError("require l <= u elementwise")
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

    def to_dict(self):
        return {
            "P": self.P.tolist(),
            "q": self.q.tolist(),
            "A": self.A.tolist(),
            "l": [float(v) for v in self.l],
            "u": [float(v) for v in self.u],
        }


@dataclass
class QpSolution:
    z: np.ndarray
    dual: np.ndarray
    status: str  # Optimal | PrimalInfeasible | DualInfeasible | MaxIter
    primal_residual: float
    dual_residual: float
    iterations: int = 0
    objective: float = np.nan
    certificate: np.ndarray | None = None


class AdmmSolver:
    """Stateful dense ADMM solver with warm starting.

    A solver instance keeps the last iterate and reuses it when the next
    problem has matching dimensions; distinct instances are independent.
    """

    def __init__(self, tol=1e-6, max_iter=20_000, rho=0.1, sigma=1e-6, alpha=1.6):
        self.tol = tol
        self.max_iter = max_iter
        self.rho0 = rho
        self.sigma = sigma
        self.alpha = alpha
        self.eps_infeas = 1e-6
        self.rho_bounds = (1e-6, 1e6)
        self._warm = None  # (n, m, x, y, z)

    # -- internals ---------------------------------------------------------

    def _factorize(self, P, A, rho_vec):
        """Explicit inverse of the regularized KKT matrix.

        K is PD by construction (PSD + sigma I + A' rho A), so the inverse is
        well defined; Cholesky validates definiteness first. The inverse is
        applied many times per factorization and any residual error is caught
        by the convergence checks on the original problem.
        """
        K = P + self.sigma * np.eye(P.shape[0]) + (A.T * rho_vec) @ A
        try:
            np.linalg.cholesky(K)
            return np.linalg.inv(K)
        except np.linalg.LinAlgError:
            return None

    def _residuals(self, prob, x, y, z):
        r_prim = np.max(np.abs(prob.A @ x - z), initial=0.0)
        r_dual = np.max(np.abs(prob.P @ x + prob.q + prob.A.T @ y), initial=0.0)
        return r_prim, r_dual

    def _primal_infeasible(self, prob, dy):
        norm = np.max(np.abs(dy), initial=0.0)
        if norm < 1e-12:
            return False
        eps = self.eps_infeas * norm
        if np.max(np.abs(prob.A.T @ dy), initial=0.0) > eps:
            return False
        dy_p = np.maximum(dy, 0.0)
        dy_m = np.minimum(dy, 0.0)
        # infinite bounds must have zero multiplier mass for a valid ray
        if np.any(np.isinf(prob.u) & (dy_p > eps)):
            return False
        if np.any(np.isinf(prob.l) & (dy_m < -eps)):
            return False
        up = np.where(np.isfinite(prob.u), prob.u, 0.0)
        lo = np.where(np.isfinite(prob.l), prob.l, 0.0)
        val = up @ dy_p + lo @ dy_m
        return val <= -eps

    def _dual_infeasible(self, prob, dx):
        norm = np.max(np.abs(dx), initial=0.0)
        if norm < 1e-12:
            return False
        eps = self.eps_infeas * norm
        if np.max(np.abs(prob.P @ dx), initial=0.0) > eps:
            return False
        if prob.q @ dx > -eps:
            return False
        Adx = prob.A @ dx
        ok_up = np.isinf(prob.u) | (Adx <= eps)
        ok_lo = np.isinf(prob.l) | (Adx >= -eps)
        return bool(np.all(ok_up & ok_lo))

    def _polish(self, prob, x, y):
        """Least-squares resolve on the detected active set."""
        tol = max(10 * self.tol, 1e-7)
        Ax = prob.A @ x
        lo = (Ax - prob.l <= tol * (1 + np.abs(prob.l))) & np.isfinite(prob.l)
        hi = (prob.u - Ax <= tol * (1 + np.abs(prob.u))) & np.isfinite(prob.u)
        act = lo | hi
        b = np.where(lo, prob.l, prob.u)[act]
        Aa = prob.A[act]
        k = Aa.shape[0]
        n = prob.n
        if k == 0:
            if np.max(np.abs(prob.P), initial=0.0) == 0.0:
                return None
            try:
                xp = np.linalg.solve(prob.P + 1e-12 * np.eye(n), -prob.q)
            except np.linalg.LinAlgError:
                return None
            return xp, np.zeros(prob.m)
        KKT = np.block([[prob.P, Aa.T], [Aa, np.zeros((k, k))]])
        rhs = np.concatenate([-prob.q, b])
        sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
        xp = sol[:n]
        yp = np.zeros(prob.m)
        yp[act] = sol[n:]
        return xp, yp

    # -- public API --------------------------------------------------------

    def solve(self, prob: QProblem, warm_start=True) -> QpSolution:
        n, m = prob.n, prob.m
        if warm_start and self._warm is not None and self._warm[0] == (n, m):
            _, x, y, z = self._warm
            x, y, z = x.copy(), y.copy(), z.copy()
        else:
            x = np.zeros(n)
            y = np.zeros(m)
            z = np.clip(np.zeros(m), prob.l, prob.u)

        eq = np.isfinite(prob.l) & np.isfinite(prob.u) & (prob.u - prob.l < 1e-10)
        rho = self.rho0
        rho_vec = np.where(eq, 1e3 * rho, rho)
        L = self._factorize(prob.P, prob.A, rho_vec)

        best = (np.inf, x.copy(), y.copy())
        it = 0
        status = "MaxIter"
        check_every = 25
        for it in range(1, self.max_iter + 1):
            x_prev, y_prev, z_prev = x, y, z
            check = it <= 10 or it % check_every == 0 or it == self.max_iter
            rhs = self.sigma * x - prob.q + prob.A.T @ (rho_vec * z - y)
            if L is not None:
                x_t = L @ rhs
            else:
                K = prob.P + self.sigma * np.eye(n) + (prob.A.T * rho_vec) @ prob.A
                x_t, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            z_t = prob.A @ x_t
            x = self.alpha * x_t + (1 - self.alpha) * x_prev
            z_relax = self.alpha * z_t + (1 - self.alpha) * z_prev
            z = np.clip(z_relax + y / rho_vec, prob.l, prob.u)
            y = y + rho_vec * (z_relax - z)

            if check:
                r_prim, r_dual = self._residuals(prob, x, y, z)
                score = r_prim + r_dual
                if score < best[0]:
                    best = (score, x.copy(), y.copy())
                if r_prim <= self.tol and r_dual <= self.tol:
                    status = "Optimal"
                    break
                if it % check_every == 0 and self._primal_infeasible(prob, y - y_prev):
                    sol = QpSolution(x, y, "PrimalInfeasible", r_prim, r_dual, it)
                    sol.certificate = y - y_prev
                    return sol
                if it % check_every == 0 and self._dual_infeasible(prob, x - x_prev):
                    sol = QpSolution(x, y, "DualInfeasible", r_prim, r_dual, it)
                    sol.certificate = x - x_prev
                    return sol
                # residual-ratio rho adaptation
                if it % 100 == 0:
                    denom = max(r_dual, 1e-12)
                    ratio = np.sqrt(r_prim / denom)
                    new_rho = float(np.clip(rho * ratio, *self.rho_bounds))
                    if new_rho > 5 * rho or new_rho < rho / 5:
                        rho = new_rho
                        rho_vec = np.where(eq, 1e3 * rho, rho)
                        L = self._factorize(prob.P, prob.A, rho_vec)

        if status != "Optimal":
            _, x, y = best

        # polishing: exact resolve on the active set, keep it if it improves
        polished = self._polish(prob, x, y)
        if polished is not None:
            xp, yp = polished
            zp = np.clip(prob.A @ xp, prob.l, prob.u)
            rp, rd = self._residuals(prob, xp, yp, zp)
            feas = np.all(prob.A @ xp >= prob.l - 10 * self.tol) and np.all(
                prob.A @ xp <= prob.u + 10 * self.tol
            )
            r_prim, r_dual = self._residuals(prob, x, y, np.clip(prob.A @ x, prob.l, prob.u))
            if feas and rp + rd <= r_prim + r_dual:
                x, y = xp, yp
                r_prim, r_dual = rp, rd
        else:
            r_prim, r_dual = self._residuals(prob, x, y, np.clip(prob.A @ x, prob.l, prob.u))

        if r_prim <= self.tol and r_dual <= self.tol:
            status = "Optimal"
        self._warm = ((n, m), x.copy(), y.copy(), np.clip(prob.A @ x, prob.l, prob.u))
        return QpSolution(
            x, y, status, float(r_prim), float(r_dual), it, objective=float(prob.objective(x))
        )


def solve(prob: QProblem, tol=1e-6, max_iter=20_000) -> QpSolution:
    """One-shot QP solve (fresh solver instance, no warm start)."""
    return AdmmSolver(tol=tol, max_iter=max_iter).solve(prob, warm_start=False)


def solve_lp(c, A, l, u, tol=1e-6, max_iter=20_000) -> QpSolution:
    """min c'z s.t. l <= Az <= u, with vertex polishing."""
    c = np.asarray(c, dtype=float).ravel()
    prob = QProblem(np.zeros((c.size, c.size)), c, A, l, u)
    return solve(prob, tol=tol, max_iter=max_iter)
