"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's own solvers: the QP oracle enumerates
active sets with plain numpy KKT solves, one network-maximization oracle
enumerates ReLU activation patterns with scipy's LP solver, and the other
evaluates a one-hidden-layer net at the vertices of its kink arrangement. The
network Jacobian oracle is plain Python in 50-digit decimal arithmetic.
"""

import decimal
import itertools

import numpy as np
from scipy.optimize import linprog


def active_set_oracle(P, q, A, l, u, feas_tol=1e-7):
    """Global minimum of min 1/2 x'Px + q'x s.t. l <= Ax <= u, P PD.

    Enumerates every candidate active set (subset of rows of size <= n, each
    pinned at its lower or upper bound), solves the equality-constrained KKT
    system, and keeps the best feasible candidate. Every feasible candidate
    upper-bounds the optimum and the true active set is enumerated, so the
    minimum over candidates equals the optimum. Returns (x, objective) or
    (None, inf) when no candidate is feasible.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    q = np.asarray(q, dtype=float).ravel()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    l = np.asarray(l, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    n, m = q.size, A.shape[0]
    eps = 1e-10  # quasi-definite regularization keeps every KKT solvable

    best_obj, best_x = np.inf, None

    def consider_batch(X):
        nonlocal best_obj, best_x
        AX = X @ A.T
        feas = np.all(AX >= l - feas_tol, axis=1) & np.all(AX <= u + feas_tol, axis=1)
        if not feas.any():
            return
        Xf = X[feas]
        objs = 0.5 * np.einsum("bi,ij,bj->b", Xf, P, Xf) + Xf @ q
        i = int(np.argmin(objs))
        if objs[i] < best_obj:
            best_obj, best_x = float(objs[i]), Xf[i].copy()

    # unconstrained minimizer
    consider_batch(np.linalg.solve(P + eps * np.eye(n), -q)[None, :])

    for k in range(1, min(n, m) + 1):
        combos = np.array(list(itertools.combinations(range(m), k)))
        A_I = A[combos]  # (N, k, n)
        N = combos.shape[0]
        KKT = np.zeros((N, n + k, n + k))
        KKT[:, :n, :n] = P + eps * np.eye(n)
        KKT[:, :n, n:] = A_I.transpose(0, 2, 1)
        KKT[:, n:, :n] = A_I
        KKT[:, n:, n:] = -eps * np.eye(k)
        for sides in itertools.product((0, 1), repeat=k):
            sides = np.array(sides, dtype=bool)
            b = np.where(sides, u[combos], l[combos])  # (N, k)
            ok = np.all(np.isfinite(b), axis=1)
            if not ok.any():
                continue
            rhs = np.concatenate(
                [np.tile(-q, (int(ok.sum()), 1)), b[ok]], axis=1
            )
            sol = np.linalg.solve(KKT[ok], rhs[:, :, None])[:, :n, 0]
            consider_batch(sol)
    return best_x, best_obj


def pattern_enumeration_max(net, box):
    """Exact max of a scalar-output ReLU net over a box by enumerating every
    activation pattern as an LP (scipy linprog). Exponential; tiny nets only."""
    relu_sizes = [
        layer.b.size for layer in net.layers if layer.activation == "relu"
    ]
    n = box.dim
    best = -np.inf
    best_x = None
    for pattern in itertools.product(
        *[itertools.product([0, 1], repeat=s) for s in relu_sizes]
    ):
        W = np.eye(n)
        b = np.zeros(n)
        cons_A, cons_b = [], []
        pi = 0
        for layer in net.layers:
            W2 = layer.W @ W
            b2 = layer.W @ b + layer.b
            if layer.activation == "relu":
                pat = np.array(pattern[pi])
                pi += 1
                for j, on in enumerate(pat):
                    if on:
                        cons_A.append(-W2[j])
                        cons_b.append(b2[j])
                    else:
                        cons_A.append(W2[j])
                        cons_b.append(-b2[j])
                W = W2 * pat[:, None]
                b = b2 * pat
            elif layer.activation == "identity":
                W, b = W2, b2
            else:
                raise ValueError(f"oracle only handles relu/identity, got {layer.activation}")
        res = linprog(
            -W[0],
            A_ub=np.array(cons_A) if cons_A else None,
            b_ub=np.array(cons_b) if cons_b else None,
            bounds=list(zip(box.lower, box.upper)),
            method="highs",
        )
        if res.status == 0:
            val = -res.fun + b[0]
            if val > best:
                best, best_x = val, np.asarray(res.x)
    return best, best_x


def arrangement_vertex_max(net, box):
    """Exact max of a one-hidden-layer ReLU net with identity scalar output
    over a box of dimension 1 or 2, with a plain numpy forward pass.

    The net is linear on every cell of the arrangement of its kinks
    (w_j.x + b_j = 0) and the box faces, so its maximum sits at a cell
    vertex: a box corner, a kink on a box edge, or two kinks crossing inside
    the box. Returns (max, argmax).
    """
    (W1, b1, act1), (W2, b2, act2) = [(layer.W, layer.b, layer.activation) for layer in net.layers]
    lo, hi = np.asarray(box.lower, dtype=float), np.asarray(box.upper, dtype=float)
    n = lo.size
    if act1 != "relu" or act2 != "identity" or W2.shape[0] != 1 or n > 2:
        raise ValueError("oracle handles relu -> identity nets with 1 output and n_in <= 2")
    pts = [np.array(c, dtype=float) for c in itertools.product(*zip(lo, hi))]
    for j, (w, c0) in enumerate(zip(W1, b1)):
        if n == 1:
            if w[0] != 0:
                pts.append(np.array([-c0 / w[0]]))
            continue
        for i, o in ((0, 1), (1, 0)):  # the kink on the edges x_i = lo_i and x_i = hi_i
            if w[o] != 0:
                for c in (lo[i], hi[i]):
                    p = np.empty(2)
                    p[i], p[o] = c, -(c0 + w[i] * c) / w[o]
                    pts.append(p)
        for k in range(j + 1, b1.size):
            M = W1[[j, k]]
            if np.linalg.det(M) != 0:
                pts.append(np.linalg.solve(M, -b1[[j, k]]))
    X = np.array(pts)
    X = X[np.all((X >= lo) & (X <= hi), axis=1)]
    vals = (np.maximum(X @ W1.T + b1, 0.0) @ W2.T + b2)[:, 0]
    i = int(np.argmax(vals))
    return float(vals[i]), X[i]


def lp_feasible(A, l, u):
    """Independent feasibility check of {x : l <= Ax <= u} via scipy."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[1]
    rows_ub, rhs_ub = [], []
    for i in range(A.shape[0]):
        if np.isfinite(u[i]):
            rows_ub.append(A[i])
            rhs_ub.append(u[i])
        if np.isfinite(l[i]):
            rows_ub.append(-A[i])
            rhs_ub.append(-l[i])
    res = linprog(
        np.zeros(n),
        A_ub=np.array(rows_ub),
        b_ub=np.array(rhs_ub),
        bounds=[(None, None)] * n,
        method="highs",
    )
    return res.status == 0


def random_feasible_qp(rng, n_max=6, m_max=10):
    """Random PD QP guaranteed feasible (bounds straddle A x0)."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(n, m_max + 1))
    M = rng.normal(size=(n, n))
    P = M @ M.T + 0.1 * np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    mid = A @ x0
    l = mid - rng.uniform(0.1, 1.5, m)
    u = mid + rng.uniform(0.1, 1.5, m)
    # sprinkle one-sided rows
    for i in range(m):
        p = rng.random()
        if p < 0.15:
            l[i] = -np.inf
        elif p < 0.3:
            u[i] = np.inf
    return P, q, A, l, u


def decimal_jacobian(layers, x, digits=50):
    """Jacobian of an MLP at x in `digits`-digit decimal arithmetic, as floats.

    layers: a sequence of (W, b, activation) with W and b nested lists of
    floats; every float converts to Decimal exactly. The chain rule runs
    layer by layer on the decimal values: relu' = 1 if z > 0 else 0,
    sigmoid' = s(1 - s), softplus' = 1 / (1 + e^-z), identity' = 1.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        z = [D(float(v)) for v in x]
        J = [[D(1) if i == j else D(0) for j in range(len(z))] for i in range(len(z))]
        for W, b, act in layers:
            W = [[D(float(w)) for w in row] for row in W]
            pre = [sum((w * v for w, v in zip(row, z)), D(0)) + D(float(bi)) for row, bi in zip(W, b)]
            WJ = [[sum((row[k] * J[k][j] for k in range(len(z))), D(0)) for j in range(len(J[0]))] for row in W]
            if act == "relu":
                z = [max(p, D(0)) for p in pre]
                slope = [D(1) if p > 0 else D(0) for p in pre]
            elif act == "sigmoid":
                z = [1 / (1 + (-p).exp()) for p in pre]
                slope = [s * (1 - s) for s in z]
            elif act == "softplus":
                z = [(1 + p.exp()).ln() for p in pre]
                slope = [1 / (1 + (-p).exp()) for p in pre]
            elif act == "identity":
                z = pre
                slope = [D(1)] * len(pre)
            else:
                raise ValueError(f"unknown activation {act}")
            J = [[slope[i] * WJ[i][j] for j in range(len(WJ[0]))] for i in range(len(WJ))]
        return [[float(v) for v in row] for row in J]
