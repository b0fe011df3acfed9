"""QP solver tests against an independent active-set enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from certikit import qp
from helpers_oracles import active_set_oracle, exact_qp_oracle, lp_feasible, random_feasible_qp


def test_known_box_qp():
    # min 1/2||x||^2 - 1'x on [0, 0.5]^2 -> x = (0.5, 0.5), obj = -0.75
    prob = qp.QProblem(np.eye(2), -np.ones(2), np.eye(2), np.zeros(2), 0.5 * np.ones(2))
    sol = qp.solve(prob)
    assert sol.status == "Optimal"
    np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-7)
    assert abs(sol.objective - (-0.75)) < 1e-8


def test_matches_active_set_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        P, q, A, l, u = random_feasible_qp(rng, n_max=5, m_max=8)
        sol = qp.solve(qp.QProblem(P, q, A, l, u))
        assert sol.status == "Optimal"
        _, obj = active_set_oracle(P, q, A, l, u)
        assert abs(sol.objective - obj) <= 1e-5 * (1 + abs(obj))


def test_kkt_residuals_on_optimal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        P, q, A, l, u = random_feasible_qp(rng)
        sol = qp.solve(qp.QProblem(P, q, A, l, u))
        assert sol.status == "Optimal"
        assert sol.primal_residual <= 1e-6
        assert sol.dual_residual <= 1e-6


def test_equality_rows():
    # min ||x||^2 s.t. x0 + x1 = 1 -> x = (0.5, 0.5)
    prob = qp.QProblem(
        2 * np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0])
    )
    sol = qp.solve(prob)
    assert sol.status == "Optimal"
    np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-7)


def test_primal_infeasible_certificate():
    # x >= 2 and x <= 1 simultaneously
    prob = qp.QProblem(
        np.eye(1),
        np.zeros(1),
        np.array([[1.0], [1.0]]),
        np.array([2.0, -np.inf]),
        np.array([np.inf, 1.0]),
    )
    sol = qp.solve(prob)
    assert sol.status == "PrimalInfeasible"
    y = sol.certificate
    assert y is not None
    scale = np.max(np.abs(y))
    assert scale > 0
    # certificate condition: A'y ~ 0 and the support value is negative
    assert abs(prob.A.T @ y)[0] <= 1e-5 * scale


def test_dual_infeasible_unbounded_lp():
    prob = qp.QProblem(
        np.zeros((1, 1)), np.array([-1.0]), np.array([[1.0]]), np.array([0.0]), np.array([np.inf])
    )
    sol = qp.solve(prob)
    assert sol.status == "DualInfeasible"
    d = sol.certificate
    assert d is not None and prob.q @ d < 0


def _box_halfspace_qp(rng, kind):
    """min 1/2 x'Px + q'x on a box cut by 1-3 random halfspaces (some cut the
    box away). kind 1 adds degenerate rows: one through a box corner, its
    duplicate and a scaled copy; kind 2 puts the unconstrained minimiser on a
    box face, so an active row has a zero multiplier."""
    n = int(rng.integers(2, 5))
    M = rng.normal(size=(n, n))
    P = M @ M.T + 0.1 * np.eye(n)
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 2.0, n)
    k = int(rng.integers(1, 4))
    H = rng.normal(size=(k, n))
    b = H @ rng.uniform(lo, hi) + rng.uniform(-0.5, 1.0, k)
    q = 3.0 * rng.normal(size=n)
    if kind == 1:
        b[0] = H[0] @ np.where(rng.random(n) < 0.5, lo, hi)
        H = np.vstack([H, H[0], 2.0 * H[0]])
        b = np.concatenate([b, [b[0], 2.0 * b[0]]])
    if kind == 2:
        x_face = rng.uniform(lo, hi)
        x_face[0] = hi[0]
        q = -P @ x_face
    A = np.vstack([np.eye(n), H])
    return P, q, A, np.concatenate([lo, np.full(b.size, -np.inf)]), np.concatenate([hi, b])


def test_box_halfspace_battery_answers_are_certified():
    rng = np.random.default_rng(0)
    statuses = set()
    for trial in range(300):
        P, q, A, l, u = _box_halfspace_qp(rng, trial % 3)
        sol = qp.solve(qp.QProblem(P, q, A, l, u))
        statuses.add(sol.status)
        assert sol.status in ("Optimal", "PrimalInfeasible")
        assert lp_feasible(A, l, u) == (sol.status == "Optimal")
        if sol.status == "PrimalInfeasible":
            y = sol.certificate
            assert np.max(np.abs(A.T @ y)) <= 1e-12 * np.max(np.abs(A).T @ np.abs(y))
            assert np.where(y > 0, u, np.where(y < 0, l, 0.0)) @ y < 0
            continue
        z, y = sol.z, sol.dual
        Az = A @ z
        # feasible to the rounding of the KKT solve, whose error scales with
        # the whole solution (z, y); kind 1's nearly parallel rows reach |y| = 1e3
        slack = 1e-12 * (1 + np.abs(A).sum(1) * max(np.max(np.abs(z)), np.max(np.abs(y))))
        assert np.all(Az >= l - slack) and np.all(Az <= u + slack)
        # exact to rounding by weak duality: y has the signs of the rows'
        # finite bounds, so the dual value g(y) is a lower bound
        assert np.all((y <= 0) | np.isfinite(u)) and np.all((y >= 0) | np.isfinite(l))
        r = q + A.T @ y
        dual = -0.5 * r @ np.linalg.solve(P, r) - np.where(y > 0, u, np.where(y < 0, l, 0.0)) @ y
        assert sol.objective - dual <= 1e-10 * (1 + abs(sol.objective))
        # the oracle keeps candidates up to 1e-7 outside the rows and shifts
        # each KKT solve by its 1e-10 regularisation, which moves its objective
        # by up to about 1e-7 |y|_1 + 1e-10 |y|^2 (7e-5 here, at |y| = 1e3)
        _, obj = active_set_oracle(P, q, A, l, u)
        assert abs(sol.objective - obj) <= 1e-5 * (1 + abs(obj)) + 1e-10 * (y @ y)
    assert statuses == {"Optimal", "PrimalInfeasible"}


def test_box_halfspace_answers_match_the_exact_oracle():
    # 300 battery problems with n <= 3 against their optimum in rational
    # arithmetic on the same floats
    rng = np.random.default_rng(0)
    seen = []
    trial = 0
    while len(seen) < 300:
        kind = trial % 3
        trial += 1
        P, q, A, l, u = _box_halfspace_qp(rng, kind)
        if q.size > 3:
            continue
        sol = qp.solve(qp.QProblem(P, q, A, l, u))
        x, obj = exact_qp_oracle(P, q, A, l, u)
        seen.append((sol.status, x is None))
        if sol.status == "PrimalInfeasible":
            assert x is None  # a Farkas certificate holds exactly
            continue
        assert sol.status == "Optimal"
        z, y = sol.z, sol.dual
        if x is None:
            # kind 1's row through a box corner has a rounded bound, which can
            # cut the feasible corner off exactly: z may then miss it by rounding
            assert kind == 1
            slack = 1e-12 * (1 + np.abs(A).sum(1) * max(np.max(np.abs(z)), np.max(np.abs(y))))
            assert np.all(A @ z >= l - slack) and np.all(A @ z <= u + slack)
            continue
        # the KKT solve's rounding reaches the objective through the multipliers
        # (kind 1's nearly parallel rows reach |y| = 1e3)
        tol = 1e-12 * (1 + abs(float(obj)) + np.abs(y).sum())
        assert abs(sol.objective - float(obj)) <= tol
        assert np.max(np.abs(z - np.array(x, dtype=float))) <= tol
    assert {s for s, _ in seen} == {"Optimal", "PrimalInfeasible"}
    assert seen.count(("Optimal", False)) >= 250


def test_ill_conditioned_p_refines_the_kkt_solve():
    # P with eigenvalues 1e-6 and 1e2: the first least-squares KKT solve on
    # the right active set misses the stationarity bound, and one step of
    # iterative refinement on the same active set meets it
    rng = np.random.default_rng(34)
    P, q, A, l, u = random_feasible_qp(rng, n_max=8, m_max=14)
    _, V = np.linalg.eigh(P)
    P = V @ np.diag([1e-6, 1e2]) @ V.T
    prob = qp.QProblem(0.5 * (P + P.T), q, A, l, u)
    sol = qp.solve(prob)
    assert sol.status == "Optimal" and sol.iterations == 2
    assert sol.dual_residual <= 1e-13
    x, _ = active_set_oracle(prob.P, q, A, l, u)
    np.testing.assert_allclose(sol.z, x, atol=1e-8)


def test_zero_multipliers_with_every_stationarity_term_near_zero():
    # min 1/2 z0^2 s.t. z1 - z0 = 0.25: the optimum (0, 0.25) has multiplier 0,
    # and P weighs only z0 = 0, so the per-gradient bound on P z + q + A'y is
    # about |y|; the refined answer meets the normwise bound of the KKT solve
    prob = qp.QProblem(np.diag([1.0, 0.0]), np.zeros(2), np.array([[-1.0, 1.0]]), np.array([0.25]), np.array([0.25]))
    sol = qp.solve(prob)
    assert sol.status == "Optimal" and sol.iterations == 2
    np.testing.assert_allclose(sol.z, [0.0, 0.25], atol=1e-15)
    assert abs(sol.dual[0]) <= 1e-15


def _lp_over_unit_box(c, rows, rhs):
    """min c'z subject to -1 <= z <= 1 and rows z <= rhs, as a QP with P = 0."""
    n = len(c)
    A = np.vstack([np.eye(n), rows])
    l = np.concatenate([-np.ones(n), np.full(len(rows), -np.inf)])
    return qp.QProblem(np.zeros((n, n)), c, A, l, np.concatenate([np.ones(n), rhs]))


@pytest.mark.parametrize(
    "c, rows, rhs, z_star, added, dropped",
    [
        # the first active set is x - y <= 0, y <= 0 and -x - y <= 0 (rows 2-4
        # of A); y <= 0 gets a wrong-signed multiplier and is dropped
        ([2.0, 2.0], [[1, -1], [0, 1], [-1, -1], [0, -1]], [0, 0, 0, 0], [0.0, 0.0], [], [3]),
        # the first active set is (1, -1, -1) z <= 2 and (2, -1, 2) z <= 0
        # (rows 3 and 8); its answer violates -2y <= 0 (row 5), which is added
        (
            [-1.0, 1.0, 1.0],
            [[1, -1, -1], [1, 0, 1], [0, -2, 0], [0, 1, 1], [-1, -1, -1], [2, -1, 2]],
            [2, 1, 0, 1, 0, 0],
            [1.0, 0.0, -1.0],
            [5],
            [],
        ),
    ],
    ids=["drop", "add"],
)
def test_active_set_add_and_drop_steps(monkeypatch, c, rows, rhs, z_star, added, dropped):
    # LPs whose first KKT answer fails its check: one row is dropped or added,
    # and the second KKT solve is the optimum that HiGHS finds
    sets = []
    kkt = qp._kkt

    def spy(prob, act, b, refine):
        sets.append((act.copy(), refine))
        return kkt(prob, act, b, refine)

    monkeypatch.setattr(qp, "_kkt", spy)
    prob = _lp_over_unit_box(np.array(c), np.array(rows, dtype=float), np.array(rhs, dtype=float))
    sol = qp.solve(prob)
    assert sol.status == "Optimal" and sol.iterations == 2
    (first, r1), (second, r2) = sets
    assert not r1 and not r2
    assert np.flatnonzero(second & ~first).tolist() == added
    assert np.flatnonzero(first & ~second).tolist() == dropped
    ref = linprog(c, A_ub=rows, b_ub=rhs, bounds=[(-1.0, 1.0)] * len(c), method="highs")
    assert ref.status == 0
    np.testing.assert_allclose(sol.z, ref.x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sol.z, z_star, rtol=0, atol=1e-12)
    assert sol.objective == pytest.approx(ref.fun, abs=1e-12)


def test_validation_rejects_bad_problems():
    with pytest.raises(ValueError):
        qp.QProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), np.eye(2), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        qp.QProblem(np.eye(1), np.zeros(1), np.eye(1), np.array([1.0]), np.array([0.0]))


def _one_row_qp():
    # min 1/2||x||^2 - (1, 1)'x s.t. -1 <= x0 + x1 <= 1
    return np.eye(2), -np.ones(2), np.array([[1.0, 1.0]]), np.array([-1.0]), np.array([1.0])


@pytest.mark.parametrize("name", ["P", "q", "A"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_rejected(name, bad):
    args = dict(zip("PqAlu", _one_row_qp()))
    args[name].flat[0] = bad
    with pytest.raises(ValueError):
        qp.QProblem(**args)


@pytest.mark.parametrize("name", ["l", "u"])
def test_nan_bound_is_rejected(name):
    args = dict(zip("PqAlu", _one_row_qp()))
    args[name][0] = np.nan
    with pytest.raises(ValueError):
        qp.QProblem(**args)


def test_infinite_bounds_stay_legal():
    P, q, A, _, _ = _one_row_qp()
    sol = qp.solve(qp.QProblem(P, q, A, np.array([-np.inf]), np.array([np.inf])))
    assert sol.status == "Optimal"
    np.testing.assert_allclose(sol.z, [1.0, 1.0], atol=1e-12)


def test_nan_cost_without_bounds_is_rejected():
    # with no finite bound, a NaN cost must not come back as DualInfeasible
    # with the certificate [nan, nan]
    with pytest.raises(ValueError):
        qp.QProblem(np.zeros((2, 2)), np.full(2, np.nan), np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    prob = qp.QProblem(np.zeros((2, 2)), -np.ones(2), np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    assert not qp._is_ray(prob, np.full(2, np.nan))
    assert qp._is_ray(prob, np.ones(2))


def test_cbf_shaped_answers_are_the_lstsq_kkt_solution():
    # the filters' QPs (P = I, an input box plus one to three lower-bounded
    # halfspaces, as CbfFilter builds them): the answer is bit for bit the
    # lstsq solution of the KKT system on the rows with a nonzero multiplier
    rng = np.random.default_rng(7)
    n_active = 0
    for _ in range(300):
        m = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        u_max = rng.uniform(0.5, 3.0)
        G = rng.normal(size=(k, m))
        b = G @ rng.uniform(-0.9 * u_max, 0.9 * u_max, m) - rng.uniform(0.0, 0.5, k)
        A = np.vstack([np.eye(m), G])
        l = np.concatenate([np.full(m, -u_max), b])
        u = np.concatenate([np.full(m, u_max), np.full(k, np.inf)])
        q = -rng.uniform(-2.0 * u_max, 2.0 * u_max, m)
        sol = qp.solve(qp.QProblem(np.eye(m), q, A, l, u))
        assert sol.status == "Optimal"
        act = sol.dual != 0
        n_active += act.any()
        Aa = A[act]
        KKT = np.block([[np.eye(m), Aa.T], [Aa, np.zeros((Aa.shape[0],) * 2)]])
        rhs = np.concatenate([-q, np.where(sol.dual > 0, u, l)[act]])
        z = np.linalg.lstsq(KKT, rhs, rcond=None)[0][:m]
        assert z.tobytes() == sol.z.tobytes()
    assert n_active > 200


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=4), st.data())
def test_box_projection_property(target, data):
    # min 1/2||x - t||^2 on [lo, hi] is the clamp of t
    t = np.array(target)
    n = t.size
    lo = np.array([data.draw(st.floats(-3, 0)) for _ in range(n)])
    hi = lo + np.array([data.draw(st.floats(0.5, 3)) for _ in range(n)])
    sol = qp.solve(qp.QProblem(np.eye(n), -t, np.eye(n), lo, hi))
    assert sol.status == "Optimal"
    np.testing.assert_allclose(sol.z, np.clip(t, lo, hi), atol=1e-6)
