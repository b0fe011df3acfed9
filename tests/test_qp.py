"""QP solver tests against an independent active-set enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certikit import qp
from helpers_oracles import active_set_oracle, random_feasible_qp


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
        sol = qp.solve(qp.QProblem(P, q, A, l, u), tol=1e-8)
        assert sol.status == "Optimal"
        _, obj = active_set_oracle(P, q, A, l, u)
        assert abs(sol.objective - obj) <= 1e-5 * (1 + abs(obj))


def test_kkt_residuals_on_optimal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        P, q, A, l, u = random_feasible_qp(rng)
        sol = qp.solve(qp.QProblem(P, q, A, l, u), tol=1e-8)
        assert sol.status == "Optimal"
        assert sol.primal_residual <= 1e-6
        assert sol.dual_residual <= 1e-6


def test_equality_rows():
    # min ||x||^2 s.t. x0 + x1 = 1 -> x = (0.5, 0.5)
    prob = qp.QProblem(
        2 * np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0])
    )
    sol = qp.solve(prob, tol=1e-9)
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


def test_warm_start_speeds_repeat_solve():
    rng = np.random.default_rng(5)
    P, q, A, l, u = random_feasible_qp(rng)
    solver = qp.AdmmSolver(tol=1e-8)
    s1 = solver.solve(qp.QProblem(P, q, A, l, u))
    s2 = solver.solve(qp.QProblem(P, q + 1e-6, A, l, u))
    assert s2.status == "Optimal"
    assert s2.iterations <= s1.iterations


def test_validation_rejects_bad_problems():
    with pytest.raises(ValueError):
        qp.QProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), np.eye(2), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        qp.QProblem(np.eye(1), np.zeros(1), np.eye(1), np.array([1.0]), np.array([0.0]))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=4), st.data())
def test_box_projection_property(target, data):
    # min 1/2||x - t||^2 on [lo, hi] is the clamp of t
    t = np.array(target)
    n = t.size
    lo = np.array([data.draw(st.floats(-3, 0)) for _ in range(n)])
    hi = lo + np.array([data.draw(st.floats(0.5, 3)) for _ in range(n)])
    sol = qp.solve(qp.QProblem(np.eye(n), -t, np.eye(n), lo, hi), tol=1e-9)
    assert sol.status == "Optimal"
    np.testing.assert_allclose(sol.z, np.clip(t, lo, hi), atol=1e-6)
