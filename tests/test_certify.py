"""Spectral checks, SVD clamping, PHS audits, conservation, Zubov residuals."""

import numpy as np
import pytest

from certikit import certify, dyn, geom, nn
from certikit.errors import DimensionMismatch


def test_spectral_radius_known():
    assert certify.spectral_radius(0.5 * np.eye(3)) == pytest.approx(0.5)
    # rotation matrix has radius 1 (complex eigenvalues)
    R = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    assert certify.spectral_radius(R) == pytest.approx(1.0, abs=1e-12)
    assert not certify.is_schur(R)
    assert certify.is_schur(0.999 * R)


def test_spectral_radius_nonsymmetric():
    # companion matrix of z^2 - z - 1: radius = golden ratio
    C = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert certify.spectral_radius(C) == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-12)


def test_spectral_radius_validation():
    with pytest.raises(DimensionMismatch):
        certify.spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError):
        certify.spectral_radius(np.array([[np.nan]]))


def test_spectral_radius_rejects_arrays_that_are_not_2d():
    # a 3-D array would otherwise run batched eigvals
    with pytest.raises(DimensionMismatch):
        certify.spectral_radius(np.ones((1, 1, 1)))
    with pytest.raises(DimensionMismatch):
        certify.is_schur(np.ones((1, 1, 1)))


def test_svd_clamp_band_and_schur():
    rng = np.random.default_rng(0)
    d = 4
    spec = certify.SvdClampSpec(rng.normal(size=d) * 5, 0.1, 0.99)
    s = spec.sigma_diag()
    assert np.all(s > 0.1) and np.all(s < 0.99)
    U, _ = np.linalg.qr(rng.normal(size=(d, d)))
    V, _ = np.linalg.qr(rng.normal(size=(d, d)))
    K = certify.svd_clamp(spec, U, V)
    assert certify.is_schur(K)
    sv = np.linalg.svd(K, compute_uv=False)
    np.testing.assert_allclose(np.sort(sv), np.sort(s), atol=1e-12)


def test_svd_clamp_extreme_raw_values_stay_inside():
    spec = certify.SvdClampSpec(np.array([1e6, -1e6]), 0.2, 0.8)
    s = spec.sigma_diag()
    assert 0.2 - 1e-12 <= s.min() and s.max() <= 0.8 + 1e-12


def test_orthogonality_defect_zero_for_orthogonal():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    assert certify.orthogonality_defect(Q) < 1e-13
    # frozen value for a known non-orthogonal matrix: M = 2I gives
    # ||I - 4I|| + ||I - 4I|| = 6 in spectral norm
    assert certify.orthogonality_defect(2 * np.eye(3)) == pytest.approx(6.0)


def lossless_oscillator():
    return dyn.PhsSystem(
        S=np.array([[0.0, 0.5], [-0.5, 0.0]]),
        L=np.zeros((2, 1)),
        G=np.array([[0.0], [1.0]]),
        P=np.eye(2),
    )


def damped_oscillator(c=0.3):
    return dyn.PhsSystem(
        S=np.array([[0.0, 0.5], [-0.5, 0.0]]),
        L=np.array([[0.0], [np.sqrt(c)]]),
        G=np.array([[0.0], [1.0]]),
        P=np.eye(2),
    )


def test_phs_checks_lossless_pass():
    sys = lossless_oscillator()
    traj = dyn.simulate_ode(dyn.phs_ode(sys), [1.0, 0.0], np.zeros((1000, 1)), 1e-3)
    rep = certify.phs_checks(sys, traj)
    assert rep["passed"]
    assert rep["max_energy_drift"] < 1e-9


def test_phs_checks_damped_dissipates():
    sys = damped_oscillator()
    traj = dyn.simulate_ode(dyn.phs_ode(sys), [1.0, 0.0], np.zeros((1000, 1)), 1e-3)
    rep = certify.phs_checks(sys, traj)
    assert rep["passed"]
    assert rep["energy_final"] < rep["energy_initial"]


def test_phs_checks_flags_broken_skew():
    sys = lossless_oscillator()
    bad = dyn.PhsSystem.__new__(dyn.PhsSystem)
    object.__setattr__(bad, "S", sys.S)
    object.__setattr__(bad, "L", sys.L)
    object.__setattr__(bad, "G", sys.G)
    object.__setattr__(bad, "P", sys.P)
    traj = dyn.simulate_ode(dyn.phs_ode(sys), [1.0, 0.0], np.zeros((10, 1)), 1e-3)
    rep = certify.phs_checks(bad, traj)
    names = {c["name"]: c["passed"] for c in rep["checks"]}
    assert names["j_skew_symmetric"]  # J = S - S' is skew for any S


def test_conservation_check():
    # dx/dt = (x1, -x0): components sum to x1 - x0, not conserved
    ode = dyn.linear_ode(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    pts = np.array([[1.0, 1.0], [2.0, 0.0]])
    rep = certify.conservation_check(ode, pts)
    assert not rep["passed"]
    assert rep["max_defect"] == pytest.approx(2.0)
    # dx/dt = (x1, -x1): components sum to 0 everywhere
    ode2 = dyn.linear_ode(np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert certify.conservation_check(ode2, pts)["passed"]


def test_quadratic_energy_check_rotational_tensor():
    # x+_i quadratic terms with x'Q(x,x) == 0: Q[0] = e1 e2 sym, Q[1] = -e0 e2 sym
    Q = np.zeros((3, 3, 3))
    Q[0, 1, 2] = Q[0, 2, 1] = 0.5
    Q[1, 0, 2] = Q[1, 2, 0] = -0.5
    m = dyn.PolynomialMap(np.zeros((3, 3)), Q)
    rng = np.random.default_rng(2)
    rep = certify.quadratic_energy_check(m, rng.normal(size=(50, 3)))
    assert rep["passed"]
    assert rep["algebraic_defect"] < 1e-15


def test_quadratic_energy_check_detects_violation():
    Q = np.zeros((1, 1, 1))
    Q[0, 0, 0] = 1.0  # e(x) = x^3, not zero
    m = dyn.PolynomialMap(np.zeros((1, 1)), Q)
    rep = certify.quadratic_energy_check(m, np.array([[1.0]]))
    assert not rep["passed"]


def test_zubov_closed_form_residual_zero():
    # dx/dt = -x, Psi = 2x^2, W = 1 - exp(-x^2): residual identically zero
    spec = certify.ZubovSpec(
        lambda x: 1.0 - np.exp(-float(x @ x)),
        lambda x: -x,
        psi=lambda x: 2.0 * float(x @ x),
        grad_W=lambda x: 2.0 * x * np.exp(-float(x @ x)),
    )
    pts = np.linspace(-2, 2, 101)[:, None]
    rep = certify.zubov_residual(spec, pts)
    assert rep["max_residual"] <= 1e-12
    assert rep["passed"]


def test_zubov_flags_range_violation():
    spec = certify.ZubovSpec(lambda x: 2.0, lambda x: -x, grad_W=lambda x: np.zeros_like(x))
    rep = certify.zubov_residual(spec, np.array([[1.0]]))
    assert rep["range_violations"]
    assert not rep["passed"]


def test_zubov_residual_network_w_exact_gradient():
    # W(x) = a.x + b as one identity layer: its gradient is exactly a, so the
    # residual is the closed form's bit for bit, with W(x) from the network
    a, b = np.array([0.3, -0.2]), 0.1
    W = nn.Mlp((nn.Layer(a[None, :], [b], "identity"),))
    spec = certify.ZubovSpec(W, lambda x: -x)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(20, 2))
    rep = certify.zubov_residual(spec, pts)
    exact = np.abs([a @ -x + (x @ x) * (1.0 - nn.forward(W, x)[0]) for x in pts])
    assert rep["max_residual"] == np.max(exact)
    assert rep["mean_residual"] == np.mean(exact)
    assert rep["w_at_origin"] == pytest.approx(b, abs=1e-15)
    assert not rep["origin_ok"]


def test_zubov_residual_rejects_two_output_network_w():
    # a second output row is not dropped: W must be a scalar field
    W = nn.Mlp((nn.Layer([[0.3, -0.2], [5.0, 5.0]], [0.1, 0.0], "identity"),))
    with pytest.raises(ValueError):
        certify.zubov_residual(certify.ZubovSpec(W, lambda x: -x), np.array([[0.5, 0.5]]))


def test_zubov_residual_callable_w_finite_difference_gradient():
    # the closed-form pair above, with W a plain callable: the gradient now
    # comes from central differences, so the residual vanishes up to O(h^2)
    spec = certify.ZubovSpec(
        lambda x: 1.0 - np.exp(-float(x @ x)), lambda x: -x, psi=lambda x: 2.0 * float(x @ x)
    )
    pts = np.linspace(-2, 2, 101)[:, None]
    rep = certify.zubov_residual(spec, pts)
    assert rep["max_residual"] <= 1e-8
    assert rep["passed"]
