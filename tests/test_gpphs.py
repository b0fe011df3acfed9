"""Structured PHS kernel: cross-Hessian, Gram PSD, likelihood, posterior."""

import numpy as np
import pytest

from certikit import gpphs
from certikit.errors import CholeskyFail, InsufficientData


def default_params(lam=1.0, d=2):
    return gpphs.PhsKernelParams(
        1.0,
        np.full(d, lam),
        np.ones(d * (d - 1) // 2),
        np.zeros(d * (d + 1) // 2),
        np.array([]),
    )


def test_pi_hessian_identity_at_coincident_points():
    lam = np.ones(2)
    Pi = gpphs.pi_hessian(np.zeros(2), np.zeros(2), lam)
    np.testing.assert_allclose(Pi, 2.0 * np.eye(2), atol=1e-14)


def test_pi_hessian_matches_finite_differences():
    rng = np.random.default_rng(0)
    lam = np.array([0.8, 1.7, 1.2])
    x, x2 = rng.normal(size=3), rng.normal(size=3)

    def k_se(a, b):
        return np.exp(-np.sum((a - b) ** 2 / lam))

    h = 1e-4
    fd = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            ei, ej = np.zeros(3), np.zeros(3)
            ei[i], ej[j] = h, h
            fd[i, j] = (
                k_se(x + ei, x2 + ej)
                - k_se(x + ei, x2 - ej)
                - k_se(x - ei, x2 + ej)
                + k_se(x - ei, x2 - ej)
            ) / (4 * h * h)
    np.testing.assert_allclose(gpphs.pi_hessian(x, x2, lam), fd, atol=1e-6)


def test_pi_hessian_symmetry_and_scaling():
    rng = np.random.default_rng(1)
    lam = np.array([1.0, 2.0])
    x, x2 = rng.normal(size=2), rng.normal(size=2)
    np.testing.assert_allclose(
        gpphs.pi_hessian(x, x2, lam), gpphs.pi_hessian(x2, x, lam).T, atol=1e-14
    )
    # at coincident points, scaling lambda by c scales Pi by 1/c
    c = 3.0
    np.testing.assert_allclose(
        gpphs.pi_hessian(x, x, c * lam), gpphs.pi_hessian(x, x, lam) / c, atol=1e-14
    )


def test_single_point_gram_block_formula():
    p = default_params(lam=2.0)
    K = gpphs.gram(p, np.zeros((1, 2)), noise_var=0.0)
    JR = p.jr_matrix()
    expected = p.sigma_f**2 * JR @ (2.0 * np.diag(1.0 / p.lengthscales)) @ JR.T
    np.testing.assert_allclose(K, expected + gpphs.JITTER * np.eye(2), atol=1e-12)


def test_gram_symmetric_psd_and_noise_shift():
    rng = np.random.default_rng(2)
    p = default_params(lam=1.5)
    X = rng.normal(size=(6, 2))
    K0 = gpphs.gram(p, X, noise_var=0.0)
    assert np.max(np.abs(K0 - K0.T)) <= 1e-12
    e0 = np.linalg.eigvalsh(K0)
    assert e0.min() > -1e-10
    K1 = gpphs.gram(p, X, noise_var=0.3)
    np.testing.assert_allclose(np.linalg.eigvalsh(K1), e0 + 0.3, atol=1e-9)


def test_params_validation():
    with pytest.raises(ValueError):
        gpphs.PhsKernelParams(-1.0, np.ones(2), np.ones(1), np.zeros(3), np.array([]))
    with pytest.raises(ValueError):
        gpphs.PhsKernelParams(1.0, np.array([1.0, -1.0]), np.ones(1), np.zeros(3), np.array([]))
    with pytest.raises(ValueError):
        gpphs.PhsKernelParams(1.0, np.ones(2), np.ones(2), np.zeros(3), np.array([]))


def make_dataset(rng, n=15, noise=0.0):
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    X = rng.uniform(-1.5, 1.5, size=(n, 2))
    dX = X @ J.T
    return gpphs.GpPhsDataset(X, dX, np.zeros((n, 0)), noise)


def test_nlml_prefers_plausible_params():
    rng = np.random.default_rng(3)
    data = make_dataset(rng, n=20, noise=1e-4)
    p = default_params(lam=1.0)
    base = gpphs.nlml(p, data)
    worse = gpphs.nlml(default_params(lam=50.0), data)
    assert base < worse


def test_nlml_empty_dataset():
    data = gpphs.GpPhsDataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 0)), 0.0)
    with pytest.raises(InsufficientData):
        gpphs.nlml(default_params(), data)


def test_posterior_empty_dataset():
    data = gpphs.GpPhsDataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 0)), 0.0)
    with pytest.raises(InsufficientData):
        gpphs.posterior(default_params(), data, np.zeros((1, 2)))


def test_posterior_interpolates_at_zero_noise():
    rng = np.random.default_rng(4)
    data = make_dataset(rng, n=20, noise=0.0)
    p = default_params(lam=0.5)
    mean, _ = gpphs.posterior(p, data, data.states)
    assert np.max(np.abs(mean - data.derivs)) <= 1e-6


def test_posterior_variance_smaller_near_data():
    rng = np.random.default_rng(5)
    data = make_dataset(rng, n=20, noise=0.0)
    p = default_params(lam=0.5)
    near = data.states[0]
    far = near + 5.0 * np.sqrt(p.lengthscales)
    _, covs = gpphs.posterior(p, data, np.vstack([near, far]))
    assert np.trace(covs[0]) <= np.trace(covs[1]) + 1e-9


def test_fit_improves_nlml():
    rng = np.random.default_rng(6)
    data = make_dataset(rng, n=15, noise=1e-4)
    init = default_params(lam=4.0)
    fitted = gpphs.fit(data, init, budget=120)
    assert gpphs.nlml(fitted, data) <= gpphs.nlml(init, data) + 1e-9


def test_derivative_filter_linear_exact():
    t = np.linspace(0, 1, 11)
    X = np.column_stack([2.0 * t, -3.0 * t])
    dX = gpphs.derivative_filter(t, X)
    np.testing.assert_allclose(dX, np.tile([2.0, -3.0], (11, 1)), atol=1e-12)


def test_params_roundtrip(tmp_path):
    p = gpphs.PhsKernelParams(
        1.3, np.array([0.7, 2.0]), np.array([0.4]), np.array([1.0, 0.2, 0.9]), np.array([1.0, 0.0])
    )
    path = tmp_path / "params.json"
    gpphs.save_params(p, path)
    p2 = gpphs.load_params(path)
    np.testing.assert_allclose(p2.lengthscales, p.lengthscales)
    np.testing.assert_allclose(p2.jr_matrix(), p.jr_matrix())
    np.testing.assert_allclose(p2.g_matrix(), p.g_matrix())


def test_mean_adjustment_uses_inputs():
    rng = np.random.default_rng(7)
    d = 2
    X = rng.normal(size=(5, d))
    U = rng.normal(size=(5, 1))
    G = np.array([[0.0], [1.0]])
    dX = X @ np.array([[0.0, 1.0], [-1.0, 0.0]]).T + U @ G.T
    p = gpphs.PhsKernelParams(
        1.0, np.ones(d), np.ones(1), np.zeros(3), G.ravel()
    )
    data = gpphs.GpPhsDataset(X, dX, U, 1e-6)
    y = gpphs._mean_adjusted(p, data)
    expected = (dX - U @ G.T).ravel()
    np.testing.assert_allclose(y, expected, atol=1e-12)
