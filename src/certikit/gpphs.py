"""Gaussian-process regression with a port-Hamiltonian structured kernel.

The vector field prior is f(x) = J_R grad H(x) + G u with constant J (skew),
R = LL' (PSD) and G, and a squared-exponential prior on H. Closure of GPs
under linear operators gives the matrix kernel

    k_phs(x, x') = sigma_f^2 * J_R Pi(x, x') J_R',

where Pi is the cross-Hessian of k_se(z, z') = exp(-sum_d (z_d - z'_d)^2 / lambda_d)
taken as d^2/dz_i dz'_j; this convention is the one that makes the Gram matrix
positive semidefinite for gradient-structured fields.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import CholeskyFail, InsufficientData

__all__ = [
    "PhsKernelParams",
    "GpPhsDataset",
    "pi_hessian",
    "gram",
    "nlml",
    "fit",
    "posterior",
    "derivative_filter",
    "dataset_from_trajectory",
    "params_to_dict",
    "params_from_dict",
]

JITTER = 1e-10


@dataclass(frozen=True)
class PhsKernelParams:
    """Hyperparameters: signal scale, lengthscales, and the constant J, L, G."""

    sigma_f: float
    lengthscales: np.ndarray  # d positive scalars
    phi_j: np.ndarray  # strictly-upper-triangle entries of J, row-major
    phi_r: np.ndarray  # lower-triangle entries of L (incl. diagonal), row-major
    phi_g: np.ndarray  # d*m entries of G, row-major (may be empty)

    def __post_init__(self):
        lam = np.asarray(self.lengthscales, dtype=float).ravel()
        if self.sigma_f <= 0:
            raise ValueError("sigma_f must be > 0")
        if np.any(lam <= 0):
            raise ValueError("all lengthscales must be > 0")
        object.__setattr__(self, "lengthscales", lam)
        object.__setattr__(self, "phi_j", np.asarray(self.phi_j, dtype=float).ravel())
        object.__setattr__(self, "phi_r", np.asarray(self.phi_r, dtype=float).ravel())
        object.__setattr__(self, "phi_g", np.asarray(self.phi_g, dtype=float).ravel())
        d = lam.size
        if self.phi_j.size != d * (d - 1) // 2:
            raise ValueError("phi_j must hold d(d-1)/2 entries")
        if self.phi_r.size != d * (d + 1) // 2:
            raise ValueError("phi_r must hold d(d+1)/2 entries")
        if self.phi_g.size % d != 0:
            raise ValueError("phi_g size must be a multiple of d")

    @property
    def dim(self):
        return self.lengthscales.size

    @property
    def input_dim(self):
        return self.phi_g.size // self.dim

    def j_matrix(self):
        d = self.dim
        J = np.zeros((d, d))
        iu = np.triu_indices(d, k=1)
        J[iu] = self.phi_j
        return J - J.T

    def r_matrix(self):
        d = self.dim
        L = np.zeros((d, d))
        il = np.tril_indices(d)
        L[il] = self.phi_r
        return L @ L.T

    def g_matrix(self):
        return self.phi_g.reshape(self.dim, self.input_dim)

    def jr_matrix(self):
        return self.j_matrix() - self.r_matrix()


@dataclass(frozen=True)
class GpPhsDataset:
    states: np.ndarray  # N x d
    derivs: np.ndarray  # N x d
    inputs: np.ndarray  # N x m (m may be 0)
    noise_var: float = 0.0

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.states, dtype=float))
        dX = np.atleast_2d(np.asarray(self.derivs, dtype=float))
        U = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        if U.size == 0:
            U = np.zeros((X.shape[0], 0))
        if X.shape != dX.shape or U.shape[0] != X.shape[0]:
            raise ValueError("states, derivs, inputs must share the row count")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(dX)) and np.all(np.isfinite(U))):
            raise ValueError("dataset must be finite")
        if self.noise_var < 0:
            raise ValueError("noise_var must be >= 0")
        object.__setattr__(self, "states", X)
        object.__setattr__(self, "derivs", dX)
        object.__setattr__(self, "inputs", U)

    @property
    def n(self):
        return self.states.shape[0]

    @property
    def dim(self):
        return self.states.shape[1]


def pi_hessian(x, x2, lengthscales):
    """Cross-Hessian d^2/dz_i dz'_j of exp(-sum (z_d - z'_d)^2 / lambda_d)."""
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    lam = np.asarray(lengthscales, dtype=float).ravel()
    if x.size != x2.size or x.size != lam.size:
        raise ValueError("dimension mismatch in pi_hessian")
    r = x - x2
    k_se = float(np.exp(-np.sum(r * r / lam)))
    inv = 1.0 / lam
    return k_se * (2.0 * np.diag(inv) - 4.0 * np.outer(inv * r, inv * r))


def k_phs(params: PhsKernelParams, x, x2):
    """One d x d kernel block sigma_f^2 J_R Pi(x,x') J_R'."""
    JR = params.jr_matrix()
    return params.sigma_f**2 * JR @ pi_hessian(x, x2, params.lengthscales) @ JR.T


def gram(params: PhsKernelParams, X, noise_var=0.0):
    """Nd x Nd block Gram with noise on the diagonal and a fixed jitter.

    Positive semidefiniteness is validated by attempting a Cholesky
    factorization; failure raises CholeskyFail with a jitter hint.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, d = X.shape
    K = np.empty((N * d, N * d))
    for i in range(N):
        for j in range(i, N):
            block = k_phs(params, X[i], X[j])
            K[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
            if j > i:
                K[j * d : (j + 1) * d, i * d : (i + 1) * d] = block.T
    K = 0.5 * (K + K.T)
    K += (noise_var + JITTER) * np.eye(N * d)
    try:
        np.linalg.cholesky(K)
    except np.linalg.LinAlgError as e:
        raise CholeskyFail(
            "Gram matrix not numerically PSD; increase noise_var or jitter"
        ) from e
    return K


def _mean_adjusted(params: PhsKernelParams, data: GpPhsDataset):
    """Vectorized targets with the input contribution G u removed per row."""
    dX0 = data.derivs.copy()
    if data.inputs.shape[1] > 0:
        G = params.g_matrix()
        if G.shape[1] != data.inputs.shape[1]:
            raise ValueError("phi_g inconsistent with the dataset input dimension")
        dX0 = dX0 - data.inputs @ G.T
    return dX0.ravel()


def nlml(params: PhsKernelParams, data: GpPhsDataset) -> float:
    """Negative log marginal likelihood x0' K^{-1} x0 + log|K| via Cholesky."""
    if data.n == 0:
        raise InsufficientData("nlml needs at least one data row")
    K = gram(params, data.states, data.noise_var)
    L = np.linalg.cholesky(K)
    y = _mean_adjusted(params, data)
    alpha = np.linalg.solve(L, y)
    return float(alpha @ alpha + 2.0 * np.sum(np.log(np.diag(L))))


def _pack(params: PhsKernelParams):
    """Flat optimization vector: positive parts in log space, rest raw."""
    return np.concatenate(
        [
            [np.log(params.sigma_f)],
            np.log(params.lengthscales),
            params.phi_j,
            params.phi_r,
            params.phi_g,
        ]
    )


def _unpack(theta, template: PhsKernelParams):
    d = template.dim
    nj = template.phi_j.size
    nr = template.phi_r.size
    i = 0
    sigma_f = float(np.exp(theta[i]))
    i += 1
    lam = np.exp(theta[i : i + d])
    i += d
    pj = theta[i : i + nj]
    i += nj
    pr = theta[i : i + nr]
    i += nr
    pg = theta[i:]
    return PhsKernelParams(sigma_f, lam, pj, pr, pg)


def fit(data: GpPhsDataset, init: PhsKernelParams, budget: int) -> PhsKernelParams:
    """Nelder-Mead minimization of the NLML over log-transformed parameters.

    Returns the best iterate found, also when the simplex has not converged
    within `budget` evaluations.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if data.n == 0:
        raise InsufficientData("fit needs data")

    best = {"theta": _pack(init), "val": np.inf}

    def objective(theta):
        try:
            val = nlml(_unpack(theta, init), data)
        except CholeskyFail:
            return 1e12
        if val < best["val"]:
            best["val"] = val
            best["theta"] = theta.copy()
        return val

    minimize(
        objective,
        _pack(init),
        method="Nelder-Mead",
        options={"maxfev": budget, "xatol": 1e-6, "fatol": 1e-8},
    )
    return _unpack(best["theta"], init)


def posterior(params: PhsKernelParams, data: GpPhsDataset, x_star):
    """GP conditioning at query states.

    Returns (mean, cov_blocks): mean is M x d predicted vector-field values
    (input contribution G u excluded), cov_blocks is an M-list of d x d
    posterior covariance blocks.
    """
    if data.n == 0:
        raise InsufficientData("posterior needs at least one data row")
    Xq = np.atleast_2d(np.asarray(getattr(x_star, "points", x_star), dtype=float))
    d = params.dim
    K = gram(params, data.states, data.noise_var)
    L = np.linalg.cholesky(K)
    y = _mean_adjusted(params, data)
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    means = np.empty((Xq.shape[0], d))
    covs = []
    for q, xs in enumerate(Xq):
        ks = np.hstack([k_phs(params, xs, xi) for xi in data.states])  # d x Nd
        means[q] = ks @ alpha
        v = np.linalg.solve(L, ks.T)
        covs.append(k_phs(params, xs, xs) - v.T @ v)
    return means, covs


def derivative_filter(times, states):
    """Estimate state derivatives from samples: central differences on the
    interior, one-sided at the two boundary points."""
    t = np.asarray(times, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(states, dtype=float))
    if t.size != X.shape[0]:
        raise ValueError("times and states must align")
    if t.size < 2:
        raise InsufficientData("derivative filter needs at least two samples")
    return np.gradient(X, t, axis=0)


def dataset_from_trajectory(times, states, inputs=None, noise_var=0.0) -> GpPhsDataset:
    dX = derivative_filter(times, states)
    if inputs is None:
        inputs = np.zeros((np.atleast_2d(states).shape[0], 0))
    return GpPhsDataset(states, dX, inputs, noise_var)


def params_to_dict(params: PhsKernelParams) -> dict:
    return {
        "sigma_f": params.sigma_f,
        "lengthscales": params.lengthscales.tolist(),
        "phi_j": params.phi_j.tolist(),
        "phi_r": params.phi_r.tolist(),
        "phi_g": params.phi_g.tolist(),
    }


def params_from_dict(d: dict) -> PhsKernelParams:
    return PhsKernelParams(
        float(d["sigma_f"]),
        np.asarray(d["lengthscales"], dtype=float),
        np.asarray(d["phi_j"], dtype=float),
        np.asarray(d["phi_r"], dtype=float),
        np.asarray(d["phi_g"], dtype=float),
    )


def save_params(params: PhsKernelParams, path):
    with open(path, "w") as f:
        json.dump(params_to_dict(params), f, sort_keys=True, indent=2)


def load_params(path) -> PhsKernelParams:
    with open(path) as f:
        return params_from_dict(json.load(f))
