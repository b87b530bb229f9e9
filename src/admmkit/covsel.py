"""Sparse inverse covariance selection:
min Tr(SX) - log det X + tau||X||_1 over symmetric positive definite X,
split as X - Y = 0 with the l1 term carried by Y.

The X-update has a closed form through one symmetric eigendecomposition: with
R = beta Y + Lambda - S = U diag(d) U', the minimizer is U diag(x) U' where
each x_i = (d_i + sqrt(d_i^2 + 4 beta)) / (2 beta) solves the scalar
stationarity beta x - 1/x = d_i; all x_i are positive, so every X iterate is
positive definite and the log-determinant never needs a feasibility guard.
The engine sees matrices flattened to length n^2 vectors, so the generic
residual, criterion, and diagnostics code paths apply unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .l1split import L1SplitProblem
from .model import require_finite

#: Default l1 weight; produces visibly sparse estimates on desk-scale data.
DEFAULT_TAU = 0.2


def _symmetrize(M):
    return (M + M.T) / 2.0


class CovselInstance(L1SplitProblem):
    """Empirical covariance S and l1 weight tau over n x n symmetric matrices.

    Iterates, a caller's ``v0`` included, are symmetric matrices flattened to
    length n^2. Elementwise updates keep them exactly symmetric, so only the
    X-update's eigenvector product is symmetrized.
    """

    def __init__(self, S, tau: float = DEFAULT_TAU):
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError(f"S must be square, got shape {S.shape}")
        require_finite("S", S)
        skew = float(np.abs(S - S.T).max(initial=0.0))
        scale = max(1.0, float(np.abs(S).max(initial=0.0)))
        if skew > 1e-12 * scale:
            raise ValueError(f"S must be symmetric; max asymmetry {skew:.3e}")
        super().__init__(S.shape[0] ** 2, tau, "tau")
        S = _symmetrize(S)
        eig_min = float(np.linalg.eigvalsh(S)[0])
        if eig_min < -1e-10 * scale:
            raise ValueError(f"S must be positive semidefinite; min eigenvalue {eig_min:.3e}")
        self.S = S
        self.n = S.shape[0]

    #: The l1 weight.
    tau = property(lambda self: self.weight)

    def _mat(self, flat):
        return np.asarray(flat, dtype=float).reshape(self.n, self.n)

    def smooth(self, x):
        X = self._mat(x)
        sign, logdet = np.linalg.slogdet(X)
        if sign <= 0:
            return math.inf
        return np.sum(self.S * X) - logdet

    def smooth_grad(self, x):
        return (self.S - np.linalg.inv(self._mat(x))).ravel()

    def solve_x(self, y, lam, beta):
        return self.x_update(self._mat(y), self._mat(lam), beta).ravel()

    def x_update(self, Y, Lam, beta):
        """Eigendecomposition solve of the smooth block for symmetric Y and Lam;
        always positive definite."""
        if not beta > 0:
            raise ValueError(f"beta must be positive, got {beta}")
        R = beta * np.asarray(Y) + np.asarray(Lam) - self.S
        d, U = np.linalg.eigh(R)
        xs = (d + np.sqrt(d * d + 4.0 * beta)) / (2.0 * beta)
        return _symmetrize((U * xs) @ U.T)


def generate_instance(n: int, seed: int, tau: float = DEFAULT_TAU):
    """Seeded covariance-selection data.

    The ground-truth precision matrix is the identity plus ~10% random
    symmetric off-diagonal entries of magnitude 0.2, diagonally shifted so
    its smallest eigenvalue is at least 0.1. The empirical covariance is
    built from ceil(0.01 n^2) samples of the implied Gaussian.

    Returns
    -------
    (CovselInstance, ndarray)
        The instance and the ground-truth precision matrix.
    """
    if n < 10:
        raise ValueError(f"n must be at least 10, got {n}")
    rng = np.random.default_rng(seed)
    precision = np.eye(n)
    rows, cols = np.triu_indices(n, k=1)
    picked = rng.random(rows.size) < 0.10
    values = rng.choice([-0.2, 0.2], size=int(picked.sum()))
    precision[rows[picked], cols[picked]] = values
    precision[cols[picked], rows[picked]] = values
    eig_min = float(np.linalg.eigvalsh(precision)[0])
    if eig_min < 0.1:
        precision += (0.1 - eig_min) * np.eye(n)
    sigma = np.linalg.inv(precision)
    chol = np.linalg.cholesky(_symmetrize(sigma))
    samples = int(math.ceil(0.01 * n * n))
    draws = chol @ rng.standard_normal((n, samples))
    S = _symmetrize(draws @ draws.T / samples)
    return CovselInstance(S, tau), precision
