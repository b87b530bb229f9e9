"""Sparse inverse covariance selection:
min Tr(SX) - log det X + tau||X||_1 over symmetric positive definite X,
split as X - Y = 0 with the l1 term carried by Y.

The X-update has a closed form through one symmetric eigendecomposition: with
R = beta Y + Lambda - S = U diag(d) U', the minimizer is U diag(x) U' where
each x_i = (d_i + sqrt(d_i^2 + 4 beta)) / (2 beta) solves the scalar
stationarity beta x - 1/x = d_i; all x_i are positive, so every X iterate is
positive definite and the log-determinant never needs a feasibility guard.
NumPy forms the product as W W', W = U diag(sqrt x), by syrk: exactly symmetric.
The engine sees matrices flattened to length n^2 vectors, so the generic
residual, criterion, and diagnostics code paths apply unchanged.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf

from .l1split import L1SplitProblem
from .model import as_array, require_finite, require_fits, require_int, require_real

#: Default l1 weight; produces visibly sparse estimates on desk-scale data.
DEFAULT_TAU = 0.2


def _symmetrize(M, out=None):
    """(M + M') / 2, written into ``out`` when given."""
    out = np.add(M, M.T, out=out)
    out /= 2.0
    return out


class CovselInstance(L1SplitProblem):
    """Empirical covariance S and l1 weight tau over n x n symmetric matrices.

    S must be finite, symmetric to 1e-12 scale and positive semidefinite to
    1e-10 scale, where scale = max(1, max|S|). Definiteness is accepted when
    S + 1e-10 scale I admits a Cholesky factor; only when it does not does
    ``eigvalsh`` decide, so a valid S costs one factorization and no
    eigen-solve.

    Iterates, a caller's ``v0`` included, are symmetric matrices flattened to
    length n^2. The X-update's syrk product and the elementwise updates keep
    them exactly symmetric.
    """

    def __init__(self, S, tau: float = DEFAULT_TAU):
        S = as_array("S", S, (None, None))
        S = as_array("S", S, (len(S), len(S)))  # square
        require_finite("S", S)
        n = S.shape[0]
        # One n x n buffer holds |S - S'|, then the shifted (S + S')/2 that
        # LAPACK factors in place, then (S + S')/2 again, which is kept.
        t = np.subtract(S, S.T)
        skew = float(np.abs(t, out=t).max(initial=0.0))
        scale = max(1.0, float(S.max(initial=0.0)), -float(S.min(initial=0.0)))
        if skew > 1e-12 * scale:
            raise ValueError(f"S must be symmetric; max asymmetry {skew:.3e}")
        super().__init__(n ** 2, tau, "tau")
        _symmetrize(S, t).flat[:: n + 1] += 1e-10 * scale
        # t is exactly symmetric, so t' is the same matrix in Fortran order;
        # the factor is dropped, only its success is read
        factored = dpotrf(t.T, overwrite_a=1, clean=0)[1] == 0
        S = _symmetrize(S, t)
        if not factored:
            eig_min = float(np.linalg.eigvalsh(S)[0])
            if eig_min < -1e-10 * scale:
                raise ValueError(f"S must be positive semidefinite; min eigenvalue {eig_min:.3e}")
        self.S = S
        self.n = n

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
        """S - X^-1; inf everywhere at a singular X, where ``smooth`` is inf."""
        try:
            return (self.S - np.linalg.inv(self._mat(x))).ravel()
        except np.linalg.LinAlgError:
            return np.full(self.m, math.inf)

    def solve_x(self, y, lam, beta):
        """Eigendecomposition solve of the smooth block for symmetric Y and Lam,
        flattened; always positive definite."""
        require_real("beta", beta, 0)
        R = beta * self._mat(y)
        R += self._mat(lam)
        R -= self.S
        d, U = np.linalg.eigh(R)
        U *= np.sqrt((d + np.sqrt(d * d + 4.0 * beta)) / (2.0 * beta))
        return np.matmul(U, U.T, out=R).ravel()


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
    require_int("n", n, 10)
    require_int("seed", seed, 0)
    # the draws below are the largest array; n x n must fit before 0.01 n^2 is a float
    require_fits((n, n), n=n)
    samples = int(math.ceil(0.01 * n * n))
    require_fits((n, samples), n=n)
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
    draws = chol @ rng.standard_normal((n, samples))
    S = _symmetrize(draws @ draws.T / samples)
    return CovselInstance(S, tau), precision
