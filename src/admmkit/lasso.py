"""Lasso instance: min 0.5||Ax - b||^2 + rho||y||_1  s.t.  x - y = 0.

The x-update solves a ridge system with the factorization cached between
iterations; when the data matrix is fat (m < n) the solve goes through the
matrix-inversion identity

    (A'A + beta I)^-1 = I/beta - A'(beta I + A A')^-1 A / beta

so only the smaller m x m Gram matrix is factorized. The y-update is the
elementwise soft thresholding of :class:`~admmkit.l1split.L1SplitProblem`.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .l1split import L1SplitProblem
from .model import require_finite

#: Per-coordinate noise variance used by :func:`generate_instance`.
NOISE_VARIANCE = 1e-3


def rho_max(A: np.ndarray, b: np.ndarray) -> float:
    """||A'b||_inf, the smallest l1 weight that forces the solution to zero."""
    return float(np.abs(np.asarray(A).T @ np.asarray(b)).max(initial=0.0))


class LassoInstance(L1SplitProblem):
    """Problem data (A, b, rho) on the l1 split x - y = 0.

    Immutable after construction apart from a single-slot factorization cache
    keyed on beta; re-solving with a different beta transparently
    refactorizes. The factor is checked finite once per beta; each call then
    checks only the length-n (fat: length-m) vector handed to the triangular
    solves, so a non-finite ``y`` or ``lam`` still raises ValueError.
    """

    def __init__(self, A, b, rho: float):
        A = np.ascontiguousarray(A, dtype=float)
        b = np.asarray(b, dtype=float).ravel()
        if A.ndim != 2:
            raise ValueError("A must be a 2-d array")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b has shape {b.shape}, expected ({A.shape[0]},)")
        require_finite("A", A)
        require_finite("b", b)
        super().__init__(A.shape[1], rho, "rho")
        self.A = A
        self.b = b
        self.rows, self.cols = A.shape
        self._atb = A.T @ b
        self._cache: tuple[float, object] | None = None

    #: The l1 weight.
    rho = property(lambda self: self.weight)

    def smooth(self, x):
        fit = self.A @ x - self.b
        return 0.5 * fit @ fit

    def smooth_grad(self, x):
        return self.A.T @ (self.A @ x - self.b)

    def solve_x(self, y, lam, beta):
        """Minimizer of the ridge subproblem: (A'A + beta I)^-1 (A'b + beta y + lam).

        A fat A (rows < cols) goes through the small-Gram identity; a tall or
        square one factorizes A'A + beta I directly.
        """
        if not beta > 0:
            raise ValueError(f"beta must be positive, got {beta}")
        fat = self.rows < self.cols
        cached = self._cache
        if cached is None or cached[0] != beta:
            gram = self.A @ self.A.T if fat else self.A.T @ self.A
            gram.flat[:: gram.shape[0] + 1] += beta
            # NumPy forms the Gram matrix with syrk, so it is exactly symmetric
            # and its transpose is the same matrix in Fortran order, which
            # LAPACK factors in place.
            factor = cho_factor(gram.T, overwrite_a=True)
            require_finite("Cholesky factor", factor[0])
            cached = self._cache = (beta, factor)
        rhs = self._atb + beta * np.asarray(y) + np.asarray(lam)
        if fat:
            small = self.A @ rhs
            require_finite("A(A'b + beta y + lam)", small)
            return rhs / beta - self.A.T @ cho_solve(cached[1], small, check_finite=False) / beta
        require_finite("A'b + beta y + lam", rhs)
        return cho_solve(cached[1], rhs, check_finite=False)


def generate_instance(m: int, n: int, seed: int, nonzeros: int | None = None):
    """Seeded synthetic regression data.

    A is i.i.d. standard Gaussian with columns scaled to unit l2 norm; the
    ground truth has min(100, n // 10) Gaussian nonzeros at random positions
    (override with ``nonzeros``); observations are b = A x_true + noise with
    per-coordinate variance 1e-3; the l1 weight is 0.1 times the critical
    value ||A'b||_inf.

    Returns
    -------
    (LassoInstance, ndarray)
        The instance and the ground-truth coefficient vector.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A = A / np.linalg.norm(A, axis=0)
    if nonzeros is None:
        nonzeros = min(100, n // 10)
    if nonzeros > n:
        warnings.warn(f"requested {nonzeros} nonzeros for n={n}; reducing to {n}")
        nonzeros = n
    x_true = np.zeros(n)
    support = rng.choice(n, size=nonzeros, replace=False)
    x_true[support] = rng.standard_normal(nonzeros)
    noise = rng.normal(0.0, np.sqrt(NOISE_VARIANCE), size=m)
    b = A @ x_true + noise
    rho = 0.1 * rho_max(A, b)
    return LassoInstance(A, b, rho), x_true
