"""Lasso instance: min 0.5||Ax - b||^2 + rho||y||_1  s.t.  x - y = 0.

The x-update solves a ridge system with the factorization cached between
iterations; when the data matrix is fat (m < n) the solve goes through the
matrix-inversion identity

    (A'A + beta I)^-1 = I/beta - A'(beta I + A A')^-1 A / beta

so only the smaller m x m Gram matrix, formed by :func:`_gram`, is factorized.
Like every BLAS product, it is byte-stable only at a fixed BLAS thread count.
The y-update is the soft thresholding of :class:`~admmkit.l1split.L1SplitProblem`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.blas import dtrsv

from .l1split import L1SplitProblem
from .model import as_array, require_finite, require_fits, require_int, require_real

#: Per-coordinate noise variance used by :func:`generate_instance`.
NOISE_VARIANCE = 1e-3

#: What OpenBLAS reads its thread count from as it loads; the first one set counts.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
#: np.matmul under solve_x's overflow errstate, which a new thread does not inherit.
_matmul = np.errstate(over="ignore")(np.matmul)


def rho_max(A: np.ndarray, b: np.ndarray) -> float:
    """||A'b||_inf, the smallest l1 weight that forces the solution to zero.
    ``A`` and ``b`` go through :func:`~admmkit.model.as_array`, b's length
    set by A, so a malformed one raises ValueError naming it."""
    A = as_array("A", A, (None, None))
    b = as_array("b", b, (len(A),))
    return float(np.abs(A.T @ b).max(initial=0.0))


class LassoInstance(L1SplitProblem):
    """Problem data (A, b, rho) on the l1 split x - y = 0.

    Its single-slot factor cache, keyed on beta, is read once and replaced whole
    by ``solve_x``, so concurrent solves at any betas may share an instance;
    solves that alternate betas refactorize each time. The Gram matrix is
    checked finite once per beta; each call then checks only the length-n (fat:
    length-m) vector handed to the two BLAS triangular solves on the cached
    upper factor, so a non-finite ``y`` or ``lam`` still raises ValueError.
    The Gram matrix's bits, and so every solve's, hold only at a fixed BLAS thread count.
    """

    def __init__(self, A, b, rho: float):
        A = np.ascontiguousarray(as_array("A", A, (None, None)))
        if 0 in A.shape:
            raise ValueError(f"A must have at least one row and one column, got shape {A.shape}")
        b = as_array("b", b, (len(A),))
        require_finite("A", A)
        require_finite("b", b)
        super().__init__(A.shape[1], rho, "rho")
        self.A = A
        self.b = b
        self.rows, self.cols = A.shape
        self._atb = A.T @ b
        self._cache: tuple[float, np.ndarray] | None = None

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
        require_real("beta", beta, 0)
        fat = self.rows < self.cols
        cached = self._cache
        if cached is None or cached[0] != beta:
            gram = _gram(self.A if fat else self.A.T)
            with np.errstate(over="ignore"):  # a finite A's Gram may overflow
                gram.flat[:: gram.shape[0] + 1] += beta
            require_finite("A A' + beta I" if fat else "A'A + beta I", gram)
            # gram is exactly symmetric, so gram.T is gram in Fortran order,
            # which LAPACK factors in place: to a finite factor, or a LinAlgError.
            upper, _ = cho_factor(gram.T, overwrite_a=True, check_finite=False)
            cached = self._cache = (beta, upper)
        # A'b + beta y + lam, summed in that order in one new array
        rhs = beta * np.asarray(y, dtype=float)
        np.add(self._atb, rhs, out=rhs)
        rhs += lam
        if fat:
            small = self.A @ rhs
            require_finite("A(A'b + beta y + lam)", small)
            correction = self.A.T @ _cholesky_solve(cached[1], small)
            correction /= beta
            rhs /= beta
            return np.subtract(rhs, correction, out=rhs)
        require_finite("A'b + beta y + lam", rhs)
        return _cholesky_solve(cached[1], rhs)


def _gram(M):
    """M M' as three blocks of one array, over the row halves top = M[:k] and
    bottom = M[k:], k = len(M) // 2: top top' and bottom bottom' by syrk, and
    bottom top' by gemm, mirrored above the diagonal. The gemm runs on a helper
    thread when NumPy's BLAS runs one thread (else the two compete for cores),
    and in turn otherwise; either way the result has the same bits."""
    k = len(M) // 2
    top, bottom = M[:k], M[k:]
    gram = np.empty((len(M), len(M)))
    with ThreadPoolExecutor(1) as helper:  # starts no thread until a submit
        gemm = lambda: _matmul(bottom, top.T, out=gram[k:, :k])
        if next(filter(None, map(os.environ.get, _BLAS_THREADS)), None) == "1":
            gemm = helper.submit(gemm).result  # joined below; re-raises its error
        _matmul(top, top.T, out=gram[:k, :k])
        _matmul(bottom, bottom.T, out=gram[k:, k:])
        gemm()
    gram[:k, k:] = gram[k:, :k].T
    return gram


def _cholesky_solve(upper, rhs):
    """Solve U'U x = rhs in place with two BLAS triangular solves on the upper
    Cholesky factor U, which must be Fortran-ordered or f2py copies it; rhs
    must be a contiguous float vector, which the solves overwrite."""
    return dtrsv(upper, dtrsv(upper, rhs, trans=1, overwrite_x=1), overwrite_x=1)


def require_size(size: tuple) -> None:
    """Raise ValueError naming size, m or n unless generate_instance takes the pair ``size``."""
    if not (isinstance(size, (tuple, list)) and len(size) == 2):
        raise ValueError(f"size must be a pair, got {size!r}")
    m, n = size
    require_int("m", m, 1)
    require_int("n", n, 1)
    require_fits((m, n), m=m, n=n)


def generate_instance(m: int, n: int, seed: int):
    """Seeded synthetic regression data.

    A is i.i.d. standard Gaussian with columns scaled to unit l2 norm in
    place, so generation never holds a second float copy of A; the ground
    truth has min(100, n // 10) Gaussian nonzero entries at random positions;
    observations are b = A x_true + noise with per-coordinate variance 1e-3;
    the l1 weight is 0.1 times the critical value ||A'b||_inf.

    Returns
    -------
    (LassoInstance, ndarray)
        The instance and the ground-truth coefficient vector.
    """
    require_size((m, n))
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    # Column norms over blocks of at most 64 columns, so A * A is never formed
    # whole. A block is at least 2 wide unless n = 1, so its sums run row by
    # row as in np.linalg.norm(A, axis=0) and the norms are bit for bit those.
    blocks = np.array_split(A, -(-n // 64), axis=1)
    A /= np.concatenate([np.linalg.norm(block, axis=0) for block in blocks])
    support_size = min(100, n // 10)
    x_true = np.zeros(n)
    support = rng.choice(n, size=support_size, replace=False)
    x_true[support] = rng.standard_normal(support_size)
    noise = rng.normal(0.0, np.sqrt(NOISE_VARIANCE), size=m)
    b = A @ x_true + noise
    rho = 0.1 * rho_max(A, b)
    return LassoInstance(A, b, rho), x_true
