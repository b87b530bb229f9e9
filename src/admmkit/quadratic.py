"""Dense strictly convex quadratic two-block instances.

Small closed-form problems with arbitrary constraint blocks A and B; the
built-in applications both use identity/-identity constraints, so these are
the instances that exercise the engine and the analysis matrices with general
full-column-rank B. Used heavily by the property tests and the demos.
"""

from __future__ import annotations

import numpy as np

from .model import (SeparableProblem, as_array, require_finite, require_fits, require_instance,
                    require_int, require_real)


def _require_full_column_rank(B: np.ndarray) -> None:
    """Raise ValueError unless B's singular values stay above 1e-10 times the
    largest; otherwise the analysis metric H is not positive definite. A B
    without columns has none to compare."""
    m, n2 = B.shape
    svals = np.linalg.svd(B, compute_uv=False)
    if m < n2 or svals.min(initial=np.inf) <= 1e-10 * svals.max(initial=0.0):
        raise ValueError("H not positive definite: B rank-deficient")


class QuadraticProblem(SeparableProblem):
    """min 0.5 x'P1 x + q1'x + 0.5 y'P2 y + q2'y  s.t.  Ax + By = b.

    P1 and P2 must be symmetric positive definite so both subproblems are
    plain linear solves. Shapes, finiteness and B's column rank are checked.
    """

    def __init__(self, P1, q1, P2, q2, A, B, b):
        self.A = as_array("A", A, (None, None))
        self.m, self.n1 = self.A.shape
        self.B = as_array("B", B, (self.m, None))
        self.n2 = self.B.shape[1]
        self.P1 = as_array("P1", P1, (self.n1, self.n1))
        self.q1 = as_array("q1", q1, (self.n1,))
        self.P2 = as_array("P2", P2, (self.n2, self.n2))
        self.q2 = as_array("q2", q2, (self.n2,))
        self._b = as_array("b", b, (self.m,))
        for name in ("P1", "q1", "P2", "q2", "A", "B"):
            require_finite(name, getattr(self, name))
        require_finite("b", self._b)
        _require_full_column_rank(self.B)

    def solve_x(self, y, lam, beta):
        require_real("beta", beta, 0)
        lhs = self.P1 + beta * self.A.T @ self.A
        rhs = self.A.T @ (lam - beta * (self.B @ y - self._b)) - self.q1
        return np.linalg.solve(lhs, rhs)

    def solve_y(self, x, lam, beta):
        require_real("beta", beta, 0)
        lhs = self.P2 + beta * self.B.T @ self.B
        rhs = self.B.T @ (lam - beta * (self.A @ x - self._b)) - self.q2
        return np.linalg.solve(lhs, rhs)

    def apply_A(self, x):
        return self.A @ x

    def apply_B(self, y):
        return self.B @ y

    @property
    def rhs_b(self):
        return self._b

    def x_stationarity(self, x, lam):
        return float(np.abs(self.P1 @ x + self.q1 - self.A.T @ lam).max(initial=0.0))

    def y_stationarity(self, y, lam):
        return float(np.abs(self.P2 @ y + self.q2 - self.B.T @ lam).max(initial=0.0))

    @classmethod
    def random(cls, n1, n2, m, rng):
        """Random well-conditioned instance; requires m >= max(n1, n2) so the
        constraint blocks are full column rank almost surely."""
        for name, size in (("n1", n1), ("n2", n2), ("m", m)):
            require_int(name, size, 1)
        require_instance("rng", rng, np.random.Generator)
        require_fits((m, max(n1, n2)), m=m, n1=n1, n2=n2)
        if m < max(n1, n2):
            raise ValueError("need m >= max(n1, n2) for full column rank")
        def spd(k):
            W = rng.standard_normal((k, k))
            return W @ W.T / k + 0.5 * np.eye(k)
        A = rng.standard_normal((m, n1))
        B = rng.standard_normal((m, n2))
        b = rng.standard_normal(m)
        return cls(spd(n1), rng.standard_normal(n1), spd(n2), rng.standard_normal(n2), A, B, b)


def scalar_chain() -> QuadraticProblem:
    """The 1-d instance 0.5 x^2 + 0.5 y^2 subject to x = y.

    Its unique saddle point is the origin, which makes it the standard smoke
    test: closed-form subproblem minimizers are x = (lam + beta y)/(1 + beta)
    and y = (beta x - lam)/(1 + beta).
    """
    return QuadraticProblem([[1.0]], [0.0], [[1.0]], [0.0], [[1.0]], [[-1.0]], [0.0])
