"""The l1 split  min smooth(x) + weight ||y||_1  s.t.  x - y = 0  (A = I, B = -I).

Lasso and sparse inverse covariance selection both take this form (Boyd et
al. 2011, sections 6.4-6.5); they differ only in the smooth term and its
x-solve. The y-solve is elementwise soft thresholding at weight / beta.
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from .model import SeparableProblem, require_real


class L1SplitProblem(SeparableProblem):
    """Base of the l1 split. Subclasses provide ``solve_x``, ``smooth`` and
    ``smooth_grad`` on flattened length-``dim`` vectors; the base supplies the
    rest of the contract, with every residual a max-norm."""

    def __init__(self, dim: int, weight: float, weight_name: str):
        require_real(weight_name, weight, 0)
        self.weight = float(weight)
        self.n1 = self.n2 = self.m = dim
        # b = 0 as a read-only zero-stride view, which holds one float
        self._rhs = np.broadcast_to(0.0, (dim,))

    @abstractmethod
    def smooth(self, x) -> float:
        """The smooth term f1(x)."""

    @abstractmethod
    def smooth_grad(self, x) -> np.ndarray:
        """Gradient of the smooth term, flattened like ``x``."""

    def solve_y(self, x, lam, beta):
        """Soft-threshold minimizer of the l1 subproblem."""
        require_real("beta", beta, 0)
        kappa = self.weight / beta
        a = np.divide(lam, beta, dtype=float)
        np.subtract(x, a, out=a)
        a -= np.clip(a, -kappa, kappa)
        return a

    def apply_A(self, x):
        return x

    def apply_B(self, y):
        return -y

    @property
    def rhs_b(self):
        return self._rhs

    def objective(self, x, y):
        """smooth(x) + weight ||y||_1; the solver never calls it."""
        return float(self.smooth(x) + self.weight * np.abs(y).sum())

    def x_stationarity(self, x, lam):
        return float(np.abs(self.smooth_grad(x) - lam).max(initial=0.0))

    def y_stationarity(self, y, lam):
        """Distance of 0 from weight * subgradient(|y|) + lam, elementwise max."""
        on = np.abs(self.weight * np.sign(y) + lam)
        off = np.maximum(np.abs(lam) - self.weight, 0.0)
        return float(np.where(y != 0.0, on, off).max(initial=0.0))
