"""The l1 split  min smooth(x) + weight ||y||_1  s.t.  x - y = 0  (A = I, B = -I).

Lasso and sparse inverse covariance selection both take this form (Boyd et
al. 2011, sections 6.4-6.5); they differ only in the smooth term and its
x-solve. The y-solve is elementwise soft thresholding at weight / beta.
"""

from __future__ import annotations

import math
from abc import abstractmethod

import numpy as np

from .model import SeparableProblem


def soft_threshold(a: np.ndarray, kappa: float) -> np.ndarray:
    """Elementwise shrinkage (a - kappa)_+ - (-a - kappa)_+."""
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    a = np.asarray(a, dtype=float)
    return np.maximum(a - kappa, 0.0) - np.maximum(-a - kappa, 0.0)


def _l1_membership_residual(y, g, weight):
    """Distance of 0 from weight * subgradient(|y|) + g, elementwise max."""
    on = np.abs(weight * np.sign(y) + g)
    off = np.maximum(np.abs(g) - weight, 0.0)
    return float(np.where(y != 0.0, on, off).max(initial=0.0))


class L1SplitProblem(SeparableProblem):
    """Base of the l1 split. Subclasses provide ``solve_x``, ``smooth`` and
    ``smooth_grad`` on flattened length-``dim`` vectors; the base supplies the
    rest of the contract, with every residual a max-norm."""

    def __init__(self, dim: int, weight: float, weight_name: str):
        weight = float(weight)
        if not (math.isfinite(weight) and weight > 0):
            raise ValueError(f"{weight_name} must be finite and positive, got {weight}")
        self.weight = weight
        self.n1 = self.n2 = self.m = dim
        self._rhs = np.zeros(dim)

    @abstractmethod
    def smooth(self, x) -> float:
        """The smooth term f1(x)."""

    @abstractmethod
    def smooth_grad(self, x) -> np.ndarray:
        """Gradient of the smooth term, flattened like ``x``."""

    def solve_y(self, x, lam, beta):
        """Soft-threshold minimizer of the l1 subproblem."""
        if not beta > 0:
            raise ValueError(f"beta must be positive, got {beta}")
        return soft_threshold(np.asarray(x) - np.asarray(lam) / beta, self.weight / beta)

    def apply_A(self, x):
        return x

    def apply_B(self, y):
        return -y

    @property
    def rhs_b(self):
        return self._rhs

    def objective(self, x, y):
        return float(self.smooth(x) + self.weight * np.abs(y).sum())

    def x_subproblem_residual(self, x, y, lam, beta):
        grad = self.smooth_grad(x) - lam + beta * (x - y)
        return float(np.abs(grad).max(initial=0.0))

    def y_subproblem_residual(self, y, x, lam, beta):
        return _l1_membership_residual(y, lam + beta * (y - x), self.weight)

    def x_stationarity(self, x, lam):
        return float(np.abs(self.smooth_grad(x) - lam).max(initial=0.0))

    def y_stationarity(self, y, lam):
        return _l1_membership_residual(y, lam, self.weight)
