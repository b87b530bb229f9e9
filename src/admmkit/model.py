"""Problem contract, iterate containers, and solver configuration.

Everything here is shared by the three solver variants and by the built-in
problem instances. The engine only ever talks to a :class:`SeparableProblem`,
so new applications plug in without touching the iteration code.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Integral

import numpy as np

#: Names accepted by :attr:`SolverConfig.variant`.
VARIANTS = ("classical", "over_relaxed", "relaxed_customized")


class DimensionMismatchError(ValueError):
    """An operand's shape does not match the problem dimensions."""

    def __init__(self, operand: str, expected, got):
        self.operand = operand
        self.expected = expected
        self.got = got
        super().__init__(
            f"operand '{operand}': expected dimension {expected}, got {got}"
        )


class SeparableProblem(ABC):
    """Two-block separable convex program  min f1(x) + f2(y)  s.t.  Ax + By = b.

    Implementations provide exact minimizers of the two alternating
    subproblems, the constraint operators, and first-order optimality
    residuals used as oracles by the diagnostics layer and the test suite.
    ``A`` and ``B`` must have full column rank. Instances are immutable after
    construction and may be shared across concurrent solves.

    Attributes
    ----------
    n1, n2 : int
        Dimensions of the x-block and y-block (flattened).
    m : int
        Dimension of the linear constraint.
    """

    n1: int
    n2: int
    m: int

    @abstractmethod
    def solve_x(self, y: np.ndarray, lam: np.ndarray, beta: float) -> np.ndarray:
        """Exact minimizer of f1(x) - x.(A'lam) + (beta/2)||Ax + By - b||^2."""

    @abstractmethod
    def solve_y(self, x: np.ndarray, lam: np.ndarray, beta: float) -> np.ndarray:
        """Exact minimizer of f2(y) - y.(B'lam) + (beta/2)||Ax + By - b||^2."""

    @abstractmethod
    def apply_A(self, x: np.ndarray) -> np.ndarray:
        """Constraint operator applied to the x-block (linear)."""

    @abstractmethod
    def apply_B(self, y: np.ndarray) -> np.ndarray:
        """Constraint operator applied to the y-block (linear)."""

    @property
    @abstractmethod
    def rhs_b(self) -> np.ndarray:
        """Right-hand side of the linear constraint."""

    @abstractmethod
    def objective(self, x: np.ndarray, y: np.ndarray) -> float:
        """f1(x) + f2(y)."""

    @abstractmethod
    def x_subproblem_residual(self, x, y, lam, beta) -> float:
        """First-order optimality residual of the x-subproblem at ``x``."""

    @abstractmethod
    def y_subproblem_residual(self, y, x, lam, beta) -> float:
        """First-order optimality residual of the y-subproblem at ``y``."""

    @abstractmethod
    def x_stationarity(self, x, lam) -> float:
        """Distance of 0 from the x-block saddle-point condition df1(x) - A'lam."""

    @abstractmethod
    def y_stationarity(self, y, lam) -> float:
        """Distance of 0 from the y-block saddle-point condition df2(y) - B'lam."""

    def constraint_residual(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.apply_A(x) + self.apply_B(y) - self.rhs_b


def require_finite(name: str, values) -> None:
    """Raise ValueError naming ``name`` if ``values`` holds a NaN or an inf."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def _as_vector(value, name: str, dim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float).ravel()
    if arr.shape != (dim,):
        raise DimensionMismatchError(name, (dim,), arr.shape)
    return arr


@dataclass(frozen=True)
class Iterate:
    """Full point w = (x, y, lam)."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray

    @property
    def finite(self) -> bool:
        return bool(
            np.isfinite(self.x).all()
            and np.isfinite(self.y).all()
            and np.isfinite(self.lam).all()
        )

    def validate(self, problem: SeparableProblem) -> "Iterate":
        return Iterate(
            _as_vector(self.x, "x", problem.n1),
            _as_vector(self.y, "y", problem.n2),
            _as_vector(self.lam, "lam", problem.m),
        )


@dataclass(frozen=True)
class EssentialState:
    """Essential pair v = (y, lam); the x-block is recomputed every step."""

    y: np.ndarray
    lam: np.ndarray

    @classmethod
    def zeros(cls, problem: SeparableProblem) -> "EssentialState":
        return cls(np.zeros(problem.n2), np.zeros(problem.m))

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.y).all() and np.isfinite(self.lam).all())

    def stacked(self) -> np.ndarray:
        return np.concatenate([np.ravel(self.y), np.ravel(self.lam)])

    def __sub__(self, other: "EssentialState") -> "EssentialState":
        return EssentialState(self.y - other.y, self.lam - other.lam)

    def validate(self, problem: SeparableProblem) -> "EssentialState":
        """This pair as a starting point ``v0`` for ``problem``: flat float
        vectors of the right sizes, each checked finite by name."""
        v0 = EssentialState(
            _as_vector(self.y, "y", problem.n2),
            _as_vector(self.lam, "lam", problem.m),
        )
        require_finite("v0.y", v0.y)
        require_finite("v0.lam", v0.lam)
        return v0


@dataclass(frozen=True)
class SolverConfig:
    """Variant selection, penalty/relaxation parameters, and stopping rule.

    ``gamma`` is the relaxation factor used by the ``over_relaxed`` and
    ``relaxed_customized`` variants; any value in (0, 2) is accepted, with
    (1, 2) the over-relaxation range of interest and 1 recovering the
    classical step. ``eps_abs``/``eps_rel`` feed the combined absolute plus
    relative stopping thresholds. A bad value raises ValueError naming the
    field.
    """

    variant: str = "classical"
    beta: float = 1.0
    gamma: float = 1.8
    eps_abs: float = 1e-5
    eps_rel: float = 1e-3
    max_iter: int = 1000

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        for name in ("beta", "gamma", "eps_abs", "eps_rel"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.variant != "classical" and not 0.0 < self.gamma < 2.0:
            raise ValueError(f"gamma must lie in (0, 2) for relaxed variants, got {self.gamma}")
        if not (self.eps_abs > 0 and self.eps_rel > 0):
            raise ValueError("eps_abs and eps_rel must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics written by the engine.

    ``essential_change_sq`` is ||B(y_prev - y)||^2 + ||lam_prev - lam||^2 for
    the step that produced this record; it vanishes along convergent runs.
    """

    k: int
    primal_residual_norm: float
    dual_residual_norm: float
    criterion_value: float
    relaxed: bool
    eps_pri: float
    eps_dual: float
    essential_change_sq: float

    @property
    def within_tolerance(self) -> bool:
        return (
            self.primal_residual_norm <= self.eps_pri
            and self.dual_residual_norm <= self.eps_dual
        )


def augmented_lagrangian(problem: SeparableProblem, w: Iterate, beta: float) -> float:
    """f1(x) + f2(y) - lam.(Ax + By - b) + (beta/2)||Ax + By - b||^2."""
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    w = w.validate(problem)
    residual = problem.constraint_residual(w.x, w.y)
    return float(
        problem.objective(w.x, w.y)
        - w.lam @ residual
        + 0.5 * beta * (residual @ residual)
    )
