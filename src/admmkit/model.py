"""Problem contract, iterate containers, and solver configuration.

Everything here is shared by the three solver variants and by the built-in
problem instances. The engine only ever talks to a :class:`SeparableProblem`,
so new applications plug in without touching the iteration code.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

#: Names accepted by :attr:`SolverConfig.variant`.
VARIANTS = ("classical", "over_relaxed", "relaxed_customized")


class DimensionMismatchError(ValueError):
    """An operand's shape does not match the problem dimensions."""

    def __init__(self, operand: str, expected, got):
        self.operand = operand
        self.expected = expected
        self.got = got
        super().__init__(f"{operand} has shape {got}, expected {expected}")


class SeparableProblem(ABC):
    """Two-block separable convex program  min f1(x) + f2(y)  s.t.  Ax + By = b.

    Implementations provide exact minimizers of the two alternating
    subproblems, the constraint operators and right-hand side, and the two
    saddle-point stationarity residuals behind
    :func:`~admmkit.diagnostics.kkt_residual`. A subproblem's own first-order
    residual is the matching stationarity taken at lam - beta (Ax + By - b).
    ``A`` and ``B`` must have full column rank, which neither the engine nor
    the Fejer monitor checks. An instance may be shared across concurrent
    solves, at any betas.

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
        """Constraint operator applied to the y-block (linear), as a new
        array: the engine forms residuals in it. One that is read-only or
        shares memory with ``y`` is copied first; one the problem holds on
        to would be written over."""

    @property
    @abstractmethod
    def rhs_b(self) -> np.ndarray:
        """Right-hand side of the linear constraint."""

    @abstractmethod
    def x_stationarity(self, x, lam) -> float:
        """Distance of 0 from the x-block saddle-point condition df1(x) - A'lam."""

    @abstractmethod
    def y_stationarity(self, y, lam) -> float:
        """Distance of 0 from the y-block saddle-point condition df2(y) - B'lam."""

    def constraint_residual(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _residual(self, self.apply_A(x), y)


def _residual(problem: SeparableProblem, ax, y) -> np.ndarray:
    """Ax + By - b, formed in the array ``apply_B`` returns, or in a copy of
    it when that array is read-only or shares memory with ``y``."""
    r = problem.apply_B(y)
    if not r.flags.writeable or np.may_share_memory(r, y):
        r = r.copy()
    np.add(ax, r, out=r)
    r -= problem.rhs_b
    return r


def require_finite(name: str, values) -> None:
    """Raise ValueError naming ``name`` if ``values`` holds a NaN or an inf.

    A NaN propagates through both reductions and an inf is the min or the
    max, so the scan holds no mask the size of the data.
    """
    if not (
        math.isfinite(np.minimum.reduce(values, None, initial=0.0))
        and math.isfinite(np.maximum.reduce(values, None, initial=0.0))
    ):
        raise ValueError(f"{name} must be finite")


def require_instance(name: str, value, cls: type) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")


def require_real(name: str, value, low: float = -math.inf, high: float = math.inf) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite real number,
    not a bool, strictly inside (low, high). A float skips the ABC checks; an
    int is compared exactly, so one too large for a float is not finite."""
    if isinstance(value, float):
        finite = math.isfinite(value)
    elif isinstance(value, bool) or not isinstance(value, Real):
        finite = False
    elif isinstance(value, Integral):
        finite = abs(value) <= sys.float_info.max
    else:
        finite = math.isfinite(value)
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not low < value < high:
        raise ValueError(f"{name} must lie in ({low:g}, {high:g}), got {value}")


def require_choice(name: str, value, choices: tuple) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is one of the strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def require_int(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer, not a
    bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def require_fits(shape: tuple, **sizes: int) -> None:
    """Raise ValueError naming ``sizes`` unless a float64 array of ``shape``
    has at most ``np.iinfo(np.intp).max`` bytes, the most numpy can index."""
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        named = ", ".join(f"{key}={value}" for key, value in sizes.items())
        raise ValueError(f"a {shape} float64 array for {named} is past the index range")


def as_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape``, raveled first when ``shape``
    has one entry; a ``None`` entry matches any length. A float array is not
    copied. Complex values, whose imaginary parts a conversion would drop,
    and anything else that does not convert to a float raise ValueError
    naming ``name``; other dimensions raise DimensionMismatchError."""
    try:
        arr = np.asarray(value)
        real = arr.dtype.kind != "c"
        if real:
            arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None
    if not real:
        raise ValueError(f"{name} must be real, got complex values")
    if len(shape) == 1:
        arr = arr.ravel()
    if arr.ndim != len(shape) or any(e not in (None, g) for e, g in zip(shape, arr.shape)):
        raise DimensionMismatchError(name, shape, arr.shape)
    return arr


@dataclass(frozen=True)
class Iterate:
    """Full point w = (x, y, lam); a step's subproblem output (x_next, y_pred,
    lam_pred), which :func:`~admmkit.engine.run` hands its observer and keeps
    as ``final``."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray

    def validate(self, problem: SeparableProblem) -> "Iterate":
        return Iterate(
            as_array("x", self.x, (problem.n1,)),
            as_array("y", self.y, (problem.n2,)),
            as_array("lam", self.lam, (problem.m,)),
        )


@dataclass(frozen=True)
class EssentialState:
    """Essential pair v = (y, lam); the x-block is recomputed every step."""

    y: np.ndarray
    lam: np.ndarray

    @classmethod
    def zeros(cls, problem: SeparableProblem) -> "EssentialState":
        return cls(np.zeros(problem.n2), np.zeros(problem.m))

    def __sub__(self, other: "EssentialState") -> "EssentialState":
        return EssentialState(self.y - other.y, self.lam - other.lam)

    def validate(self, problem: SeparableProblem, name: str) -> "EssentialState":
        """This pair, called ``name``, as flat float vectors of ``problem``'s
        sizes, each checked finite and named as ``name.y`` or ``name.lam``."""
        v = EssentialState(
            as_array(f"{name}.y", self.y, (problem.n2,)),
            as_array(f"{name}.lam", self.lam, (problem.m,)),
        )
        require_finite(f"{name}.y", v.y)
        require_finite(f"{name}.lam", v.lam)
        return v


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
        require_choice("variant", self.variant, VARIANTS)
        for name in ("beta", "eps_abs", "eps_rel"):
            require_real(name, getattr(self, name), 0)
        require_real("gamma", self.gamma, *(() if self.variant == "classical" else (0, 2)))
        require_int("max_iter", self.max_iter, 1)


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """What the engine reports of step ``k``: the primal residual
    ||Ax + By - b|| at the step's x-block and new y-block, the dual residual
    ||y - y_prev||, the relaxation criterion, whether the step relaxed, and
    the two stopping thresholds the residuals are held to."""

    k: int
    primal_residual_norm: float
    dual_residual_norm: float
    criterion_value: float
    relaxed: bool
    eps_pri: float
    eps_dual: float

    @property
    def within_tolerance(self) -> bool:
        return (
            self.primal_residual_norm <= self.eps_pri
            and self.dual_residual_norm <= self.eps_dual
        )
