"""Two-block separable convex solvers with criterion-gated over-relaxation.

The package splits into a problem contract (:mod:`admmkit.model`), the
iteration engine with three variants (:mod:`admmkit.engine`), analysis-object
diagnostics (:mod:`admmkit.diagnostics`), the built-in Lasso and sparse
inverse covariance instances (:mod:`admmkit.lasso`, :mod:`admmkit.covsel`)
on their shared l1 split (:mod:`admmkit.l1split`), quadratic test instances
(:mod:`admmkit.quadratic`), and the benchmark harness (:mod:`admmkit.bench`,
CLI in :mod:`admmkit.cli`).
"""

from .engine import SolveResult, SolverError, run
from .model import (
    VARIANTS,
    DimensionMismatchError,
    EssentialState,
    Iterate,
    IterationRecord,
    SeparableProblem,
    SolverConfig,
)

__all__ = [
    "VARIANTS",
    "DimensionMismatchError",
    "EssentialState",
    "Iterate",
    "IterationRecord",
    "SeparableProblem",
    "SolveResult",
    "SolverConfig",
    "SolverError",
    "run",
]

__version__ = "0.1.0"
