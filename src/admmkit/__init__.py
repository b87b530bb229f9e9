"""Two-block separable convex solvers with criterion-gated over-relaxation.

The package splits into a problem contract (:mod:`admmkit.model`), the
iteration engine with three variants (:mod:`admmkit.engine`), analysis-object
diagnostics (:mod:`admmkit.diagnostics`), the built-in Lasso and sparse
inverse covariance instances (:mod:`admmkit.lasso`, :mod:`admmkit.covsel`),
quadratic test instances (:mod:`admmkit.quadratic`), and the benchmark
harness (:mod:`admmkit.bench`, CLI in :mod:`admmkit.cli`).
"""

from .engine import (
    Prediction,
    SolveResult,
    SolverError,
    criterion_value,
    predict,
    relax,
    run,
)
from .model import (
    VARIANTS,
    DimensionMismatchError,
    EssentialState,
    Iterate,
    IterationRecord,
    SeparableProblem,
    SolverConfig,
    augmented_lagrangian,
)

__all__ = [
    "VARIANTS",
    "DimensionMismatchError",
    "EssentialState",
    "Iterate",
    "IterationRecord",
    "Prediction",
    "SeparableProblem",
    "SolveResult",
    "SolverConfig",
    "SolverError",
    "augmented_lagrangian",
    "criterion_value",
    "predict",
    "relax",
    "run",
]

__version__ = "0.1.0"
