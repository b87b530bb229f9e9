"""Runtime verification of the solver's convergence-analysis identities.

The over-relaxed step admits a prediction-correction reading: the plain sweep
produces an auxiliary point, and the new essential pair is the current pair
minus a structured correction matrix M applied to the displacement. Out of M
and the prediction-gap matrix Q fall a positive-definite metric H = Q M^-1
(the norm in which the iterates are Fejer monotone toward the solution set)
and an indefinite gap form G = Q' + Q - M'HM that lower-bounds per-step
progress. This module materializes those objects on small instances, and
checks the identities and monotonicity claims step by step on a live solve
through their quadratic forms, which need only applications of B.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Prediction, SolverError, run
from .model import EssentialState, Iterate, IterationRecord, SeparableProblem, SolverConfig

#: Largest n2 + m for which M, Q, H, G are materialized as dense arrays.
DENSE_LIMIT = 2000

#: Iteration cap of the plain-variant run behind :func:`reference_solution`.
REFERENCE_MAX_ITER = 10000


@dataclass(frozen=True)
class AnalysisMatrices:
    """Analysis objects for a fixed (B, beta, gamma).

    In dense mode ``M``, ``Q``, ``H``, ``G`` are (n2+m) x (n2+m) arrays with
    the block layout [y-block; multiplier-block]. In matrix-free mode they are
    None and only the quadratic forms (which need just B-applications) are
    available.
    """

    beta: float
    gamma: float
    apply_B: Callable[[np.ndarray], np.ndarray]
    M: np.ndarray | None = None
    Q: np.ndarray | None = None
    H: np.ndarray | None = None
    G: np.ndarray | None = None

    @property
    def dense(self) -> bool:
        return self.H is not None


def _validate_params(beta: float, gamma: float) -> None:
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"gamma must lie in (0, 2), got {gamma}")


def _require_full_column_rank(B: np.ndarray) -> None:
    """Raise ValueError unless B's singular values stay above 1e-10 times the
    largest; otherwise H is not positive definite."""
    m, n2 = B.shape
    svals = np.linalg.svd(B, compute_uv=False)
    if m < n2 or svals[-1] <= 1e-10 * svals[0]:
        raise ValueError("H not positive definite: B rank-deficient")


def _dense_B(problem: SeparableProblem) -> np.ndarray:
    """B materialized by applying the constraint operator to basis vectors."""
    return np.column_stack([problem.apply_B(e) for e in np.eye(problem.n2)])


def build_matrices(B: np.ndarray, beta: float, gamma: float) -> AnalysisMatrices:
    """Materialize M, Q, H, G for a dense constraint block B.

    B must have full column rank (checked through its singular values at
    relative tolerance 1e-10); otherwise H is not positive definite and a
    ValueError is raised.
    """
    _validate_params(beta, gamma)
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise ValueError("B must be a 2-d array")
    m, n2 = B.shape
    if n2 + m > DENSE_LIMIT:
        raise ValueError(
            f"n2 + m = {n2 + m} exceeds the dense materialization limit "
            f"{DENSE_LIMIT}; use build_matrices_for for matrix-free forms"
        )
    _require_full_column_rank(B)

    eye_y = np.eye(n2)
    eye_m = np.eye(m)
    btb = B.T @ B
    btb = (btb + btb.T) / 2.0  # exact symmetry for the diagonal blocks

    M = np.block([[gamma * eye_y, np.zeros((n2, m))], [-gamma * beta * B, gamma * eye_m]])
    Q = np.block([[beta * btb, np.zeros((n2, m))], [-B, eye_m / beta]])
    H = np.block(
        [[beta * btb / gamma, np.zeros((n2, m))], [np.zeros((m, n2)), eye_m / (beta * gamma)]]
    )
    G = np.block(
        [
            [(2.0 - 2.0 * gamma) * beta * btb, (gamma - 1.0) * B.T],
            [(gamma - 1.0) * B, (2.0 - gamma) / beta * eye_m],
        ]
    )
    mats = AnalysisMatrices(
        beta=beta, gamma=gamma, apply_B=lambda y, _B=B: _B @ y, M=M, Q=Q, H=H, G=G
    )
    gap = g_decomposition_residual(mats)
    scale = max(1.0, float(np.abs(G).max()))
    if gap > 1e-8 * scale:
        warnings.warn(
            f"G deviates from Q' + Q - M'HM by {gap:.3e}; "
            "analysis forms may be inconsistent",
            stacklevel=2,
        )
    return mats


def build_matrices_for(problem: SeparableProblem, beta: float, gamma: float) -> AnalysisMatrices:
    """Analysis objects for a problem instance.

    Materializes B by applying the constraint operator to basis vectors and
    builds the dense objects when n2 + m fits under :data:`DENSE_LIMIT`;
    beyond that the quadratic forms are evaluated matrix-free through apply_B.
    """
    _validate_params(beta, gamma)
    if problem.n2 + problem.m <= DENSE_LIMIT:
        return build_matrices(_dense_B(problem), beta, gamma)
    return AnalysisMatrices(beta=beta, gamma=gamma, apply_B=problem.apply_B)


def g_decomposition_residual(mats: AnalysisMatrices) -> float:
    """Max-norm gap between the stated G and Q' + Q - M'HM (dense mode only)."""
    if not mats.dense:
        raise ValueError("G decomposition check requires dense matrices")
    recon = mats.Q.T + mats.Q - mats.M.T @ mats.H @ mats.M
    return float(np.abs(mats.G - recon).max())


def h_norm_sq(v: EssentialState, mats: AnalysisMatrices) -> float:
    """Quadratic form v'Hv = (beta ||B y||^2 + ||lam||^2 / beta) / gamma."""
    by = mats.apply_B(v.y)
    return float((mats.beta * by @ by + (v.lam @ v.lam) / mats.beta) / mats.gamma)


def g_form(d: EssentialState, mats: AnalysisMatrices) -> float:
    """Quadratic form d'Gd; sign-indefinite for gamma > 1."""
    bdy = mats.apply_B(d.y)
    gamma, beta = mats.gamma, mats.beta
    return float(
        (2.0 - 2.0 * gamma) * beta * (bdy @ bdy)
        + 2.0 * (gamma - 1.0) * (d.lam @ bdy)
        + (2.0 - gamma) / beta * (d.lam @ d.lam)
    )


def g_norm_expanded(
    pred: Prediction, v_k: EssentialState, v_next: EssentialState, mats: AnalysisMatrices
) -> float:
    """Step-form evaluation of ||v - v_tilde||_G^2 after a relaxed step.

    Rewrites the gap form in terms of the realized step (y_k - y_next,
    lam_k - lam_next) plus the criterion inner product; must agree with
    :func:`g_form` on the displacement to the auxiliary point whenever the
    step used the relaxation factor gamma.
    """
    gamma, beta = mats.gamma, mats.beta
    b_step = mats.apply_B(v_k.y - v_next.y)
    d_lam = v_k.lam - v_next.lam
    cross = (v_k.lam - pred.lam_pred) @ mats.apply_B(v_k.y - pred.y_pred)
    return float(
        (2.0 - gamma) / gamma**2 * beta * (b_step @ b_step)
        + (2.0 - gamma) / (gamma**2 * beta) * (d_lam @ d_lam)
        + 2.0 * cross
    )


def correction_residual(
    v_k: EssentialState, v_next: EssentialState, pred: Prediction, mats: AnalysisMatrices
) -> float:
    """Relative error in the correction identity v_next = v_k - M (v_k - v_tilde).

    The auxiliary point is (y_pred, lam_early) and M is taken at the analysis
    gamma; a step where the relaxation was skipped is checked against
    matrices built at gamma 1.
    """
    d = v_k - pred.essential_early
    m_dy = mats.gamma * d.y
    m_dlam = mats.gamma * (d.lam - mats.beta * mats.apply_B(d.y))
    expected = EssentialState(v_k.y - m_dy, v_k.lam - m_dlam)
    err = np.linalg.norm((v_next - expected).stacked())
    scale = max(float(np.linalg.norm(v_next.stacked())), 1e-300)
    return float(err / scale)


def _checks(variant: str, relaxed: bool) -> tuple[bool, bool]:
    """Whether the analysis covers (monotonicity, the gap inequality) on a step.

    Classical steps are Fejer monotone in the unit-gamma metric. Over-relaxed
    steps are covered only when the criterion held and the step relaxed. The
    gate-based theory does not cover the relaxed-customized baseline. A
    relaxed step gets every check an unrelaxed one of the same variant does.
    """
    if variant == "classical":
        return True, False
    if variant == "over_relaxed":
        return relaxed, relaxed
    return False, False


class FejerMonitor:
    """Online Fejer diagnostics of one solve; pass it to :func:`run` as the
    observer, or feed it transitions through :meth:`transition`.

    ``h_dist_sq[k]`` is ||v^k - v*||_H^2 and ``g_norm_sq[k - 1]`` is the gap
    form ||v^(k-1) - v_tilde||_G^2 at step k's auxiliary point (observer use
    only). Violations are (transition index k, magnitude) pairs for the
    transition v^k -> v^(k+1); they are reported rather than raised so a
    benchmark can keep running and flag the rows. Which checks apply follows
    the variant (see :func:`_checks`); the tolerance is 1e-8 times the initial
    distance. Only these per-step floats are kept, never the iterates.
    """

    def __init__(self, v_star: EssentialState, mats: AnalysisMatrices, variant: str):
        self.v_star = v_star
        self.mats = mats
        self.variant = variant
        self.h_dist_sq: list[float] = []
        self.g_norm_sq: list[float] = []
        self.monotonicity_violations: list[tuple[int, float]] = []
        self.gap_violations: list[tuple[int, float]] = []
        self.tol = 0.0

    @classmethod
    def for_config(
        cls, problem: SeparableProblem, config: SolverConfig, v_star: EssentialState
    ) -> "FejerMonitor":
        """Matrix-free monitor of a solve under ``config``; classical is
        analysed at unit gamma. Up to :data:`DENSE_LIMIT` B's rank is checked
        as :func:`build_matrices` checks it."""
        if problem.n2 + problem.m <= DENSE_LIMIT:
            _require_full_column_rank(_dense_B(problem))
        gamma = 1.0 if config.variant == "classical" else config.gamma
        return cls(v_star, AnalysisMatrices(config.beta, gamma, problem.apply_B), config.variant)

    @property
    def clean(self) -> bool:
        return not self.monotonicity_violations and not self.gap_violations

    @property
    def checks(self) -> tuple[bool, bool]:
        """Whether (the monotonicity check, the gap check) runs on any step."""
        return _checks(self.variant, relaxed=True)

    def __call__(self, k, v_old, pred: Prediction, v_new, relaxed: bool, criterion: float):
        self.g_norm_sq.append(g_form(v_old - pred.essential_early, self.mats))
        self.transition(v_old, v_new, relaxed)

    def transition(self, v_old, v_new, relaxed: bool) -> None:
        """Record v_old -> v_new and run the checks the variant covers on it.

        The first transition records the starting distance, which sets the
        tolerance.
        """
        if not self.h_dist_sq:
            dist = h_norm_sq(v_old - self.v_star, self.mats)
            self.h_dist_sq.append(dist)
            self.tol = 1e-8 * max(dist, 1e-300)
        monotone, gap = _checks(self.variant, relaxed)
        k = len(self.h_dist_sq) - 1
        before = self.h_dist_sq[-1]
        after = h_norm_sq(v_new - self.v_star, self.mats)
        self.h_dist_sq.append(after)
        if monotone and after > before + self.tol:
            self.monotonicity_violations.append((k, after - before))
        if gap:
            gamma, beta = self.mats.gamma, self.mats.beta
            c1 = (2.0 - gamma) / gamma**2 * beta
            c2 = (2.0 - gamma) / (gamma**2 * beta)
            d = v_old - v_new
            bdy = self.mats.apply_B(d.y)
            lhs = c1 * float(bdy @ bdy) + c2 * float(d.lam @ d.lam)
            rhs = before - after
            if lhs > rhs + self.tol:
                self.gap_violations.append((k, lhs - rhs))

    def row(self, rec: IterationRecord) -> list:
        """h_dist_sq, g_norm_sq and the two violation flags of the step behind
        ``rec`` as CSV cells; a flag is blank when its check did not run on
        the step, and every cell is blank when the step was not observed."""
        k = rec.k
        if k >= len(self.h_dist_sq):
            return ["", "", "", ""]
        checked = _checks(self.variant, rec.relaxed)
        flags = [
            int(any(i == k - 1 for i, _ in found)) if ran else ""
            for ran, found in zip(checked, (self.monotonicity_violations, self.gap_violations))
        ]
        return [self.h_dist_sq[k], self.g_norm_sq[k - 1], *flags]


def kkt_residual(problem: SeparableProblem, w: Iterate) -> float:
    """Max of the two stationarity residuals and the feasibility violation.

    Zero (to tolerance) exactly at a saddle point of the Lagrangian.
    """
    w = w.validate(problem)
    feas = float(np.abs(problem.constraint_residual(w.x, w.y)).max(initial=0.0))
    return max(
        problem.x_stationarity(w.x, w.lam),
        problem.y_stationarity(w.y, w.lam),
        feas,
    )


def reference_solution(
    problem: SeparableProblem, beta: float, eps_abs: float, eps_rel: float
) -> EssentialState:
    """High-accuracy essential pair from a plain-variant run.

    Callers wanting a Fejer reference should pass tolerances ~100x tighter
    than the run under inspection, and compute this once per instance. A run
    that stops short of the tolerances within :data:`REFERENCE_MAX_ITER`
    iterations raises :class:`~admmkit.engine.SolverError`: distances to an
    unconverged point certify nothing.
    """
    config = SolverConfig(
        variant="classical", beta=beta, eps_abs=eps_abs, eps_rel=eps_rel,
        max_iter=REFERENCE_MAX_ITER,
    )
    result = run(problem, config)
    if not result.converged:
        raise SolverError(
            f"reference solve did not reach eps_abs={eps_abs:g}, eps_rel={eps_rel:g} "
            f"after {result.iterations} iterations"
        )
    return EssentialState(result.final.y, result.final.lam)
