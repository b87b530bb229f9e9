"""Runtime verification of the solver's convergence-analysis identities.

The over-relaxed step admits a prediction-correction reading: the plain sweep
produces an auxiliary point, and the new essential pair is the current pair
minus a structured correction matrix M applied to the displacement. Out of M
and the prediction-gap matrix Q fall a positive-definite metric H = Q M^-1
(the norm in which the iterates are Fejer monotone toward the solution set)
and an indefinite gap form G = Q' + Q - M'HM that lower-bounds per-step
progress. This module materializes those objects on small instances (or
evaluates their quadratic forms matrix-free on large ones) and checks the
identities and monotonicity claims step by step on a live solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Prediction, run
from .model import EssentialState, Iterate, SeparableProblem, SolverConfig

#: Largest n2 + m for which M, Q, H, G are materialized as dense arrays.
DENSE_LIMIT = 2000


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
    n2: int
    m: int
    apply_B: Callable[[np.ndarray], np.ndarray]
    B: np.ndarray | None = None
    M: np.ndarray | None = None
    Q: np.ndarray | None = None
    H: np.ndarray | None = None
    G: np.ndarray | None = None

    @property
    def dense(self) -> bool:
        return self.H is not None

    def split(self, stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return stacked[: self.n2], stacked[self.n2 :]


def _validate_params(beta: float, gamma: float) -> None:
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"gamma must lie in (0, 2), got {gamma}")


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
    svals = np.linalg.svd(B, compute_uv=False)
    if m < n2 or svals[-1] <= 1e-10 * svals[0]:
        raise ValueError("H not positive definite: B rank-deficient")

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
        beta=beta, gamma=gamma, n2=n2, m=m,
        apply_B=lambda y, _B=B: _B @ y,
        B=B, M=M, Q=Q, H=H, G=G,
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


def build_matrices_for(
    problem: SeparableProblem,
    beta: float,
    gamma: float,
    dense_limit: int = DENSE_LIMIT,
) -> AnalysisMatrices:
    """Analysis objects for a problem instance.

    Materializes B by applying the constraint operator to basis vectors and
    builds the dense objects when n2 + m fits under ``dense_limit``; beyond
    that the quadratic forms are evaluated matrix-free through apply_B.
    """
    _validate_params(beta, gamma)
    if problem.n2 + problem.m <= dense_limit:
        basis = np.eye(problem.n2)
        B = np.column_stack([problem.apply_B(basis[:, j]) for j in range(problem.n2)])
        return build_matrices(B, beta, gamma)
    return AnalysisMatrices(
        beta=beta, gamma=gamma, n2=problem.n2, m=problem.m, apply_B=problem.apply_B
    )


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
    pred: Prediction,
    v_k: EssentialState,
    v_next: EssentialState,
    mats: AnalysisMatrices,
    problem: SeparableProblem | None = None,
) -> float:
    """Step-form evaluation of ||v - v_tilde||_G^2 after a relaxed step.

    Rewrites the gap form in terms of the realized step (y_k - y_next,
    lam_k - lam_next) plus the criterion inner product; must agree with
    :func:`g_form` on the displacement to the auxiliary point whenever the
    step used the relaxation factor gamma.
    """
    apply_B = problem.apply_B if problem is not None else mats.apply_B
    gamma, beta = mats.gamma, mats.beta
    b_step = apply_B(v_k.y - v_next.y)
    d_lam = v_k.lam - v_next.lam
    cross = (v_k.lam - pred.lam_pred) @ apply_B(v_k.y - pred.y_pred)
    return float(
        (2.0 - gamma) / gamma**2 * beta * (b_step @ b_step)
        + (2.0 - gamma) / (gamma**2 * beta) * (d_lam @ d_lam)
        + 2.0 * cross
    )


def correction_residual(
    v_k: EssentialState,
    v_next: EssentialState,
    pred: Prediction,
    mats: AnalysisMatrices,
    gamma: float | None = None,
) -> float:
    """Relative error in the correction identity v_next = v_k - M (v_k - v_tilde).

    The auxiliary point is (y_pred, lam_early). ``gamma`` defaults to the
    analysis gamma; pass 1.0 to check a step where the relaxation was skipped.
    """
    g = mats.gamma if gamma is None else gamma
    d = v_k - pred.essential_early
    m_dy = g * d.y
    m_dlam = g * (d.lam - mats.beta * mats.apply_B(d.y))
    expected = EssentialState(v_k.y - m_dy, v_k.lam - m_dlam)
    err = np.linalg.norm((v_next - expected).stacked())
    scale = max(float(np.linalg.norm(v_next.stacked())), 1e-300)
    return float(err / scale)


def _checks(variant: str, relaxed: bool) -> tuple[bool, bool]:
    """Whether the analysis covers (monotonicity, the gap inequality) on a step.

    Classical steps are Fejer monotone in the unit-gamma metric. Over-relaxed
    steps are covered only when the criterion held and the step relaxed. The
    gate-based theory does not cover the relaxed-customized baseline.
    """
    if variant == "classical":
        return True, False
    if variant == "over_relaxed":
        return relaxed, relaxed
    return False, False


class FejerMonitor:
    """Online Fejer diagnostics of one solve; pass it to :func:`run` as the
    observer, or get one filled from a list through :func:`fejer_check`.

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
        """Monitor of a solve under ``config``; classical is analysed at unit gamma."""
        gamma = 1.0 if config.variant == "classical" else config.gamma
        return cls(v_star, build_matrices_for(problem, config.beta, gamma), config.variant)

    @property
    def clean(self) -> bool:
        return not self.monotonicity_violations and not self.gap_violations

    def __call__(self, k, v_old, pred: Prediction, v_new, relaxed: bool, criterion: float):
        self.g_norm_sq.append(g_form(v_old - pred.essential_early, self.mats))
        self.transition(v_old, v_new, *_checks(self.variant, relaxed))

    def start(self, v0: EssentialState) -> None:
        """Record the starting distance, which sets the tolerance."""
        dist = h_norm_sq(v0 - self.v_star, self.mats)
        self.h_dist_sq.append(dist)
        self.tol = 1e-8 * max(dist, 1e-300)

    def transition(self, v_old, v_new, monotone: bool, gap: bool) -> None:
        """Record v_old -> v_new and run the requested checks on it."""
        if not self.h_dist_sq:
            self.start(v_old)
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

    def row(self, k: int) -> list:
        """h_dist_sq, g_norm_sq and the two violation flags of step k as CSV
        cells; blanks when step k was not observed."""
        if k >= len(self.h_dist_sq):
            return ["", "", "", ""]
        return [
            self.h_dist_sq[k],
            self.g_norm_sq[k - 1],
            int(any(i == k - 1 for i, _ in self.monotonicity_violations)),
            int(any(i == k - 1 for i, _ in self.gap_violations)),
        ]


def fejer_check(
    trajectory: list[EssentialState],
    v_star: EssentialState,
    mats: AnalysisMatrices,
    relaxed: list[bool] | None = None,
) -> FejerMonitor:
    """Check Fejer monotonicity of ||v^k - v*||_H^2 along a trajectory.

    ``relaxed`` marks which transitions were criterion-holding relaxation
    steps (trajectory[k] -> trajectory[k+1]); on those the per-step gap
    inequality with constants C1 = (2-gamma)/gamma^2 * beta and
    C2 = (2-gamma)/(gamma^2 beta) is checked as well, as for an over-relaxed
    solve. With ``relaxed=None`` every transition is checked for monotonicity
    only, as for a classical one. Tolerance is 1e-8 times the initial distance.
    """
    monitor = FejerMonitor(v_star, mats, "classical" if relaxed is None else "over_relaxed")
    if trajectory:
        monitor.start(trajectory[0])
    for k in range(len(trajectory) - 1):
        flag = relaxed is not None and relaxed[k]
        monitor.transition(trajectory[k], trajectory[k + 1], *_checks(monitor.variant, flag))
    return monitor


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
    problem: SeparableProblem,
    beta: float,
    eps_abs: float,
    eps_rel: float,
    max_iter: int = 10000,
) -> EssentialState:
    """High-accuracy essential pair from a plain-variant run.

    Callers wanting a Fejer reference should pass tolerances ~100x tighter
    than the run under inspection, and compute this once per instance.
    """
    config = SolverConfig(
        variant="classical", beta=beta, eps_abs=eps_abs, eps_rel=eps_rel, max_iter=max_iter
    )
    result = run(problem, config)
    return EssentialState(result.final.y, result.final.lam)
