"""Runtime verification of the solver's convergence-analysis identities.

The over-relaxed step admits a prediction-correction reading: the plain sweep
produces an auxiliary point, and the new essential pair is the current pair
minus a structured correction matrix M applied to the displacement. Out of M
and the prediction-gap matrix Q fall a positive-definite metric H = Q M^-1
(the norm in which the iterates are Fejer monotone toward the solution set)
and an indefinite gap form G = Q' + Q - M'HM that lower-bounds per-step
progress: a relaxed step satisfies (2 - gamma)/gamma ||v - v+||_H^2 <=
||v - v*||_H^2 - ||v+ - v*||_H^2. These, and the identities of the reading
itself, are checked step by step on a live solve by :class:`FejerMonitor`
alone, through quadratic forms that need only applications of B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Prediction, SolverError, run
from .model import EssentialState, Iterate, IterationRecord, SeparableProblem, SolverConfig
from .model import require_instance

#: Iteration cap of the plain-variant run behind :func:`reference_solution`.
REFERENCE_MAX_ITER = 10000


@dataclass(frozen=True)
class AnalysisMatrices:
    """Analysis objects for a fixed (B, beta, gamma): the quadratic forms of
    H and G need only ``beta``, ``gamma`` and ``apply_B``."""

    beta: float
    gamma: float
    apply_B: Callable[[np.ndarray], np.ndarray]


def h_norm_sq(v: EssentialState, mats: AnalysisMatrices) -> float:
    """Quadratic form v'Hv = (beta ||B y||^2 + ||lam||^2 / beta) / gamma."""
    by = mats.apply_B(v.y)
    return float((mats.beta * (by @ by) + (v.lam @ v.lam) / mats.beta) / mats.gamma)


def g_form(d: EssentialState, mats: AnalysisMatrices, bdy: np.ndarray | None = None) -> float:
    """Quadratic form d'Gd; sign-indefinite for gamma > 1. ``bdy`` is B d.y,
    applied here unless the caller has it."""
    if bdy is None:
        bdy = mats.apply_B(d.y)
    gamma, beta = mats.gamma, mats.beta
    return float(
        (2.0 - 2.0 * gamma) * beta * (bdy @ bdy)
        + 2.0 * (gamma - 1.0) * (d.lam @ bdy)
        + (2.0 - gamma) / beta * (d.lam @ d.lam)
    )


def _checks(variant: str, relaxed: bool) -> tuple[bool, bool]:
    """Whether the analysis covers (monotonicity, the gap inequality) on a step.

    Classical steps are Fejer monotone in the unit-gamma metric H(1), and an
    unrelaxed over-relaxed step is a classical step, so it is monotone in
    H(gamma) = H(1) / gamma too; the gap inequality covers only the
    over-relaxed steps that relaxed. The gate-based theory does not cover
    the relaxed-customized baseline.
    """
    return variant != "relaxed_customized", variant == "over_relaxed" and relaxed


class FejerMonitor:
    """Online Fejer diagnostics of one solve of ``problem`` under ``config``;
    pass it to :func:`run` as the observer. Classical is analysed at unit
    gamma. B's full column rank is the problem's guarantee (see
    :class:`~admmkit.model.SeparableProblem`); only ``problem.apply_B`` is read.

    ``h_dist_sq[k]`` is ||v^k - v*||_H^2 and ``g_norm_sq[k - 1]`` is the gap
    form ||v^(k-1) - v_tilde||_G^2 at step k's auxiliary point. Violations
    are (transition index k, magnitude) pairs for the transition
    v^k -> v^(k+1); they are reported rather than raised so a benchmark can
    keep running and flag the rows. Which checks apply follows the variant
    (see :func:`_checks`); the tolerance is 1e-8 times the initial distance,
    which the first step records. Only these per-step floats are kept, never
    the iterates, and one multiplier-sized scratch vector that every step
    reuses.

    It also keeps the largest residual of each identity of the reading, for
    a step v -> v+ and d = v - (y_pred, lam_early), 0.0 until a step it
    covers: ``split``, of lam_pred = lam_early + beta B d.y in the max norm
    over max(1, ||lam_pred||_inf), on the steps the monotonicity check
    covers; ``correction``, of v+ = v - M d in the 2-norm over ||v+||, and
    ``expansion``, of d'Gd = (2 - gamma)/gamma ||v - v+||_H^2
    + 2 (lam - lam_pred)'B d.y over |d'Gd|, on the steps the gap check
    covers. All three reuse the gap form's B d.y, the expansion the gap
    check's step form.
    """

    def __init__(self, problem: SeparableProblem, config: SolverConfig, v_star: EssentialState):
        gamma = 1.0 if config.variant == "classical" else config.gamma
        self.v_star = v_star
        self.mats = AnalysisMatrices(config.beta, gamma, problem.apply_B)
        self.variant = config.variant
        self.h_dist_sq: list[float] = []
        self.g_norm_sq: list[float] = []
        self.monotonicity_violations: list[tuple[int, float]] = []
        self.gap_violations: list[tuple[int, float]] = []
        self.tol = 0.0
        self.split = self.correction = self.expansion = 0.0
        self._work = None  # lam-sized, formed on the first step that needs it

    @property
    def clean(self) -> bool:
        return not self.monotonicity_violations and not self.gap_violations

    @property
    def checks(self) -> tuple[bool, bool]:
        """Whether (the monotonicity check, the gap check) runs on any step."""
        return _checks(self.variant, relaxed=True)

    def __call__(self, v_old, pred: Prediction, v_new, record: IterationRecord):
        mats, (monotone, gap) = self.mats, _checks(self.variant, record.relaxed)
        d = v_old - pred.essential_early
        bdy = mats.apply_B(d.y)
        direct = g_form(d, mats, bdy)
        self.g_norm_sq.append(direct)
        if monotone:
            # in place, in d and a kept buffer: new covsel-sized vectors fault pages
            work = self._work = np.subtract(v_old.lam, pred.lam_pred, out=self._work)
            cross = float(work @ bdy)
            beta_bdy = np.multiply(mats.beta, bdy, out=work)
            if gap:  # v+ - (v - M d), written over d
                np.subtract(d.lam, beta_bdy, out=d.lam)
                for r, old, new in ((d.y, v_old.y, v_new.y), (d.lam, v_old.lam, v_new.lam)):
                    r *= mats.gamma
                    np.subtract(new, np.subtract(old, r, out=r), out=r)
                err, size = (math.sqrt(a.y @ a.y + a.lam @ a.lam) for a in (d, v_new))
                self.correction = max(self.correction, err / max(size, 1e-300))
            split = np.subtract(pred.lam_pred, np.add(pred.lam_early, beta_bdy, out=work), out=work)
            lam_inf = max(1.0, pred.lam_pred.max(initial=0.0), -pred.lam_pred.min(initial=0.0))
            self.split = max(self.split, float(np.abs(split, out=split).max(initial=0.0) / lam_inf))
        del d, bdy  # free before the distance's vectors are formed
        if not self.h_dist_sq:
            dist = h_norm_sq(v_old - self.v_star, mats)
            self.h_dist_sq.append(dist)
            self.tol = 1e-8 * max(dist, 1e-300)
        k = len(self.h_dist_sq) - 1
        before = self.h_dist_sq[-1]
        after = h_norm_sq(v_new - self.v_star, mats)
        self.h_dist_sq.append(after)
        if monotone and after > before + self.tol:
            self.monotonicity_violations.append((k, after - before))
        if gap:
            step_form = (2.0 - mats.gamma) / mats.gamma * h_norm_sq(v_old - v_new, mats)
            rhs = before - after
            if step_form > rhs + self.tol:
                self.gap_violations.append((k, step_form - rhs))
            expanded = step_form + 2.0 * cross
            self.expansion = max(self.expansion, abs(direct - expanded) / max(abs(direct), 1e-300))

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
    """Max of the two stationarity residuals and the feasibility violation, NaN if one is.

    Zero (to tolerance) exactly at a saddle point of the Lagrangian. A ``w``
    that is not an :class:`~admmkit.model.Iterate` raises ValueError naming it.
    A NaN or an inf in ``w`` raises no floating-point warning.
    """
    require_instance("w", w, Iterate)
    w = w.validate(problem)
    with np.errstate(invalid="ignore", over="ignore"):
        feas = float(np.abs(problem.constraint_residual(w.x, w.y)).max(initial=0.0))
        terms = (problem.x_stationarity(w.x, w.lam), problem.y_stationarity(w.y, w.lam), feas)
        return float(np.max(terms))


def reference_solution(
    problem: SeparableProblem, beta: float, eps_abs: float, eps_rel: float
) -> EssentialState:
    """High-accuracy essential pair from a plain-variant run.

    Callers wanting a Fejer reference should pass tolerances ~100x tighter
    than the run under inspection, and compute this once per instance. A run
    that stops short of the tolerances within :data:`REFERENCE_MAX_ITER`
    iterations, or on a non-finite iterate, raises
    :class:`~admmkit.engine.SolverError`: distances to an unconverged point
    certify nothing.
    """
    config = SolverConfig(
        variant="classical", beta=beta, eps_abs=eps_abs, eps_rel=eps_rel,
        max_iter=REFERENCE_MAX_ITER,
    )
    result = run(problem, config)
    if result.stop_reason == "non_finite":
        raise SolverError(
            f"reference solve stopped on a non-finite iterate at iteration {result.iterations}"
        )
    if not result.converged:
        raise SolverError(
            f"reference solve did not reach eps_abs={eps_abs:g}, eps_rel={eps_rel:g} "
            f"after {result.iterations} iterations"
        )
    return EssentialState(result.final.y, result.final.lam)
