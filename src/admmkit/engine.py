"""Iteration engine: one prediction-correction step shared by the three variants.

Each step consumes only the essential pair v = (y, lam): the x-block is an
intermediary recomputed from v. A step runs one prediction sweep
(:func:`predict`) to the auxiliary point, evaluates the sign criterion
(:func:`criterion_value`), and either applies the correction
v+ = v - gamma (v - v_pred) (:func:`relax`) or takes the predicted pair. The
variants differ only in two choices: ``classical`` never relaxes,
``over_relaxed`` relaxes when the criterion is nonnegative, and the
``relaxed_customized`` baseline updates the multiplier before the y-block and
always relaxes. :func:`run` iterates the step and can pass every step to an
observer, which is how :mod:`admmkit.diagnostics` watches a solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    EssentialState,
    Iterate,
    IterationRecord,
    SeparableProblem,
    SolverConfig,
)


class SolverError(RuntimeError):
    """A subproblem solve failed; carries the iteration context."""


@dataclass(frozen=True)
class Prediction:
    """Output of one prediction sweep from the current essential pair.

    ``lam_pred`` is the multiplier the relaxation extrapolates toward and
    ``lam_early`` the multiplier updated with the not-yet-updated y-block. In
    the plain sweep ``lam_pred`` uses the new y-block, so the two differ by
    exactly beta * B(y_old - y_pred); in the multiplier-first sweep the
    y-block is solved against ``lam_early`` and ``lam_pred`` is ``lam_early``.
    ``ax`` is A x_next and ``residual`` is the constraint residual behind
    ``lam_pred``, so a step can reuse both.
    """

    x_next: np.ndarray
    y_pred: np.ndarray
    lam_pred: np.ndarray
    lam_early: np.ndarray
    ax: np.ndarray
    residual: np.ndarray

    @property
    def essential(self) -> EssentialState:
        return EssentialState(self.y_pred, self.lam_pred)

    @property
    def essential_early(self) -> EssentialState:
        """The auxiliary point (y_pred, lam_early) of the correction identity."""
        return EssentialState(self.y_pred, self.lam_early)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of :func:`run`.

    ``final`` holds the last x-block and the last essential pair. For
    ``relaxed_customized`` that pair is relaxed, not a subproblem output: an
    l1 block's entries moved off zero by the extrapolation leave a
    membership residual, so ``kkt_residual`` at ``final`` can be about twice
    the l1 weight even on a converged solve. ``abort_reason`` is set when the
    solve stopped on a non-finite iterate.
    """

    final: Iterate
    records: list[IterationRecord]
    converged: bool
    iterations: int
    abort_reason: str | None = None


def predict(
    problem: SeparableProblem,
    v: EssentialState,
    beta: float,
    multiplier_first: bool = False,
) -> Prediction:
    """Run one prediction sweep: x-solve, then the y-solve and multiplier
    updates, the y-block first unless ``multiplier_first``."""
    x_next = problem.solve_x(v.y, v.lam, beta)
    ax = problem.apply_A(x_next)
    rhs = problem.rhs_b
    early_residual = ax + problem.apply_B(v.y) - rhs
    lam_early = v.lam - beta * early_residual
    if multiplier_first:
        y_pred = problem.solve_y(x_next, lam_early, beta)
        return Prediction(x_next, y_pred, lam_early, lam_early, ax, early_residual)
    y_pred = problem.solve_y(x_next, v.lam, beta)
    residual = ax + problem.apply_B(y_pred) - rhs
    return Prediction(x_next, y_pred, v.lam - beta * residual, lam_early, ax, residual)


def _criterion(pred: Prediction, v: EssentialState, problem: SeparableProblem):
    """The criterion value and B(y - y_pred), which an unrelaxed step reuses."""
    b_gap = problem.apply_B(v.y - pred.y_pred)
    return float((v.lam - pred.lam_pred) @ b_gap), b_gap


def criterion_value(pred: Prediction, v: EssentialState, problem: SeparableProblem) -> float:
    """Relaxation-safety inner product (lam - lam_pred) . B(y - y_pred)."""
    return _criterion(pred, v, problem)[0]


def relax(v: EssentialState, pred: Prediction, gamma: float) -> EssentialState:
    """Extrapolate: v - gamma * (v - predicted point).

    gamma = 1 returns the predicted pair exactly (no arithmetic), so a
    unit-factor relaxed run is bitwise identical to the plain variant.
    """
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"gamma must lie in (0, 2), got {gamma}")
    if gamma == 1.0:
        return pred.essential
    return EssentialState(
        v.y - gamma * (v.y - pred.y_pred),
        v.lam - gamma * (v.lam - pred.lam_pred),
    )


def _step(problem: SeparableProblem, v: EssentialState, config: SolverConfig, k: int):
    """One prediction-correction step; returns (pred, v_new, record)."""
    customized = config.variant == "relaxed_customized"
    pred = predict(problem, v, config.beta, multiplier_first=customized)
    # b_dy starts as B(y - y_pred): on an unrelaxed step that is -B(y_new - y),
    # whose squared norm is the same to the bit
    crit, b_dy = _criterion(pred, v, problem)
    relaxed = customized or (config.variant == "over_relaxed" and crit >= 0.0)
    if relaxed:
        v_new = relax(v, pred, config.gamma)
        r_vec = pred.ax + problem.apply_B(v_new.y) - problem.rhs_b
        b_dy = problem.apply_B(v_new.y - v.y)
    else:
        v_new, r_vec = pred.essential, pred.residual
    dy = v_new.y - v.y
    d_lam = v_new.lam - v.lam
    x_norm = float(np.linalg.norm(pred.x_next))
    y_norm = float(np.linalg.norm(v_new.y))
    eps_pri = np.sqrt(problem.m) * config.eps_abs + config.eps_rel * max(x_norm, y_norm)
    eps_dual = np.sqrt(problem.n2) * config.eps_abs + config.eps_rel * y_norm
    record = IterationRecord(
        k=k,
        primal_residual_norm=float(np.linalg.norm(r_vec)),
        dual_residual_norm=float(np.linalg.norm(dy)),
        criterion_value=crit,
        relaxed=relaxed,
        eps_pri=float(eps_pri),
        eps_dual=float(eps_dual),
        essential_change_sq=float(b_dy @ b_dy + d_lam @ d_lam),
    )
    return pred, v_new, record


def run(
    problem: SeparableProblem,
    config: SolverConfig,
    v0: EssentialState | None = None,
    observer: Callable[..., None] | None = None,
) -> SolveResult:
    """Iterate the configured variant until the stopping rule or max_iter.

    Stops when the primal residual ||Ax + By - b||_2 falls below
    sqrt(m)*eps_abs + eps_rel*max(||x||, ||y||) and the dual residual
    ||y - y_prev||_2 falls below sqrt(n2)*eps_abs + eps_rel*||y||. The
    default start is the all-zero essential pair. Records are numbered from
    k = 1 for the first completed step. ``observer``, if given, is called as
    ``observer(k, v_old, pred, v_new, relaxed, criterion)`` after every step
    whose new pair is finite.
    """
    if v0 is None:
        v = EssentialState.zeros(problem)
    else:
        v = v0.validate(problem)
    records: list[IterationRecord] = []
    x_last = np.zeros(problem.n1)
    converged = False
    abort_reason = None
    for k in range(1, config.max_iter + 1):
        try:
            pred, v_new, record = _step(problem, v, config, k)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"subproblem solve failed at iteration {k}: {exc}") from exc
        records.append(record)
        x_last = pred.x_next
        if not v_new.finite:
            v = v_new
            abort_reason = f"non-finite iterate at iteration {k}"
            break
        if observer is not None:
            observer(k, v, pred, v_new, record.relaxed, record.criterion_value)
        del pred  # free the prediction's arrays before the next step allocates
        v = v_new
        if record.within_tolerance:
            converged = True
            break
    return SolveResult(
        final=Iterate(x_last, v.y, v.lam),
        records=records,
        converged=converged,
        iterations=len(records),
        abort_reason=abort_reason,
    )
