"""Iteration engine: one prediction-correction step shared by the three variants.

Each step consumes only the essential pair v = (y, lam): the x-block is an
intermediary recomputed from v. :func:`run` is the step kernel: each pass of
its loop runs one prediction sweep to the point w = (x_next, y_pred,
lam_pred), an :class:`~admmkit.model.Iterate`, evaluates the sign criterion
on d = v - (y_pred, lam_pred), and either applies the correction
v+ = v - gamma d or takes the predicted pair. The variants differ only in
two choices: ``classical`` never relaxes, ``over_relaxed`` relaxes when the
criterion is nonnegative to within its rounding error, and the
``relaxed_customized`` baseline updates the multiplier before the y-block
and always relaxes. The step's :class:`~admmkit.model.IterationRecord` says
what the gate read (``criterion_value``) and whether it fired (``relaxed``).
:func:`run` can pass every step, its point w included, to an observer, which
is how :mod:`admmkit.diagnostics` watches a solve; one step is
``run(problem, replace(config, max_iter=1), v, observer)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    EssentialState,
    Iterate,
    IterationRecord,
    SeparableProblem,
    SolverConfig,
    _residual,
    require_instance,
)


class SolverError(RuntimeError):
    """A subproblem solve failed; carries the iteration context."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of :func:`run`: the last point, one record per step, and why
    the solve stopped.

    ``stop_reason`` is ``"converged"`` when the last record met the stopping
    rule, ``"max_iter"`` when the iteration cap came first, and
    ``"non_finite"`` when a norm or threshold of the last step was not finite.
    ``final`` is the last step's w = (x_next, y_pred, lam_pred), the very
    object the observer got (a non-finite step's w is not observed) and the
    point the stopping rule certifies. After an unrelaxed step it is the new
    pair itself; after a relaxed one the observer's ``v_new`` holds the
    extrapolated pair a continued run starts from.
    """

    final: Iterate
    records: list[IterationRecord]
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def relaxed_steps(self) -> int:
        """Relaxed steps among those :func:`run` hands its observer (not a non_finite last step)."""
        seen = self.records[:-1] if self.stop_reason == "non_finite" else self.records
        return sum(rec.relaxed for rec in seen)


def _norm(v: np.ndarray) -> float:
    """||v||_2 as sqrt(v.dot(v)), the formula np.linalg.norm evaluates for a
    contiguous 1-d float vector, without its checks and copies."""
    return math.sqrt(v.dot(v))


def _multiplier(problem: SeparableProblem, ax, y, lam, beta):
    """(lam - beta r, ||r||) for the residual r = Ax + By - b, the update
    written over r."""
    r = _residual(problem, ax, y)
    r_norm = _norm(r)
    r *= beta
    return np.subtract(lam, r, out=r), r_norm


#: The criterion counts as zero within this many units of its rounding bound.
CRITERION_ROUNDING_FACTOR = 4.0

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def run(
    problem: SeparableProblem,
    config: SolverConfig,
    v0: EssentialState | None = None,
    observer: Callable[..., None] | None = None,
) -> SolveResult:
    """Iterate the configured variant until the stopping rule, a non-finite
    pair or max_iter, and say which in ``SolveResult.stop_reason``.

    Stops when the primal residual ||Ax + By - b||_2 falls below
    sqrt(m)*eps_abs + eps_rel*max(||x||, ||y||) and the dual residual
    ||y - y_prev||_2 falls below sqrt(n2)*eps_abs + eps_rel*||y||. The
    default start is the all-zero essential pair. Records are numbered from
    k = 1 for the first completed step. ``observer``, if given, is called as
    ``observer(v_old, w, v_new, record)`` after every step that does not
    stop the solve as non-finite, with ``w`` the step's subproblem output as
    an :class:`Iterate` and ``record`` the step's entry of ``records``.
    Norms overflow to inf, and an invalid operation gives NaN, without a
    numpy warning. A ``v0`` that is not an :class:`EssentialState`
    of finite vectors of the problem's sizes raises ValueError naming it, and
    so does a ``problem`` that is not a :class:`SeparableProblem`, a
    ``config`` that is not a :class:`SolverConfig` or an ``observer`` that is
    neither None nor callable, all before the first step.
    """
    require_instance("problem", problem, SeparableProblem)
    require_instance("config", config, SolverConfig)
    if observer is not None and not callable(observer):
        raise ValueError(f"observer must be None or callable, got {type(observer).__name__}")
    if v0 is not None:
        require_instance("v0", v0, EssentialState)
    v = EssentialState.zeros(problem) if v0 is None else v0.validate(problem, "v0")
    beta, eps_abs, eps_rel = config.beta, config.eps_abs, config.eps_rel
    customized = config.variant == "relaxed_customized"
    records: list[IterationRecord] = []
    lam_norm, b_norm = _norm(v.lam), float(np.linalg.norm(problem.rhs_b))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, config.max_iter + 1):
            # every array a step allocates is handed on in w or v_new or dropped
            # before the observer sees the step, and none is written once handed on
            try:
                # the sweep: x-solve, then the y-solve and the multiplier update,
                # the y-block first unless customized; lam_pred is the multiplier
                # the relaxation extrapolates toward, r_norm the norm of its residual
                x_next = problem.solve_x(v.y, v.lam, beta)
                ax = problem.apply_A(x_next)
                if customized:
                    lam_pred, r_norm = _multiplier(problem, ax, v.y, v.lam, beta)
                    y_pred = problem.solve_y(x_next, lam_pred, beta)
                else:
                    y_pred = problem.solve_y(x_next, v.lam, beta)
                    lam_pred, r_norm = _multiplier(problem, ax, y_pred, v.lam, beta)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"subproblem solve failed at iteration {k}: {exc}") from exc
            dy, dlam = v.y - y_pred, v.lam - lam_pred
            # The gate reads crit = dlam . B dy. With exact subproblem solves it is
            # exactly zero once an l1 block's sign pattern settles, so in floating
            # point its sign there is rounding: a value within c*u*S of zero reads
            # as 0.0, u the unit roundoff, c = CRITERION_ROUNDING_FACTOR and
            # S = (||lam|| + ||lam_pred|| + beta (||Ax|| + ||By|| + ||b||)) ||B dy||
            # bounding the terms crit and its multipliers were summed from.
            # ||By||, for the y-block behind lam_pred, is at most ||r|| + ||Ax|| +
            # ||b||, r that multiplier's residual, so S takes no operator application.
            b_gap = problem.apply_B(dy)
            if k == 1 and np.shares_memory(b_gap, lam_pred):  # a buffer apply_B keeps
                raise ValueError("apply_B must return a new array, not the one lam_pred is in")
            crit, gap_sq = float(dlam.dot(b_gap)), b_gap.dot(b_gap)
            del b_gap
            ax_norm, lam_pred_norm = _norm(ax), _norm(lam_pred)
            by_norm = r_norm + ax_norm + b_norm
            scale = (lam_norm + lam_pred_norm
                     + beta * (ax_norm + by_norm + b_norm)) * math.sqrt(gap_sq)
            if abs(crit) <= CRITERION_ROUNDING_FACTOR * _UNIT_ROUNDOFF * scale:
                crit = 0.0
            relaxed = customized or (config.variant == "over_relaxed" and crit >= 0.0)
            if relaxed:
                # v - gamma d, written over d; gamma = 1 takes the predicted pair
                # itself, so a unit-factor relaxed run is bitwise the plain variant
                g = config.gamma
                if g == 1.0:
                    y_new, lam_new = y_pred, lam_pred
                else:
                    dy *= g
                    dlam *= g
                    y_new = np.subtract(v.y, dy, out=dy)
                    lam_new = np.subtract(v.lam, dlam, out=dlam)
                del dy, dlam  # d's buffers are the new pair or free before the residual
                r_norm = _norm(_residual(problem, ax, y_new))
                dual = _norm(y_new - v.y)
                lam_norm = _norm(lam_new)
            else:
                # an unrelaxed step's change is -d, with the same norm to the bit,
                # and its residual is the sweep's
                y_new, lam_new = y_pred, lam_pred
                dual, lam_norm = _norm(dy), lam_pred_norm
                del dy, dlam
            x_norm = ax_norm if ax is x_next else _norm(x_next)
            y_norm = _norm(y_new)
            record = IterationRecord(
                k=k,
                primal_residual_norm=r_norm,
                dual_residual_norm=dual,
                criterion_value=crit,
                relaxed=relaxed,
                eps_pri=math.sqrt(problem.m) * eps_abs + eps_rel * max(x_norm, y_norm),
                eps_dual=math.sqrt(problem.n2) * eps_abs + eps_rel * y_norm,
            )
            records.append(record)
            # eps_dual carries ||y_new||: eps_rel > 0
            finite = all(map(math.isfinite,
                             (r_norm, dual, lam_norm, record.eps_pri, record.eps_dual)))
            w, v_new = Iterate(x_next, y_pred, lam_pred), EssentialState(y_new, lam_new)
            if finite and observer is not None:
                observer(v, w, v_new, record)
            if not finite or record.within_tolerance or k == config.max_iter:
                break
            del w, x_next, ax, y_pred, lam_pred  # free the sweep before the next step allocates
            v = v_new
    stop_reason = "converged" if record.within_tolerance else "max_iter"
    if not finite:
        stop_reason = "non_finite"
    return SolveResult(w, records, stop_reason)
