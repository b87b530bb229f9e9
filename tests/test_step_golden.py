"""``run`` is bitwise a step loop that writes every formula out directly.

The reference below forms the early multiplier on every step, writes the
relaxation v - gamma (v - v_pred) out, forms every residual as Ax + By - b
and takes all six norms of the gate's rounding bound afresh. ``run`` reuses
differences and norms across these; the reuse must not change a bit of any
record, flag or returned subproblem output.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from conftest import IdentityB
from hypothesis import given, settings
from hypothesis import strategies as st

from admmkit import VARIANTS, EssentialState, SolverConfig, covsel, engine, lasso, run
from admmkit.model import IterationRecord
from admmkit.quadratic import QuadraticProblem

GOLDEN = settings(max_examples=30)


def reference_run(problem, config, v):
    """(records, x, y_pred, lam_pred) of the written-out step loop, the last
    three from its last step."""
    norm = np.linalg.norm
    beta, gamma, b = config.beta, config.gamma, problem.rhs_b
    customized = config.variant == "relaxed_customized"
    records = []
    for k in range(1, config.max_iter + 1):
        x = problem.solve_x(v.y, v.lam, beta)
        ax = problem.apply_A(x)
        early_residual = ax + problem.apply_B(v.y) - b
        lam_early = v.lam - beta * early_residual
        if customized:
            y_pred = problem.solve_y(x, lam_early, beta)
            lam_pred, residual = lam_early, early_residual
        else:
            y_pred = problem.solve_y(x, v.lam, beta)
            residual = ax + problem.apply_B(y_pred) - b
            lam_pred = v.lam - beta * residual
        b_gap = problem.apply_B(v.y - y_pred)
        crit = float((v.lam - lam_pred) @ b_gap)
        by = norm(residual) + norm(ax) + norm(b)
        scale = (norm(v.lam) + norm(lam_pred) + beta * (norm(ax) + by + norm(b))) * norm(b_gap)
        if abs(crit) <= engine.CRITERION_ROUNDING_FACTOR * np.finfo(float).eps / 2 * scale:
            crit = 0.0
        relaxed = customized or (config.variant == "over_relaxed" and crit >= 0.0)
        if relaxed:
            if gamma == 1.0:
                y_new, lam_new = y_pred, lam_pred
            else:
                y_new = v.y - gamma * (v.y - y_pred)
                lam_new = v.lam - gamma * (v.lam - lam_pred)
            r_vec = ax + problem.apply_B(y_new) - b
        else:
            y_new, lam_new, r_vec = y_pred, lam_pred, residual
        y_norm = float(norm(y_new))
        x_scale = max(float(norm(x)), y_norm)
        records.append(IterationRecord(
            k=k,
            primal_residual_norm=float(norm(r_vec)),
            dual_residual_norm=float(norm(y_new - v.y)),
            criterion_value=crit,
            relaxed=relaxed,
            eps_pri=float(math.sqrt(problem.m) * config.eps_abs + config.eps_rel * x_scale),
            eps_dual=float(math.sqrt(problem.n2) * config.eps_abs + config.eps_rel * y_norm),
        ))
        v = EssentialState(y_new, lam_new)
        finite = np.isfinite(y_new).all() and np.isfinite(lam_new).all()
        if not finite or records[-1].within_tolerance:
            break
    return records, x, y_pred, lam_pred


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _record_bits(records):
    return [tuple(_bits(getattr(r, f.name)) for f in fields(r)) for r in records]


def assert_bitwise_like_reference(problem, config, v0):
    result = run(problem, config, v0)
    records, x, y_pred, lam_pred = reference_run(problem, config, v0)
    assert _record_bits(result.records) == _record_bits(records)
    assert [r.relaxed for r in result.records] == [r.relaxed for r in records]
    for got, want in ((result.final.x, x), (result.final.y, y_pred), (result.final.lam, lam_pred)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _config(variant, beta, gamma, max_iter):
    return SolverConfig(variant=variant, beta=beta, gamma=gamma, eps_abs=1e-12, eps_rel=1e-12,
                        max_iter=max_iter)


@GOLDEN
@given(st.integers(0, 2**32 - 1), st.sampled_from(VARIANTS), st.floats(0.2, 5.0),
       st.sampled_from([1.0, 1.5, 1.8]))
def test_step_is_bitwise_the_reference_on_quadratics(seed, variant, beta, gamma):
    rng = np.random.default_rng(seed)
    n1, n2 = rng.integers(1, 6, size=2)
    problem = QuadraticProblem.random(n1=n1, n2=n2, m=int(rng.integers(max(n1, n2), 9)), rng=rng)
    v0 = EssentialState(rng.standard_normal(n2), rng.standard_normal(problem.m))
    assert_bitwise_like_reference(problem, _config(variant, beta, gamma, 25), v0)


@GOLDEN
@given(st.integers(0, 2**16), st.integers(2, 40), st.integers(2, 60), st.sampled_from(VARIANTS),
       st.sampled_from([1.0, 1.8]))
def test_step_is_bitwise_the_reference_on_lasso(seed, rows, cols, variant, gamma):
    problem, _ = lasso.generate_instance(rows, cols, seed)
    assert_bitwise_like_reference(
        problem, _config(variant, 1.0, gamma, 40), EssentialState.zeros(problem)
    )


@GOLDEN
@given(st.integers(0, 2**16), st.integers(10, 20), st.sampled_from(VARIANTS),
       st.sampled_from([1.0, 1.7]), st.sampled_from([0.5, 1.0]))
def test_step_is_bitwise_the_reference_on_covsel(seed, n, variant, gamma, beta):
    # flattened n x n matrices: the step's in-place updates on long vectors
    problem, _ = covsel.generate_instance(n, seed)
    assert_bitwise_like_reference(
        problem, _config(variant, beta, gamma, 30), EssentialState.zeros(problem)
    )


@pytest.mark.parametrize("read_only", [False, True], ids=["aliased", "read-only"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_is_bitwise_the_reference_when_apply_B_returns_its_argument(variant, read_only):
    # the engine forms residuals in apply_B's output, so it must not write
    # into y or into an array it may not write
    rng = np.random.default_rng(5)
    problem = IdentityB(2.0 * np.eye(3), rng.standard_normal(3), np.eye(4),
                        rng.standard_normal(4), rng.standard_normal((4, 3)), np.eye(4),
                        rng.standard_normal(4))
    problem.read_only = read_only
    v0 = EssentialState(rng.standard_normal(4), rng.standard_normal(4))
    y0 = v0.y.copy()
    assert_bitwise_like_reference(problem, _config(variant, 1.0, 1.7, 25), v0)
    assert v0.y.tobytes() == y0.tobytes()
