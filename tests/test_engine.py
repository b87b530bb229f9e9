import numpy as np
import pytest

from admmkit import (
    EssentialState,
    SolverConfig,
    SolverError,
    criterion_value,
    predict,
    relax,
    run,
)
from admmkit import lasso
from admmkit.covsel import generate_instance as generate_covsel
from admmkit.quadratic import QuadraticProblem


# closed forms on the 1-d chain: x = (lam + beta*y)/(1+beta),
# y_pred = (beta*x - lam)/(1+beta)

def test_predict_scalar_chain_closed_form(chain, chain_start):
    pred = predict(chain, chain_start, beta=1.0)
    assert pred.x_next == pytest.approx(0.5)
    assert pred.y_pred == pytest.approx(0.25)
    assert pred.lam_pred == pytest.approx(-0.25)
    assert pred.lam_early == pytest.approx(0.5)


def test_prediction_multiplier_split_identity(small_quadratic, rng):
    problem = small_quadratic
    for _ in range(10):
        v = EssentialState(rng.standard_normal(problem.n2), rng.standard_normal(problem.m))
        beta = float(rng.uniform(0.2, 5.0))
        pred = predict(problem, v, beta)
        recombined = pred.lam_early + beta * problem.apply_B(v.y - pred.y_pred)
        assert np.abs(pred.lam_pred - recombined).max() <= 1e-12 * max(
            1.0, np.abs(pred.lam_pred).max()
        )


def test_predict_at_fixed_point_keeps_multiplier(chain):
    v = EssentialState(np.array([0.0]), np.array([0.0]))
    pred = predict(chain, v, beta=1.0)
    assert np.array_equal(pred.lam_pred, v.lam)


def test_predict_satisfies_subproblem_optimality_on_lasso(rng):
    instance, _ = lasso.generate_instance(60, 100, 1)
    for _ in range(5):
        v = EssentialState(rng.standard_normal(100), rng.standard_normal(100))
        pred = predict(instance, v, beta=1.0)
        assert instance.x_subproblem_residual(pred.x_next, v.y, v.lam, 1.0) <= 1e-10
        assert instance.y_subproblem_residual(pred.y_pred, pred.x_next, v.lam, 1.0) <= 1e-10


def test_criterion_value_scalar_chain(chain, chain_start):
    pred = predict(chain, chain_start, beta=1.0)
    assert criterion_value(pred, chain_start, chain) == pytest.approx(-0.1875)


def test_criterion_zero_at_fixed_point(chain, one_step):
    v = EssentialState(np.array([0.0]), np.array([0.0]))
    pred = predict(chain, v, beta=1.0)
    assert criterion_value(pred, v, chain) == 0.0
    v_next, rec = one_step(chain, v, SolverConfig(variant="over_relaxed", gamma=1.8))
    assert rec.relaxed
    assert np.array_equal(v_next.y, v.y) and np.array_equal(v_next.lam, v.lam)


def test_relax_arithmetic(chain, chain_start):
    pred = predict(chain, chain_start, beta=1.0)
    out = relax(chain_start, pred, 1.5)
    assert out.y == pytest.approx(-0.125)
    assert out.lam == pytest.approx(-0.375)


def test_relax_gamma_one_returns_prediction_exactly(chain, chain_start):
    pred = predict(chain, chain_start, beta=1.0)
    out = relax(chain_start, pred, 1.0)
    assert out.y is pred.y_pred and out.lam is pred.lam_pred


def test_relax_fixed_point_is_fixed(rng):
    y = rng.standard_normal(4)
    lam = rng.standard_normal(4)
    v = EssentialState(y, lam)
    from admmkit.engine import Prediction

    pred = Prediction(np.zeros(4), y.copy(), lam.copy(), lam.copy(), np.zeros(4), np.zeros(4))
    out = relax(v, pred, 1.8)
    assert np.array_equal(out.y, y) and np.array_equal(out.lam, lam)


def test_relax_rejects_out_of_range_gamma(chain, chain_start):
    pred = predict(chain, chain_start, beta=1.0)
    for gamma in (0.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            relax(chain_start, pred, gamma)


def test_step_over_relaxed_skips_relaxation_on_negative_criterion(chain, chain_start, one_step):
    config = SolverConfig(variant="over_relaxed", gamma=1.5, beta=1.0)
    v_next, rec = one_step(chain, chain_start, config)
    assert not rec.relaxed
    assert rec.criterion_value == pytest.approx(-0.1875)
    assert v_next.y == pytest.approx(0.25)
    assert v_next.lam == pytest.approx(-0.25)


def test_step_classical_matches_over_relaxed_when_criterion_fails(chain, chain_start, one_step):
    config = SolverConfig(variant="classical", beta=1.0)
    v_c, rec_c = one_step(chain, chain_start, config)
    config_o = SolverConfig(variant="over_relaxed", gamma=1.9, beta=1.0)
    v_o, rec_o = one_step(chain, chain_start, config_o)
    assert not rec_o.relaxed  # criterion is negative here
    assert np.array_equal(v_c.y, v_o.y) and np.array_equal(v_c.lam, v_o.lam)
    assert not rec_c.relaxed


def test_step_relaxed_customized_scalar_chain(chain, chain_start, one_step):
    config = SolverConfig(variant="relaxed_customized", gamma=1.5, beta=1.0)
    v_next, rec = one_step(chain, chain_start, config)
    # multiplier first: 0 - (0.5 - 1) = 0.5; then y from that multiplier: 0
    assert v_next.y == pytest.approx(-0.5)
    assert v_next.lam == pytest.approx(0.75)
    assert rec.relaxed


def test_run_scalar_chain_converges_to_origin(chain, chain_start):
    config = SolverConfig(variant="over_relaxed", gamma=1.8, eps_abs=1e-10, eps_rel=1e-8)
    result = run(chain, config, chain_start)
    assert result.converged
    assert abs(result.final.y[0]) < 1e-9
    assert abs(result.final.lam[0]) < 1e-9
    assert abs(result.final.x[0]) < 1e-9


def test_stopping_thresholds_match_formula():
    assert np.sqrt(100) * 1e-5 + 1e-3 * max(2.0, 1.0) == pytest.approx(2.1e-3)
    instance, _ = lasso.generate_instance(80, 120, 2)
    result = run(instance, SolverConfig(variant="classical", max_iter=300))
    last = result.records[-1]
    w = result.final
    expected_pri = np.sqrt(instance.m) * 1e-5 + 1e-3 * max(
        np.linalg.norm(w.x), np.linalg.norm(w.y)
    )
    expected_dual = np.sqrt(instance.n2) * 1e-5 + 1e-3 * np.linalg.norm(w.y)
    assert last.eps_pri == pytest.approx(expected_pri, rel=1e-12)
    assert last.eps_dual == pytest.approx(expected_dual, rel=1e-12)
    assert result.converged and last.within_tolerance


def test_run_iteration_numbering_and_max_iter(chain, chain_start):
    config = SolverConfig(variant="classical", eps_abs=1e-14, eps_rel=1e-14, max_iter=5)
    result = run(chain, config, chain_start)
    assert [rec.k for rec in result.records] == [1, 2, 3, 4, 5]
    assert not result.converged
    assert result.iterations == 5
    # converged is equivalent to the final record passing both tolerance tests
    assert not result.records[-1].within_tolerance
    converged = run(chain, SolverConfig(variant="classical", max_iter=500), chain_start)
    assert converged.converged and converged.records[-1].within_tolerance


def test_run_validates_initial_state_dimensions(chain):
    from admmkit import DimensionMismatchError

    bad = EssentialState(np.array([1.0, 2.0]), np.array([0.0]))
    with pytest.raises(DimensionMismatchError):
        run(chain, SolverConfig(variant="classical"), bad)


@pytest.mark.parametrize("problem", ["lasso", "covsel"])
@pytest.mark.parametrize("operand", ["y", "lam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_rejects_non_finite_initial_state_by_name(problem, operand, bad):
    if problem == "lasso":
        instance, _ = lasso.generate_instance(20, 30, 0)
    else:
        instance, _ = generate_covsel(10, 0)
    v0 = EssentialState.zeros(instance)
    getattr(v0, operand)[0] = bad
    with pytest.raises(ValueError, match=f"v0.{operand} must be finite"):
        run(instance, SolverConfig(variant="over_relaxed", gamma=1.5), v0)


def test_dual_update_consistency_on_plain_steps(solve_traced):
    instance, _ = lasso.generate_instance(50, 90, 4)
    config = SolverConfig(variant="classical", max_iter=60)
    result, traj = solve_traced(instance, config)
    for k in range(len(traj) - 1):
        pred = predict(instance, traj[k], config.beta)
        expected = traj[k].lam - config.beta * instance.constraint_residual(
            pred.x_next, traj[k + 1].y
        )
        assert np.array_equal(traj[k + 1].lam, expected)


def test_gamma_one_over_relaxed_equals_classical_trajectories(solve_traced):
    instance, _ = lasso.generate_instance(50, 90, 5)
    kw = dict(beta=1.0, eps_abs=1e-30, eps_rel=1e-30, max_iter=30)
    _, traj_c = solve_traced(instance, SolverConfig(variant="classical", **kw))
    _, traj_o = solve_traced(instance, SolverConfig(variant="over_relaxed", gamma=1.0, **kw))
    assert len(traj_c) == len(traj_o) == 31
    for vc, vo in zip(traj_c, traj_o):
        assert np.array_equal(vc.y, vo.y)
        assert np.array_equal(vc.lam, vo.lam)


def test_vanishing_essential_change_on_converged_run():
    instance, _ = lasso.generate_instance(80, 140, 6)
    result = run(instance, SolverConfig(variant="over_relaxed", gamma=1.8, max_iter=300))
    assert result.converged
    assert result.records[-1].essential_change_sq <= 0.1 * result.records[0].essential_change_sq


class _NanAfterTwo(QuadraticProblem):
    def __init__(self):
        super().__init__([[1.0]], [0.0], [[1.0]], [0.0], [[1.0]], [[-1.0]], [0.0])
        self.calls = 0

    def solve_y(self, x, lam, beta):
        self.calls += 1
        if self.calls > 2:
            return np.array([np.nan])
        return super().solve_y(x, lam, beta)


def test_run_aborts_on_nonfinite_iterate():
    problem = _NanAfterTwo()
    config = SolverConfig(variant="classical", eps_abs=1e-12, eps_rel=1e-12, max_iter=50)
    start = EssentialState(np.array([1.0]), np.array([0.0]))
    result = run(problem, config, start)
    assert not result.converged
    assert result.abort_reason is not None and "3" in result.abort_reason
    assert result.iterations == 3


class _FactorizationBreaks(QuadraticProblem):
    def __init__(self):
        super().__init__([[1.0]], [0.0], [[1.0]], [0.0], [[1.0]], [[-1.0]], [0.0])

    def solve_x(self, y, lam, beta):
        raise np.linalg.LinAlgError("synthetic breakdown")


def test_run_wraps_subproblem_failures_with_iteration_context():
    with pytest.raises(SolverError, match="iteration 1"):
        run(_FactorizationBreaks(), SolverConfig(variant="classical"))


def test_covsel_runs_through_generic_engine():
    instance, _ = generate_covsel(20, 0)
    config = SolverConfig(
        variant="over_relaxed", gamma=1.7, eps_abs=1e-6, eps_rel=1e-4, max_iter=300
    )
    result = run(instance, config)
    assert result.converged
    X = result.final.x.reshape(20, 20)
    assert np.linalg.eigvalsh(X)[0] > 0
