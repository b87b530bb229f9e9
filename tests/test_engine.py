import numpy as np
import pytest

from admmkit import (
    EssentialState,
    SolverConfig,
    SolverError,
    predict,
    run,
)
from admmkit import lasso
from admmkit.covsel import generate_instance as generate_covsel
from admmkit.diagnostics import FejerMonitor
from admmkit.quadratic import QuadraticProblem


# closed forms on the 1-d chain: x = (lam + beta*y)/(1+beta),
# y_pred = (beta*x - lam)/(1+beta)

def test_predict_scalar_chain_closed_form(chain, chain_start):
    pred = predict(chain, chain_start, beta=1.0)
    assert pred.x_next == pytest.approx(0.5)
    assert pred.y_pred == pytest.approx(0.25)
    assert pred.lam_pred == pytest.approx(-0.25)
    assert pred.lam_early == pytest.approx(0.5)


def test_prediction_multiplier_split_identity(
    small_quadratic, rng, split_residual, dense_matrices, dense_B
):
    problem = small_quadratic
    for _ in range(10):
        v = EssentialState(rng.standard_normal(problem.n2), rng.standard_normal(problem.m))
        config = SolverConfig(beta=float(rng.uniform(0.2, 5.0)), max_iter=1)
        monitor = FejerMonitor(problem, config, EssentialState.zeros(problem))
        run(problem, config, v, observer=monitor)
        mats = dense_matrices(dense_B(problem), config.beta, 1.0)
        assert split_residual(v, predict(problem, v, config.beta), mats) <= 1e-12
        assert monitor.split <= 1e-12


def test_predict_at_fixed_point_keeps_multiplier(chain):
    v = EssentialState(np.array([0.0]), np.array([0.0]))
    pred = predict(chain, v, beta=1.0)
    assert np.array_equal(pred.lam_pred, v.lam)


def test_predict_satisfies_subproblem_optimality_on_lasso(rng, subproblem_residual):
    instance, _ = lasso.generate_instance(60, 100, 1)
    for _ in range(5):
        v = EssentialState(rng.standard_normal(100), rng.standard_normal(100))
        pred = predict(instance, v, beta=1.0)
        assert subproblem_residual(instance, "x", pred.x_next, v.y, v.lam, 1.0) <= 1e-10
        assert subproblem_residual(instance, "y", pred.x_next, pred.y_pred, v.lam, 1.0) <= 1e-10


def test_criterion_zero_at_fixed_point(chain, one_step):
    v = EssentialState(np.array([0.0]), np.array([0.0]))
    v_next, rec = one_step(chain, v, SolverConfig(variant="over_relaxed", gamma=1.8))
    assert rec.criterion_value == 0.0 and rec.relaxed
    assert np.array_equal(v_next.y, v.y) and np.array_equal(v_next.lam, v.lam)


def test_relax_gamma_one_returns_prediction_exactly(chain, chain_start):
    # a relaxed unit-gamma step hands the observer pred's own arrays, no arithmetic
    seen = []
    config = SolverConfig(variant="relaxed_customized", gamma=1.0, max_iter=1)
    result = run(chain, config, chain_start, lambda *step: seen.append(step))
    (_, pred, v_new, rec), = seen
    assert rec.relaxed and rec is result.records[0]
    assert v_new.y is pred.y_pred and v_new.lam is pred.lam_pred


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


def test_run_rejects_a_starting_pair_that_is_not_an_essential_state():
    instance, _ = lasso.generate_instance(10, 20, 0)
    v0 = EssentialState.zeros(instance)
    with pytest.raises(ValueError, match="v0 must be an EssentialState, got tuple"):
        run(instance, SolverConfig(), (v0.y, v0.lam))


@pytest.mark.parametrize("problem, config, name", [
    (None, SolverConfig(), "problem must be a SeparableProblem, got NoneType"),
    ("lasso", None, "config must be a SolverConfig, got NoneType"),
    ("lasso", {"variant": "classical"}, "config must be a SolverConfig, got dict"),
])
def test_run_rejects_a_missing_problem_or_config_by_name(problem, config, name):
    if problem == "lasso":
        problem, _ = lasso.generate_instance(10, 20, 0)
    with pytest.raises(ValueError, match=name):
        run(problem, config)


@pytest.mark.parametrize("operand", ["y", "lam"])
def test_run_rejects_a_non_numeric_initial_state_by_name(operand):
    instance, _ = lasso.generate_instance(10, 20, 0)
    v0 = EssentialState.zeros(instance)
    fields = {"y": v0.y, "lam": v0.lam, operand: ["a"] * getattr(v0, operand).size}
    with pytest.raises(ValueError, match=f"v0.{operand} must be an array of numbers"):
        run(instance, SolverConfig(), EssentialState(**fields))


@pytest.mark.parametrize("operand", ["y", "lam"])
def test_run_rejects_a_complex_initial_state_by_name(operand):
    instance, _ = lasso.generate_instance(10, 20, 0)
    v0 = EssentialState.zeros(instance)
    fields = {"y": v0.y, "lam": v0.lam, operand: getattr(v0, operand) * 1j}
    with pytest.raises(ValueError, match=f"v0.{operand} must be real, got complex values"):
        run(instance, SolverConfig(), EssentialState(**fields))


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


def test_vanishing_essential_change_on_converged_run(essential_change):
    instance, _ = lasso.generate_instance(80, 140, 6)
    change = essential_change(instance)
    config = SolverConfig(variant="over_relaxed", gamma=1.8, max_iter=300)
    result = run(instance, config, observer=change)
    assert result.converged
    assert change.last <= 0.1 * change.first


@pytest.mark.parametrize("variant", ["classical", "over_relaxed", "relaxed_customized"])
@pytest.mark.parametrize("make", [lambda: lasso.generate_instance(30, 50, 2)[0],
                                  lambda: generate_covsel(12, 2)[0]], ids=["lasso", "covsel"])
def test_no_array_is_written_after_it_reaches_the_observer(make, variant):
    # the step updates its own temporaries in place; what it hands on stays put
    problem = make()
    seen = []

    def observe(v, pred, v_new, record):
        arrays = (v.y, v.lam, pred.x_next, pred.y_pred, pred.lam_pred, pred.lam_early,
                  v_new.y, v_new.lam)
        seen.append([(a, a.tobytes()) for a in arrays])

    config = SolverConfig(variant=variant, gamma=1.7, max_iter=60)
    result = run(problem, config, observer=observe)
    assert len(seen) == result.iterations > 1
    assert all(a.tobytes() == bits for step in seen for a, bits in step)
    final = result.final
    assert all(got is want for got, (want, _) in zip((final.x, final.y, final.lam), seen[-1][2:5]))


def test_run_aborts_on_nonfinite_iterate(nan_after_two):
    problem = nan_after_two()
    config = SolverConfig(variant="classical", eps_abs=1e-12, eps_rel=1e-12, max_iter=50)
    start = EssentialState(np.array([1.0]), np.array([0.0]))
    result = run(problem, config, start)
    assert result.stop_reason == "non_finite"
    assert not result.converged
    assert result.iterations == 3


@pytest.mark.parametrize("case", ["converged", "max_iter", "non_finite"])
def test_stop_reason_agrees_with_converged_and_iterations(case, chain, chain_start, nan_after_two):
    tight = dict(eps_abs=1e-14, eps_rel=1e-14)
    problem, config = {
        "converged": (chain, SolverConfig(variant="classical", max_iter=500)),
        # relaxed_customized relaxes every step, so the last one is relaxed
        "max_iter": (
            chain, SolverConfig(variant="relaxed_customized", gamma=1.5, max_iter=3, **tight)
        ),
        "non_finite": (nan_after_two(), SolverConfig(variant="classical", max_iter=50, **tight)),
    }[case]
    observed = []
    result = run(problem, config, chain_start, observer=lambda *step: observed.append(step))
    assert result.stop_reason == case
    assert result.converged == (case == "converged") == result.records[-1].within_tolerance
    assert result.iterations == len(result.records)
    assert (result.iterations < 500) if case == "converged" else (result.iterations == 3)
    # the observer gets each step's own record; a non-finite step is not observed
    seen = result.records[:-1] if case == "non_finite" else result.records
    assert len(observed) == len(seen)
    assert all(step[-1] is rec for step, rec in zip(observed, seen))
    # final is the last step's subproblem output, not the pair a relaxed step
    # extrapolates to; a non-finite step's output is formed from the last pair observed
    _, pred, v_new, record = observed[-1]
    if case == "non_finite":
        pred = predict(problem, v_new, config.beta)
    final = result.final
    for got, want in zip((final.x, final.y, final.lam), (pred.x_next, pred.y_pred, pred.lam_pred)):
        assert got.tobytes() == want.tobytes()
    if case == "max_iter":
        assert record.relaxed and final.y.tobytes() != v_new.y.tobytes()
    if case == "non_finite":
        assert np.isnan(final.y).all()


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


@pytest.mark.parametrize("variant", ["classical", "over_relaxed", "relaxed_customized"])
def test_a_solve_whose_norms_overflow_stops_as_non_finite(variant):
    # at beta = 1e-300 the first step's residual norm and threshold overflow
    # to inf; inf <= inf must not read as converged
    problem, _ = lasso.generate_instance(8, 12, 0)
    result = run(problem, SolverConfig(variant=variant, beta=1e-300))
    assert result.stop_reason == "non_finite"
    assert result.iterations == 1
