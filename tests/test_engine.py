import numpy as np
import pytest
from conftest import (
    NanAfterTwo, dense_B, dense_matrices, lam_tilde, one_step, solve_traced, split_residual,
    subproblem_residual, sweep,
)

from admmkit import (
    EssentialState,
    Iterate,
    SolverConfig,
    SolverError,
    run,
)
from admmkit import lasso
from admmkit.covsel import generate_instance as generate_covsel
from admmkit.diagnostics import FejerMonitor, kkt_residual
from admmkit.quadratic import QuadraticProblem


# closed forms on the 1-d chain: x = (lam + beta*y)/(1+beta),
# y_pred = (beta*x - lam)/(1+beta)

def test_predict_scalar_chain_closed_form(chain, chain_start):
    w = sweep(chain, chain_start, 1.0)
    assert w.x == pytest.approx(0.5)
    assert w.y == pytest.approx(0.25)
    assert w.lam == pytest.approx(-0.25)
    assert lam_tilde(chain, chain_start, w, 1.0) == pytest.approx(0.5)


def test_prediction_multiplier_split_identity(small_quadratic, rng):
    problem = small_quadratic
    for _ in range(10):
        v = EssentialState(rng.standard_normal(problem.n2), rng.standard_normal(problem.m))
        config = SolverConfig(beta=float(rng.uniform(0.2, 5.0)), max_iter=1)
        monitor = FejerMonitor(problem, config, EssentialState.zeros(problem))
        run(problem, config, v, observer=monitor)
        mats = dense_matrices(dense_B(problem), config.beta, 1.0)
        assert split_residual(problem, v, sweep(problem, v, config.beta), mats) <= 1e-12
        assert monitor.split <= 1e-12


def test_predict_at_fixed_point_keeps_multiplier(chain):
    v = EssentialState(np.array([0.0]), np.array([0.0]))
    w = sweep(chain, v, 1.0)
    assert np.array_equal(w.lam, v.lam)


def test_predict_satisfies_subproblem_optimality_on_lasso(rng):
    instance, _ = lasso.generate_instance(60, 100, 1)
    for _ in range(5):
        v = EssentialState(rng.standard_normal(100), rng.standard_normal(100))
        w = sweep(instance, v, 1.0)
        assert subproblem_residual(instance, "x", w.x, v.y, v.lam, 1.0) <= 1e-10
        assert subproblem_residual(instance, "y", w.x, w.y, v.lam, 1.0) <= 1e-10


def test_criterion_zero_at_fixed_point(chain):
    v = EssentialState(np.array([0.0]), np.array([0.0]))
    v_next, rec = one_step(chain, v, SolverConfig(variant="over_relaxed", gamma=1.8))
    assert rec.criterion_value == 0.0 and rec.relaxed
    assert np.array_equal(v_next.y, v.y) and np.array_equal(v_next.lam, v.lam)


def test_relax_gamma_one_returns_prediction_exactly(chain, chain_start):
    # a relaxed unit-gamma step hands the observer w's own arrays, no arithmetic
    seen = []
    config = SolverConfig(variant="relaxed_customized", gamma=1.0, max_iter=1)
    result = run(chain, config, chain_start, lambda *step: seen.append(step))
    (_, w, v_new, rec), = seen
    assert rec.relaxed and rec is result.records[0]
    assert v_new.y is w.y and v_new.lam is w.lam


def test_step_over_relaxed_skips_relaxation_on_negative_criterion(chain, chain_start):
    config = SolverConfig(variant="over_relaxed", gamma=1.5, beta=1.0)
    v_next, rec = one_step(chain, chain_start, config)
    assert not rec.relaxed
    assert rec.criterion_value == pytest.approx(-0.1875)
    assert v_next.y == pytest.approx(0.25)
    assert v_next.lam == pytest.approx(-0.25)


def test_step_classical_matches_over_relaxed_when_criterion_fails(chain, chain_start):
    config = SolverConfig(variant="classical", beta=1.0)
    v_c, rec_c = one_step(chain, chain_start, config)
    config_o = SolverConfig(variant="over_relaxed", gamma=1.9, beta=1.0)
    v_o, rec_o = one_step(chain, chain_start, config_o)
    assert not rec_o.relaxed  # criterion is negative here
    assert np.array_equal(v_c.y, v_o.y) and np.array_equal(v_c.lam, v_o.lam)
    assert not rec_c.relaxed


def test_step_relaxed_customized_scalar_chain(chain, chain_start):
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


def test_dual_update_consistency_on_plain_steps():
    instance, _ = lasso.generate_instance(50, 90, 4)
    config = SolverConfig(variant="classical", max_iter=60)
    result, traj = solve_traced(instance, config)
    for k in range(len(traj) - 1):
        w = sweep(instance, traj[k], config.beta)
        expected = traj[k].lam - config.beta * instance.constraint_residual(
            w.x, traj[k + 1].y
        )
        assert np.array_equal(traj[k + 1].lam, expected)


@pytest.mark.parametrize("variant", ["classical", "over_relaxed", "relaxed_customized"])
@pytest.mark.parametrize("make", [lambda: lasso.generate_instance(30, 50, 2)[0],
                                  lambda: generate_covsel(12, 2)[0]], ids=["lasso", "covsel"])
def test_no_array_is_written_after_it_reaches_the_observer(make, variant):
    # the step updates its own temporaries in place; what it hands on stays put
    problem = make()
    seen = []

    def observe(v, w, v_new, record):
        arrays = (v.y, v.lam, w.x, w.y, w.lam, v_new.y, v_new.lam)
        seen.append([(a, a.tobytes()) for a in arrays])

    config = SolverConfig(variant=variant, gamma=1.7, max_iter=60)
    result = run(problem, config, observer=observe)
    assert len(seen) == result.iterations > 1
    assert all(a.tobytes() == bits for step in seen for a, bits in step)
    final = result.final
    assert all(got is want for got, (want, _) in zip((final.x, final.y, final.lam), seen[-1][2:5]))


def test_run_aborts_on_nonfinite_iterate():
    problem = NanAfterTwo()
    config = SolverConfig(variant="classical", eps_abs=1e-12, eps_rel=1e-12, max_iter=50)
    start = EssentialState(np.array([1.0]), np.array([0.0]))
    result = run(problem, config, start)
    assert result.stop_reason == "non_finite"
    assert not result.converged
    assert result.iterations == 3


@pytest.mark.parametrize("case", ["converged", "max_iter", "non_finite"])
def test_stop_reason_agrees_with_converged_and_iterations(case, chain, chain_start):
    tight = dict(eps_abs=1e-14, eps_rel=1e-14)
    problem, config = {
        "converged": (chain, SolverConfig(variant="classical", max_iter=500)),
        # relaxed_customized relaxes every step, so the last one is relaxed
        "max_iter": (
            chain, SolverConfig(variant="relaxed_customized", gamma=1.5, max_iter=3, **tight)
        ),
        "non_finite": (NanAfterTwo(), SolverConfig(variant="classical", max_iter=50, **tight)),
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
    # extrapolates to: the very Iterate the observer got last, which kkt_residual
    # takes as it is; a non-finite step's output is formed from the last pair observed
    _, w, v_new, record = observed[-1]
    final = result.final
    if case == "non_finite":
        w = sweep(problem, v_new, config.beta)
        for got, want in zip((final.x, final.y, final.lam), (w.x, w.y, w.lam)):
            assert got.tobytes() == want.tobytes()
        assert np.isnan(final.y).all()
    else:
        assert w is final and isinstance(w, Iterate)
        assert kkt_residual(problem, w) >= 0.0
    if case == "max_iter":
        assert record.relaxed and final.y.tobytes() != v_new.y.tobytes()


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
@pytest.mark.parametrize(
    "make, beta",
    [
        # the first step's residual norm and threshold overflow to inf; inf <= inf
        # must not read as converged
        (lambda: lasso.generate_instance(8, 12, 0)[0], 1e-300),
        # a closed-form subproblem forms inf - inf or inf / inf, without a warning
        (lambda: generate_covsel(10, 0)[0], 1e308),  # (d + sqrt(d^2 + 4 beta)) / (2 beta)
        (lambda: QuadraticProblem.random(4, 5, 8, np.random.default_rng(0)), 1e308),
        (lambda: lasso.generate_instance(8, 12, 0)[0], 1e-310),  # rhs/beta - correction/beta
        (lambda: lasso.generate_instance(8, 12, 0)[0], 5e-324),
        (lambda: generate_covsel(10, 0)[0], 5e-324),
    ],
    ids=["lasso-1e-300", "covsel-1e308", "quadratic-1e308", "lasso-1e-310", "lasso-5e-324",
         "covsel-5e-324"],
)
def test_a_beta_at_either_end_of_the_float_range_stops_as_non_finite(make, beta, variant):
    result = run(make(), SolverConfig(variant=variant, beta=beta))
    assert result.stop_reason == "non_finite"
    assert result.iterations == 1
