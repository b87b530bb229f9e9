import numpy as np
import pytest

from admmkit import (
    DimensionMismatchError,
    EssentialState,
    Iterate,
    SolverConfig,
    augmented_lagrangian,
    run,
)
from admmkit import lasso


def test_augmented_lagrangian_feasible_point(chain):
    # constraint satisfied: multiplier and penalty terms vanish
    w = Iterate(np.array([1.0]), np.array([1.0]), np.array([0.0]))
    assert augmented_lagrangian(chain, w, 1.0) == pytest.approx(1.0)


def test_augmented_lagrangian_infeasible_point(chain):
    w = Iterate(np.array([1.0]), np.array([0.0]), np.array([0.0]))
    assert augmented_lagrangian(chain, w, 2.0) == pytest.approx(1.5)


def test_augmented_lagrangian_equals_objective_when_feasible(chain, rng):
    for _ in range(10):
        x = rng.standard_normal(1)
        w = Iterate(x, x.copy(), rng.standard_normal(1))
        beta = float(rng.uniform(0.1, 10.0))
        assert augmented_lagrangian(chain, w, beta) == pytest.approx(
            chain.objective(w.x, w.y), abs=1e-12
        )


def test_augmented_lagrangian_midpoint_convex_in_x(small_quadratic, rng):
    problem = small_quadratic
    y = rng.standard_normal(problem.n2)
    lam = rng.standard_normal(problem.m)
    for _ in range(20):
        x1 = rng.standard_normal(problem.n1)
        x2 = rng.standard_normal(problem.n1)
        mid = augmented_lagrangian(problem, Iterate((x1 + x2) / 2, y, lam), 0.7)
        avg = (
            augmented_lagrangian(problem, Iterate(x1, y, lam), 0.7)
            + augmented_lagrangian(problem, Iterate(x2, y, lam), 0.7)
        ) / 2
        assert mid <= avg + 1e-10


def test_augmented_lagrangian_terminal_recompute_matches_raw_data():
    instance, _ = lasso.generate_instance(100, 200, 3)
    result = run(instance, SolverConfig(variant="classical", max_iter=500))
    assert result.converged
    w = result.final
    fit = instance.A @ w.x - instance.b
    direct = (
        0.5 * fit @ fit
        + instance.rho * np.abs(w.y).sum()
        - w.lam @ (w.x - w.y)
        + 0.5 * (w.x - w.y) @ (w.x - w.y)
    )
    value = augmented_lagrangian(instance, w, 1.0)
    assert value == pytest.approx(direct, rel=1e-6)


def test_augmented_lagrangian_dimension_error_names_operand(chain):
    w = Iterate(np.array([1.0, 2.0]), np.array([1.0]), np.array([0.0]))
    with pytest.raises(DimensionMismatchError) as err:
        augmented_lagrangian(chain, w, 1.0)
    assert err.value.operand == "x"
    w = Iterate(np.array([1.0]), np.array([1.0]), np.array([0.0, 1.0]))
    with pytest.raises(DimensionMismatchError) as err:
        augmented_lagrangian(chain, w, 1.0)
    assert err.value.operand == "lam"


def test_augmented_lagrangian_rejects_nonpositive_beta(chain):
    w = Iterate(np.array([1.0]), np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        augmented_lagrangian(chain, w, 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(beta=0.0),
        dict(beta=-1.0),
        dict(variant="over_relaxed", gamma=0.0),
        dict(variant="over_relaxed", gamma=2.0),
        dict(variant="relaxed_customized", gamma=2.5),
        dict(eps_abs=0.0),
        dict(eps_rel=-1e-3),
        dict(max_iter=0),
        dict(variant="bogus"),
        dict(beta=float("inf")),
        dict(beta=float("nan")),
        dict(variant="classical", gamma=float("inf")),
        dict(variant="over_relaxed", gamma=float("nan")),
        dict(eps_abs=float("inf")),
        dict(eps_rel=float("nan")),
        dict(max_iter=2.5),
        dict(max_iter="100"),
    ],
)
def test_solver_config_rejects_bad_values(kwargs):
    # the last key is the bad field, and the error names it
    with pytest.raises(ValueError, match=list(kwargs)[-1]):
        SolverConfig(**kwargs)


def test_solver_config_accepts_unit_gamma_for_relaxed_variants():
    # gamma below 1 is permitted; 1 recovers the plain step
    SolverConfig(variant="over_relaxed", gamma=1.0)
    SolverConfig(variant="relaxed_customized", gamma=0.5)
    # classical ignores gamma entirely
    SolverConfig(variant="classical", gamma=5.0)


def test_essential_state_helpers(chain):
    v = EssentialState.zeros(chain)
    assert v.y.shape == (1,) and v.lam.shape == (1,)
    assert v.finite
    d = EssentialState(np.array([3.0]), np.array([1.0])) - EssentialState(
        np.array([1.0]), np.array([4.0])
    )
    assert np.array_equal(d.stacked(), [2.0, -3.0])
    bad = EssentialState(np.array([np.nan]), np.array([0.0]))
    assert not bad.finite


def test_iterate_validation(chain):
    w = Iterate(np.array([1.0]), np.array([2.0]), np.array([3.0]))
    assert w.validate(chain).finite
    with pytest.raises(DimensionMismatchError):
        Iterate(np.array([1.0, 2.0]), np.array([2.0]), np.array([3.0])).validate(chain)


def test_relaxed_flag_implies_nonnegative_criterion():
    instance, _ = lasso.generate_instance(60, 120, 0)
    config = SolverConfig(variant="over_relaxed", gamma=1.8, max_iter=200)
    result = run(instance, config)
    assert result.converged
    for rec in result.records:
        assert rec.primal_residual_norm >= 0 and rec.dual_residual_norm >= 0
        if rec.relaxed:
            assert rec.criterion_value >= 0
        else:
            assert rec.criterion_value < 0
