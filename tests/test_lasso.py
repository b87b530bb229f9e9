import numpy as np
import pytest
import scipy.linalg

from admmkit import EssentialState, SolverConfig, run
from admmkit import lasso
from admmkit.l1split import soft_threshold
from admmkit.lasso import LassoInstance, generate_instance, rho_max


def test_generated_columns_have_unit_norm():
    instance, _ = generate_instance(120, 200, 0)
    norms = np.linalg.norm(instance.A, axis=0)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_generation_is_deterministic():
    a, xa = generate_instance(50, 80, 123)
    b, xb = generate_instance(50, 80, 123)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    assert a.rho == b.rho
    assert np.array_equal(xa, xb)
    c, _ = generate_instance(50, 80, 124)
    assert not np.array_equal(a.A, c.A)


def test_generated_nonzero_count_rule():
    _, x_true = generate_instance(100, 300, 1)
    assert np.count_nonzero(x_true) == 30  # min(100, 300 // 10)
    _, x_big = generate_instance(400, 1200, 1)
    assert np.count_nonzero(x_big) == 100


def test_generated_signal_to_noise_ratio():
    ratios = []
    for seed in range(3):
        instance, x_true = generate_instance(1000, 1500, seed)
        noise = instance.b - instance.A @ x_true
        ratios.append(
            np.linalg.norm(instance.A @ x_true) ** 2 / np.linalg.norm(noise) ** 2
        )
    for ratio in ratios:
        assert 200 / 3 <= ratio <= 200 * 3


def test_nonzeros_clamped_with_warning():
    with pytest.warns(UserWarning, match="reducing"):
        _, x_true = generate_instance(20, 10, 0, nonzeros=50)
    assert np.count_nonzero(x_true) == 10


def test_rho_max_examples():
    assert rho_max(np.eye(2), np.array([1.0, 2.0])) == 2.0
    assert rho_max(np.eye(2), np.zeros(2)) == 0.0


def test_rho_above_critical_forces_zero_solution():
    instance, _ = generate_instance(40, 60, 2)
    critical = LassoInstance(instance.A, instance.b, 1.01 * rho_max(instance.A, instance.b))
    config = SolverConfig(
        variant="over_relaxed", gamma=1.8, eps_abs=1e-7, eps_rel=1e-5, max_iter=2000
    )
    result = run(critical, config)
    assert result.converged
    assert np.abs(result.final.x).max() <= 1e-6


def test_x_update_degenerate_zero_design():
    instance = LassoInstance(np.zeros((5, 8)), np.zeros(5), rho=1.0)
    y = np.arange(8.0)
    z = np.ones(8)
    beta = 2.0
    assert np.allclose(instance.solve_x(y, z, beta), y + z / beta, atol=1e-14)


@pytest.mark.parametrize("shape", [(20, 50), (50, 20)], ids=["fat", "tall"])
def test_solve_x_matches_ridge_oracle(rng, shape):
    rows, cols = shape
    for trial in range(20):
        instance, _ = generate_instance(rows, cols, trial)
        y = rng.standard_normal(cols)
        z = rng.standard_normal(cols)
        beta = float(rng.uniform(0.2, 5.0))
        oracle = np.linalg.solve(
            instance.A.T @ instance.A + beta * np.eye(cols),
            instance.A.T @ instance.b + beta * y + z,
        )
        x = instance.solve_x(y, z, beta)
        assert np.linalg.norm(x - oracle) <= 1e-10 * max(1.0, np.linalg.norm(oracle))


@pytest.mark.parametrize("shape", [(20, 50), (50, 20)], ids=["fat", "tall"])
def test_solve_x_is_bitwise_the_checked_cholesky_solve(rng, shape):
    # the same Gram matrix, factorized and solved with scipy's default checks
    rows, cols = shape
    instance, _ = generate_instance(rows, cols, 8)
    A, beta = instance.A, 1.7
    if rows < cols:
        factor = scipy.linalg.cho_factor(beta * np.eye(rows) + A @ A.T)
    else:
        factor = scipy.linalg.cho_factor(A.T @ A + beta * np.eye(cols))
    for _ in range(5):
        y = rng.standard_normal(cols)
        z = rng.standard_normal(cols)
        rhs = A.T @ instance.b + beta * y + z
        if rows < cols:
            expected = rhs / beta - A.T @ scipy.linalg.cho_solve(factor, A @ rhs) / beta
        else:
            expected = scipy.linalg.cho_solve(factor, rhs)
        assert np.array_equal(instance.solve_x(y, z, beta), expected)


@pytest.mark.parametrize("shape", [(20, 50), (50, 20)], ids=["fat", "tall"])
@pytest.mark.parametrize("operand", ["y", "lam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_x_rejects_non_finite_inputs(shape, operand, bad):
    instance, _ = generate_instance(*shape, 9)
    instance.solve_x(np.zeros(shape[1]), np.zeros(shape[1]), 1.0)  # factor cached
    args = {"y": np.zeros(shape[1]), "lam": np.zeros(shape[1])}
    args[operand][3] = bad
    with pytest.raises(ValueError, match="must be finite"):
        instance.solve_x(args["y"], args["lam"], 1.0)


@pytest.mark.parametrize("shape", [(20, 50), (50, 20)], ids=["fat", "tall"])
def test_solve_x_factorizes_once_per_beta(monkeypatch, rng, shape):
    calls = []

    def counting_cho_factor(*args, **kwargs):
        calls.append(1)
        return scipy.linalg.cho_factor(*args, **kwargs)

    monkeypatch.setattr(lasso, "cho_factor", counting_cho_factor)
    instance, _ = generate_instance(*shape, 10)
    y, z = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
    for _ in range(4):
        instance.solve_x(y, z, 1.0)
    assert len(calls) == 1
    instance.solve_x(y, z, 2.5)
    assert len(calls) == 2


def test_x_update_satisfies_normal_equations(rng):
    instance, _ = generate_instance(30, 70, 3)
    y = rng.standard_normal(70)
    z = rng.standard_normal(70)
    beta = 0.8
    x = instance.solve_x(y, z, beta)
    rhs = instance.A.T @ instance.b + beta * y + z
    lhs = instance.A.T @ (instance.A @ x) + beta * x
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_x_update_cache_tracks_beta(rng):
    instance, _ = generate_instance(15, 25, 4)
    y = rng.standard_normal(25)
    z = rng.standard_normal(25)
    x1 = instance.solve_x(y, z, 1.0)
    x2 = instance.solve_x(y, z, 3.0)  # must refactorize, not reuse beta=1 cache
    rhs = instance.A.T @ instance.b + 3.0 * y + z
    lhs = instance.A.T @ (instance.A @ x2) + 3.0 * x2
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert not np.allclose(x1, x2)


def test_soft_threshold_definition_cases():
    assert soft_threshold(np.array([2.0]), 1.0)[0] == 1.0
    assert soft_threshold(np.array([0.5]), 1.0)[0] == 0.0
    assert soft_threshold(np.array([-3.0]), 1.0)[0] == -2.0


def test_soft_threshold_zero_weight_is_identity(rng):
    a = rng.standard_normal(40)
    assert np.array_equal(soft_threshold(a, 0.0), a)


def test_soft_threshold_negative_weight_rejected():
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0]), -0.1)


def test_soft_threshold_matches_grid_search_prox():
    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
    for a in (-3.7, -0.4, 0.0, 0.09, 2.5):
        for kappa in (0.1, 1.0, 2.3):
            values = kappa * np.abs(grid) + 0.5 * (grid - a) ** 2
            brute = grid[np.argmin(values)]
            assert abs(soft_threshold(np.array([a]), kappa)[0] - brute) <= 1e-3


def test_y_update_scalar_case():
    instance = LassoInstance(np.eye(2), np.array([1.0, 1.0]), rho=0.1)
    # shifted input 0.3 with threshold rho/beta = 0.1 shrinks to 0.2
    out = instance.solve_y(np.array([0.3, 0.3]), np.zeros(2), beta=1.0)
    assert np.allclose(out, [0.2, 0.2])


def test_y_update_all_zero_when_threshold_dominates(rng):
    instance = LassoInstance(rng.standard_normal((10, 6)), rng.standard_normal(10), rho=50.0)
    x = rng.uniform(-1, 1, 6)
    z = rng.uniform(-1, 1, 6)
    assert np.array_equal(instance.solve_y(x, z, beta=1.0), np.zeros(6))


def test_y_update_first_order_optimality(rng):
    instance, _ = generate_instance(40, 80, 5)
    for _ in range(10):
        x = rng.standard_normal(80)
        z = rng.standard_normal(80)
        beta = float(rng.uniform(0.3, 4.0))
        y = instance.solve_y(x, z, beta)
        assert instance.y_subproblem_residual(y, x, z, beta) <= 1e-12


def test_objective_agrees_with_long_reference_run():
    instance, _ = generate_instance(100, 200, 6)
    result = run(instance, SolverConfig(variant="over_relaxed", gamma=1.8, max_iter=500))
    assert result.converged
    reference = run(
        instance,
        SolverConfig(variant="classical", eps_abs=1e-12, eps_rel=1e-10, max_iter=10000),
    )
    value = instance.objective(result.final.y, result.final.y)
    ref_value = instance.objective(reference.final.y, reference.final.y)
    assert value == pytest.approx(ref_value, rel=1e-4)


def test_exact_fixed_point_is_stationary_under_one_step(one_step):
    # with rho above the critical value, (y, lam) = (0, -A'b) is an exact
    # fixed point of the iteration in floating point
    instance, _ = generate_instance(30, 50, 7)
    critical = LassoInstance(instance.A, instance.b, 1.01 * rho_max(instance.A, instance.b))
    v_star = EssentialState(np.zeros(50), -(critical.A.T @ critical.b))
    config = SolverConfig(variant="over_relaxed", gamma=1.8)
    v_next, rec = one_step(critical, v_star, config)
    assert rec.relaxed and rec.criterion_value == 0.0
    assert np.linalg.norm((v_next - v_star).stacked()) <= 1e-12
    assert critical.x_stationarity(np.zeros(50), v_star.lam) <= 1e-12


def test_instance_validation():
    with pytest.raises(ValueError):
        LassoInstance(np.eye(3), np.zeros(2), rho=1.0)
    with pytest.raises(ValueError):
        LassoInstance(np.eye(3), np.zeros(3), rho=0.0)
    A = np.eye(3)
    A[1, 2] = np.nan
    with pytest.raises(ValueError, match="A must be finite"):
        LassoInstance(A, np.zeros(3), rho=1.0)
    with pytest.raises(ValueError, match="b must be finite"):
        LassoInstance(np.eye(3), np.array([0.0, np.inf, 0.0]), rho=1.0)
    for rho in (np.inf, np.nan):
        with pytest.raises(ValueError, match="rho must be finite and positive"):
            LassoInstance(np.eye(3), np.zeros(3), rho=rho)
