import math

import numpy as np
import pytest
from scipy.optimize import brentq

from admmkit import SolverConfig
from admmkit.covsel import CovselInstance, generate_instance


def _random_spd(n, rng, shift=0.5):
    W = rng.standard_normal((n, n))
    return W @ W.T / n + shift * np.eye(n)


def test_generated_covariance_is_symmetric_psd():
    instance, precision = generate_instance(40, 0)
    S = instance.S
    assert np.abs(S - S.T).max() == 0.0
    assert np.linalg.eigvalsh(S)[0] >= -1e-10
    assert np.linalg.eigvalsh(precision)[0] >= 0.1 - 1e-12


def test_sample_count_rule():
    assert int(math.ceil(0.01 * 300 * 300)) == 900
    # n = 40 gives 16 samples: a rank-deficient but valid PSD covariance
    instance, _ = generate_instance(40, 1)
    rank = np.linalg.matrix_rank(instance.S, tol=1e-10)
    assert rank <= 16


def test_generation_is_deterministic():
    a, pa = generate_instance(30, 7)
    b, pb = generate_instance(30, 7)
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(pa, pb)
    c, _ = generate_instance(30, 8)
    assert not np.array_equal(a.S, c.S)


def test_generation_requires_minimum_size():
    with pytest.raises(ValueError):
        generate_instance(5, 0)


def test_x_update_scalar_zero_input():
    instance = CovselInstance(np.array([[1.0]]), tau=0.1)
    # R = beta*Y + Lam - S = 0, so x solves x - 1/x = 0
    X = instance.x_update(np.array([[1.0]]), np.array([[0.0]]), beta=1.0)
    assert X[0, 0] == pytest.approx(1.0)


def test_x_update_identity_stationary():
    n = 4
    instance = CovselInstance(np.eye(n), tau=0.1)
    X = instance.x_update(np.eye(n), np.zeros((n, n)), beta=1.0)
    assert np.abs(X - np.eye(n)).max() <= 1e-12
    assert instance.x_subproblem_residual(
        X.ravel(), np.eye(n).ravel(), np.zeros(n * n), 1.0
    ) <= 1e-12


def test_x_update_matches_scalar_root_finding(rng):
    n = 5
    S = _random_spd(n, rng)
    instance = CovselInstance(S, tau=0.05)
    Y = _random_spd(n, rng, shift=0.2)
    Lam = rng.standard_normal((n, n))
    Lam = (Lam + Lam.T) / 2
    beta = 0.9
    R = beta * Y + Lam - S
    R = (R + R.T) / 2
    d, _ = np.linalg.eigh(R)
    X = instance.x_update(Y, Lam, beta)
    x_eigs = np.linalg.eigvalsh(X)
    for d_i, x_i in zip(np.sort(d), np.sort(x_eigs)):
        root = brentq(lambda t: beta * t - 1.0 / t - d_i, 1e-12, 1e12, xtol=1e-15)
        assert abs(x_i - root) <= 1e-12 * max(1.0, abs(root))


def test_x_update_first_order_residual(rng):
    n = 12
    S = _random_spd(n, rng)
    instance = CovselInstance(S, tau=0.1)
    Y = _random_spd(n, rng, shift=0.3)
    Lam = rng.standard_normal((n, n))
    Lam = (Lam + Lam.T) / 2
    beta = 1.4
    X = instance.x_update(Y, Lam, beta)
    residual = instance.x_subproblem_residual(X.ravel(), Y.ravel(), Lam.ravel(), beta)
    assert residual <= 1e-8 * (1.0 + np.linalg.norm(S, "fro"))


def test_x_update_idempotent_at_constructed_fixed_point(rng):
    n = 6
    S = _random_spd(n, rng)
    instance = CovselInstance(S, tau=0.1)
    X0 = _random_spd(n, rng, shift=0.4)
    Y0 = _random_spd(n, rng, shift=0.2)
    beta = 1.2
    # choose the multiplier so the stationarity condition holds exactly at X0
    Lam = S - np.linalg.inv(X0) + beta * (X0 - Y0)
    Lam = (Lam + Lam.T) / 2
    X = instance.x_update(Y0, Lam, beta)
    assert np.abs(X - X0).max() <= 1e-10 * max(1.0, np.abs(X0).max())


def test_eigenvalue_map_is_strictly_increasing():
    beta = 0.7
    d = np.linspace(-20.0, 20.0, 101)
    x = (d + np.sqrt(d * d + 4 * beta)) / (2 * beta)
    assert np.all(np.diff(x) > 0)
    assert np.all(x > 0)


def test_y_update_reduces_to_shift_when_weight_negligible(rng):
    n = 5
    S = _random_spd(n, rng)
    instance = CovselInstance(S, tau=1e-300)
    X = _random_spd(n, rng)
    Lam = rng.standard_normal((n, n))
    Lam = (Lam + Lam.T) / 2
    out = instance.y_update(X, Lam, beta=2.0)
    assert np.allclose(out, X - Lam / 2.0, atol=1e-12)


def test_y_update_zero_when_threshold_dominates(rng):
    n = 5
    S = _random_spd(n, rng)
    instance = CovselInstance(S, tau=1e6)
    X = _random_spd(n, rng)
    out = instance.y_update(X, np.zeros((n, n)), beta=1.0)
    assert np.array_equal(out, np.zeros((n, n)))


def test_y_update_matches_grid_search_prox(rng):
    n = 3
    instance = CovselInstance(_random_spd(n, rng), tau=0.4)
    X = _random_spd(n, rng)
    Lam = rng.standard_normal((n, n))
    Lam = (Lam + Lam.T) / 2
    beta = 1.3
    Y = instance.y_update(X, Lam, beta)
    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
    target = X - Lam / beta
    for i in range(n):
        for j in range(n):
            values = (instance.tau / beta) * np.abs(grid) + 0.5 * (grid - target[i, j]) ** 2
            assert abs(Y[i, j] - grid[np.argmin(values)]) <= 1e-3


def test_y_update_first_order_optimality(rng):
    n = 6
    instance = CovselInstance(_random_spd(n, rng), tau=0.3)
    X = _random_spd(n, rng)
    Lam = rng.standard_normal((n, n))
    Lam = (Lam + Lam.T) / 2
    beta = 0.8
    Y = instance.y_update(X, Lam, beta)
    assert instance.y_subproblem_residual(Y.ravel(), X.ravel(), Lam.ravel(), beta) <= 1e-12


def test_engine_iterates_stay_symmetric_and_positive_definite(solve_traced):
    instance, _ = generate_instance(15, 2)
    config = SolverConfig(
        variant="over_relaxed", gamma=1.7, eps_abs=1e-6, eps_rel=1e-4, max_iter=300,
    )
    result, trajectory = solve_traced(instance, config)
    assert result.converged
    for v in trajectory:
        Y = v.y.reshape(15, 15)
        Lam = v.lam.reshape(15, 15)
        assert np.abs(Y - Y.T).max() <= 1e-12
        assert np.abs(Lam - Lam.T).max() <= 1e-12
    for v in trajectory[::5]:
        X = instance.solve_x(v.y, v.lam, 1.0).reshape(15, 15)
        assert np.linalg.eigvalsh(X)[0] > 0


def test_instance_validation(rng):
    with pytest.raises(ValueError, match="symmetric"):
        CovselInstance(rng.standard_normal((4, 4)), tau=0.1)
    bad = -np.eye(3)
    with pytest.raises(ValueError, match="semidefinite"):
        CovselInstance(bad, tau=0.1)
    with pytest.raises(ValueError):
        CovselInstance(np.eye(3), tau=0.0)
    with pytest.raises(ValueError):
        CovselInstance(np.zeros((2, 3)), tau=0.1)
