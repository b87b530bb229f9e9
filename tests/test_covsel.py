import math

import numpy as np
import pytest
from conftest import gemm_solve_x, solve_traced, subproblem_residual

from admmkit import Iterate, SolverConfig, covsel
from admmkit.covsel import CovselInstance, _symmetrize, generate_instance
from admmkit.diagnostics import kkt_residual


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


def _x_update(instance, Y, Lam, beta):
    """The X-update as a matrix: solve_x on Y and Lam raveled."""
    return instance.solve_x(Y.ravel(), Lam.ravel(), beta).reshape(instance.n, instance.n)


def test_x_update_scalar_zero_input():
    instance = CovselInstance(np.array([[1.0]]), tau=0.1)
    # R = beta*Y + Lam - S = 0, so x solves x - 1/x = 0
    X = instance.solve_x(np.array([1.0]), np.array([0.0]), beta=1.0)
    assert X[0] == pytest.approx(1.0)


def test_x_update_identity_stationary():
    n = 4
    instance = CovselInstance(np.eye(n), tau=0.1)
    X = _x_update(instance, np.eye(n), np.zeros((n, n)), beta=1.0)
    assert np.abs(X - np.eye(n)).max() <= 1e-12
    assert subproblem_residual(
        instance, "x", X.ravel(), np.eye(n).ravel(), np.zeros(n * n), 1.0
    ) <= 1e-12


@pytest.mark.parametrize("n", [20, 200])
def test_x_update_is_exactly_symmetric_and_matches_the_gemm_product(rng, n):
    def symmetric():
        W = rng.standard_normal((n, n))
        return (W + W.T) / 2

    instance = CovselInstance(_random_spd(n, rng), tau=0.1)
    for beta in (0.3, 1.0, 7.0):
        Y, Lam = symmetric(), symmetric()
        X = _x_update(instance, Y, Lam, beta)
        assert np.array_equal(X, X.T)
        reference = gemm_solve_x(instance, Y.ravel(), Lam.ravel(), beta).reshape(n, n)
        assert np.abs(X - reference).max() <= 1e-14 * np.abs(reference).max()


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
    X = _x_update(instance, Y0, Lam, beta)
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
    out = instance.solve_y(X, Lam, beta=2.0)
    assert np.allclose(out, X - Lam / 2.0, atol=1e-12)


def test_y_update_zero_when_threshold_dominates(rng):
    n = 5
    S = _random_spd(n, rng)
    instance = CovselInstance(S, tau=1e6)
    X = _random_spd(n, rng)
    out = instance.solve_y(X, np.zeros((n, n)), beta=1.0)
    assert np.array_equal(out, np.zeros((n, n)))


def test_y_update_first_order_optimality(rng):
    n = 6
    instance = CovselInstance(_random_spd(n, rng), tau=0.3)
    X = _random_spd(n, rng)
    Lam = rng.standard_normal((n, n))
    Lam = (Lam + Lam.T) / 2
    beta = 0.8
    Y = instance.solve_y(X, Lam, beta)
    assert subproblem_residual(instance, "y", X.ravel(), Y.ravel(), Lam.ravel(), beta) <= 1e-12


def test_engine_iterates_stay_symmetric_and_positive_definite():
    instance, _ = generate_instance(15, 2)
    config = SolverConfig(
        variant="over_relaxed", gamma=1.7, eps_abs=1e-6, eps_rel=1e-4, max_iter=300,
    )
    result, trajectory = solve_traced(instance, config)
    assert result.converged
    for v in trajectory:
        Y = v.y.reshape(15, 15)
        Lam = v.lam.reshape(15, 15)
        assert np.abs(Y - Y.T).max() == 0.0
        assert np.abs(Lam - Lam.T).max() == 0.0
    for v in trajectory[::5]:
        X = instance.solve_x(v.y, v.lam, 1.0).reshape(15, 15)
        assert np.linalg.eigvalsh(X)[0] > 0


def test_symmetrized_covariance_keeps_the_bits_of_the_mean_with_its_transpose(rng):
    S = _symmetrize(rng.standard_normal((30, 30)))
    S[3, 7] += 1e-14  # asymmetric within the 1e-12 scale tolerance
    assert CovselInstance(S + 30.0 * np.eye(30)).S.tobytes() == (
        _symmetrize(S + 30.0 * np.eye(30)).tobytes()
    )


def _with_min_eigenvalue(rel, factor, rng, n=12):
    """A symmetric S whose smallest eigenvalue is rel * max(1, max|S|), with
    the rest spread over factor * [1, 2]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = factor * np.linspace(1.0, 2.0, n)
    d[0] = 0.0
    S = _symmetrize((Q * d) @ Q.T)
    scale = max(1.0, float(np.abs(S).max()))
    S = _symmetrize(S + rel * scale * np.outer(Q[:, 0], Q[:, 0]))
    assert np.linalg.eigvalsh(S)[0] == pytest.approx(rel * scale, rel=0.05)
    return S


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("factor", [1.0, 1e6])
def test_rank_deficient_covariance_is_accepted(seed, factor):
    # n = 20 draws ceil(0.01 * 400) = 4 samples: S has rank 4 at most
    instance, _ = generate_instance(20, seed)
    assert np.linalg.matrix_rank(instance.S) <= 4
    CovselInstance(instance.S * factor, tau=0.1)


@pytest.mark.parametrize("factor", [1.0, 1e6])
def test_definiteness_boundary(rng, factor):
    CovselInstance(_with_min_eigenvalue(-0.5e-10, factor, rng), tau=0.1)
    with pytest.raises(ValueError, match="semidefinite; min eigenvalue"):
        CovselInstance(_with_min_eigenvalue(-1e-8, factor, rng), tau=0.1)


def test_failed_factorization_defers_to_the_eigenvalues(monkeypatch, rng):
    # a factorization that fails, as it may within rounding of the shifted
    # boundary, rejects nothing the eigenvalue test accepts
    monkeypatch.setattr(covsel, "dpotrf", lambda a, **_: (a, 1))
    instance, _ = generate_instance(20, 0)
    CovselInstance(instance.S, tau=0.1)
    CovselInstance(_with_min_eigenvalue(-0.5e-10, 1.0, rng), tau=0.1)
    with pytest.raises(ValueError, match="semidefinite; min eigenvalue"):
        CovselInstance(_with_min_eigenvalue(-1e-8, 1.0, rng), tau=0.1)


@pytest.mark.parametrize("factor", [1.0, 1e6])
def test_accepting_a_covariance_solves_no_eigenproblem(monkeypatch, factor):
    # n = 30 draws 9 samples, so S is singular and the shift must scale with S
    instance, _ = generate_instance(30, 0)
    S = instance.S * factor

    def refuse(*args, **kwargs):
        raise AssertionError("eigen-solve in the constructor")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert np.array_equal(CovselInstance(S, instance.tau).S, S)


def test_x_stationarity_at_a_singular_x_is_inf():
    # the log-det term is undefined there, as the objective's inf says
    instance, _ = generate_instance(10, 0)
    zero = np.zeros(100)
    assert instance.smooth(zero) == math.inf
    assert instance.x_stationarity(zero, zero) == math.inf
    assert kkt_residual(instance, Iterate(zero, zero, zero)) == math.inf


def test_smooth_term_at_a_positive_definite_x():
    # tr(S X) - log det X at X = 2I is 2 tr(S) - n log 2
    instance, _ = generate_instance(10, 0)
    expected = 2.0 * np.trace(instance.S) - 10 * math.log(2.0)
    assert instance.smooth(2.0 * np.eye(10).ravel()) == pytest.approx(expected, rel=1e-14)
