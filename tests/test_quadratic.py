import numpy as np
import pytest

from admmkit import SolverConfig, run
from admmkit.diagnostics import kkt_residual
from admmkit.quadratic import QuadraticProblem, scalar_chain


def test_constraint_operators_are_linear(small_quadratic, rng):
    problem = small_quadratic
    for _ in range(10):
        u = rng.standard_normal(problem.n1)
        v = rng.standard_normal(problem.n1)
        alpha = float(rng.standard_normal())
        lhs = problem.apply_A(alpha * u + v)
        rhs = alpha * problem.apply_A(u) + problem.apply_A(v)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
        w = rng.standard_normal(problem.n2)
        z = rng.standard_normal(problem.n2)
        lhs = problem.apply_B(alpha * w + z)
        rhs = alpha * problem.apply_B(w) + problem.apply_B(z)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_subproblem_solutions_are_first_order_optimal(small_quadratic, rng, subproblem_residual):
    problem = small_quadratic
    for _ in range(10):
        y = rng.standard_normal(problem.n2)
        lam = rng.standard_normal(problem.m)
        beta = float(rng.uniform(0.2, 4.0))
        x = problem.solve_x(y, lam, beta)
        assert subproblem_residual(problem, "x", x, y, lam, beta) <= 1e-8
        y_new = problem.solve_y(x, lam, beta)
        assert subproblem_residual(problem, "y", x, y_new, lam, beta) <= 1e-8


def test_engine_reaches_the_saddle_point(rng):
    problem = QuadraticProblem.random(n1=3, n2=3, m=5, rng=rng)
    # saddle point from the full KKT system
    n1, n2, m = problem.n1, problem.n2, problem.m
    K = np.zeros((n1 + n2 + m, n1 + n2 + m))
    K[:n1, :n1] = problem.P1
    K[n1 : n1 + n2, n1 : n1 + n2] = problem.P2
    K[:n1, n1 + n2 :] = -problem.A.T
    K[n1 : n1 + n2, n1 + n2 :] = -problem.B.T
    K[n1 + n2 :, :n1] = problem.A
    K[n1 + n2 :, n1 : n1 + n2] = problem.B
    rhs = np.concatenate([-problem.q1, -problem.q2, problem.rhs_b])
    sol = np.linalg.solve(K, rhs)
    x_star, y_star, lam_star = sol[:n1], sol[n1 : n1 + n2], sol[n1 + n2 :]

    config = SolverConfig(
        variant="over_relaxed", gamma=1.5, eps_abs=1e-10, eps_rel=1e-10, max_iter=5000
    )
    result = run(problem, config)
    assert result.converged
    assert np.abs(result.final.y - y_star).max() <= 1e-6
    assert np.abs(result.final.lam - lam_star).max() <= 1e-6
    assert np.abs(result.final.x - x_star).max() <= 1e-6
    from admmkit import Iterate

    assert kkt_residual(problem, Iterate(x_star, y_star, lam_star)) <= 1e-9


def test_scalar_chain_closed_forms():
    chain = scalar_chain()
    y = np.array([2.0])
    lam = np.array([0.5])
    beta = 3.0
    x = chain.solve_x(y, lam, beta)
    assert x[0] == pytest.approx((0.5 + 3.0 * 2.0) / 4.0)
    y_new = chain.solve_y(x, lam, beta)
    assert y_new[0] == pytest.approx((3.0 * x[0] - 0.5) / 4.0)


def test_a_y_block_without_columns_passes_the_rank_check():
    # no columns, no singular values: the check reads none
    problem = QuadraticProblem(
        np.eye(2), np.zeros(2), np.empty((0, 0)), np.empty(0), np.eye(3, 2), np.empty((3, 0)),
        np.ones(3),
    )
    assert (problem.m, problem.n1, problem.n2) == (3, 2, 0)


def test_rank_deficient_B_is_rejected_at_construction():
    # more columns than rows; test_inputs.py's B row has the other rank
    # cases, but it keeps P2 2 x 2, so it cannot widen B past its 3 rows
    with pytest.raises(ValueError, match="^H not positive definite: B rank-deficient$"):
        QuadraticProblem(np.eye(2), np.zeros(2), np.eye(4), np.zeros(4), np.eye(3, 2),
                         np.eye(3, 4), np.ones(3))
