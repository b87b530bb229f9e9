import numpy as np
import pytest

from admmkit import EssentialState, Iterate, SolverConfig, predict, relax, run
from admmkit import lasso
from admmkit.diagnostics import (
    build_matrices,
    build_matrices_for,
    correction_residual,
    fejer_check,
    g_decomposition_residual,
    g_form,
    g_norm_expanded,
    h_norm_sq,
    kkt_residual,
    reference_solution,
)
from admmkit.quadratic import scalar_chain


def test_metric_block_form_identity_matrix():
    mats = build_matrices(np.eye(2), beta=2.0, gamma=1.6)
    expected = np.diag([2.0, 2.0, 0.5, 0.5]) / 1.6
    assert np.abs(mats.H - expected).max() < 1e-14


def test_gap_form_at_unit_gamma_is_psd_corner():
    mats = build_matrices(np.eye(1), beta=1.0, gamma=1.0)
    assert np.abs(mats.G - np.array([[0.0, 0.0], [0.0, 1.0]])).max() == 0.0
    d = EssentialState(np.array([1.0]), np.array([1.0]))
    assert g_form(d, mats) == pytest.approx(1.0)


def test_metric_factorization_random_block(rng):
    B = rng.standard_normal((3, 2))
    mats = build_matrices(B, beta=0.7, gamma=1.8)
    assert np.abs(mats.H - mats.Q @ np.linalg.inv(mats.M)).max() <= 1e-10


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
def test_metric_factorization_and_definiteness_grid(gamma, beta, rng):
    B = rng.standard_normal((5, 3))
    mats = build_matrices(B, beta=beta, gamma=gamma)
    assert np.abs(mats.H - mats.Q @ np.linalg.inv(mats.M)).max() <= 1e-10
    assert np.abs(mats.H - mats.H.T).max() == 0.0
    assert np.abs(mats.G - mats.G.T).max() == 0.0
    assert np.linalg.eigvalsh(mats.H)[0] > 0.0


def test_g_decomposition_consistency(rng):
    B = rng.standard_normal((6, 4))
    mats = build_matrices(B, beta=0.3, gamma=1.7)
    scale = np.abs(mats.G).max()
    assert g_decomposition_residual(mats) <= 1e-12 * scale


def test_rank_deficient_block_rejected():
    col = np.ones((3, 1))
    with pytest.raises(ValueError, match="rank-deficient"):
        build_matrices(np.hstack([col, 2 * col]), beta=1.0, gamma=1.5)
    with pytest.raises(ValueError, match="rank-deficient"):
        build_matrices(np.ones((2, 3)), beta=1.0, gamma=1.5)


def test_dense_limit_enforced():
    with pytest.raises(ValueError, match="dense"):
        build_matrices(np.eye(1500), beta=1.0, gamma=1.5)


def test_parameter_validation():
    for beta, gamma in [(0.0, 1.5), (1.0, 0.0), (1.0, 2.0)]:
        with pytest.raises(ValueError):
            build_matrices(np.eye(2), beta=beta, gamma=gamma)


def test_quadratic_forms_match_dense_products(rng):
    B = rng.standard_normal((5, 3))
    mats = build_matrices(B, beta=2.5, gamma=1.4)
    for _ in range(20):
        v = EssentialState(rng.standard_normal(3), rng.standard_normal(5))
        stacked = v.stacked()
        assert h_norm_sq(v, mats) == pytest.approx(stacked @ mats.H @ stacked, abs=1e-12, rel=1e-12)
        assert g_form(v, mats) == pytest.approx(stacked @ mats.G @ stacked, abs=1e-12, rel=1e-12)
    assert h_norm_sq(EssentialState(np.zeros(3), np.zeros(5)), mats) == 0.0


def test_matrix_free_forms_agree_with_dense(rng):
    instance, _ = lasso.generate_instance(20, 30, 7)
    dense = build_matrices_for(instance, beta=1.3, gamma=1.6)
    free = build_matrices_for(instance, beta=1.3, gamma=1.6, dense_limit=5)
    assert dense.dense and not free.dense
    for _ in range(10):
        v = EssentialState(rng.standard_normal(30), rng.standard_normal(30))
        assert h_norm_sq(v, free) == pytest.approx(h_norm_sq(v, dense), rel=1e-12)
        assert g_form(v, free) == pytest.approx(g_form(v, dense), rel=1e-12)


def test_g_norm_expanded_zero_at_fixed_point():
    chain = scalar_chain()
    v = EssentialState(np.array([0.0]), np.array([0.0]))
    pred = predict(chain, v, 1.0)
    mats = build_matrices_for(chain, 1.0, 1.5)
    assert g_norm_expanded(pred, v, v, mats) == 0.0


def test_g_norm_expanded_matches_direct_form_on_forced_relaxation():
    chain = scalar_chain()
    v = EssentialState(np.array([1.0]), np.array([0.0]))
    pred = predict(chain, v, 1.0)
    v_next = relax(v, pred, 1.5)
    mats = build_matrices_for(chain, 1.0, 1.5)
    direct = g_form(v - pred.essential_early, mats)
    expanded = g_norm_expanded(pred, v, v_next, mats)
    assert expanded == pytest.approx(direct, rel=1e-8)


def test_g_norm_expanded_nonnegative_on_criterion_held_steps(solve_traced):
    instance, _ = lasso.generate_instance(60, 120, 8)
    config = SolverConfig(variant="over_relaxed", gamma=1.8, max_iter=200)
    result, trajectory = solve_traced(instance, config)
    mats = build_matrices_for(instance, 1.0, 1.8)
    c1 = (2 - 1.8) / 1.8**2 * 1.0
    c2 = (2 - 1.8) / (1.8**2 * 1.0)
    checked = 0
    for k, rec in enumerate(result.records[: len(trajectory) - 1]):
        if not rec.relaxed:
            continue
        pred = predict(instance, trajectory[k], 1.0)
        v_k, v_next = trajectory[k], trajectory[k + 1]
        expanded = g_norm_expanded(pred, v_k, v_next, mats)
        step_b = instance.apply_B(v_k.y - v_next.y)
        floor = c1 * step_b @ step_b + c2 * (v_k.lam - v_next.lam) @ (v_k.lam - v_next.lam)
        assert expanded >= floor - 1e-10 * max(1.0, abs(expanded))
        assert expanded >= -1e-10 * max(1.0, abs(expanded))
        checked += 1
    assert checked > 0


def test_correction_identity_on_forced_relaxation(rng, small_quadratic):
    problem = small_quadratic
    mats = build_matrices_for(problem, beta=0.9, gamma=1.7)
    for _ in range(10):
        v = EssentialState(rng.standard_normal(problem.n2), rng.standard_normal(problem.m))
        pred = predict(problem, v, 0.9)
        v_next = relax(v, pred, 1.7)
        assert correction_residual(v, v_next, pred, mats) <= 1e-12


def test_correction_identity_with_unit_gamma_on_plain_steps(rng, small_quadratic):
    problem = small_quadratic
    mats = build_matrices_for(problem, beta=0.9, gamma=1.7)
    v = EssentialState(rng.standard_normal(problem.n2), rng.standard_normal(problem.m))
    pred = predict(problem, v, 0.9)
    assert correction_residual(v, pred.essential, pred, mats, gamma=1.0) <= 1e-12


def test_fejer_constant_trajectory_is_all_zeros():
    chain = scalar_chain()
    mats = build_matrices_for(chain, 1.0, 1.5)
    v_star = EssentialState(np.array([0.3]), np.array([-0.2]))
    report = fejer_check([v_star, v_star, v_star], v_star, mats)
    assert report.h_dist_sq == [0.0, 0.0, 0.0]
    assert report.clean


def test_fejer_scalar_chain_strictly_decreasing(solve_traced):
    chain = scalar_chain()
    config = SolverConfig(
        variant="over_relaxed", gamma=1.5, eps_abs=1e-9, eps_rel=1e-9, max_iter=200,
    )
    result, trajectory = solve_traced(
        chain, config, EssentialState(np.array([1.0]), np.array([0.0]))
    )
    mats = build_matrices_for(chain, 1.0, 1.5)
    v_star = EssentialState(np.array([0.0]), np.array([0.0]))
    flags = [rec.relaxed for rec in result.records[: len(trajectory) - 1]]
    report = fejer_check(trajectory, v_star, mats, relaxed=flags)
    assert report.clean
    dists = report.h_dist_sq
    assert all(dists[k + 1] < dists[k] for k in range(len(dists) - 1))


def test_fejer_flags_violations_instead_of_raising():
    chain = scalar_chain()
    mats = build_matrices_for(chain, 1.0, 1.5)
    v_star = EssentialState(np.array([0.0]), np.array([0.0]))
    away = [
        EssentialState(np.array([0.1]), np.array([0.0])),
        EssentialState(np.array([5.0]), np.array([0.0])),
    ]
    report = fejer_check(away, v_star, mats)
    assert len(report.monotonicity_violations) == 1
    assert report.monotonicity_violations[0][0] == 0


def test_kkt_residual_zero_at_saddle_point():
    chain = scalar_chain()
    w = Iterate(np.array([0.0]), np.array([0.0]), np.array([0.0]))
    assert kkt_residual(chain, w) == 0.0


def test_kkt_residual_small_at_tight_lasso_solve():
    instance, _ = lasso.generate_instance(80, 160, 9)
    config = SolverConfig(variant="classical", eps_abs=1e-7, eps_rel=1e-5, max_iter=2000)
    result = run(instance, config)
    assert result.converged
    scale = np.abs(instance.A.T @ instance.b).max()
    assert kkt_residual(instance, result.final) <= 1e-3 * scale


def test_kkt_residual_grows_linearly_under_perturbation(rng):
    instance, _ = lasso.generate_instance(60, 100, 10)
    config = SolverConfig(variant="classical", eps_abs=1e-9, eps_rel=1e-7, max_iter=5000)
    result = run(instance, config)
    base = kkt_residual(instance, result.final)
    direction = rng.standard_normal(100)
    direction /= np.abs(direction).max()
    values = []
    for delta in (1e-4, 1e-3):
        w = Iterate(result.final.x + delta * direction, result.final.y, result.final.lam)
        values.append(kkt_residual(instance, w))
    assert values[0] >= 0.05 * 1e-4  # grows at least linearly with a modest slope
    ratio = values[1] / values[0]
    assert 2.0 <= ratio <= 50.0  # roughly first order in the perturbation
    assert base <= values[0]


def test_reference_solution_close_to_analytic_fixed_point():
    chain = scalar_chain()
    ref = reference_solution(chain, beta=1.0, eps_abs=1e-9, eps_rel=1e-9)
    assert abs(ref.y[0]) < 1e-8 and abs(ref.lam[0]) < 1e-8
