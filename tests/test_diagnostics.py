import copy
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    IdentityB, correction_residual, dense_B, dense_matrices, expansion_mismatch, forced_step,
    lam_tilde, observe_transition, split_residual, stacked, sweep,
)

from admmkit import (
    VARIANTS,
    EssentialState,
    Iterate,
    IterationRecord,
    SolverConfig,
    SolverError,
    run,
)
from admmkit import covsel, lasso
from admmkit.bench import GAMMA_DEFAULTS
from admmkit.diagnostics import (
    REFERENCE_MAX_ITER,
    FejerMonitor,
    g_form,
    h_norm_sq,
    kkt_residual,
    reference_solution,
)
from admmkit.quadratic import QuadraticProblem, scalar_chain


def test_metric_block_form_identity_matrix():
    mats = dense_matrices(np.eye(2), beta=2.0, gamma=1.6)
    expected = np.diag([2.0, 2.0, 0.5, 0.5]) / 1.6
    assert np.abs(mats.H - expected).max() < 1e-14


def test_gap_form_at_unit_gamma_is_psd_corner():
    mats = dense_matrices(np.eye(1), beta=1.0, gamma=1.0)
    assert np.abs(mats.G - np.array([[0.0, 0.0], [0.0, 1.0]])).max() == 0.0
    d = EssentialState(np.array([1.0]), np.array([1.0]))
    assert g_form(d, mats, mats.apply_B(d.y)) == pytest.approx(1.0)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
def test_metric_factorization_and_definiteness_grid(gamma, beta, rng):
    # H - QM^-1 is acceptance criterion 3's; H and G are exactly symmetric here
    B = rng.standard_normal((5, 3))
    mats = dense_matrices(B, beta=beta, gamma=gamma)
    assert np.abs(mats.H - mats.H.T).max() == 0.0
    assert np.abs(mats.G - mats.G.T).max() == 0.0
    assert np.linalg.eigvalsh(mats.H)[0] > 0.0


def test_quadratic_forms_match_dense_products(rng):
    B = rng.standard_normal((5, 3))
    mats = dense_matrices(B, beta=2.5, gamma=1.4)
    for _ in range(20):
        v = EssentialState(rng.standard_normal(3), rng.standard_normal(5))
        w = stacked(v)
        assert h_norm_sq(v, mats) == pytest.approx(w @ mats.H @ w, abs=1e-12, rel=1e-12)
        form = g_form(v, mats, mats.apply_B(v.y))
        assert form == pytest.approx(w @ mats.G @ w, abs=1e-12, rel=1e-12)
    assert h_norm_sq(EssentialState(np.zeros(3), np.zeros(5)), mats) == 0.0


def test_matrix_free_forms_agree_with_dense(rng):
    instance, _ = lasso.generate_instance(20, 30, 7)
    dense = dense_matrices(dense_B(instance), beta=1.3, gamma=1.6)
    free = FejerMonitor(
        instance,
        SolverConfig(variant="over_relaxed", beta=1.3, gamma=1.6),
        EssentialState.zeros(instance),
    )
    assert dense.H is not None and not hasattr(free, "H")
    for _ in range(10):
        v = EssentialState(rng.standard_normal(30), rng.standard_normal(30))
        assert h_norm_sq(v, free) == pytest.approx(h_norm_sq(v, dense), rel=1e-12)
        dense_form = g_form(v, dense, dense.apply_B(v.y))
        assert g_form(v, free, free.apply_B(v.y)) == pytest.approx(dense_form, rel=1e-12)


def _small_instances():
    """One small instance of each problem kind diagnose runs, with its gamma."""
    rng = np.random.default_rng(3)
    return {
        "lasso": (lasso.generate_instance(40, 60, 0)[0], GAMMA_DEFAULTS["lasso"]),
        "covsel": (covsel.generate_instance(20, 0)[0], GAMMA_DEFAULTS["covsel"]),
        "quadratic": (QuadraticProblem.random(n1=3, n2=4, m=6, rng=rng), 1.5),
    }


@pytest.mark.parametrize("variant", VARIANTS)
def test_monitor_is_matrix_free(variant):
    # a Lasso split at n = 1001 has n2 + m = 2002: the monitor has no size limit
    large = lasso.generate_instance(40, 1001, 0)[0]
    for instance, gamma in [*_small_instances().values(), (large, 1.8)]:
        config = SolverConfig(variant=variant, beta=0.8, gamma=gamma)
        monitor = FejerMonitor(instance, config, EssentialState.zeros(instance))
        assert not any(hasattr(monitor, name) for name in ("M", "Q", "H", "G"))
        assert monitor.apply_B == instance.apply_B
        assert monitor.gamma == (1.0 if variant == "classical" else gamma)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", ["lasso", "covsel", "quadratic"])
def test_dense_identities_hold_for_each_diagnosed_problem(kind, variant):
    # H = Q M^-1 and G = Q' + Q - M'HM at the (B, beta, gamma) a diagnose run analyses
    instance, gamma = _small_instances()[kind]
    config = SolverConfig(variant=variant, gamma=gamma)
    monitor = FejerMonitor(instance, config, EssentialState.zeros(instance))
    dense = dense_matrices(dense_B(instance), monitor.beta, monitor.gamma)
    assert dense.h_residual <= 1e-10
    assert dense.g_residual <= 1e-12 * max(1.0, float(np.abs(dense.G).max()))


@pytest.mark.parametrize("variant", VARIANTS)
def test_matrix_free_monitor_matches_a_dense_one_bitwise(variant):
    config = SolverConfig(variant=variant, beta=0.8, gamma=1.6, max_iter=60)
    quadratic = QuadraticProblem.random(n1=3, n2=4, m=6, rng=np.random.default_rng(3))
    for instance in (lasso.generate_instance(40, 60, 0)[0], quadratic):
        ref = reference_solution(instance, replace(config, eps_abs=1e-7, eps_rel=1e-5))
        free = FejerMonitor(instance, config, ref)
        B = dense_B(instance)
        # the same problem with B applied as a dense matrix
        dense_problem = copy.copy(instance)
        dense_problem.apply_B = lambda y: B @ y
        dense = FejerMonitor(dense_problem, config, ref)
        run(instance, config, observer=free)
        run(instance, config, observer=dense)
        assert free.h_dist_sq == dense.h_dist_sq
        assert free.g_norm_sq == dense.g_norm_sq


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", ["lasso", "covsel", "quadratic"])
def test_monitor_takes_its_forms_at_the_written_out_lam_tilde(kind, variant):
    # the gap form and the split at v_tilde = (y_pred, lam_tilde), bit for bit;
    # a lam_tilde derived back from lam_pred would leave the split only rounding
    instance, gamma = _small_instances()[kind]
    config = SolverConfig(variant=variant, beta=0.8, gamma=gamma)
    monitor = FejerMonitor(instance, config, EssentialState.zeros(instance))
    split = [0.0]

    def observe(v, w, v_new, record):
        d = v - EssentialState(w.y, lam_tilde(instance, v, w, config.beta))
        gap_form = g_form(d, monitor, monitor.apply_B(d.y))
        if monitor.checks[0]:
            split[0] = max(split[0], split_residual(instance, v, w, monitor))
        monitor(v, w, v_new, record)
        assert monitor.g_norm_sq[-1] == gap_form
        assert monitor.split == split[0]

    assert run(instance, config, observer=observe).iterations == len(monitor.g_norm_sq) > 1


class _CountingB(QuadraticProblem):
    """Counts applications of B."""

    b_calls = 0

    def apply_B(self, y):
        self.b_calls += 1
        return super().apply_B(y)


@pytest.mark.parametrize("variant", ["classical", "over_relaxed", "relaxed_customized"])
def test_monitor_construction_applies_no_B(variant, rng):
    problem = _CountingB.random(n1=3, n2=4, m=6, rng=rng)
    config = SolverConfig(variant=variant, beta=0.8, gamma=1.6)
    FejerMonitor(problem, config, EssentialState.zeros(problem))
    assert problem.b_calls == 0


@pytest.mark.parametrize("variant", ["classical", "over_relaxed", "relaxed_customized"])
def test_monitor_reuses_the_gap_forms_B_application(variant, rng):
    # per observed step: B y for the early multiplier, B d.y for the gap form,
    # which the three identities share, and B (v+ - v*) for the distance; once
    # more on the first step for the starting distance, and once more for the
    # gap check's step form, which the expansion shares
    problem = _CountingB.random(n1=3, n2=4, m=6, rng=rng)
    config = SolverConfig(variant=variant, beta=0.8, gamma=1.6, eps_abs=1e-12, eps_rel=1e-12)
    monitor = FejerMonitor(problem, config, EssentialState.zeros(problem))
    seen = []

    def observe(v, w, v_new, record):
        before = problem.b_calls
        monitor(v, w, v_new, record)
        seen.append((problem.b_calls - before, record.relaxed))

    v0 = EssentialState(rng.standard_normal(4), rng.standard_normal(6))
    run(problem, replace(config, max_iter=30), v0, observer=observe)
    gap = variant == "over_relaxed"
    assert [calls for calls, _ in seen] == [
        3 + (k == 0) + (gap and relaxed) for k, (_, relaxed) in enumerate(seen)
    ]
    if gap:  # both kinds of step were counted
        assert {relaxed for _, relaxed in seen} == {False, True}


@pytest.mark.parametrize("read_only", [False, True], ids=["aliased", "read-only"])
@pytest.mark.parametrize("variant", ["classical", "over_relaxed", "relaxed_customized"])
def test_monitor_writes_only_into_its_own_vectors(variant, read_only):
    # the identities are formed in place; an apply_B that returns its argument
    # or a read-only array must read the same as B @ y, and no observed array
    # may change
    rng = np.random.default_rng(5)
    data = (2.0 * np.eye(3), rng.standard_normal(3), np.eye(4), rng.standard_normal(4),
            rng.standard_normal((4, 3)), np.eye(4), rng.standard_normal(4))
    config = SolverConfig(variant=variant, gamma=1.7, eps_abs=1e-12, eps_rel=1e-12, max_iter=25)
    v0 = EssentialState(rng.standard_normal(4), rng.standard_normal(4))
    monitors = []
    for problem in (QuadraticProblem(*data), IdentityB(*data)):
        problem.read_only = read_only
        monitor = FejerMonitor(problem, config, EssentialState.zeros(problem))
        seen = []

        def observe(v, w, v_new, record):
            arrays = (v.y, v.lam, v_new.y, v_new.lam, w.x, w.y, w.lam)
            seen.extend((a, a.tobytes()) for a in arrays)
            monitor(v, w, v_new, record)

        run(problem, config, v0, observer=observe)
        assert all(a.tobytes() == before for a, before in seen)
        monitors.append(monitor)
    plain, argument = monitors
    for name in ("h_dist_sq", "g_norm_sq", "split", "correction", "expansion"):
        assert getattr(argument, name) == getattr(plain, name), name


def test_expansion_zero_at_fixed_point():
    chain = scalar_chain()
    v = EssentialState(np.array([0.0]), np.array([0.0]))
    w = sweep(chain, v, 1.0)
    mats = dense_matrices(dense_B(chain), 1.0, 1.5)
    monitor = FejerMonitor(chain, SolverConfig(variant="over_relaxed", beta=1.0, gamma=1.5), v)
    monitor(v, w, v, IterationRecord(1, 0.0, 0.0, 0.0, True, 0.0, 0.0))
    assert monitor.g_norm_sq == [0.0]
    assert monitor.expansion == 0.0 and expansion_mismatch(chain, v, w, v, mats) == 0.0


def test_expansion_matches_direct_form_on_forced_relaxation():
    chain = scalar_chain()
    step = forced_step(chain, EssentialState(np.array([1.0]), np.array([0.0])), 1.0, 1.5)
    mats = dense_matrices(dense_B(chain), 1.0, 1.5)
    config = SolverConfig(variant="over_relaxed", beta=1.0, gamma=1.5)
    monitor = FejerMonitor(chain, config, step[0])
    monitor(*step)
    assert monitor.g_norm_sq[0] != 0.0
    assert monitor.expansion <= 1e-8 and expansion_mismatch(chain, *step[:3], mats) <= 1e-8


def test_gap_form_nonnegative_on_criterion_held_steps():
    instance, _ = lasso.generate_instance(60, 120, 8)
    config = SolverConfig(variant="over_relaxed", gamma=1.8, max_iter=200)
    monitor = FejerMonitor(instance, config, EssentialState.zeros(instance))
    steps = []

    def observe(v, w, v_new, record):
        monitor(v, w, v_new, record)
        steps.append((v, v_new, record.relaxed))

    run(instance, config, observer=observe)
    # on a relaxed step the monitor's gap form is its step form (expansion ~ 0),
    # which is at least the weighted step length
    assert monitor.expansion <= 1e-8
    c1 = (2 - 1.8) / 1.8**2 * 1.0
    c2 = (2 - 1.8) / (1.8**2 * 1.0)
    checked = 0
    for g_sq, (v_k, v_next, relaxed) in zip(monitor.g_norm_sq, steps):
        if not relaxed:
            continue
        step_b = instance.apply_B(v_k.y - v_next.y)
        floor = c1 * step_b @ step_b + c2 * (v_k.lam - v_next.lam) @ (v_k.lam - v_next.lam)
        assert g_sq >= floor - 1e-10 * max(1.0, abs(g_sq))
        assert g_sq >= -1e-10 * max(1.0, abs(g_sq))
        checked += 1
    assert checked > 0


def test_correction_identity_with_unit_gamma_on_plain_steps(rng, small_quadratic):
    # an unrelaxed step is the correction at unit gamma
    problem = small_quadratic
    mats = dense_matrices(dense_B(problem), beta=0.9, gamma=1.0)
    v = EssentialState(rng.standard_normal(problem.n2), rng.standard_normal(problem.m))
    _, w, _, record = forced_step(problem, v, 0.9, 1.0)
    config = SolverConfig(variant="over_relaxed", beta=0.9, gamma=1.0)
    monitor = FejerMonitor(problem, config, EssentialState.zeros(problem))
    plain = EssentialState(w.y, w.lam)
    monitor(v, w, plain, record)
    assert monitor.correction <= 1e-12
    assert correction_residual(problem, v, w, plain, mats) <= 1e-12


def test_monitor_identity_maxima_agree_with_the_test_side_formulas_off_the_identities(
    rng, small_quadratic
):
    # a perturbed x_next, and so A x_next and lam_tilde, and v_next break all three
    # identities by far more than rounding, so the monitor's values and the
    # formulas' must agree
    problem = small_quadratic
    mats = dense_matrices(dense_B(problem), beta=0.9, gamma=1.7)
    config = SolverConfig(variant="over_relaxed", beta=0.9, gamma=1.7)
    for _ in range(5):
        v = EssentialState(rng.standard_normal(problem.n2), rng.standard_normal(problem.m))
        _, w, v_next, record = forced_step(problem, v, 0.9, 1.7)
        w = replace(w, x=w.x + 0.1 * rng.standard_normal(problem.n1))
        v_next = EssentialState(v_next.y + 0.1 * rng.standard_normal(problem.n2), v_next.lam)
        monitor = FejerMonitor(problem, config, EssentialState.zeros(problem))
        monitor(v, w, v_next, record)
        assert monitor.split == pytest.approx(split_residual(problem, v, w, mats), rel=1e-9)
        assert monitor.correction == pytest.approx(
            correction_residual(problem, v, w, v_next, mats), rel=1e-9
        )
        assert monitor.expansion == pytest.approx(
            expansion_mismatch(problem, v, w, v_next, mats), rel=1e-9
        )
        assert min(monitor.split, monitor.correction, monitor.expansion) > 1e-6


def test_fejer_constant_trajectory_is_all_zeros():
    chain = scalar_chain()
    v_star = EssentialState(np.array([0.3]), np.array([-0.2]))
    report = FejerMonitor(chain, SolverConfig(variant="classical", beta=1.0, gamma=1.5), v_star)
    observe_transition(report, chain, v_star, v_star, False)
    observe_transition(report, chain, v_star, v_star, False)
    assert report.h_dist_sq == [0.0, 0.0, 0.0]
    assert report.clean


def test_fejer_scalar_chain_strictly_decreasing():
    chain = scalar_chain()
    config = SolverConfig(
        variant="over_relaxed", beta=1.0, gamma=1.5, eps_abs=1e-9, eps_rel=1e-9, max_iter=200,
    )
    v_star = EssentialState(np.array([0.0]), np.array([0.0]))
    report = FejerMonitor(chain, config, v_star)
    run(chain, config, EssentialState(np.array([1.0]), np.array([0.0])), observer=report)
    assert report.clean
    dists = report.h_dist_sq
    assert all(dists[k + 1] < dists[k] for k in range(len(dists) - 1))


def test_fejer_flags_violations_instead_of_raising():
    chain = scalar_chain()
    v_star = EssentialState(np.array([0.0]), np.array([0.0]))
    report = FejerMonitor(chain, SolverConfig(variant="classical", beta=1.0, gamma=1.5), v_star)
    observe_transition(
        report, chain,
        EssentialState(np.array([0.1]), np.array([0.0])),
        EssentialState(np.array([5.0]), np.array([0.0])),
        False,
    )
    assert len(report.monotonicity_violations) == 1
    assert report.monotonicity_violations[0][0] == 0


def test_fejer_flags_a_growth_of_a_millionth_of_the_start_distance():
    # the tolerance is 1e-8 D0, so a transition that grows the H-distance to
    # v* by 1e-6 D0 is a violation of about that size
    chain = scalar_chain()
    v_star = EssentialState(np.array([0.0]), np.array([0.0]))
    v_old = EssentialState(np.array([1.0]), np.array([0.5]))
    grow = np.sqrt(1.0 + 1e-6)
    report = FejerMonitor(chain, SolverConfig(variant="classical", beta=1.0, gamma=1.0), v_star)
    d0 = h_norm_sq(v_old, report)
    v_new = EssentialState(grow * v_old.y, grow * v_old.lam)
    observe_transition(report, chain, v_old, v_new, False)
    assert [k for k, _ in report.monotonicity_violations] == [0]
    assert report.monotonicity_violations[0][1] == pytest.approx(1e-6 * d0, rel=1e-6)


def test_classical_monitor_measures_in_the_unit_gamma_metric(small_quadratic):
    # classical steps are analysed at H(1), whatever gamma the config carries
    config = SolverConfig(variant="classical", beta=0.8, gamma=1.6, max_iter=40)
    ref = reference_solution(small_quadratic, replace(config, eps_abs=1e-8, eps_rel=1e-6))
    monitor = FejerMonitor(small_quadratic, config, ref)
    pairs = []

    def observe(v_old, w, v_new, record):
        pairs.extend([v_new] if pairs else [v_old, v_new])
        monitor(v_old, w, v_new, record)

    run(small_quadratic, config, observer=observe)
    unit = dense_matrices(dense_B(small_quadratic), config.beta, 1.0)
    assert len(pairs) > 2
    assert monitor.h_dist_sq == [h_norm_sq(v - ref, unit) for v in pairs]


@pytest.mark.parametrize("variant", ["classical", "over_relaxed", "relaxed_customized"])
def test_unrelaxed_steps_are_checked_for_monotonicity_only(variant):
    # an unrelaxed over-relaxed step is a classical step, monotone in H(gamma)
    config = SolverConfig(variant=variant, gamma=1.5)
    v_star = EssentialState(np.array([0.0]), np.array([0.0]))
    chain = scalar_chain()
    report = FejerMonitor(chain, config, v_star)
    observe_transition(
        report, chain,
        EssentialState(np.array([0.1]), np.array([0.0])),
        EssentialState(np.array([5.0]), np.array([0.0])),
        relaxed=False,
    )
    checked = variant != "relaxed_customized"
    assert [k for k, _ in report.monotonicity_violations] == ([0] if checked else [])
    assert not report.gap_violations


def test_a_relaxed_step_away_from_v_star_is_flagged_by_both_checks():
    # growing the H(gamma)-distance from 0.01/gamma to 25/gamma breaks
    # monotonicity, and the gap inequality by the step form plus that growth
    chain = scalar_chain()
    v_star = EssentialState(np.array([0.0]), np.array([0.0]))
    report = FejerMonitor(chain, SolverConfig(variant="over_relaxed", gamma=1.5), v_star)
    observe_transition(
        report, chain,
        EssentialState(np.array([0.1]), np.array([0.0])),
        EssentialState(np.array([5.0]), np.array([0.0])),
        relaxed=True,
    )
    assert [k for k, _ in report.monotonicity_violations] == [0]
    assert [k for k, _ in report.gap_violations] == [0]
    step_form = (2.0 - 1.5) / 1.5 * 4.9**2 / 1.5
    assert report.gap_violations[0][1] == pytest.approx(step_form + (25.0 - 0.01) / 1.5)


def test_kkt_residual_zero_at_saddle_point():
    chain = scalar_chain()
    w = Iterate(np.array([0.0]), np.array([0.0]), np.array([0.0]))
    assert kkt_residual(chain, w) == 0.0


@pytest.mark.parametrize(
    "A, b, rho, x, y, lam, expected",
    [
        # x - y = (3, 0); b = x - lam makes x exactly stationary, |lam| <= rho off the support
        (np.eye(2), [2.5, 0.5], 1.0, [3, 0], [0, 0], [0.5, -0.5], 3.0),
        # feasible, y on the support with lam = -rho sign(y); A'(Ax - b) - lam = (1, -4)
        ([[1, 2], [0, 1], [1, 0]], [0, 0, 0], 1.0, [1, -1], [1, -1], [-1, 1], 4.0),
        # feasible, x stationary; |rho sign(y) + lam| = (0.75, 0) on the support
        (np.eye(2), [1.75, -1.5], 0.5, [2, -1], [2, -1], [0.25, 0.5], 0.75),
        # feasible, x stationary; max(|lam| - rho, 0) = (2.5, 0) off the support
        (np.eye(2), [-3, 0.25], 0.5, [0, 0], [0, 0], [3, -0.25], 2.5),
    ],
    ids=["feasibility", "x-stationarity", "y-on-support", "y-off-support"],
)
def test_kkt_residual_matches_hand_worked_terms(A, b, rho, x, y, lam, expected):
    instance = lasso.LassoInstance(np.asarray(A, dtype=float), b, rho)
    w = Iterate(*(np.asarray(v, dtype=float) for v in (x, y, lam)))
    assert kkt_residual(instance, w) == expected


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
    ref = reference_solution(chain, SolverConfig(beta=1.0, eps_abs=1e-7, eps_rel=1e-7))
    assert abs(ref.y[0]) < 1e-8 and abs(ref.lam[0]) < 1e-8


class _NanY(QuadraticProblem):
    """The scalar chain with a y-solve that returns NaN."""

    def __init__(self):
        super().__init__([[1.0]], [0.0], [[1.0]], [0.0], [[1.0]], [[-1.0]], [0.0])

    def solve_y(self, x, lam, beta):
        return np.array([np.nan])


def test_reference_solution_names_a_non_finite_stop():
    with pytest.raises(SolverError, match="non-finite iterate at iteration 1$"):
        reference_solution(_NanY(), SolverConfig(beta=1.0, eps_abs=1e-7, eps_rel=1e-7))


@pytest.mark.parametrize("variant", VARIANTS)
def test_reference_solution_is_the_classical_run_at_100x_tighter_tolerances(variant):
    # whatever variant, gamma and cap the monitored solve has
    instance, _ = lasso.generate_instance(40, 60, 0)
    config = SolverConfig(variant=variant, beta=0.7, gamma=1.5, eps_abs=1e-4, max_iter=5)
    plain = SolverConfig(beta=0.7, eps_abs=1e-6, eps_rel=1e-5, max_iter=REFERENCE_MAX_ITER)
    final = run(instance, plain).final
    ref = reference_solution(instance, config)
    assert np.array_equal(ref.y, final.y) and np.array_equal(ref.lam, final.lam)


def test_reference_solution_raises_when_it_does_not_converge():
    instance, _ = lasso.generate_instance(40, 60, 1)
    with pytest.raises(SolverError, match="eps_abs=1e-07, eps_rel=1e-05") as exc:
        reference_solution(instance, SolverConfig(beta=2000.0, eps_abs=1e-5, eps_rel=1e-3))
    assert f"after {REFERENCE_MAX_ITER} iterations" in str(exc.value)


@pytest.mark.parametrize("block", ["x", "y", "lam"])
def test_a_nan_in_any_block_makes_the_kkt_residual_nan(block):
    problem, _ = lasso.generate_instance(4, 6, 0)
    w = {name: np.zeros(6) for name in ("x", "y", "lam")}
    w[block][2] = np.nan
    assert np.isnan(kkt_residual(problem, Iterate(**w)))


