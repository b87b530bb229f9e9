"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The heavyweight benchmark reproductions are computed once in
session-scoped fixtures and shared between criteria.
"""

import time

import numpy as np
import pytest

from admmkit import EssentialState, SolverConfig, run
from admmkit import covsel, lasso
from admmkit.bench import BenchmarkSpec, run_benchmark
from admmkit.diagnostics import FejerMonitor, reference_solution
from admmkit.l1split import soft_threshold
from admmkit.lasso import LassoInstance, rho_max
from admmkit.quadratic import QuadraticProblem

SEEDS = range(10)


def _report(number, description, passed, detail=""):
    line = f"[ACCEPTANCE {number}] {'PASS' if passed else 'FAIL'} {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def _table_runs(instances, gamma, eps_abs, eps_rel, essential_change):
    """Every variant on every instance: per-variant results, the seconds all
    solves took, and per-variant essential-change observers of the solves."""
    t0 = time.perf_counter()
    runs = {v: [] for v in ("classical", "over_relaxed", "relaxed_customized")}
    changes = {v: [] for v in runs}
    for instance in instances:
        for variant in runs:
            config = SolverConfig(
                variant=variant, beta=1.0, gamma=gamma,
                eps_abs=eps_abs, eps_rel=eps_rel, max_iter=2000,
            )
            changes[variant].append(essential_change(instance))
            runs[variant].append(run(instance, config, observer=changes[variant][-1]))
    return runs, time.perf_counter() - t0, changes


@pytest.fixture(scope="session")
def lasso_table_runs(essential_change):
    """(1000, 1500) at (1e-5, 1e-3), gamma 1.8, beta 1, seeds 0..9, all variants."""
    instances = (lasso.generate_instance(1000, 1500, seed)[0] for seed in SEEDS)
    return _table_runs(instances, 1.8, 1e-5, 1e-3, essential_change)


@pytest.fixture(scope="session")
def covsel_table_runs(essential_change):
    """n=300 at (1e-6, 1e-4), gamma 1.7, beta 1, seeds 0..9, all variants."""
    instances = (covsel.generate_instance(300, seed)[0] for seed in SEEDS)
    return _table_runs(instances, 1.7, 1e-6, 1e-4, essential_change)


def test_criterion_1_lasso_variant_ordering(lasso_table_runs):
    runs, elapsed, _ = lasso_table_runs
    medians = {v: float(np.median([r.iterations for r in rs])) for v, rs in runs.items()}
    converged = all(r.converged for rs in runs.values() for r in rs)
    ordered = (
        medians["over_relaxed"] <= medians["classical"] <= medians["relaxed_customized"]
    )
    in_band = 10 <= medians["classical"] <= 35
    _report(
        1,
        "lasso (1000,1500) variant ordering and classical band",
        converged and ordered and in_band and elapsed < 60.0,
        f"medians over={medians['over_relaxed']:.0f} classical={medians['classical']:.0f} "
        f"customized={medians['relaxed_customized']:.0f}, {elapsed:.1f}s",
    )


def test_criterion_2_covsel_variant_ordering(covsel_table_runs):
    runs, elapsed, _ = covsel_table_runs
    medians = {v: float(np.median([r.iterations for r in rs])) for v, rs in runs.items()}
    converged = all(r.converged for rs in runs.values() for r in rs)
    ok = medians["over_relaxed"] <= medians["classical"] and 12 <= medians["classical"] <= 35
    _report(
        2,
        "covsel n=300 over-relaxed vs classical and classical band",
        converged and ok and elapsed < 120.0,
        f"medians over={medians['over_relaxed']:.0f} classical={medians['classical']:.0f} "
        f"customized={medians['relaxed_customized']:.0f}, {elapsed:.1f}s",
    )


def test_criterion_3_exact_algebraic_identities(
    forced_step, split_residual, correction_residual, expansion_mismatch, dense_matrices, dense_B
):
    rng = np.random.default_rng(7)
    gammas = [0.5, 1.3, 1.5, 1.7, 1.9]
    betas = [0.1, 0.7, 1.0, 3.0, 10.0]
    bounds = dict(h=1e-10, g=1e-12, split=1e-12, correction=1e-12, expansion=1e-8)
    worst = dict.fromkeys(bounds, 0.0)  # the dense identities, then the monitor's maxima
    formulas = dict(split=0.0, correction=0.0, expansion=0.0)  # the test-side formulas
    for trial in range(100):
        n2 = int(rng.integers(1, 9))
        n1 = int(rng.integers(1, 7))
        m = int(rng.integers(max(n1, n2), 42))
        assert n2 + m <= 50
        problem = QuadraticProblem.random(n1=n1, n2=n2, m=m, rng=rng)
        beta = betas[trial % len(betas)]
        gamma = gammas[trial % len(gammas)]
        mats = dense_matrices(dense_B(problem), beta, gamma)

        worst["h"] = max(worst["h"], mats.h_residual)
        worst["g"] = max(worst["g"], mats.g_residual / max(1.0, float(np.abs(mats.G).max())))

        # relaxation applied, as the identities assume, and observed by a
        # matrix-free monitor
        v = EssentialState(rng.standard_normal(n2), rng.standard_normal(m))
        step = forced_step(problem, v, beta, gamma)
        _, pred, v_next, _ = step
        config = SolverConfig(variant="over_relaxed", beta=beta, gamma=gamma)
        monitor = FejerMonitor(problem, config, v)
        monitor(*step)
        for name, value in (
            ("split", split_residual(v, pred, mats)),
            ("correction", correction_residual(v, pred, v_next, mats)),
            ("expansion", expansion_mismatch(v, pred, v_next, mats)),
        ):
            worst[name] = max(worst[name], getattr(monitor, name))
            formulas[name] = max(formulas[name], value)

    checks = all(worst[k] <= bounds[k] for k in bounds)
    checks = checks and all(formulas[k] <= bounds[k] for k in formulas)
    _report(
        3,
        "exact algebraic identities on 100 random small instances",
        checks,
        f"max residuals: H-QM^-1 {worst['h']:.1e}, G decomposition {worst['g']:.1e}, "
        + ", ".join(
            f"{k} {worst[k]:.1e} (test-side {formulas[k]:.1e})"
            for k in ("correction", "expansion", "split")
        ),
    )


def test_criterion_4_fejer_monotonicity():
    violations = monotone_checked = gap_checked = 0
    # (instance, gamma, run tolerances, reference tolerances)
    cases = [
        (lasso.generate_instance(150, 300, seed)[0], 1.8, (1e-5, 1e-3), (1e-7, 1e-5))
        for seed in SEEDS
    ] + [
        (covsel.generate_instance(50, seed)[0], 1.7, (1e-6, 1e-4), (1e-8, 1e-6))
        for seed in SEEDS
    ]
    for instance, gamma, (eps_abs, eps_rel), ref_tol in cases:
        config = SolverConfig(
            variant="over_relaxed", beta=1.0, gamma=gamma,
            eps_abs=eps_abs, eps_rel=eps_rel, max_iter=2000,
        )
        ref = reference_solution(instance, 1.0, *ref_tol)
        report = FejerMonitor(instance, config, ref)
        result = run(instance, config, observer=report)
        violations += len(report.monotonicity_violations) + len(report.gap_violations)
        # every observed over-relaxed step is checked for monotonicity, a
        # relaxed one also for the gap inequality
        monotone_checked += len(report.g_norm_sq)
        gap_checked += sum(rec.relaxed for rec in result.records[: len(report.g_norm_sq)])
    _report(
        4,
        "Fejer monotonicity and per-step gap inequality, 10 seeds each application",
        violations == 0 and gap_checked > 0,
        f"{monotone_checked} steps checked for monotonicity, {gap_checked} relaxed steps "
        f"for the gap inequality, {violations} violations",
    )


def test_criterion_5_unit_gamma_equivalence(solve_traced):
    worst = 0.0
    instance, _ = lasso.generate_instance(150, 300, 0)
    kw = dict(beta=1.0, eps_abs=1e-30, eps_rel=1e-30, max_iter=30)
    _, traj_c = solve_traced(instance, SolverConfig(variant="classical", **kw))
    _, traj_o = solve_traced(instance, SolverConfig(variant="over_relaxed", gamma=1.0, **kw))
    for vc, vo in zip(traj_c, traj_o):
        scale = max(np.linalg.norm(vc.stacked()), 1e-300)
        worst = max(worst, np.linalg.norm((vc - vo).stacked()) / scale)
    cov_instance, _ = covsel.generate_instance(30, 0)
    _, traj_c = solve_traced(cov_instance, SolverConfig(variant="classical", **kw))
    _, traj_o = solve_traced(cov_instance, SolverConfig(variant="over_relaxed", gamma=1.0, **kw))
    for vc, vo in zip(traj_c, traj_o):
        scale = max(np.linalg.norm(vc.stacked()), 1e-300)
        worst = max(worst, np.linalg.norm((vc - vo).stacked()) / scale)
    _report(
        5,
        "over-relaxed with gamma=1 matches classical for 30 iterations, both applications",
        worst <= 1e-14,
        f"max relative iterate difference {worst:.1e}",
    )


def test_criterion_6_subproblem_oracles(subproblem_residual):
    rng = np.random.default_rng(11)
    worst_w = 0.0
    for trial in range(20):
        instance, _ = lasso.generate_instance(20, 50, trial)
        y = rng.standard_normal(50)
        z = rng.standard_normal(50)
        beta = float(rng.uniform(0.2, 5.0))
        # oracle: dense solve of the ridge normal equations, written out here
        direct = np.linalg.solve(
            instance.A.T @ instance.A + beta * np.eye(50),
            instance.A.T @ instance.b + beta * y + z,
        )
        woodbury = instance.solve_x(y, z, beta)  # 20x50 is fat: the Woodbury path
        worst_w = max(
            worst_w,
            float(np.linalg.norm(direct - woodbury) / max(np.linalg.norm(direct), 1e-300)),
        )

    worst_s = 0.0
    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
    for a in (-4.2, -1.0, -0.05, 0.0, 0.3, 2.2):
        for kappa in (0.05, 0.5, 1.5):
            brute = grid[np.argmin(kappa * np.abs(grid) + 0.5 * (grid - a) ** 2)]
            worst_s = max(worst_s, abs(float(soft_threshold(np.array([a]), kappa)[0]) - brute))

    from scipy.optimize import brentq

    n = 5
    W = rng.standard_normal((n, n))
    S = W @ W.T / n + 0.5 * np.eye(n)
    instance = covsel.CovselInstance(S, tau=0.1)
    Y = rng.standard_normal((n, n))
    Y = (Y + Y.T) / 2
    Lam = rng.standard_normal((n, n))
    Lam = (Lam + Lam.T) / 2
    beta = 1.1
    X = instance.solve_x(Y.ravel(), Lam.ravel(), beta).reshape(n, n)
    resid = subproblem_residual(instance, "x", X.ravel(), Y.ravel(), Lam.ravel(), beta)
    R = (beta * Y + Lam - S + (beta * Y + Lam - S).T) / 2
    d = np.linalg.eigvalsh(R)
    worst_root = 0.0
    for d_i, x_i in zip(np.sort(d), np.sort(np.linalg.eigvalsh(X))):
        root = brentq(lambda t: beta * t - 1.0 / t - d_i, 1e-12, 1e12, xtol=1e-15)
        worst_root = max(worst_root, abs(x_i - root) / max(1.0, abs(root)))

    ok = worst_w <= 1e-10 and worst_s <= 1e-3 and resid <= 1e-8 and worst_root <= 1e-12
    _report(
        6,
        "subproblem oracles: Woodbury vs direct, prox grid, eigen root-finding",
        ok,
        f"woodbury {worst_w:.1e}, prox {worst_s:.1e}, stationarity {resid:.1e}, "
        f"roots {worst_root:.1e}",
    )


def test_criterion_7_criterion_prevalence():
    # Table-1-scale size (1500, 1500) at the Table-1 tolerance pair
    fractions = []
    for seed in SEEDS:
        instance, _ = lasso.generate_instance(1500, 1500, seed)
        config = SolverConfig(
            variant="over_relaxed", beta=1.0, gamma=1.8,
            eps_abs=1e-5, eps_rel=1e-3, max_iter=2000,
        )
        result = run(instance, config)
        assert result.converged
        fractions.append(
            sum(rec.criterion_value >= 0 for rec in result.records) / result.iterations
        )
    seeds_above = sum(f >= 0.5 for f in fractions)
    _report(
        7,
        "criterion holds on at least half the iterations for >= 8 of 10 seeds",
        seeds_above >= 8,
        "fractions " + ", ".join(f"{f:.2f}" for f in fractions),
    )


def test_criterion_8_rho_criticality():
    instance, _ = lasso.generate_instance(50, 80, 0)
    critical = LassoInstance(instance.A, instance.b, 1.01 * rho_max(instance.A, instance.b))
    config = SolverConfig(
        variant="over_relaxed", beta=1.0, gamma=1.8,
        eps_abs=1e-7, eps_rel=1e-5, max_iter=5000,
    )
    result = run(critical, config)
    sup = float(np.abs(result.final.x).max())
    _report(
        8,
        "rho at 1.01 of the critical value collapses the solution to zero",
        result.converged and sup <= 1e-6,
        f"||x||_inf = {sup:.2e}",
    )


def test_criterion_9_vanishing_differences(lasso_table_runs, covsel_table_runs):
    worst_ratio = 0.0
    total = 0
    for runs, _, changes in (lasso_table_runs, covsel_table_runs):
        for variant, results in runs.items():
            for result, change in zip(results, changes[variant]):
                if not result.converged:
                    continue
                worst_ratio = max(worst_ratio, change.last / change.first)
                total += 1
    _report(
        9,
        "essential-change norm at termination is <= 1e-2 of its first-step value",
        total == 60 and worst_ratio <= 1e-2,
        f"{total} converged runs, worst ratio {worst_ratio:.1e}",
    )


def test_criterion_10_benchmark_determinism(tmp_path):
    def spec(out):
        return BenchmarkSpec(
            problem="lasso",
            sizes=[(40, 60)],
            tolerances=[(1e-5, 1e-3)],
            repeats=2,
            seed_base=0,
            max_iter=300,
            diagnostics=True,
            out_dir=out,
        )

    out_a = run_benchmark(spec(tmp_path / "a"))
    out_b = run_benchmark(spec(tmp_path / "b"))
    same = out_a.summary_csv.read_bytes() == out_b.summary_csv.read_bytes()
    for pa, pb in zip(out_a.trajectory_files, out_b.trajectory_files):
        same = same and pa.read_bytes() == pb.read_bytes()
    _report(10, "identical spec and seed produce byte-identical CSV outputs", same)
