"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The heavyweight benchmark reproductions are computed once in
session-scoped fixtures and shared between criteria.
"""

import time

import numpy as np
import pytest

from admmkit import EssentialState, SolverConfig, predict, relax, run
from admmkit import covsel, lasso
from admmkit.bench import BenchmarkSpec, run_benchmark
from admmkit.diagnostics import (
    build_matrices,
    build_matrices_for,
    correction_residual,
    fejer_check,
    g_form,
    g_norm_expanded,
    reference_solution,
)
from admmkit.lasso import LassoInstance, rho_max, soft_threshold
from admmkit.quadratic import QuadraticProblem

SEEDS = range(10)


def _report(number, description, passed, detail=""):
    line = f"[ACCEPTANCE {number}] {'PASS' if passed else 'FAIL'} {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="session")
def lasso_table_runs():
    """(1000, 1500) at (1e-5, 1e-3), gamma 1.8, beta 1, seeds 0..9, all variants."""
    t0 = time.perf_counter()
    runs = {v: [] for v in ("classical", "over_relaxed", "relaxed_customized")}
    for seed in SEEDS:
        instance, _ = lasso.generate_instance(1000, 1500, seed)
        for variant in runs:
            config = SolverConfig(
                variant=variant, beta=1.0, gamma=1.8,
                eps_abs=1e-5, eps_rel=1e-3, max_iter=2000,
            )
            runs[variant].append(run(instance, config))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def covsel_table_runs():
    """n=300 at (1e-6, 1e-4), gamma 1.7, beta 1, seeds 0..9, all variants."""
    t0 = time.perf_counter()
    runs = {v: [] for v in ("classical", "over_relaxed", "relaxed_customized")}
    for seed in SEEDS:
        instance, _ = covsel.generate_instance(300, seed)
        for variant in runs:
            config = SolverConfig(
                variant=variant, beta=1.0, gamma=1.7,
                eps_abs=1e-6, eps_rel=1e-4, max_iter=2000,
            )
            runs[variant].append(run(instance, config))
    return runs, time.perf_counter() - t0


def test_criterion_1_lasso_variant_ordering(lasso_table_runs):
    runs, elapsed = lasso_table_runs
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
    runs, elapsed = covsel_table_runs
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


def test_criterion_3_exact_algebraic_identities():
    rng = np.random.default_rng(7)
    gammas = [0.5, 1.3, 1.5, 1.7, 1.9]
    betas = [0.1, 0.7, 1.0, 3.0, 10.0]
    worst = dict(h=0.0, corr=0.0, expand=0.0, split=0.0)
    for trial in range(100):
        n2 = int(rng.integers(1, 9))
        n1 = int(rng.integers(1, 7))
        m = int(rng.integers(max(n1, n2), 42))
        assert n2 + m <= 50
        problem = QuadraticProblem.random(n1=n1, n2=n2, m=m, rng=rng)
        beta = betas[trial % len(betas)]
        gamma = gammas[trial % len(gammas)]
        mats = build_matrices_for(problem, beta, gamma)

        worst["h"] = max(worst["h"], float(np.abs(mats.H - mats.Q @ np.linalg.inv(mats.M)).max()))

        v = EssentialState(rng.standard_normal(n2), rng.standard_normal(m))
        pred = predict(problem, v, beta)

        split = pred.lam_pred - (pred.lam_early + beta * problem.apply_B(v.y - pred.y_pred))
        worst["split"] = max(
            worst["split"],
            float(np.abs(split).max(initial=0.0)) / max(1.0, np.abs(pred.lam_pred).max()),
        )

        v_next = relax(v, pred, gamma)  # relaxation applied, as the identities assume
        worst["corr"] = max(worst["corr"], correction_residual(v, v_next, pred, mats))

        direct = g_form(v - pred.essential_early, mats)
        expanded = g_norm_expanded(pred, v, v_next, mats)
        scale = max(abs(direct), abs(expanded), 1e-12)
        worst["expand"] = max(worst["expand"], abs(direct - expanded) / scale)

    checks = (
        worst["h"] <= 1e-10
        and worst["corr"] <= 1e-12
        and worst["expand"] <= 1e-8
        and worst["split"] <= 1e-12
    )
    _report(
        3,
        "exact algebraic identities on 100 random small instances",
        checks,
        f"max residuals: H-QM^-1 {worst['h']:.1e}, correction {worst['corr']:.1e}, "
        f"gap-form {worst['expand']:.1e}, multiplier split {worst['split']:.1e}",
    )


def test_criterion_4_fejer_monotonicity(solve_traced):
    violations = 0
    checked = 0
    for seed in SEEDS:
        instance, _ = lasso.generate_instance(150, 300, seed)
        config = SolverConfig(
            variant="over_relaxed", beta=1.0, gamma=1.8,
            eps_abs=1e-5, eps_rel=1e-3, max_iter=2000,
        )
        result, trajectory = solve_traced(instance, config)
        ref = reference_solution(instance, 1.0, 1e-7, 1e-5)
        mats = build_matrices_for(instance, 1.0, 1.8)
        flags = [rec.relaxed for rec in result.records[: len(trajectory) - 1]]
        report = fejer_check(trajectory, ref, mats, relaxed=flags)
        violations += len(report.monotonicity_violations) + len(report.gap_violations)
        checked += sum(flags)
    for seed in SEEDS:
        instance, _ = covsel.generate_instance(50, seed)
        config = SolverConfig(
            variant="over_relaxed", beta=1.0, gamma=1.7,
            eps_abs=1e-6, eps_rel=1e-4, max_iter=2000,
        )
        result, trajectory = solve_traced(instance, config)
        ref = reference_solution(instance, 1.0, 1e-8, 1e-6)
        mats = build_matrices_for(instance, 1.0, 1.7)
        flags = [rec.relaxed for rec in result.records[: len(trajectory) - 1]]
        report = fejer_check(trajectory, ref, mats, relaxed=flags)
        violations += len(report.monotonicity_violations) + len(report.gap_violations)
        checked += sum(flags)
    _report(
        4,
        "Fejer monotonicity and per-step gap inequality, 10 seeds each application",
        violations == 0 and checked > 0,
        f"{checked} criterion-holding steps checked, {violations} violations",
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


def test_criterion_6_subproblem_oracles():
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
        woodbury = instance.x_update(y, z, beta, method="woodbury")
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
    X = instance.x_update(Y, Lam, beta)
    resid = instance.x_subproblem_residual(X.ravel(), Y.ravel(), Lam.ravel(), beta)
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
    for runs, _ in (lasso_table_runs, covsel_table_runs):
        for results in runs.values():
            for result in results:
                if not result.converged:
                    continue
                first = result.records[0].essential_change_sq
                last = result.records[-1].essential_change_sq
                worst_ratio = max(worst_ratio, last / first)
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
