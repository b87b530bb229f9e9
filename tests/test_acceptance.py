"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The heavyweight benchmark reproductions, the paper's two protocol
cells, are computed once in the session-scoped fixtures of ``conftest.py``
and shared between criteria 1, 2 and 9 and the iteration ledger.
"""

import itertools

import numpy as np
from conftest import (
    correction_residual, dense_B, dense_matrices, expansion_mismatch, forced_step, solve_traced,
    split_residual, stacked, subproblem_residual,
)

from admmkit import EssentialState, SolverConfig, run
from admmkit import covsel, lasso
from admmkit.bench import BenchmarkSpec, run_benchmark
from admmkit.diagnostics import FejerMonitor, reference_solution
from admmkit.lasso import LassoInstance, rho_max
from admmkit.quadratic import QuadraticProblem

SEEDS = range(10)


def _report(number, description, passed, detail=""):
    line = f"[ACCEPTANCE {number}] {'PASS' if passed else 'FAIL'} {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


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
    ok = (
        medians["over_relaxed"] <= min(medians["classical"], medians["relaxed_customized"])
        and 12 <= medians["classical"] <= 35
    )
    _report(
        2,
        "covsel n=300 over-relaxed vs classical and customized, classical band",
        converged and ok and elapsed < 120.0,
        f"medians over={medians['over_relaxed']:.0f} classical={medians['classical']:.0f} "
        f"customized={medians['relaxed_customized']:.0f}, {elapsed:.1f}s",
    )


def test_criterion_3_exact_algebraic_identities():
    rng = np.random.default_rng(7)
    # each (beta, gamma) pair twice or more over the 100 trials
    pairs = list(itertools.product(
        [0.1, 0.3, 0.7, 0.9, 1.0, 3.0, 10.0], [0.5, 1.0, 1.3, 1.5, 1.7, 1.8, 1.9]
    ))
    bounds = dict(h=1e-10, g=1e-12, split=1e-12, correction=1e-12, expansion=1e-8)
    worst = dict.fromkeys(bounds, 0.0)  # the dense identities, then the monitor's maxima
    formulas = dict(split=0.0, correction=0.0, expansion=0.0)  # the test-side formulas
    for trial in range(100):
        n2 = int(rng.integers(1, 9))
        n1 = int(rng.integers(1, 7))
        m = int(rng.integers(max(n1, n2), 42))
        assert n2 + m <= 50
        problem = QuadraticProblem.random(n1=n1, n2=n2, m=m, rng=rng)
        beta, gamma = pairs[trial % len(pairs)]
        mats = dense_matrices(dense_B(problem), beta, gamma)

        worst["h"] = np.maximum(worst["h"], mats.h_residual)
        worst["g"] = np.maximum(worst["g"], mats.g_residual / max(1.0, np.abs(mats.G).max()))

        # relaxation applied, as the identities assume, and observed by a
        # matrix-free monitor
        v = EssentialState(rng.standard_normal(n2), rng.standard_normal(m))
        step = forced_step(problem, v, beta, gamma)
        _, w, v_next, _ = step
        config = SolverConfig(variant="over_relaxed", beta=beta, gamma=gamma)
        monitor = FejerMonitor(problem, config, v)
        monitor(*step)
        for name, value in (
            ("split", split_residual(problem, v, w, mats)),
            ("correction", correction_residual(problem, v, w, v_next, mats)),
            ("expansion", expansion_mismatch(problem, v, w, v_next, mats)),
        ):
            worst[name] = np.maximum(worst[name], getattr(monitor, name))
            formulas[name] = np.maximum(formulas[name], value)

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
    # (instance, gamma, run tolerances); the reference runs 100x tighter
    cases = [
        (lasso.generate_instance(150, 300, seed)[0], 1.8, (1e-5, 1e-3)) for seed in SEEDS
    ] + [
        (covsel.generate_instance(50, seed)[0], 1.7, (1e-6, 1e-4)) for seed in SEEDS
    ]
    for instance, gamma, (eps_abs, eps_rel) in cases:
        config = SolverConfig(
            variant="over_relaxed", beta=1.0, gamma=gamma,
            eps_abs=eps_abs, eps_rel=eps_rel, max_iter=2000,
        )
        ref = reference_solution(instance, config)
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


def test_criterion_5_unit_gamma_equivalence():
    kw = dict(beta=1.0, eps_abs=1e-30, eps_rel=1e-30, max_iter=30)
    lengths, differences = set(), [0.0]
    for instance in (
        lasso.generate_instance(150, 300, 0)[0],
        lasso.generate_instance(50, 90, 5)[0],
        covsel.generate_instance(30, 0)[0],
    ):
        _, traj_c = solve_traced(instance, SolverConfig(variant="classical", **kw))
        _, traj_o = solve_traced(instance, SolverConfig(variant="over_relaxed", gamma=1.0, **kw))
        lengths.add((len(traj_c), len(traj_o)))
        differences += [np.abs(stacked(vc - vo)).max() for vc, vo in zip(traj_c, traj_o)]
    worst = float(np.max(differences))  # a NaN difference stays NaN
    _report(
        5,
        "over-relaxed with gamma=1 matches classical for 30 iterations, both applications",
        lengths == {(31, 31)} and worst == 0.0,
        f"max iterate difference {worst:.1e}",
    )


def test_criterion_6_subproblem_oracles():
    rng = np.random.default_rng(11)
    worst_w = 0.0
    # fat takes the Woodbury path, tall the direct Cholesky one
    for rows, cols in ((20, 50), (50, 20)):
        for trial in range(20):
            instance, _ = lasso.generate_instance(rows, cols, trial)
            A = instance.A
            y = rng.standard_normal(cols)
            z = rng.standard_normal(cols)
            beta = float(rng.uniform(0.2, 5.0))
            # oracle: dense solve of the ridge normal equations, written out
            # here, and the residual of those equations at the x-solve
            rhs = A.T @ instance.b + beta * y + z
            direct = np.linalg.solve(A.T @ A + beta * np.eye(cols), rhs)
            x = instance.solve_x(y, z, beta)
            for error, scale in ((x - direct, direct), (A.T @ (A @ x) + beta * x - rhs, rhs)):
                worst_w = np.maximum(worst_w, np.linalg.norm(error) / np.linalg.norm(scale))

    worst_s = 0.0
    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
    for kappa in (0.05, 0.5, 1.5):
        # the y-solve at beta 1 soft-thresholds at the l1 weight
        l1 = LassoInstance(np.eye(1), np.zeros(1), kappa)
        for a in (-4.2, -1.0, -0.05, 0.0, 0.3, 2.2):
            brute = grid[np.argmin(kappa * np.abs(grid) + 0.5 * (grid - a) ** 2)]
            got = l1.solve_y(np.array([a]), np.zeros(1), 1.0)[0]
            worst_s = np.maximum(worst_s, abs(got - brute))

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
        worst_root = np.maximum(worst_root, abs(x_i - root) / max(1.0, abs(root)))

    ok = worst_w <= 1e-10 and worst_s <= 1e-3 and resid <= 1e-8 and worst_root <= 1e-12
    _report(
        6,
        "subproblem oracles: Woodbury and Cholesky vs direct, prox grid, eigen root-finding",
        ok,
        f"x-solves {worst_w:.1e}, prox {worst_s:.1e}, stationarity {resid:.1e}, "
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
    config = SolverConfig(
        variant="over_relaxed", beta=1.0, gamma=1.8,
        eps_abs=1e-7, eps_rel=1e-5, max_iter=2000,
    )
    converged, sup = True, 0.0
    for m, n, seed in ((50, 80, 0), (40, 60, 2)):
        instance, _ = lasso.generate_instance(m, n, seed)
        critical = LassoInstance(instance.A, instance.b, 1.01 * rho_max(instance.A, instance.b))
        result = run(critical, config)
        converged = converged and result.converged
        sup = np.maximum(sup, np.abs(result.final.x).max())
    _report(
        8,
        "rho at 1.01 of the critical value collapses the solution to zero",
        converged and sup <= 1e-6,
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
