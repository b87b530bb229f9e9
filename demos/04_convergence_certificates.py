"""Verify the solver's convergence certificates on a live run.

The over-relaxed step admits a prediction-correction reading with a
structured correction matrix M; together with the prediction-gap matrix Q it
induces a positive definite metric H = Q M^-1 in which the iterates approach
the solution set monotonically. This script materializes those objects on a
small instance and checks, step by step as the solve streams them, the
identities the convergence argument rests on.
"""

import numpy as np

from admmkit import SolverConfig, run
from admmkit.diagnostics import (
    FejerMonitor,
    build_matrices_for,
    correction_residual,
    g_form,
    g_norm_expanded,
    kkt_residual,
    reference_solution,
)
from admmkit.lasso import generate_instance

instance, _ = generate_instance(100, 200, 0)
beta, gamma = 1.0, 1.8

mats = build_matrices_for(instance, beta, gamma)
h_residual = np.abs(mats.H - mats.Q @ np.linalg.inv(mats.M)).max()
print(f"metric factorization H = Q M^-1 holds to {h_residual:.2e}")
print(f"smallest eigenvalue of H: {np.linalg.eigvalsh(mats.H)[0]:.4f} (positive definite)")
print(f"gap form G is indefinite for gamma > 1: eigenvalue range "
      f"[{np.linalg.eigvalsh(mats.G)[0]:.3f}, {np.linalg.eigvalsh(mats.G)[-1]:.3f}]")

# the solve streams every step to an observer: the Fejer monitor tracks the
# H-metric distance to a high-accuracy reference, and the identities are
# checked on each extrapolated step from the step's own prediction
ref = reference_solution(instance, beta, 1e-7, 1e-5)
monitor = FejerMonitor(ref, mats, "over_relaxed")
worst = {"corr": 0.0, "gap": 0.0}


def observe(k, v, pred, v_next, relaxed, criterion):
    monitor(k, v, pred, v_next, relaxed, criterion)
    if not relaxed:
        return
    worst["corr"] = max(worst["corr"], correction_residual(v, v_next, pred, mats))
    direct = g_form(v - pred.essential_early, mats)
    expanded = g_norm_expanded(pred, v, v_next, mats)
    worst["gap"] = max(worst["gap"], abs(direct - expanded) / max(abs(direct), 1e-300))


config = SolverConfig(
    variant="over_relaxed", beta=beta, gamma=gamma,
    eps_abs=1e-5, eps_rel=1e-3, max_iter=500,
)
result = run(instance, config, observer=observe)
print(f"\nover-relaxed solve: {result.iterations} iterations, "
      f"{sum(r.relaxed for r in result.records)} extrapolated")
print(f"correction identity v_next = v - M(v - v_tilde): max residual {worst['corr']:.2e}")
print(f"gap-form step expansion agreement:              max mismatch {worst['gap']:.2e}")

# monotone approach to the reference in the H-metric
print(f"\ndistance to reference in the H-metric: "
      f"{monitor.h_dist_sq[0]:.3e} at start, {monitor.h_dist_sq[-1]:.3e} at the end")
print(f"monotonicity violations: {len(monitor.monotonicity_violations)}, "
      f"per-step gap violations: {len(monitor.gap_violations)}")
print(f"KKT residual at the final iterate: {kkt_residual(instance, result.final):.2e}")
