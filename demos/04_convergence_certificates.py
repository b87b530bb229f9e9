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
    build_matrices,
    dense_B,
    dense_identity_residuals,
    kkt_residual,
    reference_solution,
)
from admmkit.lasso import generate_instance

instance, _ = generate_instance(100, 200, 0)
beta, gamma = 1.0, 1.8

dense = build_matrices(dense_B(instance), beta, gamma)
h_residual, _ = dense_identity_residuals(dense)
print(f"metric factorization H = Q M^-1 holds to {h_residual:.2e}")
print(f"smallest eigenvalue of H: {np.linalg.eigvalsh(dense.H)[0]:.4f} (positive definite)")
print(f"gap form G is indefinite for gamma > 1: eigenvalue range "
      f"[{np.linalg.eigvalsh(dense.G)[0]:.3f}, {np.linalg.eigvalsh(dense.G)[-1]:.3f}]")

# the solve streams every step to the Fejer monitor: it tracks the H-metric
# distance to a high-accuracy reference and keeps the largest residual of each
# per-step identity, checked on every extrapolated step from the step's own
# prediction through the same matrix-free forms
config = SolverConfig(
    variant="over_relaxed", beta=beta, gamma=gamma,
    eps_abs=1e-5, eps_rel=1e-3, max_iter=500,
)
ref = reference_solution(instance, beta, 1e-7, 1e-5)
monitor = FejerMonitor.for_config(instance, config, ref)
result = run(instance, config, observer=monitor)
print(f"\nover-relaxed solve: {result.iterations} iterations, "
      f"{sum(r.relaxed for r in result.records)} extrapolated")
print(f"multiplier split identity:                      max residual {monitor.split:.2e}")
print(f"correction identity v_next = v - M(v - v_tilde): max residual {monitor.correction:.2e}")
print(f"gap-form step expansion agreement:              max mismatch {monitor.expansion:.2e}")

# monotone approach to the reference in the H-metric
print(f"\ndistance to reference in the H-metric: "
      f"{monitor.h_dist_sq[0]:.3e} at start, {monitor.h_dist_sq[-1]:.3e} at the end")
print(f"monotonicity violations: {len(monitor.monotonicity_violations)}, "
      f"per-step gap violations: {len(monitor.gap_violations)}")
print(f"KKT residual at the returned point: {kkt_residual(instance, result.final):.2e}")

# a broken identity or a Fejer violation fails the demo, not just its printout
assert monitor.clean, "Fejer monitor flagged a violation"
assert monitor.split <= 1e-12 and monitor.correction <= 1e-12 and monitor.expansion <= 1e-8
