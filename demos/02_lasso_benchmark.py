"""Compare the three solver variants on a synthetic l1-regularized regression.

Generates a seeded instance (Gaussian design with unit-norm columns, sparse
ground truth, l1 weight at a tenth of the critical value), solves it with
each variant, and writes the residual curves to a CSV ready for semilog
plotting.
"""

import numpy as np

from admmkit import SolverConfig, run
from admmkit.bench import emit_trajectory_plotdata
from admmkit.lasso import generate_instance, rho_max

m, n, seed = 400, 800, 0
instance, x_true = generate_instance(m, n, seed)
print(f"instance: {m} observations, {n} features, "
      f"{np.count_nonzero(x_true)} true nonzeros")
print(f"l1 weight rho = {instance.rho:.4f} "
      f"(critical value {rho_max(instance.A, instance.b):.4f})")

results = {}
for variant in ("classical", "over_relaxed", "relaxed_customized"):
    config = SolverConfig(
        variant=variant, beta=1.0, gamma=1.8,
        eps_abs=1e-5, eps_rel=1e-3, max_iter=500,
    )
    results[variant] = run(instance, config)

print(f"\n{'variant':<20} {'iters':>6} {'||r||':>10} {'||s||':>10} {'nonzeros':>9}")
for variant, result in results.items():
    last = result.records[-1]
    nnz = int(np.count_nonzero(result.final.y))
    print(f"{variant:<20} {result.iterations:>6} "
          f"{last.primal_residual_norm:>10.2e} {last.dual_residual_norm:>10.2e} {nnz:>9}")

over = results["over_relaxed"]
print(f"\nover-relaxed runs extrapolated on {over.relaxed_steps} of {over.iterations} steps")

path = emit_trajectory_plotdata(results, "lasso_residuals.csv")
print(f"residual curves written to {path} (k, then primal/dual per variant)")
