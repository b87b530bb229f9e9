"""Estimate a sparse precision matrix from limited Gaussian samples.

The ground truth is a sparse, diagonally shifted precision matrix; the
estimator minimizes the penalized negative log-likelihood
Tr(SX) - log det X + tau ||X||_1 over positive definite X. The y-block of
the split carries the l1 term, so its terminal value is the sparse estimate.
"""

import numpy as np

from admmkit import SolverConfig, run
from admmkit.covsel import generate_instance

n, seed = 60, 0
instance, precision_true = generate_instance(n, seed)
sample_count = int(np.ceil(0.01 * n * n))
print(f"n = {n} features, {sample_count} samples, tau = {instance.tau}")

config = SolverConfig(
    variant="over_relaxed", beta=1.0, gamma=1.7,
    eps_abs=1e-6, eps_rel=1e-4, max_iter=500,
)
result = run(instance, config)
objective = instance.objective(result.final.x, result.final.y)
print(f"converged in {result.iterations} iterations (objective {objective:.4f})")

estimate = result.final.y.reshape(n, n)
X = result.final.x.reshape(n, n)
print(f"estimate symmetric to {np.abs(estimate - estimate.T).max():.1e}, "
      f"smooth block positive definite (min eig {np.linalg.eigvalsh(X)[0]:.3f})")

true_edges = np.abs(precision_true) > 1e-12
est_edges = np.abs(estimate) > 1e-8
off = ~np.eye(n, dtype=bool)
tp = np.sum(true_edges & est_edges & off)
fp = np.sum(~true_edges & est_edges & off)
fn = np.sum(true_edges & ~est_edges & off)
print(f"off-diagonal support recovery: {tp} hits, {fp} spurious, {fn} missed")
print(f"estimate density {est_edges[off].mean():.1%} "
      f"vs true density {true_edges[off].mean():.1%}")
