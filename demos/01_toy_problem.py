"""Walk through one iteration of each solver variant on a tiny problem.

The problem is min 0.5 x^2 + 0.5 y^2 subject to x = y, whose unique saddle
point is the origin. Starting from (y, lam) = (1, 0) we can follow every
quantity by hand: the x-solve gives 0.5, the y-solve 0.25, and the two
multiplier updates -0.25 and 0.5.
"""

from dataclasses import replace

import numpy as np

from admmkit import EssentialState, SolverConfig, run
from admmkit.quadratic import scalar_chain

problem = scalar_chain()
v0 = EssentialState(np.array([1.0]), np.array([0.0]))

# one prediction sweep: x-solve, y-solve, both multiplier updates; a run
# hands each step's point w = (x_next, y_pred, lam_pred) to its observer,
# here for one classical step
steps = []
run(problem, SolverConfig(max_iter=1), v0, observer=lambda *step: steps.append(step))
w = steps[0][1]
print("prediction from (y, lam) = (1, 0):")
print(f"  x_next    = {w.x[0]: .4f}")
print(f"  y_pred    = {w.y[0]: .4f}")
print(f"  lam_pred  = {w.lam[0]: .4f}   (multiplier from the updated y)")
# the early multiplier lam - beta (A x_next + B y - b), taken at the old y; the
# convergence analysis reads it, the step does not
lam_early = v0.lam - 1.0 * (problem.apply_A(w.x) + problem.apply_B(v0.y) - problem.rhs_b)
print(f"  lam_early = {lam_early[0]: .4f}   (multiplier from the old y)")

# the relaxation gate: extrapolate only when this inner product is >= 0
# (a value within its rounding error of zero reads as exactly 0); one
# over-relaxed step records what the gate read and whether it fired
config = SolverConfig(variant="over_relaxed", beta=1.0, gamma=1.5)
record = run(problem, replace(config, max_iter=1), v0).records[0]
print(f"\nrelaxation criterion value = {record.criterion_value:.4f}"
      f" -> {'extrapolate' if record.relaxed else 'take the plain step'}")

# what the extrapolated point v0 - gamma (v0 - (y_pred, lam_pred)) would be anyway
gamma = config.gamma
forced_y = v0.y[0] - gamma * (v0.y[0] - w.y[0])
forced_lam = v0.lam[0] - gamma * (v0.lam[0] - w.lam[0])
print(f"forced extrapolation with gamma=1.5: y = {forced_y:.4f}, lam = {forced_lam:.4f}")

# full solves with each variant
print("\nfull solves to (1e-10, 1e-8) tolerances from (1, 0):")
for variant in ("classical", "over_relaxed", "relaxed_customized"):
    config = SolverConfig(
        variant=variant, gamma=1.5, eps_abs=1e-10, eps_rel=1e-8, max_iter=500
    )
    result = run(problem, config, v0)
    print(f"  {variant:<20} {result.iterations:3d} iterations, "
          f"final y = {result.final.y[0]: .2e}, lam = {result.final.lam[0]: .2e}")
