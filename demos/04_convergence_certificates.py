"""Verify the solver's convergence certificates on a live run.

The over-relaxed step admits a prediction-correction reading with a
structured correction matrix M; together with the prediction-gap matrix Q it
induces a positive definite metric H = Q M^-1 in which the iterates approach
the solution set monotonically. This script checks, step by step as the
solve streams them and through quadratic forms that need only applications
of B, the identities the convergence argument rests on.
"""

from admmkit import SolverConfig, run
from admmkit.diagnostics import FejerMonitor, kkt_residual, reference_solution
from admmkit.lasso import generate_instance

instance, _ = generate_instance(100, 200, 0)
beta, gamma = 1.0, 1.8

# the solve streams every step to the Fejer monitor: it tracks the H-metric
# distance to a high-accuracy reference and keeps the largest residual of each
# per-step identity, checked on every extrapolated step from the step's own
# prediction through the same matrix-free forms
config = SolverConfig(
    variant="over_relaxed", beta=beta, gamma=gamma,
    eps_abs=1e-5, eps_rel=1e-3, max_iter=500,
)
ref = reference_solution(instance, beta, 1e-7, 1e-5)
monitor = FejerMonitor(instance, config, ref)
result = run(instance, config, observer=monitor)
print(f"over-relaxed solve: {result.iterations} iterations, "
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
