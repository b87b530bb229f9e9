"""Property tests over small seeded Lasso and covariance-selection instances,
and each workload's objective against a long reference run."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmkit import SolverConfig, run
from admmkit import covsel, lasso
from admmkit.diagnostics import kkt_residual

PROPERTY = settings(max_examples=100)


@st.composite
def instances(draw):
    """A seeded Lasso instance, fat or tall and at most 40 x 60, or a covsel
    instance with n in 10..20."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(("lasso-fat", "lasso-tall", "covsel")))
    if kind == "covsel":
        return covsel.generate_instance(draw(st.integers(10, 20)), seed)[0]
    short = draw(st.integers(10, 40))
    long = draw(st.integers(short + 1, 60))
    rows, cols = (short, long) if kind == "lasso-fat" else (long, short)
    return lasso.generate_instance(rows, cols, seed)[0]


@PROPERTY
@given(
    instances(),
    st.sampled_from(("classical", "over_relaxed", "relaxed_customized")),
    st.floats(0.2, 5.0),
    st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
)
def test_converged_solve_meets_the_kkt_bound(instance, variant, beta, gamma):
    # The stopping rule bounds feasibility by eps_pri and the smooth block's
    # stationarity by beta (eps_pri + eps_dual) at the last subproblem output,
    # which is the returned point (Boyd et al. 2011, section 3.3).
    config = SolverConfig(variant=variant, beta=beta, gamma=gamma, max_iter=2000)
    result = run(instance, config)
    assert result.converged
    rec = result.records[-1]
    bound = max(1.0, beta) * (rec.eps_pri + rec.eps_dual)
    assert kkt_residual(instance, result.final) <= bound


@pytest.mark.parametrize(
    "instance, point",
    [
        # Lasso at the feasible pair (y, y); covsel at (x, y), its log-det read
        # at the positive-definite x-block
        (lasso.generate_instance(100, 200, 6)[0], lambda w: (w.y, w.y)),
        (covsel.generate_instance(30, 0)[0], lambda w: (w.x, w.y)),
    ],
    ids=["lasso", "covsel"],
)
def test_objective_agrees_with_long_reference_run(instance, point):
    result = run(instance, SolverConfig(variant="over_relaxed", gamma=1.8, max_iter=500))
    assert result.converged
    reference = run(
        instance,
        SolverConfig(variant="classical", eps_abs=1e-12, eps_rel=1e-10, max_iter=10000),
    )
    value = instance.objective(*point(result.final))
    ref_value = instance.objective(*point(reference.final))
    assert math.isfinite(ref_value) and value == pytest.approx(ref_value, rel=1e-4)
