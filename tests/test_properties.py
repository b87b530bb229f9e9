"""Property tests of the step kernel over random dense quadratic problems."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from admmkit import VARIANTS, EssentialState, SolverConfig, run
from admmkit.diagnostics import build_matrices_for, correction_residual
from admmkit.quadratic import QuadraticProblem

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class _Counting(QuadraticProblem):
    """Counts constraint-operator applications."""

    def __init__(self, *args):
        super().__init__(*args)
        self.a_calls = 0
        self.b_calls = 0

    def apply_A(self, x):
        self.a_calls += 1
        return super().apply_A(x)

    def apply_B(self, y):
        self.b_calls += 1
        return super().apply_B(y)


@st.composite
def cases(draw):
    """(problem, start, beta, gamma): a random instance and a random start,
    so the criterion takes both signs along the solve."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n1 = draw(st.integers(1, 5))
    n2 = draw(st.integers(1, 5))
    m = draw(st.integers(max(n1, n2), 8))
    problem = _Counting.random(n1=n1, n2=n2, m=m, rng=rng)
    v0 = EssentialState(rng.standard_normal(n2), rng.standard_normal(m))
    beta = draw(st.floats(0.2, 5.0))
    gamma = draw(st.floats(1.05, 1.95))
    return problem, v0, beta, gamma


def _config(variant, beta, gamma):
    return SolverConfig(
        variant=variant, beta=beta, gamma=gamma, eps_abs=1e-12, eps_rel=1e-12, max_iter=25
    )


def _observed(problem, config, v0):
    """The solve and one tuple per observed step."""
    steps = []
    result = run(problem, config, v0, observer=lambda *step: steps.append(step))
    return result, steps


@PROPERTY
@given(cases())
def test_unit_gamma_over_relaxed_reproduces_classical_bitwise(case):
    problem, v0, beta, _ = case
    plain = run(problem, _config("classical", beta, 1.0), v0)
    unit = run(problem, _config("over_relaxed", beta, 1.0), v0)
    # the relaxed flag is the one field allowed to differ
    assert [replace(r, relaxed=False) for r in unit.records] == plain.records
    for field in ("x", "y", "lam"):
        assert np.array_equal(getattr(unit.final, field), getattr(plain.final, field))


@PROPERTY
@given(cases(), st.sampled_from(VARIANTS))
def test_relaxed_flag_follows_the_variant_gate(case, variant):
    problem, v0, beta, gamma = case
    result, steps = _observed(problem, _config(variant, beta, gamma), v0)
    assert steps
    for k, _, _, _, relaxed, criterion in steps:
        assert criterion == result.records[k - 1].criterion_value
        if variant == "classical":
            assert not relaxed
        elif variant == "over_relaxed":
            assert relaxed == (criterion >= 0.0)
        else:
            assert relaxed


@PROPERTY
@given(cases(), st.sampled_from(("classical", "over_relaxed")))
def test_split_and_correction_identities_on_every_step(case, variant):
    problem, v0, beta, gamma = case
    mats = build_matrices_for(problem, beta, gamma)
    _, steps = _observed(problem, _config(variant, beta, gamma), v0)
    for _, v, pred, v_new, relaxed, _ in steps:
        b_gap = beta * problem.apply_B(v.y - pred.y_pred)
        split = pred.lam_pred - (pred.lam_early + b_gap)
        scale = max(1.0, *(np.abs(a).max() for a in (pred.lam_pred, pred.lam_early, b_gap)))
        assert np.abs(split).max() <= 1e-12 * scale
        if relaxed:
            assert correction_residual(v, v_new, pred, mats) <= 1e-12


@PROPERTY
@given(cases(), st.sampled_from(VARIANTS))
def test_operator_applications_per_step(case, variant):
    problem, v0, beta, gamma = case
    counts = [(0, 0, None)]

    def observe(k, v, pred, v_new, relaxed, criterion):
        counts.append((problem.a_calls, problem.b_calls, relaxed))

    run(problem, _config(variant, beta, gamma), v0, observer=observe)
    for (a0, b0, _), (a1, b1, relaxed) in zip(counts, counts[1:]):
        assert a1 - a0 == 1
        if not relaxed:
            assert b1 - b0 == 3
