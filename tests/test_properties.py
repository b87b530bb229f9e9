"""Property tests of the step kernel over random dense quadratic problems."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from admmkit import VARIANTS, EssentialState, SolverConfig, run
from admmkit.diagnostics import FejerMonitor
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
    for _, _, _, record in steps:
        assert record is result.records[record.k - 1]
        if variant == "classical":
            assert not record.relaxed
        elif variant == "over_relaxed":
            assert record.relaxed == (record.criterion_value >= 0.0)
        else:
            assert record.relaxed


@PROPERTY
@given(cases(), st.sampled_from(("classical", "over_relaxed")))
def test_split_and_correction_identities_on_every_step(
    split_residual, correction_residual, dense_matrices, dense_B, case, variant
):
    problem, v0, beta, gamma = case
    config = _config(variant, beta, gamma)
    monitor = FejerMonitor(problem, config, EssentialState.zeros(problem))
    mats = dense_matrices(dense_B(problem), beta, monitor.gamma)
    _, steps = _observed(problem, config, v0)
    for v, w, v_new, record in steps:
        monitor(v, w, v_new, record)
        assert split_residual(problem, v, w, mats) <= 1e-12
        if record.relaxed:
            assert correction_residual(problem, v, w, v_new, mats) <= 1e-12
    assert monitor.split <= 1e-12 and monitor.correction <= 1e-12


@PROPERTY
@given(cases(), st.sampled_from(VARIANTS))
def test_operator_applications_per_step(lam_tilde, case, variant):
    problem, v0, beta, gamma = case
    marks = []  # (calls when the step ends, calls when the observer returns, relaxed)

    def observe(v, w, v_new, record):
        end = (problem.a_calls, problem.b_calls)
        if variant == "relaxed_customized":  # its multiplier is the early one, to the bit
            assert w.lam.tobytes() == lam_tilde(problem, v, w, beta).tobytes()
        marks.append((end, (problem.a_calls, problem.b_calls), record.relaxed))

    run(problem, _config(variant, beta, gamma), v0, observer=observe)
    start = (0, 0)
    for end, after, relaxed in marks:
        assert end[0] - start[0] == 1
        # the early multiplier is the monitor's to form, not the step's
        assert end[1] - start[1] == (3 if relaxed else 2)
        start = after
