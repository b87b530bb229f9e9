"""The over-relaxation gate reads a criterion within its rounding error of zero
as exactly zero, so no exact x-solve's rounding decides a relaxation."""

import numpy as np
import pytest
import scipy.linalg
from conftest import gemm_solve_x, one_step

from admmkit import EssentialState, SolverConfig, run
from admmkit import covsel, engine, lasso
from admmkit.model import SeparableProblem


def _flags(result):
    return [rec.relaxed for rec in result.records]


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: lasso.generate_instance(40, 60, seed)[0],
        lambda seed: lasso.generate_instance(300, 200, seed)[0],
        lambda seed: covsel.generate_instance(20, seed)[0],
    ],
    ids=["lasso-fat", "lasso-tall", "covsel"],
)
def test_relaxed_flags_do_not_depend_on_the_x_solve_kernel(monkeypatch, make):
    config = SolverConfig(variant="over_relaxed", gamma=1.8)
    problems = [make(seed) for seed in range(5)]
    before = [run(problem, config) for problem in problems]
    monkeypatch.setattr(
        lasso, "_cholesky_solve", lambda upper, rhs: scipy.linalg.cho_solve((upper, False), rhs)
    )
    monkeypatch.setattr(covsel.CovselInstance, "solve_x", gemm_solve_x)
    for problem, base in zip(problems, before):
        other = run(problem, config)
        assert other.iterations == base.iterations
        assert _flags(other) == _flags(base)


class _Scripted(SeparableProblem):
    """x - y = 0 on R^2 with both subproblem outputs fixed in advance."""

    n1 = n2 = m = 2

    def __init__(self, x, y):
        self.x, self.y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)

    def solve_x(self, y, lam, beta):
        return self.x

    def solve_y(self, x, lam, beta):
        return self.y

    def apply_A(self, x):
        return x

    def apply_B(self, y):
        return -y

    @property
    def rhs_b(self):
        return np.zeros(2)

    def x_stationarity(self, x, lam):
        return 0.0

    def y_stationarity(self, y, lam):
        return 0.0


def test_rounding_level_criterion_reads_zero_and_relaxes():
    # from v = 0 the criterion is (x - y_pred) . y_pred = 1 - (1 + delta) = -delta;
    # c u S is about 4.3e-15 here
    config = SolverConfig(variant="over_relaxed", gamma=1.8)
    v = EssentialState(np.zeros(2), np.zeros(2))
    for delta, inside in ((1e-15, True), (-1e-15, True), (1e-12, False), (-1e-12, False)):
        problem = _Scripted([2.0, -delta], [1.0, -1.0 - delta])
        _, rec = one_step(problem, v, config)
        crit = rec.criterion_value
        if inside:
            assert crit == 0.0 and rec.relaxed
        else:
            assert crit == pytest.approx(-delta, rel=1e-3)
            assert rec.relaxed == (crit >= 0.0)


def test_relaxed_flags_do_not_depend_on_the_rounding_factor(monkeypatch):
    # acceptance criterion 7's solves: every criterion is either within 0.25
    # u S of zero or above 1e5 u S, so any factor in [1, 1000] gates alike
    config = SolverConfig(
        variant="over_relaxed", beta=1.0, gamma=1.8, eps_abs=1e-5, eps_rel=1e-3, max_iter=2000
    )
    for seed in range(10):
        problem, _ = lasso.generate_instance(1500, 1500, seed)
        flags = _flags(run(problem, config))
        for factor in (1.0, 1000.0):
            with monkeypatch.context() as patch:
                patch.setattr(engine, "CRITERION_ROUNDING_FACTOR", factor)
                assert _flags(run(problem, config)) == flags
