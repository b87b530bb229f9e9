from dataclasses import replace

import numpy as np
import pytest

from admmkit import EssentialState, run
from admmkit.covsel import _symmetrize
from admmkit.quadratic import QuadraticProblem, scalar_chain


@pytest.fixture
def chain():
    return scalar_chain()


@pytest.fixture
def chain_start():
    return EssentialState(np.array([1.0]), np.array([0.0]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_quadratic(rng):
    return QuadraticProblem.random(n1=3, n2=4, m=6, rng=rng)


class NanAfterTwo(QuadraticProblem):
    """x - y = 0 in one dimension whose third y-solve returns NaN."""

    def __init__(self):
        super().__init__([[1.0]], [0.0], [[1.0]], [0.0], [[1.0]], [[-1.0]], [0.0])
        self.calls = 0

    def solve_y(self, x, lam, beta):
        self.calls += 1
        if self.calls > 2:
            return np.array([np.nan])
        return super().solve_y(x, lam, beta)


@pytest.fixture(scope="session")
def nan_after_two():
    return NanAfterTwo


@pytest.fixture
def solve_traced():
    """run() that also returns the trajectory v^0 .. v^K seen by an observer."""

    def solve(problem, config, v0=None):
        trajectory = []

        def observe(v_old, pred, v_new, record):
            if not trajectory:
                trajectory.append(v_old)
            trajectory.append(v_new)

        return run(problem, config, v0, observer=observe), trajectory

    return solve


class EssentialChange:
    """Observer keeping ||B(y_k - y_(k+1))||^2 + ||lam_k - lam_(k+1)||^2 of the
    first and of the latest observed step, never the iterates."""

    def __init__(self, problem):
        self.apply_B = problem.apply_B
        self.first = self.last = None

    def __call__(self, v_old, pred, v_new, record):
        d = v_new - v_old
        b_dy = self.apply_B(d.y)
        self.last = float(b_dy @ b_dy + d.lam @ d.lam)
        if self.first is None:
            self.first = self.last


@pytest.fixture(scope="session")
def essential_change():
    return EssentialChange


@pytest.fixture
def subproblem_residual():
    """First-order residual of the x- or y-subproblem at (x, y): that block's
    saddle-point stationarity taken at the multiplier lam - beta (Ax + By - b)."""

    def residual(problem, block, x, y, lam, beta):
        shifted = lam - beta * problem.constraint_residual(x, y)
        if block == "x":
            return problem.x_stationarity(x, shifted)
        return problem.y_stationarity(y, shifted)

    return residual


@pytest.fixture
def one_step():
    """A single step of config's variant from v: (v_next, record), v_next being
    the new pair the observer sees."""

    def step(problem, v, config):
        pairs = []
        result = run(problem, replace(config, max_iter=1), v, lambda *seen: pairs.append(seen[2]))
        return pairs[0], result.records[0]

    return step


@pytest.fixture
def extrapolate():
    """Reference of the relaxed correction v - gamma (v - (y_pred, lam_pred)),
    applied whether or not the gate would fire, for the analysis identities."""

    def relaxed(v, pred, gamma):
        d = v - pred.essential
        return EssentialState(v.y - gamma * d.y, v.lam - gamma * d.lam)

    return relaxed


@pytest.fixture
def gemm_x_update():
    """CovselInstance.x_update with the eigenvector product taken as the
    symmetrized gemm (U diag(x)) U', a different kernel for the same X."""

    def x_update(self, Y, Lam, beta):
        d, U = np.linalg.eigh(beta * np.asarray(Y) + np.asarray(Lam) - self.S)
        xs = (d + np.sqrt(d * d + 4.0 * beta)) / (2.0 * beta)
        return _symmetrize((U * xs) @ U.T)

    return x_update
