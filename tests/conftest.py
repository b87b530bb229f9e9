from dataclasses import replace

import numpy as np
import pytest

from admmkit import EssentialState, run
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


@pytest.fixture
def solve_traced():
    """run() that also returns the trajectory v^0 .. v^K seen by an observer."""

    def solve(problem, config, v0=None):
        trajectory = []

        def observe(k, v_old, pred, v_new, relaxed, criterion):
            if not trajectory:
                trajectory.append(v_old)
            trajectory.append(v_new)

        return run(problem, config, v0, observer=observe), trajectory

    return solve


@pytest.fixture
def one_step():
    """A single step of config's variant from v: (v_next, record)."""

    def step(problem, v, config):
        result = run(problem, replace(config, max_iter=1), v)
        return EssentialState(result.final.y, result.final.lam), result.records[0]

    return step
