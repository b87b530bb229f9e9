import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from admmkit import (
    EssentialState, IterationRecord, SolverConfig, covsel, lasso, run
)
from admmkit.covsel import _symmetrize
from admmkit.model import VARIANTS
from admmkit.quadratic import QuadraticProblem, scalar_chain

#: The paper's two protocol cells, each solved at beta 1 on seeds 0-9 by
#: every variant: problem -> (size, gamma, eps_abs, eps_rel).
PAPER_CELLS = {"lasso": ((1000, 1500), 1.8, 1e-5, 1e-3), "covsel": ((300,), 1.7, 1e-6, 1e-4)}
PAPER_SEEDS = range(10)


class EssentialChange:
    """Observer keeping ||B(y_k - y_(k+1))||^2 + ||lam_k - lam_(k+1)||^2 of the
    first and of the latest observed step, never the iterates, and the
    relaxed flag of every observed step."""

    def __init__(self, problem):
        self.apply_B = problem.apply_B
        self.first = self.last = None
        self.flags = bytearray()

    def __call__(self, v_old, w, v_new, record):
        d = v_new - v_old
        b_dy = self.apply_B(d.y)
        self.last = float(b_dy @ b_dy + d.lam @ d.lam)
        if self.first is None:
            self.first = self.last
        self.flags.append(record.relaxed)


def table_runs(problem):
    """Every variant on every seed of ``problem``'s paper cell: per-variant
    results, the seconds all solves took, and per-variant EssentialChange
    observers of the solves. Acceptance criteria 1, 2 and 9 and the iteration
    ledger's paper rows read the same solves."""
    size, gamma, eps_abs, eps_rel = PAPER_CELLS[problem]
    generate = lasso.generate_instance if problem == "lasso" else covsel.generate_instance
    t0 = time.perf_counter()
    runs = {v: [] for v in VARIANTS}
    changes = {v: [] for v in VARIANTS}
    for seed in PAPER_SEEDS:
        instance = generate(*size, seed)[0]
        for variant in VARIANTS:
            config = SolverConfig(
                variant=variant, beta=1.0, gamma=gamma,
                eps_abs=eps_abs, eps_rel=eps_rel, max_iter=2000,
            )
            changes[variant].append(EssentialChange(instance))
            runs[variant].append(run(instance, config, observer=changes[variant][-1]))
    return runs, time.perf_counter() - t0, changes


@pytest.fixture(scope="session")
def lasso_table_runs():
    """(1000, 1500) at (1e-5, 1e-3), gamma 1.8, beta 1, seeds 0..9, all variants."""
    return table_runs("lasso")


@pytest.fixture(scope="session")
def covsel_table_runs():
    """n=300 at (1e-6, 1e-4), gamma 1.7, beta 1, seeds 0..9, all variants."""
    return table_runs("covsel")


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


class IdentityB(QuadraticProblem):
    """B = I, applied by handing back y itself or a read-only copy of it."""

    read_only = False

    def apply_B(self, y):
        if not self.read_only:
            return y
        by = y.copy()
        by.flags.writeable = False
        return by


@pytest.fixture(scope="session")
def identity_b():
    return IdentityB


@pytest.fixture
def solve_traced():
    """run() that also returns the trajectory v^0 .. v^K seen by an observer."""

    def solve(problem, config, v0=None):
        trajectory = []

        def observe(v_old, w, v_new, record):
            if not trajectory:
                trajectory.append(v_old)
            trajectory.append(v_new)

        return run(problem, config, v0, observer=observe), trajectory

    return solve


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


def _sweep(problem, v, beta):
    """The plain prediction sweep from v at ``beta``: the point w a one-step
    classical run hands its observer and returns as ``final``, which a
    non-finite step, not observed, returns too."""
    return run(problem, SolverConfig(variant="classical", beta=beta, max_iter=1), v).final


@pytest.fixture(scope="session")
def sweep():
    return _sweep


def _stacked(v):
    """The pair v = (y, lam) as one vector [y; lam], the layout of dense_matrices."""
    return np.concatenate([np.ravel(v.y), np.ravel(v.lam)])


@pytest.fixture(scope="session")
def stacked():
    return _stacked


def _lam_tilde(problem, v, w, beta):
    """The early multiplier lam - beta (A w.x + B y - b) at the old pair
    v = (y, lam), written out; the same bits as the engine's multiplier update."""
    return v.lam - beta * (problem.apply_A(w.x) + problem.apply_B(v.y) - problem.rhs_b)


@pytest.fixture(scope="session")
def lam_tilde():
    return _lam_tilde


@pytest.fixture
def extrapolate():
    """Reference of the relaxed correction v - gamma (v - (y_pred, lam_pred)),
    applied whether or not the gate would fire, for the analysis identities."""

    def relaxed(v, w, gamma):
        d = v - EssentialState(w.y, w.lam)
        return EssentialState(v.y - gamma * d.y, v.lam - gamma * d.lam)

    return relaxed


def _record(relaxed):
    """The record of an observed step; a FejerMonitor step reads only ``relaxed``."""
    return IterationRecord(1, 0.0, 0.0, 0.0, relaxed, 0.0, 0.0)


@pytest.fixture
def forced_step(extrapolate):
    """(v, w, v_next, record) of a plain sweep from v whose relaxation by
    gamma is applied whether or not the gate would fire, and a record saying
    it relaxed: the arguments of an observer call on a forced relaxed step."""

    def step(problem, v, beta, gamma):
        w = _sweep(problem, v, beta)
        return v, w, extrapolate(v, w, gamma), _record(True)

    return step


@pytest.fixture(scope="session")
def observe_transition():
    """Feeds a FejerMonitor of ``problem`` the transition v_old -> v_new as
    run would: with the plain sweep's prediction at v_old under the monitor's
    beta, and a record saying whether the step relaxed."""

    def observe(monitor, problem, v_old, v_new, relaxed):
        w = _sweep(problem, v_old, monitor.beta)
        monitor(v_old, w, v_new, _record(relaxed))

    return observe


@dataclass(frozen=True)
class DenseMatrices:
    """M, Q, H = Q M^-1 and G = Q' + Q - M'HM of the prediction-correction
    reading (He & Yuan 2012) for a dense B, as (n2+m) x (n2+m) arrays with the
    block layout [y-block; multiplier-block]. It has ``beta``, ``gamma`` and
    ``apply_B``, as a FejerMonitor does, so h_norm_sq and g_form take it too."""

    beta: float
    gamma: float
    B: np.ndarray
    M: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    G: np.ndarray

    def apply_B(self, y):
        return self.B @ y

    @property
    def h_residual(self):
        """Max-norm residual of H = Q M^-1."""
        return float(np.abs(self.H - self.Q @ np.linalg.inv(self.M)).max())

    @property
    def g_residual(self):
        """Max-norm residual of G = Q' + Q - M'HM."""
        return float(np.abs(self.G - (self.Q.T + self.Q - self.M.T @ self.H @ self.M)).max())


@pytest.fixture(scope="session")
def dense_matrices():
    """DenseMatrices of a (B, beta, gamma) triple."""

    def build(B, beta, gamma):
        B = np.asarray(B, dtype=float)
        m, n2 = B.shape
        eye_y, eye_m, zeros = np.eye(n2), np.eye(m), np.zeros((n2, m))
        btb = B.T @ B
        btb = (btb + btb.T) / 2.0  # exact symmetry for the diagonal blocks
        M = np.block([[gamma * eye_y, zeros], [-gamma * beta * B, gamma * eye_m]])
        Q = np.block([[beta * btb, zeros], [-B, eye_m / beta]])
        H = np.block([[beta * btb / gamma, zeros], [zeros.T, eye_m / (beta * gamma)]])
        G = np.block([
            [(2.0 - 2.0 * gamma) * beta * btb, (gamma - 1.0) * B.T],
            [(gamma - 1.0) * B, (2.0 - gamma) / beta * eye_m],
        ])
        return DenseMatrices(beta, gamma, B, M, Q, H, G)

    return build


@pytest.fixture(scope="session")
def dense_B():
    """A problem's B, materialized by applying its constraint operator to basis vectors."""

    def materialize(problem):
        return np.column_stack([problem.apply_B(e) for e in np.eye(problem.n2)])

    return materialize


# Test-side formulas of the three per-step identities, each on the dense
# M, H, G and B of dense_matrices and in the scaling FejerMonitor keeps.


@pytest.fixture(scope="session")
def split_residual():
    """Max-norm residual of lam_pred = lam_tilde + beta B(y - y_pred),
    relative to max(1, ||lam_pred||_inf)."""

    def residual(problem, v, w, mats):
        lam_tilde = _lam_tilde(problem, v, w, mats.beta)
        recombined = lam_tilde + mats.beta * mats.apply_B(v.y - w.y)
        return np.abs(w.lam - recombined).max() / max(1.0, np.abs(w.lam).max())

    return residual


@pytest.fixture(scope="session")
def correction_residual():
    """2-norm residual of v_next = v - M(v - v_tilde) at the auxiliary point
    v_tilde = (y_pred, lam_tilde), relative to ||v_next||."""

    def residual(problem, v, w, v_next, mats):
        d = v - EssentialState(w.y, _lam_tilde(problem, v, w, mats.beta))
        expected = _stacked(v) - mats.M @ _stacked(d)
        target = _stacked(v_next)
        return np.linalg.norm(target - expected) / max(np.linalg.norm(target), 1e-300)

    return residual


@pytest.fixture(scope="session")
def expansion_mismatch():
    """|d'Gd - e| / |d'Gd| for d = v - v_tilde and its step form
    e = (2 - gamma)/gamma ||v - v_next||_H^2 + 2 (lam - lam_pred)'B(y - y_pred)."""

    def mismatch(problem, v, w, v_next, mats):
        d = _stacked(v - EssentialState(w.y, _lam_tilde(problem, v, w, mats.beta)))
        step = _stacked(v - v_next)
        direct = d @ mats.G @ d
        cross = (v.lam - w.lam) @ mats.apply_B(v.y - w.y)
        expanded = (2.0 - mats.gamma) / mats.gamma * (step @ mats.H @ step) + 2.0 * cross
        return abs(direct - expanded) / max(abs(direct), 1e-300)

    return mismatch


@pytest.fixture
def gemm_solve_x():
    """CovselInstance.solve_x with the eigenvector product taken as the
    symmetrized gemm (U diag(x)) U', a different kernel for the same X."""

    def solve_x(self, y, lam, beta):
        Y, Lam = (np.reshape(v, (self.n, self.n)) for v in (y, lam))
        d, U = np.linalg.eigh(beta * Y + Lam - self.S)
        xs = (d + np.sqrt(d * d + 4.0 * beta)) / (2.0 * beta)
        return _symmetrize((U * xs) @ U.T).ravel()

    return solve_x
