from dataclasses import dataclass, replace

import numpy as np
import pytest

from admmkit import EssentialState, IterationRecord, predict, run
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


def _record(relaxed):
    """The record of an observed step; a FejerMonitor step reads only ``relaxed``."""
    return IterationRecord(1, 0.0, 0.0, 0.0, relaxed, 0.0, 0.0)


@pytest.fixture
def forced_step(extrapolate):
    """(v, pred, v_next, record) of a plain sweep from v whose relaxation by
    gamma is applied whether or not the gate would fire, and a record saying
    it relaxed: the arguments of an observer call on a forced relaxed step."""

    def step(problem, v, beta, gamma):
        pred = predict(problem, v, beta)
        return v, pred, extrapolate(v, pred, gamma), _record(True)

    return step


@pytest.fixture(scope="session")
def observe_transition():
    """Feeds a FejerMonitor of ``problem`` the transition v_old -> v_new as
    run would: with the plain sweep's prediction at v_old under the monitor's
    beta, and a record saying whether the step relaxed."""

    def observe(monitor, problem, v_old, v_new, relaxed):
        pred = predict(problem, v_old, monitor.mats.beta)
        monitor(v_old, pred, v_new, _record(relaxed))

    return observe


@dataclass(frozen=True)
class DenseMatrices:
    """M, Q, H = Q M^-1 and G = Q' + Q - M'HM of the prediction-correction
    reading (He & Yuan 2012) for a dense B, as (n2+m) x (n2+m) arrays with the
    block layout [y-block; multiplier-block]. It has the ``beta``, ``gamma``
    and ``apply_B`` of AnalysisMatrices, so h_norm_sq and g_form take it too."""

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
    """Max-norm residual of lam_pred = lam_early + beta B(y - y_pred),
    relative to max(1, ||lam_pred||_inf)."""

    def residual(v, pred, mats):
        recombined = pred.lam_early + mats.beta * mats.apply_B(v.y - pred.y_pred)
        return np.abs(pred.lam_pred - recombined).max() / max(1.0, np.abs(pred.lam_pred).max())

    return residual


@pytest.fixture(scope="session")
def correction_residual():
    """2-norm residual of v_next = v - M(v - v_tilde) at the auxiliary point
    v_tilde = (y_pred, lam_early), relative to ||v_next||."""

    def residual(v, pred, v_next, mats):
        expected = v.stacked() - mats.M @ (v - pred.essential_early).stacked()
        target = v_next.stacked()
        return np.linalg.norm(target - expected) / max(np.linalg.norm(target), 1e-300)

    return residual


@pytest.fixture(scope="session")
def expansion_mismatch():
    """|d'Gd - e| / |d'Gd| for d = v - v_tilde and its step form
    e = (2 - gamma)/gamma ||v - v_next||_H^2 + 2 (lam - lam_pred)'B(y - y_pred)."""

    def mismatch(v, pred, v_next, mats):
        d, step = (v - pred.essential_early).stacked(), (v - v_next).stacked()
        direct = d @ mats.G @ d
        cross = (v.lam - pred.lam_pred) @ mats.apply_B(v.y - pred.y_pred)
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
