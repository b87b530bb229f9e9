import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from conftest import one_step, stacked, subproblem_residual
from hypothesis import given, settings
from hypothesis import strategies as st

from admmkit import EssentialState, SolverConfig, run
from admmkit import lasso
from admmkit.lasso import LassoInstance, generate_instance, rho_max


def test_generated_columns_have_unit_norm():
    instance, _ = generate_instance(120, 200, 0)
    norms = np.linalg.norm(instance.A, axis=0)
    assert np.abs(norms - 1.0).max() <= 1e-12


@pytest.mark.parametrize(
    "m, n", [(50, 1), (1, 50), (40, 65), (1000, 1500), (3000, 1000)]
)
def test_generated_design_is_bitwise_the_whole_array_scaling(m, n):
    instance, _ = generate_instance(m, n, 5)
    draw = np.random.default_rng(5).standard_normal((m, n))
    assert np.array_equal(instance.A, draw / np.linalg.norm(draw, axis=0))


def test_generation_is_deterministic():
    a, xa = generate_instance(50, 80, 123)
    b, xb = generate_instance(50, 80, 123)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    assert a.rho == b.rho
    assert np.array_equal(xa, xb)
    c, _ = generate_instance(50, 80, 124)
    assert not np.array_equal(a.A, c.A)


def test_generated_nonzero_count_rule():
    _, x_true = generate_instance(100, 300, 1)
    assert np.count_nonzero(x_true) == 30  # min(100, 300 // 10)
    _, x_big = generate_instance(400, 1200, 1)
    assert np.count_nonzero(x_big) == 100


def test_generated_signal_to_noise_ratio():
    ratios = []
    for seed in range(3):
        instance, x_true = generate_instance(1000, 1500, seed)
        noise = instance.b - instance.A @ x_true
        ratios.append(
            np.linalg.norm(instance.A @ x_true) ** 2 / np.linalg.norm(noise) ** 2
        )
    for ratio in ratios:
        assert 200 / 3 <= ratio <= 200 * 3


def test_rho_max_examples():
    assert rho_max(np.eye(2), np.array([1.0, 2.0])) == 2.0
    assert rho_max(np.eye(2), np.zeros(2)) == 0.0


def test_x_update_degenerate_zero_design():
    instance = LassoInstance(np.zeros((5, 8)), np.zeros(5), rho=1.0)
    y = np.arange(8.0)
    z = np.ones(8)
    beta = 2.0
    assert np.allclose(instance.solve_x(y, z, beta), y + z / beta, atol=1e-14)


@pytest.mark.parametrize("shape", [(20, 50), (50, 20)], ids=["fat", "tall"])
def test_solve_x_is_bitwise_the_checked_cholesky_solve(rng, shape):
    # the same three-block Gram matrix, over the row halves of M = A (fat) or
    # A' (tall), factorized and solved by two triangular solves with scipy's
    # default checks; cho_solve's dtrsm-based solve on the Gram matrix formed
    # in one product agrees to rounding
    rows, cols = shape
    instance, _ = generate_instance(rows, cols, 8)
    A, beta = instance.A, 1.7
    M = A if rows < cols else A.T
    top, bottom = M[: len(M) // 2], M[len(M) // 2 :]
    gram = np.block([[top @ top.T, (bottom @ top.T).T], [bottom @ top.T, bottom @ bottom.T]])
    upper = scipy.linalg.cho_factor(gram + beta * np.eye(len(M)))[0]
    factor = scipy.linalg.cho_factor(M @ M.T + beta * np.eye(len(M)))

    def triangular(v):
        z = scipy.linalg.solve_triangular(upper, v, trans="T")
        return scipy.linalg.solve_triangular(upper, z)

    for _ in range(5):
        y = rng.standard_normal(cols)
        z = rng.standard_normal(cols)
        rhs = A.T @ instance.b + beta * y + z
        if rows < cols:
            expected = rhs / beta - A.T @ triangular(A @ rhs) / beta
            agreed = rhs / beta - A.T @ scipy.linalg.cho_solve(factor, A @ rhs) / beta
        else:
            expected = triangular(rhs)
            agreed = scipy.linalg.cho_solve(factor, rhs)
        x = instance.solve_x(y, z, beta)
        assert np.array_equal(x, expected)
        assert np.linalg.norm(x - agreed) <= 1e-13 * np.linalg.norm(agreed)
    # a C-ordered factor would make every BLAS call copy it
    assert instance._cache[1].flags.f_contiguous


@pytest.mark.parametrize("shape", [(40, 60), (60, 40)], ids=["fat", "tall"])
def test_the_gram_helper_thread_changes_no_bit(monkeypatch, rng, shape):
    # the off-diagonal block runs on a helper thread only when the first of
    # OpenBLAS's thread-count variables that is set reads 1
    threads = []
    matmul = lasso._matmul

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return matmul(*args, **kwargs)

    monkeypatch.setattr(lasso, "_matmul", recorded)
    y, z = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
    before = threading.active_count()
    solves = []
    for setting, helper in [({"OPENBLAS_NUM_THREADS": "1"}, True), ({}, False),
                            ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
                            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False)]:
        for name in lasso._BLAS_THREADS:
            monkeypatch.delenv(name, raising=False)
        for name, value in setting.items():
            monkeypatch.setenv(name, value)
        threads.clear()
        instance, _ = generate_instance(*shape, 11)
        solves.append((instance.solve_x(y, z, 1.3), instance._cache[1]))
        assert len(threads) == 3 and len(set(threads)) == (2 if helper else 1), setting
        assert threading.active_count() == before
    for x, upper in solves[1:]:
        assert np.array_equal(x, solves[0][0])
        assert np.array_equal(upper, solves[0][1])


@pytest.mark.parametrize("shape", [(20, 50), (50, 20)], ids=["fat", "tall"])
def test_solve_x_factorizes_once_per_beta(monkeypatch, rng, shape):
    calls = []

    def counting_cho_factor(*args, **kwargs):
        calls.append(1)
        return scipy.linalg.cho_factor(*args, **kwargs)

    monkeypatch.setattr(lasso, "cho_factor", counting_cho_factor)
    instance, _ = generate_instance(*shape, 10)
    y, z = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
    for _ in range(4):
        instance.solve_x(y, z, 1.0)
    assert len(calls) == 1
    instance.solve_x(y, z, 2.5)
    assert len(calls) == 2


def test_x_update_cache_tracks_beta(rng):
    instance, _ = generate_instance(15, 25, 4)
    y = rng.standard_normal(25)
    z = rng.standard_normal(25)
    x1 = instance.solve_x(y, z, 1.0)
    x2 = instance.solve_x(y, z, 3.0)  # must refactorize, not reuse beta=1 cache
    rhs = instance.A.T @ instance.b + 3.0 * y + z
    lhs = instance.A.T @ (instance.A @ x2) + 3.0 * x2
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert not np.allclose(x1, x2)


@pytest.mark.parametrize("shape", [(60, 90), (90, 60)], ids=["fat", "tall"])
def test_concurrent_solves_at_different_betas_share_one_instance(shape):
    # solve_x reads the single-slot cache once and replaces it whole, so every
    # call uses its own beta's factor, however the threads interleave
    betas = (0.5, 1.0, 2.0)
    configs = [SolverConfig(variant="over_relaxed", beta=beta) for beta in betas]
    serial = [run(generate_instance(*shape, 0)[0], config) for config in configs]
    shared, _ = generate_instance(*shape, 0)
    threads = 6
    start = threading.Barrier(threads, timeout=60)

    def solves(offset):
        start.wait()
        return [(i % 3, run(shared, configs[i % 3])) for i in range(offset, offset + 30)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside a solve_x as well
    try:
        with ThreadPoolExecutor(threads) as pool:
            batches = pool.map(solves, range(threads), timeout=120)
            results = [pair for batch in batches for pair in batch]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == threads * 30
    for i, result in results:
        assert result.records == serial[i].records
        for got, want in zip(vars(result.final).values(), vars(serial[i].final).values()):
            assert np.array_equal(got, want)


def _soft_threshold(a, weight, beta):
    """Soft thresholding at weight / beta, through the y-solve the engine runs."""
    return LassoInstance(np.eye(len(a)), np.zeros(len(a)), weight).solve_y(a, np.zeros(len(a)), beta)


def test_soft_threshold_definition_cases():
    assert _soft_threshold(np.array([2.0]), 2.0, 2.0)[0] == 1.0
    assert _soft_threshold(np.array([0.5]), 2.0, 2.0)[0] == 0.0
    assert _soft_threshold(np.array([-3.0]), 2.0, 2.0)[0] == -2.0


@settings(max_examples=200)
@given(
    # weight / beta: 0 by underflow, the least subnormal, and up to 1e308
    # short of overflow, which would form inf - inf
    st.one_of(
        st.sampled_from([(5e-324, 2.0), (5e-324, 1.0)]),
        st.tuples(st.floats(5e-324, 1e308), st.just(1.0)),
    ),
    st.lists(
        st.one_of(
            st.sampled_from(["kappa", "-kappa", 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                             -1e-310, 1e308, -1e308, np.inf, -np.inf, np.nan]),
            st.floats(-10.0, 10.0),
        ),
        min_size=1, max_size=64,
    ),
    st.integers(0, 2**32 - 1),
)
def test_soft_threshold_is_bitwise_the_two_sided_max_form(weight_beta, drawn, seed):
    weight, beta = weight_beta
    kappa = weight / beta
    entries = [{"kappa": kappa, "-kappa": -kappa}.get(e, e) for e in drawn]
    a = np.concatenate([entries, np.random.default_rng(seed).standard_normal(len(entries))])
    with np.errstate(over="ignore"):
        reference = np.maximum(a - kappa, 0.0) - np.maximum(-a - kappa, 0.0)
    got = _soft_threshold(a, weight, beta)
    nan = np.isnan(reference)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), reference[~nan].view(np.uint64))


def test_y_update_scalar_case():
    instance = LassoInstance(np.eye(2), np.array([1.0, 1.0]), rho=0.1)
    # shifted input 0.3 with threshold rho/beta = 0.1 shrinks to 0.2
    out = instance.solve_y(np.array([0.3, 0.3]), np.zeros(2), beta=1.0)
    assert np.allclose(out, [0.2, 0.2])


def test_y_update_all_zero_when_threshold_dominates(rng):
    instance = LassoInstance(rng.standard_normal((10, 6)), rng.standard_normal(10), rho=50.0)
    x = rng.uniform(-1, 1, 6)
    z = rng.uniform(-1, 1, 6)
    assert np.array_equal(instance.solve_y(x, z, beta=1.0), np.zeros(6))


def test_y_update_first_order_optimality(rng):
    instance, _ = generate_instance(40, 80, 5)
    for _ in range(10):
        x = rng.standard_normal(80)
        z = rng.standard_normal(80)
        beta = float(rng.uniform(0.3, 4.0))
        y = instance.solve_y(x, z, beta)
        assert subproblem_residual(instance, "y", x, y, z, beta) <= 1e-12


def test_exact_fixed_point_is_stationary_under_one_step():
    # with rho above the critical value, (y, lam) = (0, -A'b) is an exact
    # fixed point of the iteration in floating point
    instance, _ = generate_instance(30, 50, 7)
    critical = LassoInstance(instance.A, instance.b, 1.01 * rho_max(instance.A, instance.b))
    v_star = EssentialState(np.zeros(50), -(critical.A.T @ critical.b))
    config = SolverConfig(variant="over_relaxed", gamma=1.8)
    v_next, rec = one_step(critical, v_star, config)
    assert rec.relaxed and rec.criterion_value == 0.0
    assert np.linalg.norm(stacked(v_next - v_star)) <= 1e-12
    assert critical.x_stationarity(np.zeros(50), v_star.lam) <= 1e-12
