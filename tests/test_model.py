import math
import re

import numpy as np
import pytest
from conftest import stacked

from admmkit import (
    DimensionMismatchError,
    EssentialState,
    Iterate,
    SolverConfig,
    run,
)
from admmkit import lasso
from admmkit.model import require_finite, require_fits, require_real


def test_solver_config_accepts_unit_gamma_for_relaxed_variants():
    # gamma below 1 is permitted; 1 recovers the plain step
    SolverConfig(variant="over_relaxed", gamma=1.0)
    SolverConfig(variant="relaxed_customized", gamma=0.5)
    # classical ignores gamma entirely
    SolverConfig(variant="classical", gamma=5.0)


def test_essential_state_helpers(chain):
    v = EssentialState.zeros(chain)
    assert v.y.shape == (1,) and v.lam.shape == (1,)
    d = EssentialState(np.array([3.0]), np.array([1.0])) - EssentialState(
        np.array([1.0]), np.array([4.0])
    )
    assert np.array_equal(stacked(d), [2.0, -3.0])


def test_iterate_validation(chain):
    w = Iterate(np.array([1.0]), np.array([2.0]), np.array([3.0]))
    valid = w.validate(chain)
    assert all(np.isfinite(part).all() for part in (valid.x, valid.y, valid.lam))
    with pytest.raises(DimensionMismatchError):
        Iterate(np.array([1.0, 2.0]), np.array([2.0]), np.array([3.0])).validate(chain)


def test_relaxed_flag_implies_nonnegative_criterion():
    instance, _ = lasso.generate_instance(60, 120, 0)
    config = SolverConfig(variant="over_relaxed", gamma=1.8, max_iter=200)
    result = run(instance, config)
    assert result.converged
    for rec in result.records:
        assert rec.primal_residual_norm >= 0 and rec.dual_residual_norm >= 0
        if rec.relaxed:
            assert rec.criterion_value >= 0
        else:
            assert rec.criterion_value < 0


@pytest.mark.parametrize("shape", [(), (7,), (300, 1000), (70000, 1), (2, 3, 40000)])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
def test_require_finite_finds_a_bad_entry_anywhere(shape, where, bad):
    values = np.ones(shape)
    require_finite("values", values)
    index = {"first": 0, "middle": values.size // 2, "last": values.size - 1}[where]
    values.flat[index] = bad
    with pytest.raises(ValueError, match="values must be finite"):
        require_finite("values", values)


def test_require_finite_passes_an_empty_array():
    require_finite("values", np.ones((0, 3)))


@pytest.mark.parametrize(
    "value", [1.5, np.float64(1.5), np.float32(1.5), 1, np.int64(1), 1e308, 5e-324]
)
def test_require_real_accepts_a_finite_number_inside_its_interval(value):
    require_real("beta", value, 0)
    require_real("beta", value)


@pytest.mark.parametrize(
    "value", ["1", None, True, np.bool_(True), 1j, math.nan, math.inf, -math.inf,
              np.float64(math.nan), 10**400, np.ones(1), [1.0]]
)
def test_require_real_names_a_value_that_is_not_a_finite_number(value):
    message = rf"^beta must be a finite number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        require_real("beta", value, 0)


@pytest.mark.parametrize(
    "low, high, value, message",
    [(0, math.inf, 0.0, r"\(0, inf\), got 0.0"),
     (0, math.inf, -1, r"\(0, inf\), got -1"),
     (0, 2, 2, r"\(0, 2\), got 2"),
     (0, 2, np.float64(2.5), r"\(0, 2\), got 2.5"),
     (-math.inf, 1e-3, 1e-3, r"\(-inf, 0.001\), got 0.001")],
)
def test_require_real_bounds_are_strict_and_named_with_the_interval(low, high, value, message):
    with pytest.raises(ValueError, match=f"^gamma must lie in {message}$"):
        require_real("gamma", value, low, high)


def test_require_fits_bounds_the_bytes_by_the_index_range():
    # 8 (2**60 - 1) bytes is the most np.iinfo(np.intp).max = 2**63 - 1 allows
    require_fits((2**60 - 1,), n=2**60 - 1)
    message = r"^a \(1152921504606846976,\) float64 array for n=1152921504606846976 is past"
    with pytest.raises(ValueError, match=message):
        require_fits((2**60,), n=2**60)


def test_a_generator_size_past_the_index_range_is_named_before_allocating():
    # each size fits alone and their product does not; test_inputs.py's
    # generator rows take one size each
    message = (r"^a \(1099511627776, 1099511627776\) float64 array for m=1099511627776, "
               r"n=1099511627776 is past the index range$")
    with pytest.raises(ValueError, match=message):
        lasso.generate_instance(2**40, 2**40, 0)
