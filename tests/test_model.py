import numpy as np
import pytest
from conftest import stacked

from admmkit import (
    EssentialState,
    Iterate,
    SolverConfig,
    run,
)
from admmkit import lasso
from admmkit.model import require_finite, require_real


def test_solver_config_accepts_unit_gamma_for_relaxed_variants():
    # gamma below 1 is permitted; 1 recovers the plain step
    SolverConfig(variant="over_relaxed", gamma=1.0)
    SolverConfig(variant="relaxed_customized", gamma=0.5)
    # classical ignores gamma entirely
    SolverConfig(variant="classical", gamma=5.0)


def test_essential_state_and_iterate_helpers(chain):
    v = EssentialState.zeros(chain)
    assert v.y.shape == (1,) and v.lam.shape == (1,)
    d = EssentialState(np.array([3.0]), np.array([1.0])) - EssentialState(
        np.array([1.0]), np.array([4.0])
    )
    assert np.array_equal(stacked(d), [2.0, -3.0])
    valid = Iterate(np.array([1.0]), np.array([2.0]), np.array([3.0])).validate(chain)
    assert all(np.isfinite(part).all() for part in (valid.x, valid.y, valid.lam))


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
