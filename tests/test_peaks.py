import functools

import pytest
from conftest import untraced_memory

from admmkit import VARIANTS, SolverConfig, covsel, lasso, run
from admmkit.container import load_instance, save_instance
from admmkit.model import require_finite


@functools.cache
def _lasso():
    return lasso.generate_instance(3000, 1000, 0)[0]


@functools.cache
def _covsel():
    return covsel.generate_instance(300, 0)[0]


def _solve(variant):
    instance = covsel.generate_instance(100, 3)[0]
    config = SolverConfig(variant=variant, gamma=1.7, eps_abs=1e-6, eps_rel=1e-4, max_iter=20)
    return run, (instance, config), instance.S


#: Every tracemalloc bound, one row each: row id -> (set-up, multiple). The
#: set-up, given a temporary directory, builds outside the trace the call, its
#: arguments and the array (or byte count) whose bytes the multiple scales.
PEAKS = {
    # A is drawn once and scaled in place, its norms taken over column blocks
    "lasso-generate": (lambda tmp: (lasso.generate_instance, (3000, 1000, 0), _lasso().A), 1.3),
    # A is kept, not copied, and its finiteness scan holds no mask
    "lasso-constructor": (
        lambda tmp: (lasso.LassoInstance, (_lasso().A, _lasso().b, 0.1), _lasso().A), 0.05),
    # one n x n buffer serves the skew check, the factorization and the kept S
    "covsel-constructor": (lambda tmp: (covsel.CovselInstance, (_covsel().S,), _covsel().S), 1.2),
    # a step holds at most eight vectors of n^2 floats
    **{f"covsel-solve-{v}": (lambda tmp, v=v: _solve(v), 8.5) for v in VARIANTS},
    # the payload is read into one array, which the instance keeps
    "lasso-load": (
        lambda tmp: (load_instance, (save_instance(tmp / "i.bin", _lasso()),), _lasso().A), 1.2),
    # the read payload, and the constructor's buffer that becomes the kept S
    "covsel-load": (
        lambda tmp: (load_instance, (save_instance(tmp / "i.bin", _covsel()),), _covsel().S), 2.2),
    # each native float64 array is written through the buffer protocol
    "lasso-save": (lambda tmp: (save_instance, (tmp / "i.bin", _lasso()), _lasso().A), 0.05),
    "covsel-save": (lambda tmp: (save_instance, (tmp / "i.bin", _covsel()), _covsel().S), 0.05),
    # two reductions; a bool mask of the 3000 x 1000 data would be 3 MB
    "require-finite": (lambda tmp: (require_finite, ("values", _lasso().A), 4096), 1.0),
}


@pytest.mark.parametrize("setup, multiple", PEAKS.values(), ids=PEAKS)
def test_the_peak_stays_under_its_bound(tmp_path, setup, multiple):
    call, args, of = setup(tmp_path)
    with untraced_memory() as memory:
        call(*args)
        peak = memory()[1]
    assert peak < multiple * getattr(of, "nbytes", of), peak
