import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from admmkit.container import MAGIC, load_instance, save_instance
from admmkit.covsel import CovselInstance
from admmkit.covsel import generate_instance as generate_covsel
from admmkit.lasso import LassoInstance
from admmkit.lasso import generate_instance as generate_lasso

FUZZ = settings(max_examples=60)


def test_lasso_round_trip_is_bitwise(tmp_path):
    instance, _ = generate_lasso(12, 20, 5)
    path = save_instance(tmp_path / "inst.bin", instance, seed=5)
    loaded, header = load_instance(path)
    assert header == {"kind": "lasso", "m": 12, "n": 20, "rho": instance.rho, "seed": 5}
    assert np.array_equal(loaded.A, instance.A)
    assert np.array_equal(loaded.b, instance.b)
    assert loaded.rho == instance.rho


def test_covsel_round_trip_is_bitwise(tmp_path):
    instance, _ = generate_covsel(14, 9, tau=0.13)
    path = save_instance(tmp_path / "cov.bin", instance)
    loaded, header = load_instance(path)
    assert header["kind"] == "covsel" and header["n"] == 14 and header["seed"] is None
    assert np.array_equal(loaded.S, instance.S)
    assert loaded.tau == 0.13


@pytest.mark.parametrize(
    "instance, seed, expected",
    [
        (LassoInstance([[1.0, -2.0], [0.5, 3.0], [0.0, 0.25]], [1.0, 2.0, -1.0], 0.5), 7,
         b'{"kind": "lasso", "m": 3, "n": 2, "rho": 0.5, "seed": 7}\n'
         + struct.pack("<9d", 1.0, -2.0, 0.5, 3.0, 0.0, 0.25, 1.0, 2.0, -1.0)),
        (CovselInstance([[2.0, 0.5], [0.5, 1.0]], 0.25), None,
         b'{"kind": "covsel", "n": 2, "seed": null, "tau": 0.25}\n'
         + struct.pack("<4d", 2.0, 0.5, 0.5, 1.0)),
        # a NumPy integer seed is written as a plain int
        (CovselInstance([[2.0, 0.5], [0.5, 1.0]], 0.25), np.int64(3),
         b'{"kind": "covsel", "n": 2, "seed": 3, "tau": 0.25}\n'
         + struct.pack("<4d", 2.0, 0.5, 0.5, 1.0)),
    ],
    ids=["lasso", "covsel", "numpy-seed"],
)
def test_saved_bytes_are_pinned(tmp_path, instance, seed, expected):
    # the magic line, the header with sorted keys, then little-endian float64s
    path = save_instance(tmp_path / "inst.bin", instance, seed=seed)
    assert path.read_bytes() == MAGIC + expected


@st.composite
def instances(draw):
    """A Lasso instance over arbitrary finite data, or a generated covsel one."""
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        values = st.floats(-1e100, 1e100, allow_subnormal=True)
        A = draw(hnp.arrays(float, (m, n), elements=values))
        b = draw(hnp.arrays(float, m, elements=values))
        rho = draw(st.floats(0.0, 1e100, exclude_min=True))
        return LassoInstance(A, b, rho)
    tau = draw(st.floats(0.0, 1e3, exclude_min=True))
    return generate_covsel(draw(st.integers(10, 14)), draw(st.integers(0, 2**16)), tau=tau)[0]


def _bits(instance):
    arrays = (instance.A, instance.b) if isinstance(instance, LassoInstance) else (instance.S,)
    return type(instance), [a.tobytes() for a in arrays], instance.weight


@FUZZ
@given(instances(), st.integers(0, 2**16))
def test_round_trip_is_bitwise_for_any_instance(tmp_path_factory, instance, seed):
    path = save_instance(tmp_path_factory.mktemp("rt") / "inst.bin", instance, seed=seed)
    loaded, header = load_instance(path)
    assert header["seed"] == seed and _bits(loaded) == _bits(instance)


def _load_or_value_error(path):
    try:
        load_instance(path)
    except ValueError:
        pass


@FUZZ
@given(instances(), st.data())
def test_truncated_container_loads_or_raises_value_error(tmp_path_factory, instance, data):
    path = save_instance(tmp_path_factory.mktemp("cut") / "inst.bin", instance)
    blob = path.read_bytes()
    path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
    _load_or_value_error(path)


@FUZZ
@given(instances(), st.data())
def test_corrupted_header_byte_loads_or_raises_value_error(tmp_path_factory, instance, data):
    path = save_instance(tmp_path_factory.mktemp("flip") / "inst.bin", instance)
    blob = bytearray(path.read_bytes())
    header_end = blob.index(b"\n", len(MAGIC))
    blob[data.draw(st.sampled_from(range(header_end + 1)))] = data.draw(st.sampled_from(range(256)))
    path.write_bytes(bytes(blob))
    _load_or_value_error(path)
