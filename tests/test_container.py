import struct

import numpy as np
import pytest
from conftest import untraced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from admmkit.container import MAGIC, load_instance, save_instance
from admmkit.covsel import CovselInstance
from admmkit.covsel import generate_instance as generate_covsel
from admmkit.lasso import LassoInstance
from admmkit.lasso import generate_instance as generate_lasso

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMINE\n{}\n")
    with pytest.raises(ValueError, match="magic"):
        load_instance(path)


def test_truncated_payload_rejected(tmp_path):
    instance, _ = generate_lasso(6, 8, 0)
    path = save_instance(tmp_path / "inst.bin", instance)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError, match="payload"):
        load_instance(path)


@pytest.mark.parametrize(
    "edit, size, expected",
    [(lambda data: data[:-16], 48 * 8 - 16, 48 * 8),
     (lambda data: data + bytes(8), 48 * 8 + 8, 48 * 8),
     (lambda data: data.replace(b'"m": 6', b'"m": 1000000000000'), 48 * 8, 8 * 8 * 10**12)],
    ids=["short", "long", "huge-header"],
)
def test_payload_length_is_checked_before_reading(tmp_path, edit, size, expected):
    # the length is compared with the file's size before any allocation, so a
    # huge header field is a payload error, not a MemoryError
    instance, _ = generate_lasso(6, 7, 0)
    path = save_instance(tmp_path / "inst.bin", instance)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=f": payload is {size} bytes, expected {expected}$"):
        load_instance(path)


def test_lasso_load_holds_one_copy_of_the_data(tmp_path):
    rng = np.random.default_rng(0)
    instance = LassoInstance(rng.standard_normal((3000, 1000)), rng.standard_normal(3000), 0.1)
    (loaded, _), peak = untraced_peak(load_instance, save_instance(tmp_path / "inst.bin", instance))
    assert peak <= 1.2 * instance.A.nbytes
    assert np.array_equal(loaded.A, instance.A) and np.array_equal(loaded.b, instance.b)


def test_covsel_load_holds_the_data_and_one_working_copy(tmp_path):
    # the constructor's n x n buffer becomes the kept S, so the read payload
    # and that buffer are the two copies
    instance, _ = generate_covsel(300, 0)
    (loaded, _), peak = untraced_peak(load_instance, save_instance(tmp_path / "inst.bin", instance))
    assert peak <= 2.2 * instance.S.nbytes
    assert np.array_equal(loaded.S, instance.S)


@pytest.mark.parametrize(
    "make, data",
    [(lambda: generate_lasso(3000, 1000, 0)[0], "A"), (lambda: generate_covsel(300, 0)[0], "S")],
    ids=["lasso", "covsel"],
)
def test_save_holds_no_copy_of_the_data(tmp_path, make, data):
    # each native float64 array is written through the buffer protocol
    instance = make()
    path, peak = untraced_peak(save_instance, tmp_path / "inst.bin", instance)
    assert peak <= 0.05 * getattr(instance, data).nbytes
    assert np.array_equal(getattr(load_instance(path)[0], data), getattr(instance, data))


@pytest.mark.parametrize(
    "instance, operand",
    [(generate_lasso(6, 8, 0)[0], "b"), (generate_covsel(10, 0)[0], "S")],
    ids=["lasso", "covsel"],
)
def test_non_finite_payload_rejected(tmp_path, instance, operand):
    path = save_instance(tmp_path / "inst.bin", instance)
    path.write_bytes(path.read_bytes()[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    with pytest.raises(ValueError, match=f"{operand} must be finite"):
        load_instance(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "odd.bin"
    path.write_bytes(b"ADMMKIT1\n" + b'{"kind": "mystery"}\n')
    with pytest.raises(ValueError, match="unknown instance kind"):
        load_instance(path)


@pytest.mark.parametrize(
    "header, payload_bytes, message",
    [
        (b"[1]", 0, "header must be a JSON object, got list"),
        (b'{"kind": "lasso", "n": 2', 0, "header is not valid JSON"),
        (b"\xff", 0, "header is not valid JSON"),
        (b'{"kind": "lasso", "n": 2}', 0, "header has no 'm' field"),
        (b'{"kind": "lasso", "m": 2, "n": 2}', 48, "header has no 'rho' field"),
        (b'{"kind": "lasso", "m": -2, "n": -3, "rho": 1.0}', 32, "m must be at least 1, got -2"),
        (b'{"kind": "lasso", "m": 2, "n": true, "rho": 1.0}', 24, "n must be an integer, got True"),
        (b'{"kind": "covsel", "n": -3, "tau": 1.0}', 72, "n must be at least 1, got -3"),
        (b'{"kind": "covsel", "n": 1.0, "tau": 1.0}', 8, "n must be an integer, got 1.0"),
        (b'{"kind": "covsel", "n": 1, "tau": "0.1"}', 8, "tau must be a finite number, got '0.1'"),
        (b'{"kind": "covsel", "n": 1, "tau": 1e999}', 8, "tau must be a finite number, got inf"),
        (b'{"kind": "covsel", "n": 1, "tau": 1%s}' % (b"0" * 400), 8, "tau must be a finite"),
        (b'{"kind": "covsel", "n": 1, "tau": 0}', 8, "tau must lie in (0, inf), got 0"),
        (b'{"kind": "covsel", "n": 1, "seed": "abc", "tau": 1.0}', 8,
         "seed must be an integer, got 'abc'"),
        (b'{"kind": "covsel", "n": 1, "seed": -1, "tau": 1.0}', 8, "seed must be at least 0, got -1"),
        (b'{"kind": "lasso", "m": 1, "n": 1, "rho": 1.0, "seed": 2.5}', 16,
         "seed must be an integer, got 2.5"),
        (b'{"kind": "covsel", "n": 1, "seed": true, "tau": 1.0}', 8,
         "seed must be an integer, got True"),
    ],
    ids=[
        "not-object", "bad-json", "bad-utf8", "no-m", "no-rho", "negative-dims", "bool-dim",
        "negative-n", "float-n", "string-tau", "inf-tau", "huge-int-tau", "zero-tau",
        "string-seed", "negative-seed", "float-seed", "bool-seed",
    ],
)
def test_malformed_header_rejected_by_path_and_field(tmp_path, header, payload_bytes, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(MAGIC + header + b"\n" + bytes(payload_bytes))
    with pytest.raises(ValueError) as exc:
        load_instance(path)
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)


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
