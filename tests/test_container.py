import numpy as np
import pytest

from admmkit.container import load_instance, save_instance
from admmkit.covsel import generate_instance as generate_covsel
from admmkit.lasso import generate_instance as generate_lasso


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


def test_unsupported_instance_type_rejected(tmp_path):
    with pytest.raises(TypeError):
        save_instance(tmp_path / "x.bin", object())
