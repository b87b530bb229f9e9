"""Flat binary container for problem instances.

Layout: the magic line ``ADMMKIT1\\n``, one JSON header line (UTF-8, ending
in ``\\n``), then the raw little-endian float64 payload. Lasso headers carry
(kind, m, n, rho, seed) with payload row-major A then b; covariance-selection
headers carry (kind, n, tau, seed) with payload row-major S. Round trips are
bitwise exact.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .covsel import CovselInstance
from .lasso import LassoInstance

MAGIC = b"ADMMKIT1\n"


def save_instance(path, instance, seed: int | None = None) -> Path:
    """Write a Lasso or covariance-selection instance; returns the path."""
    path = Path(path)
    if isinstance(instance, LassoInstance):
        header = {
            "kind": "lasso",
            "m": instance.rows,
            "n": instance.cols,
            "rho": instance.rho,
            "seed": seed,
        }
        payload = (instance.A.astype("<f8").tobytes(), instance.b.astype("<f8").tobytes())
    elif isinstance(instance, CovselInstance):
        header = {"kind": "covsel", "n": instance.n, "tau": instance.tau, "seed": seed}
        payload = (instance.S.astype("<f8").tobytes(),)
    else:
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for chunk in payload:
            fh.write(chunk)
    return path


def _header_field(path, header, key, integer):
    """``header[key]``: a positive integer, or else a finite number as a float.
    A missing or mistyped field raises ValueError naming the path and key."""
    if key not in header:
        raise ValueError(f"{path}: header has no {key!r} field")
    value = header[key]
    if integer:
        ok, expected = type(value) is int and value > 0, "a positive integer"
    else:
        # abs() <= max is False for NaN and inf, and compares huge ints exactly
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        expected = "a finite number"
    if not ok:
        raise ValueError(f"{path}: header field {key!r} must be {expected}, got {value!r}")
    return value if integer else float(value)


def load_instance(path):
    """Read an instance container; returns (instance, header dict).

    Every defect of the file raises ValueError naming the path: a bad magic
    line, a header that is not a JSON object, a missing or mistyped header
    field, a payload of the wrong length, or data the instance rejects.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not an instance container (bad magic {magic!r})")
        line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValueError(f"{path}: header is not valid JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header must be a JSON object, got {type(header).__name__}")
    kind = header.get("kind")
    if kind == "lasso":
        m = _header_field(path, header, "m", integer=True)
        n = _header_field(path, header, "n", integer=True)
        weight = _header_field(path, header, "rho", integer=False)
        expected = (m * n + m) * 8
    elif kind == "covsel":
        n = _header_field(path, header, "n", integer=True)
        weight = _header_field(path, header, "tau", integer=False)
        expected = n * n * 8
    else:
        raise ValueError(f"{path}: unknown instance kind {kind!r}")
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8")
    try:
        if kind == "lasso":
            A, b = values[: m * n].reshape(m, n), values[m * n :]
            instance = LassoInstance(A.copy(), b.copy(), weight)
        else:
            instance = CovselInstance(values.reshape(n, n).copy(), weight)
    except ValueError as exc:  # data the constructor rejects, e.g. a NaN
        raise ValueError(f"{path}: {exc}") from exc
    return instance, header
