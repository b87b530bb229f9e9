"""Flat binary container for problem instances.

Layout: the magic line ``ADMMKIT1\\n``, one JSON header line (UTF-8, ending
in ``\\n``), then the raw little-endian float64 payload. Lasso headers carry
(kind, m, n, rho, seed) with payload row-major A then b; covariance-selection
headers carry (kind, n, tau, seed) with payload row-major S. Round trips are
bitwise exact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .covsel import CovselInstance
from .lasso import LassoInstance
from .model import require_int

MAGIC = b"ADMMKIT1\n"


def save_instance(path, instance, seed: int | None = None) -> Path:
    """Save an instance and ``seed`` (None or int >= 0) unless either is bad; returns the path."""
    path = Path(path)
    if isinstance(instance, LassoInstance):
        header = {"kind": "lasso", "m": instance.rows, "n": instance.cols, "rho": instance.rho}
        payload = (instance.A, instance.b)
    elif isinstance(instance, CovselInstance):
        header = {"kind": "covsel", "n": instance.n, "tau": instance.tau}
        payload = (instance.S,)
    else:
        raise ValueError(
            f"instance must be a LassoInstance or a CovselInstance, got {type(instance).__name__}"
        )
    if seed is not None:  # written as a plain int, a NumPy one too
        require_int("seed", seed, 0)
    line = json.dumps({**header, "seed": None if seed is None else int(seed)}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC + line.encode("utf-8") + b"\n")
        for a in payload:  # through the buffer protocol: a native float64 array is not copied
            fh.write(np.ascontiguousarray(a, dtype="<f8"))
    return path


def load_instance(path):
    """Read an instance container; returns (instance, header dict).

    Every defect of the file raises ValueError naming the path: a bad magic
    line, a header that is not a JSON object, a missing or mistyped header
    field, a payload of the wrong length, or data the instance rejects. The
    payload is read into one array, which the instance keeps, once its length
    matches the header's.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not an instance container (bad magic {magic!r})")
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise ValueError(f"{path}: header is not valid JSON ({exc})") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header must be a JSON object, got {type(header).__name__}")
        kind = header.get("kind")
        if kind not in ("lasso", "covsel"):
            raise ValueError(f"{path}: unknown instance kind {kind!r}")
        dims, weight_key = (("m", "n"), "rho") if kind == "lasso" else (("n",), "tau")
        if missing := [key for key in (*dims, weight_key) if key not in header]:
            raise ValueError(f"{path}: header has no {missing[0]!r} field")
        try:
            for key in dims:  # before anything is allocated; the instance checks the weight
                require_int(key, header[key], 1)
            if header.get("seed") is not None:
                require_int("seed", header["seed"], 0)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        n, weight = header["n"], header[weight_key]
        m = header["m"] if kind == "lasso" else n
        count = m * n + m if kind == "lasso" else n * n
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size == count * 8:
            values = np.empty(count, dtype="<f8")
            size = fh.readinto(values)
        if size != count * 8:
            raise ValueError(f"{path}: payload is {size} bytes, expected {count * 8}")
    try:
        if kind == "lasso":
            instance = LassoInstance(values[: m * n].reshape(m, n), values[m * n :], weight)
        else:
            instance = CovselInstance(values.reshape(n, n), weight)
    except ValueError as exc:  # data the constructor rejects, e.g. a NaN
        raise ValueError(f"{path}: {exc}") from exc
    return instance, header
