"""Malformed inputs at the public entry points.

One table row per (entry point, argument): a call that puts a value in that
argument's slot and keeps every other argument valid. One derandomized
strategy draws the malformed values. Each call must return or raise a
ValueError whose message names the argument. A shape error may name another
argument instead when the row's argument sets that one's expected shape: a
Lasso A with three rows makes a valid length-2 b the mismatch. An integer
or real parameter's error must read as one of the two messages of
``model.require_int`` or ``model.require_real``; a ``BenchmarkSpec`` list
entry that must be a pair may instead say it is not one, and a size may
instead give its generator's message after the entry's name; a pair
argument's message may name one of its elements instead. The container
header's fields have rows of their own, ``HEADER_ROWS``, drawn from values
JSON can hold and checked after the container's path. A second table,
``EXACT``, pins whole messages: each of its cases puts one malformed value
in a row's slot, a header row's too, and gives the exact message, and every
row has at least one case. ``CONTAINERS`` pins the whole message of each
defect of a container file that no header row covers: its bytes, and the
message after its path. ``RAISES`` pins every other raise: a call of no
arguments, the exception's class and its whole message.
The command line has a table of its own beside ``EXACT``, ``USAGE_ERRORS``:
each case is a command line and the whole message of its usage error, and
``conftest.usage_message`` checks the rest of the contract (exit code 2, the
usage line of the command's parser, or of ``admm-bench``'s when the command
is missing or unknown, no traceback and no ``--out``). Every command line
runs through ``conftest.run_cli``, the sweep's too: one malformed flag value
in a small valid command must end in exit code 0, 3 or 2, and a 2 must be a
usage error.
"""

import json
import math
import os
import re
import struct
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from conftest import run_cli, usage_message

from admmkit import (DimensionMismatchError, EssentialState, Iterate, SolverConfig, SolverError,
                     run)
from admmkit import bench, covsel, lasso
from admmkit.bench import BenchmarkSpec, emit_trajectory_plotdata
from admmkit.container import MAGIC, load_instance, save_instance
from admmkit.diagnostics import FejerMonitor, kkt_residual, reference_solution
from admmkit.model import require_fits, require_real
from admmkit.quadratic import QuadraticProblem, scalar_chain

SWEEP = settings(max_examples=8)

#: None, bools, strings, complex numbers, ragged and nested lists, NaN and
#: inf, negative and huge ints, arrays of small shapes (empty ones included)
#: holding finite values, NaN or inf, and complex arrays.
MALFORMED = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.complex_numbers(max_magnitude=10),
    st.sampled_from([[[1.0], [1.0, 2.0]], [1.0, [2.0]], [[[1.0]]], [[]]]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1),
    st.integers(min_value=2**63, max_value=10**400),
    hnp.arrays(
        float,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
        elements=st.one_of(st.floats(-4, 4), st.sampled_from([math.nan, math.inf])),
    ),
    hnp.arrays(complex, hnp.array_shapes(max_dims=2, max_side=3)),
    st.sampled_from([np.empty(0), np.empty((0, 0)), np.empty((2, 0))]),
)

# Valid data with integer values, so an integer copy of it is valid too.
LASSO = dict(A=np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]), b=np.array([1.0, 2.0]), rho=1.0)
COVSEL = dict(S=np.array([[2.0, 1.0], [1.0, 2.0]]), tau=1.0)
QUADRATIC = dict(
    P1=2 * np.eye(2), q1=np.array([1.0, 0.0]), P2=2 * np.eye(2), q2=np.array([0.0, 1.0]),
    A=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    B=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
    b=np.array([1.0, 2.0, 3.0]),
)
PROBLEM = QuadraticProblem(**QUADRATIC)
#: Valid sizes for ``QuadraticProblem.random``, whose rows add a new generator.
RANDOM = dict(n1=2, n2=2, m=3)
Y, LAM = np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])
#: The three problem kinds, for the rows of their subproblem solves.
SOLVERS = {
    "LassoInstance": lasso.LassoInstance(**LASSO),
    "CovselInstance": covsel.CovselInstance(**COVSEL),
    "QuadraticProblem": PROBLEM,
}


def _in_new_dir(write):
    """``write(directory)`` for a new directory, which a ValueError must
    leave empty; returns what ``write`` returns."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            return write(Path(tmp))
        except ValueError:
            assert not os.listdir(tmp)
            raise


def _save(instance, seed=None):
    """save_instance into a new directory; returns the bytes it wrote."""
    return _in_new_dir(lambda tmp: save_instance(tmp / "inst.bin", instance, seed).read_bytes())


def _spec(**field):
    return BenchmarkSpec(**{"problem": "lasso", "sizes": [(4, 6)], "tolerances": [(1e-5, 1e-3)],
                            **field})


class Row(NamedTuple):
    call: Callable
    name: str
    #: arguments whose expected shape this one sets
    partners: tuple = ()
    #: a valid array for the slot, or None for a non-array argument
    valid: object = None
    #: the forms the message may take after the name, as a regex; None for any
    form: str | None = None
    #: the names of a pair argument's elements, which a message may name instead
    elements: tuple = ()


#: The two message forms of require_int and of require_real, after the name.
INT = r" must be (an integer|at least -?\d+), got .+"
REAL = r" must (be a finite number|lie in \([^()]*\)), got .+"
#: A BenchmarkSpec entry that must be a pair: not one, or an element's form.
PAIR = r"( must be a pair, got .+|\[[01]\]{})"
#: A BenchmarkSpec size past the index range, which its generator's
#: ``require_size`` rejects, after the entry's name.
GENERATOR = r": a \(.+\) float64 array for .+ is past the index range"


def _real(call, name):
    return Row(call, name, form=REAL)


def _solve(kind, block):
    """A row for beta in one subproblem solve of ``kind``, at zero vectors."""
    problem = SOLVERS[kind]
    n = problem.n2 if block == "x" else problem.n1
    solve = getattr(problem, f"solve_{block}")
    return _real(lambda v: solve(np.zeros(n), np.zeros(problem.m), v), "beta")


ROWS = {
    "LassoInstance.A": Row(lambda v: lasso.LassoInstance(**{**LASSO, "A": v}), "A", ("b",),
                           LASSO["A"]),
    "LassoInstance.b": Row(lambda v: lasso.LassoInstance(**{**LASSO, "b": v}), "b",
                           valid=LASSO["b"]),
    "LassoInstance.rho": _real(lambda v: lasso.LassoInstance(**{**LASSO, "rho": v}), "rho"),
    "CovselInstance.S": Row(lambda v: covsel.CovselInstance(**{**COVSEL, "S": v}), "S",
                            valid=COVSEL["S"]),
    "CovselInstance.tau": _real(lambda v: covsel.CovselInstance(**{**COVSEL, "tau": v}), "tau"),
    **{
        f"QuadraticProblem.{key}": Row(
            lambda v, key=key: QuadraticProblem(**{**QUADRATIC, key: v}), key,
            {"A": ("B", "b", "P1", "q1"), "B": ("P2", "q2")}.get(key, ()), QUADRATIC[key],
        )
        for key in QUADRATIC
    },
    **{
        f"QuadraticProblem.random.{key}": Row(
            lambda v, key=key: QuadraticProblem.random(
                **{**RANDOM, "rng": np.random.default_rng(0), key: v}), key)
        for key in ("n1", "n2", "m", "rng")
    },
    "lasso.generate_instance.m": Row(lambda v: lasso.generate_instance(v, 6, 0), "m"),
    "lasso.generate_instance.n": Row(lambda v: lasso.generate_instance(4, v, 0), "n"),
    "lasso.generate_instance.seed": Row(lambda v: lasso.generate_instance(4, 6, v), "seed"),
    "lasso.rho_max.A": Row(lambda v: lasso.rho_max(v, LASSO["b"]), "A", ("b",), LASSO["A"]),
    "lasso.rho_max.b": Row(lambda v: lasso.rho_max(LASSO["A"], v), "b", valid=LASSO["b"]),
    "covsel.generate_instance.n": Row(lambda v: covsel.generate_instance(v, 0), "n"),
    "covsel.generate_instance.seed": Row(lambda v: covsel.generate_instance(10, v), "seed"),
    "bench.generate_instance.problem": Row(lambda v: bench.generate_instance(v, (4, 6), 0),
                                           "problem"),
    # a value of two elements reaches the checks of m and n, which name those
    "bench.generate_instance.size": Row(lambda v: bench.generate_instance("lasso", v, 0), "size",
                                        elements=("m", "n")),
    **{
        f"SolverConfig.{key}": Row(
            lambda v, key=key: SolverConfig(**{"variant": "over_relaxed", key: v}), key,
            form=INT if key == "max_iter" else None if key == "variant" else REAL,
        )
        for key in ("variant", "beta", "gamma", "eps_abs", "eps_rel", "max_iter")
    },
    # classical takes any finite gamma; the relaxed variants one in (0, 2)
    **{
        f"SolverConfig({variant}).gamma": _real(
            lambda v, variant=variant: SolverConfig(variant, gamma=v), "gamma")
        for variant in ("classical", "relaxed_customized")
    },
    **{
        f"{kind}.solve_{block}.beta": _solve(kind, block)
        for kind in SOLVERS for block in ("x", "y")
    },
    "BenchmarkSpec.problem": Row(lambda v: _spec(problem=v), "problem"),
    # the grid's solver settings are checked as each config of the grid is built
    "BenchmarkSpec.beta": _real(lambda v: _spec(beta=v), "beta"),
    "BenchmarkSpec.gamma": _real(lambda v: _spec(gamma=v), "gamma"),
    "BenchmarkSpec.max_iter": Row(lambda v: _spec(max_iter=v), "max_iter", form=INT),
    "BenchmarkSpec.variants": Row(lambda v: _spec(variants=v), "variants"),
    "BenchmarkSpec.sizes": Row(lambda v: _spec(sizes=v), "sizes"),
    "BenchmarkSpec.tolerances": Row(lambda v: _spec(tolerances=v), "tolerances"),
    "BenchmarkSpec.repeats": Row(lambda v: _spec(repeats=v), "repeats", form=INT),
    "BenchmarkSpec.seed_base": Row(lambda v: _spec(seed_base=v), "seed_base", form=INT),
    "BenchmarkSpec.diagnostics": Row(lambda v: _spec(diagnostics=v), "diagnostics"),
    "BenchmarkSpec.out_dir": Row(lambda v: _spec(out_dir=v), "out_dir"),
    # a lasso spec rejects any tau; a covsel spec checks it as a real in (0, inf)
    "BenchmarkSpec.tau": Row(lambda v: _spec(tau=v), "tau", form=" applies only to covsel"),
    "BenchmarkSpec(covsel).tau": _real(
        lambda v: BenchmarkSpec("covsel", [10], [(1e-5, 1e-3)], tau=v), "tau"),
    "BenchmarkSpec.sizes[1]": Row(lambda v: _spec(sizes=[(4, 6), v]), "sizes[1]",
                                  form=PAIR.format(INT)),
    "BenchmarkSpec.sizes[1][0]": Row(lambda v: _spec(sizes=[(4, 6), (v, 6)]), "sizes[1]",
                                     form=rf"(\[0\]{INT}|{GENERATOR})"),
    "BenchmarkSpec.sizes[0][1]": Row(lambda v: _spec(sizes=[(4, v)]), "sizes[0]",
                                     form=rf"(\[1\]{INT}|{GENERATOR})"),
    "BenchmarkSpec(covsel).sizes[1]": Row(
        lambda v: BenchmarkSpec("covsel", [10, v], [(1e-5, 1e-3)]), "sizes[1]",
        form=f"({INT}|{GENERATOR})"),
    "BenchmarkSpec.variants[1]": Row(lambda v: _spec(variants=["classical", v]), "variants[1]",
                                     form=r" must be one of \(.+\), got .+"),
    "BenchmarkSpec.tolerances[1]": Row(lambda v: _spec(tolerances=[(1e-5, 1e-3), v]),
                                       "tolerances[1]", form=PAIR.format(REAL)),
    "BenchmarkSpec.tolerances[0][0]": _real(lambda v: _spec(tolerances=[(v, 1e-3)]),
                                            "tolerances[0][0]"),
    "BenchmarkSpec.tolerances[0][1]": _real(lambda v: _spec(tolerances=[(1e-5, v)]),
                                            "tolerances[0][1]"),
    "run.problem": Row(lambda v: run(v, SolverConfig(max_iter=5)), "problem"),
    "run.config": Row(lambda v: run(PROBLEM, v), "config"),
    "run.v0": Row(lambda v: run(PROBLEM, SolverConfig(max_iter=5), v), "v0"),
    "run.observer": Row(lambda v: run(PROBLEM, SolverConfig(max_iter=5), observer=v), "observer"),
    "run.v0.y": Row(lambda v: run(PROBLEM, SolverConfig(max_iter=5), EssentialState(v, LAM)),
                    "v0.y", valid=Y),
    "run.v0.lam": Row(lambda v: run(PROBLEM, SolverConfig(max_iter=5), EssentialState(Y, v)),
                      "v0.lam", valid=LAM),
    "kkt_residual.problem": Row(lambda v: kkt_residual(v, Iterate(Y, Y, LAM)), "problem"),
    "kkt_residual.w": Row(lambda v: kkt_residual(PROBLEM, v), "w"),
    "kkt_residual.w.x": Row(lambda v: kkt_residual(PROBLEM, Iterate(v, Y, LAM)), "x", valid=Y),
    "kkt_residual.w.y": Row(lambda v: kkt_residual(PROBLEM, Iterate(Y, v, LAM)), "y", valid=Y),
    "kkt_residual.w.lam": Row(lambda v: kkt_residual(PROBLEM, Iterate(Y, Y, v)), "lam",
                              valid=LAM),
    "FejerMonitor.problem": Row(
        lambda v: FejerMonitor(v, SolverConfig(), EssentialState(Y, LAM)), "problem"),
    "FejerMonitor.config": Row(lambda v: FejerMonitor(PROBLEM, v, EssentialState(Y, LAM)),
                               "config"),
    "FejerMonitor.v_star": Row(lambda v: FejerMonitor(PROBLEM, SolverConfig(), v), "v_star"),
    "FejerMonitor.v_star.y": Row(
        lambda v: FejerMonitor(PROBLEM, SolverConfig(), EssentialState(v, LAM)), "v_star.y",
        valid=Y),
    "FejerMonitor.v_star.lam": Row(
        lambda v: FejerMonitor(PROBLEM, SolverConfig(), EssentialState(Y, v)), "v_star.lam",
        valid=LAM),
    "reference_solution.config": Row(lambda v: reference_solution(PROBLEM, v), "config"),
    "reference_solution.problem": Row(lambda v: reference_solution(v, SolverConfig()),
                                      "problem"),
    "save_instance.instance": Row(_save, "instance"),
    "save_instance.seed": Row(lambda v: _save(SOLVERS["CovselInstance"], v), "seed", form=INT),
    # require_real itself, at an interval of each kind
    **{
        f"require_real({low:g},{high:g}).value": _real(
            lambda v, low=low, high=high: require_real("value", v, low, high), "value")
        for low, high in ((0, math.inf), (0, 2), (-math.inf, 1e-3))
    },
}


def _read(data):
    """load_instance of a file holding ``data``; a ValueError must start with
    the path, which is cut from it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.bin"
        path.write_bytes(data)
        try:
            load_instance(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            raise ValueError(str(exc)[len(f"{path}: "):]) from None


def _load(data, key, value):
    """_read of the container ``data`` with header field ``key`` set to ``value``."""
    header, payload = data[len(MAGIC):].split(b"\n", 1)
    _read(MAGIC + json.dumps({**json.loads(header), key: value}).encode() + b"\n" + payload)


#: A saved valid instance of each kind, the file a header row or a defect edits.
LASSO_FILE, COVSEL_FILE = (_save(SOLVERS[kind]) for kind in ("LassoInstance", "CovselInstance"))

HEADER_ROWS = {
    f"load_instance.{kind}.{key}": Row(
        lambda v, data=data, key=key: _load(data, key, v), key,
        form=REAL if key in ("rho", "tau") else INT,
    )
    for kind, data, keys in (("LassoInstance", LASSO_FILE, ("m", "n", "rho", "seed")),
                             ("CovselInstance", COVSEL_FILE, ("n", "tau", "seed")))
    for key in keys
}


def _spoilt(valid, bad, at=-1):
    """A float copy of ``valid`` with its flat entry ``at`` set to ``bad``."""
    value = np.array(valid, dtype=float)
    value.flat[at] = bad
    return value


try:
    np.asarray("a").astype(float)
except ValueError as exc:
    #: ``as_array``'s message for a string "a", after the name; the reason
    #: is numpy's own, whose wording differs between numpy versions
    NOT_A_NUMBER = f"must be an array of numbers: {exc}"

CHOICES = "('classical', 'over_relaxed', 'relaxed_customized')"

#: Exact rejections: (row key, malformed value, the whole message).
EXACT = [
    ("LassoInstance.A", np.eye(3) * 1j, "A must be real, got complex values"),
    ("LassoInstance.A", [["a", "b"]], f"A {NOT_A_NUMBER}"),
    ("LassoInstance.A", np.eye(3), "b has shape (2,), expected (3,)"),
    ("LassoInstance.A", _spoilt(LASSO["A"], math.nan), "A must be finite"),
    *(("LassoInstance.A", np.zeros(shape),
       f"A must have at least one row and one column, got shape {shape}")
      for shape in ((0, 3), (3, 0))),
    ("LassoInstance.b", np.ones(3) * 1j, "b must be real, got complex values"),
    ("LassoInstance.b", _spoilt(LASSO["b"], math.inf), "b must be finite"),
    ("LassoInstance.rho", 0.0, "rho must lie in (0, inf), got 0.0"),
    *(("LassoInstance.rho", v, f"rho must be a finite number, got {v!r}")
      for v in (math.inf, math.nan, "x", None)),
    ("CovselInstance.S", np.eye(3) * 1j, "S must be real, got complex values"),
    ("CovselInstance.S", [[1.0, 2.0], [0.0, 1.0]], "S must be symmetric; max asymmetry 2.000e+00"),
    ("CovselInstance.S", -np.eye(3),
     "S must be positive semidefinite; min eigenvalue -1.000e+00"),
    ("CovselInstance.S", np.zeros((2, 3)), "S has shape (2, 3), expected (2, 2)"),
    *(("CovselInstance.S", _spoilt(np.eye(3), bad, 0), "S must be finite")
      for bad in (math.nan, math.inf)),
    ("CovselInstance.tau", 0.0, "tau must lie in (0, inf), got 0.0"),
    *(("CovselInstance.tau", v, f"tau must be a finite number, got {v!r}")
      for v in (math.inf, math.nan, "x", None)),
    *((f"QuadraticProblem.{key}", np.array(valid, dtype=complex),
       f"{key} must be real, got complex values") for key, valid in QUADRATIC.items()),
    *((f"QuadraticProblem.{key}", _spoilt(valid, bad), f"{key} must be finite")
      for key, valid in QUADRATIC.items() for bad in (math.nan, math.inf)),
    *((f"QuadraticProblem.{key}", np.eye(3), f"{key} has shape (3, 3), expected (2, 2)")
      for key in ("P1", "P2")),
    ("QuadraticProblem.B", [[1.0], [1.0]], "B has shape (2, 1), expected (3, None)"),
    *(("QuadraticProblem.B", B, "H not positive definite: B rank-deficient")
      for B in (np.outer(np.ones(3), [1.0, 2.0]), np.zeros((3, 2)))),
    ("QuadraticProblem.random.n1", None, "n1 must be an integer, got None"),
    ("QuadraticProblem.random.n1", 4, "need m >= max(n1, n2) for full column rank"),
    ("QuadraticProblem.random.n2", 0, "n2 must be at least 1, got 0"),
    *(("QuadraticProblem.random.m", m, f"m must be an integer, got {m!r}") for m in ("3", 3.0)),
    ("QuadraticProblem.random.m", 2**63, "a (9223372036854775808, 2) float64 array"
     " for m=9223372036854775808, n1=2, n2=2 is past the index range"),
    ("QuadraticProblem.random.rng", None, "rng must be a Generator, got NoneType"),
    ("lasso.generate_instance.m", 10.5, "m must be an integer, got 10.5"),
    ("lasso.generate_instance.m", 0, "m must be at least 1, got 0"),
    ("lasso.generate_instance.m", 2**63, "a (9223372036854775808, 6) float64 array"
     " for m=9223372036854775808, n=6 is past the index range"),
    ("lasso.generate_instance.n", "20", "n must be an integer, got '20'"),
    ("lasso.generate_instance.seed", "0", "seed must be an integer, got '0'"),
    ("lasso.generate_instance.seed", -1, "seed must be at least 0, got -1"),
    ("lasso.rho_max.A", np.eye(3) * 1j, "A must be real, got complex values"),
    ("lasso.rho_max.A", np.eye(3), "b has shape (2,), expected (3,)"),
    ("lasso.rho_max.b", np.ones(3), "b has shape (3,), expected (2,)"),
    *(("covsel.generate_instance.n", n, f"n must be an integer, got {n!r}")
      for n in ("20", 20.0, None)),
    ("covsel.generate_instance.n", 5, "n must be at least 10, got 5"),
    ("covsel.generate_instance.n", 2**40, "a (1099511627776, 1099511627776) float64 array"
     " for n=1099511627776 is past the index range"),
    ("covsel.generate_instance.seed", 1.5, "seed must be an integer, got 1.5"),
    ("covsel.generate_instance.seed", -1, "seed must be at least 0, got -1"),
    *(("bench.generate_instance.problem", v,
       f"problem must be one of ('lasso', 'covsel'), got {v!r}") for v in ("qp", "Lasso")),
    ("SolverConfig.variant", "bogus", f"variant must be one of {CHOICES}, got 'bogus'"),
    ("SolverConfig.beta", 0.0, "beta must lie in (0, inf), got 0.0"),
    ("SolverConfig.beta", -1.0, "beta must lie in (0, inf), got -1.0"),
    *(("SolverConfig.beta", v, f"beta must be a finite number, got {v!r}")
      for v in (math.inf, math.nan, "1", True)),
    ("SolverConfig.gamma", 0.0, "gamma must lie in (0, 2), got 0.0"),
    ("SolverConfig.gamma", 2.0, "gamma must lie in (0, 2), got 2.0"),
    ("SolverConfig.gamma", math.nan, "gamma must be a finite number, got nan"),
    ("SolverConfig.gamma", None, "gamma must be a finite number, got None"),
    ("SolverConfig(classical).gamma", math.inf, "gamma must be a finite number, got inf"),
    ("SolverConfig(relaxed_customized).gamma", 2.5, "gamma must lie in (0, 2), got 2.5"),
    ("SolverConfig(relaxed_customized).gamma", -0.5, "gamma must lie in (0, 2), got -0.5"),
    ("SolverConfig.eps_abs", 0.0, "eps_abs must lie in (0, inf), got 0.0"),
    ("SolverConfig.eps_abs", math.inf, "eps_abs must be a finite number, got inf"),
    ("SolverConfig.eps_abs", [1e-5], "eps_abs must be a finite number, got [1e-05]"),
    ("SolverConfig.eps_rel", -1e-3, "eps_rel must lie in (0, inf), got -0.001"),
    ("SolverConfig.eps_rel", math.nan, "eps_rel must be a finite number, got nan"),
    ("SolverConfig.max_iter", 0, "max_iter must be at least 1, got 0"),
    ("SolverConfig.max_iter", 2.5, "max_iter must be an integer, got 2.5"),
    ("SolverConfig.max_iter", "100", "max_iter must be an integer, got '100'"),
    *((f"{kind}.solve_{block}.beta", 0.0, "beta must lie in (0, inf), got 0.0")
      for kind in SOLVERS for block in ("x", "y")),
    ("BenchmarkSpec.problem", "qp", "problem must be one of ('lasso', 'covsel'), got 'qp'"),
    ("BenchmarkSpec.beta", 0.0, "beta must lie in (0, inf), got 0.0"),
    ("BenchmarkSpec.gamma", 2.0, "gamma must lie in (0, 2), got 2.0"),
    ("BenchmarkSpec.max_iter", 0, "max_iter must be at least 1, got 0"),
    ("BenchmarkSpec.variants", ("bogus",), f"variants[0] must be one of {CHOICES}, got 'bogus'"),
    ("BenchmarkSpec.variants", "classical", "variants must be a nonempty list"),
    ("BenchmarkSpec.variants", ("classical", "over_relaxed", "classical"),
     "variants lists 'classical' more than once"),
    ("BenchmarkSpec.sizes", [], "sizes must be a nonempty list"),
    ("BenchmarkSpec.sizes", 40, "sizes must be a nonempty list"),
    ("BenchmarkSpec.sizes", [(40, 60), (30, 50), (40, 60)], "sizes lists (40, 60) more than once"),
    ("BenchmarkSpec.sizes", [("a", 2)], "sizes[0][0] must be an integer, got 'a'"),
    ("BenchmarkSpec.sizes", [None], "sizes[0] must be a pair, got None"),
    ("BenchmarkSpec.sizes", [(40, 0)], "sizes[0][1] must be at least 1, got 0"),
    ("BenchmarkSpec.sizes", [(40,)], "sizes[0] must be a pair, got (40,)"),
    ("BenchmarkSpec.tolerances", [], "tolerances must be a nonempty list"),
    ("BenchmarkSpec.tolerances", [(1e-5, 1e-3)] * 2,
     "tolerances lists (1e-05, 0.001) more than once"),
    ("BenchmarkSpec.tolerances", [(1e-5,)], "tolerances[0] must be a pair, got (1e-05,)"),
    ("BenchmarkSpec.tolerances", [("1e-5", 1e-3)],
     "tolerances[0][0] must be a finite number, got '1e-5'"),
    ("BenchmarkSpec.tolerances", [None], "tolerances[0] must be a pair, got None"),
    ("BenchmarkSpec.repeats", 0, "repeats must be at least 1, got 0"),
    *(("BenchmarkSpec.repeats", v, f"repeats must be an integer, got {v!r}") for v in ("2", True)),
    *(("BenchmarkSpec.seed_base", v, f"seed_base must be an integer, got {v!r}")
      for v in ("1", 1.0)),
    ("BenchmarkSpec.seed_base", -1, "seed_base must be at least 0, got -1"),
    *(("BenchmarkSpec.diagnostics", v, f"diagnostics must be a bool, got {type(v).__name__}")
      for v in ("no", np.array([True]), 1)),
    *(("BenchmarkSpec.out_dir", v, f"out_dir must be a str or a PathLike, got {type(v).__name__}")
      for v in (123, None, b"out")),
    *(("BenchmarkSpec.tau", v, "tau applies only to covsel") for v in (0.5, "x", math.nan)),
    ("BenchmarkSpec(covsel).tau", -3.0, "tau must lie in (0, inf), got -3.0"),
    ("BenchmarkSpec.sizes[1]", None, "sizes[1] must be a pair, got None"),
    ("BenchmarkSpec.sizes[1][0]", 0, "sizes[1][0] must be at least 1, got 0"),
    ("BenchmarkSpec.sizes[1][0]", 2**63, "sizes[1]: a (9223372036854775808, 6) float64 array"
     " for m=9223372036854775808, n=6 is past the index range"),
    ("BenchmarkSpec.sizes[0][1]", "a", "sizes[0][1] must be an integer, got 'a'"),
    *(("BenchmarkSpec(covsel).sizes[1]", v, f"sizes[1] must be an integer, got {v!r}")
      for v in ((20, 20), True, 2.0)),
    ("BenchmarkSpec(covsel).sizes[1]", 5, "sizes[1]: n must be at least 10, got 5"),
    ("BenchmarkSpec.variants[1]", 3, f"variants[1] must be one of {CHOICES}, got 3"),
    ("BenchmarkSpec.tolerances[1]", (1e-5,), "tolerances[1] must be a pair, got (1e-05,)"),
    ("BenchmarkSpec.tolerances[0][0]", 0, "tolerances[0][0] must lie in (0, inf), got 0"),
    ("BenchmarkSpec.tolerances[0][1]", "1e-3",
     "tolerances[0][1] must be a finite number, got '1e-3'"),
    ("run.problem", None, "problem must be a SeparableProblem, got NoneType"),
    ("run.config", None, "config must be a SolverConfig, got NoneType"),
    ("run.config", {"variant": "classical"}, "config must be a SolverConfig, got dict"),
    ("run.v0", (Y, LAM), "v0 must be an EssentialState, got tuple"),
    ("run.observer", 3, "observer must be None or callable, got int"),
    ("run.v0.y", np.zeros(3), "v0.y has shape (3,), expected (2,)"),
    *((f"run.v0.{name}", bad, f"v0.{name} {message}")
      for name, valid in (("y", Y), ("lam", LAM))
      for bad, message in ((_spoilt(valid, math.nan, 0), "must be finite"),
                           (_spoilt(valid, math.inf, 0), "must be finite"),
                           (["a"] * len(valid), NOT_A_NUMBER),
                           (valid * 1j, "must be real, got complex values"))),
    ("kkt_residual.problem", None, "problem must be a SeparableProblem, got NoneType"),
    ("kkt_residual.w", (Y, Y, LAM), "w must be an Iterate, got tuple"),
    ("kkt_residual.w.x", np.zeros(3), "x has shape (3,), expected (2,)"),
    ("kkt_residual.w.y", Y * 1j, "y must be real, got complex values"),
    ("kkt_residual.w.lam", np.zeros(2), "lam has shape (2,), expected (3,)"),
    ("FejerMonitor.problem", None, "problem must be a SeparableProblem, got NoneType"),
    ("FejerMonitor.config", None, "config must be a SolverConfig, got NoneType"),
    ("FejerMonitor.v_star", (Y, LAM), "v_star must be an EssentialState, got tuple"),
    ("FejerMonitor.v_star.y", np.zeros(1), "v_star.y has shape (1,), expected (2,)"),
    ("FejerMonitor.v_star.y", np.full(2, math.nan), "v_star.y must be finite"),
    ("FejerMonitor.v_star.lam", _spoilt(LAM, math.inf), "v_star.lam must be finite"),
    ("reference_solution.config", {"variant": "classical"},
     "config must be a SolverConfig, got dict"),
    ("reference_solution.problem", None, "problem must be a SeparableProblem, got NoneType"),
    *(("save_instance.instance", v,
       f"instance must be a LassoInstance or a CovselInstance, got {type(v).__name__}")
      for v in (object(), 3)),
    *(("save_instance.seed", v, f"seed must be an integer, got {v!r}") for v in ("abc", 2.5, True)),
    ("save_instance.seed", -1, "seed must be at least 0, got -1"),
    ("bench.generate_instance.size", 5, "size must be a pair, got 5"),
    ("bench.generate_instance.size", (1,), "size must be a pair, got (1,)"),
    ("bench.generate_instance.size", [0, 6], "m must be at least 1, got 0"),
    # a header field of a saved instance, set to a value JSON can hold
    ("load_instance.LassoInstance.m", -2, "m must be at least 1, got -2"),
    ("load_instance.LassoInstance.n", True, "n must be an integer, got True"),
    ("load_instance.LassoInstance.rho", 0, "rho must lie in (0, inf), got 0"),
    ("load_instance.LassoInstance.seed", 2.5, "seed must be an integer, got 2.5"),
    ("load_instance.CovselInstance.n", -3, "n must be at least 1, got -3"),
    ("load_instance.CovselInstance.n", 1.0, "n must be an integer, got 1.0"),
    *(("load_instance.CovselInstance.tau", v, f"tau must be a finite number, got {v!r}")
      for v in ("0.1", math.inf, 10**400)),
    ("load_instance.CovselInstance.tau", 0, "tau must lie in (0, inf), got 0"),
    *(("load_instance.CovselInstance.seed", v, f"seed must be an integer, got {v!r}")
      for v in ("abc", True)),
    ("load_instance.CovselInstance.seed", -1, "seed must be at least 0, got -1"),
    *(("require_real(0,inf).value", v, f"value must be a finite number, got {v!r}")
      for v in ("1", None, True, np.bool_(True), 1j, math.nan, math.inf, -math.inf,
                np.float64(math.nan), 10**400, np.ones(1), [1.0])),
    ("require_real(0,inf).value", 0.0, "value must lie in (0, inf), got 0.0"),
    ("require_real(0,inf).value", -1, "value must lie in (0, inf), got -1"),
    ("require_real(0,2).value", 2, "value must lie in (0, 2), got 2"),
    ("require_real(0,2).value", np.float64(2.5), "value must lie in (0, 2), got 2.5"),
    ("require_real(-inf,0.001).value", 1e-3, "value must lie in (-inf, 0.001), got 0.001"),
]


def _case_ids(cases):
    """``<row key>-<i>`` for the i-th case of that row."""
    counts = {}
    for key, _, _ in cases:
        counts[key] = counts.get(key, -1) + 1
        yield f"{key}-{counts[key]}"


def _names(message: str, name: str) -> bool:
    return re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", message) is not None


def _check(row: Row, value) -> None:
    """``row.call(value)`` returns, or raises a ValueError that names the
    row's argument (or a partner's shape) in one of the row's forms."""
    try:
        row.call(value)
    except DimensionMismatchError as exc:
        assert exc.operand in (row.name, *row.partners), exc
        assert _names(str(exc), exc.operand), exc
    except ValueError as exc:
        assert any(_names(str(exc), name) for name in (row.name, *row.elements)), exc
        form = row.form and re.escape(row.name) + row.form
        assert form is None or re.fullmatch(form, str(exc), re.S), exc


def _one_of_each(test):
    """Every row also runs one value of each kind of MALFORMED, and a numpy
    scalar that is not a float64."""
    for value in (None, True, "a", 1j, [[1.0], [1.0, 2.0]], math.nan, -1, 10**400,
                  np.full((2, 2), math.inf), np.full((2, 2), math.nan), np.ones(2) * 1j,
                  np.empty((2, 0)), np.float32(0.5)):
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
@SWEEP
@given(value=MALFORMED)
@_one_of_each
def test_a_malformed_argument_returns_or_raises_a_named_value_error(row, value):
    _check(row, value)


@pytest.mark.parametrize("key, value, message", EXACT, ids=list(_case_ids(EXACT)))
def test_a_malformed_argument_raises_its_exact_message(key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        (ROWS | HEADER_ROWS)[key].call(value)
    # a shape error is the one ValueError subclass a rejection raises
    assert type(exc.value) is (DimensionMismatchError if " has shape " in message else ValueError)


def test_every_row_has_an_exact_case():
    assert ROWS.keys() | HEADER_ROWS.keys() == {key for key, _, _ in EXACT}


def _chain_with(**members):
    """The scalar chain with each of ``members`` in place of its method of that name."""
    chain = scalar_chain()
    vars(chain).update(members)
    return chain


def _breakdown(*args):
    raise np.linalg.LinAlgError("synthetic breakdown")


class _KeptBuffer(QuadraticProblem):
    """A QuadraticProblem whose apply_B writes into one array it keeps."""

    def __init__(self, *data):
        super().__init__(*data)
        self.buffer = np.empty(self.m)

    def apply_B(self, y):
        return np.matmul(self.B, y, out=self.buffer)


def _solve_x(instance, operand=None, bad=None):
    """``instance.solve_x`` at beta 1 and zero vectors, which caches the
    factor; then, given an ``operand`` (y or lam), with its entry 3 ``bad``."""
    v = {"y": np.zeros(instance.n2), "lam": np.zeros(instance.m)}
    instance.solve_x(v["y"], v["lam"], 1.0)
    if operand is not None:
        v[operand][3] = bad
        instance.solve_x(v["y"], v["lam"], 1.0)


with tempfile.TemporaryDirectory() as tmp:
    #: A path in a directory that is not there, and open()'s message for it
    UNWRITABLE = Path(tmp) / "missing" / "plot.csv"
try:
    open(UNWRITABLE, "w")
except FileNotFoundError as exc:
    NOT_WRITABLE = str(exc)

#: Raises that no one malformed argument of a row makes: id -> (a call of
#: no arguments, the exception's class and its whole message).
RAISES = {
    "Iterate.validate": (lambda: Iterate([1.0, 2.0], [2.0], [3.0]).validate(scalar_chain()),
                         DimensionMismatchError, "x has shape (2,), expected (1,)"),
    # the first call, at the most bytes an intp index allows, 8 (2**60 - 1), returns
    "require_fits": (lambda: (require_fits((2**60 - 1,), n=2**60 - 1),
                              require_fits((2**60,), n=2**60)), ValueError,
                     "a (1152921504606846976,) float64 array for n=1152921504606846976 is past"
                     " the index range"),
    # each size fits alone and their product does not
    "lasso.generate_instance(2**40,2**40)": (
        lambda: lasso.generate_instance(2**40, 2**40, 0), ValueError,
        "a (1099511627776, 1099511627776) float64 array for m=1099511627776, n=1099511627776 is"
        " past the index range"),
    # more columns than rows, which needs P2 and q2 widened with B
    "QuadraticProblem.B-wide": (
        lambda: QuadraticProblem(np.eye(2), np.zeros(2), np.eye(4), np.zeros(4), np.eye(3, 2),
                                 np.eye(3, 4), np.ones(3)),
        ValueError, "H not positive definite: B rank-deficient"),
    **{
        f"LassoInstance.solve_x.{operand}-{shape}-{bad}": (
            lambda size=size, operand=operand, bad=bad: _solve_x(
                lasso.generate_instance(*size, 9)[0], operand, bad),
            ValueError, f"{name} must be finite")
        for shape, size, name in (("fat", (20, 50), "A(A'b + beta y + lam)"),
                                  ("tall", (50, 20), "A'b + beta y + lam"))
        for operand in ("y", "lam") for bad in (math.nan, math.inf, -math.inf)
    },
    # a finite A, which the constructor takes, whose Gram matrix overflows
    **{
        f"{entry}.gram-{shape}": (
            lambda A=A, solve=solve: solve(lasso.LassoInstance(A, np.ones(len(A)), 0.1)),
            ValueError, f"{name} must be finite")
        for shape, A, name in (("fat", [[1e200, 1, 0], [0, 1, 1]], "A A' + beta I"),
                               ("tall", [[1e200, 0], [1, 1], [0, 1]], "A'A + beta I"))
        for entry, solve in (("LassoInstance.solve_x", _solve_x),
                             ("run", lambda problem: run(problem, SolverConfig())))
    },
    "run.subproblem-failure": (
        lambda: run(_chain_with(solve_x=_breakdown), SolverConfig("classical")),
        SolverError, "subproblem solve failed at iteration 1: synthetic breakdown"),
    # a kept buffer holds lam_pred when the step's second apply_B writes it
    **{
        f"run.apply_B-kept-{variant}": (
            lambda variant=variant: run(_KeptBuffer.random(4, 5, 8, np.random.default_rng(0)),
                                        SolverConfig(variant, max_iter=1)),
            ValueError, "apply_B must return a new array, not the one lam_pred is in")
        for variant in ("classical", "over_relaxed", "relaxed_customized")
    },
    "reference_solution.non-finite": (
        lambda: reference_solution(_chain_with(solve_y=lambda x, lam, beta: np.array([np.nan])),
                                   SolverConfig(beta=1.0, eps_abs=1e-7, eps_rel=1e-7)),
        SolverError, "reference solve stopped on a non-finite iterate at iteration 1"),
    "reference_solution.max-iter": (
        lambda: reference_solution(lasso.generate_instance(40, 60, 1)[0],
                                   SolverConfig(beta=2000.0, eps_abs=1e-5, eps_rel=1e-3)),
        SolverError,
        "reference solve did not reach eps_abs=1e-07, eps_rel=1e-05 after 10000 iterations"),
    "emit_trajectory_plotdata.empty": (
        lambda: _in_new_dir(lambda tmp: emit_trajectory_plotdata({}, tmp / "plot.csv")),
        ValueError, "no results to write"),
    "emit_trajectory_plotdata.unwritable": (
        lambda: emit_trajectory_plotdata({"classical": run(PROBLEM, SolverConfig(max_iter=3))},
                                         UNWRITABLE), FileNotFoundError, NOT_WRITABLE),
}


@pytest.mark.parametrize("call, error, message", RAISES.values(), ids=RAISES.keys())
def test_a_bad_call_raises_its_exact_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        call()
    assert type(exc.value) is error


def _not_json(line):
    """load_instance's message for a header ``line`` that is not UTF-8 JSON;
    the reason is Python's own."""
    try:
        json.loads(line.decode("utf-8"))
    except ValueError as exc:
        return f"header is not valid JSON ({exc})"


NAN = struct.pack("<d", math.nan)

#: Defects of a whole container file: id -> (the file's bytes, written out or
#: a saved valid instance edited, and the whole message after its path).
CONTAINERS = {
    "bad-magic": (b"NOTMINE\n{}\n", "not an instance container (bad magic b'NOTMINE\\n{')"),
    "not-object": (MAGIC + b"[1]\n", "header must be a JSON object, got list"),
    **{defect: (MAGIC + line, _not_json(line))
       for defect, line in (("bad-json", b'{"kind": "lasso", "n": 2\n'), ("bad-utf8", b"\xff\n"))},
    "no-m": (MAGIC + b'{"kind": "lasso", "n": 2}\n', "header has no 'm' field"),
    "no-rho": (MAGIC + b'{"kind": "lasso", "m": 2, "n": 2}\n', "header has no 'rho' field"),
    "unknown-kind": (MAGIC + b'{"kind": "mystery"}\n', "unknown instance kind 'mystery'"),
    # the payload's length is compared with the file's size before anything is
    # allocated, so a huge dimension is a payload error, not a MemoryError
    "short": (LASSO_FILE[:-16], "payload is 48 bytes, expected 64"),
    "long": (LASSO_FILE + bytes(8), "payload is 72 bytes, expected 64"),
    "huge-header": (LASSO_FILE.replace(b'"m": 2', b'"m": 1000000000000'),
                    "payload is 64 bytes, expected 32000000000000"),
    "nan-b": (LASSO_FILE[:-8] + NAN, "b must be finite"),
    "nan-S": (COVSEL_FILE[:-8] + NAN, "S must be finite"),
}


@pytest.mark.parametrize("data, message", CONTAINERS.values(), ids=CONTAINERS.keys())
def test_a_malformed_container_raises_its_exact_message(data, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _read(data)


#: The CONTAINERS defects that the usage-error table loads.
LOADED = ("no-m", "bad-magic", "huge-header", "nan-S")

#: The files the usage-error table's command lines name, each with one
#: defect: containers and config files.
BAD_FILES = {
    **{f"{defect}.bin": CONTAINERS[defect][0] for defect in LOADED},
    "unknown-key.cfg": b"does_not_exist=1\n",
    "m-abc.cfg": b"m=abc\n",
    "no-equals.cfg": b"# a comment\nmax-iter 300\n",
    "m.cfg": b"m=40\n",
    "nested.cfg": b"config=m.cfg\n",
}


class Usage(NamedTuple):
    argv: str
    message: str
    #: a dotted name the case replaces with a callable raising MemoryError(message)
    unallocatable: str | None = None
    #: the parser whose usage error it is, if not ``admm-bench <first word>``
    prog: str | None = None


#: Command lines that are usage errors, each with its whole message; each
#: runs in a directory holding BAD_FILES and a valid covsel.bin.
USAGE_ERRORS = [Usage(*case) for case in [
    # no command, or one admm-bench does not have, is the top-level parser's error
    ("", "the following arguments are required: {lasso,covsel,compare,diagnose}", None,
     "admm-bench"),
    ("bogus", "unknown command 'bogus'; expected one of lasso, covsel, compare, diagnose", None,
     "admm-bench"),
    ("lasso --repeats 0", "repeats must be at least 1, got 0"),
    ("lasso --max-iter 0", "max_iter must be at least 1, got 0"),
    ("covsel --n 5", "sizes[0]: n must be at least 10, got 5"),
    ("lasso --eps-abs 1e-5,1e-6 --eps-rel 1e-3",
     "--eps-abs and --eps-rel must have the same number of entries"),
    ("lasso --m 40,50 --n 60,70,80", "--m and --n must zip into (m, n) pairs"),
    ("lasso --load-instance x.bin", "unrecognized arguments: --load-instance x.bin"),
    ("lasso --m 40,40 --n 60", "sizes lists (40, 60) more than once"),
    ("covsel --eps-abs 1e-5,1e-5 --eps-rel 1e-3,1e-3",
     "tolerances lists (1e-05, 0.001) more than once"),
    ("lasso --m 8 --n 12 --repeats 1 --variant classical,classical",
     "variants lists 'classical' more than once"),
    # a config file that is missing or holds a bad line, key or value
    ("lasso --config missing.cfg", "[Errno 2] No such file or directory: 'missing.cfg'"),
    ("lasso --config", "argument --config: expected one argument"),
    ("lasso --config unknown-key.cfg", "unrecognized arguments: --does-not-exist=1"),
    ("lasso --config m-abc.cfg", "argument --m: invalid _parse_int_list value: 'abc'"),
    ("lasso --config no-equals.cfg", "no-equals.cfg:2: expected key=value, got 'max-iter 300'"),
    ("lasso --config nested.cfg", "nested.cfg:1: a config file cannot name another one"),
    # a key names its flag in full: covsel's m is not --max-iter
    ("covsel --config m.cfg", "unrecognized arguments: --m=40"),
    ("diagnose --load-instance missing.bin", "[Errno 2] No such file or directory: 'missing.bin'"),
    ("compare --eps-abs 1e-5,1e-9 --eps-rel 1e-3",
     "--eps-abs and --eps-rel must have the same number of entries"),
    *((argv, "compare and diagnose take exactly one --eps-abs/--eps-rel pair")
      for argv in ("compare --eps-abs 1e-5,1e-9 --eps-rel 1e-3,1e-4",
                   "diagnose --eps-abs 1e-5,1e-9 --eps-rel 1e-3,1e-4",
                   "diagnose --eps-abs= --eps-rel=")),
    ("diagnose --m 40 --n 60 --beta 2000",
     "reference solve did not reach eps_abs=1e-07, eps_rel=1e-05 after 10000 iterations"),
    ("compare --problem lasso --tau 0.3", "--tau applies only to a generated covsel instance"),
    ("diagnose --load-instance covsel.bin --tau 0.3",
     "--tau applies only to a generated covsel instance"),
    # every command names the flag's field, not the tolerance pair's index
    ("lasso --eps-abs 0", "eps_abs must lie in (0, inf), got 0.0"),
    ("covsel --eps-rel 1e-3,nan --eps-abs 1e-5,1e-6", "eps_rel must be a finite number, got nan"),
    ("compare --eps-abs 0", "eps_abs must lie in (0, inf), got 0.0"),
    ("diagnose --eps-rel nan", "eps_rel must be a finite number, got nan"),
    # a size flag the command would ignore
    *((argv, "--m applies only to a generated lasso instance")
      for argv in ("compare --problem covsel --n 12 --m 5",
                   "diagnose --problem covsel --n 12 --m 5",
                   "diagnose --load-instance covsel.bin --m 7",
                   "diagnose --load-instance covsel.bin --m 7 --n 99")),
    ("compare --load-instance covsel.bin --n 99", "--n applies only to a generated instance"),
    # a bad real parameter, raised before any output directory is made
    ("compare --beta nan", "beta must be a finite number, got nan"),
    ("compare --gamma 2", "gamma must lie in (0, 2), got 2.0"),
    ("compare --eps-rel 0", "eps_rel must lie in (0, inf), got 0.0"),
    ("compare --problem covsel --n 12 --tau 0", "tau must lie in (0, inf), got 0.0"),
    ("covsel --n 12 --repeats 1 --tau -1", "tau must lie in (0, inf), got -1.0"),
    # a reference solve that does not converge, or stops on a non-finite iterate
    ("lasso --m 40 --n 60 --beta 2000 --diagnostics --repeats 1",
     "reference solve did not reach eps_abs=1e-07, eps_rel=1e-05 after 10000 iterations"),
    *((argv, "reference solve stopped on a non-finite iterate at iteration 1")
      for argv in ("diagnose --problem covsel --n 10 --beta 1e308",
                   "diagnose --m 8 --n 12 --beta 1e-310")),
    # a malformed container, named by its path
    *((f"compare --load-instance {defect}.bin", f"{defect}.bin: {CONTAINERS[defect][1]}")
      for defect in LOADED),
    # a grid size the generator rejects fails before any cell is solved
    ("covsel --n 15,5 --repeats 1", "sizes[1]: n must be at least 10, got 5"),
    ("lasso --m 8,3000000000 --n 12,3000000000 --repeats 1",
     "sizes[1]: a (3000000000, 3000000000) float64 array for m=3000000000, n=3000000000 is past"
     " the index range"),
    # an array too large to allocate, as numpy words it for `admm-bench lasso
    # --m 200000 --n 200000 --repeats 1` and `admm-bench compare --problem
    # covsel --n 60000` under `ulimit -v 3000000`
    ("lasso --m 200000 --n 200000 --repeats 1", "Unable to allocate 298. GiB for an array with"
     " shape (200000, 200000) and data type float64", "admmkit.lasso.generate_instance"),
    ("compare --problem covsel --n 60000", "Unable to allocate 26.8 GiB for an array with shape"
     " (60000, 60000) and data type float64", "admmkit.covsel.generate_instance"),
    ("diagnose --load-instance big.bin", "Unable to allocate 26.8 GiB for an array with shape"
     " (3600000000,) and data type float64", "admmkit.container.load_instance"),
]]


@pytest.mark.parametrize("argv, message, unallocatable, prog", USAGE_ERRORS,
                         ids=[case.argv or "no-command" for case in USAGE_ERRORS])
def test_a_bad_command_line_is_a_usage_error(tmp_path, monkeypatch, argv, message,
                                             unallocatable, prog):
    save_instance(tmp_path / "covsel.bin", covsel.CovselInstance(**COVSEL))
    for name, data in BAD_FILES.items():
        (tmp_path / name).write_bytes(data)
    if unallocatable is not None:
        def allocate(*args, **kwargs):
            raise MemoryError(message)  # numpy's _ArrayMemoryError is a MemoryError

        monkeypatch.setattr(unallocatable, allocate)  # nothing is allocated
    words = argv.split()
    # a bare `admm-bench` runs as it is, and must not make the default bench_out
    result = run_cli([*words, "--out", "out"] if words else [], tmp_path)
    assert usage_message(result, prog or f"admm-bench {words[0]}") == message


#: Values a JSON header line can hold: null, bools, strings, ragged lists,
#: NaN and inf (as Python's json writes them), ints that are not positive or
#: are huge, and small floats.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([[[1.0], [1.0, 2.0]], [1.0, [2.0]], [[[1.0]]], [[]]]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=0),
    st.integers(min_value=2**63, max_value=10**400),
    st.floats(-4, 4),
)


@pytest.mark.parametrize("row", HEADER_ROWS.values(), ids=HEADER_ROWS.keys())
@SWEEP
@given(value=JSON_VALUES)
@example(value=None)
@example(value=True)
@example(value="0.1")
@example(value=[[1.0], [1.0, 2.0]])
@example(value=math.nan)
@example(value=0)
@example(value=-2)
@example(value=10**400)
@example(value=0.5)
def test_a_malformed_header_field_returns_or_raises_a_named_value_error(row, value):
    # a positive dimension is valid, and the payload it asks for is not there
    assume(not (row.form == INT and type(value) is int and value > 0))
    _check(row, value)


def _strided(a):
    """The same values as a view that is not contiguous."""
    view = np.repeat(a, 2, axis=-1)[..., ::2]
    assert not view.flags.c_contiguous and np.array_equal(view, a)
    return view


ARRAY_ROWS = {key: row for key, row in ROWS.items() if row.valid is not None}


@pytest.mark.parametrize("row", ARRAY_ROWS.values(), ids=ARRAY_ROWS.keys())
@pytest.mark.parametrize(
    "convert",
    [lambda a: a.astype(int), lambda a: a.astype(np.float32), _strided],
    ids=["int", "float32", "strided-view"],
)
def test_int_float32_and_strided_arrays_are_accepted(row, convert):
    row.call(convert(row.valid))


#: One small valid command line per subcommand (and both compare problems),
#: as its value flags; every run writes under its own temporary directory.
CLI_BASES = {
    "lasso": ("lasso", {"--m": "8", "--n": "12", "--repeats": "2", "--max-iter": "50",
                        "--variant": "classical,over_relaxed"}),
    "covsel": ("covsel", {"--n": "10", "--tau": "0.2", "--repeats": "2", "--max-iter": "50"}),
    "compare-lasso": ("compare", {"--problem": "lasso", "--m": "8", "--n": "12",
                                  "--max-iter": "50"}),
    "compare-covsel": ("compare", {"--problem": "covsel", "--n": "12", "--tau": "0.2",
                                   "--max-iter": "50"}),
    "diagnose": ("diagnose", {"--m": "8", "--n": "12", "--variant": "over_relaxed",
                              "--max-iter": "50"}),
}

#: Flags any command line may get besides its own: the common ones (two are
#: not registered for the grid commands) and one that no command knows.
CLI_EXTRA = ("--beta", "--gamma", "--eps-abs", "--eps-rel", "--seed", "--config",
             "--load-instance", "--tau", "--no-such-flag")

#: Values that are empty, not numbers, not finite, out of range, lists or
#: booleans.
CLI_VALUES = ("", "abc", "nan", "inf", "-1", "0", "1e999", "1,2", "true")


def _run(command, flags):
    """run_cli of ``command`` with the {flag: value} ``flags`` and ``--out out``."""
    return run_cli([command, *(t for item in flags.items() for t in item), "--out", "out"])


@pytest.mark.parametrize("base", CLI_BASES.values(), ids=CLI_BASES.keys())
def test_each_small_command_line_runs(base):
    result = _run(*base)
    assert (result.code, result.stderr, result.out_exists) == (0, "", True)


@pytest.mark.parametrize("base", CLI_BASES.values(), ids=CLI_BASES.keys())
@settings(max_examples=20)
@given(data=st.data())
def test_a_malformed_flag_value_ends_in_an_exit_code(base, data):
    command, flags = base
    flag = data.draw(st.sampled_from([*flags, *(f for f in CLI_EXTRA if f not in flags)]))
    argv = {**flags, flag: data.draw(st.sampled_from(CLI_VALUES))}
    result = _run(command, argv)
    assert result.code in (0, 2, 3), (argv, result)
    assert "Traceback" not in result.stderr
    if result.code == 2:
        usage_message(result, f"admm-bench {command}")
