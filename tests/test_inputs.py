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
instead give its generator's message after the entry's name. A second
table pins whole messages: each of its cases puts one malformed value in a
row's slot and gives the exact message, and every row has at least one case.
The container header's fields have a table of their own, drawn from values
JSON can hold.
The command line has a row of its own: one malformed flag value in a small
valid command must end in exit code 0, 3 or 2 and nothing else.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from admmkit import DimensionMismatchError, EssentialState, Iterate, SolverConfig, run
from admmkit import cli, covsel, lasso
from admmkit.bench import BenchmarkSpec
from admmkit.container import MAGIC, load_instance, save_instance
from admmkit.diagnostics import FejerMonitor, kkt_residual, reference_solution
from admmkit.quadratic import QuadraticProblem

SWEEP = settings(max_examples=8, deadline=None, derandomize=True, database=None)

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


def _save(instance, seed=None):
    """save_instance into a new directory, which a rejection must leave empty."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            save_instance(Path(tmp) / "inst.bin", instance, seed)
        except ValueError:
            assert not os.listdir(tmp)
            raise


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
        assert _names(str(exc), row.name), exc
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
        ROWS[key].call(value)
    # a shape error is the one ValueError subclass a rejection raises
    assert type(exc.value) is (DimensionMismatchError if " has shape " in message else ValueError)


def test_every_row_has_an_exact_case():
    assert ROWS.keys() == {key for key, _, _ in EXACT}


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


def _load(instance, key, value):
    """load_instance of ``instance`` saved with header field ``key`` set to
    ``value``; a ValueError must start with the path, which is cut from it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = save_instance(Path(tmp) / "inst.bin", instance)
        header, payload = path.read_bytes()[len(MAGIC):].split(b"\n", 1)
        header = {**json.loads(header), key: value}
        path.write_bytes(MAGIC + json.dumps(header).encode() + b"\n" + payload)
        try:
            load_instance(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            raise ValueError(str(exc)[len(f"{path}: "):]) from None


HEADER_ROWS = {
    f"load_instance.{kind}.{key}": Row(
        lambda v, instance=SOLVERS[kind], key=key: _load(instance, key, v), key,
        form=REAL if key in ("rho", "tau") else INT,
    )
    for kind, keys in (("LassoInstance", ("m", "n", "rho", "seed")),
                       ("CovselInstance", ("n", "tau", "seed")))
    for key in keys
}


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


def _main(argv):
    """cli.main(argv) in a new temporary directory, with its output captured;
    returns (exit code, stderr)."""
    stderr, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, "--out", "out"])
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    return code, stderr.getvalue()


@pytest.mark.parametrize("base", CLI_BASES.values(), ids=CLI_BASES.keys())
def test_each_small_command_line_runs(base):
    command, flags = base
    assert _main([command, *(t for item in flags.items() for t in item)]) == (0, "")


@pytest.mark.parametrize("base", CLI_BASES.values(), ids=CLI_BASES.keys())
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_malformed_flag_value_ends_in_an_exit_code(base, data):
    command, flags = base
    flag = data.draw(st.sampled_from([*flags, *(f for f in CLI_EXTRA if f not in flags)]))
    argv = {**flags, flag: data.draw(st.sampled_from(CLI_VALUES))}
    code, stderr = _main([command, *(t for item in argv.items() for t in item)])
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in stderr
