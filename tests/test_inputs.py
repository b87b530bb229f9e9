"""Malformed inputs at the public entry points.

One table row per (entry point, argument): a call that puts a value in that
argument's slot and keeps every other argument valid. One derandomized
strategy draws the malformed values. Each call must return or raise a
ValueError whose message names the argument. A shape error may name another
argument instead when the row's argument sets that one's expected shape: a
Lasso A with three rows makes a valid length-2 b the mismatch. An integer
or real parameter's error must read as one of the two messages of
``model.require_int`` or ``model.require_real``; a ``BenchmarkSpec`` list
entry that must be a pair may instead say it is not one. The container
header's fields have a table of their own, drawn from values JSON can hold.
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
from admmkit.diagnostics import kkt_residual
from admmkit.l1split import soft_threshold
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
Y, LAM = np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])
#: The three problem kinds, for the rows of their subproblem solves.
SOLVERS = {
    "LassoInstance": lasso.LassoInstance(**LASSO),
    "CovselInstance": covsel.CovselInstance(**COVSEL),
    "QuadraticProblem": PROBLEM,
}


def _save(instance):
    with tempfile.TemporaryDirectory() as tmp:
        save_instance(Path(tmp) / "inst.bin", instance)


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
    "lasso.generate_instance.m": Row(lambda v: lasso.generate_instance(v, 6, 0), "m"),
    "lasso.generate_instance.n": Row(lambda v: lasso.generate_instance(4, v, 0), "n"),
    "lasso.generate_instance.seed": Row(lambda v: lasso.generate_instance(4, 6, v), "seed"),
    "covsel.generate_instance.n": Row(lambda v: covsel.generate_instance(v, 0), "n"),
    "covsel.generate_instance.seed": Row(lambda v: covsel.generate_instance(10, v), "seed"),
    **{
        f"SolverConfig.{key}": Row(
            lambda v, key=key: SolverConfig(**{"variant": "over_relaxed", key: v}), key,
            form=INT if key == "max_iter" else None if key == "variant" else REAL,
        )
        for key in ("variant", "beta", "gamma", "eps_abs", "eps_rel", "max_iter")
    },
    **{
        f"{kind}.solve_{block}.beta": _solve(kind, block)
        for kind in SOLVERS for block in ("x", "y")
    },
    # soft_threshold keeps its own closed bound kappa >= 0
    "soft_threshold.kappa": Row(lambda v: soft_threshold(np.array([-1.0, 2.0]), v), "kappa",
                                form=REAL.replace("|lie in", "|be nonnegative|lie in")),
    "BenchmarkSpec.repeats": Row(lambda v: _spec(repeats=v), "repeats", form=INT),
    "BenchmarkSpec.seed_base": Row(lambda v: _spec(seed_base=v), "seed_base", form=INT),
    # a lasso spec rejects any tau; a covsel spec checks it as a real in (0, inf)
    "BenchmarkSpec.tau": Row(lambda v: _spec(tau=v), "tau", form=" applies only to covsel"),
    "BenchmarkSpec(covsel).tau": _real(
        lambda v: BenchmarkSpec("covsel", [10], [(1e-5, 1e-3)], tau=v), "tau"),
    "BenchmarkSpec.sizes[1]": Row(lambda v: _spec(sizes=[(4, 6), v]), "sizes[1]",
                                  form=PAIR.format(INT)),
    "BenchmarkSpec.sizes[1][0]": Row(lambda v: _spec(sizes=[(4, 6), (v, 6)]), "sizes[1][0]",
                                     form=INT),
    "BenchmarkSpec.sizes[0][1]": Row(lambda v: _spec(sizes=[(4, v)]), "sizes[0][1]", form=INT),
    "BenchmarkSpec(covsel).sizes[1]": Row(
        lambda v: BenchmarkSpec("covsel", [10, v], [(1e-5, 1e-3)]), "sizes[1]", form=INT),
    "BenchmarkSpec.tolerances[1]": Row(lambda v: _spec(tolerances=[(1e-5, 1e-3), v]),
                                       "tolerances[1]", form=PAIR.format(REAL)),
    "BenchmarkSpec.tolerances[0][0]": _real(lambda v: _spec(tolerances=[(v, 1e-3)]),
                                            "tolerances[0][0]"),
    "BenchmarkSpec.tolerances[0][1]": _real(lambda v: _spec(tolerances=[(1e-5, v)]),
                                            "tolerances[0][1]"),
    "run.v0": Row(lambda v: run(PROBLEM, SolverConfig(max_iter=5), v), "v0"),
    "run.v0.y": Row(lambda v: run(PROBLEM, SolverConfig(max_iter=5), EssentialState(v, LAM)),
                    "v0.y", valid=Y),
    "run.v0.lam": Row(lambda v: run(PROBLEM, SolverConfig(max_iter=5), EssentialState(Y, v)),
                      "v0.lam", valid=LAM),
    "kkt_residual.w": Row(lambda v: kkt_residual(PROBLEM, v), "w"),
    "kkt_residual.w.x": Row(lambda v: kkt_residual(PROBLEM, Iterate(v, Y, LAM)), "x", valid=Y),
    "kkt_residual.w.y": Row(lambda v: kkt_residual(PROBLEM, Iterate(Y, v, LAM)), "y", valid=Y),
    "kkt_residual.w.lam": Row(lambda v: kkt_residual(PROBLEM, Iterate(Y, Y, v)), "lam",
                              valid=LAM),
    "save_instance.instance": Row(_save, "instance"),
}


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
    for kind, keys in (("LassoInstance", ("m", "n", "rho")), ("CovselInstance", ("n", "tau")))
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
