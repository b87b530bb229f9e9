"""Benchmark harness: seeded instance grids, variant comparison, CSV output.

A benchmark cell is one (size, tolerance pair, variant); each size makes one
pass over ``repeats`` seeded instances (run i uses seed_base + i). The
repeats are independent, so a thread pool with one worker per available CPU
(at most ``repeats``) solves them concurrently: a worker generates one
instance, solves it in every cell of that size back to back and drops it, so
at most one instance per worker is alive, plus repeat 0's while the Fejer
monitors of its solves hold it (diagnostics on). A cell reports its iteration
statistics and terminal residuals. Instance generation and set-up, one untimed
x-solve that leaves a Lasso instance holding its factor, are excluded from the
reported solve times. CSV outputs carry no wall-clock columns so identical
spec + seed reproduces them byte for byte, whatever the number of workers;
timings appear in the plain-text table only.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import covsel, lasso
from .diagnostics import FejerMonitor, reference_solution
from .engine import SolveResult, run
from .model import VARIANTS, SolverConfig, require_choice, require_int, require_real

#: Relaxation factors matching the reported experimental protocol.
GAMMA_DEFAULTS = {"lasso": 1.8, "covsel": 1.7}

#: Each problem's generator module, whose ``require_size`` checks a spec's sizes.
_GENERATORS = {"lasso": lasso, "covsel": covsel}

#: Semilog plots need strictly positive values; zeros are clamped to this.
PLOT_FLOOR = 1e-300


def _entries(name: str, entries, pairs: bool, check, bound, cast) -> list:
    """``entries`` as a list of ``cast`` values, or with ``pairs`` of pairs of
    them. The list must be nonempty and repeat no entry, and each value must
    pass ``check(label, value, bound)``, labelled by index as in
    ``sizes[1][0]``; anything else raises ValueError."""
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ValueError(f"{name} must be a nonempty list")
    out = []
    for i, entry in enumerate(entries):
        if not pairs:
            check(f"{name}[{i}]", entry, bound)
            out.append(cast(entry))
            continue
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
            raise ValueError(f"{name}[{i}] must be a pair, got {entry!r}")
        for j, value in enumerate(entry):
            check(f"{name}[{i}][{j}]", value, bound)
        out.append(tuple(map(cast, entry)))
    if repeated := [e for i, e in enumerate(out) if e in out[:i]]:
        raise ValueError(f"{name} lists {repeated[0]!r} more than once")
    return out


@dataclass
class BenchmarkSpec:
    """Experimental grid for :func:`run_benchmark`.

    ``sizes`` holds (m, n) pairs for lasso or feature counts n for covsel,
    each checked by its generator's ``require_size`` before any cell is
    solved; ``tolerances`` holds (eps_abs, eps_rel) pairs of positive
    numbers. ``gamma=None`` resolves to the per-problem default. ``tau`` is
    covsel's positive l1 weight (None: the instance default); a lasso spec
    that sets it is rejected. A malformed entry or field, a repeated size,
    tolerance pair or variant, or a value that any solver config of the grid
    rejects raises ValueError naming the field; a malformed element, an
    unknown variant among them, is named by index, as in ``sizes[1][0]``.
    """

    problem: str
    sizes: list
    tolerances: list
    gamma: float | None = None
    beta: float = 1.0
    variants: list | tuple = VARIANTS
    repeats: int = 10
    seed_base: int = 0
    max_iter: int = 2000
    diagnostics: bool = False
    tau: float | None = None
    out_dir: str | Path = "bench_out"

    def __post_init__(self):
        require_choice("problem", self.problem, tuple(_GENERATORS))
        if self.gamma is None:
            self.gamma = GAMMA_DEFAULTS[self.problem]
        require_int("repeats", self.repeats, 1)
        require_int("seed_base", self.seed_base, 0)
        if self.tau is not None:
            if self.problem != "covsel":
                raise ValueError("tau applies only to covsel")
            require_real("tau", self.tau, 0)
        self.variants = _entries("variants", self.variants, False, require_choice, VARIANTS, str)
        self.sizes = _entries("sizes", self.sizes, self.problem == "lasso", require_int, 1, int)
        for i, size in enumerate(self.sizes):
            try:
                _GENERATORS[self.problem].require_size(size)
            except ValueError as exc:
                raise ValueError(f"sizes[{i}]: {exc}") from None
        self.tolerances = _entries("tolerances", self.tolerances, True, require_real, 0, float)
        for tol in self.tolerances:
            for variant in self.variants:
                self.config(variant, tol)

    def config(self, variant: str, tol) -> SolverConfig:
        """Solver config of one variant at one (eps_abs, eps_rel) pair."""
        return SolverConfig(
            variant=variant,
            beta=self.beta,
            gamma=self.gamma,
            eps_abs=tol[0],
            eps_rel=tol[1],
            max_iter=self.max_iter,
        )


@dataclass
class SummaryRow:
    """One row of summary.csv, whose columns are these fields in order,
    ``time_mean`` excepted (CSVs carry no wall-clock column)."""

    problem: str
    size: str
    eps_abs: float
    eps_rel: float
    variant: str
    gamma: float
    beta: float
    repeats: int
    converged_runs: int
    dnf_runs: int
    iters_mean: float
    iters_median: float
    iters_min: int
    iters_max: int
    primal_residual_mean: float
    dual_residual_mean: float
    time_mean: float


@dataclass
class BenchmarkOutcome:
    rows: list[SummaryRow]
    summary_csv: Path
    summary_table: Path
    trajectory_files: list[Path] = field(default_factory=list)
    any_dnf: bool = False


def _size_label(problem: str, size) -> str:
    return f"{size[0]}x{size[1]}" if problem == "lasso" else f"n{size}"


def generate_instance(problem: str, size, seed: int, tau: float | None = None):
    """Seeded instance of ``problem``: lasso takes an (m, n) size, covsel a
    feature count n and the l1 weight ``tau`` (None: covsel.DEFAULT_TAU)."""
    if problem == "lasso":
        return lasso.generate_instance(*size, seed)[0]
    return covsel.generate_instance(size, seed, covsel.DEFAULT_TAU if tau is None else tau)[0]


def write_trajectory_csv(path: Path, result: SolveResult, diag: FejerMonitor | None):
    """One row per step of ``result``; with ``diag``, the monitor's
    ``COLUMNS`` too, blank on a step it did not observe."""
    header = ["k", "primal_residual", "dual_residual", "criterion_value", "relaxed"]
    if diag is not None:
        header += diag.COLUMNS
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in result.records:
            row = [
                rec.k,
                rec.primal_residual_norm,
                rec.dual_residual_norm,
                rec.criterion_value,
                int(rec.relaxed),
            ]
            if diag is not None:
                row += diag.row(rec)
            writer.writerow(row)


def _summary_row(spec, size, tol, variant, cell) -> SummaryRow:
    iters = np.array([r.iterations for _, r, _ in cell])
    finals = [r.records[-1] for _, r, _ in cell]
    return SummaryRow(
        problem=spec.problem,
        size=_size_label(spec.problem, size),
        eps_abs=tol[0],
        eps_rel=tol[1],
        variant=variant,
        gamma=spec.gamma,
        beta=spec.beta,
        repeats=spec.repeats,
        converged_runs=sum(r.converged for _, r, _ in cell),
        dnf_runs=sum(not r.converged for _, r, _ in cell),
        iters_mean=float(iters.mean()),
        iters_median=float(np.median(iters)),
        iters_min=int(iters.min()),
        iters_max=int(iters.max()),
        primal_residual_mean=float(np.mean([f.primal_residual_norm for f in finals])),
        dual_residual_mean=float(np.mean([f.dual_residual_norm for f in finals])),
        time_mean=float(np.mean([seconds for seconds, _, _ in cell])),
    )


def _write_summary_csv(path: Path, rows: list[SummaryRow]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(SummaryRow)][:-1])
        writer.writerows(astuple(r)[:-1] for r in rows)


def _write_summary_table(path: Path, spec: BenchmarkSpec, workers: int,
                         rows: list[SummaryRow]):
    buf = io.StringIO()
    buf.write(
        f"problem={spec.problem} beta={spec.beta} gamma={spec.gamma} "
        f"repeats={spec.repeats} workers={workers} seed_base={spec.seed_base}\n"
    )
    header = (
        f"{'size':>12} {'eps_abs':>9} {'eps_rel':>9} {'variant':<20} "
        f"{'iter':>7} {'(min-max)':>11} {'||r||':>10} {'||s||':>10} {'time':>9} {'DNF':>4}"
    )
    buf.write(header + "\n")
    buf.write("-" * len(header) + "\n")
    for r in rows:
        flag = "DNF" if r.dnf_runs else ""
        buf.write(
            f"{r.size:>12} {r.eps_abs:>9.0e} {r.eps_rel:>9.0e} {r.variant:<20} "
            f"{r.iters_mean:>7.1f} {f'({r.iters_min}-{r.iters_max})':>11} "
            f"{r.primal_residual_mean:>10.2e} {r.dual_residual_mean:>10.2e} "
            f"{r.time_mean:>8.3f}s {flag:>4}\n"
        )
    path.write_text(buf.getvalue())


def _workers(repeats: int) -> int:
    """One worker per CPU this process may run on, at most ``repeats``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(repeats, cpus)


def _solve_repeat(spec: BenchmarkSpec, size, i: int):
    """Repeat i of one size: its seeded instance solved in every (tolerance,
    variant) cell back to back, in one thread, so all variants of an instance
    are timed under the same load. Repeat i starts at the spec's variant
    i mod len(variants) and keeps the list's cyclic order, so across repeats
    no variant always runs first; repeat 0 keeps the spec's order. Returns
    each cell's (seconds, result without its final point, Fejer monitor on
    repeat 0 with diagnostics)."""
    instance = generate_instance(spec.problem, size, spec.seed_base + i, spec.tau)
    with np.errstate(over="ignore", invalid="ignore"):  # as in run's first x-solve
        instance.solve_x(np.zeros(instance.n2), np.zeros(instance.m), spec.beta)
    shift = i % len(spec.variants)
    variants = spec.variants[shift:] + spec.variants[:shift]
    cells = {}
    for tol in spec.tolerances:
        ref = None
        if spec.diagnostics and i == 0:
            ref = reference_solution(instance, spec.config(spec.variants[0], tol))
        for variant in variants:
            config = spec.config(variant, tol)
            monitor = None if ref is None else FejerMonitor(instance, config, ref)
            t0 = time.perf_counter()
            result = run(instance, config, observer=monitor)
            cells[tol, variant] = (time.perf_counter() - t0, replace(result, final=None), monitor)
    return cells


def run_benchmark(spec: BenchmarkSpec) -> BenchmarkOutcome:
    """Execute the grid and write summary.csv, summary.txt, and one
    per-iteration trajectory CSV per (size, tolerance, variant) taken from
    the first repeat. Each size's repeats run on a thread pool of one worker
    per available CPU, at most ``repeats``; results are collected in repeat
    order, so the outputs do not depend on the number of workers. At most one
    instance per worker is alive, plus repeat 0's while its monitors hold it
    (diagnostics on). Of each solve a cell keeps its records, stop reason and
    seconds, never its final point, so memory grows with ``repeats`` by the
    records alone. A failing repeat raises the lowest-index failure and
    cancels the repeats not yet started. ``out_dir`` is made after the first
    size's solves. Returns the collected rows and output paths."""
    out = Path(spec.out_dir)
    rows: list[SummaryRow] = []
    trajectory_files: list[Path] = []
    workers = _workers(spec.repeats)
    pool = ThreadPoolExecutor(workers)
    try:
        for size in spec.sizes:
            repeats = list(pool.map(functools.partial(_solve_repeat, spec, size),
                                    range(spec.repeats)))
            out.mkdir(parents=True, exist_ok=True)
            label = _size_label(spec.problem, size)
            for tol_idx, tol in enumerate(spec.tolerances):
                for variant in spec.variants:
                    cell = [cells[tol, variant] for cells in repeats]
                    rows.append(_summary_row(spec, size, tol, variant, cell))
                    traj_path = out / f"traj_{spec.problem}_{label}_tol{tol_idx}_{variant}.csv"
                    write_trajectory_csv(traj_path, *cell[0][1:])  # repeat 0's result and monitor
                    trajectory_files.append(traj_path)
            del repeats, cell  # repeat 0's monitors and instance go before the next size's solves
    finally:
        pool.shutdown(cancel_futures=True)
    summary_csv = out / "summary.csv"
    summary_table = out / "summary.txt"
    _write_summary_csv(summary_csv, rows)
    _write_summary_table(summary_table, spec, workers, rows)
    return BenchmarkOutcome(
        rows=rows,
        summary_csv=summary_csv,
        summary_table=summary_table,
        trajectory_files=trajectory_files,
        any_dnf=any(r.dnf_runs for r in rows),
    )


def emit_trajectory_plotdata(results, path) -> Path:
    """Write per-iteration residual columns ready for semilog plotting.

    ``results`` maps a variant name to its solve result; each variant gets a
    ``<name>_primal``, ``<name>_dual`` column group after the ``k`` column.
    Zeros are clamped to a tiny positive floor; variants shorter than the
    longest one leave trailing cells empty.
    """
    groups = list(results.items())
    if not groups:
        raise ValueError("no results to write")
    header = ["k"]
    for name, _ in groups:
        header += [f"{name}_primal", f"{name}_dual"]
    depth = max(len(r.records) for _, r in groups)
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(depth):
            row = [i + 1]
            for _, result in groups:
                if i < len(result.records):
                    rec = result.records[i]
                    row += [
                        max(rec.primal_residual_norm, PLOT_FLOOR),
                        max(rec.dual_residual_norm, PLOT_FLOOR),
                    ]
                else:
                    row += ["", ""]
            writer.writerow(row)
    return path
