"""Benchmark harness: seeded instance grids, variant comparison, CSV output.

A benchmark cell is one (size, tolerance) pair; each cell generates
``repeats`` seeded instances (run i uses seed_base + i), solves each with
every requested variant, and reports per-variant iteration statistics and
terminal residuals. Instance generation is excluded from the reported solve
times. CSV outputs carry no wall-clock columns so identical spec + seed
reproduces them byte for byte; timings appear in the plain-text table only.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import covsel, lasso
from .diagnostics import FejerMonitor, reference_solution
from .engine import SolveResult, run
from .model import VARIANTS, SolverConfig, require_instance, require_int, require_real

#: Relaxation factors matching the reported experimental protocol.
GAMMA_DEFAULTS = {"lasso": 1.8, "covsel": 1.7}

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
    positive integers either way; ``tolerances`` holds (eps_abs, eps_rel)
    pairs of positive numbers. ``gamma=None`` resolves to the per-problem
    default. ``tau`` is covsel's positive l1 weight (None: the instance
    default); a lasso spec that sets it is rejected. A malformed entry or
    field, a repeated size, tolerance pair or variant, or a value that any
    solver config of the grid rejects, such as an unknown variant, raises
    ValueError naming the field; a malformed element is named by index, as
    in ``sizes[1][0]``.
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
        if self.problem not in ("lasso", "covsel"):
            raise ValueError(f"unknown problem {self.problem!r}")
        require_int("repeats", self.repeats, 1)
        require_int("seed_base", self.seed_base, 0)
        if self.tau is not None:
            if self.problem != "covsel":
                raise ValueError("tau applies only to covsel")
            require_real("tau", self.tau, 0)
        self.variants = _entries("variants", self.variants, False, require_instance, str, str)
        self.sizes = _entries("sizes", self.sizes, self.problem == "lasso", require_int, 1, int)
        self.tolerances = _entries("tolerances", self.tolerances, True, require_real, 0, float)
        for tol in self.tolerances:
            for variant in self.variants:
                self.config(variant, tol)

    @property
    def gamma_resolved(self) -> float:
        return self.gamma if self.gamma is not None else GAMMA_DEFAULTS[self.problem]

    def config(self, variant: str, tol) -> SolverConfig:
        """Solver config of one variant at one (eps_abs, eps_rel) pair."""
        return SolverConfig(
            variant=variant,
            beta=self.beta,
            gamma=self.gamma_resolved,
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
        instance, _ = lasso.generate_instance(size[0], size[1], seed)
    else:
        tau = covsel.DEFAULT_TAU if tau is None else tau
        instance, _ = covsel.generate_instance(size, seed, tau=tau)
    return instance


def _run_cell(spec: BenchmarkSpec, size, tol):
    """Solve every instance of one cell with every variant.

    Returns per-variant (results, solve times) and, with diagnostics on,
    per-variant monitors of the repeat-0 solves.
    """
    seeds = range(spec.seed_base, spec.seed_base + spec.repeats)
    instances = [generate_instance(spec.problem, size, seed, spec.tau) for seed in seeds]
    ref = None
    if spec.diagnostics:
        ref = reference_solution(instances[0], spec.beta, tol[0] / 100.0, tol[1] / 100.0)
    data, monitors = {}, {}
    for variant in spec.variants:
        config = spec.config(variant, tol)
        runs, times = [], []
        for i, instance in enumerate(instances):
            observer = None
            if i == 0 and ref is not None:
                observer = monitors[variant] = FejerMonitor(instance, config, ref)
            t0 = time.perf_counter()
            result = run(instance, config, observer=observer)
            times.append(time.perf_counter() - t0)
            runs.append(result)
        data[variant] = (runs, times)
    return data, monitors


def write_trajectory_csv(path: Path, result: SolveResult, diag: FejerMonitor | None):
    """One row per step of ``result``; with ``diag``, the monitor's four
    analysis cells too, blank on a step it did not observe."""
    header = ["k", "primal_residual", "dual_residual", "criterion_value", "relaxed"]
    if diag is not None:
        header += ["h_dist_sq", "g_norm_sq", "monotone_violation", "gap_violation"]
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


def _summary_row(spec, size, tol, variant, runs, times) -> SummaryRow:
    iters = np.array([r.iterations for r in runs])
    finals = [r.records[-1] for r in runs]
    return SummaryRow(
        problem=spec.problem,
        size=_size_label(spec.problem, size),
        eps_abs=tol[0],
        eps_rel=tol[1],
        variant=variant,
        gamma=spec.gamma_resolved,
        beta=spec.beta,
        repeats=spec.repeats,
        converged_runs=sum(r.converged for r in runs),
        dnf_runs=sum(not r.converged for r in runs),
        iters_mean=float(iters.mean()),
        iters_median=float(np.median(iters)),
        iters_min=int(iters.min()),
        iters_max=int(iters.max()),
        primal_residual_mean=float(np.mean([f.primal_residual_norm for f in finals])),
        dual_residual_mean=float(np.mean([f.dual_residual_norm for f in finals])),
        time_mean=float(np.mean(times)),
    )


def _write_summary_csv(path: Path, rows: list[SummaryRow]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(SummaryRow)][:-1])
        writer.writerows(astuple(r)[:-1] for r in rows)


def _write_summary_table(path: Path, spec: BenchmarkSpec, rows: list[SummaryRow]):
    buf = io.StringIO()
    buf.write(
        f"problem={spec.problem} beta={spec.beta} gamma={spec.gamma_resolved} "
        f"repeats={spec.repeats} seed_base={spec.seed_base}\n"
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


def run_benchmark(spec: BenchmarkSpec) -> BenchmarkOutcome:
    """Execute the grid and write summary.csv, summary.txt, and one
    per-iteration trajectory CSV per (size, tolerance, variant) taken from
    the first repeat. Returns the collected rows and output paths."""
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[SummaryRow] = []
    trajectory_files: list[Path] = []
    for size in spec.sizes:
        label = _size_label(spec.problem, size)
        for tol_idx, tol in enumerate(spec.tolerances):
            data, diag = _run_cell(spec, size, tol)
            for variant in spec.variants:
                runs, times = data[variant]
                rows.append(_summary_row(spec, size, tol, variant, runs, times))
                traj_path = out / f"traj_{spec.problem}_{label}_tol{tol_idx}_{variant}.csv"
                write_trajectory_csv(traj_path, runs[0], diag.get(variant))
                trajectory_files.append(traj_path)
    summary_csv = out / "summary.csv"
    summary_table = out / "summary.txt"
    _write_summary_csv(summary_csv, rows)
    _write_summary_table(summary_table, spec, rows)
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
