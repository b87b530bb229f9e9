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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import covsel, lasso
from .diagnostics import FejerMonitor, reference_solution
from .engine import SolveResult, run
from .model import VARIANTS, SolverConfig

#: Relaxation factors matching the reported experimental protocol.
GAMMA_DEFAULTS = {"lasso": 1.8, "covsel": 1.7}

#: Semilog plots need strictly positive values; zeros are clamped to this.
PLOT_FLOOR = 1e-300


@dataclass
class BenchmarkSpec:
    """Experimental grid for :func:`run_benchmark`.

    ``sizes`` holds (m, n) pairs for lasso or feature counts n for covsel;
    ``tolerances`` holds (eps_abs, eps_rel) pairs. ``gamma=None`` resolves to
    the per-problem default. ``tau`` applies to covsel instances only. A
    value every solver config of the grid would reject is rejected here.
    """

    problem: str
    sizes: list
    tolerances: list
    gamma: float | None = None
    beta: float = 1.0
    variants: tuple = VARIANTS
    repeats: int = 10
    seed_base: int = 0
    max_iter: int = 2000
    diagnostics: bool = False
    tau: float | None = None
    out_dir: str | Path = "bench_out"

    def __post_init__(self):
        if self.problem not in ("lasso", "covsel"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if not self.sizes:
            raise ValueError("sizes must be nonempty")
        if not self.tolerances:
            raise ValueError("tolerances must be nonempty")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        bad = [v for v in self.variants if v not in VARIANTS]
        if bad or not self.variants:
            raise ValueError(f"invalid variants {bad}; expected among {VARIANTS}")
        if self.problem == "lasso":
            self.sizes = [(int(m), int(n)) for m, n in self.sizes]
        else:
            self.sizes = [int(n) for n in self.sizes]
        self.tolerances = [(float(a), float(r)) for a, r in self.tolerances]
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
    problem: str
    size_label: str
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
    primal_mean: float
    dual_mean: float
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


def _generate(spec: BenchmarkSpec, size, seed: int):
    if spec.problem == "lasso":
        instance, _ = lasso.generate_instance(size[0], size[1], seed)
    else:
        tau = covsel.DEFAULT_TAU if spec.tau is None else spec.tau
        instance, _ = covsel.generate_instance(size, seed, tau=tau)
    return instance


def _run_cell(spec: BenchmarkSpec, size, tol):
    """Solve every instance of one cell with every variant.

    Returns per-variant (results, solve times) and, with diagnostics on,
    per-variant monitors of the repeat-0 solves.
    """
    instances = [_generate(spec, size, spec.seed_base + i) for i in range(spec.repeats)]
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
                observer = monitors[variant] = FejerMonitor.for_config(instance, config, ref)
            t0 = time.perf_counter()
            result = run(instance, config, observer=observer)
            times.append(time.perf_counter() - t0)
            runs.append(result)
        data[variant] = (runs, times)
    return data, monitors


def _write_trajectory_csv(path: Path, result: SolveResult, diag: FejerMonitor | None):
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
                row += diag.row(rec.k)
            writer.writerow(row)


def _summary_row(spec, size, tol, variant, runs, times) -> SummaryRow:
    iters = np.array([r.iterations for r in runs])
    finals = [r.records[-1] for r in runs]
    return SummaryRow(
        problem=spec.problem,
        size_label=_size_label(spec.problem, size),
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
        primal_mean=float(np.mean([f.primal_residual_norm for f in finals])),
        dual_mean=float(np.mean([f.dual_residual_norm for f in finals])),
        time_mean=float(np.mean(times)),
    )


_CSV_FIELDS = [
    "problem", "size", "eps_abs", "eps_rel", "variant", "gamma", "beta",
    "repeats", "converged_runs", "dnf_runs", "iters_mean", "iters_median",
    "iters_min", "iters_max", "primal_residual_mean", "dual_residual_mean",
]


def _write_summary_csv(path: Path, rows: list[SummaryRow]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for r in rows:
            writer.writerow([
                r.problem, r.size_label, r.eps_abs, r.eps_rel, r.variant,
                r.gamma, r.beta, r.repeats, r.converged_runs, r.dnf_runs,
                r.iters_mean, r.iters_median, r.iters_min, r.iters_max,
                r.primal_mean, r.dual_mean,
            ])


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
            f"{r.size_label:>12} {r.eps_abs:>9.0e} {r.eps_rel:>9.0e} {r.variant:<20} "
            f"{r.iters_mean:>7.1f} {f'({r.iters_min}-{r.iters_max})':>11} "
            f"{r.primal_mean:>10.2e} {r.dual_mean:>10.2e} {r.time_mean:>8.3f}s {flag:>4}\n"
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
        for tol in spec.tolerances:
            tol_idx = spec.tolerances.index(tol)
            data, diag = _run_cell(spec, size, tol)
            for variant in spec.variants:
                runs, times = data[variant]
                rows.append(_summary_row(spec, size, tol, variant, runs, times))
                traj_path = out / f"traj_{spec.problem}_{label}_tol{tol_idx}_{variant}.csv"
                _write_trajectory_csv(traj_path, runs[0], diag.get(variant))
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

    ``results`` is a single solve result (columns k, primal_residual,
    dual_residual) or a mapping of variant name to result (one primal/dual
    column group per variant). Zeros are clamped to a tiny positive floor;
    variants shorter than the longest one leave trailing cells empty.
    """
    if isinstance(results, SolveResult):
        groups = [(None, results)]
    else:
        groups = list(results.items())
        if not groups:
            raise ValueError("no results to write")
    header = ["k"]
    for name, _ in groups:
        prefix = f"{name}_" if name else ""
        header += [f"{prefix}primal", f"{prefix}dual"] if name else ["primal_residual", "dual_residual"]
    depth = max(len(r.records) for _, r in groups)
    path = Path(path)
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise OSError(f"cannot write trajectory data to {path}: {exc}") from exc
    with fh:
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
