"""Benchmark workloads: seeded inputs, timed set-up and solves, output checks.

Every workload turns the run's seed into problem data with the library's own
generators; generation is never timed. The amount of work in a run is fixed
by ``--seconds`` and a nominal rate per workload (units of work per second,
set on a 2-core x86 machine at one BLAS thread), so a given seed and run
length always do the same solves and the iteration counts repeat exactly.

A *unit* is one instance for the solve workloads (set-up, then one solve per
variant, variant order rotated by the unit's index) and one
``bench.run_benchmark`` call for ``covsel-diag``.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from admmkit import bench, covsel, diagnostics, engine, lasso
from admmkit.model import VARIANTS, SolverConfig

MAX_ITER = 2000

#: Penalty parameter of every solve.
BETA = 1.0

#: Instance seeds of a run start at seed * SEED_STRIDE.
SEED_STRIDE = 10_000

#: ``covsel-diag`` times the set-up of each call's instances this many times.
SETUP_ROUNDS = 2


@dataclass
class Tally:
    """Timings, counts and check outcomes of one measured pass."""

    setup_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    solve_iterations: list = field(default_factory=list)
    unit_s: list = field(default_factory=list)
    timed_s: float = 0.0
    iterations: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    relaxed_final_kkt: int = 0
    csv_bytes: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        self.relaxed_final_kkt += other.relaxed_final_kkt


def warm_up_blas() -> None:
    """One untimed pass through the BLAS/LAPACK routines the solvers use."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    gram = a @ a.T + 200.0 * np.eye(200)
    cho_solve(cho_factor(gram), a @ a[0])
    np.linalg.eigh(gram)
    np.linalg.eigvalsh(gram)
    np.linalg.slogdet(gram)
    np.linalg.inv(gram)


def check_solve(problem, result, label: str, tally: Tally) -> None:
    """Count one solve; fail it unless it converged near a KKT point.

    The bound is max(1, beta) * (eps_pri + eps_dual) at the final iterate:
    the stopping rule bounds the feasibility violation by eps_pri and the
    smooth block's stationarity by beta times the two thresholds. The l1
    block's membership residual is bounded too when the returned y came out of
    the y-subproblem, but not when the last step relaxed it: an entry the
    extrapolation moves off zero costs O(l1 weight) however small the step.
    For such solves the y-block is checked at the unrelaxed y-subproblem
    output the step is built from, y_tilde = solve_y(x, lam_early), against
    the final multiplier; they are counted in ``relaxed_final_kkt`` when the
    full residual exceeds the bound and this one does not.
    """
    tally.attempted += 1
    if not result.converged:
        tally.fail(f"{label}: no convergence in {result.iterations} iterations")
        return
    last = result.records[-1]
    bound = max(1.0, BETA) * (last.eps_pri + last.eps_dual)
    kkt = diagnostics.kkt_residual(problem, result.final)
    if kkt <= bound:
        return
    if last.relaxed:
        w = result.final
        r = problem.constraint_residual(w.x, w.y)
        y_tilde = problem.solve_y(w.x, w.lam - BETA * r, BETA)
        unrelaxed = max(
            problem.x_stationarity(w.x, w.lam),
            problem.y_stationarity(y_tilde, w.lam),
            float(np.abs(r).max(initial=0.0)),
        )
        if unrelaxed <= bound:
            tally.relaxed_final_kkt += 1
            return
        kkt = unrelaxed
    tally.fail(f"{label}: KKT residual {kkt:.3e} above bound {bound:.3e}")


def _rotated(index: int) -> tuple:
    shift = index % len(VARIANTS)
    return VARIANTS[shift:] + VARIANTS[:shift]


@dataclass(frozen=True)
class SolveWorkload:
    """Set up one instance per unit, then solve it with every variant."""

    name: str
    generate: Callable[[int], tuple]  # seed -> (problem class, constructor arguments)
    eps: tuple
    gamma: float
    units_per_s: float

    def warm_up(self, seed: int):
        self.measure(seed, 1, contextlib.nullcontext, None)

    def measure(self, seed: int, units: int, region, _warm) -> Tally:
        tally = Tally()
        for index in range(units):
            self._unit(seed * SEED_STRIDE + index, index, region, tally)
        return tally

    def _unit(self, instance_seed: int, index: int, region, tally: Tally) -> None:
        cls, args = self.generate(instance_seed)
        configs = [
            SolverConfig(variant=v, beta=BETA, gamma=self.gamma,
                         eps_abs=self.eps[0], eps_rel=self.eps[1], max_iter=MAX_ITER)
            for v in _rotated(index)
        ]
        with region():
            start = time.perf_counter()
            problem = cls(*args)
            problem.solve_x(np.zeros(problem.n2), np.zeros(problem.m), BETA)
            setup = time.perf_counter() - start
        tally.setup_s.append(setup)
        unit = setup
        for config in configs:
            label = f"{self.name} seed {instance_seed} {config.variant}"
            with region():
                start = time.perf_counter()
                try:
                    result = engine.run(problem, config)
                except engine.SolverError as exc:
                    result = exc
                elapsed = time.perf_counter() - start
            unit += elapsed
            if isinstance(result, Exception):
                tally.attempted += 1
                tally.fail(f"{label}: {result}")
                continue
            tally.solve_s.append(elapsed)
            tally.solve_iterations.append(result.iterations)
            tally.iterations += result.iterations
            check_solve(problem, result, label, tally)
        tally.unit_s.append(unit)
        tally.timed_s += unit


@dataclass(frozen=True)
class DiagWorkload:
    """``bench.run_benchmark`` on covsel with diagnostics.

    Call i of a run solves its own instances (seed base i * repeats), so a
    run's figures average over many instances rather than hang on a few. The
    untimed warm-up call solves the instances of call 0, and every call's CSVs
    must be byte-identical to the earlier call on the same instances in the
    process. Set-up is measured apart, just before each call, on the instances
    that call generates: ``SETUP_ROUNDS`` constructions plus first x-solves of
    each of them.
    """

    name: str
    n: int
    eps: tuple
    gamma: float
    repeats: int
    units_per_s: float
    out_dir: Path

    def spec(self, seed_base: int):
        return bench.BenchmarkSpec(
            problem="covsel", sizes=[self.n], tolerances=[self.eps], gamma=self.gamma,
            beta=BETA, repeats=self.repeats, seed_base=seed_base,
            max_iter=MAX_ITER, diagnostics=True, out_dir=self.out_dir,
        )

    def warm_up(self, seed: int) -> dict:
        """One untimed call; returns the CSV digests later calls must keep,
        by seed base (filled in as the first call on each base runs)."""
        seed_base = seed * SEED_STRIDE
        bench.run_benchmark(self.spec(seed_base))
        return {seed_base: self._csv_digest()[0]}

    def measure(self, seed: int, units: int, region, references: dict) -> Tally:
        tally = Tally()
        for call in range(units):
            seed_base = seed * SEED_STRIDE + call * self.repeats
            self._setup(seed_base, region, tally)
            with self._timed_solves() as solves:
                with region():
                    start = time.perf_counter()
                    bench.run_benchmark(self.spec(seed_base))
                    wall = time.perf_counter() - start
            tally.unit_s.append(wall)
            tally.timed_s += wall
            for elapsed, problem, result in solves:
                label = f"{self.name} call {call} {result.iterations} iterations"
                tally.solve_s.append(elapsed)
                tally.solve_iterations.append(result.iterations)
                tally.iterations += result.iterations
                check_solve(problem, result, label, tally)
            self._check_outputs(f"{self.name} call {call}", seed_base, references, tally)
        return tally

    def _setup(self, seed_base: int, region, tally: Tally) -> None:
        arrays = []
        for i in range(self.repeats):
            instance, _ = covsel.generate_instance(self.n, seed_base + i)
            arrays.append((instance.S, instance.tau))
        for _ in range(SETUP_ROUNDS):
            for S, tau in arrays:
                with region():
                    start = time.perf_counter()
                    problem = covsel.CovselInstance(S, tau)
                    problem.solve_x(np.zeros(problem.n2), np.zeros(problem.m), BETA)
                    setup = time.perf_counter() - start
                tally.setup_s.append(setup)
                tally.timed_s += setup

    @contextlib.contextmanager
    def _timed_solves(self):
        """Time every solve ``bench`` makes (reference solves excluded)."""
        solves = []
        inner = bench.run

        def timed_run(problem, config, *args, **kwargs):
            start = time.perf_counter()
            result = inner(problem, config, *args, **kwargs)
            solves.append((time.perf_counter() - start, problem, result))
            return result

        bench.run = timed_run
        try:
            yield solves
        finally:
            bench.run = inner

    def _csv_digest(self):
        digest = hashlib.sha256()
        size = 0
        for path in sorted(Path(self.out_dir).glob("*.csv")):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            size += len(data)
        return digest.hexdigest(), size

    def _check_outputs(self, label: str, seed_base: int, references: dict,
                       tally: Tally) -> None:
        """CSVs byte-identical to an earlier call's on the same instances, if
        any; no Fejer or gap violation flagged for the variants the analysis
        covers."""
        tally.attempted += 1
        digest, size = self._csv_digest()
        tally.csv_bytes += size
        if references.setdefault(seed_base, digest) != digest:
            tally.fail(f"{label}: CSV bytes differ from the earlier call on seed base {seed_base}")
            return
        for variant in ("classical", "over_relaxed"):
            paths = list(Path(self.out_dir).glob(f"traj_*_{variant}.csv"))
            if len(paths) != 1:
                tally.fail(f"{label}: expected one {variant} trajectory CSV")
                return
            lines = paths[0].read_text().splitlines()
            header = lines[0].split(",")
            columns = [header.index("monotone_violation"), header.index("gap_violation")]
            flagged = sum(
                1 for line in lines[1:] for c in columns if line.split(",")[c] not in ("", "0")
            )
            if flagged:
                tally.fail(f"{label}: {flagged} violation flags for {variant}")
                return


def _lasso(rows: int, cols: int):
    def generate(seed):
        instance, _ = lasso.generate_instance(rows, cols, seed)
        return lasso.LassoInstance, (instance.A, instance.b, instance.rho)
    return generate


def _covsel(n: int):
    def generate(seed):
        instance, _ = covsel.generate_instance(n, seed)
        return covsel.CovselInstance, (instance.S, instance.tau)
    return generate


LASSO_EPS = (1e-5, 1e-3)
COVSEL_EPS = (1e-6, 1e-4)


def build(name: str, tiny: bool, out_dir: Path):
    """The named workload at its protocol sizes, or at tiny sizes."""
    if name == "lasso-fat":
        size = (30, 50) if tiny else (1000, 1500)
        return SolveWorkload(name, _lasso(*size), LASSO_EPS, 1.8, units_per_s=3.5)
    if name == "lasso-tall":
        size = (60, 20) if tiny else (3000, 1000)
        return SolveWorkload(name, _lasso(*size), LASSO_EPS, 1.8, units_per_s=3.6)
    if name == "covsel-300":
        return SolveWorkload(name, _covsel(12 if tiny else 300), COVSEL_EPS, 1.7,
                             units_per_s=0.82)
    if name == "covsel-diag":
        return DiagWorkload(name, 10 if tiny else 200, COVSEL_EPS, 1.7, repeats=3,
                            units_per_s=0.36, out_dir=out_dir)
    raise KeyError(name)

