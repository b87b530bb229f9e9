import csv
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from admmkit import EssentialState, SolverConfig, bench, run
from admmkit.bench import (
    BenchmarkSpec,
    emit_trajectory_plotdata,
    run_benchmark,
    write_trajectory_csv,
)
from admmkit.diagnostics import FejerMonitor, reference_solution
from admmkit.lasso import generate_instance


def _tiny_spec(tmp_path, **overrides):
    base = dict(
        problem="lasso",
        sizes=[(40, 60)],
        tolerances=[(1e-5, 1e-3)],
        repeats=2,
        seed_base=0,
        max_iter=300,
        out_dir=tmp_path,
    )
    base.update(overrides)
    return BenchmarkSpec(**base)


def test_gamma_defaults_per_problem(tmp_path):
    assert _tiny_spec(tmp_path).gamma == 1.8
    covsel = BenchmarkSpec(
        problem="covsel", sizes=[20], tolerances=[(1e-5, 1e-3)], out_dir=tmp_path
    )
    assert covsel.gamma == 1.7
    assert _tiny_spec(tmp_path, gamma=1.5).gamma == 1.5


def test_run_benchmark_row_and_file_layout(tmp_path):
    spec = _tiny_spec(
        tmp_path,
        sizes=[(40, 60), (30, 50)],
        tolerances=[(1e-4, 1e-2), (1e-5, 1e-3)],
    )
    outcome = run_benchmark(spec)
    assert len(outcome.rows) == 2 * 2 * 3
    assert outcome.summary_csv.exists() and outcome.summary_table.exists()
    assert len(outcome.trajectory_files) == 12
    with open(outcome.summary_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert rows[0]["problem"] == "lasso"
    assert "iters_mean" in rows[0] and "dual_residual_mean" in rows[0]
    assert not any("time" in field for field in rows[0])
    assert not outcome.any_dnf
    table = outcome.summary_table.read_text()
    assert "classical" in table and "over_relaxed" in table and "time" in table


def test_a_grid_generates_each_instance_once_and_shares_it_across_tolerances(
    tmp_path, monkeypatch
):
    counts = {"generate_instance": 0, "run": 0}
    lock = threading.Lock()  # the grid's workers call both names concurrently
    for name in counts:
        inner = getattr(bench, name)

        def counted(*args, name=name, inner=inner, **kwargs):
            with lock:
                counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(bench, name, counted)
    sizes, tolerances = [(20, 30), (30, 20)], [(1e-4, 1e-2), (1e-6, 1e-4)]
    grid = run_benchmark(_tiny_spec(tmp_path / "grid", sizes=sizes, tolerances=tolerances,
                                    diagnostics=True))
    # sizes x repeats instances; one timed solve per (size, tolerance, variant, repeat)
    assert counts == {"generate_instance": 2 * 2, "run": 2 * 2 * 3 * 2}
    # the second tolerance pair alone on fresh instances writes the same bytes
    alone = run_benchmark(_tiny_spec(tmp_path / "alone", sizes=sizes, tolerances=tolerances[1:],
                                     diagnostics=True))
    shared = [p for p in grid.trajectory_files if "_tol1_" in p.name]
    assert [p.name.replace("_tol1_", "_tol0_") for p in shared] == [
        p.name for p in alone.trajectory_files
    ]
    for path, fresh in zip(shared, alone.trajectory_files):
        assert path.read_bytes() == fresh.read_bytes(), path.name
    lines = grid.summary_csv.read_text().splitlines()
    # the header, then each size's three tol1 rows
    assert [lines[0], *lines[4:7], *lines[10:]] == alone.summary_csv.read_text().splitlines()


def _one_cell_at_a_time(spec):
    """The grid's CSVs, each cell solved by a direct ``run`` on its own fresh
    instance, one solve at a time: the pool's reference."""
    out = spec.out_dir
    out.mkdir(parents=True)
    rows = []
    for size in spec.sizes:
        label = bench._size_label(spec.problem, size)
        for tol_idx, tol in enumerate(spec.tolerances):
            for variant in spec.variants:
                config, runs, monitor = spec.config(variant, tol), [], None
                for i in range(spec.repeats):
                    instance = bench.generate_instance(spec.problem, size, spec.seed_base + i,
                                                       spec.tau)
                    observer = None
                    if spec.diagnostics and i == 0:
                        ref = reference_solution(instance, spec.config(spec.variants[0], tol))
                        observer = monitor = FejerMonitor(instance, config, ref)
                    runs.append(run(instance, config, observer=observer))
                write_trajectory_csv(
                    out / f"traj_{spec.problem}_{label}_tol{tol_idx}_{variant}.csv",
                    runs[0], monitor,
                )
                rows.append(bench._summary_row(spec, size, tol, variant,
                                               [(0.0, r, None) for r in runs]))
    bench._write_summary_csv(out / "summary.csv", rows)


def _csv_bytes(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.glob("*.csv"))}


@pytest.mark.parametrize("grid", [
    dict(problem="covsel", sizes=[12, 15], tolerances=[(1e-5, 1e-3)], repeats=3,
         diagnostics=True),
    dict(problem="lasso", sizes=[(20, 30), (30, 20)], tolerances=[(1e-4, 1e-2), (1e-6, 1e-4)],
         repeats=3),
], ids=["covsel-diagnostics", "lasso-two-tolerances"])
def test_pooled_repeats_write_the_bytes_of_one_solve_at_a_time(tmp_path, monkeypatch, grid):
    spec = dict(grid, max_iter=300, seed_base=4)
    # two workers for three repeats, whatever the machine has, switching
    # threads often so that any state the workers share would show
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = run_benchmark(BenchmarkSpec(**spec, out_dir=tmp_path / "pooled"))
    finally:
        sys.setswitchinterval(interval)
    assert "repeats=3 workers=2 " in pooled.summary_table.read_text()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = run_benchmark(BenchmarkSpec(**spec, out_dir=tmp_path / "one"))
    assert "repeats=3 workers=1 " in one.summary_table.read_text()
    _one_cell_at_a_time(BenchmarkSpec(**spec, out_dir=tmp_path / "direct"))
    written = _csv_bytes(tmp_path / "pooled")
    assert len(written) == len(pooled.trajectory_files) + 1
    assert written == _csv_bytes(tmp_path / "one")
    assert written == _csv_bytes(tmp_path / "direct")


def test_without_an_affinity_call_the_workers_follow_the_cpu_count(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus, repeats, workers in [(3, 2, 2), (3, 4, 3), (None, 4, 1)]:
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert bench._workers(repeats) == workers
        spec = _tiny_spec(tmp_path / f"{cpus}-{repeats}", repeats=repeats, variants=("classical",))
        header = run_benchmark(spec).summary_table.read_text().splitlines()[0]
        assert f" repeats={repeats} workers={workers} " in header


def test_a_grid_keeps_no_iterate_past_its_repeat(tmp_path, monkeypatch):
    """The tracemalloc peak of a covsel grid grows by less than one instance's
    worth from 2 to 6 repeats, with diagnostics on and off: the n^2-long
    final x, y and lam of each variant, 1 MB a repeat at n = 120, are not
    kept. What does grow is each repeat's records, about 0.26 KB a step and
    some 20 KB a repeat here, so 10 more repeats would outgrow this 118 KB
    instance; at n = 300 a repeat's records are under 3% of one. One worker,
    so that the peak measures what the grid keeps and not how two workers'
    solves overlap."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tracemalloc.start()
    try:
        instance = bench.generate_instance("covsel", 120, 0)
        instance_bytes = tracemalloc.get_traced_memory()[0]
        del instance
        for diagnostics in (False, True):
            peaks = []
            for repeats in (2, 6):
                spec = BenchmarkSpec(problem="covsel", sizes=[120], tolerances=[(1e-5, 1e-3)],
                                     repeats=repeats, diagnostics=diagnostics,
                                     out_dir=tmp_path / f"{diagnostics}-{repeats}")
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run_benchmark(spec)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            assert peaks[1] - peaks[0] < instance_bytes, (diagnostics, peaks, instance_bytes)
    finally:
        tracemalloc.stop()


def test_no_timed_solve_pays_the_lasso_factorization(tmp_path, monkeypatch):
    # each instance holds its factor for the grid's beta before any variant is
    # timed, so a variant's time does not depend on its place in the list
    spec = _tiny_spec(tmp_path, beta=0.5, variants=("over_relaxed", "classical"))
    inner, factored = bench.run, []

    def timed(problem, config, **kwargs):
        factored.append(problem._cache is not None and problem._cache[0] == spec.beta)
        return inner(problem, config, **kwargs)

    monkeypatch.setattr(bench, "run", timed)
    run_benchmark(spec)
    assert factored == [True] * 2 * 2  # two repeats of two variants


def _tag_repeats(monkeypatch, spec):
    """Patch ``bench.generate_instance`` to tag each instance with its repeat
    index; returns the tags and the generated indices, in call order."""
    tags, generated = {}, []
    inner = bench.generate_instance

    def tagged(problem, size, seed, tau=None):
        instance = inner(problem, size, seed, tau)
        tags[id(instance)] = seed - spec.seed_base
        generated.append(seed - spec.seed_base)
        return instance

    monkeypatch.setattr(bench, "generate_instance", tagged)
    return tags, generated


def test_each_repeat_starts_one_variant_further_down_the_list(tmp_path, monkeypatch):
    spec = _tiny_spec(tmp_path, repeats=4, tolerances=[(1e-4, 1e-2), (1e-5, 1e-3)],
                      variants=("over_relaxed", "classical", "relaxed_customized"))
    tags, _ = _tag_repeats(monkeypatch, spec)
    solved = {i: [] for i in range(spec.repeats)}  # each list is appended by one worker
    inner = bench.run

    def recorded(problem, config, **kwargs):
        solved[tags[id(problem)]].append(config.variant)
        return inner(problem, config, **kwargs)

    monkeypatch.setattr(bench, "run", recorded)
    run_benchmark(spec)
    o, c, r = spec.variants
    assert solved == {0: [o, c, r] * 2, 1: [c, r, o] * 2, 2: [r, o, c] * 2, 3: [o, c, r] * 2}


def test_a_failing_repeat_raises_the_lowest_index_failure(tmp_path, monkeypatch):
    spec = _tiny_spec(tmp_path / "out", repeats=3, variants=("classical",))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    tags, _ = _tag_repeats(monkeypatch, spec)
    later_failed = threading.Event()
    inner = bench.run

    def failing(problem, config, **kwargs):
        repeat = tags[id(problem)]
        if repeat == 2:
            later_failed.set()
            raise RuntimeError("repeat 2 failed")
        if repeat == 1:
            # repeat 2 starts once repeat 0 is done, and fails first
            assert later_failed.wait(timeout=30)
            raise RuntimeError("repeat 1 failed")
        return inner(problem, config, **kwargs)

    monkeypatch.setattr(bench, "run", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^repeat 1 failed$"):
        run_benchmark(spec)
    assert later_failed.is_set()
    assert threading.active_count() == threads
    assert not spec.out_dir.exists()


def test_a_failing_repeat_cancels_the_repeats_not_yet_started(tmp_path, monkeypatch):
    spec = _tiny_spec(tmp_path / "out", repeats=4, variants=("classical",))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    futures = []

    class RecordingPool(bench.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    monkeypatch.setattr(bench, "ThreadPoolExecutor", RecordingPool)
    tags, generated = _tag_repeats(monkeypatch, spec)
    inner = bench.run

    def failing(problem, config, **kwargs):
        repeat = tags[id(problem)]
        if repeat == 1:
            raise RuntimeError("repeat 1 failed")
        if repeat == 2:
            # the one worker holds repeat 2 until repeat 3 is cancelled
            deadline = time.monotonic() + 30
            while not (len(futures) == 4 and futures[3].cancelled()):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        return inner(problem, config, **kwargs)

    monkeypatch.setattr(bench, "run", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^repeat 1 failed$"):
        run_benchmark(spec)
    assert futures[3].cancelled()
    assert generated == [0, 1, 2]
    assert threading.active_count() == threads
    assert not spec.out_dir.exists()


def test_trajectory_csv_schema_and_convergence(tmp_path):
    spec = _tiny_spec(tmp_path)
    outcome = run_benchmark(spec)
    path = [p for p in outcome.trajectory_files if "over_relaxed" in p.name][0]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["k", "primal_residual", "dual_residual", "criterion_value", "relaxed"]
    assert [int(r["k"]) for r in rows] == list(range(1, len(rows) + 1))
    assert all(r["relaxed"] in ("0", "1") for r in rows)
    # converged run: last row satisfies the configured tolerances
    instance, _ = generate_instance(40, 60, 0)
    result = run(
        instance, SolverConfig(variant="over_relaxed", gamma=1.8, max_iter=300)
    )
    last = result.records[-1]
    assert float(rows[-1]["primal_residual"]) == last.primal_residual_norm
    assert last.within_tolerance


#: (monotone_violation, gap_violation) cells of a clean step, by variant and
#: relaxed flag: "0" where the check ran, blank where it did not.
CLEAN_CELLS = {
    ("classical", "0"): ("0", ""),
    ("over_relaxed", "0"): ("0", ""),
    ("over_relaxed", "1"): ("0", "0"),
    ("relaxed_customized", "1"): ("", ""),
}


def test_diagnostics_columns_clean_on_converging_cell(tmp_path):
    spec = _tiny_spec(tmp_path, diagnostics=True, sizes=[(30, 50)])
    outcome = run_benchmark(spec)
    seen = set()
    for path in outcome.trajectory_files:
        variant = path.stem.split("_tol0_")[1]
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert "h_dist_sq" in rows[0] and "g_norm_sq" in rows[0]
        h = [float(r["h_dist_sq"]) for r in rows if r["h_dist_sq"] != ""]
        if variant == "over_relaxed":
            assert h and h[-1] < h[0]
        for r in rows:
            key = (variant, r["relaxed"])
            assert (r["monotone_violation"], r["gap_violation"]) == CLEAN_CELLS[key]
            seen.add(key)
    assert seen == set(CLEAN_CELLS)


def test_trajectory_csv_leaves_the_unobserved_non_finite_step_blank(tmp_path, nan_after_two):
    problem = nan_after_two()
    config = SolverConfig(variant="classical", eps_abs=1e-12, eps_rel=1e-12)
    monitor = FejerMonitor(problem, config, EssentialState.zeros(problem))
    v0 = EssentialState(np.array([1.0]), np.array([0.0]))
    result = run(problem, config, v0, observer=monitor)
    assert result.stop_reason == "non_finite" and result.iterations == 3
    write_trajectory_csv(tmp_path / "traj.csv", result, monitor)
    with open(tmp_path / "traj.csv") as fh:
        rows = list(csv.DictReader(fh))
    analysis = ("h_dist_sq", "g_norm_sq", "monotone_violation", "gap_violation")
    assert [int(r["k"]) for r in rows] == [1, 2, 3]
    assert all(r[c] != "" for r in rows[:2] for c in analysis[:3])
    assert [rows[-1][c] for c in analysis] == ["", "", "", ""]


def test_dnf_flagging(tmp_path):
    spec = _tiny_spec(tmp_path, max_iter=2)
    outcome = run_benchmark(spec)
    assert outcome.any_dnf
    assert all(row.dnf_runs == row.repeats for row in outcome.rows)
    assert "DNF" in outcome.summary_table.read_text()


def test_covsel_benchmark_cell(tmp_path):
    spec = BenchmarkSpec(
        problem="covsel",
        sizes=[15],
        tolerances=[(1e-5, 1e-3)],
        repeats=2,
        max_iter=300,
        out_dir=tmp_path,
        variants=("classical", "over_relaxed"),
    )
    outcome = run_benchmark(spec)
    assert len(outcome.rows) == 2
    assert not outcome.any_dnf
    assert all(row.size == "n15" for row in outcome.rows)


def test_emit_plotdata_variant_groups(tmp_path):
    instance, _ = generate_instance(40, 60, 0)
    results = {
        variant: run(
            instance,
            SolverConfig(variant=variant, gamma=1.8, max_iter=300),
        )
        for variant in ("classical", "over_relaxed", "relaxed_customized")
    }
    path = emit_trajectory_plotdata(results, tmp_path / "multi.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "k",
        "classical_primal", "classical_dual",
        "over_relaxed_primal", "over_relaxed_dual",
        "relaxed_customized_primal", "relaxed_customized_dual",
    ]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == max(r.iterations for r in results.values())


def test_emit_plotdata_clamps_exact_zeros(tmp_path):
    from admmkit import EssentialState
    from admmkit.quadratic import scalar_chain

    chain = scalar_chain()
    at_solution = EssentialState([0.0], [0.0])
    result = run(chain, SolverConfig(variant="classical", max_iter=3), at_solution)
    assert result.records[0].dual_residual_norm == 0.0
    path = emit_trajectory_plotdata({"classical": result}, tmp_path / "clamped.csv")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["classical_dual"]) == 1e-300  # strictly positive for log axes


def test_emit_plotdata_rejects_an_empty_result_map(tmp_path):
    with pytest.raises(ValueError, match="no results to write"):
        emit_trajectory_plotdata({}, tmp_path / "empty.csv")
    assert not (tmp_path / "empty.csv").exists()


def test_emit_plotdata_unwritable_path_names_path(tmp_path):
    instance, _ = generate_instance(20, 30, 0)
    result = run(instance, SolverConfig(variant="classical", max_iter=200))
    target = tmp_path / "missing" / "file.csv"
    with pytest.raises(OSError, match="missing"):
        emit_trajectory_plotdata({"classical": result}, target)


def test_residual_decrease_regression_baseline():
    # Table-1-scale size at the tight tolerance pair: both residual curves
    # drop by at least three orders of magnitude from the first iteration
    instance, _ = generate_instance(1000, 1500, 0)
    for variant in ("classical", "over_relaxed"):
        result = run(
            instance,
            SolverConfig(
                variant=variant, gamma=1.8, eps_abs=1e-7, eps_rel=1e-5, max_iter=500
            ),
        )
        assert result.converged
        first, last = result.records[0], result.records[-1]
        assert first.primal_residual_norm / last.primal_residual_norm >= 1e3
        assert first.dual_residual_norm / last.dual_residual_norm >= 1e3
