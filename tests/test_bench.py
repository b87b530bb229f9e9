import csv
import re

import numpy as np
import pytest

from admmkit import EssentialState, SolverConfig, run
from admmkit.bench import (
    BenchmarkSpec,
    emit_trajectory_plotdata,
    run_benchmark,
    write_trajectory_csv,
)
from admmkit.diagnostics import FejerMonitor
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


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        BenchmarkSpec(problem="qp", sizes=[(4, 4)], tolerances=[(1e-5, 1e-3)])
    with pytest.raises(ValueError):
        _tiny_spec(tmp_path, sizes=[])
    with pytest.raises(ValueError):
        _tiny_spec(tmp_path, tolerances=[])
    with pytest.raises(ValueError):
        _tiny_spec(tmp_path, repeats=0)
    with pytest.raises(ValueError):
        _tiny_spec(tmp_path, variants=("bogus",))
    with pytest.raises(ValueError, match=r"sizes lists \(40, 60\) more than once"):
        _tiny_spec(tmp_path, sizes=[(40, 60), (30, 50), (40, 60)])
    with pytest.raises(ValueError, match=r"tolerances lists \(1e-05, 0.001\) more than once"):
        _tiny_spec(tmp_path, tolerances=[(1e-5, 1e-3)] * 2)
    with pytest.raises(ValueError, match=r"^variants lists 'classical' more than once$"):
        _tiny_spec(tmp_path, variants=("classical", "over_relaxed", "classical"))
    # tau is covsel's positive l1 weight, checked where the spec is built
    with pytest.raises(ValueError, match=r"^tau applies only to covsel$"):
        _tiny_spec(tmp_path, tau=0.5)
    with pytest.raises(ValueError, match=r"^tau must lie in \(0, inf\), got -3.0$"):
        BenchmarkSpec(problem="covsel", sizes=[12], tolerances=[(1e-5, 1e-3)], tau=-3.0)
    # each field is checked by type before any comparison, and named
    for field, bad in [
        ("repeats", "2"), ("repeats", True), ("seed_base", "1"), ("seed_base", 1.0),
        ("seed_base", -1), ("tau", "x"), ("tau", float("nan")),
        ("sizes", [("a", 2)]), ("sizes", [None]), ("sizes", [(40, 0)]), ("sizes", [(40,)]),
        ("sizes", 40), ("tolerances", [(1e-5,)]), ("tolerances", [("1e-5", 1e-3)]),
        ("tolerances", [None]), ("variants", "classical"), ("variants", ["classical", 3]),
    ]:
        with pytest.raises(ValueError, match=field):
            _tiny_spec(tmp_path, **{field: bad})
    for bad in [(20, 20), True, 2.0]:
        message = rf"^sizes\[0\] must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            BenchmarkSpec(problem="covsel", sizes=[bad], tolerances=[(1e-5, 1e-3)])


def test_gamma_defaults_per_problem(tmp_path):
    assert _tiny_spec(tmp_path).gamma_resolved == 1.8
    covsel = BenchmarkSpec(
        problem="covsel", sizes=[20], tolerances=[(1e-5, 1e-3)], out_dir=tmp_path
    )
    assert covsel.gamma_resolved == 1.7
    assert _tiny_spec(tmp_path, gamma=1.5).gamma_resolved == 1.5


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


def test_benchmark_outputs_are_deterministic(tmp_path):
    out_a = run_benchmark(_tiny_spec(tmp_path / "a", diagnostics=True))
    out_b = run_benchmark(_tiny_spec(tmp_path / "b", diagnostics=True))
    assert out_a.summary_csv.read_bytes() == out_b.summary_csv.read_bytes()
    for pa, pb in zip(out_a.trajectory_files, out_b.trajectory_files):
        assert pa.read_bytes() == pb.read_bytes()


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
