import csv

import pytest

from admmkit import SolverConfig, run
from admmkit.bench import BenchmarkSpec, emit_trajectory_plotdata, run_benchmark
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


def test_diagnostics_columns_clean_on_converging_cell(tmp_path):
    spec = _tiny_spec(tmp_path, diagnostics=True, sizes=[(30, 50)])
    outcome = run_benchmark(spec)
    path = [p for p in outcome.trajectory_files if "over_relaxed" in p.name][0]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert "h_dist_sq" in rows[0] and "g_norm_sq" in rows[0]
    h = [float(r["h_dist_sq"]) for r in rows if r["h_dist_sq"] != ""]
    assert h and h[-1] < h[0]
    assert all(r["monotone_violation"] in ("", "0") for r in rows)
    assert all(r["gap_violation"] in ("", "0") for r in rows)


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
    assert all(row.size_label == "n15" for row in outcome.rows)


def test_emit_plotdata_single_result(tmp_path):
    instance, _ = generate_instance(40, 60, 0)
    result = run(instance, SolverConfig(variant="classical", max_iter=300))
    path = emit_trajectory_plotdata(result, tmp_path / "single.csv")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["k", "primal_residual", "dual_residual"]
    assert len(rows) == result.iterations
    assert all(float(r["primal_residual"]) > 0 for r in rows)


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
    path = emit_trajectory_plotdata(result, tmp_path / "clamped.csv")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["dual_residual"]) == 1e-300  # strictly positive for log axes


def test_emit_plotdata_unwritable_path_names_path(tmp_path):
    instance, _ = generate_instance(20, 30, 0)
    result = run(instance, SolverConfig(variant="classical", max_iter=200))
    target = tmp_path / "missing" / "file.csv"
    with pytest.raises(OSError, match="missing"):
        emit_trajectory_plotdata(result, target)


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
