import csv
import re

import numpy as np
import pytest
from conftest import run_cli, usage_message

from admmkit import SolverConfig, run
from admmkit import cli
from admmkit.container import load_instance
from admmkit.covsel import generate_instance as generate_covsel
from admmkit.lasso import generate_instance


@pytest.mark.parametrize(
    "argv",
    [["lasso", "--m", "40", "--n", "60"],
     ["lasso", "--m", "40", "--n", "60", "--diagnostics"],
     # a tall Lasso (rows >= cols) takes the direct n x n Cholesky path
     ["lasso", "--m", "60", "--n", "20", "--diagnostics"],
     ["covsel", "--n", "15", "--diagnostics"]],
    ids=["lasso", "lasso-diagnostics", "lasso-tall-diagnostics", "covsel-diagnostics"],
)
def test_grid_subcommand(tmp_path, argv):
    argv = [*argv, "--repeats", "2", "--seed", "0", "--max-iter", "300", "--out", tmp_path]
    result = run_cli(argv)
    assert result.code == 0
    assert "classical" in result.stdout and "summary csv" in result.stdout
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    trajectories = sorted(tmp_path.glob("traj_*.csv"))
    assert len(trajectories) == 3
    for path in trajectories:
        with open(path) as fh:
            assert ("h_dist_sq" in next(csv.reader(fh))) == ("--diagnostics" in argv)


@pytest.mark.parametrize(
    "m, n, sizes",
    [("40", "60,70", ["40x60", "40x70"]), ("40,50", "60", ["40x60", "50x60"])],
    ids=["one-m", "one-n"],
)
def test_lasso_grid_broadcasts_a_single_size(tmp_path, m, n, sizes):
    argv = ["lasso", "--m", m, "--n", n, "--repeats", "1", "--variant", "classical",
            "--max-iter", "300", "--out", tmp_path]
    assert run_cli(argv).code == 0
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert [row["size"] for row in csv.DictReader(fh)] == sizes


def test_covsel_subcommand(tmp_path):
    result = run_cli([
        "covsel", "--n", "15", "--repeats", "2", "--seed", "0",
        "--eps-abs", "1e-5", "--eps-rel", "1e-3",
        "--variant", "classical,over_relaxed",
        "--max-iter", "300", "--out", tmp_path,
    ])
    assert result.code == 0
    assert (tmp_path / "traj_covsel_n15_tol0_over_relaxed.csv").exists()
    assert not (tmp_path / "traj_covsel_n15_tol0_relaxed_customized.csv").exists()


# a tall Lasso (rows >= cols) takes the direct n x n Cholesky path
@pytest.mark.parametrize("m, n", [(40, 60), (60, 20)], ids=["fat", "tall"])
def test_compare_subcommand(tmp_path, m, n):
    result = run_cli([
        "compare", "--problem", "lasso", "--m", m, "--n", n,
        "--seed", "1", "--max-iter", "300", "--out", tmp_path,
    ])
    assert result.code == 0
    assert (tmp_path / "compare_lasso.csv").exists()
    out = result.stdout
    assert "over_relaxed" in out and "relaxed_customized" in out
    # the relaxed column counts the steps whose gate fired
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["variant", "iterations", "relaxed", "stop"]
    instance = generate_instance(m, n, 1)[0]
    for line in lines[1:4]:
        variant, iterations, relaxed = line.split()[:3]
        records = run(instance, SolverConfig(variant=variant, gamma=1.8, max_iter=300)).records
        assert (int(iterations), int(relaxed)) == (len(records), sum(r.relaxed for r in records))
        if variant == "classical":
            assert relaxed == "0"
        if variant == "relaxed_customized":
            assert relaxed == iterations


STEP_CHECK_LINES = {
    "multiplier split identity residual": ("classical", "over_relaxed"),
    "correction identity residual (relaxed)": ("over_relaxed",),
    "gap-form expansion mismatch (relaxed)": ("over_relaxed",),
    "Fejer monotonicity violations": ("classical", "over_relaxed"),
    "per-step gap inequality violations": ("over_relaxed",),
}


@pytest.mark.parametrize("variant", ["classical", "over_relaxed", "relaxed_customized"])
def test_diagnose_prints_only_the_checks_the_variant_runs(tmp_path, variant):
    result = run_cli([
        "diagnose", "--problem", "lasso", "--m", "40", "--n", "60", "--variant", variant,
        "--seed", "1", "--max-iter", "300", "--out", tmp_path,
    ])
    assert result.code == 0
    out = result.stdout
    for line, variants in STEP_CHECK_LINES.items():
        assert (line in out) == (variant in variants), line
    assert set(re.findall(r"violations: +(\S+)\n", out)) <= {"0"}
    assert "KKT residual" in out
    # the CSV's violation cells are likewise blank where a step skipped the check
    with open(tmp_path / f"diagnose_lasso_{variant}.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [
        "k", "primal_residual", "dual_residual", "criterion_value", "relaxed",
        "h_dist_sq", "g_norm_sq", "monotone_violation", "gap_violation",
    ]
    # relaxed= counts the steps whose gate fired: none for classical, every
    # one for relaxed_customized
    relaxed = sum(r["relaxed"] == "1" for r in rows)
    assert out.startswith(f"variant={variant} iterations={len(rows)} relaxed={relaxed} "
                          "stop=converged\n")
    if variant == "classical":
        assert relaxed == 0
    if variant == "relaxed_customized":
        assert relaxed == len(rows)
    for r in rows:
        # every classical and over-relaxed step is checked for monotonicity,
        # a relaxed over-relaxed one also for the gap inequality
        mono_ran = variant != "relaxed_customized"
        gap_ran = variant == "over_relaxed" and r["relaxed"] == "1"
        assert r["monotone_violation"] == ("0" if mono_ran else "")
        assert r["gap_violation"] == ("0" if gap_ran else "")


@pytest.mark.parametrize("variant", ["classical", "over_relaxed", "relaxed_customized"])
def test_diagnose_kkt_at_last_subproblem_output_meets_the_stopping_bound(tmp_path, variant):
    # this over-relaxed solve converges on a relaxed step, and relaxed_customized
    # always relaxes: their extrapolated pairs' KKT residuals are ~0.24
    result = run_cli([
        "diagnose", "--m", "38", "--n", "36", "--seed", "6", "--variant", variant,
        "--out", tmp_path,
    ])
    assert result.code == 0
    out = result.stdout
    assert " stop=converged\n" in out
    line = out.split("KKT residual at returned point:")[1].splitlines()[0]
    value, bound = float(line.split()[0]), float(line.split("(bound ")[1].rstrip(")"))
    assert bound == pytest.approx(3.49e-3, rel=1e-2)  # max(1, beta)(eps_pri + eps_dual)
    assert value <= bound


@pytest.mark.parametrize(
    "size",
    [["--problem", "covsel", "--n", "20"],
     # n2 + m = 1922 and 2002: the monitor needs no dense matrix at any size
     ["--problem", "covsel", "--n", "31"],
     ["--m", "40", "--n", "1001"]],
    ids=["covsel-20", "covsel-31", "lasso-40x1001"],
)
def test_diagnose_prints_no_dense_matrix_lines(tmp_path, size):
    # the dense H = Q M^-1 and G checks are test oracles, not diagnose output
    result = run_cli(["diagnose", *size, "--seed", "0", "--out", tmp_path])
    assert result.code == 0
    out = result.stdout
    assert "H = Q M^-1" not in out and "gap-form decomposition" not in out
    for line in STEP_CHECK_LINES:
        assert line in out, line
    assert "KKT residual at returned point" in out


def test_diagnose_covsel_classical(tmp_path):
    result = run_cli([
        "diagnose", "--problem", "covsel", "--n", "15", "--variant", "classical",
        "--eps-abs", "1e-5", "--eps-rel", "1e-3",
        "--seed", "0", "--max-iter", "300", "--out", tmp_path,
    ])
    assert result.code == 0
    assert "violations:            0" in result.stdout


def test_config_file_defaults_and_flag_override(tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text("# defaults\nm=40\nn=60\nrepeats=2\nmax-iter=300\ngamma=1.5\n")
    out_dir = tmp_path / "out"
    assert run_cli(["lasso", "--config", config, "--out", out_dir, "--gamma", "1.2"]).code == 0
    table = (out_dir / "summary.txt").read_text()
    assert "gamma=1.2" in table  # flag wins over the file
    assert run_cli(["lasso", "--config", config, "--out", out_dir]).code == 0
    assert "gamma=1.5" in (out_dir / "summary.txt").read_text()


def _write_config(tmp_path, *lines):
    config = tmp_path / "bench.cfg"
    config.write_text("\n".join(lines) + "\n")
    return str(config)


@pytest.mark.parametrize(
    "lines, flags, diagnostics",
    [
        (["# a comment", "", "max_iter=300", "diagnostics=true"], [], True),
        (["--max-iter=300", "diagnostics=false"], ["--diagnostics"], True),  # the flag wins
        (["max-iter=300", "diagnostics=no"], [], False),
    ],
)
def test_config_file_switch_and_key_spellings(tmp_path, lines, flags, diagnostics):
    config = _write_config(tmp_path, "m=40", "n=60", "repeats=1", *lines)
    assert run_cli(["lasso", "--config", config, "--out", tmp_path, *flags]).code == 0
    with open(tmp_path / "traj_lasso_40x60_tol0_over_relaxed.csv") as fh:
        header = next(csv.reader(fh))
    assert ("h_dist_sq" in header) == diagnostics


def test_config_file_strict_switch_returns_nonzero_on_dnf(tmp_path):
    config = _write_config(tmp_path, "m=40", "n=60", "repeats=1", "max-iter=2", "strict=yes")
    assert run_cli(["lasso", "--config", config, "--out", tmp_path]).code == 3


@pytest.mark.parametrize(
    "size",
    [["--problem", "lasso", "--m", "40", "--n", "60"], ["--problem", "covsel", "--n", "20"]],
    ids=["lasso", "covsel"],
)
def test_save_and_load_instance_round_trip_through_cli(tmp_path, size):
    saved, problem = tmp_path / "inst.bin", size[1]
    result = run_cli([
        "compare", *size, "--seed", "3", "--max-iter", "300",
        "--out", tmp_path / "saved", "--save-instance", saved,
    ])
    assert result.code == 0 and saved.exists()
    loaded, header = load_instance(saved)
    assert header["seed"] == 3 and header["kind"] == problem
    if problem == "lasso":
        assert np.array_equal(loaded.A, generate_instance(40, 60, 3)[0].A)
    else:
        assert np.array_equal(loaded.S, generate_covsel(20, 3)[0].S)
    # the loaded container solves to the same CSV, byte for byte
    result = run_cli(["compare", "--load-instance", saved, "--max-iter", "300",
                      "--out", tmp_path / "loaded"])
    assert result.code == 0
    csv_name = f"compare_{problem}.csv"
    assert (tmp_path / "loaded" / csv_name).read_bytes() == (
        tmp_path / "saved" / csv_name).read_bytes()
    result = run_cli([
        "diagnose", "--load-instance", saved, "--variant", "relaxed_customized",
        "--max-iter", "300", "--out", tmp_path / "diagnosed",
    ])
    assert result.code == 0


@pytest.mark.parametrize("size", [["--m", "8", "--n", "12"], ["--problem", "covsel", "--n", "12"]],
                         ids=["lasso", "covsel"])
def test_a_re_saved_container_keeps_its_seed(tmp_path, size):
    # load -> save writes the loaded header's seed, not the unset --seed's 0
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    common = ["--max-iter", "50", "--out", tmp_path / "out"]
    assert run_cli(["compare", *size, "--seed", "7", "--save-instance", first, *common]).code == 0
    assert run_cli(["compare", "--load-instance", first, "--save-instance", second,
                    *common]).code == 0
    assert load_instance(second)[1]["seed"] == 7
    assert second.read_bytes() == first.read_bytes()


def test_bench_save_instance_creates_missing_directories(tmp_path):
    target = tmp_path / "fresh" / "first.bin"
    result = run_cli([
        "covsel", "--n", "15", "--tau", "0.35", "--repeats", "1", "--seed", "4",
        "--eps-abs", "1e-5", "--eps-rel", "1e-3", "--max-iter", "300",
        "--out", tmp_path / "fresh", "--save-instance", target,
    ])
    assert result.code == 0 and target.exists()
    loaded, header = load_instance(target)
    assert header["tau"] == 0.35 and header["seed"] == 4
    reference, _ = generate_covsel(15, 4, tau=0.35)
    assert np.array_equal(loaded.S, reference.S)


@pytest.mark.parametrize(
    "argv, stdout",
    [(["--help"], "usage: admm-bench [-h] {lasso,covsel,compare,diagnose}\n"),
     (["lasso", "--help"], "usage: admm-bench lasso [-h] [--m M] [--n N]")],
    ids=["help", "lasso-help"],
)
def test_help_and_an_unknown_command(argv, stdout):
    # no command and an unknown one are usage errors, in tests/test_inputs.py's table
    result = run_cli(argv)
    assert (result.code, result.stderr, result.out_exists) == (0, "", False)
    assert result.stdout.startswith(stdout)


@pytest.mark.parametrize(
    "argv, code",
    [(["compare", "--m", "8", "--n", "12", "--max-iter", "50"], 0), (["compare", "--beta", "nan"], 2)],
    ids=["runs", "usage-error"],
)
def test_the_module_entry_point_runs_the_cli(argv, code):
    # what python -m admmkit runs, in this process
    result = run_cli([*argv, "--out", "out"], module=True)
    assert (result.code, result.out_exists) == (code, code == 0), result.stderr
    assert ("residual curves: out/compare_lasso.csv\n" in result.stdout) == (code == 0)
    if code == 2:
        assert usage_message(result, "admm-bench compare") == "beta must be a finite number, got nan"
    else:
        assert result.stderr == "", result.stderr


def test_compare_and_diagnose_default_sizes():
    for argv, shape in ((["--problem", "lasso"], (150, 300)), (["--problem", "covsel"], (300, 300))):
        instance = cli._single_setup(cli._build_parser("compare").parse_args(argv))[0]
        size = instance.A.shape if argv[1] == "lasso" else instance.S.shape
        assert size == shape


@pytest.mark.parametrize(
    "argv",
    [["compare", "--m", "8", "--n", "12", "--beta", "1e-300"],
     ["compare", "--problem", "covsel", "--n", "10", "--beta", "1e308"],
     ["compare", "--m", "8", "--n", "12", "--beta", "1e-310"],
     ["compare", "--problem", "covsel", "--n", "10", "--beta", "5e-324"]],
    ids=["lasso-1e-300", "covsel-1e308", "lasso-1e-310", "covsel-5e-324"],
)
def test_compare_at_either_end_of_the_beta_range_reports_non_finite(tmp_path, argv):
    result = run_cli([*argv, "--out", tmp_path])
    assert result.code == 0
    rows = result.stdout.splitlines()[1:4]
    assert [row.split()[3] for row in rows] == ["non_finite"] * 3
    # the relaxed column counts the steps run hands its observer, which leave
    # out the one non-finite step, whose gate reads differently by BLAS kernel
    assert [row.split()[1:3] for row in rows] == [["1", "0"]] * 3


@pytest.mark.filterwarnings("error")
def test_diagnose_at_a_huge_beta_exits_without_a_warning(tmp_path):
    result = run_cli(["diagnose", "--m", "8", "--n", "12", "--beta", "1e308", "--out", tmp_path])
    assert result.code == 0
    assert "KKT residual at returned point" in result.stdout


def test_a_grid_counts_a_non_finite_run_as_not_converged(tmp_path):
    argv = ["covsel", "--n", "10", "--repeats", "1", "--beta", "1e308", "--out", tmp_path]
    result = run_cli(argv)
    assert result.code == 0
    assert "warning: some runs did not converge (DNF)" in result.stdout
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert [row["dnf_runs"] for row in csv.DictReader(fh)] == ["1"] * 3
    assert run_cli([*argv, "--strict"]).code == 3
