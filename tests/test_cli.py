import csv
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from admmkit import SolverConfig, run
from admmkit import cli
from admmkit.cli import main
from admmkit.container import MAGIC, load_instance, save_instance
from admmkit.covsel import generate_instance as generate_covsel
from admmkit.lasso import generate_instance


def _lasso_args(tmp_path, *extra):
    return [
        "lasso", "--m", "40", "--n", "60", "--repeats", "2",
        "--seed", "0", "--max-iter", "300", "--out", str(tmp_path), *extra,
    ]


@pytest.mark.parametrize(
    "argv",
    [["lasso", "--m", "40", "--n", "60"],
     ["lasso", "--m", "40", "--n", "60", "--diagnostics"],
     # a tall Lasso (rows >= cols) takes the direct n x n Cholesky path
     ["lasso", "--m", "60", "--n", "20", "--diagnostics"],
     ["covsel", "--n", "15", "--diagnostics"]],
    ids=["lasso", "lasso-diagnostics", "lasso-tall-diagnostics", "covsel-diagnostics"],
)
def test_grid_subcommand(tmp_path, capsys, argv):
    argv = [*argv, "--repeats", "2", "--seed", "0", "--max-iter", "300", "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "classical" in out and "summary csv" in out
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
            "--max-iter", "300", "--out", str(tmp_path)]
    assert main(argv) == 0
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert [row["size"] for row in csv.DictReader(fh)] == sizes


def test_covsel_subcommand(tmp_path):
    rc = main([
        "covsel", "--n", "15", "--repeats", "2", "--seed", "0",
        "--eps-abs", "1e-5", "--eps-rel", "1e-3",
        "--variant", "classical,over_relaxed",
        "--max-iter", "300", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "traj_covsel_n15_tol0_over_relaxed.csv").exists()
    assert not (tmp_path / "traj_covsel_n15_tol0_relaxed_customized.csv").exists()


# a tall Lasso (rows >= cols) takes the direct n x n Cholesky path
@pytest.mark.parametrize("m, n", [(40, 60), (60, 20)], ids=["fat", "tall"])
def test_compare_subcommand(tmp_path, capsys, m, n):
    rc = main([
        "compare", "--problem", "lasso", "--m", str(m), "--n", str(n),
        "--seed", "1", "--max-iter", "300", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "compare_lasso.csv").exists()
    out = capsys.readouterr().out
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


def test_diagnose_subcommand(tmp_path, capsys):
    rc = main([
        "diagnose", "--problem", "lasso", "--m", "40", "--n", "60",
        "--seed", "1", "--max-iter", "300", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "variant=over_relaxed iterations=" in out and " stop=converged\n" in out
    assert "Fejer monotonicity violations:            0" in out
    assert "KKT residual" in out
    assert (tmp_path / "diagnose_lasso_over_relaxed.csv").exists()


STEP_CHECK_LINES = {
    "multiplier split identity residual": ("classical", "over_relaxed"),
    "correction identity residual (relaxed)": ("over_relaxed",),
    "gap-form expansion mismatch (relaxed)": ("over_relaxed",),
    "Fejer monotonicity violations": ("classical", "over_relaxed"),
    "per-step gap inequality violations": ("over_relaxed",),
}


@pytest.mark.parametrize("variant", ["classical", "over_relaxed", "relaxed_customized"])
def test_diagnose_prints_only_the_checks_the_variant_runs(tmp_path, capsys, variant):
    rc = main([
        "diagnose", "--problem", "lasso", "--m", "40", "--n", "60", "--variant", variant,
        "--seed", "1", "--max-iter", "300", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for line, variants in STEP_CHECK_LINES.items():
        assert (line in out) == (variant in variants), line
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
    assert f" iterations={len(rows)} relaxed={relaxed} stop=" in out
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
def test_diagnose_kkt_at_last_subproblem_output_meets_the_stopping_bound(tmp_path, capsys, variant):
    # this over-relaxed solve converges on a relaxed step, and relaxed_customized
    # always relaxes: their extrapolated pairs' KKT residuals are ~0.24
    rc = main([
        "diagnose", "--m", "38", "--n", "36", "--seed", "6", "--variant", variant,
        "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
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
def test_diagnose_prints_no_dense_matrix_lines(tmp_path, capsys, size):
    # the dense H = Q M^-1 and G checks are test oracles, not diagnose output
    rc = main(["diagnose", *size, "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "H = Q M^-1" not in out and "gap-form decomposition" not in out
    for line in STEP_CHECK_LINES:
        assert line in out, line
    assert "KKT residual at returned point" in out


def test_diagnose_covsel_classical(tmp_path, capsys):
    rc = main([
        "diagnose", "--problem", "covsel", "--n", "15", "--variant", "classical",
        "--eps-abs", "1e-5", "--eps-rel", "1e-3",
        "--seed", "0", "--max-iter", "300", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert "violations:            0" in capsys.readouterr().out


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text("# defaults\nm=40\nn=60\nrepeats=2\nmax-iter=300\ngamma=1.5\n")
    out_dir = tmp_path / "out"
    rc = main(["lasso", "--config", str(config), "--out", str(out_dir), "--gamma", "1.2"])
    assert rc == 0
    table = (out_dir / "summary.txt").read_text()
    assert "gamma=1.2" in table  # flag wins over the file
    rc = main(["lasso", "--config", str(config), "--out", str(out_dir)])
    assert rc == 0
    assert "gamma=1.5" in (out_dir / "summary.txt").read_text()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("does_not_exist=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["lasso", "--config", str(config), "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --does-not-exist=1" in err
    assert "usage: admm-bench lasso" in err and "Traceback" not in err


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
    assert main(["lasso", "--config", config, "--out", str(tmp_path), *flags]) == 0
    with open(tmp_path / "traj_lasso_40x60_tol0_over_relaxed.csv") as fh:
        header = next(csv.reader(fh))
    assert ("h_dist_sq" in header) == diagnostics


def test_config_file_strict_switch_returns_nonzero_on_dnf(tmp_path):
    config = _write_config(tmp_path, "m=40", "n=60", "repeats=1", "max-iter=2", "strict=yes")
    assert main(["lasso", "--config", config, "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "command, lines, message",
    [
        ("lasso", ["m=abc"], "'abc'"),
        ("lasso", ["# a comment", "max-iter 300"], "bench.cfg:2: expected key=value"),
        ("covsel", ["m=40"], "error:"),  # a key names its flag in full, not --max-iter
    ],
)
def test_bad_config_file_lines_are_usage_errors(tmp_path, capsys, command, lines, message):
    config = _write_config(tmp_path, *lines)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and f"usage: admm-bench {command}" in err and "Traceback" not in err


def test_strict_mode_returns_nonzero_on_dnf(tmp_path):
    args = _lasso_args(tmp_path, "--strict")
    idx = args.index("300")
    args[idx] = "2"  # force max-iter too small
    assert main(args) == 3
    args.remove("--strict")
    assert main(args) == 0  # without strict, DNF only warns


def test_cli_outputs_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(_lasso_args(out_a)) == 0
    assert main(_lasso_args(out_b)) == 0
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
    traj = "traj_lasso_40x60_tol0_over_relaxed.csv"
    assert (out_a / traj).read_bytes() == (out_b / traj).read_bytes()


@pytest.mark.parametrize(
    "size",
    [["--problem", "lasso", "--m", "40", "--n", "60"], ["--problem", "covsel", "--n", "20"]],
    ids=["lasso", "covsel"],
)
def test_save_and_load_instance_round_trip_through_cli(tmp_path, size):
    saved, problem = tmp_path / "inst.bin", size[1]
    rc = main([
        "compare", *size, "--seed", "3", "--max-iter", "300",
        "--out", str(tmp_path / "saved"), "--save-instance", str(saved),
    ])
    assert rc == 0 and saved.exists()
    loaded, header = load_instance(saved)
    assert header["seed"] == 3 and header["kind"] == problem
    if problem == "lasso":
        assert np.array_equal(loaded.A, generate_instance(40, 60, 3)[0].A)
    else:
        assert np.array_equal(loaded.S, generate_covsel(20, 3)[0].S)
    # the loaded container solves to the same CSV, byte for byte
    rc = main(["compare", "--load-instance", str(saved), "--max-iter", "300",
               "--out", str(tmp_path / "loaded")])
    assert rc == 0
    csv_name = f"compare_{problem}.csv"
    assert (tmp_path / "loaded" / csv_name).read_bytes() == (
        tmp_path / "saved" / csv_name).read_bytes()
    rc = main([
        "diagnose", "--load-instance", str(saved), "--variant", "relaxed_customized",
        "--max-iter", "300", "--out", str(tmp_path / "diagnosed"),
    ])
    assert rc == 0


@pytest.mark.parametrize("size", [["--m", "8", "--n", "12"], ["--problem", "covsel", "--n", "12"]],
                         ids=["lasso", "covsel"])
def test_a_re_saved_container_keeps_its_seed(tmp_path, size):
    # load -> save writes the loaded header's seed, not the unset --seed's 0
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    common = ["--max-iter", "50", "--out", str(tmp_path / "out")]
    assert main(["compare", *size, "--seed", "7", "--save-instance", str(first), *common]) == 0
    assert main(["compare", "--load-instance", str(first), "--save-instance", str(second),
                 *common]) == 0
    assert load_instance(second)[1]["seed"] == 7
    assert second.read_bytes() == first.read_bytes()


def test_bench_save_instance_creates_missing_directories(tmp_path):
    target = tmp_path / "fresh" / "first.bin"
    rc = main([
        "covsel", "--n", "15", "--tau", "0.35", "--repeats", "1", "--seed", "4",
        "--eps-abs", "1e-5", "--eps-rel", "1e-3", "--max-iter", "300",
        "--out", str(tmp_path / "fresh"), "--save-instance", str(target),
    ])
    assert rc == 0 and target.exists()
    loaded, header = load_instance(target)
    assert header["tau"] == 0.35 and header["seed"] == 4
    reference, _ = generate_covsel(15, 4, tau=0.35)
    assert np.array_equal(loaded.S, reference.S)


def test_load_instance_rejected_for_grid_benchmarks(tmp_path):
    instance, _ = generate_instance(20, 30, 0)
    saved = save_instance(tmp_path / "x.bin", instance)
    with pytest.raises(SystemExit):
        main(_lasso_args(tmp_path, "--load-instance", str(saved)))


def test_unknown_command_and_help(capsys):
    assert main(["bogus"]) == 2
    assert main(["--help"]) == 0
    assert "lasso" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, code",
    [(["compare", "--m", "8", "--n", "12", "--max-iter", "50"], 0), (["compare", "--beta", "nan"], 2)],
    ids=["runs", "usage-error"],
)
def test_the_module_entry_point_runs_the_cli(tmp_path, argv, code):
    # python -m admmkit in a fresh interpreter that turns every warning into an error
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "PYTHONWARNINGS": "error"}
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "admmkit", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert out.exists() == (code == 0) and "Traceback" not in proc.stderr
    assert ("residual curves:" in proc.stdout) == (code == 0)
    assert ("usage: admm-bench compare" in proc.stderr) == (code == 2)


def test_mismatched_tolerance_lists(tmp_path):
    with pytest.raises(SystemExit):
        main(_lasso_args(tmp_path, "--eps-abs", "1e-5,1e-6", "--eps-rel", "1e-3"))


#: Container headers that the usage-error table loads, each with one defect,
#: ahead of one float64 of payload.
BAD_HEADERS = {
    "no-m.bin": b'{"kind": "lasso", "n": 2}',
    "tau.bin": b'{"kind": "covsel", "n": 1, "tau": "0.1"}',
    "dims.bin": b'{"kind": "lasso", "m": -2, "n": 2, "rho": 1.0}',
    "seed.bin": b'{"kind": "covsel", "n": 1, "seed": "abc", "tau": 1.0}',
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lasso", "--repeats", "0"], "repeats must be at least 1"),
        (["lasso", "--max-iter", "0"], "max_iter must be at least 1"),
        (["covsel", "--n", "5"], "n must be at least 10"),
        (["lasso", "--eps-abs", "1e-5,1e-6", "--eps-rel", "1e-3"], "same number of entries"),
        (["lasso", "--m", "40,50", "--n", "60,70,80"], "--m and --n must zip"),
        (["lasso", "--load-instance", "{tmp}/x.bin"], "unrecognized arguments: --load-instance"),
        (["lasso", "--m", "40,40", "--n", "60"], "sizes lists (40, 60) more than once"),
        (["covsel", "--eps-abs", "1e-5,1e-5", "--eps-rel", "1e-3,1e-3"],
         "tolerances lists (1e-05, 0.001) more than once"),
        (["lasso", "--m", "8", "--n", "12", "--repeats", "1", "--variant", "classical,classical"],
         "variants lists 'classical' more than once"),
        (["lasso", "--config", "{tmp}/missing.cfg"], "No such file or directory"),
        (["lasso", "--config"], "--config: expected one argument"),
        (["diagnose", "--load-instance", "{tmp}/missing.bin"], "No such file or directory"),
        (["compare", "--eps-abs", "1e-5,1e-9", "--eps-rel", "1e-3"], "same number of entries"),
        (["compare", "--eps-abs", "1e-5,1e-9", "--eps-rel", "1e-3,1e-4"], "exactly one"),
        (["diagnose", "--eps-abs", "1e-5,1e-9", "--eps-rel", "1e-3,1e-4"], "exactly one"),
        (["diagnose", "--eps-abs", "", "--eps-rel", ""], "exactly one"),
        (["diagnose", "--m", "40", "--n", "60", "--beta", "2000"],
         "reference solve did not reach eps_abs=1e-07, eps_rel=1e-05 after 10000 iterations"),
        (["compare", "--problem", "lasso", "--tau", "0.3"], "--tau applies only to"),
        (["diagnose", "--load-instance", "{tmp}/covsel.bin", "--tau", "0.3"],
         "--tau applies only to"),
        # every command names the flag's field, not the tolerance pair's index
        (["lasso", "--eps-abs", "0"], "error: eps_abs must lie in (0, inf), got 0.0"),
        (["covsel", "--eps-rel", "1e-3,nan", "--eps-abs", "1e-5,1e-6"],
         "error: eps_rel must be a finite number, got nan"),
        (["compare", "--eps-abs", "0"], "error: eps_abs must lie in (0, inf), got 0.0"),
        (["diagnose", "--eps-rel", "nan"], "error: eps_rel must be a finite number, got nan"),
        # a size flag the command would ignore
        (["compare", "--problem", "covsel", "--n", "12", "--m", "5"],
         "--m applies only to a generated lasso instance"),
        (["diagnose", "--problem", "covsel", "--n", "12", "--m", "5"],
         "--m applies only to a generated lasso instance"),
        (["diagnose", "--load-instance", "{tmp}/covsel.bin", "--m", "7"],
         "--m applies only to a generated lasso instance"),
        (["compare", "--load-instance", "{tmp}/covsel.bin", "--n", "99"],
         "--n applies only to a generated instance"),
        (["diagnose", "--load-instance", "{tmp}/covsel.bin", "--m", "7", "--n", "99"],
         "--m applies only to a generated lasso instance"),
        # a bad real parameter, raised before any output directory is made
        (["compare", "--beta", "nan"], "beta must be a finite number, got nan"),
        (["compare", "--gamma", "2"], "gamma must lie in (0, 2), got 2.0"),
        (["compare", "--eps-rel", "0"], "eps_rel must lie in (0, inf), got 0.0"),
        (["compare", "--problem", "covsel", "--n", "12", "--tau", "0"],
         "tau must lie in (0, inf), got 0.0"),
        (["covsel", "--n", "12", "--repeats", "1", "--tau", "-1"],
         "tau must lie in (0, inf), got -1.0"),
        # a reference solve that does not converge, or stops on a non-finite iterate
        (["lasso", "--m", "40", "--n", "60", "--beta", "2000", "--diagnostics", "--repeats", "1"],
         "reference solve did not reach"),
        (["diagnose", "--problem", "covsel", "--n", "10", "--beta", "1e308"],
         "reference solve stopped on a non-finite iterate at iteration 1"),
        (["diagnose", "--m", "8", "--n", "12", "--beta", "1e-310"],
         "reference solve stopped on a non-finite iterate at iteration 1"),
        # a malformed container header, named by its path
        (["compare", "--load-instance", "{tmp}/no-m.bin"], "{tmp}/no-m.bin: header has no 'm' field"),
        (["compare", "--load-instance", "{tmp}/tau.bin"],
         "{tmp}/tau.bin: tau must be a finite number, got '0.1'"),
        (["compare", "--load-instance", "{tmp}/dims.bin"],
         "{tmp}/dims.bin: m must be at least 1, got -2"),
        (["compare", "--load-instance", "{tmp}/seed.bin"],
         "{tmp}/seed.bin: seed must be an integer, got 'abc'"),
        # a grid size the generator rejects fails before any cell is solved
        (["covsel", "--n", "15,5", "--repeats", "1"], "n must be at least 10, got 5"),
        (["lasso", "--m", "8,3000000000", "--n", "12,3000000000", "--repeats", "1"],
         "a (3000000000, 3000000000) float64 array for m=3000000000, n=3000000000 is past the "
         "index range"),
    ],
)
def test_bad_values_are_usage_errors(tmp_path, capsys, argv, message):
    save_instance(tmp_path / "covsel.bin", generate_covsel(10, 0)[0])
    for name, header in BAD_HEADERS.items():
        (tmp_path / name).write_bytes(MAGIC + header + b"\n" + struct.pack("<d", 1.0))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err
    assert "usage: admm-bench" in err and "Traceback" not in err


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
def test_compare_at_either_end_of_the_beta_range_reports_non_finite(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:4]
    assert [row.split()[3] for row in rows] == ["non_finite"] * 3
    # the relaxed column counts the steps run hands its observer, which leave
    # out the one non-finite step, whose gate reads differently by BLAS kernel
    assert [row.split()[1:3] for row in rows] == [["1", "0"]] * 3


@pytest.mark.filterwarnings("error")
def test_diagnose_at_a_huge_beta_exits_without_a_warning(tmp_path, capsys):
    argv = ["diagnose", "--m", "8", "--n", "12", "--beta", "1e308", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert "KKT residual at returned point" in capsys.readouterr().out


def test_a_grid_counts_a_non_finite_run_as_not_converged(tmp_path, capsys):
    argv = ["covsel", "--n", "10", "--repeats", "1", "--beta", "1e308", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert "warning: some runs did not converge (DNF)" in capsys.readouterr().out
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert [row["dnf_runs"] for row in csv.DictReader(fh)] == ["1"] * 3
    assert main([*argv, "--strict"]) == 3


@pytest.mark.parametrize(
    "argv, target, message",
    [
        # what numpy raises for `admm-bench lasso --m 200000 --n 200000 --repeats 1`
        # and `admm-bench compare --problem covsel --n 60000` under `ulimit -v 3000000`
        (["lasso", "--m", "200000", "--n", "200000", "--repeats", "1"],
         "admmkit.lasso.generate_instance",
         "Unable to allocate 298. GiB for an array with shape (200000, 200000) "
         "and data type float64"),
        (["compare", "--problem", "covsel", "--n", "60000"], "admmkit.covsel.generate_instance",
         "Unable to allocate 26.8 GiB for an array with shape (60000, 60000) "
         "and data type float64"),
        (["diagnose", "--load-instance", "{tmp}/big.bin"], "admmkit.container.load_instance",
         "Unable to allocate 26.8 GiB for an array with shape (3600000000,) and data type float64"),
    ],
    ids=["lasso-grid", "compare-covsel", "load-instance"],
)
def test_an_allocation_failure_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, target,
                                                message):
    def unallocatable(*args, **kwargs):
        raise MemoryError(message)  # numpy's _ArrayMemoryError is a MemoryError

    monkeypatch.setattr(target, unallocatable)  # nothing is allocated
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*(arg.format(tmp=tmp_path) for arg in argv), "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n")
    assert "usage: admm-bench" in err and "Traceback" not in err
