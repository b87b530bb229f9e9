import csv

import pytest

from admmkit import SolverConfig, run
from admmkit.cli import main
from admmkit.container import load_instance, save_instance
from admmkit.lasso import generate_instance


def _lasso_args(tmp_path, *extra):
    return [
        "lasso", "--m", "40", "--n", "60", "--repeats", "2",
        "--seed", "0", "--max-iter", "300", "--out", str(tmp_path), *extra,
    ]


def test_lasso_subcommand(tmp_path, capsys):
    assert main(_lasso_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "classical" in out and "summary csv" in out
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "summary.txt").exists()


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


def test_compare_subcommand(tmp_path, capsys):
    rc = main([
        "compare", "--problem", "lasso", "--m", "40", "--n", "60",
        "--seed", "1", "--max-iter", "300", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "compare_lasso.csv").exists()
    out = capsys.readouterr().out
    assert "over_relaxed" in out and "relaxed_customized" in out
    # the relaxed column counts the steps whose gate fired
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["variant", "iterations", "relaxed", "stop"]
    instance = generate_instance(40, 60, 1)[0]
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


def test_diagnose_prints_no_dense_matrix_lines(tmp_path, capsys):
    # the dense H = Q M^-1 and G checks are test oracles, not diagnose output
    rc = main([
        "diagnose", "--problem", "covsel", "--n", "20",
        "--seed", "0", "--max-iter", "300", "--out", str(tmp_path),
    ])
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


def test_save_and_load_instance_round_trip_through_cli(tmp_path):
    saved = tmp_path / "inst.bin"
    rc = main([
        "compare", "--problem", "lasso", "--m", "30", "--n", "50", "--seed", "3",
        "--max-iter", "300", "--out", str(tmp_path), "--save-instance", str(saved),
    ])
    assert rc == 0 and saved.exists()
    loaded, header = load_instance(saved)
    reference, _ = generate_instance(30, 50, 3)
    import numpy as np

    assert header["seed"] == 3
    assert np.array_equal(loaded.A, reference.A)
    rc = main([
        "diagnose", "--load-instance", str(saved), "--max-iter", "300",
        "--out", str(tmp_path),
    ])
    assert rc == 0


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
    from admmkit.covsel import generate_instance as generate_covsel
    import numpy as np

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


def test_mismatched_tolerance_lists(tmp_path):
    with pytest.raises(SystemExit):
        main(_lasso_args(tmp_path, "--eps-abs", "1e-5,1e-6", "--eps-rel", "1e-3"))


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
    ],
)
def test_bad_values_are_usage_errors(tmp_path, capsys, argv, message):
    from admmkit.covsel import generate_instance as generate_covsel

    save_instance(tmp_path / "covsel.bin", generate_covsel(10, 0)[0])
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "usage: admm-bench" in err and "Traceback" not in err


def test_a_bad_tau_is_a_usage_error_that_makes_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["covsel", "--n", "12", "--repeats", "1", "--tau", "-1", "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert "tau must lie in (0, inf), got -1.0" in capsys.readouterr().err


def test_malformed_container_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes(b'ADMMKIT1\n{"kind": "lasso", "n": 2}\n')
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--load-instance", str(path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{path}: header has no 'm' field" in err and "Traceback" not in err


def test_compare_reports_an_overflowed_solve_as_non_finite(tmp_path, capsys):
    argv = ["compare", "--m", "8", "--n", "12", "--beta", "1e-300", "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:4]
    assert [row.split()[3] for row in rows] == ["non_finite"] * 3


@pytest.mark.filterwarnings("error")
def test_diagnose_at_a_huge_beta_exits_without_a_warning(tmp_path, capsys):
    argv = ["diagnose", "--m", "8", "--n", "12", "--beta", "1e308", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert "KKT residual at returned point" in capsys.readouterr().out
