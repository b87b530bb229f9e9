import pytest

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


def test_diagnose_subcommand(tmp_path, capsys):
    rc = main([
        "diagnose", "--problem", "lasso", "--m", "40", "--n", "60",
        "--seed", "1", "--max-iter", "300", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fejer monotonicity violations:            0" in out
    assert "KKT residual" in out
    assert (tmp_path / "diagnose_lasso_over_relaxed.csv").exists()


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
    assert "unknown keys" in capsys.readouterr().err


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
        (["lasso", "--load-instance", "{tmp}/x.bin"], "--load-instance applies to compare"),
        (["lasso", "--m", "40,40", "--n", "60"], "sizes lists (40, 60) more than once"),
        (["covsel", "--eps-abs", "1e-5,1e-5", "--eps-rel", "1e-3,1e-3"],
         "tolerances lists (1e-05, 0.001) more than once"),
        (["lasso", "--config", "{tmp}/missing.cfg"], "No such file or directory"),
        (["lasso", "--config"], "--config: expected one argument"),
        (["diagnose", "--load-instance", "{tmp}/missing.bin"], "No such file or directory"),
    ],
)
def test_bad_values_are_usage_errors(tmp_path, capsys, argv, message):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "usage: admm-bench" in err and "Traceback" not in err


def test_malformed_container_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes(b'ADMMKIT1\n{"kind": "lasso", "n": 2}\n')
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--load-instance", str(path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{path}: header has no 'm' field" in err and "Traceback" not in err
