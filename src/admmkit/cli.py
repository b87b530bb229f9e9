"""Command-line benchmark harness.

Subcommands::

    admm-bench lasso    grid benchmark on synthetic regression instances
    admm-bench covsel   grid benchmark on covariance-selection instances
    admm-bench compare  three-variant residual comparison on one instance
    admm-bench diagnose identity checks and Fejer monotonicity on one solve

Every flag can also be supplied through ``--config FILE`` holding
``key=value`` lines (keys are the long flag names with dashes or
underscores); explicit flags override the file. A value the benchmark
spec, solver config or instance rejects is a usage error (exit code 2). CSV
outputs are deterministic for a fixed spec and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import container, covsel, lasso
from .bench import (
    GAMMA_DEFAULTS,
    BenchmarkSpec,
    emit_trajectory_plotdata,
    run_benchmark,
)
from .diagnostics import (
    FejerMonitor,
    correction_residual,
    g_decomposition_residual,
    g_norm_expanded,
    kkt_residual,
    reference_solution,
)
from .engine import run
from .model import VARIANTS, SolverConfig


def _parse_int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _parse_float_list(text):
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def _parse_variants(text):
    names = [tok.strip() for tok in str(text).split(",") if tok.strip()]
    for name in names:
        if name not in VARIANTS:
            raise argparse.ArgumentTypeError(f"unknown variant {name!r}; expected among {VARIANTS}")
    return tuple(names)


def _add_common(parser: argparse.ArgumentParser, bench: bool):
    parser.add_argument("--gamma", type=float, default=None,
                        help="relaxation factor; default 1.8 (lasso) / 1.7 (covsel)")
    parser.add_argument("--beta", type=float, default=1.0, help="penalty parameter")
    parser.add_argument("--eps-abs", type=_parse_float_list, default=[1e-5],
                        help="absolute tolerance(s), comma separated")
    parser.add_argument("--eps-rel", type=_parse_float_list, default=[1e-3],
                        help="relative tolerance(s), comma separated (zipped with --eps-abs)")
    parser.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed+i")
    parser.add_argument("--max-iter", type=int, default=2000)
    parser.add_argument("--out", type=Path, default=Path("bench_out"), help="output directory")
    parser.add_argument("--config", type=Path, default=None, help="key=value defaults file")
    parser.add_argument("--save-instance", type=Path, default=None,
                        help="write the first generated instance to this container file")
    parser.add_argument("--load-instance", type=Path, default=None,
                        help="read the instance from a container file instead of generating")
    if bench:
        parser.add_argument("--variant", type=_parse_variants, default=VARIANTS,
                            help="comma-separated subset of " + ",".join(VARIANTS))
        parser.add_argument("--repeats", type=int, default=10)
        parser.add_argument("--strict", action="store_true",
                            help="exit nonzero if any run hits max-iter")
        parser.add_argument("--diagnostics", action="store_true",
                            help="add h_dist_sq/g_norm_sq/violation columns to trajectory CSVs")


def _build_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"admm-bench {command}")
    if command == "lasso":
        parser.add_argument("--m", type=_parse_int_list, default=[1000],
                            help="row counts, comma separated (zipped with --n)")
        parser.add_argument("--n", type=_parse_int_list, default=[1500],
                            help="column counts, comma separated")
        _add_common(parser, bench=True)
    elif command == "covsel":
        parser.add_argument("--n", type=_parse_int_list, default=[300],
                            help="feature counts, comma separated")
        parser.add_argument("--tau", type=float, default=None,
                            help=f"l1 weight (default {covsel.DEFAULT_TAU})")
        _add_common(parser, bench=True)
    elif command in ("compare", "diagnose"):
        parser.add_argument("--problem", choices=("lasso", "covsel"), default="lasso")
        parser.add_argument("--m", type=int, default=150)
        parser.add_argument("--n", type=int, default=300)
        parser.add_argument("--tau", type=float, default=None)
        _add_common(parser, bench=False)
        if command == "diagnose":
            parser.add_argument("--variant", choices=VARIANTS, default="over_relaxed")
    else:
        raise KeyError(command)
    return parser


def _read_config(path: Path) -> dict:
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().lstrip("-").replace("-", "_")] = value.strip()
    return values


_TRUE = {"1", "true", "yes", "on"}


def _apply_config(parser: argparse.ArgumentParser, values: dict):
    converted = {}
    for action in parser._actions:
        if action.dest in values:
            raw = values[action.dest]
            if isinstance(action, argparse._StoreTrueAction):
                converted[action.dest] = raw.lower() in _TRUE
            elif action.type is not None:
                converted[action.dest] = action.type(raw)
            else:
                converted[action.dest] = raw
    unknown = set(values) - set(converted)
    if unknown:
        raise ValueError(f"config file sets unknown keys: {sorted(unknown)}")
    parser.set_defaults(**converted)


def _tolerances(args) -> list:
    if len(args.eps_abs) != len(args.eps_rel):
        raise SystemExit("--eps-abs and --eps-rel must have the same number of entries")
    return list(zip(args.eps_abs, args.eps_rel))


def _save_instance(path: Path, instance, seed):
    path.parent.mkdir(parents=True, exist_ok=True)
    container.save_instance(path, instance, seed=seed)


def _single_instance(args):
    """Instance for compare/diagnose: loaded from a container or generated.

    Returns (instance, problem name); when loading, the container header
    decides the problem kind regardless of --problem.
    """
    if args.load_instance is not None:
        instance, header = container.load_instance(args.load_instance)
        return instance, header["kind"]
    if args.problem == "lasso":
        instance, _ = lasso.generate_instance(args.m, args.n, args.seed)
    else:
        tau = covsel.DEFAULT_TAU if args.tau is None else args.tau
        instance, _ = covsel.generate_instance(args.n, args.seed, tau=tau)
    return instance, args.problem


def _cmd_bench(problem: str, args) -> int:
    if args.load_instance is not None:
        raise SystemExit("--load-instance applies to compare/diagnose; benchmarks generate per-seed instances")
    if problem == "lasso":
        m_list, n_list = args.m, args.n
        if len(m_list) == 1 and len(n_list) > 1:
            m_list = m_list * len(n_list)
        if len(n_list) == 1 and len(m_list) > 1:
            n_list = n_list * len(m_list)
        if len(m_list) != len(n_list):
            raise SystemExit("--m and --n must zip into (m, n) pairs")
        sizes = list(zip(m_list, n_list))
        tau = None
    else:
        sizes = args.n
        tau = args.tau
    spec = BenchmarkSpec(
        problem=problem,
        sizes=sizes,
        tolerances=_tolerances(args),
        gamma=args.gamma,
        beta=args.beta,
        variants=args.variant,
        repeats=args.repeats,
        seed_base=args.seed,
        max_iter=args.max_iter,
        diagnostics=args.diagnostics,
        tau=tau,
        out_dir=args.out,
    )
    if args.save_instance is not None:
        _save_instance(args.save_instance, _generate_first(spec), args.seed)
    outcome = run_benchmark(spec)
    sys.stdout.write(outcome.summary_table.read_text())
    print(f"summary csv: {outcome.summary_csv}")
    if outcome.any_dnf:
        print("warning: some runs hit max-iter (DNF)")
        if args.strict:
            return 3
    return 0


def _generate_first(spec: BenchmarkSpec):
    from .bench import _generate

    return _generate(spec, spec.sizes[0], spec.seed_base)


def _cmd_compare(args) -> int:
    instance, problem_name = _single_instance(args)
    gamma = args.gamma if args.gamma is not None else GAMMA_DEFAULTS[problem_name]
    args.out.mkdir(parents=True, exist_ok=True)
    if args.save_instance is not None:
        _save_instance(args.save_instance, instance, args.seed)
    results = {}
    for variant in VARIANTS:
        config = SolverConfig(
            variant=variant, beta=args.beta, gamma=gamma,
            eps_abs=args.eps_abs[0], eps_rel=args.eps_rel[0], max_iter=args.max_iter,
        )
        results[variant] = run(instance, config)
    path = emit_trajectory_plotdata(results, args.out / f"compare_{problem_name}.csv")
    print(f"{'variant':<20} {'iterations':>10} {'converged':>10} {'||r||':>12} {'||s||':>12}")
    for variant, result in results.items():
        last = result.records[-1]
        print(
            f"{variant:<20} {result.iterations:>10} {str(result.converged):>10} "
            f"{last.primal_residual_norm:>12.3e} {last.dual_residual_norm:>12.3e}"
        )
    print(f"residual curves: {path}")
    return 0


def _cmd_diagnose(args) -> int:
    instance, problem_name = _single_instance(args)
    gamma = args.gamma if args.gamma is not None else GAMMA_DEFAULTS[problem_name]
    args.out.mkdir(parents=True, exist_ok=True)
    if args.save_instance is not None:
        _save_instance(args.save_instance, instance, args.seed)
    config = SolverConfig(
        variant=args.variant, beta=args.beta, gamma=gamma,
        eps_abs=args.eps_abs[0], eps_rel=args.eps_rel[0], max_iter=args.max_iter,
    )
    ref = reference_solution(instance, args.beta, args.eps_abs[0] / 100, args.eps_rel[0] / 100)
    monitor = FejerMonitor.for_config(instance, config, ref)
    mats = monitor.mats
    worst = {"split": 0.0, "corr": 0.0, "expand": 0.0}

    def observe(k, v, pred, v_new, relaxed, criterion):
        monitor(k, v, pred, v_new, relaxed, criterion)
        if args.variant == "relaxed_customized":
            return
        split = pred.lam_pred - (pred.lam_early + args.beta * mats.apply_B(v.y - pred.y_pred))
        worst["split"] = max(worst["split"], float(np.abs(split).max(initial=0.0)))
        if relaxed:
            worst["corr"] = max(worst["corr"], correction_residual(v, v_new, pred, mats))
            direct = monitor.g_norm_sq[-1]
            expanded = g_norm_expanded(pred, v, v_new, mats)
            worst["expand"] = max(
                worst["expand"], abs(direct - expanded) / max(abs(direct), 1e-300)
            )

    result = run(instance, config, observer=observe)

    diag_path = args.out / f"diagnose_{problem_name}_{args.variant}.csv"
    with open(diag_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "h_dist_sq", "g_norm_sq", "criterion_value", "relaxed",
             "monotone_violation", "gap_violation"]
        )
        for rec in result.records[: len(monitor.g_norm_sq)]:
            h_val, g_val, mono, gap = monitor.row(rec.k)
            writer.writerow(
                [rec.k, h_val, g_val, rec.criterion_value, int(rec.relaxed), mono, gap]
            )

    print(f"variant={args.variant} iterations={result.iterations} converged={result.converged}")
    if mats.dense:
        h_gap = float(np.abs(mats.H - mats.Q @ np.linalg.inv(mats.M)).max())
        print(f"metric factorization H = Q M^-1 residual: {h_gap:.3e}")
        print(f"gap-form decomposition residual:          {g_decomposition_residual(mats):.3e}")
    if args.variant != "relaxed_customized":
        print(f"multiplier split identity residual:       {worst['split']:.3e}")
    if args.variant != "classical":
        print(f"correction identity residual (relaxed):   {worst['corr']:.3e}")
        print(f"gap-form expansion mismatch (relaxed):    {worst['expand']:.3e}")
    print(f"Fejer monotonicity violations:            {len(monitor.monotonicity_violations)}")
    print(f"per-step gap inequality violations:       {len(monitor.gap_violations)}")
    print(f"KKT residual at final iterate:            {kkt_residual(instance, result.final):.3e}")
    print(f"diagnostic rows: {diag_path}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = ("lasso", "covsel", "compare", "diagnose")
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("usage: admm-bench {" + ",".join(commands) + "} [options]")
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command not in commands:
        print(f"unknown command {command!r}; expected one of {commands}", file=sys.stderr)
        return 2
    parser = _build_parser(command)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", type=Path, default=None)
    pre_args, _ = pre.parse_known_args(rest)
    if pre_args.config is not None:
        _apply_config(parser, _read_config(pre_args.config))
    args = parser.parse_args(rest)
    try:
        if command in ("lasso", "covsel"):
            return _cmd_bench(command, args)
        if command == "compare":
            return _cmd_compare(args)
        return _cmd_diagnose(args)
    except ValueError as exc:
        # an out-of-range value rejected by a spec, config or instance
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
