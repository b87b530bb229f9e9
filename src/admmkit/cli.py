"""Command-line benchmark harness.

Subcommands::

    admm-bench lasso    grid benchmark on synthetic regression instances
    admm-bench covsel   grid benchmark on covariance-selection instances
    admm-bench compare  three-variant residual comparison on one instance
    admm-bench diagnose identity checks and Fejer monotonicity on one solve

Every flag can also be supplied through ``--config FILE`` holding
``key=value`` lines (keys are the long flag names with dashes or
underscores). The command's parser reads them as flags placed before the
command line's, so explicit flags override the file. A bad config line or
value, an unknown key, a missing input file, a value the benchmark spec,
solver config or instance rejects, a solve that raises SolverError (such
as a reference solve that does not converge) or an array too large to
allocate (MemoryError) is a usage error (exit code 2). CSV outputs are
deterministic for a fixed spec and seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import container, covsel
from .bench import (
    GAMMA_DEFAULTS,
    BenchmarkSpec,
    emit_trajectory_plotdata,
    generate_instance,
    run_benchmark,
    write_trajectory_csv,
)
from .diagnostics import FejerMonitor, kkt_residual, reference_solution
from .engine import SolverError, run
from .model import VARIANTS, SolverConfig, require_real


def _parse_int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _parse_float_list(text):
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def _parse_variants(text):
    return tuple(tok.strip() for tok in str(text).split(",") if tok.strip())


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
    if bench:
        parser.add_argument("--variant", type=_parse_variants, default=VARIANTS,
                            help="comma-separated subset of " + ",".join(VARIANTS))
        parser.add_argument("--repeats", type=int, default=10)
        parser.add_argument("--strict", action="store_true",
                            help="exit nonzero if any run did not converge")
        parser.add_argument("--diagnostics", action="store_true",
                            help="add h_dist_sq/g_norm_sq/violation columns to trajectory CSVs")


def _build_parser(command: str) -> argparse.ArgumentParser:
    # no abbreviations, so covsel's --m (or config key m) is not --max-iter
    parser = argparse.ArgumentParser(prog=f"admm-bench {command}", allow_abbrev=False)
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
    else:
        parser.add_argument("--problem", choices=("lasso", "covsel"), default="lasso")
        parser.add_argument("--m", type=int, default=None, help="lasso rows (default 150)")
        parser.add_argument("--n", type=int, default=None, help="cols or covsel n (default 300)")
        parser.add_argument("--tau", type=float, default=None)
        _add_common(parser, bench=False)
        parser.add_argument("--load-instance", type=Path, default=None,
                            help="read the instance from a container file instead of generating")
        if command == "diagnose":
            parser.add_argument("--variant", choices=VARIANTS, default="over_relaxed")
    return parser


def _config_tokens(parser: argparse.ArgumentParser, argv) -> list:
    """Flag tokens for the key=value lines of the --config file named in argv.

    A switch, the only kind of flag whose default is False, becomes its bare
    flag when its value is 1/true/yes/on; any other key becomes --key=value.
    """
    path = parser.parse_known_args(argv)[0].config
    lines = path.read_text().splitlines() if path is not None else []
    tokens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        flag = key.lstrip("-").replace("_", "-")
        if parser.get_default(flag.replace("-", "_")) is not False:
            tokens.append(f"--{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(f"--{flag}")
    return tokens


def _tolerances(args) -> list:
    if len(args.eps_abs) != len(args.eps_rel):
        raise ValueError("--eps-abs and --eps-rel must have the same number of entries")
    for name, values in (("eps_abs", args.eps_abs), ("eps_rel", args.eps_rel)):
        for value in values:
            require_real(name, value, 0)
    return list(zip(args.eps_abs, args.eps_rel))


def _save_instance(path: Path, instance, seed):
    path.parent.mkdir(parents=True, exist_ok=True)
    container.save_instance(path, instance, seed=seed)


def _single_setup(args):
    """Instance, problem name and base solver config for compare/diagnose.

    The one (eps_abs, eps_rel) pair is checked first, then that --tau comes
    only with a generated covsel instance, --m only with a generated Lasso
    one and --n only with a generated one. A loaded container's header
    decides the problem kind and the seed --save-instance writes, whatever
    --problem and --seed say. The config is built before an instance is
    generated or saved; the command makes --out. The base config is the
    classical variant; ``replace(config, variant=...)`` re-validates it.
    """
    tolerances = _tolerances(args)
    if len(tolerances) != 1:
        raise ValueError("compare and diagnose take exactly one --eps-abs/--eps-rel pair")
    if args.tau is not None and (args.load_instance is not None or args.problem == "lasso"):
        raise ValueError("--tau applies only to a generated covsel instance")
    if args.m is not None and (args.load_instance is not None or args.problem != "lasso"):
        raise ValueError("--m applies only to a generated lasso instance")
    if args.n is not None and args.load_instance is not None:
        raise ValueError("--n applies only to a generated instance")
    problem, seed = args.problem, args.seed
    if args.load_instance is not None:
        instance, header = container.load_instance(args.load_instance)
        problem, seed = header["kind"], header.get("seed")
    config = SolverConfig(
        beta=args.beta,
        gamma=args.gamma if args.gamma is not None else GAMMA_DEFAULTS[problem],
        eps_abs=tolerances[0][0], eps_rel=tolerances[0][1], max_iter=args.max_iter,
    )
    if args.load_instance is None:
        n = 300 if args.n is None else args.n
        size = (150 if args.m is None else args.m, n) if problem == "lasso" else n
        instance = generate_instance(problem, size, seed, args.tau)
    if args.save_instance is not None:
        _save_instance(args.save_instance, instance, seed)
    return instance, problem, config


def _cmd_bench(problem: str, args) -> int:
    if problem == "lasso":
        m_list, n_list = args.m, args.n
        if len(m_list) == 1 and len(n_list) > 1:
            m_list = m_list * len(n_list)
        if len(n_list) == 1 and len(m_list) > 1:
            n_list = n_list * len(m_list)
        if len(m_list) != len(n_list):
            raise ValueError("--m and --n must zip into (m, n) pairs")
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
        first = generate_instance(problem, spec.sizes[0], args.seed, spec.tau)
        _save_instance(args.save_instance, first, args.seed)
    outcome = run_benchmark(spec)
    sys.stdout.write(outcome.summary_table.read_text())
    print(f"summary csv: {outcome.summary_csv}")
    if outcome.any_dnf:
        print("warning: some runs did not converge (DNF)")
        if args.strict:
            return 3
    return 0


def _cmd_compare(args) -> int:
    instance, problem_name, config = _single_setup(args)
    results = {variant: run(instance, replace(config, variant=variant)) for variant in VARIANTS}
    args.out.mkdir(parents=True, exist_ok=True)
    path = emit_trajectory_plotdata(results, args.out / f"compare_{problem_name}.csv")
    print(
        f"{'variant':<20} {'iterations':>10} {'relaxed':>8} {'stop':>10} "
        f"{'||r||':>12} {'||s||':>12}"
    )
    for variant, result in results.items():
        last = result.records[-1]
        print(
            f"{variant:<20} {result.iterations:>10} {result.relaxed_steps:>8} "
            f"{result.stop_reason:>10} "
            f"{last.primal_residual_norm:>12.3e} {last.dual_residual_norm:>12.3e}"
        )
    print(f"residual curves: {path}")
    return 0


def _cmd_diagnose(args) -> int:
    instance, problem_name, config = _single_setup(args)
    config = replace(config, variant=args.variant)
    ref = reference_solution(instance, config)
    monitor = FejerMonitor(instance, config, ref)
    result = run(instance, config, observer=monitor)

    args.out.mkdir(parents=True, exist_ok=True)
    diag_path = args.out / f"diagnose_{problem_name}_{args.variant}.csv"
    write_trajectory_csv(diag_path, result, monitor)
    print(
        f"variant={args.variant} iterations={result.iterations} "
        f"relaxed={result.relaxed_steps} stop={result.stop_reason}"
    )
    # each step check prints only for a variant whose steps it checks
    mono_checked, gap_checked = monitor.checks
    if mono_checked:
        print(f"multiplier split identity residual:       {monitor.split:.3e}")
    if gap_checked:
        print(f"correction identity residual (relaxed):   {monitor.correction:.3e}")
        print(f"gap-form expansion mismatch (relaxed):    {monitor.expansion:.3e}")
    if mono_checked:
        print(f"Fejer monotonicity violations:            {len(monitor.monotonicity_violations)}")
    if gap_checked:
        print(f"per-step gap inequality violations:       {len(monitor.gap_violations)}")
    last = result.records[-1]
    bound = max(1.0, config.beta) * (last.eps_pri + last.eps_dual)
    kkt = kkt_residual(instance, result.final)
    print(f"KKT residual at returned point:           {kkt:.3e} (bound {bound:.3e})")
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
    try:
        # the file's flags come first, so the command line's own win
        args = parser.parse_args([*_config_tokens(parser, rest), *rest])
        if command in ("lasso", "covsel"):
            return _cmd_bench(command, args)
        if command == "compare":
            return _cmd_compare(args)
        return _cmd_diagnose(args)
    except (ValueError, OSError, SolverError, MemoryError) as exc:
        # a bad config, input file or value, a failed solve, an array too large to allocate
        parser.error(str(exc))
