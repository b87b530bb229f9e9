"""Phase-timed benchmark of admmkit on the paper's two protocol cells.

Run from the repository root::

    python3 perfbench/run.py --workload lasso-fat --seed 1 --seconds 25 --trace 0

Workloads: ``lasso-fat`` (Lasso 1000x1500), ``lasso-tall`` (Lasso 3000x1000),
``covsel-300`` (covariance selection, n=300) and ``covsel-diag``
(``bench.run_benchmark`` on covsel n=200 with diagnostics). The library is
imported from ``src/`` next to this directory, with BLAS pinned to one thread
before NumPy loads. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs half the work untraced and the same half traced,
and reports per-layer metrics from the spans (see ``spans.py``). Every output
is checked (see ``workloads.py``); a human-readable report precedes the last
line, which is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Spans and a result file are written to ``perfbench/out/``. ``--tiny`` runs
the same code at toy sizes, for ``selftest.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Workload and metric names with their units; the report follows this file.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Largest share of the traced wall that may lie outside every span.
UNATTRIBUTED_SHARE = 0.01


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", required=True, type=_nonnegative)
    parser.add_argument("--seconds", required=True, type=_positive)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the self-test")
    return parser.parse_args(argv)


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _import_library():
    """Import admmkit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "admmkit" / "__init__.py").is_file():
        raise SystemExit(f"error: admmkit sources not found under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import admmkit

    if Path(admmkit.__file__).resolve().parent != (SRC / "admmkit").resolve():
        raise SystemExit(f"error: imported admmkit from {admmkit.__file__}, not {SRC}")


def _environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = None
        for path in glob.glob(os.path.dirname(module.__file__) + ".libs/*openblas*"):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    threads = getter()
                    break
        return {"name": info.get("name"), "version": info.get("version"), "threads": threads}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _units(workload, seconds: int, tiny: bool) -> int:
    if tiny:
        return 4
    return max(2, round(seconds * workload.units_per_s))


def _end_to_end(tally) -> tuple[dict, dict]:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    solve_total = sum(tally.solve_s)
    values = {
        "setup_s": statistics.median(tally.setup_s),
        "solve_s": statistics.median(tally.solve_s),
        "solve_s_p90": statistics.quantiles(tally.solve_s, n=10, method="inclusive")[-1],
        "iters_per_s": tally.iterations / solve_total,
        "iterations": tally.iterations,
        "wall_s": statistics.median(tally.unit_s),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    samples = {
        "setup_s": len(tally.setup_s),
        "solve_s": len(tally.solve_s),
        "solve_s_p90": len(tally.solve_s),
        "iters_per_s": len(tally.solve_s),
        "iterations": len(tally.solve_s),
        "wall_s": len(tally.unit_s),
        "peak_rss_mb": 1,
    }
    return values, samples


def _traced(workload, args, units, warm):
    """Half the work untraced, the same half traced; per-layer metrics."""
    import spans

    half = max(1, units // 2)
    untraced = workload.measure(args.seed, half, contextlib.nullcontext, warm)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tally = workload.measure(args.seed, half, tracer.region, warm)
    finally:
        tracer.uninstall()
    tally.merge(untraced)
    values, other_s = tracer.layer_metrics(tally.timed_s, untraced.timed_s)
    values["bench.csv_bytes"] = tally.csv_bytes

    tally.attempted += 1
    unattributed = values["trace.unattributed_s"]
    if not 0.0 <= unattributed <= UNATTRIBUTED_SHARE * tally.timed_s:
        tally.fail(f"{unattributed:.6f} s of {tally.timed_s:.6f} s traced wall lies outside "
                   f"every span (allowed: 0 to {UNATTRIBUTED_SHARE:.0%})")
    path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    if tracer.absent:
        print(f"absent (not traced): {', '.join(tracer.absent)}")
    if other_s:
        print(f"contract.other.self_s (no metric of its own): {other_s:.6f} s")
    return tally, values, {}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    import workloads

    env = _environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workload = workloads.build(args.workload, args.tiny, tmp)
    units = _units(workload, args.seconds, args.tiny)

    started = time.perf_counter()
    try:
        workloads.warm_up_blas()
        warm = workload.warm_up(args.seed)
        if args.trace:
            tally, values, samples = _traced(workload, args, units, warm)
        else:
            tally = workload.measure(args.seed, units, contextlib.nullcontext, warm)
            values, samples = _end_to_end(tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    elapsed = time.perf_counter() - started
    metric_units = {m["name"]: m["unit"]
                    for m in SPEC["per_layer" if args.trace else "end_to_end"]}

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} units={units} "
          f"tiny={args.tiny} elapsed_s={elapsed:.2f}")
    for name, unit in metric_units.items():
        value = values[name]
        note = f"n={samples[name]}" if name in samples else ""
        if args.trace and unit == "s" and tally.timed_s > 0:
            note = f"{100.0 * value / tally.timed_s:6.2f}% of traced wall"
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    print(f"checks: attempted={tally.attempted} failed={tally.failed} "
          f"relaxed_final_kkt={tally.relaxed_final_kkt}")
    for message in tally.failures[:10]:
        print(f"  FAILED {message}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  tiny=args.tiny, units=units, elapsed_s=elapsed, env=env, samples=samples,
                  relaxed_final_kkt=tally.relaxed_final_kkt, failures=tally.failures,
                  raw={"setup_s": tally.setup_s, "solve_s": tally.solve_s,
                       "solve_iterations": tally.solve_iterations, "unit_s": tally.unit_s})
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
