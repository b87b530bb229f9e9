"""Fast self-test of the benchmark command at toy sizes.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload, traced and untraced, it runs ``run.py --tiny`` and checks
that the last line is the result object with exactly the expected keys, that
every metric ``BENCHMARK.json`` names has a finite value and is printed with its
unit, and that all checks passed. It also checks that the command fails,
without a result, when the library sources are absent. Exits 0 when everything
holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    report = {line.split()[0]: line.split()[1:3] for line in lines[:-1] if line.startswith("  ")}
    for name, unit in expected.items():
        value = result["metrics"].get(name, {}).get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} has non-numeric value {value!r}")
        if name not in report or report[name][1] != unit:
            problems.append(f"{where}: {name} not printed with unit {unit}")
    return problems


def _check_without_sources() -> list[str]:
    """The command must fail without a result where only the benchmark is."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = _run(bare, "lasso-fat", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"without sources: exit code {proc.returncode}, last line {last!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = _check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = _check_without_sources()
    print(f"without sources: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
