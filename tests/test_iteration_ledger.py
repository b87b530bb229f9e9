"""Iteration ledger: the iteration count, stop reason, number of relaxed
steps and a CRC-32 of the per-step relaxed flags of every cell of a fixed
grid, committed in ``iteration_ledger.csv`` and recomputed exactly here.

Iteration counts are deterministic and are the paper's own metric, so a
change that moves one is a change in behaviour. The grid is four Lasso
sizes (fat 40x60 and 80x140, tall 60x20 and 300x200), covsel n = 20, 30 and
50 and a small ``QuadraticProblem``, at seeds 0-2, beta 0.5, 1 and 2, two
tolerance pairs and all three variants, plus edge rows that pin today's
behaviour at extreme betas. ``relaxed`` and ``relaxed_crc32`` cover the
steps ``run`` hands its observer: a step that ends the solve as non_finite
is left out, since its gate reads NaN under some OpenBLAS kernels and inf
or 0 under others. The ledger compares every kernel against the committed
values, so one run under another kernel checks that its iterations and
relaxed flags are the same. A change that moves a cell rewrites the ledger
with

    PYTHONPATH=src python -W error tests/test_iteration_ledger.py

and lists the moved cells as a change in behaviour.
"""

import csv
import itertools
import sys
import zlib
from pathlib import Path

import numpy as np

from admmkit import SolverConfig, run
from admmkit import covsel, lasso
from admmkit.model import VARIANTS
from admmkit.quadratic import QuadraticProblem

LEDGER = Path(__file__).with_name("iteration_ledger.csv")

KEY = ["problem", "size", "seed", "beta", "gamma", "eps_abs", "eps_rel", "variant"]
VALUES = ["iterations", "stop_reason", "relaxed", "relaxed_crc32"]

GAMMA = {"lasso": 1.8, "covsel": 1.7, "quadratic": 1.8}

GRID_SIZES = [("lasso", "40x60"), ("lasso", "60x20"), ("lasso", "300x200"),
              ("covsel", "20"), ("covsel", "50"), ("quadratic", "4x5x8"),
              ("lasso", "80x140"), ("covsel", "30")]

# (problem, size, seed, beta) at the default tolerances:
EDGES = [
    ("lasso", "8x12", 0, 1e6),  # stops converged after one step, x = y = lam = 0
    ("lasso", "8x12", 0, 1e-300),  # norms overflow: non_finite after one step
    # a closed-form subproblem forms inf - inf or inf / inf: non_finite after one step
    ("covsel", "10", 0, 1e308),
    ("quadratic", "4x5x8", 0, 1e308),
    ("lasso", "8x12", 0, 1e-310),
    ("lasso", "8x12", 0, 5e-324),
    ("covsel", "10", 0, 5e-324),
]


def cells():
    """Every cell's key fields, grid first, in ledger order."""
    for (problem, size), seed, beta, (eps_abs, eps_rel), variant in itertools.product(
        GRID_SIZES, range(3), (0.5, 1.0, 2.0), ((1e-5, 1e-3), (1e-8, 1e-6)), VARIANTS
    ):
        yield problem, size, seed, beta, GAMMA[problem], eps_abs, eps_rel, variant
    for (problem, size, seed, beta), variant in itertools.product(EDGES, VARIANTS):
        yield problem, size, seed, beta, GAMMA[problem], 1e-5, 1e-3, variant


def _instance(problem, size, seed):
    dims = [int(tok) for tok in size.split("x")]
    if problem == "lasso":
        return lasso.generate_instance(*dims, seed)[0]
    if problem == "covsel":
        return covsel.generate_instance(*dims, seed)[0]
    return QuadraticProblem.random(*dims, np.random.default_rng(seed))


def compute():
    """{key: values} for every cell, keys and values as the ledger writes them."""
    instances, rows = {}, {}
    for problem, size, seed, beta, gamma, eps_abs, eps_rel, variant in cells():
        if (problem, size, seed) not in instances:
            instances[problem, size, seed] = _instance(problem, size, seed)
        config = SolverConfig(variant=variant, beta=beta, gamma=gamma,
                              eps_abs=eps_abs, eps_rel=eps_rel)
        flags = bytearray()
        result = run(instances[problem, size, seed], config,
                     observer=lambda v_old, pred, v_new, record: flags.append(record.relaxed))
        key = tuple(map(str, (problem, size, seed, beta, gamma, eps_abs, eps_rel, variant)))
        rows[key] = (str(result.iterations), result.stop_reason, str(result.relaxed_steps),
                     f"{zlib.crc32(flags):08x}")
    return rows


def read_ledger():
    with open(LEDGER, newline="") as fh:
        return {tuple(row[k] for k in KEY): tuple(row[k] for k in VALUES)
                for row in csv.DictReader(fh)}


def write_ledger(rows):
    with open(LEDGER, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(KEY + VALUES)
        writer.writerows(key + values for key, values in rows.items())


def test_every_cell_matches_the_ledger():
    old, new = read_ledger(), compute()
    moved = [
        f"{','.join(key)}: {','.join(old.get(key, ('absent',)))} -> "
        f"{','.join(new.get(key, ('absent',)))}"
        for key in [*new, *(key for key in old if key not in new)]
        if old.get(key) != new.get(key)
    ]
    assert not moved, f"{len(moved)} of {len(new)} cells moved ({', '.join(VALUES)}):\n" + "\n".join(moved)


if __name__ == "__main__":
    write_ledger(compute())
    print(f"wrote {LEDGER}", file=sys.stderr)
