"""Iteration ledger: the iteration count, stop reason, number of relaxed
steps and a CRC-32 of the per-step relaxed flags of every cell of a fixed
grid, committed in ``iteration_ledger.csv`` and recomputed exactly here.

Iteration counts are deterministic and are the paper's own metric, so a
change that moves one is a change in behaviour. The grid is four Lasso
sizes (fat 40x60 and 80x140, tall 60x20 and 300x200), covsel n = 20, 30 and
50 and a small ``QuadraticProblem``, at seeds 0-2, beta 0.5, 1 and 2, two
tolerance pairs and all three variants, plus edge rows that pin today's
behaviour at extreme betas, plus the paper rows: the paper's two protocol
cells (Lasso 1000x1500 at (1e-5, 1e-3) with gamma 1.8, covsel n = 300 at
(1e-6, 1e-4) with gamma 1.7, beta 1) at seeds 0-9 with every variant, read
from the session fixtures that acceptance criteria 1, 2 and 9 solve, so
pinning them costs no solve of its own. ``relaxed`` and ``relaxed_crc32``
cover the steps ``run`` hands its observer: a step that ends the solve as
non_finite is left out, since its gate reads NaN under some OpenBLAS
kernels and inf or 0 under others. The ledger compares every kernel against
the committed values, so one run under another kernel checks that its
iterations and relaxed flags are the same. A change that moves a cell
rewrites the ledger with

    PYTHONPATH=src python -W error tests/test_iteration_ledger.py

which solves the paper rows too, and lists the moved cells as a change in
behaviour.
"""

import csv
import itertools
import sys
import zlib
from pathlib import Path

import numpy as np
from conftest import PAPER_CELLS, PAPER_SEEDS

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
                     observer=lambda v_old, w, v_new, record: flags.append(record.relaxed))
        key = tuple(map(str, (problem, size, seed, beta, gamma, eps_abs, eps_rel, variant)))
        rows[key] = _values(result, flags)
    return rows


def _values(result, flags):
    """A cell's values as the ledger writes them; ``flags`` holds the relaxed
    flag of each step ``run`` handed its observer."""
    return (str(result.iterations), result.stop_reason, str(result.relaxed_steps),
            f"{zlib.crc32(flags):08x}")


def _paper_size(problem):
    return "x".join(map(str, PAPER_CELLS[problem][0]))


def paper_rows(tables):
    """{key: values} of the paper rows from ``{problem: table_runs(problem)}``."""
    rows = {}
    for problem, (runs, _, changes) in tables.items():
        _, gamma, eps_abs, eps_rel = PAPER_CELLS[problem]
        for i, seed in enumerate(PAPER_SEEDS):
            for variant in VARIANTS:
                key = (problem, _paper_size(problem), seed, 1.0, gamma, eps_abs, eps_rel, variant)
                rows[tuple(map(str, key))] = _values(runs[variant][i], changes[variant][i].flags)
    return rows


def _is_paper_row(key):
    return key[0] in PAPER_CELLS and key[1] == _paper_size(key[0])


def read_ledger():
    with open(LEDGER, newline="") as fh:
        return {tuple(row[k] for k in KEY): tuple(row[k] for k in VALUES)
                for row in csv.DictReader(fh)}


def write_ledger(rows):
    with open(LEDGER, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(KEY + VALUES)
        writer.writerows(key + values for key, values in rows.items())


def _assert_unmoved(old, new):
    moved = [
        f"{','.join(key)}: {','.join(old.get(key, ('absent',)))} -> "
        f"{','.join(new.get(key, ('absent',)))}"
        for key in [*new, *(key for key in old if key not in new)]
        if old.get(key) != new.get(key)
    ]
    assert not moved, f"{len(moved)} of {len(new)} cells moved ({', '.join(VALUES)}):\n" + "\n".join(moved)


def test_every_cell_matches_the_ledger():
    old = {key: values for key, values in read_ledger().items() if not _is_paper_row(key)}
    _assert_unmoved(old, compute())


def test_the_paper_rows_match_the_ledger(lasso_table_runs, covsel_table_runs):
    old = {key: values for key, values in read_ledger().items() if _is_paper_row(key)}
    _assert_unmoved(old, paper_rows({"lasso": lasso_table_runs, "covsel": covsel_table_runs}))


if __name__ == "__main__":
    from conftest import table_runs

    tables = {problem: table_runs(problem) for problem in PAPER_CELLS}
    write_ledger({**compute(), **paper_rows(tables)})
    print(f"wrote {LEDGER}", file=sys.stderr)
