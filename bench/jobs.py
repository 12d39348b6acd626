"""Workload definitions: the CLI argument lists each workload runs.

Seed 0 reproduces the README grids exactly. Any other seed shifts the
gamma or c grids by a seeded sub-step offset (in log space for log grids),
so the program only ever sees the generated argv. ``exact-verify`` has no
grids and is the same for every seed.

One grid is not shifted: the N=11 ``trajectory`` job. Its dyadic
refinement is chaotic in the grid position: offsets of even 1e-4 of a step
change its evaluations between about 1,300 and 3,600 (3,264 on the README
grid), which would make the workload's time depend on the seed more than
on the code. It stays on the README grid for every seed.

This module imports nothing from the package under test at import time,
so the set-up probe can load it before it starts its clock.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("dense-sweep", "ep-map", "exact-verify")

# The minimal instance of each workload's first command (N=2, two grid
# points), used for the set-up time and to warm the measuring interpreter.
MINIMAL = {
    "dense-sweep": [
        ["spectrum", "-N", "2", "--c", "0.00909090909", "--gamma", "0:1.5:2"],
        ["trajectory", "-N", "2", "--gamma", "1", "--c", "0.0004:0.04:2:log"],
    ],
    "ep-map": [
        ["ep-map", "-N", "2", "--c", "0.004:7.3:2:log"],
    ],
    "exact-verify": [
        ["verify", "--only", "n5-charpoly"],
        ["newton", "-N", "2"],
        ["charpoly", "-N", "2", "--gamma", "1"],
    ],
}


# ``exact-verify`` runs the acceptance suite as one job per criterion,
# except ``ring-law``, which runs as the 78 ``newton`` jobs it is made of:
# the rotated characteristic polynomial and its Newton polygon for every
# 1 <= k <= N <= 12, each checked against the ring law. No job then takes
# more than about a second (``ring-law`` alone takes about 13 s), so that
# ``run.py`` can time every job on its own (see there).
VERIFY_KEYS = (
    "c0-spectrum", "mother-ep", "n5-charpoly", "trace-structure", "newton-n5",
    "newton-n10", "puiseux-scaling", "ep-census", "strong-coupling",
    "krein-symmetry", "classification",
)
RING_LAW_CASES = tuple((n, k) for n in range(1, 13) for k in range(1, n + 1))


def _decimal(x: float) -> str:
    return format(x, ".12g")


def shifted_range(text: str, u: float) -> str:
    """Shift a min:max:steps[:log] range by the fraction ``u`` of one step."""
    if u == 0.0:
        return text
    parts = text.split(":")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if len(parts) == 4:
        ratio = (hi / lo) ** (1.0 / (steps - 1))
        factor = math.exp(u * math.log(ratio))
        return f"{_decimal(lo * factor)}:{_decimal(hi * factor)}:{steps}:log"
    delta = u * (hi - lo) / (steps - 1)
    return f"{_decimal(lo + delta)}:{_decimal(hi + delta)}:{steps}"


def jobs(workload: str, seed: int) -> list:
    """The argv of every job in one pass of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)

    def grid(text):
        return shifted_range(text, 0.0 if seed == 0 else rng.random())

    if workload == "dense-sweep":
        return [
            ["spectrum", "-N", "11", "--c", "0.00909090909", "--gamma", grid("0:1.5:500")],
            ["spectrum", "-N", "40", "--c", "0.0025", "--gamma", grid("0:1.5:500")],
            ["trajectory", "-N", "5", "--gamma", "1", "--c", grid("0.0004:0.04:60:log")],
            ["trajectory", "-N", "11", "--gamma", "0.9", "--c", "0.001:1:200:log"],
        ]
    if workload == "ep-map":
        from epspectra.cli import parse_range

        # one job per point of the c grid, each given the exact float the
        # whole-grid job would use (``repr`` round-trips), so that the jobs
        # do the whole-grid job's work and every job is short (see run.py)
        cs = parse_range(grid("0.004:7.3:24:log")).grid()
        return [["ep-map", "-N", "11", "--c", f"{float(c)!r}:{float(c)!r}:1"] for c in cs]
    return (
        [["verify", "--only", key] for key in VERIFY_KEYS]
        + [["newton", "-N", str(n), "--pert-power", str(k)] for n, k in RING_LAW_CASES]
        + [
            ["newton", "-N", "10"],
            ["charpoly", "-N", "5", "--gamma", "1"],
            ["charpoly", "-N", "5", "--gamma", "1", "--c", "0.02"],
        ]
    )
