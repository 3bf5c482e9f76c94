"""Failed-cell tally of cumulant cells over a range of seeds.

A change that re-rolls variates moves every fixed-seed cumulant estimate,
so one seed cannot tell a biased sampler from a noisy gate.  This script
runs ``harness.run_experiment`` on each cell (process, alpha, dt, paths)
for every seed in a range, with the benchmark's parameters (beta 1.4,
c 0.8, b 10, 100 batches, one worker), and prints per cell how many seeds
failed the 4-SE gate (some |z| = |estimate - truth| / SE above 4, a
non-finite value, or a raised error) and the median over seeds of the
largest |z| of k1..k4.  Run it on both sides of a change and compare.

    PYTHONPATH=src python tests/cell_tally.py --seeds 100:120
    PYTHONPATH=src python tests/cell_tally.py --cell ou-cts,0.9,0.3,262144 --seeds 1:5
    PYTHONPATH=src python tests/cell_tally.py --cells coarse --seeds 100:110

``--cells fine`` lists the 8 cumulant-fine cells (both processes, alpha
0.3, 0.5, 0.7 and 0.9, dt = 1/365, 10^6 paths) and ``--cells coarse`` the
10 cumulant-coarse cells (the same at dt = 30/365 plus OU-CTS alpha 0.5
and 0.9 at b dt = 3, 2^18 paths); ``--cell`` adds cells to either.  With
neither it tallies the two cumulant-coarse cells whose 65 536-path calls
draw more than one chunk of jumps: CTS-OU alpha 0.9 at dt = 30/365 and
OU-CTS alpha 0.9 at b dt = 3, 2^18 paths each.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import math
import statistics
import time

from tsousim.harness import ExperimentConfig, run_experiment

BETA, C, B, BATCHES, Z_GATE = 1.4, 0.8, 10.0, 100, 4.0
DEFAULT_CELLS = ("cts-ou,0.9,0.0821917808219178,262144", "ou-cts,0.9,0.3,262144")
ALPHAS = (0.3, 0.5, 0.7, 0.9)
PRESETS = {
    "fine": [(p, a, 1.0 / 365.0, 10**6) for p in ("cts-ou", "ou-cts") for a in ALPHAS],
    "coarse": [(p, a, 30.0 / 365.0, 1 << 18) for p in ("cts-ou", "ou-cts") for a in ALPHAS]
    + [("ou-cts", a, 0.3, 1 << 18) for a in (0.5, 0.9)],
}


def parse_cell(text: str) -> tuple[str, float, float, int]:
    process, alpha, dt, paths = text.split(",")
    return process, float(alpha), float(dt), int(paths)


def parse_seeds(text: str) -> range:
    lo, hi = (int(v) for v in text.split(":"))
    return range(lo, hi)


def largest_z(process: str, alpha: float, dt: float, paths: int, seed: int) -> float:
    """max |z| over k1..k4 of one run; inf for a non-finite value or an error."""
    cfg = ExperimentConfig(process, alpha, BETA, C, B, dt, paths=paths, seed=seed, batches=BATCHES)
    try:
        table = run_experiment(cfg)
    except Exception as exc:  # a raising cell is a failed cell
        print(f"  {process} alpha={alpha} dt={dt:.6f} seed {seed}: raised {exc!r}", flush=True)
        return math.inf
    zs = [abs(row.estimated - row.true) / row.se for row in table.rows]
    return max(zs) if all(map(math.isfinite, zs)) else math.inf


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cell", action="append", type=parse_cell,
                        help="process,alpha,dt,paths (repeatable)")
    parser.add_argument("--cells", choices=sorted(PRESETS),
                        help="every cell of one benchmark workload")
    parser.add_argument("--seeds", type=parse_seeds, default=range(100, 120),
                        help="half-open seed range lo:hi (default 100:120)")
    args = parser.parse_args(argv)
    cells = PRESETS.get(args.cells, []) + (args.cell or [])
    cells = cells or [parse_cell(c) for c in DEFAULT_CELLS]
    for cell in cells:
        t0 = time.perf_counter()
        zs = [largest_z(*cell, seed) for seed in args.seeds]
        failed = sum(not z <= Z_GATE for z in zs)
        process, alpha, dt, paths = cell
        print(
            f"{process} alpha={alpha} dt={dt:.6f} paths={paths} "
            f"seeds {args.seeds.start}:{args.seeds.stop}: failed {failed}/{len(zs)}, "
            f"median max|z| {statistics.median(zs):.2f} [{time.perf_counter() - t0:.0f}s]",
            flush=True,
        )


if __name__ == "__main__":
    main()
