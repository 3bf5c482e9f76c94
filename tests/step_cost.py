"""Fixed per-call cost of the transition samplers, in wall time.

Prints three groups of timings, each a median, for the benchmark's
parameters (beta 1.4, c 0.8, b 10):

* the median microseconds of one 16-path alpha 0.5 transition call per
  family, on small-batch's recipe: 5000 exponential(1/365) gaps from a
  fixed seed, one ``sample_transition_*`` call a gap, each call timed on
  its own, the walk run three times after one warm-up walk;
* the milliseconds of one 65 536-draw ``sample_cts`` call for each of
  cumulant-fine's CTS parts (both families, alpha 0.3, 0.5, 0.7 and 0.9,
  dt = 1/365), the median of 9 calls;
* the milliseconds of one 365-step, 16-path skeleton per family
  (``simulate_skeleton_*`` on the daily grid), the median of 9 calls.

Run it on both sides of a change, alternating, on one host:

    PYTHONPATH=src python tests/step_cost.py

Only numpy and the standard library are needed.  pytest does not collect
this file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tsousim import cts_ou, ou_cts
from tsousim.rand_core import CtsParams, RngStream, sample_cts

BETA, C, B = 1.4, 0.8, 10.0
STEP_ALPHA, STEP_PATHS, STEP_GAPS, STEP_WALKS, GRID_SEED = 0.5, 16, 5000, 3, 20260
FINE_ALPHAS, FINE_DT, CTS_DRAWS = (0.3, 0.5, 0.7, 0.9), 1.0 / 365.0, 1 << 16
CALLS = 9
FAMILIES = {
    "cts-ou": (cts_ou.CtsOuProcess, cts_ou.step_law, cts_ou.sample_transition_ctsou,
               cts_ou.simulate_skeleton_ctsou),
    "ou-cts": (ou_cts.OuCtsProcess, ou_cts.step_law_oucts, ou_cts.sample_transition_oucts,
               ou_cts.simulate_skeleton_oucts),
}


def step_us(process, sample_transition, gaps) -> float:
    """Median microseconds of one call over STEP_WALKS walks along ``gaps``."""
    times = []
    clock = time.perf_counter
    for walk in range(STEP_WALKS + 1):  # walk 0 warms up
        stream, x = RngStream(GRID_SEED, walk), np.zeros(STEP_PATHS)
        for dt in gaps:
            t0 = clock()
            x = sample_transition(process, x, dt, stream, size=STEP_PATHS)
            t1 = clock()
            if walk:
                times.append(t1 - t0)
    return statistics.median(times) * 1e6


def median_ms(call) -> float:
    call(-1)  # warm-up
    times = []
    for i in range(CALLS):
        t0 = time.perf_counter()
        call(i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main() -> None:
    gaps = np.random.default_rng(GRID_SEED).exponential(FINE_DT, STEP_GAPS).tolist()
    print(f"16-path alpha {STEP_ALPHA} step, median over {STEP_WALKS} x {STEP_GAPS} calls:")
    for name, (make, _, sample_transition, _) in FAMILIES.items():
        process = make(CtsParams(STEP_ALPHA, BETA, C), B)
        print(f"  {name}: {step_us(process, sample_transition, gaps):.1f} us", flush=True)

    print(f"{CTS_DRAWS}-draw sample_cts of each cumulant-fine CTS part, median of {CALLS}:")
    for name, (make, law, _, _) in FAMILIES.items():
        for alpha in FINE_ALPHAS:
            params = law(make(CtsParams(alpha, BETA, C), B), FINE_DT).x1_params
            ms = median_ms(lambda i: sample_cts(params, RngStream(GRID_SEED, i + 1), CTS_DRAWS))
            print(f"  {name} alpha {alpha}: {ms:.2f} ms", flush=True)

    print(f"365-step, {STEP_PATHS}-path skeleton on the daily grid, median of {CALLS}:")
    grid = [i / 365.0 for i in range(1, 366)]
    for name, (make, _, _, skeleton) in FAMILIES.items():
        process = make(CtsParams(STEP_ALPHA, BETA, C), B)
        ms = median_ms(lambda i: skeleton(process, 0.0, grid, RngStream(GRID_SEED, i + 1),
                                          STEP_PATHS))
        print(f"  {name}: {ms:.2f} ms", flush=True)


if __name__ == "__main__":
    main()
