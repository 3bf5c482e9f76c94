"""tsousim benchmark: three closed-loop workloads, checked against the
closed-form oracles, with end-to-end metrics and a traced run for
per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload cumulant-fine --seed 1 --seconds 40 --trace 0

Workloads (one caller each).  A repetition is one run of the workload in
a fresh process, after that process's set-up.  The number of repetitions
is fixed by the workload and ``--seconds`` (``--seconds`` over the
workload's nominal repetition time on a 2-vCPU host, at least three), not
by the clock, so two runs with the same arguments do the same work and
count the same operations.

* ``cumulant-fine``: ``harness.run_experiment`` on the 8 reference cells
  ``(b, c, beta) = (10, 0.8, 1.4)``, ``alpha in {0.3, 0.5, 0.7, 0.9}``,
  both processes, ``dt = 1/365``, 1e6 paths, 100 batches, 1 worker.
* ``cumulant-coarse``: the 8 cells at ``dt = 30/365`` plus OU-CTS
  ``alpha in {0.5, 0.9}`` at ``dt = 0.3``, 2**18 paths, 1 worker.
* ``small-batch``: ``tsousim simulate`` for both processes (alpha 0.5,
  64 paths x 3650 daily steps, CSV), then ``sample_transition_*`` called
  step by step for 16 paths on a 5000-step grid of exponential gaps with
  mean 1/365 (a fresh grid per repetition), then ``tsousim validate``.

With ``--trace 0`` the last line of standard output carries the metrics
listed under ``end_to_end`` in BENCHMARK.json.  With ``--trace 1`` it
carries the ``per_layer`` metrics: untraced and traced processes
alternate on the same repetitions, the layer metrics are medians over the
traced ones, and ``trace.overhead_pct`` compares the two.  The lines
before the last give per-cell err%, the workload-specific metrics,
``failed_share`` with its base, digests and run metadata; the same goes
to ``.bench_out/results/``.

End-to-end metrics (medians over repetitions):

* ``setup_s``: importing tsousim plus one warm-up call of the workload's
  first configuration, in a fresh process; at least 5 samples.
* ``wall_s``: wall time of a repetition (for the cumulant workloads, the
  time to the finished err% tables).
* ``transitions_per_s``: exact transitions of a repetition over its wall
  time (small-batch counts its simulate and event-step parts).
* ``peak_rss_mb``: ``ru_maxrss`` of a repetition's process.

Workload-specific metrics, reported but not gated (the gated set must be
measurable and non-zero on every workload): ``cell_s_p50``,
``cell_s_max`` (the slowest cell of a repetition), ``step_us_p50``,
``step_us_p99`` (10 000 calls per repetition), ``simulate_cli_s``,
``validate_s`` and ``failed_share``.  A cell whose cumulants lie more
than 4 batch SEs from the closed form counts as failed; when that gate is
the only one it trips, the run stays ``correct``, since an unbiased
sampler also lands there now and then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cumulant-fine", "cumulant-coarse", "small-batch")
MIN_REPS = 3
# nominal seconds of one repetition, its process start and set-up included,
# on a 2-vCPU Xeon host; used only to turn --seconds into a repetition count
REP_S = {"cumulant-fine": 6.9, "cumulant-coarse": 6.4, "small-batch": 4.2}
TRACE_COST = 2.2  # an untraced plus a traced process, relative to one untraced
SETUP_SAMPLES = 5  # set-up-only processes make up the count when fewer repetitions ran
DEADLINE_S = 170.0

EXTRA_UNITS = {
    "cell_s_p50": "s",
    "cell_s_max": "s",
    "step_us_p50": "us",
    "step_us_p99": "us",
    "simulate_cli_s": "s",
    "validate_s": "s",
}

CACHE_NOTE = (
    "A cumulant cell's sample array is at most 8 MB and fits in the L3 cache "
    "named above, so estimate_cumulants runs cache-resident and no "
    "memory-bandwidth metric is reported."
)


class ChildFailed(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description="tsousim benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="fraction of the workload size (the smoke test uses 0.02)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (0.0 < args.scale <= 1.0):
        p.error("--scale must be in (0, 1]")
    return args


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Runner:
    """Starts fresh child processes and collects their result files."""

    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "TSOUSIM_CONFIG"}

    def child(self, rep: int, trace: int) -> dict:
        """Set-up plus repetition ``rep`` (set-up only for -1) in a fresh process."""
        out = self.run_dir / f"{os.getpid()}-rep{rep}-trace{trace}.json"
        cmd = [
            sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--rep", str(rep), "--scale", str(self.args.scale),
            "--trace", str(trace), "--out", str(out),
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("out of time before starting a child process")
        try:
            # the child's stdout goes to our stderr: our stdout ends with the result
            done = subprocess.run(cmd, stdout=sys.stderr, env=self.env, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child timed out: {' '.join(cmd)}") from exc
        if done.returncode != 0:
            raise ChildFailed(f"child exited with {done.returncode}: {' '.join(cmd)}")
        try:
            with open(out) as fh:
                return json.load(fh)
        finally:
            out.unlink()

    def repetitions(self) -> int:
        per_rep = REP_S[self.args.workload] * (TRACE_COST if self.args.trace else 1.0)
        return max(MIN_REPS, int(self.args.seconds // per_rep))

    def collect(self):
        """A fixed number of repetitions.  A traced run alternates untraced
        and traced processes on the same repetition, so both see the same
        inputs and machine state."""
        plain, traced = [], []
        for rep in range(self.repetitions()):
            plain.append(self.child(rep, 0))
            if self.args.trace:
                traced.append(self.child(rep, 1))
        setups = [c["setup_s"] for c in plain]
        while not self.args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(self.child(-1, 0)["setup_s"])
        return plain, traced, setups


def _median(values):
    return statistics.median(values)


def _p99(values):
    return statistics.quantiles(values, n=100)[98]


def _end_to_end(plain: list, setups: list, workload: str) -> tuple[dict, dict]:
    """End-to-end metrics and the workload-specific ones."""
    reps = [c["rep"] for c in plain]
    e2e = {
        "wall_s": _median([r["wall_s"] for r in reps]),
        "transitions_per_s": _median([r["transitions"] / r["wall_s"] for r in reps]),
        "peak_rss_mb": _median([c["rss_mb"] for c in plain]),
        "setup_s": _median(setups),
    }
    if workload == "small-batch":
        extra = {
            "step_us_p50": _median([1e6 * _median(r["parts"]["step_s"]) for r in reps]),
            "step_us_p99": _median([1e6 * _p99(r["parts"]["step_s"]) for r in reps]),
            "simulate_cli_s": _median([r["parts"]["simulate_cli_s"] for r in reps]),
            "validate_s": _median([r["parts"]["validate_s"] for r in reps]),
        }
    else:
        extra = {
            "cell_s_p50": _median([s for r in reps for s in r["parts"]["cell_s"]]),
            "cell_s_max": _median([max(r["parts"]["cell_s"]) for r in reps]),
        }
    return e2e, extra


def _per_layer(plain: list, traced: list) -> dict:
    values = {k: _median([c["layers"][k] for c in traced]) for k in traced[0]["layers"]}
    values["trace.overhead_pct"] = 100.0 * (
        _median([c["rep"]["wall_s"] for c in traced])
        / _median([c["rep"]["wall_s"] for c in plain]) - 1.0
    )
    return values


def _digest_problems(plain: list, traced: list, workload: str) -> list:
    problems = []
    for k, (a, b) in enumerate(zip(plain, traced)):
        if a["rep"]["digest"] != b["rep"]["digest"]:
            problems.append(f"repetition {k}: traced digest {b['rep']['digest']} "
                            f"!= untraced {a['rep']['digest']}")
    if workload != "small-batch":
        # every repetition of a cumulant run draws the same cells: each one
        # must reproduce the first byte for byte
        first = plain[0]["rep"]["digest"]
        problems += [f"repetition {k} digest {c['rep']['digest']} != repetition 0 {first}"
                     for k, c in enumerate(plain) if c["rep"]["digest"] != first]
    return problems


def _fmt(name, value, unit):
    return f"metric {name} = {value!r} {unit}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "tsousim" / "__init__.py").is_file():
        print(f"error: no tsousim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = OUT / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        plain, traced, setups = Runner(args, run_dir).collect()
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, extra, wanted = _per_layer(plain, traced), {}, spec["per_layer"]
    else:
        values, extra = _end_to_end(plain, setups, args.workload)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics this script does not compute: {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    reps = [c["rep"] for c in plain + traced]
    problems = _digest_problems(plain, traced, args.workload)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    gate_only = sum(r["gate_only"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    correct = failed == gate_only and not problems
    meta = dict(plain[0]["meta"], commit=_commit(), src_sha256=_source_digest(),
                workload=args.workload, seed=args.seed, seconds=args.seconds,
                scale=args.scale, trace=args.trace)

    lines = [f"tsousim benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace} scale={args.scale}"]
    lines.append("meta: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    lines.append("note: " + CACHE_NOTE)
    for label, series in (("untraced", plain), ("traced", traced)):
        if series:
            walls = ", ".join(f"{c['rep']['wall_s']:.3f}" for c in series)
            lines.append(f"{label} repetitions: {len(series)} (wall_s {walls})")
    lines += [f"  {line}" for line in plain[0]["rep"]["report"]]
    lines += [_fmt(k, v["value"], v["unit"]) for k, v in metrics.items()]
    lines += [_fmt(k, v, EXTRA_UNITS[k]) for k, v in extra.items()]
    lines.append(f"metric failed_share = {failed / attempted!r} ratio "
                 f"(base: {failed} failed of {attempted} attempted operations, "
                 f"{gate_only} of them caught only by the 4-SE cumulant gate)")
    lines.append(f"digest rep0 = {plain[0]['rep']['digest']}")
    lines += [f"failure: {f}" for f in dict.fromkeys(failures)] + [f"problem: {p}" for p in problems]
    if traced:
        lines.append(f"spans: {sum(c['span_count'] for c in traced)} written to "
                     f"{run_dir}/spans-rep*.jsonl")

    record = {
        "meta": dict(meta, cache_note=CACHE_NOTE),
        "metrics": metrics,
        "workload_metrics": {k: {"value": v, "unit": EXTRA_UNITS[k]} for k, v in extra.items()},
        "failed_share": {"value": failed / attempted, "failed": failed, "attempted": attempted,
                         "gate_only": gate_only},
        "correct": correct,
        "failures": failures,
        "problems": problems,
        "digests": [[c["rep"]["digest"] for c in series] for series in (plain, traced)],
        "rep_wall_s": [[c["rep"]["wall_s"] for c in series] for series in (plain, traced)],
        "rep_parts_s": [{k: v for k, v in c["rep"]["parts"].items() if k != "step_s"}
                        for c in plain],
        "rss_mb": [c["rss_mb"] for c in plain],
        "setup_samples_s": setups,
        "cells": plain[0]["rep"]["report"],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"results: {path}")

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
