"""Smoke test of the benchmark at reduced size.

Run from the repository root:

    python3 bench/smoke.py

For every workload it runs ``run.py`` at 2% of the full size, twice with
seed 1, once with seed 2 and once traced with seed 1, and checks that

* every ``end_to_end`` (untraced) and ``per_layer`` (traced) metric of
  BENCHMARK.json is emitted with its unit, and the result line has
  exactly the keys correct, attempted, failed and metrics;
* ``failed_share`` carries its base (failed and attempted counts);
* the same seed gives identical digests and another seed different ones;
* traced and untraced runs give identical digests, so tracing consumes
  no randomness.

The 4-SE cumulant gate is not asserted here: at 2% of the paths the
batch standard errors of k3 and k4 are too rough for it.  Exits 1 and
lists what failed, or exits 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.02"
SECONDS = "1"


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return line, record


def check_workload(workload: str, spec: dict) -> list:
    problems = []
    first, first_rec = run(workload, 1, 0)
    again, again_rec = run(workload, 1, 0)
    other, other_rec = run(workload, 2, 0)
    traced, traced_rec = run(workload, 1, 1)

    for label, line, section in (("untraced", first, "end_to_end"), ("traced", traced, "per_layer")):
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{label} result line has keys {sorted(line)}")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v.get("unit") for k, v in line["metrics"].items()}
        if got != want:
            problems.append(f"{label} metrics differ from BENCHMARK.json {section}: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, "
                            f"units {[k for k in want if k in got and got[k] != want[k]]}")
        bad = [k for k, v in line["metrics"].items() if not isinstance(v.get("value"), (int, float))]
        if bad:
            problems.append(f"{label} metrics without a numeric value: {bad}")

    share = first_rec["failed_share"]
    if not (share.get("attempted", 0) >= 1 and "failed" in share
            and share["value"] == share["failed"] / share["attempted"]
            and share["attempted"] == first["attempted"] and share["failed"] == first["failed"]):
        problems.append(f"failed_share without a consistent base: {share}")

    rep0 = first_rec["digests"][0][0]
    if again_rec["digests"][0][0] != rep0:
        problems.append("the same seed gave different digests")
    if other_rec["digests"][0][0] == rep0:
        problems.append("another seed gave the same digest")
    plain, with_trace = traced_rec["digests"]
    if with_trace[0] != rep0 or plain[0] != rep0:
        problems.append("traced and untraced digests differ")
    if traced_rec["problems"]:
        problems += traced_rec["problems"]
    print(f"{workload}: untraced failed {first['failed']}/{first['attempted']}, "
          f"traced failed {traced['failed']}/{traced['attempted']}, digest {rep0[:16]}...",
          flush=True)
    return [f"{workload}: {p}" for p in problems]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in ("cumulant-fine", "cumulant-coarse", "small-batch"):
        problems += check_workload(workload, spec)
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
