"""Lines of ``src/tsousim`` that a test run (and, optionally, one scaled
repetition of each benchmark workload) never executes.

Runs ``pytest.main`` under the standard library's ``trace`` line
counter, then prints trace's per-module summary for ``src/tsousim`` and,
module by module, the executable lines that never ran (those that
``trace`` marks ``>>>>>>``).  A line that shows up here is one that
neither the tests nor the workloads need: dead code, or a refusal no test
reaches.  Only numpy and the standard library are needed (``coverage`` is
not).  Every frame is traced, because ``trace``'s ``ignoredirs`` caches
its verdict by a module's base name and so would also skip
``tsousim/_util.py``, ``cli.py`` and ``__init__.py`` once another
package's ``_util``, ``cli`` or ``__init__`` ran first; the suite takes
about twice as long under it.

    python tests/line_coverage.py
    python tests/line_coverage.py --bench
    python tests/line_coverage.py -- tests/test_levy_core.py -q

Arguments after ``--`` go to pytest (default: ``-q
--continue-on-collection-errors tests``).  ``--bench`` then runs
``warm_up()`` and ``run_rep(0)`` of every workload in
``bench/workloads.py`` at scale 0.01 with seed 1, loading that file by
path and changing nothing under ``bench/``.  The exit status is pytest's.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tsousim"
BENCH_SCALE = 0.01
BENCH_SEED = 1


def _ranges(lines) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run(pytest_args, bench: bool) -> int:
    import pytest

    code = pytest.main(pytest_args)
    if bench:
        path = ROOT / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up there
        spec.loader.exec_module(workloads)
        with tempfile.TemporaryDirectory() as out_dir:
            for name in workloads.NAMES:
                work = workloads.make(name, BENCH_SEED, BENCH_SCALE, out_dir)
                try:
                    work.warm_up()
                    work.run_rep(0)
                finally:
                    work.close()
    return int(code)


def report(results: trace.CoverageResults) -> None:
    ours = {f for f, _ in results.counts if Path(f).resolve().is_relative_to(PACKAGE)}
    results.counts = {key: n for key, n in results.counts.items() if key[0] in ours}
    missed_total = 0
    with tempfile.TemporaryDirectory() as cover_dir:
        results.write_results(show_missing=True, summary=True, coverdir=cover_dir)
        for cover in sorted(Path(cover_dir).glob("*.cover")):
            text = cover.read_text().splitlines()
            missed = [i for i, line in enumerate(text, 1) if line.startswith(">>>>>> ")]
            missed_total += len(missed)
            if missed:
                print(f"{cover.stem} never runs lines {_ranges(missed)}")
    print(f"total: {missed_total} executable lines never run")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench", action="store_true", help="also run each workload once")
    parser.add_argument("pytest_args", nargs="*", help="pytest arguments, after --")
    args = parser.parse_args(argv)
    pytest_args = args.pytest_args or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]

    sys.path.insert(0, str(PACKAGE.parent))  # the workloads import this checkout's tsousim
    tracer = trace.Trace(count=1, trace=0)
    out = {}
    tracer.runctx("code = run(pytest_args, bench)",
                  {"run": run, "pytest_args": pytest_args, "bench": args.bench}, out)
    report(tracer.results())
    return out["code"]


if __name__ == "__main__":
    sys.exit(main())
