"""Start-up cost of tsousim: the wall time, peak memory and module count of
importing it in a fresh interpreter.

For each source tree given (default: this checkout's ``src``) and for each
of ``import tsousim`` and ``import tsousim.cli``, it starts ``--runs``
fresh interpreters with that tree on ``PYTHONPATH``.  Each one times the
import statement alone with ``time.perf_counter``, then reports its peak
resident memory (``ru_maxrss``, KiB on Linux) and ``len(sys.modules)``,
which counts the interpreter's own start-up modules too.  It prints the
median of each over the runs.  Runs alternate between the trees and the
statements, so two trees compared in one call share the host's drift:

    python tests/startup_cost.py                        # this checkout
    python tests/startup_cost.py src ../other/src --runs 21

Whether Python may write bytecode caches is left to the environment, and
the line above the table says which it was: with
``PYTHONDONTWRITEBYTECODE`` set, every process compiles the package's
sources, and that compile time is part of the figure.

Only the standard library is needed.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

STATEMENTS = ("import tsousim", "import tsousim.cli")

CHILD = """
import resource, sys, time
t0 = time.perf_counter()
{statement}
t1 = time.perf_counter()
print(t1 - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, len(sys.modules))
"""


def measure(src: Path, statement: str) -> tuple[float, float, int]:
    """(import seconds, peak RSS in MB, module count) of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(statement=statement)],
        env=env, capture_output=True, text=True, check=True,
    )
    seconds, rss_kib, modules = done.stdout.split()
    return float(seconds), int(rss_kib) / 1024.0, int(modules)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent / "src"],
                        help="source trees that hold the tsousim package")
    parser.add_argument("--runs", type=int, default=11, help="fresh interpreters per case")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    srcs = [s.resolve() for s in args.src]

    samples = {(s, st): [] for s in srcs for st in STATEMENTS}
    for _ in range(args.runs):
        for s in srcs:
            for st in STATEMENTS:
                samples[(s, st)].append(measure(s, st))

    cache = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"python {sys.version.split()[0]}, bytecode cache {cache}, "
          f"medians of {args.runs} fresh interpreters")
    print(f"{'statement':<20} {'ms':>8} {'peak MB':>8} {'modules':>8}  source")
    for (s, st), runs in samples.items():
        seconds, rss, modules = (statistics.median(col) for col in zip(*runs))
        print(f"{st:<20} {1e3 * seconds:8.1f} {rss:8.2f} {modules:8.0f}  {s}")


if __name__ == "__main__":
    main()
