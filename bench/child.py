"""One fresh benchmark process; ``run.py`` starts it and reads its result file.

It times importing tsousim plus the workload's warm-up call (set-up),
then, unless ``--rep`` is -1, runs repetition ``--rep`` of the workload,
optionally under the tracer, and writes the repetition's timings, checks,
digest and peak resident memory as JSON to ``--out``.

Each repetition runs in a process of its own, as a user's run would: the
OU-CTS envelope cache is process-global and unbounded, so a process that
ran several repetitions would carry every earlier repetition's envelopes
(and their garbage-collection cost) into the next.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _l3_cache() -> str:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import tsousim

    if os.path.dirname(os.path.dirname(os.path.abspath(tsousim.__file__))) != os.path.abspath(src):
        raise SystemExit(f"imported tsousim from {tsousim.__file__}, not from {src}")
    import workloads

    out_dir = os.path.dirname(os.path.abspath(args.out))
    wl = workloads.make(args.workload, args.seed, args.scale, out_dir)
    try:
        wl.warm_up()
        result = {"setup_s": time.perf_counter() - t0}
        if args.rep >= 0:
            result.update(_measure(wl, args, out_dir))
    finally:
        wl.close()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _measure(wl, args, out_dir) -> dict:
    import numpy
    import scipy

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.rep = args.rep
        tracer.install()

    rep = wl.run_rep(args.rep, tracer)
    result = {
        "rep": asdict(rep),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "l3_cache": _l3_cache(),
            "workers": wl.workers,
        },
    }
    if tracer is not None:
        spans_file = os.path.join(out_dir, f"spans-rep{args.rep}.jsonl")
        tracer.write(spans_file)
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["spans_file"] = spans_file
        result["span_count"] = len(tracer.spans)
    return result


if __name__ == "__main__":
    raise SystemExit(main())
