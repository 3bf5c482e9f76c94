"""Spans around the public entry points of each tsousim layer, and the
per-layer metrics computed from them.

``Tracer.install`` rebinds module attributes: every name in a tsousim
module that refers to one of the functions in ``WRAPPED`` is replaced by a
wrapper that records a span (name, start, end, parent span, thread id,
repetition and cell or step id) and a size taken from the call's
arguments or result.  Wrappers only time and count; they never touch an
``RngStream``, so a traced run draws exactly what an untraced run draws.
Spans stay in memory and are written out when the run ends.

Calls between private helpers (``_compound_jumps``, ``_cts_tilting``,
``_util.segment_sums``, the gamma draws) are not wrapped; their cost is
part of the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

from tsousim import cli, cts_ou, harness, levy_core, ou_cts, rand_core
import tsousim

MODULES = (tsousim, rand_core, levy_core, cts_ou, ou_cts, harness, cli)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _size(pos):
    def info(args, kwargs, result):
        size = _arg(args, kwargs, pos, "size")
        return 1 if size is None else int(size)
    return info


def _cts_route(args, kwargs, result):
    # the route sample_cts takes, classified from outside with the public
    # acceptance probability exactly as sample_cts chooses it
    params = args[0] if args else kwargs["params"]
    size = _arg(args, kwargs, 2, "size")
    method = _arg(args, kwargs, 3, "method", "auto")
    accept = rand_core.cts_tilting_acceptance(params)
    if params.alpha == 0.0:
        route = "gamma"
    elif method == "auto":
        route = "tilting" if accept >= rand_core.TILTING_ACCEPTANCE_FLOOR else "double-rejection"
    else:
        route = method
    return (1 if size is None else int(size), route, accept)


def _envelope(args, kwargs, result):
    return (result.envelope.segment_count, result.envelope.total_mass)


def _samples(args, kwargs, result):
    return int(args[0].size)


def _workers(args, kwargs, result):
    return args[0].workers


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(result)


# (module, function name, size extractor or None, sets the ambient parent)
WRAPPED = (
    (rand_core, "sample_cts", _cts_route, False),
    (rand_core, "sample_stable_subordinator", _size(2), False),
    (rand_core, "sample_poisson", _size(2), False),
    (levy_core, "lk_log_chf", None, False),
    (cts_ou, "step_law", None, False),
    (cts_ou, "sample_transition_ctsou", _size(4), False),
    (cts_ou, "sample_v_ctsou", _size(3), False),
    (ou_cts, "step_law_oucts", _envelope, False),
    (ou_cts, "build_envelope", None, False),
    (ou_cts, "sample_transition_oucts", _size(4), False),
    (ou_cts, "sample_w", _size(4), False),
    (ou_cts, "sample_v_oucts", _size(2), False),
    (harness, "run_experiment", None, False),
    # block jobs run on pool threads with an empty span stack; they take
    # the running simulate_terminal span as their parent
    (harness, "simulate_terminal", _workers, True),
    (harness, "estimate_cumulants", _samples, False),
    (harness, "export_trajectories", _csv_bytes, False),
    (harness, "validate_suite", None, False),
    (cli, "main", None, False),
)

# span tuple layout
SID, PARENT, NAME, TID, REP, CONTEXT, T0, T1, INFO = range(9)
FIELDS = ("id", "parent", "name", "thread", "rep", "context", "start", "end", "info")


class Tracer:
    """Span recorder; ``rep`` and ``context`` label the spans recorded next."""

    def __init__(self):
        self.spans = []
        self.rep = 0
        self.context = ""
        self._ambient = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self) -> None:
        for module, name, info, ambient in WRAPPED:
            original = getattr(module, name)
            wrapper = self._wrap(f"{module.__name__.split('.')[-1]}.{name}", original, info, ambient)
            for m in MODULES:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn, info, ambient):
        spans, local, ids = self.spans, self._local, self._ids
        clock, get_ident = time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._ambient
            sid = next(ids)
            stack.append(sid)
            if ambient:
                outer, self._ambient = self._ambient, sid
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                spans.append((sid, parent, name, get_ident(), self.rep, self.context, t0, t1, None))
                raise
            finally:
                stack.pop()
                if ambient:
                    self._ambient = outer
            t1 = clock()
            spans.append(
                (sid, parent, name, get_ident(), self.rep, self.context, t0, t1,
                 info(args, kwargs, result) if info else None)
            )
            return result

        return wrapper

    def write(self, path: str) -> None:
        """All spans as JSON lines, the first line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _ratio(num, den) -> float:
    # a layer that did no work on a workload reports 0
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one repetition's spans."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)

    def busy(name_or_spans):
        group = by_name[name_or_spans] if isinstance(name_or_spans, str) else name_or_spans
        return float(sum(s[T1] - s[T0] for s in group))

    def count(name):
        return sum(s[INFO] for s in by_name[name] if s[INFO] is not None)

    def self_time(group):
        return float(sum(
            (s[T1] - s[T0]) - _covered([(c[T0], c[T1]) for c in children[s[SID]]], s[T0], s[T1])
            for s in group
        ))

    def mean_us(name):
        return 1e6 * _ratio(busy(name), len(by_name[name]))

    cts = [s for s in by_name["rand_core.sample_cts"] if s[INFO] is not None]
    tilt = [s for s in cts if s[INFO][1] == "tilting"]
    dr = [s for s in cts if s[INFO][1] == "double-rejection"]
    tilt_draws = sum(s[INFO][0] for s in tilt)
    tilt_ids = {s[SID] for s in tilt}
    stable_in_tilt = sum(
        s[INFO] for s in by_name["rand_core.sample_stable_subordinator"] if s[PARENT] in tilt_ids
    )
    dr_draws = sum(s[INFO][0] for s in dr)

    law_spans = by_name["ou_cts.step_law_oucts"]
    law_ids = {s[SID] for s in law_spans}
    builds = by_name["ou_cts.build_envelope"]
    cached_misses = sum(1 for s in builds if s[PARENT] in law_ids)
    envelopes = [s[INFO] for s in law_spans if s[INFO] is not None]

    w_draws = count("ou_cts.sample_w")

    pool_busy = pool_capacity = 0.0
    for s in by_name["harness.simulate_terminal"]:
        pool_busy += busy(children[s[SID]])
        pool_capacity += (s[INFO] or 1) * (s[T1] - s[T0])

    export = by_name["harness.export_trajectories"]
    export_self = self_time(export)
    export_bytes = sum(s[INFO] for s in export if s[INFO] is not None)

    lk = by_name["levy_core.lk_log_chf"]
    return {
        "rand_core.cts_tilting.busy_s": busy(tilt),
        "rand_core.cts_tilting.ns_per_draw": 1e9 * _ratio(busy(tilt), tilt_draws),
        "rand_core.cts_tilting.proposals_per_accept": _ratio(stable_in_tilt, tilt_draws),
        "rand_core.cts_tilting.proposals_per_accept_expected": _ratio(
            sum(s[INFO][0] / s[INFO][2] for s in tilt), tilt_draws
        ),
        "rand_core.sample_stable_subordinator.ns_per_draw": 1e9 * _ratio(
            busy("rand_core.sample_stable_subordinator"),
            count("rand_core.sample_stable_subordinator"),
        ),
        "rand_core.cts_dr.draws": dr_draws,
        "rand_core.cts_dr.busy_s": busy(dr),
        "rand_core.cts_dr.ns_per_draw": 1e9 * _ratio(busy(dr), dr_draws),
        "rand_core.sample_poisson.busy_s": busy("rand_core.sample_poisson"),
        "cts_ou.step_law.us_per_call": mean_us("cts_ou.step_law"),
        "ou_cts.step_law_oucts.us_per_call": mean_us("ou_cts.step_law_oucts"),
        "ou_cts.build_envelope.calls": len(builds),
        "ou_cts.build_envelope.us_per_call": mean_us("ou_cts.build_envelope"),
        "ou_cts.envelope_cache.hit_ratio": _ratio(len(law_spans) - cached_misses, len(law_spans)),
        "ou_cts.envelope.segments_max": max((e[0] for e in envelopes), default=0),
        "ou_cts.envelope.G_L_max": max((e[1] for e in envelopes), default=0.0),
        "ou_cts.sample_w.draws": w_draws,
        "ou_cts.sample_w.busy_s": busy("ou_cts.sample_w"),
        "ou_cts.sample_w.ns_per_draw": 1e9 * _ratio(busy("ou_cts.sample_w"), w_draws),
        "cts_ou.jumps_per_transition": _ratio(
            count("cts_ou.sample_v_ctsou"), count("cts_ou.sample_transition_ctsou")
        ),
        "ou_cts.jumps_per_transition": _ratio(
            count("ou_cts.sample_v_oucts"), count("ou_cts.sample_transition_oucts")
        ),
        "cts_ou.sample_transition.self_s": self_time(by_name["cts_ou.sample_transition_ctsou"]),
        "ou_cts.sample_transition.self_s": self_time(by_name["ou_cts.sample_transition_oucts"]),
        "harness.estimate_cumulants.busy_s": busy("harness.estimate_cumulants"),
        "harness.estimate_cumulants.ns_per_sample": 1e9 * _ratio(
            busy("harness.estimate_cumulants"), count("harness.estimate_cumulants")
        ),
        "harness.workers.busy_share": _ratio(pool_busy, pool_capacity),
        "harness.export_trajectories.busy_s": export_self,
        "harness.export_trajectories.mb_per_s": _ratio(export_bytes / 1e6, export_self),
        "levy_core.lk_log_chf.calls": len(lk),
        "levy_core.lk_log_chf.ms_per_call": 1e3 * _ratio(busy(lk), len(lk)),
        "cli.main.self_s": self_time(by_name["cli.main"]),
    }

