"""The three benchmark workloads, their output checks and output digests.

Every workload is closed loop with one caller: the next call starts when
the previous one has returned.  Inputs (cell seeds, event-time grids, CSV
seeds and paths) derive from the workload seed and, for small-batch, the
repetition, so the same seed gives the same draws.  Calls go through module attributes
(``harness.run_experiment``, ``cli.main``, ...) so that the tracer in
``tracing.py`` sees them when it is installed.

A repetition ("rep") is one run of the workload as the benchmark defines
it.  ``run_rep`` times the work and then checks the outputs outside the
timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from tsousim import cli, cts_ou, harness, ou_cts
from tsousim.rand_core import CtsParams, RngStream

NAMES = ("cumulant-fine", "cumulant-coarse", "small-batch")

B, C, BETA = 10.0, 0.8, 1.4
ALPHAS = (0.3, 0.5, 0.7, 0.9)
FINE_DT = 1.0 / 365.0
COARSE_DT = 30.0 / 365.0
WIDE_DT = 0.3  # b * dt = 3
BATCHES = 100
Z_GATE = 4.0  # batch standard errors a cumulant may lie from its closed form

# cumulant-fine keeps the acceptance cell size (1e6 transitions per cell);
# cumulant-coarse uses a quarter of it so that its 10 cells fit five times
# into the measured window.  Both run one worker: with two worker threads on
# a shared 2-core host the coarse wall time spread 0.30 across ten seeds,
# more than any bound the benchmark may set.
FINE_PATHS = 10**6
COARSE_PATHS = 1 << 18

SIM_ALPHA = 0.5
SIM_PATHS = 64
SIM_STEPS = 3650
EVENT_PATHS = 16
EVENT_STEPS = 5000


def derive_seed(*words: int) -> int:
    """A 63-bit seed from integer words (workload seed, part, repetition, ...)."""
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0] >> 1)


@dataclass
class RepResult:
    """What one repetition did, how long it took and what its checks found."""

    wall_s: float
    transitions: int
    attempted: int = 0
    failed: int = 0
    # failed cells that only the 4-SE gate caught: an unbiased sampler also
    # lands there now and then, so these do not make a run incorrect
    gate_only: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""
    parts: dict = field(default_factory=dict)  # workload-specific timings
    report: list = field(default_factory=list)  # printable per-cell lines


def _mark(tracer, context: str) -> None:
    if tracer is not None:
        tracer.context = context


# --------------------------------------------------------------------------
# cumulant workloads


class CumulantWorkload:
    """``harness.run_experiment`` over a list of (process, alpha, dt) cells."""

    workers = 1

    def __init__(self, name: str, seed: int, scale: float):
        if name == "cumulant-fine":
            cells = [(p, a, FINE_DT) for p in ("cts-ou", "ou-cts") for a in ALPHAS]
            paths = FINE_PATHS
        else:
            cells = [(p, a, COARSE_DT) for p in ("cts-ou", "ou-cts") for a in ALPHAS]
            cells += [("ou-cts", 0.5, WIDE_DT), ("ou-cts", 0.9, WIDE_DT)]
            paths = COARSE_PATHS
        self.paths = max(BATCHES * 10, int(paths * scale))
        # every repetition of a run draws the same cells, so the run measures
        # one fixed piece of work and each cell is one statistical check
        self.configs = [
            self._config(p, a, dt, self.paths, derive_seed(seed, i))
            for i, (p, a, dt) in enumerate(cells)
        ]
        self.warmup_config = self._config(
            *cells[0], min(self.paths, 2 * harness.BLOCK_SIZE), derive_seed(seed, 1000)
        )

    def _config(self, process, alpha, dt, paths, seed):
        return harness.ExperimentConfig(
            process=process, alpha=alpha, beta=BETA, c=C, b=B, dt=dt,
            paths=paths, seed=seed, batches=BATCHES, workers=self.workers,
        )

    def warm_up(self) -> None:
        harness.run_experiment(self.warmup_config)

    def run_rep(self, rep: int, tracer=None) -> RepResult:
        tables, cell_s = [], []
        t_rep = time.perf_counter()
        for i, cfg in enumerate(self.configs):
            _mark(tracer, f"cell{i}")
            t0 = time.perf_counter()
            try:
                tables.append(harness.run_experiment(cfg))
            except Exception as exc:  # a raising cell is a failed cell
                tables.append(exc)
            cell_s.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_rep

        res = RepResult(wall, self.paths * len(self.configs))
        res.parts = {"cell_s": cell_s}
        digest = hashlib.sha256()
        for cfg, table, secs in zip(self.configs, tables, cell_s):
            res.attempted += 1
            cell = f"{cfg.process} alpha={cfg.alpha} dt={cfg.dt:.6f}"
            if isinstance(table, Exception):
                res.failed += 1
                res.failures.append(f"{cell}: raised {table!r}")
                res.report.append(f"{cell} [{secs:.3f}s] raised {table!r}")
                continue
            cv = table.estimated
            values = [cv.k(k) for k in (1, 2, 3, 4)] + [cv.se(k) for k in (1, 2, 3, 4)]
            digest.update(np.array(values, dtype=np.float64).tobytes())
            bits, bad, finite = [], [], True
            for row in table.rows:
                z = abs(row.estimated - row.true) / row.se
                finite = finite and all(map(math.isfinite, (row.true, row.estimated, row.se)))
                bits.append(f"k{row.k_order} err%={row.err_pct:+.3f} z={z:.2f}")
                if not z <= Z_GATE:
                    bad.append(f"k{row.k_order} z={z:.2f} est={row.estimated!r}")
            if bad or not finite:
                res.failed += 1
                res.gate_only += finite
                res.failures.append(f"{cell}: " + ", ".join(bad or ["non-finite value"]))
            res.report.append(f"{cell} [{secs:.3f}s] " + "; ".join(bits))
        res.digest = digest.hexdigest()
        return res

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# small-batch


class SmallBatchWorkload:
    """Interactive use: two ``simulate`` CLI calls, step-by-step transitions
    on an irregular event-time grid, and ``validate``."""

    workers = 1

    def __init__(self, seed: int, scale: float, out_dir: str):
        self.seed = seed
        self.sim_steps = max(2, int(SIM_STEPS * scale))
        self.event_steps = max(2, int(EVENT_STEPS * scale))
        self.csv_paths = {
            p: os.path.join(out_dir, f"{os.getpid()}-seed{seed}-{p}.csv")
            for p in ("cts-ou", "ou-cts", "warmup")
        }
        params = CtsParams(SIM_ALPHA, BETA, C)
        self.processes = (
            ("cts-ou", cts_ou.CtsOuProcess(params, B), "sample_transition_ctsou", cts_ou),
            ("ou-cts", ou_cts.OuCtsProcess(params, B), "sample_transition_oucts", ou_cts),
        )

    def _grid_steps(self, tag: int, steps: int) -> np.ndarray:
        # ou_cts caches one envelope per distinct step for the life of the
        # process, so each repetition (and the warm-up, tag -1) gets its own
        # grid; a reused grid would turn envelope builds into cache hits
        rng = np.random.default_rng(derive_seed(self.seed, 2, tag + 1))
        return rng.exponential(1.0 / 365.0, steps)

    def _simulate_argv(self, process: str, steps: int, seed: int, out: str) -> list:
        return [
            "simulate", "--process", process, "--alpha", repr(SIM_ALPHA),
            "--beta", repr(BETA), "--c", repr(C), "--b", repr(B), "--x0", "0",
            "--dt", repr(FINE_DT), "--steps", str(steps), "--paths", str(SIM_PATHS),
            "--seed", str(seed), "--out", out,
        ]

    def _event_path(self, index: int, steps: np.ndarray, seed: int, times: list, tracer=None):
        """Step one process along ``steps`` for EVENT_PATHS paths, one call per step."""
        label, proc, fn_name, module = self.processes[index]
        stream = RngStream(seed, index)
        path = np.empty((steps.size, EVENT_PATHS))
        x = np.zeros(EVENT_PATHS)
        fn = getattr(module, fn_name)
        for i, dt in enumerate(steps.tolist()):
            if tracer is not None:
                tracer.context = f"events-{label}/step{i}"
            t0 = time.perf_counter()
            x = fn(proc, x, dt, stream, size=EVENT_PATHS)
            times.append(time.perf_counter() - t0)
            path[i] = x
        return path

    def warm_up(self) -> None:
        out = self.csv_paths["warmup"]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self._simulate_argv("cts-ou", 30, derive_seed(self.seed, 3), out))
        os.remove(out)
        self._event_path(0, self._grid_steps(-1, 30), derive_seed(self.seed, 4), [])

    def run_rep(self, rep: int, tracer=None) -> RepResult:
        sim_seed = derive_seed(self.seed, 5, rep)
        event_seed = derive_seed(self.seed, 6, rep)
        steps = self._grid_steps(rep, self.event_steps)
        sim_rc, sim_s, step_s, paths, errors = {}, 0.0, [], {}, {}

        t_rep = time.perf_counter()
        for process, _, _, _ in self.processes:
            _mark(tracer, f"simulate-{process}")
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    sim_rc[process] = cli.main(
                        self._simulate_argv(process, self.sim_steps, sim_seed, self.csv_paths[process])
                    )
                except Exception as exc:
                    sim_rc[process] = exc
            sim_s += time.perf_counter() - t0
        t_events = time.perf_counter()
        for index, (process, _, _, _) in enumerate(self.processes):
            try:
                paths[process] = self._event_path(index, steps, event_seed, step_s, tracer)
            except Exception as exc:
                errors[process] = exc
        events_s = time.perf_counter() - t_events
        _mark(tracer, "validate")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            try:
                validate_rc = cli.main(["validate"])
            except Exception as exc:
                validate_rc = exc
        validate_s = time.perf_counter() - t0
        wall = time.perf_counter() - t_rep

        transitions = len(self.processes) * (SIM_PATHS * self.sim_steps + EVENT_PATHS * steps.size)
        res = RepResult(wall, transitions)
        res.parts = {
            "simulate_cli_s": sim_s,
            "events_s": events_s,
            "validate_s": validate_s,
            "step_s": step_s,
        }
        digest = hashlib.sha256()
        for process, *_ in self.processes:
            res.attempted += 1
            data = b""
            if sim_rc[process] == 0 and os.path.exists(self.csv_paths[process]):
                with open(self.csv_paths[process], "rb") as fh:
                    data = fh.read()
            digest.update(hashlib.sha256(data).digest())
            shape = _csv_shape(data)
            if shape != (self.sim_steps + 1, SIM_PATHS + 1):
                res.failed += 1
                res.failures.append(
                    f"simulate {process}: returned {sim_rc[process]!r}, CSV shape {shape}"
                )
        # the same a_i = exp(-b dt_i) the samplers compute, scalar by scalar
        decay = np.array([float(np.exp(-B * dt)) for dt in steps.tolist()])
        for process, *_ in self.processes:
            res.attempted += steps.size
            if process in errors:
                res.failed += steps.size
                res.failures.append(f"event steps {process}: raised {errors[process]!r}")
                continue
            path = paths[process]
            digest.update(path.tobytes())
            previous = np.vstack([np.zeros((1, EVENT_PATHS)), path[:-1]])
            with np.errstate(invalid="ignore"):
                ok = np.isfinite(path).all(axis=1) & (path >= decay[:, None] * previous).all(axis=1)
            if not ok.all():
                res.failed += int((~ok).sum())
                res.failures.append(
                    f"event steps {process}: {int((~ok).sum())} steps non-finite or "
                    f"below a*X(t) (first at step {int(np.argmin(ok))})"
                )
        report = captured.getvalue()
        digest.update(report.encode())
        res.attempted += 1
        lines = report.strip().splitlines()
        if validate_rc != 0 or not lines or not lines[-1].startswith("overall: PASS"):
            res.failed += 1
            res.failures.append(
                f"validate: returned {validate_rc!r}, last line {lines[-1] if lines else ''!r}"
            )
        res.digest = digest.hexdigest()
        res.report.append(
            f"simulate x2 {sim_s:.3f}s; event steps x{len(step_s)} {events_s:.3f}s; "
            f"validate {validate_s:.3f}s ({lines[-1] if lines else 'no report'})"
        )
        return res

    def close(self) -> None:
        for path in self.csv_paths.values():
            if os.path.exists(path):
                os.remove(path)


def _csv_shape(data: bytes):
    """(data rows, columns) of a CSV with one header line, or None if ragged."""
    lines = data.splitlines()
    if not lines:
        return None
    columns = {line.count(b",") + 1 for line in lines}
    if len(columns) != 1:
        return None
    return len(lines) - 1, columns.pop()


def make(name: str, seed: int, scale: float, out_dir: str):
    if name == "small-batch":
        return SmallBatchWorkload(seed, scale, out_dir)
    if name in NAMES:
        return CumulantWorkload(name, seed, scale)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
