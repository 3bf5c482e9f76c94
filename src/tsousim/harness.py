"""Monte Carlo experiment engine, cumulant validation tables and reports.

Runs blocks of independent transitions (or short skeletons), estimates the
first four cumulants with batch standard errors, and compares them against
the closed forms of the process modules using the signed percentage error

    err% = 100 * (true - estimated) / true.

Path blocks are the unit of parallelism and of stream assignment: block i
always consumes stream id i of the experiment seed, so results are
bit-identical for any worker count and any run.
"""

from __future__ import annotations

import csv
import math
import operator
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from . import cts_ou, ou_cts
from ._util import gamma as gamma_fn
from .rand_core import _CHUNK, CtsParams, RngStream, StepLaw, _check_key, cts_cumulants
from .rand_core import path_states

__all__ = [
    "BLOCK_SIZE",
    "ExperimentConfig",
    "CumulantVector",
    "ErrTableRow",
    "ErrTable",
    "estimate_cumulants",
    "run_experiment",
    "export_trajectories",
    "validate_suite",
    "ValidationReport",
]

# Paths per stream block; worker counts share this partition, so the block
# layout (and with it every drawn variate) is independent of parallelism.
BLOCK_SIZE = 1 << 16

# (process, method) -> builder of the step law that the configuration samples;
# the harness builds one law per experiment and steps every path with it
STEP_LAWS = {
    ("cts-ou", "exact"): lambda proc, cfg: cts_ou.step_law(proc, cfg.dt),
    ("ou-cts", "exact"): lambda proc, cfg: ou_cts.step_law_oucts(proc, cfg.dt),
    ("ou-cts", "x1-only"): lambda proc, cfg: ou_cts.x1_only_law(proc, cfg.dt),
    ("ou-cts", "scaled-bdlp"): lambda proc, cfg: ou_cts.scaled_bdlp_law(proc, cfg.dt),
}
PROCESS_KINDS = tuple(dict.fromkeys(process for process, _ in STEP_LAWS))
METHODS = tuple(dict.fromkeys(method for _, method in STEP_LAWS))


def _require_integer(name: str, value) -> None:
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@contextmanager
def _writing(path: str, what: str, mode: str = "w"):
    """``open(path, mode)``, turning an ``OSError`` from opening, writing or
    closing into one that names ``what`` and ``path``."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path!r}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """One experiment: process parameters, horizon, sampling effort, seed."""

    process: str
    alpha: float
    beta: float
    c: float
    b: float
    dt: float
    paths: int
    seed: int
    T: float = 1.0
    x0: float = 0.0
    steps: int = 1
    method: str = "exact"
    batches: int = 100
    workers: int = 1
    out: Optional[str] = None

    def validate(self) -> StepLaw:
        """Check the configuration and build its step law, which must pass
        :meth:`StepLaw.check_size` for a run's largest call; a run calls this
        once and steps every path with the law it returns.  Raises
        ValueError for any invalid field."""
        if (self.process, self.method) not in STEP_LAWS:
            raise ValueError(
                f"(process, method) must be one of {list(STEP_LAWS)}, "
                f"got {(self.process, self.method)!r}"
            )
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        for name in ("paths", "steps", "batches", "workers"):
            _require_integer(name, getattr(self, name))
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if self.batches < 2:
            raise ValueError(f"need at least 2 batches, got {self.batches}")
        if self.paths < 1:
            raise ValueError(f"need at least one path, got {self.paths}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        _check_key(self.seed)
        if not (0.0 < self.b < math.inf):
            raise ValueError(f"b must be positive and finite, got {self.b}")
        if not (0.0 < self.T < math.inf):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        law = STEP_LAWS[(self.process, self.method)](self.process_object(), self)
        n = min(self.paths, BLOCK_SIZE)  # the first block makes the largest calls
        law.check_size(n * min(self.steps, max(1, BLOCK_SIZE // n)))
        return law

    def process_object(self):
        params = CtsParams(self.alpha, self.beta, self.c)
        if self.process == "cts-ou":
            return cts_ou.CtsOuProcess(params, self.b)
        return ou_cts.OuCtsProcess(params, self.b, self.T)


@dataclass(frozen=True)
class CumulantVector:
    """First four cumulants, with batch standard errors when estimated."""

    k1: float
    k2: float
    k3: float
    k4: float
    se1: Optional[float] = None
    se2: Optional[float] = None
    se3: Optional[float] = None
    se4: Optional[float] = None

    def k(self, order: int) -> float:
        return (self.k1, self.k2, self.k3, self.k4)[order - 1]

    def se(self, order: int) -> Optional[float]:
        return (self.se1, self.se2, self.se3, self.se4)[order - 1]


@dataclass(frozen=True)
class ErrTableRow:
    alpha: float
    dt: float
    method: str
    k_order: int
    true: float
    estimated: float
    err_pct: float
    se: float


@dataclass
class ErrTable:
    rows: list
    estimated: CumulantVector

    def row(self, k: int) -> ErrTableRow:
        return self.rows[k - 1]

    def to_csv(self, path: str) -> None:
        with _writing(path, "err table") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(f.name for f in fields(ErrTableRow))
            writer.writerows(astuple(r) for r in self.rows)


def _power_sums(x: np.ndarray, centre, buf: np.ndarray):
    """Sums of d*d, (d*d)*d and (d*d)*(d*d) along the last axis of ``x``,
    a run of values or a block of whole rows, where d = x - centre (a
    scalar, or one centre per row), added in the order ``np.add.reduce``
    adds each row.  numpy's pairwise summation (Higham 1993) splits a run
    of n > 128 values at h = n//2 - (n//2) % 8; rows longer than
    ``rand_core._CHUNK`` are split by that rule, and a block of shorter
    rows, each a node of numpy's tree, is formed in the two rows of
    ``buf`` and reduced row by row at once.  Products, not ``pow``:
    numpy's float pow takes a scalar path for negative bases that is some
    30 times slower than a multiply."""
    n = x.shape[-1]
    if n > _CHUNK:
        h = n // 2
        h -= h % 8
        lo = _power_sums(x[..., :h], centre, buf)
        hi = _power_sums(x[..., h:], centre, buf)
        return tuple(a + b for a, b in zip(lo, hi))
    d, p = buf[0, : x.size].reshape(x.shape), buf[1, : x.size].reshape(x.shape)
    np.subtract(x, centre, out=d)
    np.multiply(d, d, out=p)  # d**2
    s2 = np.add.reduce(p, axis=-1)
    d *= p  # d**3
    s3 = np.add.reduce(d, axis=-1)
    p *= p  # d**4
    return s2, s3, np.add.reduce(p, axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def estimate_cumulants(samples: np.ndarray, batches: int) -> CumulantVector:
    """Plug-in estimates of k1..k4 with batch standard errors.

    The sample is truncated to a multiple of ``batches``; each batch yields
    its own cumulant estimates, and the SE of each order is the batch
    spread over sqrt(batches).  The central moments are the bits of
    ``np.mean`` over d**2, d**3 and d**4 held whole, but are formed one run
    of at most ``rand_core._CHUNK`` values at a time, a batch row longer
    than that split and shorter rows taken in blocks of whole rows (see
    :func:`_power_sums`), so beyond the sample the estimator holds two
    such runs; ``samples`` is never written to.

    A sample with a NaN or an infinity, or whose sum overflows, raises
    ValueError: the mean is finite exactly when the kept values are finite
    and so is their sum, and the few values truncated away are checked on
    their own.  So does a sample whose central moments or their batch
    SEs overflow.  It runs under ``np.errstate``, so no warning escapes.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    _require_integer("batches", batches)
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    if samples.size < batches:
        raise ValueError(f"need at least {batches} samples, got {samples.size}")
    per = samples.size // batches
    flat = samples[: per * batches]
    buf = np.empty((2, min(_CHUNK, flat.size)))

    def central(x, m, count):  # k2, k3, k4 about the mean(s) m
        m2, m3, m4 = (s / count for s in _power_sums(x, m, buf))
        return m2, m3, m4 - 3.0 * m2 * m2

    mean = np.mean(flat)
    if not (math.isfinite(mean) and np.isfinite(samples[flat.size :]).all()):
        raise ValueError("samples must be finite, with a finite sum")
    full = (mean, *central(flat, mean, flat.size))
    rows = flat.reshape(batches, per)
    bk = np.empty((4, batches))  # one column of k1..k4 per batch
    bk[0] = np.mean(rows, axis=1)
    step = max(1, _CHUNK // per)
    for lo in range(0, batches, step):
        block = slice(lo, lo + step)
        bk[1:, block] = central(rows[block], bk[0, block, None], per)
    ses = tuple(float(np.std(col, ddof=1) / np.sqrt(batches)) for col in bk)
    values = (*(float(v) for v in full), *ses)
    if not all(map(math.isfinite, values)):
        raise ValueError("central moments of the samples, or their SEs, overflow; rescale them")
    return CumulantVector(*values)


def _check_writable(path: str, what: str) -> None:
    """Raise an ``OSError`` naming ``path`` unless it can be opened for
    writing; called before a run, so a bad path fails before any drawing.
    Append mode creates a missing file and leaves an existing one as it is
    until the final write."""
    with _writing(path, what, "a"):
        pass


def _run_blocks(cfg: ExperimentConfig, law: StepLaw, job: Callable) -> None:
    """Run ``job(cols, states)`` for each block i of up to ``BLOCK_SIZE`` paths
    ``cols``: ``states`` is :func:`rand_core.path_states` over cfg.steps steps
    of ``law`` on stream i, ``BLOCK_SIZE`` draws per call.  Blocks run in parallel
    when cfg.workers > 1; jobs write disjoint slices, and the first exception
    propagates once the running blocks end, the queued ones cancelled."""

    def run(i: int) -> None:
        lo = i * BLOCK_SIZE
        n = min(BLOCK_SIZE, cfg.paths - lo)
        stream = RngStream(cfg.seed, i)
        job(slice(lo, lo + n), path_states([(law, cfg.steps)], cfg.x0, stream, n, BLOCK_SIZE))

    blocks = range(-(-cfg.paths // BLOCK_SIZE))
    if cfg.workers == 1 or len(blocks) == 1:
        for i in blocks:
            run(i)
        return
    # imported here: with logging it is ~6 ms of start-up that one worker never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        for _ in pool.map(run, blocks):
            pass


def simulate_terminal(cfg: ExperimentConfig, law: StepLaw) -> np.ndarray:
    """X(steps * dt) of cfg.paths paths stepped by ``law``, the step law
    ``cfg.validate()`` returned: :func:`export_trajectories`' last row, same draws."""
    out = np.empty(cfg.paths)

    def job(cols: slice, states) -> None:
        for x in states:
            pass
        out[cols] = x

    _run_blocks(cfg, law, job)
    return out


def true_cumulant(cfg: ExperimentConfig, k: int) -> float:
    """Exact-law transition cumulant at the horizon steps * dt."""
    t_end = cfg.steps * cfg.dt
    if cfg.process == "cts-ou":
        return cts_ou.cumulants_ctsou(cfg.process_object(), cfg.x0, t_end, k)
    return ou_cts.cumulants_oucts(cfg.process_object(), cfg.x0, t_end, k)


def target_cumulant(cfg: ExperimentConfig, k: int) -> float:
    """Analytic cumulant of the law the configured method actually samples.

    Equals :func:`true_cumulant` for the exact method.  For the approximate
    steps the step law's increment cumulants accumulate geometrically along
    the recursion X_m = a X_{m-1} + Z.
    """
    if cfg.method == "exact":
        return true_cumulant(cfg, k)
    law = cfg.validate()
    a, m = law.a, cfg.steps
    geom = (1.0 - a ** (k * m)) / (1.0 - a**k)
    val = law.cumulant(k) * geom
    if k == 1:
        val += cfg.x0 * a**m
    return val


def run_experiment(cfg: ExperimentConfig) -> ErrTable:
    """Simulate, estimate cumulants, and emit err% rows against the exact law.

    True values are recomputed from closed forms at output time; they are
    never cached from simulation.  Writes CSV when cfg.out is set.
    Besides :meth:`ExperimentConfig.validate`, a cumulant run needs
    steps >= 1 (at horizon 0 every cumulant is a constant) and
    paths >= batches.
    """
    law = cfg.validate()
    if cfg.steps < 1:
        raise ValueError(f"a cumulant run needs steps >= 1, got {cfg.steps}")
    if cfg.paths < cfg.batches:
        raise ValueError(f"need paths >= batches, got {cfg.paths} < {cfg.batches}")
    if cfg.out:
        _check_writable(cfg.out, "err table")
    samples = simulate_terminal(cfg, law)
    cv = estimate_cumulants(samples, cfg.batches)
    rows = []
    for k in (1, 2, 3, 4):
        truth = true_cumulant(cfg, k)
        est = cv.k(k)
        err = 100.0 * (truth - est) / truth if truth != 0.0 else float("nan")
        rows.append(
            ErrTableRow(cfg.alpha, cfg.dt, cfg.method, k, truth, est, err, cv.se(k))
        )
    table = ErrTable(rows, cv)
    if cfg.out:
        table.to_csv(cfg.out)
    return table


def export_trajectories(cfg: ExperimentConfig) -> str:
    """Write ``cfg.paths`` skeleton paths on the uniform grid dt, 2dt, ..., steps*dt.

    Z in X(t+dt) = a X(t) + Z does not depend on the state, so a block of n
    paths draws the Z of up to ``BLOCK_SIZE // n`` steps per call (see
    :func:`rand_core.path_states`); the CSV is the same for every worker count.

    CSV layout: header ``time,path_0,...,path_{paths-1}``, one row per grid
    time including t = 0.  Returns the output path.
    """
    if not cfg.out:
        raise ValueError("config must set an output file for trajectories")
    law = cfg.validate()
    _check_writable(cfg.out, "trajectories")

    # one table, time column first; each block job fills its own path columns
    table = np.empty((cfg.steps + 1, cfg.paths + 1))
    table[:, 0] = cfg.dt * np.arange(cfg.steps + 1)
    table[0, 1:] = cfg.x0
    paths = table[:, 1:]

    def job(cols: slice, states) -> None:
        for i, x in enumerate(states, 1):
            paths[i, cols] = x

    _run_blocks(cfg, law, job)
    n = cfg.paths + 1
    with _writing(cfg.out, "trajectories") as fh:
        # the header (i = -1) and each row go out in slices of _CHUNK fields,
        # so a line's text never exists whole; float repr is a value's text
        for i in range(-1, cfg.steps + 1):
            for lo in range(0, n, _CHUNK):
                hi = min(lo + _CHUNK, n)
                if i < 0:
                    texts = (f"path_{j - 1}" if j else "time" for j in range(lo, hi))
                else:
                    texts = map(repr, table[i, lo:hi].tolist())
                fh.write(("," if lo else "") + ",".join(texts))
            fh.write("\n")
    return cfg.out


@dataclass(frozen=True)
class ReportEntry:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


@dataclass
class ValidationReport:
    entries: list = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.entries.append(ReportEntry(name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_text(self) -> str:
        lines = [e.line() for e in self.entries]
        lines.append(
            f"overall: {'PASS' if self.passed else 'FAIL'} "
            f"({sum(e.passed for e in self.entries)}/{len(self.entries)} checks)"
        )
        return "\n".join(lines) + "\n"


_REFERENCE_PARAMS = (10.0, 0.8, 1.4)  # (b, c, beta) used across the suite
_VALIDATE_SEED = 1234  # seed of the envelope draws
_ENVELOPE_DRAWS = 10**5  # W draws per envelope cell
_ALPHA_GRID = (0.3, 0.5, 0.7, 0.9)


def _check_prop_identity(report: ValidationReport) -> None:
    from . import levy_core  # the oracles load with the suite, not with the package

    laws = [
        ("gamma", CtsParams(0.0, 1.0, 1.0)),
        ("cts", CtsParams(0.5, 1.4, 0.8)),
    ]
    for name, params in laws:
        triplet = levy_core.LevyTriplet.from_cts(params)
        worst = 0.0
        for a in (0.9, 0.5, 0.1):
            rem = levy_core.aremainder_triplet(triplet, a)
            for u in (0.25, 0.5, 1.0, 2.0, 4.0):
                lhs = levy_core.lk_log_chf(rem, u)
                rhs = levy_core.cts_log_chf(params, u) - levy_core.cts_log_chf(
                    params, a * u
                )
                worst = max(worst, abs(lhs - rhs))
        report.add(
            f"remainder-triplet identity ({name})",
            worst < 1e-6,
            f"max |quadrature - closed form| = {worst:.3e}",
        )


def _check_decomposition_cumulants(report: ValidationReport) -> None:
    from . import levy_core

    worst = 0.0
    for alpha in _ALPHA_GRID:
        for a in (0.9, 0.5, 0.1):
            params = CtsParams(alpha, 1.4, 0.8)
            dec = levy_core.ts_remainder_decompose(params, a)
            law = cts_ou.CtsOuStepLaw(a, dec.scaled, dec.lambda_a, params.beta, -math.log(a))
            for k in (1, 2, 3, 4):
                lhs = law.cumulant(k)
                rhs = (1.0 - a**k) * cts_cumulants(params, k)
                worst = max(worst, abs(lhs / rhs - 1.0))
    report.add(
        "remainder decomposition cumulants",
        worst < 1e-6,
        f"max relative deviation = {worst:.3e}",
    )


def _check_envelopes(report: ValidationReport) -> None:
    b = _REFERENCE_PARAMS[0]
    a_cells = (np.exp(-b / 365.0), np.exp(-b * 30.0 / 365.0), 0.05)
    grid = np.linspace(0.0, 1.0, 1001)
    stream = RngStream(_VALIDATE_SEED, 901)
    for alpha in _ALPHA_GRID:
        for a in a_cells:
            env = ou_cts.build_envelope(alpha, a)
            g_l = np.interp(grid, env.breakpoints, env.f_values)
            gap = float(np.max(ou_cts.f_w_density(grid, a, alpha) - g_l))
            w, made = ou_cts.sample_w(env, a, alpha, stream, _ENVELOPE_DRAWS)
            in_range = bool(np.all((w >= 0.0) & (w <= 1.0)))
            accept = _ENVELOPE_DRAWS / made
            ok = (
                env.total_mass <= ou_cts.DEFAULT_TARGET_G
                and gap <= 0.0
                and accept >= 0.98
                and in_range
            )
            report.add(
                f"envelope alpha={alpha} a={a:.4f}",
                ok,
                f"L={env.segment_count} G_L={env.total_mass:.6f} "
                f"domination gap={gap:.2e} acceptance={accept:.4f}",
            )


def _check_additivity(report: ValidationReport) -> None:
    b, c, beta = _REFERENCE_PARAMS
    for process in PROCESS_KINDS:
        worst = 0.0
        for alpha in _ALPHA_GRID:
            for dt in (1.0 / 365.0, 30.0 / 365.0):
                cfg = ExperimentConfig(process, alpha, beta, c, b, dt, paths=1, seed=0)
                law = cfg.validate()
                for k in (1, 2, 3, 4):
                    worst = max(worst, abs(law.cumulant(k) / true_cumulant(cfg, k) - 1.0))
        report.add(
            f"cumulant additivity ({process})", worst < 1e-6, f"max rel dev = {worst:.3e}"
        )


def _check_limits(report: ValidationReport) -> None:
    b, c, beta = _REFERENCE_PARAMS
    alpha = 0.5

    pc = cts_ou.CtsOuProcess(CtsParams(alpha, beta, c), b)
    lam = cts_ou.step_law(pc, 1e-6).lambda_a
    lim = c * gamma_fn(1.0 - alpha) * b * beta**alpha * 1e-6
    dev1 = abs(lam / lim - 1.0)
    report.add(
        "small-step jump rate, stationary-CTS case",
        dev1 < 1e-3,
        f"lambda/(c G(1-a) b beta^a dt) - 1 = {dev1:.2e}",
    )

    po = ou_cts.OuCtsProcess(CtsParams(alpha, beta, c), b)
    lam = ou_cts.step_law_oucts(po, 1e-4).lambda_a
    lim = c * gamma_fn(1.0 - alpha) * b * beta**alpha * 1e-8 / 2.0
    dev2 = abs(lam / lim - 1.0)
    report.add(
        "small-step jump rate, CTS-driven case",
        dev2 < 1e-3,
        f"2 lambda T/(c G(1-a) b beta^a dt^2) - 1 = {dev2:.2e}",
    )

    a = float(np.exp(-b * 30.0 / 365.0))
    po_small = ou_cts.OuCtsProcess(CtsParams(1e-6, beta, c), b)
    lam = ou_cts._lambda_a(po_small, ou_cts._theta(a, po_small.bdlp.alpha))
    lim = c * np.log(a) ** 2 / (2.0 * po_small.T * b)
    dev3 = abs(lam / lim - 1.0)
    report.add(
        "alpha -> 0 jump rate limit", dev3 < 1e-4, f"relative deviation = {dev3:.2e}"
    )

    worst = 0.0
    for alpha_ in _ALPHA_GRID:
        for a_ in (0.97, 0.44, 0.05):
            g1 = ou_cts.build_envelope(alpha_, a_, force_segments=1).total_mass
            worst = max(worst, abs(g1 - ou_cts.single_chord_mass(a_, alpha_)))
    report.add(
        "single-chord envelope mass identity", worst < 1e-12, f"max dev = {worst:.2e}"
    )


def validate_suite() -> ValidationReport:
    """Run the module invariant checks and return a pass/fail report."""
    report = ValidationReport()
    _check_prop_identity(report)
    _check_decomposition_cumulants(report)
    _check_envelopes(report)
    _check_additivity(report)
    _check_limits(report)
    return report
