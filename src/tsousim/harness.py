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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import cts_ou, levy_core, ou_cts
from ._util import decay
from ._util import gamma as gamma_fn
from .rand_core import CtsParams, RngStream, StepLaw, cts_cumulants

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

    def validate(self, check_batches: bool = True) -> "ExperimentConfig":
        """Parameter-domain checks; ``check_batches=False`` relaxes the
        paths >= batches and steps >= 1 constraints, which only matter for
        cumulant runs (at horizon 0 every cumulant is a constant)."""
        if (self.process, self.method) not in STEP_LAWS:
            raise ValueError(
                f"(process, method) must be one of {list(STEP_LAWS)}, "
                f"got {(self.process, self.method)!r}"
            )
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if check_batches and self.steps < 1:
            raise ValueError(f"a cumulant run needs steps >= 1, got {self.steps}")
        if self.batches < 2:
            raise ValueError(f"need at least 2 batches, got {self.batches}")
        if self.paths < 1:
            raise ValueError(f"need at least one path, got {self.paths}")
        if check_batches and self.paths < self.batches:
            raise ValueError(f"need paths >= batches, got {self.paths} < {self.batches}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        CtsParams(self.alpha, self.beta, self.c)  # parameter-domain check
        RngStream(self.seed)  # seed-range check
        if not (0.0 < self.b < math.inf):
            raise ValueError(f"b must be positive and finite, got {self.b}")
        if not (0.0 < self.T < math.inf):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if self.process == "ou-cts":
            # the CTS part's rate beta/a is infinite once exp(-b dt) underflows
            ou_cts._x1_params(self.process_object(), self.dt, decay(self.b, self.dt))
        return self

    def params(self) -> CtsParams:
        return CtsParams(self.alpha, self.beta, self.c)

    def process_object(self):
        if self.process == "cts-ou":
            return cts_ou.CtsOuProcess(self.params(), self.b)
        return ou_cts.OuCtsProcess(self.params(), self.b, self.T)


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


_CSV_HEADER = "alpha,dt,method,k_order,true,estimated,err_pct,se"


@dataclass
class ErrTable:
    rows: list
    estimated: CumulantVector

    def row(self, k: int) -> ErrTableRow:
        return self.rows[k - 1]

    def to_csv(self, path: str) -> None:
        try:
            with open(path, "w") as fh:
                fh.write(_CSV_HEADER + "\n")
                for r in self.rows:
                    fh.write(
                        f"{r.alpha!r},{r.dt!r},{r.method},{r.k_order},"
                        f"{r.true!r},{r.estimated!r},{r.err_pct!r},{r.se!r}\n"
                    )
        except OSError as exc:
            raise OSError(f"cannot write err table to {path!r}: {exc}") from exc


def _central_cumulants(x: np.ndarray, axis=None):
    # Central moments by in-place products: numpy's float pow takes a scalar
    # path for negative bases (about half of a centred sample) that is some
    # 30 times slower than a multiply.  ``d`` and ``d2`` are fresh arrays, so
    # the in-place updates never write into ``x``.
    m = np.mean(x, axis=axis, keepdims=axis is not None)
    d = x - m
    d2 = d * d
    m2 = np.mean(d2, axis=axis)
    d *= d2  # d**3
    m3 = np.mean(d, axis=axis)
    d2 *= d2  # d**4
    m4 = np.mean(d2, axis=axis)
    k1 = np.squeeze(m, axis=axis) if axis is not None else float(m)
    return k1, m2, m3, m4 - 3.0 * m2 * m2


def estimate_cumulants(samples: np.ndarray, batches: int) -> CumulantVector:
    """Plug-in estimates of k1..k4 with batch standard errors.

    The sample is truncated to a multiple of ``batches``; each batch yields
    its own cumulant estimates, and the SE of each order is the batch
    spread over sqrt(batches).  Central moments are computed with
    multiplications, not ``pow``; ``samples`` is never written to.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    if samples.size < batches:
        raise ValueError(f"need at least {batches} samples, got {samples.size}")
    per = samples.size // batches
    x = samples[: per * batches]
    full = _central_cumulants(x)
    grid = x.reshape(batches, per)
    bk = _central_cumulants(grid, axis=1)
    ses = tuple(float(np.std(col, ddof=1) / np.sqrt(batches)) for col in bk)
    return CumulantVector(*(float(v) for v in full), *ses)


def _check_writable(path: str, what: str) -> None:
    """Raise an ``OSError`` naming ``path`` unless it can be opened for
    writing; called before a run, so a bad path fails before any drawing.
    Append mode creates a missing file and leaves an existing one as it is
    until the final write."""
    try:
        open(path, "a").close()
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path!r}: {exc}") from exc


def _step_law(cfg: ExperimentConfig) -> StepLaw:
    """The configuration's step law over one dt, built once per experiment."""
    return STEP_LAWS[(cfg.process, cfg.method)](cfg.process_object(), cfg)


def _block_layout(paths: int):
    return [(i, min(BLOCK_SIZE, paths - i * BLOCK_SIZE)) for i in range((paths + BLOCK_SIZE - 1) // BLOCK_SIZE)]


def _run_blocks(cfg: ExperimentConfig, job: Callable, paths: int) -> list:
    """Run ``job(block_index, block_size)`` over the block layout, in
    parallel when cfg.workers > 1; results come back in block order."""
    layout = _block_layout(paths)
    if cfg.workers == 1 or len(layout) == 1:
        return [job(i, n) for i, n in layout]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(job, i, n) for i, n in layout]
        return [f.result() for f in futures]


def simulate_terminal(cfg: ExperimentConfig) -> np.ndarray:
    """Terminal values X(steps * dt) of cfg.paths independent paths."""
    cfg.validate()
    step = _step_law(cfg).sample

    def job(block_index: int, n: int) -> np.ndarray:
        stream = RngStream(cfg.seed, block_index)
        x = np.full(n, float(cfg.x0))
        for _ in range(cfg.steps):
            x = step(x, stream, n)
        return x

    return np.concatenate(_run_blocks(cfg, job, cfg.paths))


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
    law = _step_law(cfg)
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
    """
    cfg.validate()
    if cfg.out:
        _check_writable(cfg.out, "err table")
    samples = simulate_terminal(cfg)
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

    The increment Z of X(t+dt) = a X(t) + Z does not depend on the state,
    so each block draws the increments of a chunk of up to
    ``BLOCK_SIZE // n`` steps in one call of the step law and then runs
    the recursion.  Chunks depend only on the block size, so the output is
    the same for every worker count.

    CSV layout: header ``time,path_0,...,path_{paths-1}``, one row per grid
    time including t = 0.  Returns the output path.
    """
    if not cfg.out:
        raise ValueError("config must set an output file for trajectories")
    cfg.validate(check_batches=False)
    _check_writable(cfg.out, "trajectories")
    law = _step_law(cfg)

    def job(block_index: int, n: int) -> np.ndarray:
        stream = RngStream(cfg.seed, block_index)
        rows = np.empty((cfg.steps + 1, n))
        rows[0] = cfg.x0
        chunk = max(1, BLOCK_SIZE // n)
        for start in range(0, cfg.steps, chunk):
            m = min(chunk, cfg.steps - start)
            z = law.sample(0.0, stream, m * n).reshape(m, n)
            for i in range(start, start + m):
                rows[i + 1] = law.a * rows[i] + z[i - start]
        return rows

    blocks = _run_blocks(cfg, job, cfg.paths)
    times = cfg.dt * np.arange(cfg.steps + 1)
    table = np.column_stack([times, *blocks])
    try:
        with open(cfg.out, "w") as fh:
            fh.write("time," + ",".join(f"path_{j}" for j in range(cfg.paths)) + "\n")
            # tolist() gives Python floats, whose repr is the row's text; one
            # row at a time, as a list of the whole table would raise peak RSS
            for row in table:
                fh.write(",".join(map(repr, row.tolist())) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trajectories to {cfg.out!r}: {exc}") from exc
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
            gap = float(np.max(ou_cts.f_w_density(grid, a, alpha) - env.value(grid)))
            w, made = ou_cts._sample_w(env, a, alpha, stream, _ENVELOPE_DRAWS)
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
                cfg = ExperimentConfig(process, alpha, beta, c, b, dt, paths=0, seed=0)
                law = _step_law(cfg)
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
    lam = ou_cts._lambda_a(po_small, a)
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
