"""Acceptance suite.

Each test below implements one acceptance criterion at its stated
tolerance and prints one `[ACCEPTANCE] criterion N` pass/fail line
(run with ``pytest tests/test_acceptance.py -s`` to see them).

Monte Carlo criteria use the pre-registered seed policy below; seeds are
fixed per cell and not tuned.  Every statistical gate is reported per
cell together with its measured z-scores and err% values, so a red line
identifies exactly which sub-gate fired.  Criteria 4-7 assert on the
entries of one ``validate_suite()`` report, which computes those checks.
"""

import time

import numpy as np
import pytest
from scipy import stats

from tsousim import ou_cts
from tsousim.harness import ExperimentConfig, run_experiment, validate_suite
from tsousim.cli import main as cli_main
from tsousim.rand_core import CtsParams, RngStream

B, C, BETA = 10.0, 0.8, 1.4
ALPHAS = (0.3, 0.5, 0.7, 0.9)
DTS = (1.0 / 365.0, 30.0 / 365.0)
PATHS = 10**6
BATCHES = 100
SEED = 20260810  # fixed before any acceptance run; cell seeds derive from it
RUNTIME_TARGET_S = 60.0

ERR_GATES_PCT = {1: 1.0, 2: 1.0, 3: 5.0, 4: 15.0}


def announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


def run_cumulant_cells(process: str):
    """Returns (bias failures: |z|>4 or runtime, err% gate failures)."""
    bias_failures, err_failures = [], []
    for i_a, alpha in enumerate(ALPHAS):
        for i_dt, dt in enumerate(DTS):
            seed = SEED + 1000 * (0 if process == "cts-ou" else 1) + 10 * i_a + i_dt
            cfg = ExperimentConfig(
                process=process, alpha=alpha, beta=BETA, c=C, b=B,
                dt=dt, paths=PATHS, seed=seed, batches=BATCHES,
            )
            t0 = time.perf_counter()
            table = run_experiment(cfg)
            elapsed = time.perf_counter() - t0
            cell = f"{process} alpha={alpha} dt={dt:.6f}"
            bits = []
            for row in table.rows:
                z = abs(row.estimated - row.true) / row.se
                bits.append(f"k{row.k_order} err%={row.err_pct:+.3f} z={z:.2f}")
                if z > 4.0:
                    bias_failures.append(f"{cell}: k{row.k_order} off by {z:.2f} SE")
                if abs(row.err_pct) > ERR_GATES_PCT[row.k_order]:
                    err_failures.append(
                        f"{cell}: |err%|={abs(row.err_pct):.3f} over the "
                        f"{ERR_GATES_PCT[row.k_order]}% gate for k{row.k_order} "
                        f"(z={z:.2f}, 1 SE = {100.0 * row.se / row.true:.2f}% of truth)"
                    )
            if elapsed > RUNTIME_TARGET_S:
                bias_failures.append(f"{cell}: runtime {elapsed:.1f}s over target")
            print(f"  {cell} [{elapsed:.1f}s] " + "; ".join(bits))
    return bias_failures, err_failures


def _cumulant_criterion(num: int, name: str, process: str):
    bias_failures, err_failures = run_cumulant_cells(process)
    failures = bias_failures + err_failures
    if failures and not bias_failures:
        detail = (
            f"all 64 four-SE gates pass (no bias); {len(err_failures)} fixed err% "
            "gate hits, each within sampling noise of an unbiased estimator "
            "(the k2..k4 noise floor at 1e6 paths exceeds the fine-step gates)"
        )
    elif failures:
        detail = f"{len(failures)} gate hits incl. bias/runtime: " + "; ".join(bias_failures)
    else:
        detail = "all cells clean"
    announce(num, name, not failures, detail)
    assert not failures, "\n".join(failures)


def test_criterion_1_ctsou_cumulants():
    _cumulant_criterion(1, "stationary-CTS cumulant reproduction", "cts-ou")


def test_criterion_2_oucts_cumulants():
    _cumulant_criterion(2, "CTS-driven cumulant reproduction", "ou-cts")


def test_criterion_3_approximation_degradation():
    proc = ou_cts.OuCtsProcess(CtsParams(0.5, BETA, C), B)
    dt_fine, dt_coarse = DTS
    failures = []

    approx_laws = {"x1-only": ou_cts.x1_only_law, "scaled-bdlp": ou_cts.scaled_bdlp_law}

    # analytic second-cumulant bias at the coarse step exceeds 5%
    for label, make_law in approx_laws.items():
        bias = abs(1.0 - make_law(proc, dt_coarse).cumulant(2)
                   / ou_cts.cumulants_oucts(proc, 0.0, dt_coarse, 2))
        print(f"  {label}: analytic k2 bias at dt=30/365 is {100*bias:.1f}%")
        if bias <= 0.05:
            failures.append(f"{label}: coarse-step analytic k2 bias {bias:.3f} <= 5%")

    # coarse step: each approximation matches its own law but not the exact one
    for j, method in enumerate(("x1-only", "scaled-bdlp")):
        cfg = ExperimentConfig(
            process="ou-cts", alpha=0.5, beta=BETA, c=C, b=B, dt=dt_coarse,
            paths=PATHS, seed=SEED + 2000 + j, batches=BATCHES, method=method,
        )
        table = run_experiment(cfg)
        law = approx_laws[method](proc, dt_coarse)
        for row in table.rows:
            own = law.cumulant(row.k_order)
            z_own = abs(row.estimated - own) / row.se
            if z_own > 4.0:
                failures.append(f"{method} coarse: k{row.k_order} {z_own:.1f} SE from its own target")
        z_exact_k2 = abs(table.row(2).estimated - table.row(2).true) / table.row(2).se
        print(f"  {method} at dt=30/365: z(own k2)="
              f"{abs(table.row(2).estimated - law.cumulant(2)) / table.row(2).se:.2f}, "
              f"z(exact k2)={z_exact_k2:.1f}")
        if z_exact_k2 <= 4.0:
            failures.append(f"{method} coarse: exact-law gate not violated (z={z_exact_k2:.1f})")

    # fine step: both approximations inside a relaxed 3% gate on k1, k2.
    # The gate is on the analytic bias of each approximation's law (the MC
    # noise of k2 alone is ~4% of its value at 10^6 paths, so a gate on the
    # raw estimate would fire on noise); measured err% is reported alongside.
    for j, method in enumerate(("x1-only", "scaled-bdlp")):
        law = approx_laws[method](proc, dt_fine)
        cfg = ExperimentConfig(
            process="ou-cts", alpha=0.5, beta=BETA, c=C, b=B, dt=dt_fine,
            paths=PATHS, seed=SEED + 2100 + j, batches=BATCHES, method=method,
        )
        table = run_experiment(cfg)
        for k in (1, 2):
            bias_pct = 100.0 * abs(
                1.0 - law.cumulant(k) / ou_cts.cumulants_oucts(proc, 0.0, dt_fine, k)
            )
            z_own = abs(table.row(k).estimated - law.cumulant(k)) / table.row(k).se
            print(
                f"  {method} at dt=1/365: k{k} analytic bias {bias_pct:.2f}%, "
                f"MC err% vs exact {table.row(k).err_pct:+.3f} (z vs own law {z_own:.2f})"
            )
            if bias_pct > 3.0:
                failures.append(f"{method} fine: k{k} analytic bias {bias_pct:.2f}% over the 3% gate")
            if z_own > 4.0:
                failures.append(f"{method} fine: k{k} {z_own:.1f} SE from its own law")

    announce(3, "approximation degradation", not failures,
             "; ".join(failures) if failures else "biased at 30/365, usable at 1/365")
    assert not failures, "\n".join(failures)


@pytest.fixture(scope="module")
def report():
    return validate_suite()


def _report_criterion(num: int, name: str, report, names, detail: str, failures=()) -> None:
    """Announce criterion ``num``, which passes when ``failures`` is empty and every
    named ``validate`` entry exists and passes; print each entry's line under it."""
    entries = {e.name: e for e in report.entries}
    lines = [entries[n].line() for n in names if n in entries]
    failures = [*failures, *(f"no validate entry {n!r}" for n in names if n not in entries)]
    failures += [line for line in lines if line.startswith("[FAIL]")]
    announce(num, name, not failures, "; ".join(failures) or detail)
    print("".join(f"  {line}\n" for line in lines), end="")
    assert not failures, "\n".join(failures)


def test_criterion_4_envelope_efficiency(report):
    a_cells = (np.exp(-B / 365.0), np.exp(-B * 30.0 / 365.0), 0.05)
    names = [f"envelope alpha={alpha} a={a:.4f}" for alpha in ALPHAS for a in a_cells]
    _report_criterion(4, "envelope efficiency", report, names,
                      "G_L <= 1.01 and acceptance >= 0.98 on all 12 cells")


def test_criterion_5_remainder_triplet_identity(report):
    names = [f"remainder-triplet identity ({law})" for law in ("gamma", "cts")]
    _report_criterion(5, "remainder triplet identity", report, names, "deviations < 1e-6")


def test_criterion_6_cumulant_additivity(report):
    names = [f"cumulant additivity ({process})" for process in ("cts-ou", "ou-cts")]
    _report_criterion(6, "cumulant additivity oracles", report, names, "rel devs < 1e-6")


def test_criterion_7_alpha_zero_limits(report):
    # the dt = 30/365 rate cell is validate's "alpha -> 0 jump rate limit"
    proc = ou_cts.OuCtsProcess(CtsParams(1e-6, BETA, C), B)
    failures = []
    a = float(np.exp(-B * DTS[0]))
    lam = ou_cts._lambda_a(proc, ou_cts._theta(a, proc.bdlp.alpha))
    dev = abs(lam / (C * np.log(a) ** 2 / (2.0 * proc.T * B)) - 1.0)
    print(f"  dt={DTS[0]:.6f}: jump-rate relative deviation {dev:.2e}")
    if dev > 1e-4:
        failures.append(f"dt={DTS[0]:.6f}: rate deviation {dev:.2e} over 1e-4")

    a = float(np.exp(-B * DTS[1]))
    law = ou_cts.step_law_oucts(proc, DTS[1])
    v_small = ou_cts.sample_v_oucts(law, RngStream(SEED + 4000, 1), size=10**5)
    v_zero = ou_cts.sample_v_alpha0(a, RngStream(SEED + 4000, 2), size=10**5)
    p = stats.ks_2samp(v_small, v_zero).pvalue
    print(f"  two-sample KS p-value alpha=1e-6 vs limit law: {p:.4f}")
    if p <= 0.01:
        failures.append(f"KS p={p:.4f} <= 0.01")
    _report_criterion(7, "alpha -> 0 limits", report, ["alpha -> 0 jump rate limit"],
                      f"KS p={p:.3f}", failures)


def test_criterion_8_determinism(tmp_path):
    failures = []
    base = [
        "--beta", str(BETA), "--c", str(C), "--b", str(B),
        "--alpha", "0.5", "--seed", str(SEED + 5000),
    ]

    # identical CSVs across repeated runs and across worker counts {1, 4}
    cum_files = []
    for tag, workers in (("w1a", 1), ("w1b", 1), ("w4", 4)):
        out = tmp_path / f"cum_{tag}.csv"
        rc = cli_main([
            "cumulants", *base, "--process", "ou-cts", "--dt", "0.01",
            "--paths", "200000", "--batches", "50",
            "--workers", str(workers), "--out", str(out),
        ])
        assert rc == 0
        cum_files.append(out.read_bytes())
    if not (cum_files[0] == cum_files[1] == cum_files[2]):
        failures.append("cumulant CSVs differ across runs/worker counts")

    traj_files = []
    for tag, workers in (("a", 1), ("b", 4)):
        out = tmp_path / f"traj_{tag}.csv"
        rc = cli_main([
            "simulate", *base, "--process", "cts-ou", "--dt", "0.002739726",
            "--steps", "20", "--paths", "5",
            "--workers", str(workers), "--out", str(out),
        ])
        assert rc == 0
        traj_files.append(out.read_bytes())
    if traj_files[0] != traj_files[1]:
        failures.append("trajectory CSVs differ between worker counts")

    announce(8, "determinism", not failures,
             "; ".join(failures) if failures else "byte-identical CSVs (reruns and workers 1 vs 4)")
    assert not failures, "\n".join(failures)
