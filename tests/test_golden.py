"""Golden-output test: SHA-256 hashes of fixed-seed outputs.

Each case below produces bytes (a CLI CSV, a skeleton array or the
validation report) from fixed seeds and compares their SHA-256 hash with
a recorded value.  A refactor of the samplers must leave every hash
unchanged; a hash that moves means some draw changed, even in its last
bit.  The cases cover both processes on the tilting route (alpha 0.5),
the gamma special cases (alpha 0), the double-rejection route (alpha 0.9
at coarse steps, including an OU-CTS step with 16 chords and about 14
jumps), both approximate methods and the validation report, whose
acceptance values come from the proposal counter of the envelope
sampler.

The cumulant CSV hashes also pin the estimator's arithmetic: how the
central moments are formed decides the last bits of the estimates and
their standard errors.  The ``validate-report`` hash pins the proposal
counts of the envelope draws on stream 901.

The hashes assume numpy 2.4.6: they pin its Philox bit stream and the
ziggurat normal, exponential and gamma generators built on it.  Another
numpy version may legitimately produce different bytes.
"""

import hashlib

import numpy as np
import pytest

from tsousim.cli import main
from tsousim.cts_ou import CtsOuProcess, simulate_skeleton_ctsou
from tsousim.ou_cts import OuCtsProcess, simulate_skeleton_oucts
from tsousim.rand_core import CtsParams, RngStream

PARAMS = ["--beta", "1.4", "--c", "0.8", "--b", "10", "--x0", "0"]
DAY = repr(1.0 / 365.0)
MONTH = repr(30.0 / 365.0)


def _cli_csv(tmp_path, command, process, alpha, dt, steps, paths, seed, *extra):
    out = tmp_path / "out.csv"
    argv = [
        command, "--process", process, "--alpha", alpha, *PARAMS, "--dt", dt,
        "--steps", str(steps), "--paths", str(paths), "--seed", str(seed),
        "--out", str(out), *extra,
    ]
    assert main(argv) == 0
    return out.read_bytes()


def _simulate(process, alpha, dt, steps, paths, seed):
    return lambda tmp_path: _cli_csv(tmp_path, "simulate", process, alpha, dt, steps, paths, seed)


def _cumulants(method, alpha, seed):
    return lambda tmp_path: _cli_csv(
        tmp_path, "cumulants", "ou-cts", alpha, MONTH, 3, 4000, seed,
        "--method", method, "--batches", "20",
    )


def _skeleton(kind, size):
    def run(tmp_path):
        params = CtsParams(0.5, 1.4, 0.8)
        grid = [i / 365 for i in range(1, 366)]
        if kind == "cts-ou":
            out = simulate_skeleton_ctsou(CtsOuProcess(params, 10.0), 0.0, grid, RngStream(42, 0), size)
        else:
            out = simulate_skeleton_oucts(OuCtsProcess(params, 10.0), 0.0, grid, RngStream(42, 0), size)
        return np.ascontiguousarray(out, dtype=np.float64).tobytes()

    return run


def _validate(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["validate", "--out", str(out)]) == 0
    return out.read_bytes()


CASES = {
    "simulate-ctsou-alpha0.5-day": (
        _simulate("cts-ou", "0.5", DAY, 30, 8, 11),
        "a75baa9f435cc1d0dc451dd6015a3cd8c455d6fc1eac108d649b17b80ffa161a",
    ),
    "simulate-ctsou-alpha0-day": (
        _simulate("cts-ou", "0", DAY, 30, 8, 12),
        "fc4bdb565a15c16dc8ad806d36f87537ec0c90fee1f07a61d69766d554f3a5f0",
    ),
    "simulate-oucts-alpha0.5-day": (
        _simulate("ou-cts", "0.5", DAY, 30, 8, 13),
        "0e297f086569539b01f732d4da65233eac26edd2c62f9ca90a2b2ca512d60bf7",
    ),
    "simulate-oucts-alpha0-day": (
        _simulate("ou-cts", "0", DAY, 30, 8, 14),
        "67bfa856ed14d7dedb70ecc11c3c0e87666d1d76e92b5a34930982ff0a0df281",
    ),
    "simulate-ctsou-alpha0.9-month": (
        _simulate("cts-ou", "0.9", MONTH, 12, 64, 15),
        "f4ac96bbdbd3f34cdd971eaf34839212d22ab247d916af7839cc909691016f56",
    ),
    "simulate-oucts-alpha0.9-wide": (
        _simulate("ou-cts", "0.9", "0.3", 10, 64, 16),
        "87c82a7ec708a15ea6bdfee134e5990cb0f5938fde0ce31ce7f112a8524208d5",
    ),
    "cumulants-x1-only": (
        _cumulants("x1-only", "0.5", 17),
        "3637c0bc0c2d6a07cb1e2777a3242b6fcaf2df8a7bfa3c7a4c6dd2936528247d",
    ),
    "cumulants-scaled-bdlp": (
        _cumulants("scaled-bdlp", "0.5", 18),
        "ae8bf1d725861da7eb850bae080a48f44b28f9ebc0ccdd617f3daff93b3044e4",
    ),
    "skeleton-ctsou": (
        _skeleton("cts-ou", None),
        "f63c15657440f3bb49fbd6e116565852278121a8ff2c05119556aa535f45c92b",
    ),
    "skeleton-oucts": (
        _skeleton("ou-cts", 4),
        "a0c06d44fddf95bfd6239fd235792cd13603a80bd5d5cd9b23b1b01284d9fcf7",
    ),
    "validate-report": (
        _validate,
        "a71454dbc5f1ec329927bf91c076faebbe605ffc4f9919a27e32d8a0fd1f915c",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hash(name, tmp_path):
    produce, want = CASES[name]
    got = hashlib.sha256(produce(tmp_path)).hexdigest()
    assert got == want, f"{name}: output bytes changed (sha256 {got})"
