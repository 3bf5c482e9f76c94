"""Start-up footprint: tsousim runs on numpy alone and loads no scipy module.

Gamma is a port of Cephes (``_util.gamma``) and the Levy-Khintchine
oracle integrates with its own Gauss-Kronrod rule (``levy_core._quad``),
so neither importing tsousim, nor sampling, nor the validation suite
loads scipy.special (about 26 MB of RSS and 0.3 s of start-up) or
scipy.integrate (another 26 MB and 0.2 s).  Each case runs in a fresh
interpreter, since this test process has loaded scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import sys
import numpy as np
from tsousim import harness
from tsousim.cts_ou import CtsOuProcess, sample_transition_ctsou, simulate_skeleton_ctsou
from tsousim.ou_cts import OuCtsProcess, sample_transition_oucts, simulate_skeleton_oucts
from tsousim.rand_core import CtsParams, RngStream
"""

STAGES = {
    "import": "import tsousim",
    # every (process, method) pair on the gamma and double-rejection routes,
    # with 16-chord envelopes and about 14 jumps per OU-CTS transition
    "run-experiment": """
for process, method in harness.STEP_LAWS:
    for alpha in (0.0, 0.9):
        cfg = harness.ExperimentConfig(
            process, alpha, 1.4, 0.8, 10.0, 0.3, paths=200, seed=1,
            steps=2, method=method, batches=10,
        )
        harness.run_experiment(cfg)
""",
    "export-trajectories": """
for process in harness.PROCESS_KINDS:
    cfg = harness.ExperimentConfig(
        process, 0.5, 1.4, 0.8, 10.0, 1.0 / 365.0, paths=4, seed=2, steps=5,
        out=process + ".csv",
    )
    harness.export_trajectories(cfg, count=cfg.paths)
""",
    "transitions": """
for alpha in (0.0, 0.9):
    params = CtsParams(alpha, 1.4, 0.8)
    stream = RngStream(3, 0)
    sample_transition_ctsou(CtsOuProcess(params, 10.0), 0.0, 0.3, stream, 16)
    sample_transition_oucts(OuCtsProcess(params, 10.0), 0.0, 0.3, stream, 16)
    simulate_skeleton_ctsou(CtsOuProcess(params, 10.0), 0.0, [0.1, 0.4], stream, 4)
    simulate_skeleton_oucts(OuCtsProcess(params, 10.0), 0.0, [0.1, 0.4], stream, 4)
""",
}

ORACLES = """
from tsousim.levy_core import LevyTriplet, lk_log_chf
lk_log_chf(LevyTriplet.from_cts(CtsParams(0.5, 1.4, 0.8)), 1.0)
assert harness.validate_suite().passed
"""


def _scipy_modules(code: str, cwd: Path) -> str:
    script = PRELUDE + code + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_sampling_loads_no_scipy(stage, tmp_path):
    assert _scipy_modules(STAGES[stage], tmp_path) == "[]"


def test_oracles_load_no_scipy(tmp_path):
    assert _scipy_modules(ORACLES, tmp_path) == "[]"
