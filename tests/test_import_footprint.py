"""Start-up footprint: tsousim runs on numpy alone, and sampling loads only
what it runs.

Gamma is a port of Cephes (``_util.gamma``) and the Levy-Khintchine
oracle integrates with its own Gauss-Kronrod rule (``levy_core._quad``),
so neither importing tsousim, nor sampling, nor the validation suite
loads scipy.special (about 26 MB of RSS and 0.3 s of start-up) or
scipy.integrate (another 26 MB and 0.2 s).

Three more things load on first use, since a one-worker sampling run
never touches them: the Levy-triplet oracle module ``tsousim.levy_core``
(imported by the validation suite), ``concurrent.futures`` with its
``logging`` stack (imported by a run with more than one worker) and
``numpy.polynomial`` (the Gauss-Legendre rule of the jump-moment
quadrature, built on its first call).  Each case runs in a fresh
interpreter, since this test process has loaded all of them already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# loaded on first use only; the cases below print which of them (and which
# scipy modules) a fresh process holds at its end
LAZY = ("tsousim.levy_core", "concurrent.futures", "numpy.polynomial")

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
    "cli": "from tsousim import cli, harness",
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
    harness.export_trajectories(cfg)
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

# the suite imports the oracle module itself; its additivity check's jump
# moments build the Gauss-Legendre rule
ORACLES = """
assert "tsousim.levy_core" not in sys.modules
assert harness.validate_suite().passed
assert "tsousim.levy_core" in sys.modules
from tsousim.levy_core import LevyTriplet, lk_log_chf
lk_log_chf(LevyTriplet.from_cts(CtsParams(0.5, 1.4, 0.8)), 1.0)
"""

# three blocks on two threads, against the one-worker draws of the same blocks
TWO_WORKERS = """
harness.BLOCK_SIZE = 1000
cfg = harness.ExperimentConfig("ou-cts", 0.5, 1.4, 0.8, 10.0, 0.3, paths=2500, seed=4)
one = harness.simulate_terminal(cfg, cfg.validate())
cfg.workers = 2
assert "concurrent.futures" not in sys.modules
assert harness.simulate_terminal(cfg, cfg.validate()).tobytes() == one.tobytes()
"""


def _loaded(code: str, cwd: Path) -> str:
    """The scipy modules and the ``LAZY`` ones that a fresh interpreter holds
    after the prelude and ``code``, as the text of a sorted list."""
    script = PRELUDE + code + (
        f"\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in {LAZY!r}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_one_worker_sampling_loads_only_what_it_runs(stage, tmp_path):
    assert _loaded(STAGES[stage], tmp_path) == "[]"


def test_oracles_load_no_scipy(tmp_path):
    assert _loaded(ORACLES, tmp_path) == "['numpy.polynomial', 'tsousim.levy_core']"


def test_two_worker_run_loads_the_thread_pool_and_draws_the_same(tmp_path):
    assert _loaded(TWO_WORKERS, tmp_path) == "['concurrent.futures']"
