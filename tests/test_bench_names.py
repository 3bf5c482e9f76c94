"""The benchmark under ``bench/`` binds library functions by name: the
tracer rebinds every ``(module, name)`` in ``tracing.WRAPPED`` and the
small-batch workload looks its transition samplers up with ``getattr``.
A refactor that renames or deletes one of them breaks the benchmark only
when it runs (the smoke test takes minutes); these checks fail at once.
They load the benchmark modules by path and change nothing in them."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tsousim import ou_cts
from tsousim.rand_core import CtsParams, RngStream

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")


@pytest.mark.parametrize("module,name", [(m.__name__, n) for m, n, _, _ in tracing.WRAPPED])
def test_every_wrapped_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_small_batch_samplers_resolve_and_step(tmp_path):
    work = workloads.SmallBatchWorkload(seed=1, scale=0.01, out_dir=str(tmp_path))
    assert len(work.processes) == 2
    for _, proc, fn_name, module in work.processes:
        x = getattr(module, fn_name)(proc, np.zeros(2), 1.0 / 365.0, RngStream(1), size=2)
        assert x.shape == (2,) and np.all(np.isfinite(x))


def test_envelope_extractor_reads_the_step_law():
    proc = ou_cts.OuCtsProcess(CtsParams(0.5, 1.4, 0.8), 10.0)
    segments, mass = tracing._envelope((), {}, ou_cts.step_law_oucts(proc, 1.0 / 365.0))
    assert segments >= 4 and 1.0 < mass <= ou_cts.DEFAULT_TARGET_G
