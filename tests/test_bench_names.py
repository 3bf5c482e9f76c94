"""The benchmark under ``bench/`` binds library functions by name: the
tracer rebinds every ``(module, name)`` in ``tracing.WRAPPED`` and the
small-batch workload looks its transition samplers up with ``getattr``.
The tracer also classifies each ``sample_cts`` call into a CTS route from
outside, with ``cts_tilting_acceptance`` and ``TILTING_ACCEPTANCE_FLOOR``.
A refactor that renames or deletes one of them, or changes how
``sample_cts`` picks its route, breaks the benchmark only when it runs
(the smoke test takes minutes); these checks fail at once.  They load
the benchmark modules by path and change nothing in them."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tsousim import cts_ou, ou_cts, rand_core
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


ROUTES = {"_gamma_shape_rate": "gamma", "_cts_tilting": "tilting",
          "_tilted_stable_double_rejection": "double-rejection"}


def step_cts(alpha, dt):
    proc = cts_ou.CtsOuProcess(CtsParams(alpha, 1.4, 0.8), 10.0)
    return cts_ou.step_law(proc, dt).x1_params


@pytest.mark.parametrize("params,kernels", [
    (CtsParams(0.0, 1.4, 0.8), ["gamma"]),
    (step_cts(0.5, 1.0 / 365.0), ["tilting"]),
    (step_cts(0.9, 30.0 / 365.0), ["double-rejection"]),  # cumulant-coarse's CTS-OU DR cell
    # cumulant-coarse's OU-CTS alpha 0.5 cell, b dt = 3: p = 0.097, two summands
    (ou_cts.step_law_oucts(ou_cts.OuCtsProcess(CtsParams(0.5, 1.4, 0.8), 10.0), 0.3).x1_params,
     ["tilting", "tilting"]),
], ids=["gamma", "tilting", "double-rejection", "two-summand-tilting"])
def test_tracer_route_is_the_route_sample_cts_takes(params, kernels, monkeypatch):
    taken = []
    for name, label in ROUTES.items():
        def spy(*args, _fn=getattr(rand_core, name), _label=label, **kwargs):
            taken.append(_label)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(rand_core, name, spy)
    args = (params, RngStream(1), 4)
    result = rand_core.sample_cts(*args)
    assert taken == kernels
    assert tracing._cts_route(args, {}, result)[1] == kernels[0]


@pytest.fixture
def tracer():
    # install rebinds names in every traced module; put each one back
    saved = [(m, dict(vars(m))) for m in tracing.MODULES]
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        for module, names in saved:
            for name, value in names.items():
                setattr(module, name, value)


@pytest.mark.parametrize("law,span", [
    (cts_ou.step_law(cts_ou.CtsOuProcess(CtsParams(0.5, 1.4, 0.8), 10.0), 30.0 / 365.0),
     "cts_ou.sample_v_ctsou"),
    (ou_cts.step_law_oucts(ou_cts.OuCtsProcess(CtsParams(0.5, 1.4, 0.8), 10.0), 30.0 / 365.0),
     "ou_cts.sample_v_oucts"),
], ids=["ctsou", "oucts"])
def test_tracer_counts_the_v_draws_of_the_jump_law(law, span, tracer, monkeypatch):
    # the jump law looks its V sampler up by module name at call time, so
    # the tracer's rebinding counts every V the step draws
    jumps = []
    draw = rand_core.StepLaw.draw_jumps

    def counted(law, stream, m):
        jumps.append(m)
        return draw(law, stream, m)

    monkeypatch.setattr(rand_core.StepLaw, "draw_jumps", counted)
    law.sample(0.0, RngStream(3), 64)
    assert len(jumps) == 1 and jumps[0] > 0
    v_spans = [s for s in tracer.spans if s[tracing.NAME].endswith(".sample_v_ctsou")
               or s[tracing.NAME].endswith(".sample_v_oucts")]
    assert [(s[tracing.NAME], s[tracing.INFO]) for s in v_spans] == [(span, jumps[0])]
