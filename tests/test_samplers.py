"""Every public sampler draws arrays: shape (size,), or (M, size) for a
skeleton on M grid times, with size = 1 by default; size=None, a scalar
form the samplers no longer have, is a TypeError."""

import numpy as np
import pytest

from tsousim import (
    CtsOuProcess,
    CtsParams,
    OuCtsProcess,
    RngStream,
    build_envelope,
    sample_cts,
    sample_inverse_gaussian,
    sample_poisson,
    sample_stable_subordinator,
    sample_transition_ctsou,
    sample_transition_oucts,
    sample_v_alpha0,
    sample_v_ctsou,
    sample_v_oucts,
    sample_w,
    simulate_skeleton_ctsou,
    simulate_skeleton_oucts,
    step_law,
    step_law_oucts,
)

LAW = CtsParams(0.5, 1.4, 0.8)
CTSOU = CtsOuProcess(LAW, 10.0)
OUCTS = OuCtsProcess(LAW, 10.0)
GAMMA_OUCTS = OuCtsProcess(CtsParams(0.0, 1.4, 0.8), 10.0)
GRID = [0.1, 0.2, 0.3]
ENV = build_envelope(0.5, 0.44)

# name -> (draw(stream, **size_kw), is a skeleton)
SAMPLERS = {
    "sample_poisson": (lambda s, **kw: sample_poisson(2.0, s, **kw), False),
    "sample_stable_subordinator": (
        lambda s, **kw: sample_stable_subordinator(0.5, s, **kw), False
    ),
    "sample_cts": (lambda s, **kw: sample_cts(LAW, s, **kw), False),
    "sample_cts-double-rejection": (  # tilting acceptance 1e-5
        lambda s, **kw: sample_cts(CtsParams(0.9, 1.4, 0.8), s, **kw), False
    ),
    "sample_cts-gamma": (lambda s, **kw: sample_cts(CtsParams(0.0, 1.4, 0.8), s, **kw), False),
    "sample_inverse_gaussian": (lambda s, **kw: sample_inverse_gaussian(1.0, 2.0, s, **kw), False),
    "StepLaw.sample": (lambda s, **kw: step_law(CTSOU, 0.1).sample(0.0, s, **kw), False),
    "sample_v_ctsou": (lambda s, **kw: sample_v_ctsou(0.44, 0.5, s, **kw), False),
    "sample_v_oucts": (lambda s, **kw: sample_v_oucts(step_law_oucts(OUCTS, 0.1), s, **kw), False),
    "sample_v_oucts-alpha0": (
        lambda s, **kw: sample_v_oucts(step_law_oucts(GAMMA_OUCTS, 0.1), s, **kw), False
    ),
    "sample_v_alpha0": (lambda s, **kw: sample_v_alpha0(0.44, s, **kw), False),
    "sample_w": (lambda s, **kw: sample_w(ENV, 0.44, 0.5, s, **kw)[0], False),
    "sample_transition_ctsou": (
        lambda s, **kw: sample_transition_ctsou(CTSOU, 0.0, 0.1, s, **kw), False
    ),
    "sample_transition_oucts": (
        lambda s, **kw: sample_transition_oucts(OUCTS, 0.0, 0.1, s, **kw), False
    ),
    "simulate_skeleton_ctsou": (
        lambda s, **kw: simulate_skeleton_ctsou(CTSOU, 0.0, GRID, s, **kw), True
    ),
    "simulate_skeleton_oucts": (
        lambda s, **kw: simulate_skeleton_oucts(OUCTS, 0.0, GRID, s, **kw), True
    ),
}


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_sampler_returns_an_array_and_refuses_size_none(name):
    draw, skeleton = SAMPLERS[name]
    for kw, n in (({}, 1), ({"size": 1}, 1), ({"size": 5}, 5)):
        out = draw(RngStream(7, 1), **kw)
        assert isinstance(out, np.ndarray)
        assert out.shape == ((len(GRID), n) if skeleton else (n,))
    with pytest.raises(TypeError):
        draw(RngStream(7, 1), size=None)


@pytest.mark.parametrize("x0,size", [(np.zeros(5), 1), (np.zeros(3), 5), (np.zeros((5, 1)), 5)])
def test_start_array_must_match_size(x0, size):
    # five starts with size 1 gave all five paths one shared increment
    with pytest.raises(ValueError, match="does not match size"):
        sample_transition_ctsou(CTSOU, x0, 0.1, RngStream(7, 3), size)


@pytest.mark.parametrize("size", [0, 1, 5, 1000])
def test_sample_w_counts_its_proposals(size):
    w, proposals = sample_w(ENV, 0.44, 0.5, RngStream(7, 2), size)
    assert w.shape == (size,)
    assert isinstance(proposals, int) and proposals >= size
