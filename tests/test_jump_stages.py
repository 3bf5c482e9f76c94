"""Pins of the two jump stages against whole-array references.

The gamma stage (``rand_core._gamma_shape_rate``) and the chord-envelope
W sampler (``ou_cts.sample_w``) hold as little of their input size as
they can and draw in blocks of ``rand_core._CHUNK``.  The references
below hold every intermediate array whole.  For sizes on either side of
a block boundary, and for every segment-index width of the envelope:

- both stages give the same doubles as their reference, bit for bit,
  and leave the stream at the same place;
- the gamma stage divides each gamma by its rate before the shape < 1
  boost multiplies it by U**(1/shape).  A second reference boosts first
  and divides last, ``(G * U**(1/shape)) / rate``.  It draws the same
  variates in the same stream order, so the stage leaves the stream where
  it does, each jump lies within 4 ulp of it (two roundings on each
  side), and at shape >= 1, with no boost, the two are bit for bit equal.

``StepLaw``'s jump law, Gamma(1-alpha, jump_beta*V) with V = a^-W, is
checked on its own through a toy law that supplies only W (uniform).

``StepLaw.increments`` draws a call's jumps in chunks of at most
``rand_core._JUMP_CHUNK``.  A call of at most one chunk gives the bytes of
the whole-array reference, which draws every jump at once; a longer call
gives those of a reference that draws chunk by chunk and sums each chunk
per path over the jumps it holds.  On the two heavy coarse steps the
chunked increments and the whole-array ones pass a two-sample KS test.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from _helpers import two_array_segment_sums
from tsousim import rand_core
from tsousim._util import gamma as gamma_fn
from tsousim.cts_ou import CtsOuProcess, step_law
from tsousim.ou_cts import OuCtsProcess, build_envelope, f_w_density, sample_w, step_law_oucts
from tsousim.rand_core import (
    _CHUNK,
    _JUMP_CHUNK,
    CtsParams,
    RngStream,
    StepLaw,
    _gamma_shape_rate,
    _rejection_loop,
)

SIZES = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17)
A, ALPHA = float(np.exp(-3.0)), 0.9  # the coarse OU-CTS step, b dt = 3


def gamma_reference(stream, shape, rate, n):
    # shape-boosting G / rate * U**(1/shape), the n gammas before the n uniforms
    g = stream.gen
    boost = shape < 1.0
    x = g.standard_gamma(shape + 1.0 if boost else shape, size=n)
    x /= rate
    if boost:
        u = g.random(n)
        u **= 1.0 / shape
        x *= u
    return x


def gamma_reference_rate_last(stream, shape, rate, n):
    # the same variates rounded as G * U**(1/shape) / rate
    g = stream.gen
    if shape >= 1.0:
        x = g.standard_gamma(shape, size=n)
    else:
        x = g.standard_gamma(shape + 1.0, size=n)
        u = g.random(n)
        u **= 1.0 / shape
        x *= u
    x /= rate
    return x


def w_reference(envelope, a, alpha, stream, size):
    # every proposal's segment uniform and offset uniform drawn whole
    g = stream.gen
    bp, fv, slopes = envelope.breakpoints, envelope.f_values, envelope.slopes
    masses, cum = envelope.masses, envelope.cum_probabilities

    def propose(m):
        env = g.random(m)
        w = g.random(m)
        accept = np.empty(m, dtype=bool)
        for lo in range(0, m, _CHUNK):
            e, u = env[lo : lo + _CHUNK], w[lo : lo + _CHUNK]
            seg = np.searchsorted(cum, e, side="right")
            y0, sl, q = fv[seg], slopes[seg], masses[seg]
            s = 2.0 * u * q / (y0 + np.sqrt(y0 * y0 + 2.0 * sl * u * q))
            np.add(sl * s, y0, out=e)
            np.add(s, bp[seg], out=u)
            r = g.random(u.size)
            r *= e
            np.less_equal(r, f_w_density(u, a, alpha), out=accept[lo : lo + _CHUNK])
        return w, accept

    return _rejection_loop(propose, size, "envelope rejection")


def _rates(n, seed):
    # mixing factors on [1, 20] times a tempering rate, as the jump stages pass them
    return 1.4 * (1.0 + 19.0 * RngStream(seed, 7).gen.random(n))


def _tail(stream):
    return stream.gen.random(16)


def assert_gamma_matches(shape, n, seed):
    # the jump stages' array of rates, and sample_cts's scalar rate at alpha = 0
    for rate in (_rates(n, seed), 1.4):
        s_lib, s_ref, s_last = RngStream(seed, 8), RngStream(seed, 8), RngStream(seed, 8)
        got = _gamma_shape_rate(s_lib, shape, np.copy(rate), n)
        want = gamma_reference(s_ref, shape, np.copy(rate), n)
        last = gamma_reference_rate_last(s_last, shape, np.copy(rate), n)
        assert got.tobytes() == want.tobytes()
        tail = _tail(s_lib).tobytes()
        assert tail == _tail(s_ref).tobytes() == _tail(s_last).tobytes()
        # nonnegative doubles order like their bit patterns: this is the ulp distance
        assert np.abs(got.view(np.int64) - last.view(np.int64)).max() <= 4
        if shape >= 1.0:
            assert got.tobytes() == last.tobytes()


def assert_w_matches(envelope, n, seed):
    s_lib, s_ref = RngStream(seed, 9), RngStream(seed, 9)
    got, got_proposals = sample_w(envelope, A, ALPHA, s_lib, n)
    want, want_proposals = w_reference(envelope, A, ALPHA, s_ref, n)
    assert got.tobytes() == want.tobytes()
    assert got_proposals == want_proposals
    assert _tail(s_lib).tobytes() == _tail(s_ref).tobytes()


@pytest.mark.parametrize("shape", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("n", SIZES)
def test_gamma_stage_matches_whole_array_reference(shape, n):
    assert_gamma_matches(shape, n, seed=60)


# 16 chords is the coarse step's own envelope; 256 / 257 and 65 537 chords
# put the largest segment index at the edge of each index width
@pytest.mark.parametrize("segments", [None, 1, 256, 257, 65537])
@pytest.mark.parametrize("n", SIZES)
def test_w_sampler_matches_whole_array_reference(segments, n):
    assert_w_matches(build_envelope(ALPHA, A, force_segments=segments), n, seed=61)


COARSE_ENVELOPE = build_envelope(ALPHA, A)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    n=st.integers(1, 5 * _CHUNK),
    shape=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_jump_stages_match_references_at_any_size(n, shape, seed):
    assert_gamma_matches(shape, n, seed)
    assert_w_matches(COARSE_ENVELOPE, n, seed)


@dataclass(frozen=True)
class UniformWLaw(StepLaw):
    """A law that supplies only its W: uniform on [0, 1], so V = a^-U."""

    jump_beta: float

    def draw_v(self, stream, m):
        v = stream.gen.random(m)
        v *= -math.log(self.a)
        return np.exp(v, out=v)

    def f_w(self, w):
        return np.ones_like(w)


def uniform_w_law(alpha, b_dt):
    return UniformWLaw(math.exp(-b_dt), CtsParams(alpha, 1.4, 0.8), 1.0, 1.4)


LAWS = [(0.3, 0.5), (0.5, 3.0), (0.9, 30.0)]  # (alpha, b dt): one to six quadrature intervals


@pytest.mark.parametrize("alpha,b_dt", LAWS)
@pytest.mark.parametrize("n", [1, 3 * _CHUNK + 17])
def test_jumps_match_whole_array_reference(alpha, b_dt, n):
    law = uniform_w_law(alpha, b_dt)
    s_lib, s_ref = RngStream(62, 1), RngStream(62, 1)
    got = law.draw_jumps(s_lib, n)
    v = np.exp(s_ref.gen.random(n) * -math.log(law.a))
    want = gamma_reference(s_ref, 1.0 - alpha, law.jump_beta * v, n)
    assert got.tobytes() == want.tobytes()
    assert _tail(s_lib).tobytes() == _tail(s_ref).tobytes()


@pytest.mark.parametrize("alpha,b_dt", LAWS)
def test_jump_moment_matches_closed_form(alpha, b_dt):
    # int_0^1 a^(k w) dw = (1 - a^k) / (-k log a)
    law = uniform_w_law(alpha, b_dt)
    for k in (1, 2, 3, 4):
        mix = -math.expm1(-k * b_dt) / (k * b_dt)
        want = gamma_fn(1.0 - alpha + k) / (gamma_fn(1.0 - alpha) * law.jump_beta**k) * mix
        assert law.jump_moment(k) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha,b_dt", LAWS)
def test_jump_mean_within_4_se_of_the_first_moment(alpha, b_dt):
    law = uniform_w_law(alpha, b_dt)
    x = law.draw_jumps(RngStream(62, 2), 10**5)
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - law.jump_moment(1)) < 4.0 * se


def whole_array_increments(law, stream, size):
    # the CTS part, the Poisson counts, then every jump of the call at once
    z = rand_core.sample_cts(law.x1_params, stream, size)
    counts = rand_core.sample_poisson(law.lambda_a, stream, size)
    if total := int(counts.sum()):
        z += two_array_segment_sums(law.draw_jumps(stream, total), counts)
    return z


def chunked_increments(law, stream, size):
    # the jumps drawn in chunks of _JUMP_CHUNK in path order, each chunk
    # summed over every path (0 where it holds none of its jumps) and added
    z = rand_core.sample_cts(law.x1_params, stream, size)
    owner = np.repeat(np.arange(size), rand_core.sample_poisson(law.lambda_a, stream, size))
    for lo in range(0, owner.size, _JUMP_CHUNK):
        held = np.bincount(owner[lo : lo + _JUMP_CHUNK], minlength=size)
        z += two_array_segment_sums(law.draw_jumps(stream, int(held.sum())), held)
    return z


def poisson_layout(total):
    # Poisson(13) counts over 20 000 paths and a last path that brings the
    # sum to ``total``; above 2^18 that path holds the chunk edge
    counts = RngStream(63, 3).gen.poisson(13.0, 20_000)
    return np.append(counts, total - counts.sum())


C = _JUMP_CHUNK
LAYOUTS = {
    "one-short": poisson_layout(C - 1),
    "one-chunk": poisson_layout(C),
    "one-over": poisson_layout(C + 1),
    "edge-at-a-path-end": np.array([0, 0, C - 5, 5, 0, 0, 7, 0]),
    "edge-splits-a-path": np.array([3, 0, C - 1, 9, 0, 4]),
    "path-over-three-chunks": np.array([1, 2 * C + 10, 0, 2]),
}


@pytest.mark.parametrize("counts", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_increments_match_references_at_chunk_edges(counts, monkeypatch):
    monkeypatch.setattr(rand_core, "sample_poisson", lambda mean, stream, size: counts.copy())
    law = uniform_w_law(0.5, 3.0)
    total = int(counts.sum())
    if total == C + 1:
        assert counts[-1] >= 2  # the edge splits the last path's jumps
    reference = whole_array_increments if total <= C else chunked_increments
    s_lib, s_ref = RngStream(64, 1), RngStream(64, 1)
    got = law.increments(s_lib, counts.size)
    assert got.tobytes() == reference(law, s_ref, counts.size).tobytes()
    assert _tail(s_lib).tobytes() == _tail(s_ref).tobytes()


def test_one_path_over_several_chunks_matches_chunked_reference():
    law = UniformWLaw(math.exp(-3.0), CtsParams(0.5, 1.4, 0.8), 2.5 * C, 1.4)
    s_lib, s_ref = RngStream(64, 2), RngStream(64, 2)
    got = law.increments(s_lib, 1)
    assert got.tobytes() == chunked_increments(law, s_ref, 1).tobytes()
    assert _tail(s_lib).tobytes() == _tail(s_ref).tobytes()


HEAVY_STEPS = {  # the two cumulant-coarse cells whose 65 536-path calls hold several chunks
    "oucts-alpha-0.9-bdt-3": step_law_oucts(OuCtsProcess(CtsParams(0.9, 1.4, 0.8), 10.0), 0.3),
    "ctsou-alpha-0.9-dt-30/365": step_law(CtsOuProcess(CtsParams(0.9, 1.4, 0.8), 10.0), 30 / 365),
}


@pytest.mark.parametrize("law", HEAVY_STEPS.values(), ids=HEAVY_STEPS.keys())
def test_chunked_increments_have_the_whole_array_law(law):
    n = 1 << 16
    assert law.lambda_a * n > 1.4 * C
    chunked = np.concatenate([law.increments(RngStream(65, i), n) for i in range(4)])
    whole = np.concatenate([whole_array_increments(law, RngStream(66, i), n) for i in range(4)])
    assert stats.ks_2samp(chunked, whole).pvalue > 0.01
