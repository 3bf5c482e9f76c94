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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsousim.ou_cts import build_envelope, f_w_density, sample_w
from tsousim.rand_core import _CHUNK, RngStream, _gamma_shape_rate, _rejection_loop

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
