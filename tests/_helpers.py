"""Shared test utilities: batch z-scores, fake streams, goodness-of-fit."""

from __future__ import annotations

import numpy as np
from scipy import stats

from tsousim import ou_cts
from tsousim.harness import estimate_cumulants
from tsousim.ou_cts import _sample_w


def z_score(samples, truth: float, order: int, batches: int = 100) -> float:
    """(estimate - truth) / batch SE for the cumulant of the given order."""
    cv = estimate_cumulants(np.asarray(samples, dtype=float), batches)
    return (cv.k(order) - truth) / cv.se(order)


class FixedStream:
    """Stream stub whose uniform draws cycle through preset values."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        self.gen = self

    def random(self, size=None):
        n = 1 if size is None else int(size)
        reps = int(np.ceil(n / self._values.size))
        out = np.tile(self._values, reps)[:n]
        return out if size is not None else out


def force_single_chord(monkeypatch) -> None:
    """Make every ``ou_cts.build_envelope`` call build one chord: an
    under-resolved envelope, whose mass G_1 exceeds the target unless
    f_W is nearly linear (small b dt)."""
    build = ou_cts.build_envelope
    monkeypatch.setattr(
        ou_cts, "build_envelope", lambda alpha, a, **kwargs: build(alpha, a, force_segments=1)
    )


def chi2_pvalue(draws, cdf, lo: float, hi: float, bins: int = 50) -> float:
    """Chi-square goodness-of-fit p-value against a CDF on [lo, hi]."""
    draws = np.asarray(draws, dtype=float)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(draws, bins=edges)
    probs = np.diff([cdf(e) for e in edges])
    expected = probs * draws.size
    keep = expected > 5.0
    rescale = counts[keep].sum() / expected[keep].sum()
    _, p = stats.chisquare(counts[keep], expected[keep] * rescale)
    return float(p)


def envelope_acceptance(env, a: float, alpha: float, stream, n: int) -> float:
    """Measured acceptance rate of the chord-envelope rejection sampler."""
    return n / _sample_w(env, a, alpha, stream, n)[1]
