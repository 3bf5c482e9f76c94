"""Shared test utilities: batch z-scores, fake streams, goodness-of-fit,
the Levy-Khintchine quadrature oracle's pinned values."""

from __future__ import annotations

import numpy as np
from scipy import stats

from tsousim import ou_cts
from tsousim.harness import estimate_cumulants
from tsousim.levy_core import (
    GeneralTsLaw,
    LevyTriplet,
    aremainder_triplet,
    lk_log_chf,
    stationary_density_from_bdlp,
    ts_remainder_decompose,
)
from tsousim.ou_cts import _sample_w
from tsousim.rand_core import CtsParams


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


def levy_core_oracle_values() -> list:
    """The quadrature oracle values the ``levy-core-quadrature`` golden case pins.

    ``lk_log_chf`` (real and imaginary parts) on the gamma and
    CTS(0.5, 1.4, 0.8) remainders at a in {0.9, 0.5, 0.1} and u in
    {0.25, 0.5, 1, 2, 4}, each remainder's drift ``gamma_drift``, the ``lambda_a`` of a
    general-tempering decomposition and ``stationary_density_from_bdlp`` at
    x = 0.1, 1 and, on an asymmetric two-sided density, -1.
    """
    values = []
    for params in (CtsParams(0.0, 1.0, 1.0), CtsParams(0.5, 1.4, 0.8)):
        triplet = LevyTriplet.from_cts(params)
        for a in (0.9, 0.5, 0.1):
            rem = aremainder_triplet(triplet, a)
            values.append(rem.gamma_drift)
            for u in (0.25, 0.5, 1.0, 2.0, 4.0):
                z = lk_log_chf(rem, u)
                values += [z.real, z.imag]
    general = GeneralTsLaw(0.5, 0.8, lambda x: np.exp(-1.4 * np.asarray(x)))
    values.append(ts_remainder_decompose(general, 0.5).lambda_a)
    one_sided = LevyTriplet.from_cts(CtsParams(0.5, 1.4, 0.8)).nu
    two_sided = lambda x: np.where(x > 0, 0.8, 0.5) * np.exp(-1.4 * np.abs(x)) / np.abs(x) ** 1.5
    for nu_L, x in ((one_sided, 0.1), (one_sided, 1.0), (two_sided, -1.0)):
        values.append(stationary_density_from_bdlp(nu_L, 10.0, 1.0, x))
    return values
