"""Seedable random streams and exact samplers for the base laws.

Every sampler in this module is a pure function of an explicitly passed
:class:`RngStream`; there is no global generator state.  Streams are
addressed by ``(seed, stream_id)`` and are backed by the counter-based
Philox generator, so the same address always reproduces the same draws
and distinct stream ids derived from one seed give statistically
independent streams.  This is what makes block-parallel path generation
deterministic: each worker owns its own stream id.

The tempered-stable sampler offers two exact routes: exponential-tilting
rejection of a scaled positive stable draw (cheap when the tilt is mild),
and the double-rejection method of Devroye for heavy tilts, where plain
tilting would reject almost everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from ._util import segment_sums

__all__ = [
    "RngStream",
    "GammaLaw",
    "CtsParams",
    "uniform",
    "sample_gamma",
    "sample_poisson",
    "sample_stable_subordinator",
    "sample_cts",
    "sample_inverse_gaussian",
    "cts_tilting_acceptance",
]

_MASK64 = (1 << 64) - 1

# Tilting is used while its analytic acceptance probability stays above
# this threshold; below it the double-rejection route takes over.
TILTING_ACCEPTANCE_FLOOR = 0.1

_MAX_REJECTION_ROUNDS = 10**6


class RngStream:
    """Deterministic random stream addressed by ``(seed, stream_id)``.

    The Philox key is the pair ``(seed, stream_id)``, so streams can be
    handed out to path blocks without any sequential jump-ahead.  A stream
    must be owned by exactly one worker at a time.
    """

    __slots__ = ("seed", "stream_id", "_bitgen", "gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
        self.gen = np.random.Generator(self._bitgen)

    def clone(self) -> "RngStream":
        """Copy of this stream frozen at the current counter position."""
        other = RngStream(self.seed, self.stream_id)
        other._bitgen.state = self._bitgen.state
        return other

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class GammaLaw:
    """Gamma law with shape/rate parametrisation (density rate^shape x^(shape-1) e^(-rate x) / Gamma(shape))."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0.0):
            raise ValueError(f"gamma shape must be positive, got {self.shape}")
        if not (self.rate > 0.0):
            raise ValueError(f"gamma rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class CtsParams:
    """One-sided classical tempered stable law.

    Levy density ``c * exp(-beta*x) / x**(1+alpha)`` on ``x > 0`` with
    stability index ``0 <= alpha < 1`` (finite variation), tempering rate
    ``beta > 0`` and intensity ``c > 0``.  ``alpha == 0`` is the gamma law
    with shape ``c`` and rate ``beta``; ``alpha == 1/2`` is inverse Gaussian.
    """

    alpha: float
    beta: float
    c: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (self.c > 0.0):
            raise ValueError(f"c must be positive, got {self.c}")


def _squeeze(x: np.ndarray, size):
    if size is None:
        return float(x[0])
    return x


def uniform(stream: RngStream, size=None):
    """Uniform draw(s) on [0, 1)."""
    if size is None:
        return float(stream.gen.random())
    return stream.gen.random(size)


def _gamma_shape_rate(stream: RngStream, shape: float, rate, size=None):
    """Gamma draws with scalar shape and scalar or vector rate.

    For shape < 1 the shape-boosting identity is used: if G has shape
    ``shape + 1`` and U is uniform then G * U**(1/shape) has shape
    ``shape``.  This keeps the generator away from the density's infinite
    mode at zero.
    """
    g = stream.gen
    n = 1 if size is None else size
    if shape >= 1.0:
        x = g.standard_gamma(shape, size=n)
    else:
        x = g.standard_gamma(shape + 1.0, size=n)
        u = g.random(n)
        x = x * u ** (1.0 / shape)
    return _squeeze(x / rate, size)


def sample_gamma(law: GammaLaw, stream: RngStream, size=None):
    """Exact draw(s) from a gamma law."""
    return _gamma_shape_rate(stream, law.shape, law.rate, size)


def sample_poisson(mean: float, stream: RngStream, size=None):
    """Poisson draw(s); inversion for small means, rejection for large ones."""
    if not (mean >= 0.0):
        raise ValueError(f"Poisson mean must be nonnegative, got {mean}")
    x = stream.gen.poisson(mean, size=1 if size is None else size)
    if size is None:
        return int(x[0])
    return x


def _compound_poisson(rate: float, draw_jumps, stream: RngStream, n: int) -> np.ndarray:
    """Compound-Poisson sums for n independent transitions.

    Counts are drawn first, then ``draw_jumps(total)`` draws every jump at
    once, so the stream consumption is a deterministic function of the
    counts.
    """
    counts = sample_poisson(rate, stream, size=n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n)
    return segment_sums(draw_jumps(total), counts)


def _rejection_loop(propose, n: int, what: str):
    """Vectorised rejection: ``propose(m)`` returns m candidates and their
    accept mask; rejected slots are proposed again until all n are filled.

    Returns the draws and the total number of proposals made.
    """
    out = np.empty(n)
    pending = np.arange(n)
    proposals = rounds = 0
    while pending.size:
        m = pending.size
        x, accept = propose(m)
        out[pending[accept]] = x[accept]
        pending = pending[~accept]
        proposals += m
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:
            raise RuntimeError(f"{what} did not terminate in {_MAX_REJECTION_ROUNDS} rounds")
    return out, proposals


def _redraw_zeros(g: np.random.Generator, x: np.ndarray, draw) -> np.ndarray:
    # Measure-zero endpoints would produce log(0) below; redraw them.
    bad = x == 0.0
    while bad.any():
        x[bad] = draw(g, int(bad.sum()))
        bad = x == 0.0
    return x


def sample_stable_subordinator(alpha: float, stream: RngStream, size=None):
    """Positive stable draw(s) with Laplace transform exp(-u**alpha).

    Kanter / Chambers-Mallows-Stuck representation: with Theta uniform on
    (0, pi) and E a unit exponential,

        S = (A(Theta) / E) ** ((1-alpha)/alpha),
        A(t) = (sin(alpha*t)**alpha * sin((1-alpha)*t)**(1-alpha) / sin(t))
               ** (1/(1-alpha)).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"stable index must be in (0, 1), got {alpha}")
    g = stream.gen
    n = 1 if size is None else size
    u = _redraw_zeros(g, g.random(n), lambda g_, m: g_.random(m))
    e = _redraw_zeros(
        g, g.standard_exponential(n), lambda g_, m: g_.standard_exponential(m)
    )
    theta = np.pi * u
    log_a = (
        alpha * np.log(np.sin(alpha * theta))
        + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * theta))
        - np.log(np.sin(theta))
    ) / (1.0 - alpha)
    s = np.exp((1.0 - alpha) / alpha * (log_a - np.log(e)))
    return _squeeze(s, size)


def cts_tilting_acceptance(params: CtsParams) -> float:
    """Analytic acceptance probability of the exponential-tilting sampler.

    Equals exp(-c * Gamma(1-alpha) * beta**alpha / alpha), the Laplace
    transform of the untempered stable component at the tempering rate.
    """
    if params.alpha == 0.0:
        return 1.0
    a, b, c = params.alpha, params.beta, params.c
    return float(np.exp(-c * gamma_fn(1.0 - a) * b**a / a))


def sample_cts(params: CtsParams, stream: RngStream, size=None, method: str = "auto"):
    """Exact draw(s) from a one-sided CTS law.

    ``method`` selects the sampling route for ``alpha > 0``:

    * ``"auto"`` - exponential tilting while its acceptance probability is
      at least ``TILTING_ACCEPTANCE_FLOOR``, double rejection below that;
    * ``"tilting"`` - force the tilting-rejection route;
    * ``"double-rejection"`` - force Devroye's double-rejection route.

    ``alpha == 0`` is the gamma special case and ignores ``method``.
    """
    if method not in ("auto", "tilting", "double-rejection"):
        raise ValueError(f"unknown CTS sampling method {method!r}")
    a, b, c = params.alpha, params.beta, params.c
    if a == 0.0:
        return _gamma_shape_rate(stream, c, b, size)

    # CTS(alpha, beta, c) = sigma * (standard stable tilted by lam), with
    # sigma**alpha = c * Gamma(1-alpha) / alpha and lam = beta * sigma.
    with np.errstate(over="ignore"):
        sigma = (c * gamma_fn(1.0 - a) / a) ** (1.0 / a)
    if math.isinf(sigma):
        # both routes would reject every proposal until the round cap
        raise ValueError(
            f"CTS scale (c*Gamma(1-alpha)/alpha)^(1/alpha) overflows for alpha = {a!r}, "
            f"c = {c!r}; alpha is too small for this c"
        )
    lam = b * sigma
    if method == "auto":
        accept = cts_tilting_acceptance(params)
        method = "tilting" if accept >= TILTING_ACCEPTANCE_FLOOR else "double-rejection"

    n = 1 if size is None else size
    if method == "tilting":
        x = _cts_tilting(a, b, sigma, stream, n)
    else:
        x = sigma * _tilted_stable_double_rejection(a, lam, stream, n)
    return _squeeze(x, size)


def _cts_tilting(alpha: float, beta: float, sigma: float, stream: RngStream, n: int):
    """Tilting rejection: scaled stable proposals accepted with prob exp(-beta*x)."""

    def propose(m):
        x = sigma * sample_stable_subordinator(alpha, stream, size=m)
        return x, stream.gen.random(m) <= np.exp(-beta * x)

    return _rejection_loop(propose, n, "tilting rejection")[0]


def _sinc(x):
    # sin(x)/x with a series near zero (unnormalised, unlike np.sinc).
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 6e-3
    xs = np.where(small, x, 1.0)
    series = 1.0 - xs * xs / 6.0 * (1.0 - xs * xs / 20.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.sin(x) / x
    return np.where(small, series, direct)


def _zolotarev_a(theta, alpha: float):
    """Zolotarev's function A(theta) entering the stable density."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return (
            np.sin(alpha * theta) ** alpha
            * np.sin((1.0 - alpha) * theta) ** (1.0 - alpha)
            / np.sin(theta)
        ) ** (1.0 / (1.0 - alpha))


def _zolotarev_ratio(theta, alpha: float):
    # B(theta)/B(0) in Devroye's notation, written with sinc for stability.
    with np.errstate(invalid="ignore", divide="ignore"):
        return _sinc(theta) / (
            _sinc(alpha * theta) ** alpha * _sinc((1.0 - alpha) * theta) ** (1.0 - alpha)
        )


def _tilted_stable_double_rejection(
    alpha: float, lam: float, stream: RngStream, n: int
) -> np.ndarray:
    """Devroye's double-rejection sampler for the tilted positive stable law.

    Target density is proportional to exp(-lam*x) * g(x) where g is the
    density of the standard positive stable law (Laplace transform
    exp(-u**alpha)).  The expected number of iterations is uniformly
    bounded in ``lam``, which is what makes heavy tilts affordable.
    Uses Hofert's numerically stable form of the log acceptance ratio.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"stable index must be in (0, 1), got {alpha}")
    if not (lam > 0.0):
        raise ValueError(f"tilt must be positive, got {lam}")
    g = stream.gen
    b = (1.0 - alpha) / alpha
    lam_alpha = lam**alpha
    gamma_ = lam_alpha * alpha * (1.0 - alpha)
    sqrt_gamma = math.sqrt(gamma_)
    c1 = math.sqrt(math.pi / 2.0)
    c3 = (2.0 + c1) * sqrt_gamma
    xi = (1.0 + math.sqrt(2.0) * c3) / math.pi
    psi = c3 * math.exp(-gamma_ * math.pi**2 / 8.0) / math.sqrt(math.pi)
    w1 = c1 * xi / sqrt_gamma
    w2 = 2.0 * math.sqrt(math.pi) * psi
    w3 = xi * math.pi

    def propose(m):
        v = g.random(m)
        w = g.random(m)
        nrm = g.standard_normal(m)
        if gamma_ >= 1.0:
            u = np.where(v < w1 / (w1 + w2), np.abs(nrm) / sqrt_gamma, np.pi * (1.0 - w * w))
        else:
            u = np.where(v < w3 / (w2 + w3), np.pi * w, np.pi * (1.0 - w * w))
        inside = (u > 0.0) & (u < np.pi)

        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            zeta = np.sqrt(_zolotarev_ratio(u, alpha))
            z = 1.0 / (1.0 - (1.0 + alpha * zeta / sqrt_gamma) ** (-1.0 / alpha))
            d = np.where(inside, psi / np.sqrt(np.pi - u), 0.0)
            if gamma_ >= 1.0:
                d = d + xi * np.exp(-gamma_ * u * u / 2.0)
            else:
                d = d + xi
            rho = (
                np.pi
                * np.exp(-lam_alpha * (1.0 - 1.0 / (zeta * zeta)))
                * d
                / ((1.0 + c1) * sqrt_gamma / zeta + z)
            )
            big_z = g.random(m) * rho
            stage1 = inside & (big_z <= 1.0)

            a_zol = _zolotarev_a(u, alpha)
            mm = (b / a_zol) ** alpha * lam_alpha
            delta = np.sqrt(mm * alpha / a_zol)
            a1 = delta * c1
            a3 = z / a_zol
            s = a1 + delta + a3

            v2 = g.random(m)
            nrm2 = g.standard_normal(m)
            u3 = g.random(m)
            e1 = g.standard_exponential(m)
            x = np.where(
                v2 < a1 / s,
                mm - delta * np.abs(nrm2),
                np.where(v2 < (a1 + delta) / s, mm + delta * u3, mm + delta + e1 * a3),
            )
            e2 = -np.log(big_z)
            log_accept = a_zol * (x - mm) + lam * mm ** (-b) * ((mm / x) ** b - 1.0)
            log_accept = log_accept - np.where(x < mm, nrm2 * nrm2 / 2.0, 0.0)
            log_accept = log_accept - np.where(x > mm + delta, e1, 0.0)
            accept = stage1 & (x > 0.0) & (log_accept <= e2)

        return x, accept

    return _rejection_loop(propose, n, "double rejection")[0] ** (-b)


def sample_inverse_gaussian(mu: float, lambda_ig: float, stream: RngStream, size=None):
    """Exact inverse Gaussian draw(s) by the many-to-one transformation.

    Michael-Schucany-Haas method: one chi-square root of the defining
    quadratic plus a uniform coin choosing between the two preimages; no
    rejection loop.
    """
    if not (mu > 0.0):
        raise ValueError(f"IG mean must be positive, got {mu}")
    if not (lambda_ig > 0.0):
        raise ValueError(f"IG shape must be positive, got {lambda_ig}")
    g = stream.gen
    n = 1 if size is None else size
    nrm = g.standard_normal(n)
    y = nrm * nrm
    x = mu + mu * mu * y / (2.0 * lambda_ig) - mu / (2.0 * lambda_ig) * np.sqrt(
        4.0 * mu * lambda_ig * y + (mu * y) ** 2
    )
    u = g.random(n)
    x = np.where(u <= mu / (mu + x), x, mu * mu / x)
    return _squeeze(x, size)
