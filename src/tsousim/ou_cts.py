"""Exact transition sampling for OU processes driven by a CTS process.

With a = exp(-b*dt), the transition increment of an OU process whose
driving noise is CTS(alpha, beta, c) is the sum of two independent parts:

* a CTS(alpha, beta/a, c*(1 - a^alpha)/(T*alpha*b)) draw, and
* a compound Poisson sum with rate

      lambda_a = c * beta^alpha * Gamma(1-alpha) / (T*b*alpha^2*a^alpha)
                 * (1 - a^alpha + a^alpha * log a^alpha)

  whose jumps are gamma(1-alpha, beta*V) with the mixing factor V on
  [1, 1/a] having density proportional to (v^alpha - 1)/v.

The mixing density is not monotone, so V is generated through
W = -log(V)/log(a), whose density f_W is increasing and convex on [0, 1].
f_W is sampled by rejection from a piecewise-linear (chord) envelope whose
total mass G_L is a trapezoidal overestimate of 1; doubling the number of
chords drives G_L, and with it the expected number of rejection rounds,
as close to 1 as requested, no matter how small ``a`` is.

Two cheap approximate step laws are also provided for comparison:
dropping the compound part entirely (:func:`x1_only_law`) and replacing
the whole increment with a decayed driving-process increment
(:func:`scaled_bdlp_law`).  Both are asymptotically exact as dt -> 0
because lambda_a = O(dt^2) here, and badly biased for coarse steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import _one_minus_pow, decay, gamma_mixture_moment, simulate_skeleton
from ._util import gamma as gamma_fn
from .rand_core import (
    CtsParams,
    RngStream,
    StepLaw,
    _gamma_shape_rate,
    _rejection_loop,
    _squeeze,
)

__all__ = [
    "OuCtsProcess",
    "OuCtsStepLaw",
    "Envelope",
    "build_envelope",
    "step_law_oucts",
    "f_w_density",
    "sample_w",
    "sample_v_oucts",
    "sample_v_alpha0",
    "sample_transition_oucts",
    "simulate_skeleton_oucts",
    "cumulants_oucts",
    "x1_only_law",
    "scaled_bdlp_law",
    "single_chord_mass",
]

# envelope mass G_L that build_envelope doubles its chords down to; the
# rejection sampler accepts a proposal with probability 1/G_L
DEFAULT_TARGET_G = 1.01


@dataclass(frozen=True)
class OuCtsProcess:
    """OU process driven by a CTS noise ``bdlp``, reversion rate ``b``, time scale ``T``."""

    bdlp: CtsParams
    b: float
    T: float = 1.0

    def __post_init__(self):
        if not (self.b > 0.0):
            raise ValueError(f"mean-reversion rate must be positive, got {self.b}")
        if not (self.T > 0.0):
            raise ValueError(f"time scale must be positive, got {self.T}")


@dataclass(frozen=True)
class Envelope:
    """Piecewise-linear dominating function for the mixing density f_W.

    Chords over ``segment_count`` intervals of [0, 1]; since f_W is convex,
    every chord lies above it.  ``masses`` are the per-segment areas q_l,
    ``total_mass`` is G_L = sum q_l >= 1 and 1/G_L is the acceptance rate
    of the rejection sampler built on this envelope.
    """

    segment_count: int
    breakpoints: np.ndarray = field(repr=False)
    f_values: np.ndarray = field(repr=False)
    slopes: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)
    cum_probabilities: np.ndarray = field(repr=False)
    total_mass: float

    def value(self, w):
        """Envelope value g_L(w) on [0, 1]."""
        w = np.asarray(w, dtype=float)
        seg = np.clip(
            np.searchsorted(self.breakpoints, w, side="right") - 1,
            0,
            self.segment_count - 1,
        )
        return self.f_values[seg] + self.slopes[seg] * (w - self.breakpoints[seg])


def _expm1_minus_x(x: float) -> float:
    """exp(x) - 1 - x, series below 1e-4 to dodge the x^2/2 cancellation."""
    if x < 1e-4:
        return x * x / 2.0 * (1.0 + x / 3.0 + x * x / 12.0 + x**3 / 60.0)
    return float(np.expm1(x) - x)


def _theta(a: float, alpha: float) -> float:
    # log(a^-alpha) > 0
    return -alpha * float(np.log(a))


def f_w_density(w, a: float, alpha: float):
    """Density of W = -log(V)/log(a) on [0, 1].

    f_W(w) = theta * (e^(theta w) - 1) / (e^theta - 1 - theta) with
    theta = log a^-alpha; increasing and convex, f_W(0) = 0.  A series is
    used for theta < 1e-6 where the direct form loses all precision.
    """
    th = _theta(a, alpha)
    w = np.asarray(w, dtype=float)
    if th < 1e-6:
        out = 2.0 * w * (1.0 + th * (w / 2.0 - 1.0 / 3.0))
    else:
        out = th * np.expm1(th * w) / _expm1_minus_x(th)
    return out if out.ndim else float(out)


def single_chord_mass(a: float, alpha: float) -> float:
    """Area of the one-chord envelope: log a^-alpha (a^-alpha - 1)
    / (2 (a^-alpha - 1 - log a^-alpha))."""
    th = _theta(a, alpha)
    return float(th * np.expm1(th) / (2.0 * _expm1_minus_x(th)))


def build_envelope(alpha: float, a: float, *, force_segments: int | None = None) -> Envelope:
    """Chord envelope over uniform breakpoints, doubling from 4 segments
    until the total mass G_L drops below ``DEFAULT_TARGET_G``.

    ``force_segments`` pins the segment count regardless of the target
    (used for diagnostics).
    """
    n_seg = force_segments if force_segments is not None else 4
    while True:
        w = np.linspace(0.0, 1.0, n_seg + 1)
        f = np.asarray(f_w_density(w, a, alpha), dtype=float)
        dw = 1.0 / n_seg
        masses = 0.5 * (f[:-1] + f[1:]) * dw
        total = float(masses.sum())
        if force_segments is not None or total <= DEFAULT_TARGET_G:
            break
        if n_seg >= 2**21:
            raise RuntimeError(
                f"envelope did not reach G_L <= {DEFAULT_TARGET_G} at {n_seg} segments"
            )
        n_seg *= 2
    probs = masses / total
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    slopes = np.diff(f) / dw
    return Envelope(n_seg, w, f, slopes, masses, probs, cum, total)


@dataclass(frozen=True)
class OuCtsStepLaw(StepLaw):
    """Transition law over one step: scale a, CTS part with retempered
    rate beta/a, jump rate lambda_a and the jumps' tempering ``jump_beta``;
    build it with :func:`step_law_oucts`.
    """

    jump_beta: float

    @cached_property
    def envelope(self) -> Envelope | None:
        """The f_W chord envelope (None at alpha = 0, whose mixing law needs
        none), built on first use: a step whose Poisson total is 0 never
        draws V.  :func:`build_envelope` draws nothing, so neither does this."""
        alpha = self.x1_params.alpha
        return None if alpha == 0.0 else build_envelope(alpha, self.a)

    def draw_jumps(self, stream: RngStream, m: int) -> np.ndarray:
        # gamma(1-alpha, beta*V) with the mixing factor V on [1, 1/a]
        v = sample_v_oucts(self, stream, size=m)
        v *= self.jump_beta
        return _gamma_shape_rate(stream, 1.0 - self.x1_params.alpha, v, size=m)

    def jump_moment(self, k: int) -> float:
        """k-th jump moment by quadrature over the mixing density (v^alpha - 1)/v
        scaled to integrate to one on [1, 1/a]; at alpha = 0 its limit
        2 log v / (v log^2 a)."""
        a, alpha = self.a, self.x1_params.alpha
        if alpha == 0.0:
            f_v = lambda v: 2.0 * np.log(v) / (v * np.log(a) ** 2)
        else:
            norm = a**alpha * _expm1_minus_x(_theta(a, alpha))  # 1 - a^alpha + a^alpha log a^alpha
            f_v = lambda v: alpha * a**alpha * (v**alpha - 1.0) / (norm * v)
        return gamma_mixture_moment(a, alpha, self.jump_beta, k, f_v)


def _lambda_a(p: OuCtsProcess, a: float) -> float:
    alpha, beta, c = p.bdlp.alpha, p.bdlp.beta, p.bdlp.c
    th = _theta(a, alpha)
    # c beta^alpha Gamma(1-alpha) / (T b alpha^2 a^alpha) * (1 - a^alpha + a^alpha log a^alpha)
    # rewritten with theta = log a^-alpha as K * (e^theta - 1 - theta)
    return (
        c
        * beta**alpha
        * gamma_fn(1.0 - alpha)
        / (p.T * p.b * alpha**2)
        * _expm1_minus_x(th)
    )


def step_law_oucts(p: OuCtsProcess, dt: float) -> OuCtsStepLaw:
    """Transition law over a step of length ``dt``.

    alpha = 0 gives the limiting law: gamma(c*dt/T, beta/a) for the CTS
    part, rate c*log(a)^2/(2*T*b) with exponential(beta*V) jumps for the
    compound part, V drawn by :func:`sample_v_alpha0` (no envelope).
    """
    a = decay(p.b, dt)
    x1 = _x1_params(p, dt, a)
    if p.bdlp.alpha == 0.0:
        rate = p.bdlp.c * np.log(a) ** 2 / (2.0 * p.T * p.b)
        return OuCtsStepLaw(a, x1, rate, p.bdlp.beta)
    # (beta/a)*a can differ from beta in the last bit; the golden hashes pin this form
    return OuCtsStepLaw(a, x1, _lambda_a(p, a), x1.beta * a)


def _x1_params(p: OuCtsProcess, dt: float, a: float) -> CtsParams:
    """CTS part of the increment: CTS(alpha, beta/a, c (1 - a^alpha) / (T alpha b)),
    whose alpha -> 0 limit is the gamma law with shape c dt / T and rate beta/a."""
    alpha, beta, c = p.bdlp.alpha, p.bdlp.beta, p.bdlp.c
    if a == 0.0 or np.isinf(beta / a):
        raise ValueError(
            f"b*dt = {p.b * dt!r} is too large: exp(-b*dt) underflows to {a!r}, "
            "so the CTS part's rate beta/a is infinite"
        )
    if alpha == 0.0:
        return CtsParams(0.0, beta / a, c * dt / p.T)
    return CtsParams(alpha, beta / a, c * _one_minus_pow(a, alpha) / (p.T * alpha * p.b))


def sample_w(envelope: Envelope, a: float, alpha: float, stream: RngStream, size=None):
    """Draw W from f_W by rejection under the chord envelope.

    Per proposal: pick a segment with the envelope's probabilities, invert
    the chord's quadratic CDF in closed form, accept with probability
    f_W / g_L.  Acceptance rate is exactly 1/G_L.
    """
    w, _ = _sample_w(envelope, a, alpha, stream, 1 if size is None else size)
    return _squeeze(w, size)


def _sample_w(envelope: Envelope, a: float, alpha: float, stream: RngStream, n: int):
    """n draws of W from :func:`sample_w`'s sampler and the number of proposals they took."""
    g = stream.gen
    bp, fv, slopes = envelope.breakpoints, envelope.f_values, envelope.slopes
    masses, cum = envelope.masses, envelope.cum_probabilities

    def propose(m):
        seg = np.searchsorted(cum, g.random(m), side="right")  # <= L-1: cum[-1] = 1 > u
        sl = slopes[seg]
        q = masses[seg]
        s = g.random(m)  # u, turned into the offset s in place
        # solve y0*s + sl*s^2/2 = u*q for the offset s into the segment by
        # s = 2uq / (y0 + sqrt(y0^2 + 2 sl u q)), stable for flat chords
        # (sl -> 0 gives u*q/y0).  Everything below runs in place with only
        # exact reorderings (x*y = y*x, x+y = y+x), so it rounds as the
        # written formulas do while at most five length-m arrays are alive;
        # y0 = fv[seg] is gathered twice rather than held.
        den = sl * 2.0
        den *= s
        den *= q
        s *= 2.0
        s *= q
        del q
        y0_sq = fv[seg]
        y0_sq *= y0_sq
        den += y0_sq
        del y0_sq
        np.sqrt(den, out=den)
        y0 = fv[seg]
        den += y0
        s /= den
        del den
        sl *= s
        sl += y0  # the envelope value y0 + sl*s
        del y0
        s += bp[seg]  # the proposal w = bp + s
        del seg
        r = g.random(m)
        r *= sl
        del sl
        return s, r <= f_w_density(s, a, alpha)

    return _rejection_loop(propose, n, "envelope rejection")


def sample_v_oucts(law: OuCtsStepLaw, stream: RngStream, size=None):
    """Mixing factor V = a^-W on [1, 1/a], density
    alpha a^alpha (v^alpha - 1) / ((1 - a^alpha + a^alpha log a^alpha) v);
    at alpha = 0 (no envelope) the limiting law of :func:`sample_v_alpha0`."""
    if law.envelope is None:
        return sample_v_alpha0(law.a, stream, size)
    # in place on W; a scalar W becomes a 0-d array
    v = np.asarray(sample_w(law.envelope, law.a, law.x1_params.alpha, stream, size), dtype=float)
    v *= -np.log(law.a)
    np.exp(v, out=v)
    return float(v) if size is None else v


def sample_v_alpha0(a: float, stream: RngStream, size=None):
    """alpha -> 0 limit of the mixing factor: density 2 log v / (v log^2 a)
    on [1, 1/a], sampled by inversion as V = a^(-sqrt(U)) (no rejection)."""
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must be in (0, 1), got {a}")
    u = stream.gen.random(1 if size is None else size)
    v = np.exp(-np.sqrt(u) * np.log(a))
    return _squeeze(v, size)


def sample_transition_oucts(p: OuCtsProcess, x0, dt: float, stream: RngStream, size=None):
    """One exact draw of X(dt) given X(0) = x0 (vectorised over ``size``);
    see :func:`step_law_oucts` for the law and its alpha = 0 limit."""
    return step_law_oucts(p, dt).sample(x0, stream, size)


def simulate_skeleton_oucts(p: OuCtsProcess, x0, grid, stream: RngStream, size=None):
    """Exact skeleton on an increasing grid, one step law per step."""
    return simulate_skeleton(
        lambda x, dt: sample_transition_oucts(p, x, dt, stream, size), x0, grid, size
    )


def cumulants_oucts(p: OuCtsProcess, x0: float, dt: float, k: int) -> float:
    """Closed-form transition cumulant:
    x0 e^(-b dt) [k=1] + c Gamma(k-alpha) (1 - e^(-k b dt)) / (T b k beta^(k-alpha))."""
    if k < 1:
        raise ValueError(f"cumulant order must be >= 1, got {k}")
    if not dt >= 0.0:  # dt = inf is the stationary limit
        raise ValueError(f"dt must be nonnegative, got {dt}")
    alpha, beta, c = p.bdlp.alpha, p.bdlp.beta, p.bdlp.c
    val = (
        c
        * gamma_fn(k - alpha)
        * (1.0 - np.exp(-k * p.b * dt))
        / (p.T * p.b * k * beta ** (k - alpha))
    )
    if k == 1:
        val += x0 * np.exp(-p.b * dt)
    return float(val)


def x1_only_law(p: OuCtsProcess, dt: float) -> StepLaw:
    """Approximate step law dropping the compound-Poisson part of the increment."""
    a = decay(p.b, dt)
    return StepLaw(a, _x1_params(p, dt, a), 0.0)


def scaled_bdlp_law(p: OuCtsProcess, dt: float) -> StepLaw:
    """Approximate step law replacing the increment with a decayed driving
    increment a * L(dt), L(dt) ~ CTS(alpha, beta, c*dt/T); by CTS scaling
    a * L(dt) ~ CTS(alpha, beta/a, c*a^alpha*dt/T)."""
    a = decay(p.b, dt)
    alpha, c = p.bdlp.alpha, p.bdlp.c
    beta_a = _x1_params(p, dt, a).beta  # beta/a, raising once a underflows
    return StepLaw(a, CtsParams(alpha, beta_a, c * a**alpha * dt / p.T), 0.0)
