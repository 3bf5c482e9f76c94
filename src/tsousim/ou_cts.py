"""Exact transition sampling for OU processes driven by a CTS process.

With a = exp(-b*dt), the transition increment of an OU process whose
driving noise is CTS(alpha, beta, c) is the sum of two independent parts:

* a CTS(alpha, beta/a, c*(1 - a^alpha)/(T*alpha*b)) draw, and
* a compound Poisson sum, rate lambda_a = c * beta^alpha * Gamma(1-alpha)
  * (1 - a^alpha + a^alpha * log a^alpha) / (T*b*alpha^2*a^alpha), of
  :class:`~tsousim.rand_core.StepLaw`'s gamma(1-alpha, beta*V) jumps.

Only the law of V = a^-W on [1, 1/a] is this family's own.  Its density,
proportional to (v^alpha - 1)/v, is not monotone, but the density f_W of W
is increasing and convex on [0, 1].
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

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._util import cached_attribute, decay, grid_steps
from ._util import gamma as gamma_fn
from .rand_core import (
    _CHUNK,
    CtsParams,
    RngStream,
    StepLaw,
    _check_cumulant_args,
    _rejection_loop,
    path_states,
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

# log of the largest float: np.expm1(theta) is finite up to it and inf above
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class OuCtsProcess:
    """OU process driven by a CTS noise ``bdlp``, reversion rate ``b``, time scale ``T``."""

    bdlp: CtsParams
    b: float
    T: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.b < np.inf):
            raise ValueError(f"mean-reversion rate must be positive and finite, got {self.b}")
        if not (0.0 < self.T < np.inf):
            raise ValueError(f"time scale must be positive and finite, got {self.T}")


@dataclass(frozen=True)
class Envelope:
    """Piecewise-linear dominating function for the mixing density f_W.

    Chords over ``segment_count`` intervals of [0, 1]; since f_W is convex,
    every chord lies above it, and g_L(w) = ``np.interp(w, breakpoints,
    f_values)``.  ``masses`` are the per-segment areas q_l, ``total_mass``
    is G_L = sum q_l >= 1 and 1/G_L is the acceptance rate of the
    rejection sampler, which picks segments by ``cum_probabilities``.
    """

    segment_count: int
    breakpoints: np.ndarray = field(repr=False)
    f_values: np.ndarray = field(repr=False)
    slopes: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)
    cum_probabilities: np.ndarray = field(repr=False)
    total_mass: float


def _expm1_minus_x(x: float) -> float:
    """exp(x) - 1 - x, series below 1e-4 to dodge the x^2/2 cancellation."""
    if x < 1e-4:
        return x * x / 2.0 * (1.0 + x / 3.0 + x * x / 12.0 + x**3 / 60.0)
    return float(np.expm1(x) - x)


def _theta(a: float, alpha: float) -> float:
    # log(a^-alpha) >= 0; W's law is defined for a decay factor in (0, 1)
    # and alpha in [0, 1), alpha = 0 being the limit that the jump moment uses
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must be in (0, 1), got {a}")
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return -alpha * float(np.log(a))


def f_w_density(w, a: float, alpha: float):
    """Density of W = -log(V)/log(a) on [0, 1].

    f_W(w) = theta * (e^(theta w) - 1) / (e^theta - 1 - theta) with
    theta = log a^-alpha; increasing and convex, f_W(0) = 0.  A series is
    used for theta < 1e-6 where the direct form loses all precision, and
    where e^theta overflows (theta > 709.78, a subnormal a) the same ratio
    divided through by e^theta, theta e^(theta (w-1)) (1 - e^(-theta w))
    / (1 - (1 + theta) e^(-theta)), which stays finite.
    """
    th = _theta(a, alpha)
    w = np.asarray(w, dtype=float)
    if th < 1e-6:
        out = 2.0 * w * (1.0 + th * (w / 2.0 - 1.0 / 3.0))
    elif th <= _LOG_MAX:
        out = th * np.expm1(th * w) / _expm1_minus_x(th)
    else:
        out = th * np.exp(th * (w - 1.0)) * -np.expm1(-th * w) / _scaled_expm1_minus_x(th)
    return out if out.ndim else float(out)


def _scaled_expm1_minus_x(x: float) -> float:
    """(e^x - 1 - x) e^-x = 1 - (1 + x) e^-x, finite where e^x overflows."""
    return 1.0 - (1.0 + x) * math.exp(-x)


def single_chord_mass(a: float, alpha: float) -> float:
    """Area of the one-chord envelope: log a^-alpha (a^-alpha - 1)
    / (2 (a^-alpha - 1 - log a^-alpha)), divided through by a^-alpha where
    that overflows, as in :func:`f_w_density`."""
    th = _theta(a, alpha)
    if th > _LOG_MAX:
        return th * -math.expm1(-th) / (2.0 * _scaled_expm1_minus_x(th))
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
    cum = np.cumsum(masses / total)
    cum[-1] = 1.0
    slopes = np.diff(f) / dw
    return Envelope(n_seg, w, f, slopes, masses, cum, total)


@dataclass(frozen=True)
class OuCtsStepLaw(StepLaw):
    """Transition law over one step: scale a, CTS part with retempered
    rate beta/a, jump rate lambda_a, the jumps' tempering ``jump_beta`` and
    W of density :func:`f_w_density`; build it with :func:`step_law_oucts`."""

    jump_beta: float

    @cached_attribute
    def envelope(self) -> Envelope | None:
        """The f_W chord envelope (None at alpha = 0, whose mixing law needs
        none), built on first use: a step whose Poisson total is 0 never
        draws V.  :func:`build_envelope` draws nothing, so neither does this."""
        alpha = self.x1_params.alpha
        return None if alpha == 0.0 else build_envelope(alpha, self.a)

    def draw_v(self, stream: RngStream, m: int) -> np.ndarray:
        return sample_v_oucts(self, stream, m)

    def f_w(self, w):
        return f_w_density(w, self.a, self.x1_params.alpha)


def _lambda_a(p: OuCtsProcess, th: float) -> float:
    # the jump rate at theta = log a^-alpha (see _theta), alpha > 0
    alpha, beta, c = p.bdlp.alpha, p.bdlp.beta, p.bdlp.c
    # c beta^alpha Gamma(1-alpha) / (T b alpha^2 a^alpha) * (1 - a^alpha + a^alpha log a^alpha)
    # rewritten with theta = log a^-alpha as K * (e^theta - 1 - theta)
    return (
        c
        * beta**alpha
        * float(gamma_fn(1.0 - alpha))
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
    x1, th = _x1_params(p, dt, a)
    if p.bdlp.alpha == 0.0:
        rate = p.bdlp.c * np.log(a) ** 2 / (2.0 * p.T * p.b)
        return OuCtsStepLaw(a, x1, rate, p.bdlp.beta)
    # (beta/a)*a can differ from beta in the last bit; the golden hashes pin this form
    return OuCtsStepLaw(a, x1, _lambda_a(p, th), x1.beta * a)


def _x1_params(p: OuCtsProcess, dt: float, a: float) -> tuple[CtsParams, float]:
    """CTS part of the increment, CTS(alpha, beta/a, c (1 - a^alpha) / (T alpha b)),
    whose alpha -> 0 limit is the gamma law with shape c dt / T and rate beta/a;
    and theta = log a^-alpha, which the jump rate shares (0 at alpha = 0)."""
    alpha, beta, c = p.bdlp.alpha, p.bdlp.beta, p.bdlp.c
    if a == 0.0 or math.isinf(beta / a):
        raise ValueError(
            f"b*dt = {p.b * dt!r} is too large: exp(-b*dt) underflows to {a!r}, "
            "so the CTS part's rate beta/a is infinite"
        )
    if alpha == 0.0:
        return CtsParams(0.0, beta / a, c * dt / p.T), 0.0
    th = -alpha * float(np.log(a))
    # 1 - a^alpha = -expm1(-theta): the bits of -expm1(alpha log a), since
    # negating theta's product rounds the same way
    shrink = -float(np.expm1(-th))
    return CtsParams(alpha, beta / a, c * shrink / (p.T * alpha * p.b)), th


def sample_w(envelope: Envelope, a: float, alpha: float, stream: RngStream, size: int = 1):
    """``size`` draws of W from f_W by rejection under the chord envelope,
    and the number of proposals they took: ``(w, proposals)``.

    Per proposal: pick a segment with the envelope's probabilities, invert
    the chord's quadratic CDF in closed form, accept with probability
    f_W / g_L.  Acceptance rate is exactly 1/G_L.

    The stream holds all m segment uniforms of a round, then its m offset
    uniforms, then its m acceptance uniforms.  The segment uniforms are
    drawn one block of ``_CHUNK`` at a time and only their segment
    indices are kept, in the smallest unsigned integer type that holds L;
    the offset uniforms are drawn whole and become the proposals w; the
    rest runs one block at a time.  k successive draw calls return the
    values of one call, so every proposal is the one that whole arrays
    give, while at the peak only w, the indices, the accept mask and one
    block of temporaries are alive.
    """
    size = operator.index(size)
    g = stream.gen
    bp, fv, slopes = envelope.breakpoints, envelope.f_values, envelope.slopes
    masses, cum = envelope.masses, envelope.cum_probabilities
    seg_type = np.min_scalar_type(envelope.segment_count)

    def propose(m):
        segs = np.empty(m, dtype=seg_type)
        for lo in range(0, m, _CHUNK):
            e = g.random(min(_CHUNK, m - lo))
            # <= L-1 since cum[-1] = 1 > e
            segs[lo : lo + _CHUNK] = np.searchsorted(cum, e, side="right")
        w = g.random(m)
        accept = np.empty(m, dtype=bool)
        for lo in range(0, m, _CHUNK):
            # one cast per block: numpy gathers with intp indices only
            seg, u = segs[lo : lo + _CHUNK].astype(np.intp), w[lo : lo + _CHUNK]
            y0, sl, q = fv[seg], slopes[seg], masses[seg]
            # solve y0*s + sl*s^2/2 = u*q for the offset s into the segment,
            # stable for flat chords (sl -> 0 gives u*q/y0); e is g_L(w)
            s = 2.0 * u * q / (y0 + np.sqrt(y0 * y0 + 2.0 * sl * u * q))
            e = sl * s
            e += y0
            np.add(s, bp[seg], out=u)
            r = g.random(u.size)
            r *= e
            np.less_equal(r, f_w_density(u, a, alpha), out=accept[lo : lo + _CHUNK])
        return w, accept

    return _rejection_loop(propose, size, "envelope rejection")


def sample_v_oucts(law: OuCtsStepLaw, stream: RngStream, size: int = 1):
    """``size`` draws of the mixing factor V = a^-W on [1, 1/a], density
    alpha a^alpha (v^alpha - 1) / ((1 - a^alpha + a^alpha log a^alpha) v);
    at alpha = 0 (no envelope) the limiting law of :func:`sample_v_alpha0`."""
    if law.envelope is None:
        return sample_v_alpha0(law.a, stream, size)
    v, _ = sample_w(law.envelope, law.a, law.x1_params.alpha, stream, size)  # in place on W
    v *= -np.log(law.a)
    np.exp(v, out=v)
    return v


def sample_v_alpha0(a: float, stream: RngStream, size: int = 1):
    """``size`` draws of the alpha -> 0 limit of V: density 2 log v / (v log^2 a)
    on [1, 1/a], sampled by inversion as V = a^(-sqrt(U)) (no rejection)."""
    size = operator.index(size)
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must be in (0, 1), got {a}")
    u = stream.gen.random(size)
    return np.exp(-np.sqrt(u) * np.log(a))


def sample_transition_oucts(p: OuCtsProcess, x0, dt: float, stream: RngStream, size: int = 1):
    """``size`` exact draws of X(dt) given X(0) = x0, shape (size,); see :func:`step_law_oucts`."""
    return step_law_oucts(p, dt).sample(x0, stream, size)


def simulate_skeleton_oucts(p: OuCtsProcess, x0, grid, stream: RngStream, size: int = 1):
    """Exact skeleton on an increasing grid, one step law per gap, shape (M, size)."""
    runs = [(step_law_oucts(p, dt), 1) for dt in grid_steps(grid).tolist()]
    return np.array(list(path_states(runs, x0, stream, size, size)))


def cumulants_oucts(p: OuCtsProcess, x0: float, dt: float, k: int) -> float:
    """Closed-form transition cumulant:
    x0 e^(-b dt) [k=1] + c Gamma(k-alpha) (1 - e^(-k b dt)) / (T b k beta^(k-alpha))."""
    _check_cumulant_args(k, x0, dt)
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
    return StepLaw(a, _x1_params(p, dt, a)[0], 0.0)


def scaled_bdlp_law(p: OuCtsProcess, dt: float) -> StepLaw:
    """Approximate step law replacing the increment with a decayed driving
    increment a * L(dt), L(dt) ~ CTS(alpha, beta, c*dt/T); by CTS scaling
    a * L(dt) ~ CTS(alpha, beta/a, c*a^alpha*dt/T)."""
    a = decay(p.b, dt)
    alpha, c = p.bdlp.alpha, p.bdlp.c
    beta_a = _x1_params(p, dt, a)[0].beta  # beta/a, raising once a underflows
    return StepLaw(a, CtsParams(alpha, beta_a, c * a**alpha * dt / p.T), 0.0)
