"""Seedable random streams and exact samplers for the base laws.

Every sampler in this module is a pure function of an explicitly passed
:class:`RngStream`; there is no global generator state.  Streams are
addressed by ``(seed, stream_id)`` and are backed by the counter-based
Philox generator, so the same address always reproduces the same draws
and distinct stream ids derived from one seed give statistically
independent streams.  This is what makes block-parallel path generation
deterministic: each worker owns its own stream id.

The tempered-stable sampler has two exact kernels: exponential-tilting
rejection of a scaled positive stable draw, which accepts with probability
p = ``cts_tilting_acceptance``, and the double-rejection method of Devroye,
whose cost is bounded in the tilt.  The law alone picks one of three
routes, each with a bounded expected work per draw.  A mild tilt (-ln p
< 1.5) is one tilting draw.  A moderate tilt (p >=
``TILTING_ACCEPTANCE_FLOOR`` = 0.05) is, by infinite divisibility, the
sum of n = round(-ln p) tilted draws of CTS(alpha, beta, c/n), each
accepted with probability p^(1/n), so a draw costs about n p^(-1/n)
proposals instead of 1/p (Hofert 2011).  A heavy tilt below the floor
goes to double rejection.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._util import cached_attribute, gamma_mixture_moment, segment_sums
from ._util import gamma as gamma_fn

__all__ = [
    "RngStream",
    "CtsParams",
    "sample_poisson",
    "sample_stable_subordinator",
    "sample_cts",
    "sample_inverse_gaussian",
    "cts_tilting_acceptance",
    "cts_cumulants",
    "StepLaw",
    "path_states",
]

# CTS draws tilt, in round(-ln p) summands, while the analytic
# tilting acceptance p is at least this floor, and use double rejection
# below it.  On 65 536 draws at alpha 0.3-0.9 (2-vCPU Xeon, numpy 2.4.6)
# the summands took 1/2.1-1/1.7 of double rejection's time at p = 0.05,
# 1/1.6-1/1.4 at p = 0.02, and 1.0-2.0 times it at p = 0.0025.
TILTING_ACCEPTANCE_FLOOR = 0.05

_MAX_REJECTION_ROUNDS = 10**6

# Largest expected jump count lambda_a * size of one StepLaw.increments call;
# it bounds the work of one call.  A call that expects more is refused
# before it draws.
_MAX_EXPECTED_JUMPS = 1 << 26

# Most jumps one draw_jumps call of StepLaw.increments draws (2 MiB of
# float64), so a step's memory does not grow with lambda_a.
_JUMP_CHUNK = 1 << 18

# Elements per block of a stage that draws or computes one block at a
# time (64 KiB of float64), the gamma stage's gammas and uniforms among
# them.  A draw call hands the next one nothing but the bit generator's
# position, so k successive calls of ``random(n_i)`` or
# ``standard_gamma(s, n_i)`` return the values of one call for
# ``sum n_i``, and the block size never changes a draw.
_CHUNK = 8192


def _check_key(seed: int, stream_id: int = 0) -> None:
    """Refuse a Philox key word that is not an integer in [0, 2^64)."""
    for name, value in (("seed", seed), ("stream id", stream_id)):
        if not (isinstance(value, (int, np.integer)) and 0 <= value < 1 << 64):
            raise ValueError(f"{name} must be in [0, 2**64) and integral, got {value!r}")


class RngStream:
    """Deterministic random stream addressed by ``(seed, stream_id)``.

    The Philox key is the pair ``(seed, stream_id)``, so streams can be
    handed out to path blocks without any sequential jump-ahead.  A stream
    must be owned by exactly one worker at a time.  Both parts are 64-bit
    key words: a value that is not an integer in [0, 2^64) raises
    ValueError rather than truncating or wrapping onto another stream.
    """

    __slots__ = ("seed", "stream_id", "_bitgen", "gen")

    def __init__(self, seed: int, stream_id: int = 0):
        _check_key(seed, stream_id)
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
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
        # an infinite beta or c would make every CTS proposal a rejection
        if not (0.0 < self.beta < math.inf):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (0.0 < self.c < math.inf):
            raise ValueError(f"c must be positive and finite, got {self.c}")

    # alpha > 0 only.  Each is computed on first use and kept; a law that
    # _cts_scale refuses keeps nothing, so both raise on every use.
    @cached_attribute
    def _sigma(self) -> float:
        return _cts_scale(self)

    @cached_attribute
    def _summands(self) -> int:
        # tilting draws per variate of sample_cts: the nearest integer to
        # -ln p, near the n that minimises the expected proposals n p^(-1/n),
        # while p >= TILTING_ACCEPTANCE_FLOOR; 0 below the floor, where the
        # route is double rejection.
        self._sigma  # raises where _cts_scale refuses
        p = cts_tilting_acceptance(self)
        return max(1, round(-math.log(p))) if p >= TILTING_ACCEPTANCE_FLOOR else 0


def cts_cumulants(p: CtsParams, k: int) -> float:
    """k-th cumulant of a one-sided CTS law: c * beta^(alpha-k) * Gamma(k-alpha)."""
    _check_cumulant_args(k)
    return p.c * p.beta ** (p.alpha - k) * gamma_fn(k - p.alpha)


def _gamma_shape_rate(stream: RngStream, shape: float, rate, n: int):
    """Gamma draws with scalar shape and scalar or vector rate.

    For shape < 1 the shape-boosting identity is used: if G has shape
    ``shape + 1`` and U is uniform then G * U**(1/shape) has shape
    ``shape``.  This keeps the generator away from the density's infinite
    mode at zero.  The stream holds the n gammas, then the n uniforms.

    Two passes over one output, one block of ``_CHUNK`` at a time: the
    first writes G / rate, the second (shape < 1 only) multiplies by
    U**(1/shape).  An array rate of length n is that output, overwritten
    and returned; a scalar rate fills a fresh one.  So each gamma is drawn
    once, and only the output and one block are alive.
    """
    g = stream.gen
    boost = shape < 1.0
    draw_shape = shape + 1.0 if boost else shape
    out = np.full(n, rate, dtype=float) if np.ndim(rate) == 0 else rate
    for lo in range(0, n, _CHUNK):
        x = out[lo : lo + _CHUNK]
        np.divide(g.standard_gamma(draw_shape, size=x.size), x, out=x)
    if boost:
        for lo in range(0, n, _CHUNK):
            x = out[lo : lo + _CHUNK]
            u = g.random(x.size)
            u **= 1.0 / shape
            x *= u
    return out


def sample_poisson(mean: float, stream: RngStream, size: int = 1):
    """``size`` Poisson draws; inversion for small means, rejection for large ones."""
    size = operator.index(size)
    if not (mean >= 0.0):
        raise ValueError(f"Poisson mean must be nonnegative, got {mean}")
    return stream.gen.poisson(mean, size=size)


def _finite_start(x0) -> np.ndarray:
    """``x0`` as a float array; a NaN or infinite start is a ValueError."""
    x0 = np.asarray(x0, dtype=float)
    if np.count_nonzero(np.isfinite(x0)) < x0.size:
        raise ValueError(f"x0 must be finite, got {x0}")
    return x0


def _start(x0, size: int) -> np.ndarray:
    """``x0`` as a float array of shape () or (size,), checked before any
    draw: a NaN or infinite start, or another shape, is a ValueError."""
    x = _finite_start(x0)
    if x.shape not in ((), (size,)):
        raise ValueError(f"x0 of shape {x.shape} does not match size {size}")
    return x


def _check_cumulant_args(k: int, x0=0.0, dt: float = 0.0) -> None:
    """Every cumulant oracle's domain: integer k >= 1, finite x0, dt >= 0 (inf: stationary)."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"cumulant order must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError(f"cumulant order must be >= 1, got {k}")
    _finite_start(x0)
    if not dt >= 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")


@dataclass(frozen=True)
class StepLaw:
    """Transition law over one OU step, a = exp(-b*dt):

        X(dt) = a*x0 + Z,  Z = CTS(x1_params) + Poisson(lambda_a) jumps,

    with no CTS part when ``x1_params`` is None and no jumps when ``lambda_a``
    is 0.  A jump is Gamma(1-alpha, jump_beta*V), V = a^-W on [1, 1/a]; the
    families differ only in the law of W, which a subclass supplies as
    ``jump_beta``, ``draw_v(stream, m)`` (m fresh draws of V) and W's density
    ``f_w(w)`` on [0, 1].  :meth:`increments` draws Z, :func:`path_states`
    runs the steps and :meth:`cumulant` is the oracle.
    """

    a: float
    x1_params: CtsParams | None
    lambda_a: float

    def __post_init__(self):
        # a = exp(-b dt) underflows to 0.0 for very large steps; allow it
        if not (0.0 <= self.a < 1.0):
            raise ValueError(f"scale a must be in [0, 1), got {self.a}")
        if not (self.lambda_a >= 0.0):
            raise ValueError(f"jump rate must be nonnegative, got {self.lambda_a}")

    def draw_jumps(self, stream: RngStream, m: int) -> np.ndarray:
        """m independent jumps in a fresh array that the caller may overwrite;
        the stream holds the m draws of V, then the gamma stage's draws."""
        v = self.draw_v(stream, m)
        v *= self.jump_beta
        return _gamma_shape_rate(stream, 1.0 - self.x1_params.alpha, v, m)

    def jump_moment(self, k: int) -> float:
        """k-th moment of one jump drawn by :meth:`draw_jumps`, by quadrature over f_w."""
        return gamma_mixture_moment(self.a, self.x1_params.alpha, self.jump_beta, k, self.f_w)

    def cumulant(self, k: int, x0: float = 0.0) -> float:
        """k-th cumulant of X(dt) given X(0) = x0: the CTS part's cumulant,
        plus lambda_a times the k-th jump moment, plus a*x0 at k = 1."""
        _check_cumulant_args(k, x0)
        val = 0.0 if self.x1_params is None else cts_cumulants(self.x1_params, k)
        if self.lambda_a > 0.0:
            val += self.lambda_a * self.jump_moment(k)
        if k == 1:
            val += self.a * x0
        return float(val)

    def check_size(self, size: int) -> None:
        """Raise the ValueError of ``increments(stream, size)``, drawing nothing:
        more than ``_MAX_EXPECTED_JUMPS`` jumps expected, or a CTS scale overflow."""
        if self.lambda_a * size > _MAX_EXPECTED_JUMPS:
            raise ValueError(
                f"jump rate lambda_a = {self.lambda_a:.4g} per path times size = {size} "
                f"expects more than the cap of {_MAX_EXPECTED_JUMPS} jumps per call; "
                "use fewer paths per call or a shorter step"
            )
        if self.x1_params is not None and self.x1_params.alpha > 0.0:
            self.x1_params._sigma  # raises where _cts_scale refuses

    def increments(self, stream: RngStream, size: int) -> np.ndarray:
        """``size`` independent increments Z, shape (size,).  The stream holds
        the CTS part, the Poisson counts, then the jumps in path order, one
        ``draw_jumps(m)`` per chunk of m <= ``_JUMP_CHUNK`` of them.  Each
        chunk is summed per path in place over the paths it covers, the two
        edge paths counting only their jumps inside it; a call of at most
        one chunk sums all its jumps as one array, and a call whose Poisson
        counts are all 0 returns its CTS part as drawn."""
        size = operator.index(size)
        self.check_size(size)
        z = np.zeros(size) if self.x1_params is None else sample_cts(self.x1_params, stream, size)
        counts = sample_poisson(self.lambda_a, stream, size)
        paths = counts.nonzero()[0]
        if not paths.size:
            return z
        ends = counts[paths].cumsum()  # jumps up to and including each path with any
        del counts
        total = int(ends[-1])
        for lo in range(0, total, _JUMP_CHUNK):
            hi = min(lo + _JUMP_CHUNK, total)
            # the paths whose jumps meet [lo, hi), searched for except at the
            # call's two ends, and where their jumps end in it
            first = ends.searchsorted(lo, "right") if lo else 0
            last = ends.size - 1 if hi == total else ends.searchsorted(hi - 1, "right")
            cut = ends[first : last + 1] - lo
            cut[-1] = hi - lo
            z[paths[first : last + 1]] += segment_sums(self.draw_jumps(stream, hi - lo), cut)
        return z

    def sample(self, x0, stream: RngStream, size: int = 1):
        """``size`` exact draws of X(dt) given X(0) = x0 (a float or one start
        per path), shape (size,): ``a*x0 + increments(stream, size)``, the
        one-step case of :func:`path_states` in its arithmetic and its draws,
        with the same start check and no generator around it."""
        size = operator.index(size)
        x = _start(x0, size)
        return self.a * x + self.increments(stream, size)


def path_states(runs, x0, stream: RngStream, size: int, max_draws: int):
    """Yield fresh (size,) arrays X(t_1), X(t_2), ... from X(0) = x0 (finite,
    shape () or (size,), checked before any draw) by X' = law.a*X + Z, for
    ``runs`` of ``(law, steps)`` pairs in turn.  Each :meth:`StepLaw.increments`
    call draws Z for ``max(1, max_draws // size)`` steps of a run."""
    size = operator.index(size)
    x = _start(x0, size)
    per_call = max(1, max_draws // max(size, 1))
    for law, steps in runs:
        for start in range(0, steps, per_call):
            m = min(per_call, steps - start)
            for z in law.increments(stream, m * size).reshape(m, size):
                x = law.a * x + z
                yield x


def _rejection_loop(propose, n: int, what: str):
    """Vectorised rejection: ``propose(m)`` returns m candidates and their
    accept mask; rejected slots are proposed again until all n are filled.

    Returns the draws and the total number of proposals made.  The first
    round proposes every slot, so its candidates are the output array and
    only the rejected slots are proposed again; a first round that accepts
    every slot returns at once, with n proposals and no index of pending
    slots built; n = 0 proposes nothing.
    """
    if n == 0:
        return np.empty(0), 0
    out, accept = propose(n)
    # count_nonzero and nonzero skip the Python layers of all() and flatnonzero()
    if np.count_nonzero(accept) == n:
        return out, n
    pending = (~accept).nonzero()[0]
    proposals, rounds = n, 1
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
    while not x.all():
        bad = x == 0.0
        x[bad] = draw(g, int(bad.sum()))
    return x


def sample_stable_subordinator(alpha: float, stream: RngStream, size: int = 1):
    """``size`` positive stable draws with Laplace transform exp(-u**alpha).

    Kanter / Chambers-Mallows-Stuck representation: with Theta uniform on
    (0, pi) and E a unit exponential,

        S = (A(Theta) / E) ** ((1-alpha)/alpha),
        A(t) = (sin(alpha*t)**alpha * sin((1-alpha)*t)**(1-alpha) / sin(t))
               ** (1/(1-alpha)).

    Computed in place, in the operation order of
    ``log A = (alpha log sin(alpha t) + (1-alpha) log sin((1-alpha) t)
    - log sin t) / (1-alpha)`` and ``S = exp((1-alpha)/alpha (log A - log E))``.
    """
    size = operator.index(size)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"stable index must be in (0, 1), got {alpha}")
    g = stream.gen
    theta = _redraw_zeros(g, g.random(size), lambda g_, m: g_.random(m))
    e = _redraw_zeros(
        g, g.standard_exponential(size), lambda g_, m: g_.standard_exponential(m)
    )
    theta *= np.pi
    log_a = np.multiply(theta, alpha)
    np.sin(log_a, out=log_a)
    np.log(log_a, out=log_a)
    log_a *= alpha
    t = np.multiply(theta, 1.0 - alpha)
    np.sin(t, out=t)
    np.log(t, out=t)
    t *= 1.0 - alpha
    log_a += t
    np.sin(theta, out=theta)
    np.log(theta, out=theta)
    log_a -= theta
    log_a /= 1.0 - alpha
    np.log(e, out=e)
    log_a -= e
    log_a *= (1.0 - alpha) / alpha
    return np.exp(log_a, out=log_a)


def cts_tilting_acceptance(params: CtsParams) -> float:
    """Analytic acceptance probability of the exponential-tilting sampler.

    Equals exp(-c * Gamma(1-alpha) * beta**alpha / alpha), the Laplace
    transform of the untempered stable component at the tempering rate.
    """
    if params.alpha == 0.0:
        return 1.0
    a, b, c = params.alpha, params.beta, params.c
    return float(np.exp(-c * float(gamma_fn(1.0 - a)) * b**a / a))


def sample_cts(params: CtsParams, stream: RngStream, size: int = 1):
    """``size`` exact draws from a one-sided CTS law, by the route the law picks.

    ``alpha == 0`` is the gamma law.  Otherwise, with p the tilting
    acceptance ``cts_tilting_acceptance(params)``: while p >=
    ``TILTING_ACCEPTANCE_FLOOR`` (0.05), the sum of n = max(1, round(-ln p))
    independent tilting draws of CTS(alpha, beta, c/n), each at scale
    sigma n^(-1/alpha) and acceptance p^(1/n), drawn one after the other and
    added into the first (n = 1 when -ln p < 1.5), at most 3 * 0.05^(-1/3)
    = 8.14 expected proposals per draw; below the floor, Devroye's double
    rejection, whose proposals per draw are bounded uniformly in the tilt
    (1.8-7.4 measured).
    """
    size = operator.index(size)
    a, b, c = params.alpha, params.beta, params.c
    if a == 0.0:
        return _gamma_shape_rate(stream, c, b, size)

    sigma = params._sigma
    n = params._summands
    if n == 0:
        return sigma * _tilted_stable_double_rejection(a, b * sigma, stream, size)
    scale = sigma * n ** (-1.0 / a)
    x = _cts_tilting(a, b, scale, stream, size)
    for _ in range(n - 1):
        x += _cts_tilting(a, b, scale, stream, size)
    return x


def _cts_scale(params: CtsParams) -> float:
    """sigma in CTS(alpha, beta, c) = sigma * (stable tilted by lam = beta*sigma).
    Raises where no route can draw: sigma = inf, or gamma = lam^alpha alpha (1-alpha)
    above about alpha^2 2^106 (lam = inf too), where double rejection's z divides by 0."""
    # Python floats round every step as numpy's scalars do; only ** reports
    # an overflow, by raising where numpy returns inf
    a, b, c = float(params.alpha), float(params.beta), float(params.c)
    try:
        sigma = (c * float(gamma_fn(1.0 - a)) / a) ** (1.0 / a)
    except OverflowError:
        sigma = math.inf
    lam = b * sigma
    gamma_ = lam**a * a * (1.0 - a)
    if math.isinf(sigma):
        # both routes would reject every proposal until the round cap
        raise ValueError(
            f"CTS scale (c*Gamma(1-alpha)/alpha)^(1/alpha) overflows for alpha = {a!r}, "
            f"c = {c!r}; alpha is too small for this c"
        )
    if gamma_ > 0.0 and 1.0 + a / math.sqrt(gamma_) == 1.0:  # gamma = 0: sigma underflowed
        raise ValueError(
            f"CTS tilt beta*sigma = {lam:.4g} is too heavy for double rejection at "
            f"alpha = {a!r} (gamma = {gamma_:.4g} > alpha^2 * 2^106)"
        )
    # the draws multiply by sigma as the numpy scalar they always had: a
    # Python float sigma, same bits, raised cumulant-coarse's peak RSS by
    # about 0.5 MB through the heap layout of the double-rejection cells
    return np.float64(sigma)


def _cts_tilting(alpha: float, beta: float, sigma: float, stream: RngStream, n: int):
    """Tilting rejection: scaled stable proposals accepted with prob exp(-beta*x).

    A round scales its stable draws in place and tilts and exponentiates
    one copy of them in place, so it allocates one array of proposals and
    one of acceptance probabilities besides its uniforms and its mask.
    """

    def propose(m):
        x = sample_stable_subordinator(alpha, stream, size=m)
        x *= sigma
        u = stream.gen.random(m)
        t = np.multiply(x, -beta)
        np.exp(t, out=t)
        return x, u <= t

    return _rejection_loop(propose, n, "tilting rejection")[0]


def _sinc(x, sin_x):
    # sin(x)/x from a precomputed sin(x), with a series near zero
    # (unnormalised, unlike np.sinc).
    with np.errstate(invalid="ignore", divide="ignore"):
        out = sin_x / x
    small = np.abs(x) < 6e-3
    if small.any():
        xs = x[small]
        out[small] = 1.0 - xs * xs / 6.0 * (1.0 - xs * xs / 20.0)
    return out


def _tilted_stable_double_rejection(
    alpha: float, lam: float, stream: RngStream, n: int
) -> np.ndarray:
    """Devroye's double-rejection sampler for the tilted positive stable law.

    Target density is proportional to exp(-lam*x) * g(x) where g is the
    density of the standard positive stable law (Laplace transform
    exp(-u**alpha)).  The expected number of iterations is uniformly
    bounded in ``lam``, which is what makes heavy tilts affordable.
    Uses Hofert's numerically stable form of the log acceptance ratio.

    Every round draws the same eight length-m arrays in the same order
    (``v, w, nrm``, the stage-1 uniform, then ``v2, nrm2, u3, e1``), so the
    stream consumption depends only on the number of candidates.  Stage 1
    (the angle ``u`` and its bound ``rho``) runs on every candidate; stage 2
    (Zolotarev's A(u), the mixture proposal for x and the log acceptance
    ratio) runs only on the stage-1 survivors.  sin(u), sin(alpha*u) and
    sin((1-alpha)*u) are computed once per round and feed both the sinc
    ratio of stage 1 and A(u) of stage 2.
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
        u = g.random(m)  # w, turned into the angle u in place
        nrm = g.standard_normal(m)
        # u is the mixture's second component pi (1 - w^2), overwritten
        # where v picks the first one
        if gamma_ >= 1.0:
            first = v < w1 / (w1 + w2)
            alt = np.abs(nrm, out=nrm)
            alt /= sqrt_gamma
        else:
            first = v < w3 / (w2 + w3)
            alt = np.multiply(u, np.pi)
        u *= u
        np.subtract(1.0, u, out=u)
        u *= np.pi
        np.copyto(u, alt, where=first)
        del v, nrm, alt, first
        inside = (u > 0.0) & (u < np.pi)

        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            # stage 1, every candidate: zeta = sqrt(B(u)/B(0)) in Devroye's
            # notation, written with sinc for stability.  In place, in the
            # operation order of zeta = sqrt(sinc(u) / (sinc(alpha u)^alpha
            # sinc((1-alpha) u)^(1-alpha))), z = 1 / (1 - (1 + alpha zeta /
            # sqrt_gamma)^(-1/alpha)) and rho = pi exp(-lam^alpha (1 - 1/zeta^2))
            # d / ((1+c1) sqrt_gamma / zeta + z); x*y = y*x and x+y = y+x are
            # the only reorderings, so every value rounds as written there.
            sin_u = np.sin(u)
            t = np.multiply(u, alpha)
            sin_au = np.sin(t)
            zeta = _sinc(t, sin_au)
            zeta **= alpha
            np.multiply(u, 1.0 - alpha, out=t)
            sin_bu = np.sin(t)
            t = _sinc(t, sin_bu)
            t **= 1.0 - alpha
            zeta *= t
            np.divide(_sinc(u, sin_u), zeta, out=zeta)
            np.sqrt(zeta, out=zeta)
            z = np.multiply(zeta, alpha)
            z /= sqrt_gamma
            z += 1.0
            z **= -1.0 / alpha
            np.subtract(1.0, z, out=z)
            np.divide(1.0, z, out=z)
            # d = psi / sqrt(pi - u) inside (0, pi), else 0, plus the normal
            # or constant part of the bound
            d = np.subtract(np.pi, u)
            np.sqrt(d, out=d)
            np.divide(psi, d, out=d)
            d[~inside] = 0.0
            if gamma_ >= 1.0:
                np.multiply(u, -gamma_, out=t)
                t *= u
                t /= 2.0
                np.exp(t, out=t)
                t *= xi
                d += t
            else:
                d += xi
            rho = np.multiply(zeta, zeta)
            np.divide(1.0, rho, out=rho)
            np.subtract(1.0, rho, out=rho)
            rho *= -lam_alpha
            np.exp(rho, out=rho)
            rho *= np.pi
            rho *= d
            np.divide((1.0 + c1) * sqrt_gamma, zeta, out=zeta)
            zeta += z
            rho /= zeta
            del u, t, zeta, d
            big_z = g.random(m)
            big_z *= rho
            del rho

            # stage 2, survivors only (elementwise, so the same values as
            # on the full arrays); its four draws are gathered at the
            # survivors as they are drawn
            k = np.flatnonzero(inside & (big_z <= 1.0))
            z, big_z = z[k], big_z[k]
            sin_u, sin_au, sin_bu = sin_u[k], sin_au[k], sin_bu[k]
            v2 = g.random(m)[k]
            nrm2 = g.standard_normal(m)[k]
            u3 = g.random(m)[k]
            e1 = g.standard_exponential(m)[k]
            # Zolotarev's function A(u) entering the stable density
            a_zol = (sin_au**alpha * sin_bu ** (1.0 - alpha) / sin_u) ** (1.0 / (1.0 - alpha))
            mm = (b / a_zol) ** alpha * lam_alpha
            delta = np.sqrt(mm * alpha / a_zol)
            a1 = delta * c1
            a3 = z / a_zol
            s = a1 + delta + a3
            x = np.where(
                v2 < a1 / s,
                mm - delta * np.abs(nrm2),
                np.where(v2 < (a1 + delta) / s, mm + delta * u3, mm + delta + e1 * a3),
            )
            e2 = -np.log(big_z)
            log_accept = a_zol * (x - mm) + lam * mm ** (-b) * ((mm / x) ** b - 1.0)
            log_accept = log_accept - np.where(x < mm, nrm2 * nrm2 / 2.0, 0.0)
            log_accept = log_accept - np.where(x > mm + delta, e1, 0.0)

        accept = np.zeros(m, dtype=bool)
        accept[k] = (x > 0.0) & (log_accept <= e2)
        out = np.zeros(m)
        out[k] = x
        return out, accept

    return _rejection_loop(propose, n, "double rejection")[0] ** (-b)


def sample_inverse_gaussian(mu: float, lambda_ig: float, stream: RngStream, size: int = 1):
    """``size`` exact inverse Gaussian draws by the many-to-one transformation.

    Michael-Schucany-Haas method: one chi-square root of the defining
    quadratic plus a uniform coin choosing between the two preimages; no
    rejection loop.
    """
    size = operator.index(size)
    if not (0.0 < mu < math.inf):
        raise ValueError(f"IG mean must be positive and finite, got {mu}")
    if not (0.0 < lambda_ig < math.inf):
        raise ValueError(f"IG shape must be positive and finite, got {lambda_ig}")
    g = stream.gen
    nrm = g.standard_normal(size)
    y = nrm * nrm
    # the smaller root mu (1 + r - sqrt(r (r + 2))), r = mu y / (2 lambda), in
    # the equal form mu / (1 + r + sqrt(r (r + 2))), which has no cancellation
    r = mu * y / (2.0 * lambda_ig)
    x = mu / (1.0 + r + np.sqrt(r * (r + 2.0)))
    u = g.random(size)
    return np.where(u <= mu / (mu + x), x, mu * mu / x)
