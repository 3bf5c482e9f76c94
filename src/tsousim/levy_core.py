"""Levy-measure representations and analytic oracles for OU transition laws.

The stationary law of a Levy-driven OU process is self-decomposable: its
characteristic function factors as eta(u) = eta(a*u) * chi_a(u) for every
a in (0, 1).  The law with characteristic function chi_a (the remainder at
scale ``a``) is exactly the law of the transition increment over a step of
length dt once a = exp(-b*dt).  This module implements, for laws given by
a Levy triplet (gamma, sigma, nu):

* the triplet of the remainder law at scale ``a`` (``aremainder_triplet``);
* the split of a tempered-stable remainder into a rescaled tempered-stable
  part plus a compound-Poisson part (``ts_remainder_decompose``);
* the two maps between the stationary Levy density and the density of the
  background driving Levy process (``stationary_density_from_bdlp`` and
  ``bdlp_density_from_stationary``);
* numeric evaluation of the Levy-Khintchine integral (``lk_log_chf``) and
  closed-form cumulants used throughout the validation harness.

Quadrature follows one policy everywhere: QUADPACK's 21-point
Gauss-Kronrod rule, applied adaptively (the subinterval with the largest
error estimate is bisected, at most 300 subintervals) on a
log-transformed axis with the origin singularity split off, absolute
tolerance 1e-10 and relative tolerance 1e-8; an estimated error above
100 times the tolerance, or a non-finite value, raises
:class:`QuadratureError`.  Each panel evaluates the integrand once on
all its nodes, so densities should accept arrays; a scalar-only callable
still works, evaluated node by node.  One ``np.errstate`` around each
quadrature silences the densities at the ends of their range; they open
none of their own.  Nothing here needs scipy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from ._util import _one_minus_pow, gammainc
from ._util import gamma as gamma_fn
from .rand_core import CtsParams, _check_cumulant_args

__all__ = [
    "LevyTriplet",
    "TsRemainderDecomposition",
    "GeneralTsLaw",
    "NotSelfDecomposableError",
    "DecompositionError",
    "QuadratureError",
    "aremainder_triplet",
    "lk_log_chf",
    "ts_remainder_decompose",
    "stationary_density_from_bdlp",
    "bdlp_density_from_stationary",
    "cts_log_chf",
    "ou_cumulants_from_stationary",
    "ou_cumulants_from_bdlp",
]

ABS_TOL = 1e-10
REL_TOL = 1e-8

# Deterministic grids so that construction-time checks fail reproducibly.
_INTEGRABILITY_GRID = np.logspace(-10.0, 10.0, 400)
_MONOTONE_GRID = np.logspace(-8.0, 6.0, 400)
_REMAINDER_GRID = np.logspace(-6.0, 4.0, 200)
_TAIL_GRID = np.logspace(-8.0, 14.0, 120)

# Lower log-axis cutoff.  Below exp(-300) the residual mass of any
# finite-variation density with alpha <= 0.9 is under 1e-12, while
# x**-(1+alpha) still evaluates without overflow.
_LOG_FLOOR = -300.0


class NotSelfDecomposableError(ValueError):
    """The requested transform needs a self-decomposable input law."""


class DecompositionError(ValueError):
    """The compound-Poisson part of a remainder law is not normalisable."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# QUADPACK's 21-point Gauss-Kronrod rule (qk21): the Kronrod abscissae on
# [0, 1) in decreasing order, their weights (the last is the centre's) and
# the weights of the embedded 10-point Gauss rule, which uses every second
# abscissa from the second on.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600197834851, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the same rule on all 21 nodes of [-1, 1] in increasing order
_GK_NODES = np.concatenate([np.negative(_XGK), [0.0], _XGK[::-1]])
_GK_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[11:20:2] = _WG[::-1]
_MAX_INTERVALS = 300
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _evaluate(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` at every point of the 1-d array ``x``: one call on the array,
    or one call per point when ``fn`` takes only scalars (such as a density
    built on ``math.exp``, or a ``bdlp_density_from_stationary`` closure)."""
    try:
        vals = np.asarray(fn(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(xi)) for xi in x])


def _gk21(fn, lo: np.ndarray, hi: np.ndarray):
    """QUADPACK's qk21 on each interval [lo[i], hi[i]], all nodes in one call.

    Returns the Kronrod estimates and QUADPACK's error estimates: the
    Kronrod-Gauss difference, rescaled by the integrand's variation about
    its mean and floored at 50 eps times the integral of |fn|.  Runs
    inside ``_quad``'s errstate (the rescaling divides 0 by 0 where it is
    not used).
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = centre[:, None] + half[:, None] * _GK_NODES
    f = _evaluate(fn, x.ravel()).reshape(x.shape)
    res_k = f @ _GK_KRONROD
    res_g = f @ _GK_GAUSS
    res_abs = np.abs(f) @ _GK_KRONROD * np.abs(half)
    res_asc = np.abs(f - 0.5 * res_k[:, None]) @ _GK_KRONROD * np.abs(half)
    err = np.abs((res_k - res_g) * half)
    err = np.where(
        (res_asc != 0.0) & (err != 0.0),
        res_asc * np.minimum(1.0, (200.0 * err / res_asc) ** 1.5),
        err,
    )
    err = np.where(res_abs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * res_abs, err), err)
    return res_k * half, err


def _quad(fn, lo, hi, *, name: str):
    """Integral of ``fn`` over [lo, hi] by adaptive 21-point Gauss-Kronrod.

    The subinterval with the largest error estimate is bisected, both
    halves in one call of ``fn``, until the summed error estimate meets
    the tolerance or the partition has ``_MAX_INTERVALS`` subintervals.
    The errstate covers every integrand call, so the densities open none
    of their own.
    """
    with np.errstate(all="ignore"):
        vals, errs = _gk21(fn, np.array([lo], dtype=float), np.array([hi], dtype=float))
        heap = [(-errs[0], float(lo), float(hi), vals[0])]
        while True:
            val = math.fsum(item[3] for item in heap)
            err = -math.fsum(item[0] for item in heap)
            if err <= max(ABS_TOL, abs(val) * REL_TOL) or len(heap) == _MAX_INTERVALS:
                break
            _, a, b, _ = heap[0]
            mid = 0.5 * (a + b)
            if not a < mid < b:  # the worst subinterval cannot be split further
                break
            vals, errs = _gk21(fn, np.array([a, mid]), np.array([mid, b]))
            heapq.heapreplace(heap, (-errs[0], a, mid, vals[0]))
            heapq.heappush(heap, (-errs[1], mid, b, vals[1]))
    if not np.isfinite(val):
        raise QuadratureError(f"{name}: non-finite quadrature value {val}")
    if err > 100.0 * max(ABS_TOL, abs(val) * REL_TOL):
        raise QuadratureError(f"{name}: estimated error {err:.3e} for value {val:.6e}")
    return val


def _tail_cutoff(density: Callable[[np.ndarray], np.ndarray]) -> float:
    """Upper truncation point for integrals of ``density`` against bounded factors.

    Works on the log-axis mass x*density(x); the cutoff is where that mass
    has decayed 18 orders of magnitude below its peak.
    """
    x = _TAIL_GRID
    with np.errstate(all="ignore"):
        mass = np.abs(_evaluate(density, x)) * x
    mass[~np.isfinite(mass)] = 0.0
    ref = mass.max()
    if ref == 0.0:
        return 1.0
    alive = np.nonzero(mass > 1e-18 * ref)[0]
    return float(min(x[alive[-1]] * 16.0, 1e15))


def _quad_positive(fn, *, x_hi: float, name: str) -> float:
    """Integral of ``fn`` over (0, x_hi) via the substitution x = exp(t)."""
    t_hi = np.log(x_hi)
    breaks = [_LOG_FLOOR, -60.0, -15.0, -4.0, 0.0, 3.0]
    breaks = [t for t in breaks if t < t_hi] + [t_hi]

    def g(t):  # called inside _quad's errstate
        x = np.exp(t)
        v = fn(x) * x
        return np.where(np.isfinite(v), v, 0.0)

    return sum(_quad(g, ta, tb, name=name) for ta, tb in zip(breaks[:-1], breaks[1:]))


def _cos_m1(t):
    # cos(t) - 1 without cancellation
    return -2.0 * np.sin(t / 2.0) ** 2


def _sin_m_t(t):
    # sin(t) - t with a series for small arguments
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 1e-4
    ts = np.where(small, t, 1.0)
    series = -(ts**3) / 6.0 * (1.0 - ts * ts / 20.0)
    return np.where(small, series, np.sin(t) - t)


@dataclass(frozen=True)
class GeneralTsLaw:
    """Tempered-stable subordinator law with a user-supplied tempering function.

    Levy density ``c * q(x) / x**(1+alpha)`` on x > 0, where q is monotone
    nonincreasing with q(0) = 1 and q(x) -> 0.  The small-x regularity
    hypothesis q(x) - q(g*x) = o(x**alpha) is assumed, not verified.
    """

    alpha: float
    c: float
    q: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if not (self.c > 0.0):
            raise ValueError(f"c must be positive, got {self.c}")
        q0 = float(self.q(np.asarray(0.0)))
        if abs(q0 - 1.0) > 1e-9:
            raise ValueError(f"tempering function must satisfy q(0)=1, got {q0}")


def _cts_nu(params: CtsParams) -> Callable:
    """Levy density c e^(-beta x) / x^(1+alpha) of a one-sided CTS law.

    It opens no errstate of its own (quadrature calls it inside
    ``_quad``'s).  For x > 0 it is silent; x = 0 gives inf with numpy's
    divide-by-zero warning.
    """
    a, b, c = params.alpha, params.beta, params.c

    def nu(x):
        x = np.asarray(x, dtype=float)
        return c * np.exp(-b * x) / x ** (1.0 + a)

    return nu


class LevyTriplet:
    """Levy triplet (gamma, sigma, nu) with the truncation function 1_{|x|<=1}.

    ``nu`` is a callable density on the support; ``k_fn`` is the canonical
    density k(x) = |x| * nu(x), whose monotonicity characterises
    self-decomposability.  Construction of every triplet, remainders
    included, numerically checks that nu is finite away from 0 and that
    (1 ^ x^2) nu(x) is integrable on a fixed log grid and, when the law
    is flagged self-decomposable, spot-checks that k is nonincreasing on
    the positive axis.
    """

    def __init__(
        self,
        gamma_drift: float,
        sigma: float,
        nu: Callable,
        *,
        subordinator: bool = True,
        self_decomposable: bool = True,
    ):
        self.gamma_drift = float(gamma_drift)
        self.sigma = float(sigma)
        self.nu = nu
        self.k_fn = lambda x: np.abs(x) * nu(x)
        self.subordinator = bool(subordinator)
        self.self_decomposable = bool(self_decomposable)
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.subordinator and self.sigma != 0.0:
            raise ValueError("a subordinator has no Gaussian part; flag it two-sided")
        x = _INTEGRABILITY_GRID
        with np.errstate(all="ignore"):
            vals = np.asarray(self.nu(x), dtype=float)
        if np.any(~np.isfinite(vals) & (x > 1e-8) & (x < 1e8)):
            raise ValueError("Levy density must be finite away from the origin")
        mass = np.minimum(1.0, x * x) * np.where(np.isfinite(vals), vals, 0.0)
        total = np.trapezoid(mass, x)
        if not np.isfinite(total) or total > 1e6:
            raise ValueError("(1 ^ x^2) nu(x) is not integrable on the check grid")
        if self.self_decomposable:
            with np.errstate(all="ignore"):
                k = np.asarray(self.k_fn(_MONOTONE_GRID), dtype=float)
            k = np.where(np.isfinite(k), k, 0.0)
            rises = np.diff(k) > 1e-9 * (1.0 + k.max())
            if rises.any():
                raise NotSelfDecomposableError(
                    "k(x) = |x| nu(x) increases on the positive axis"
                )

    @classmethod
    def from_cts(cls, params: CtsParams) -> "LevyTriplet":
        """Triplet of a one-sided CTS law, drift chosen so the law itself
        (not a shifted copy) is represented: gamma = int_0^1 x nu(x) dx."""
        a, b, c = params.alpha, params.beta, params.c
        nu = _cts_nu(params)
        # int_0^1 x^-alpha e^(-beta x) dx in closed form
        drift = c * b ** (a - 1.0) * gamma_fn(1.0 - a) * gammainc(1.0 - a, b)
        return cls(drift, 0.0, nu, subordinator=True, self_decomposable=True)


@dataclass(frozen=True)
class TsRemainderDecomposition:
    """Remainder of a tempered-stable law split into its two independent parts.

    ``scaled`` is the original law with intensity rescaled by (1 - a^alpha);
    ``lambda_a`` and ``nu2`` describe the compound-Poisson part: event rate
    lambda_a and Levy density nu_2, so the jump density is nu_2 / lambda_a.
    """

    scaled: Union[CtsParams, GeneralTsLaw]
    lambda_a: float
    nu2: Callable = field(repr=False)


def aremainder_triplet(t: LevyTriplet, a: float) -> LevyTriplet:
    """Triplet (gamma_a, sigma_a, nu_a) of the remainder law of ``t`` at scale ``a``.

    For the source triplet (gamma, sigma, nu) with canonical density k:

        gamma_a = gamma*(1-a) - a * int sign(x) (1_{|x|<=1/a} - 1_{|x|<=1}) k(x) dx
        sigma_a = sigma * sqrt(1 - a^2)
        nu_a(x) = nu(x) - nu(x/a)/a

    A remainder is not self-decomposable in general (the gamma law's
    k_a(x) = c (e^(-beta x) - e^(-beta x/a)) rises from 0) and is flagged
    so.  Raises :class:`NotSelfDecomposableError` if the input is not
    flagged self-decomposable (a remainder of a remainder, say) or if
    nu_a comes out negative on the check grid.  The remainder passes its
    construction check whenever ``t`` did, since nu_a <= nu where nu >= 0.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"scale a must be in (0, 1), got {a}")
    if not t.self_decomposable:
        raise NotSelfDecomposableError("input triplet is not self-decomposable")

    nu = t.nu

    def nu_a(x):
        x = np.asarray(x, dtype=float)
        return nu(x) - nu(x / a) / a

    with np.errstate(all="ignore"):
        vals = np.asarray(nu_a(_REMAINDER_GRID), dtype=float)
        ref = np.asarray(nu(_REMAINDER_GRID), dtype=float)
    bad = np.isfinite(vals) & np.isfinite(ref) & (vals < -1e-10 * (np.abs(ref) + 1.0))
    if bad.any():
        raise NotSelfDecomposableError(
            f"nu_a negative at x={_REMAINDER_GRID[bad][0]:.3e}"
        )

    k = t.k_fn
    corr = _quad(lambda x: k(x), 1.0, 1.0 / a, name="remainder drift (positive side)")
    if not t.subordinator:
        corr -= _quad(lambda x: k(-x), 1.0, 1.0 / a, name="remainder drift (negative side)")
    gamma_a = t.gamma_drift * (1.0 - a) - a * corr
    sigma_a = t.sigma * np.sqrt(1.0 - a * a)
    return LevyTriplet(
        gamma_a, sigma_a, nu_a, subordinator=t.subordinator, self_decomposable=False
    )


def lk_log_chf(t: LevyTriplet, u: float) -> complex:
    """Levy-Khintchine log characteristic function of a triplet at real ``u``.

    For subordinator triplets the integral is taken in the no-truncation
    form int (e^{iux} - 1) nu(dx) with the drift shifted accordingly, so
    the returned value is the log chf of the actual positive law (zero
    shifted-drift for laws built by the class constructors here).
    """
    u = float(u)
    if u == 0.0:
        return 0.0 + 0.0j
    nu = t.nu
    x_hi = _tail_cutoff(nu)
    if t.subordinator:
        drift_nt = t.gamma_drift - _quad_positive(
            lambda x: x * nu(x), x_hi=1.0, name="no-truncation drift"
        )
        re = _quad_positive(lambda x: _cos_m1(u * x) * nu(x), x_hi=x_hi, name="lk re")
        im = _quad_positive(lambda x: np.sin(u * x) * nu(x), x_hi=x_hi, name="lk im")
        return complex(re, im + u * drift_nt)
    # General two-sided form with the 1_{|x|<=1} truncation.
    re = _quad_positive(lambda x: _cos_m1(u * x) * (nu(x) + nu(-x)), x_hi=x_hi, name="lk re")
    # imaginary part: compensated below 1, plain above
    im_inner = _quad_positive(
        lambda x: _sin_m_t(u * x) * (nu(x) - nu(-x)), x_hi=1.0, name="lk im inner"
    )
    im_outer = _quad(
        lambda x: np.sin(u * x) * (nu(x) - nu(-x)), 1.0, x_hi, name="lk im outer"
    )
    total_im = im_inner + im_outer + u * t.gamma_drift
    return complex(re - 0.5 * t.sigma**2 * u * u, total_im)


def ts_remainder_decompose(
    law: Union[CtsParams, GeneralTsLaw], a: float
) -> TsRemainderDecomposition:
    """Split the remainder of a tempered-stable law at scale ``a``.

    nu_a = nu_1 + nu_2 with nu_1 = c (1 - a^alpha) q(x) / x^(1+alpha) (the
    rescaled original law) and nu_2 = c a^alpha (q(x) - q(x/a)) / x^(1+alpha)
    (integrable, hence compound Poisson with rate lambda_a = int nu_2).
    The rate uses the closed form for exponential tempering and quadrature
    otherwise.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"scale a must be in (0, 1), got {a}")
    # the rescaled part's intensity c (1 - a^alpha) is 0 at alpha = 0 (or
    # when it underflows); the smallest normal float stands in for it
    scaled_c = law.c * _one_minus_pow(a, law.alpha) or np.finfo(float).tiny

    if isinstance(law, CtsParams):
        alpha, c = law.alpha, law.c
        beta = law.beta

        def nu2(x):
            x = np.asarray(x, dtype=float)
            diff = -np.exp(-beta * x) * np.expm1(-beta * x * (1.0 / a - 1.0))
            return c * a**alpha * diff / x ** (1.0 + alpha)

        if alpha > 0.0:
            lam = c * gamma_fn(1.0 - alpha) * beta**alpha * _one_minus_pow(a, alpha) / alpha
        else:
            lam = c * np.log(1.0 / a)
        scaled = CtsParams(alpha, beta, scaled_c)
    else:
        alpha, c, q = law.alpha, law.c, law.q

        # Below delta the direct difference q(x) - q(x/a) drowns in rounding
        # (both terms are ~q(0)).  Anchor the difference at delta and
        # delta/2, where it is still well conditioned, and extend downward:
        # for a smooth tempering function D(x) = q(x) - q(x/a) = A x + B x^2
        # + O(x^3), so the two anchors pin A and B with ~1e-11 relative
        # error and the dropped cubic contributes O(delta^2) relative.
        # The measured local exponent of D also tests the decomposition's
        # small-x hypothesis D(x) = o(x^alpha): failing it means nu_2 is
        # not integrable.
        delta = 1e-4
        d0 = float(q(delta) - q(delta / a))
        d1 = float(q(delta / 2.0) - q(delta / (2.0 * a)))
        if not (d0 > 0.0 and d1 > 0.0):
            raise DecompositionError("tempering function is not decreasing near 0")
        s_local = np.log2(d0 / d1)
        if s_local <= alpha + 0.02:
            raise DecompositionError(
                f"nu_2 is not integrable: q(x) - q(x/a) ~ x^{s_local:.3f} near 0 "
                f"is not o(x^alpha) for alpha={alpha}"
            )
        coef_b = 2.0 * (d0 - 2.0 * d1) / delta**2
        coef_a = (4.0 * d1 - d0) / delta
        if abs(s_local - 1.0) <= 0.2:
            small_d = lambda x: coef_a * x + coef_b * x * x
        else:  # integrable but genuinely non-smooth: power-law continuation
            small_d = lambda x: d0 * (x / delta) ** s_local

        def nu2(x):
            x = np.asarray(x, dtype=float)
            diff = np.where(x < delta, small_d(x), q(x) - q(x / a))
            return c * a**alpha * diff / x ** (1.0 + alpha)

        x_hi = _tail_cutoff(nu2)
        try:
            lam = _quad_positive(nu2, x_hi=x_hi, name="lambda_a")
        except QuadratureError as exc:
            raise DecompositionError(f"nu_2 is not integrable: {exc}") from exc
        if not (np.isfinite(lam) and lam >= 0.0):
            raise DecompositionError(f"nu_2 gave rate {lam}")
        scaled = GeneralTsLaw(alpha, scaled_c, q)

    return TsRemainderDecomposition(scaled, float(lam), nu2)


def stationary_density_from_bdlp(nu_L: Callable, b: float, T: float, x: float) -> float:
    """Stationary Levy density at ``x`` from the driving-process density.

    nu_X(x) = U(x) / (T b |x|) with U the tail mass of nu_L beyond x.
    """
    if x == 0.0:
        raise ValueError("stationary density is undefined at x = 0")
    nu = nu_L if x > 0.0 else lambda y: nu_L(-y)
    x = abs(x)
    x_hi = max(_tail_cutoff(nu), 2.0 * x)
    if x >= x_hi:
        return 0.0
    return _quad(nu, x, x_hi, name="U(x)") / (T * b * x)


def bdlp_density_from_stationary(nu_X: Callable, b: float, T: float, x: float) -> float:
    """Driving-process Levy density at ``x`` from the stationary density.

    nu_L(x) = -T b (nu_X(x) + x * nu_X'(x)); the derivative is taken by
    central difference with step max(1e-6, 1e-4 |x|).
    """
    if x == 0.0:
        raise ValueError("density map is undefined at x = 0")
    h = max(1e-6, 1e-4 * abs(x))
    d = (float(nu_X(x + h)) - float(nu_X(x - h))) / (2.0 * h)
    return -T * b * (float(nu_X(x)) + x * d)


def cts_log_chf(p: CtsParams, u: float) -> complex:
    """Closed-form log characteristic function of a one-sided CTS law."""
    if p.alpha == 0.0:
        return -p.c * np.log(1.0 - 1j * u / p.beta)
    g = p.c * gamma_fn(1.0 - p.alpha) / p.alpha
    return g * (p.beta**p.alpha - (p.beta - 1j * u) ** p.alpha)


def _cumulant_at(cumulants, k: int, x0: float, b: float, dt: float, T: float = 1.0) -> float:
    """The k-th of ``cumulants`` (a sequence, or a callable of k), once k,
    x0, b, dt and T pass the checks both OU maps below make."""
    _check_cumulant_args(k, x0, dt)
    for name, value in (("b", b), ("T", T)):
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if callable(cumulants):
        return float(cumulants(k))
    return float(cumulants[k - 1])


def ou_cumulants_from_stationary(
    stat_cumulants: Union[Sequence[float], Callable[[int], float]],
    x0: float,
    b: float,
    dt: float,
    k: int,
) -> float:
    """OU transition cumulant from the stationary cumulants.

    k=1: x0 e^(-b dt) + c1 (1 - e^(-b dt)); k>=2: ck (1 - e^(-k b dt)).
    """
    ck = _cumulant_at(stat_cumulants, k, x0, b, dt)
    if k == 1:
        return x0 * np.exp(-b * dt) + ck * (1.0 - np.exp(-b * dt))
    return ck * (1.0 - np.exp(-k * b * dt))


def ou_cumulants_from_bdlp(
    bdlp_cumulants: Union[Sequence[float], Callable[[int], float]],
    x0: float,
    b: float,
    T: float,
    dt: float,
    k: int,
) -> float:
    """OU transition cumulant from the cumulants of the driving increment
    over one time unit T: ck / (k b T) * (1 - e^(-k b dt)), plus the decayed
    initial condition for k=1."""
    ck = _cumulant_at(bdlp_cumulants, k, x0, b, dt, T)
    val = ck / (k * b * T) * (1.0 - np.exp(-k * b * dt))
    if k == 1:
        val += x0 * np.exp(-b * dt)
    return val
