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

Quadrature follows one policy everywhere: adaptive Gauss-Kronrod on a
log-transformed axis with the origin singularity split off, absolute
tolerance 1e-10 and relative tolerance 1e-8.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

from ._util import _one_minus_pow
from .rand_core import CtsParams

__all__ = [
    "LevyTriplet",
    "ARemainderTriplet",
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
    "cts_cumulants",
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


def _quad(fn, lo, hi, *, name: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(fn, lo, hi, limit=300, epsabs=ABS_TOL, epsrel=REL_TOL)
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
    x = np.logspace(-8.0, 14.0, 120)
    with np.errstate(all="ignore"):
        try:
            mass = np.abs(np.asarray(density(x), dtype=float)) * x
            if mass.shape != x.shape:
                raise TypeError
        except (TypeError, ValueError):  # scalar-only callable
            mass = np.array([abs(float(density(xi))) for xi in x]) * x
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

    def g(t):
        with np.errstate(all="ignore"):
            v = fn(np.exp(t)) * np.exp(t)
        return v if np.isfinite(v) else 0.0

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

    def nu(self, x):
        x = np.asarray(x, dtype=float)
        return self.c * self.q(x) / x ** (1.0 + self.alpha)


def _cts_nu(params: CtsParams) -> Callable:
    a, b, c = params.alpha, params.beta, params.c

    def nu(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            return c * np.exp(-b * x) / x ** (1.0 + a)

    return nu


class LevyTriplet:
    """Levy triplet (gamma, sigma, nu) with the truncation function 1_{|x|<=1}.

    ``nu`` is a callable density on the support; ``k_fn`` optionally gives
    k(x) = |x| * nu(x), the canonical density whose monotonicity
    characterises self-decomposability.  Construction numerically checks
    integrability of (1 ^ x^2) nu(x) on a fixed log grid and, when the law
    is flagged self-decomposable, spot-checks that k is nonincreasing on
    the positive axis.
    """

    def __init__(
        self,
        gamma_drift: float,
        sigma: float,
        nu: Callable,
        k_fn: Optional[Callable] = None,
        *,
        subordinator: bool = True,
        self_decomposable: bool = True,
        validate: bool = True,
    ):
        self.gamma_drift = float(gamma_drift)
        self.sigma = float(sigma)
        self.nu = nu
        self.k_fn = k_fn if k_fn is not None else (lambda x: np.abs(x) * nu(x))
        self.subordinator = bool(subordinator)
        self.self_decomposable = bool(self_decomposable)
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.subordinator and self.sigma != 0.0:
            raise ValueError("a subordinator has no Gaussian part; flag it two-sided")
        if validate:
            self._validate()

    def _validate(self):
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
class ARemainderTriplet:
    """Levy triplet of the remainder law at scale ``a`` of a self-decomposable law.

    For the source triplet (gamma, sigma, nu) with canonical density k:

        gamma_a = gamma*(1-a) - a * int sign(x) (1_{|x|<=1/a} - 1_{|x|<=1}) k(x) dx
        sigma_a = sigma * sqrt(1 - a^2)
        nu_a(x) = nu(x) - nu(x/a)/a
    """

    a: float
    gamma_a: float
    sigma_a: float
    nu_a: Callable = field(repr=False)
    subordinator: bool = True

    # shared access protocol with LevyTriplet so lk_log_chf treats both alike
    @property
    def gamma_drift(self) -> float:
        return self.gamma_a

    @property
    def sigma(self) -> float:
        return self.sigma_a

    @property
    def nu(self) -> Callable:
        return self.nu_a


@dataclass(frozen=True)
class TsRemainderDecomposition:
    """Remainder of a tempered-stable law split into its two independent parts.

    ``scaled`` is the original law with intensity rescaled by (1 - a^alpha);
    ``lambda_a`` and ``jump_density`` describe the compound-Poisson part:
    event rate lambda_a and jump density g_a(x) = nu_2(x) / lambda_a.
    """

    scaled: Union[CtsParams, GeneralTsLaw]
    lambda_a: float
    jump_density: Callable = field(repr=False)
    nu2: Callable = field(repr=False)


def aremainder_triplet(t: LevyTriplet, a: float) -> ARemainderTriplet:
    """Triplet of the remainder law of ``t`` at scale ``a``.

    Raises :class:`NotSelfDecomposableError` if the input is not flagged
    self-decomposable or if nu_a comes out negative on the check grid.
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
    return ARemainderTriplet(a, gamma_a, sigma_a, nu_a, subordinator=t.subordinator)


def lk_log_chf(t: Union[LevyTriplet, ARemainderTriplet], u: float) -> complex:
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

    if isinstance(law, CtsParams):
        alpha, c = law.alpha, law.c
        beta = law.beta

        def nu2(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore", divide="ignore"):
                diff = -np.exp(-beta * x) * np.expm1(-beta * x * (1.0 / a - 1.0))
                return c * a**alpha * diff / x ** (1.0 + alpha)

        if alpha > 0.0:
            lam = c * gamma_fn(1.0 - alpha) * beta**alpha * _one_minus_pow(a, alpha) / alpha
        else:
            lam = c * np.log(1.0 / a)
        scaled_c = c * _one_minus_pow(a, alpha)
        scaled = (
            CtsParams(alpha, beta, scaled_c) if scaled_c > 0.0 else CtsParams(alpha, beta, np.finfo(float).tiny)
        )
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
        scaled = GeneralTsLaw(alpha, c * _one_minus_pow(a, alpha), q) if _one_minus_pow(a, alpha) > 0 else law

    lam = float(lam)

    def jump_density(x):
        return nu2(x) / lam

    return TsRemainderDecomposition(scaled, lam, jump_density, nu2)


def stationary_density_from_bdlp(nu_L: Callable, b: float, T: float, x: float) -> float:
    """Stationary Levy density at ``x`` from the driving-process density.

    nu_X(x) = U(x) / (T b |x|) with U the tail mass of nu_L beyond x.
    """
    if x == 0.0:
        raise ValueError("stationary density is undefined at x = 0")
    if x > 0.0:
        x_hi = max(_tail_cutoff(nu_L), 2.0 * x)
        if x >= x_hi:
            return 0.0
        tail = _quad(nu_L, x, x_hi, name="U(x)")
    else:
        refl = lambda y: nu_L(-y)
        x_hi = max(_tail_cutoff(refl), 2.0 * abs(x))
        if abs(x) >= x_hi:
            return 0.0
        tail = _quad(refl, abs(x), x_hi, name="U(x)")
    return tail / (T * b * abs(x))


def bdlp_density_from_stationary(
    nu_X: Callable, b: float, T: float, x: float, nu_X_prime: Optional[Callable] = None
) -> float:
    """Driving-process Levy density at ``x`` from the stationary density.

    nu_L(x) = -T b (nu_X(x) + x * nu_X'(x)); the derivative is taken by
    central difference with step max(1e-6, 1e-4 |x|) when not supplied.
    """
    if x == 0.0:
        raise ValueError("density map is undefined at x = 0")
    if nu_X_prime is not None:
        d = float(nu_X_prime(x))
    else:
        h = max(1e-6, 1e-4 * abs(x))
        d = (float(nu_X(x + h)) - float(nu_X(x - h))) / (2.0 * h)
    return -T * b * (float(nu_X(x)) + x * d)


def cts_cumulants(p: CtsParams, k: int) -> float:
    """k-th cumulant of a one-sided CTS law: c * beta^(alpha-k) * Gamma(k-alpha)."""
    if k < 1:
        raise ValueError(f"cumulant order must be >= 1, got {k}")
    return p.c * p.beta ** (p.alpha - k) * gamma_fn(k - p.alpha)


def cts_log_chf(p: CtsParams, u: float) -> complex:
    """Closed-form log characteristic function of a one-sided CTS law."""
    if p.alpha == 0.0:
        return -p.c * np.log(1.0 - 1j * u / p.beta)
    g = p.c * gamma_fn(1.0 - p.alpha) / p.alpha
    return g * (p.beta**p.alpha - (p.beta - 1j * u) ** p.alpha)


def _cumulant_at(cumulants, k: int) -> float:
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
    if k < 1:
        raise ValueError(f"cumulant order must be >= 1, got {k}")
    decay = np.exp(-k * b * dt)
    ck = _cumulant_at(stat_cumulants, k)
    if k == 1:
        return x0 * np.exp(-b * dt) + ck * (1.0 - np.exp(-b * dt))
    return ck * (1.0 - decay)


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
    if k < 1:
        raise ValueError(f"cumulant order must be >= 1, got {k}")
    ck = _cumulant_at(bdlp_cumulants, k)
    val = ck / (k * b * T) * (1.0 - np.exp(-k * b * dt))
    if k == 1:
        val += x0 * np.exp(-b * dt)
    return val
