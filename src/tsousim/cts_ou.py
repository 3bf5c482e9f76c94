"""Exact transition sampling for OU processes with a CTS stationary law.

For a mean-reversion rate b and step dt, write a = exp(-b*dt).  The
transition increment of an OU process whose stationary law is
CTS(alpha, beta, c) splits into two independent parts:

* a CTS(alpha, beta, c*(1 - a^alpha)) draw, and
* a compound Poisson sum with rate
  lambda_a = c * Gamma(1-alpha) * beta^alpha / alpha * (1 - a^alpha)
  whose jumps are gamma(1-alpha, beta*V) with the mixing rate factor V
  drawn on [1, 1/a] by plain inverse transform.

No acceptance-rejection loop appears anywhere in this step besides the
one inside the CTS sampler itself.  At alpha = 0 (gamma stationary law,
gamma-OU) the driving process is compound Poisson and there is no CTS
part: N ~ Poisson(c*b*dt) exponential(beta) jumps, each decayed by
exp(-b*dt*U) at a uniform arrival time U.  :func:`step_law` returns both
as one :class:`CtsOuStepLaw`, whose ``sample`` draws the transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import _one_minus_pow, decay, gamma_mixture_moment, simulate_skeleton
from ._util import gamma as gamma_fn
from .rand_core import (
    CtsParams,
    RngStream,
    StepLaw,
    _gamma_shape_rate,
    _squeeze,
)

__all__ = [
    "CtsOuProcess",
    "CtsOuStepLaw",
    "step_law",
    "sample_v_ctsou",
    "sample_transition_ctsou",
    "simulate_skeleton_ctsou",
    "cumulants_ctsou",
]


@dataclass(frozen=True)
class CtsOuProcess:
    """OU process with stationary law ``stationary`` and reversion rate ``b``."""

    stationary: CtsParams
    b: float

    def __post_init__(self):
        if not (self.b > 0.0):
            raise ValueError(f"mean-reversion rate must be positive, got {self.b}")


@dataclass(frozen=True)
class CtsOuStepLaw(StepLaw):
    """Transition law over one step: scale a, CTS part ``x1_params`` (None
    at alpha = 0), jump rate lambda_a, the stationary tempering ``beta``
    and ``b_dt = b*dt``, which decays the alpha = 0 jumps."""

    beta: float
    b_dt: float

    def draw_jumps(self, stream: RngStream, m: int) -> np.ndarray:
        if self.x1_params is None:
            # exponential(beta) jumps decayed over uniform arrival times; the
            # uniform time trick replaces the ordered Poisson arrival times
            factor = stream.gen.random(m)
            factor *= -self.b_dt
            np.exp(factor, out=factor)
            x = stream.gen.standard_exponential(m)
            x /= self.beta
            x *= factor
            return x
        # gamma(1-alpha, beta*V) with V on [1, 1/a]
        alpha = self.x1_params.alpha
        v = sample_v_ctsou(self.a, alpha, stream, size=m)
        v *= self.beta
        return _gamma_shape_rate(stream, 1.0 - alpha, v, size=m)

    def jump_moment(self, k: int) -> float:
        """k-th jump moment by quadrature over the mixing law of V on [1, 1/a],
        f_V(v) = alpha v^(alpha-1) / (a^-alpha - 1).  At alpha = 0 the jump
        E exp(-b_dt U) / beta has the closed form
        k! (1 - exp(-k b_dt)) / (k b_dt beta^k), finite also when a underflows."""
        if self.x1_params is None:
            kb = k * self.b_dt
            return float(math.factorial(k) * -np.expm1(-kb) / (kb * self.beta**k))
        alpha, a = self.x1_params.alpha, self.a
        f_v = lambda v: alpha * v ** (alpha - 1.0) / (a ** -alpha - 1.0)
        return gamma_mixture_moment(a, alpha, self.beta, k, f_v)


def step_law(p: CtsOuProcess, dt: float) -> StepLaw:
    """Transition law over a step of length ``dt``, for every alpha.

    When a underflows to 0.0 (alpha > 0) the transition law is the
    stationary law up to O(a), so the step draws it with no jumps."""
    a = decay(p.b, dt)
    alpha, beta, c = p.stationary.alpha, p.stationary.beta, p.stationary.c
    if alpha == 0.0:
        return CtsOuStepLaw(a, None, c * p.b * dt, beta, p.b * dt)
    if a == 0.0:
        return StepLaw(0.0, p.stationary, 0.0)
    shrink = _one_minus_pow(a, alpha)
    lam = c * gamma_fn(1.0 - alpha) * beta**alpha / alpha * shrink
    return CtsOuStepLaw(a, CtsParams(alpha, beta, c * shrink), lam, beta, p.b * dt)


def sample_v_ctsou(a: float, alpha: float, stream: RngStream, size=None):
    """Mixing rate factor V on [1, 1/a], density alpha*v^(alpha-1)/(a^-alpha - 1).

    Plain inverse transform of the CDF F(v) = (v^alpha - 1)/(a^-alpha - 1):
    V = (1 + (a^-alpha - 1) U)^(1/alpha), hitting 1 at U=0 and 1/a at U=1.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must be in (0, 1), got {a}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    v = stream.gen.random(1 if size is None else size)  # U, turned into V in place
    v *= a ** -alpha - 1.0
    v += 1.0
    v **= 1.0 / alpha
    return _squeeze(v, size)


def sample_transition_ctsou(p: CtsOuProcess, x0, dt: float, stream: RngStream, size=None):
    """One exact draw of X(dt) given X(0) = x0 (vectorised over ``size``);
    see :func:`step_law` for the law."""
    return step_law(p, dt).sample(x0, stream, size)


def simulate_skeleton_ctsou(p: CtsOuProcess, x0, grid, stream: RngStream, size=None):
    """Exact skeleton X(t_1), ..., X(t_M) from X(0) = x0 on an increasing grid.

    Returns an array of shape (M,) for scalar use or (M, size) when
    ``size`` paths are drawn in lockstep from one stream.
    """
    return simulate_skeleton(
        lambda x, dt: sample_transition_ctsou(p, x, dt, stream, size), x0, grid, size
    )


def cumulants_ctsou(p: CtsOuProcess, x0: float, dt: float, k: int) -> float:
    """Closed-form transition cumulant:
    x0 e^(-b dt) [k=1] + c beta^(alpha-k) Gamma(k-alpha) (1 - e^(-k b dt))."""
    if k < 1:
        raise ValueError(f"cumulant order must be >= 1, got {k}")
    if not dt >= 0.0:  # dt = inf is the stationary limit
        raise ValueError(f"dt must be nonnegative, got {dt}")
    alpha, beta, c = p.stationary.alpha, p.stationary.beta, p.stationary.c
    val = c * beta ** (alpha - k) * gamma_fn(k - alpha) * (1.0 - np.exp(-k * p.b * dt))
    if k == 1:
        val += x0 * np.exp(-p.b * dt)
    return float(val)
