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
one inside the CTS sampler itself.  The alpha = 0 case (gamma stationary
law) is handled separately: there the driving process is compound Poisson
and the step is a decayed-jump sum, see :func:`gamma_ou_step`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from ._util import _one_minus_pow, decay, gamma_mixture_moment, simulate_skeleton
from .rand_core import (
    CtsParams,
    RngStream,
    _compound_poisson,
    _gamma_shape_rate,
    _squeeze,
    sample_cts,
)

__all__ = [
    "CtsOuProcess",
    "CtsOuStepLaw",
    "step_law",
    "sample_v_ctsou",
    "sample_transition_ctsou",
    "gamma_ou_step",
    "simulate_skeleton_ctsou",
    "cumulants_ctsou",
    "jump_moment_ctsou",
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
class CtsOuStepLaw:
    """Per-step transition decomposition: scale a, CTS component, jump rate."""

    a: float
    x1_params: CtsParams
    lambda_a: float

    def __post_init__(self):
        # a = exp(-b dt) underflows to 0.0 for very large steps; allow it
        if not (0.0 <= self.a < 1.0):
            raise ValueError(f"scale a must be in [0, 1), got {self.a}")
        if not (self.lambda_a > 0.0):
            raise ValueError(f"jump rate must be positive, got {self.lambda_a}")


def step_law(p: CtsOuProcess, dt: float) -> CtsOuStepLaw:
    """Transition decomposition over a step of length ``dt`` (alpha > 0)."""
    a = decay(p.b, dt)
    alpha, beta, c = p.stationary.alpha, p.stationary.beta, p.stationary.c
    if alpha == 0.0:
        raise ValueError(
            "alpha = 0 has a compound-Poisson driving process; use gamma_ou_step"
        )
    shrink = _one_minus_pow(a, alpha)
    lam = c * gamma_fn(1.0 - alpha) * beta**alpha / alpha * shrink
    return CtsOuStepLaw(a, CtsParams(alpha, beta, c * shrink), lam)


def sample_v_ctsou(a: float, alpha: float, stream: RngStream, size=None):
    """Mixing rate factor V on [1, 1/a], density alpha*v^(alpha-1)/(a^-alpha - 1).

    Plain inverse transform of the CDF F(v) = (v^alpha - 1)/(a^-alpha - 1):
    V = (1 + (a^-alpha - 1) U)^(1/alpha), hitting 1 at U=0 and 1/a at U=1.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must be in (0, 1), got {a}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    u = stream.gen.random(1 if size is None else size)
    v = (1.0 + (a ** -alpha - 1.0) * u) ** (1.0 / alpha)
    return _squeeze(v, size)


def sample_transition_ctsou(p: CtsOuProcess, x0, dt: float, stream: RngStream, size=None):
    """One exact draw of X(dt) given X(0) = x0 (vectorised over ``size``).

    ``x0`` may be a scalar or an array of shape ``size``.  The alpha = 0
    case is routed to :func:`gamma_ou_step`.  When a = exp(-b*dt)
    underflows to 0.0 the transition law equals the stationary law up to
    O(a), so the draw comes from the stationary CTS law.
    """
    if p.stationary.alpha == 0.0:
        return gamma_ou_step(p, x0, dt, stream, size)
    law = step_law(p, dt)
    n = 1 if size is None else size
    if law.a == 0.0:
        return _squeeze(sample_cts(p.stationary, stream, size=n), size)
    alpha, beta = law.x1_params.alpha, law.x1_params.beta
    x1 = sample_cts(law.x1_params, stream, size=n)

    def jumps(m):
        # gamma(1-alpha, beta*V) with V on [1, 1/a]
        v = sample_v_ctsou(law.a, alpha, stream, size=m)
        return _gamma_shape_rate(stream, 1.0 - alpha, beta * v, size=m)

    x2 = _compound_poisson(law.lambda_a, jumps, stream, n)
    return _squeeze(law.a * np.asarray(x0, dtype=float) + x1 + x2, size)


def gamma_ou_step(p: CtsOuProcess, x0, dt: float, stream: RngStream, size=None):
    """Exact gamma-OU transition (alpha = 0): decayed compound-Poisson jumps.

    X(dt) = a*x0 + sum_k J_k exp(-b*dt*U_k) with N ~ Poisson(c*b*dt),
    J_k ~ exponential(beta) and U_k uniform; the uniform time trick replaces
    the ordered Poisson arrival times.
    """
    if p.stationary.alpha != 0.0:
        raise ValueError("gamma_ou_step requires a stationary law with alpha = 0")
    a = decay(p.b, dt)
    beta, c = p.stationary.beta, p.stationary.c
    n = 1 if size is None else size

    def jumps(m):
        u = stream.gen.random(m)
        return stream.gen.standard_exponential(m) / beta * np.exp(-p.b * dt * u)

    x2 = _compound_poisson(c * p.b * dt, jumps, stream, n)
    return _squeeze(a * np.asarray(x0, dtype=float) + x2, size)


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
    alpha, beta, c = p.stationary.alpha, p.stationary.beta, p.stationary.c
    val = c * beta ** (alpha - k) * gamma_fn(k - alpha) * (1.0 - np.exp(-k * p.b * dt))
    if k == 1:
        val += x0 * np.exp(-p.b * dt)
    return float(val)


def jump_moment_ctsou(a: float, alpha: float, beta: float, k: int) -> float:
    """k-th moment of one compound-Poisson jump, by quadrature over the
    mixing law f_V(v) = alpha v^(alpha-1) / (a^-alpha - 1) on [1, 1/a]."""
    return gamma_mixture_moment(
        a, alpha, beta, k, lambda v: alpha * v ** (alpha - 1.0) / (a ** -alpha - 1.0)
    )
