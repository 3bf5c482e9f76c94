"""Exact transition sampling for OU processes with a CTS stationary law.

With a = exp(-b*dt), the transition increment of an OU process whose
stationary law is CTS(alpha, beta, c) is a CTS(alpha, beta, c*(1 - a^alpha))
draw plus a compound Poisson sum of :class:`~tsousim.rand_core.StepLaw`'s
gamma(1-alpha, beta*V) jumps at rate
lambda_a = c * Gamma(1-alpha) * beta^alpha / alpha * (1 - a^alpha).
V = a^-W on [1, 1/a] is drawn by plain inverse transform, so no rejection
loop appears besides the one inside the CTS sampler.  At alpha = 0
(gamma-OU) there is no CTS part: Poisson(c*b*dt) exponential(beta) jumps,
each decayed by exp(-b*dt*U) at a uniform arrival time U.
:func:`step_law` returns both as one :class:`CtsOuStepLaw`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._util import _one_minus_pow, decay, grid_steps
from ._util import gamma as gamma_fn
from .rand_core import CtsParams, RngStream, StepLaw, _check_cumulant_args, path_states

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
        if not (0.0 < self.b < math.inf):
            raise ValueError(f"mean-reversion rate must be positive and finite, got {self.b}")


@dataclass(frozen=True)
class CtsOuStepLaw(StepLaw):
    """Transition law over one step: scale a, CTS part ``x1_params`` (None
    at alpha = 0), jump rate lambda_a, the stationary tempering ``jump_beta``
    and ``b_dt = b*dt``.  W = log(V)/b_dt has density
    theta e^(theta (w-1)) / (1 - e^-theta), theta = alpha b_dt."""

    jump_beta: float
    b_dt: float

    def draw_v(self, stream: RngStream, m: int) -> np.ndarray:
        return sample_v_ctsou(self.a, self.x1_params.alpha, stream, m)

    def f_w(self, w):
        theta = self.x1_params.alpha * self.b_dt
        return theta * np.exp(theta * (w - 1.0)) / -np.expm1(-theta)

    def draw_jumps(self, stream: RngStream, m: int) -> np.ndarray:
        if self.x1_params is not None:
            return super().draw_jumps(stream, m)
        # alpha = 0: uniform arrival times stand in for the ordered Poisson ones
        factor = np.exp(stream.gen.random(m) * -self.b_dt)
        x = stream.gen.standard_exponential(m)
        x /= self.jump_beta
        x *= factor
        return x

    def jump_moment(self, k: int) -> float:
        """The quadrature, or at alpha = 0 k! (1 - e^(-k b_dt)) / (k b_dt jump_beta^k)."""
        if self.x1_params is not None:
            return super().jump_moment(k)
        kb = k * self.b_dt
        return float(math.factorial(k) * -np.expm1(-kb) / (kb * self.jump_beta**k))


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
    if c * shrink == 0.0:
        raise ValueError(f"the CTS part's intensity c*(1 - a^alpha) underflows to 0 at c = {c!r}")
    lam = c * float(gamma_fn(1.0 - alpha)) * beta**alpha / alpha * shrink
    return CtsOuStepLaw(a, CtsParams(alpha, beta, c * shrink), lam, beta, p.b * dt)


def sample_v_ctsou(a: float, alpha: float, stream: RngStream, size: int = 1):
    """``size`` mixing rate factors V on [1, 1/a], density alpha*v^(alpha-1)/(a^-alpha - 1).

    Plain inverse transform of the CDF F(v) = (v^alpha - 1)/(a^-alpha - 1):
    V = (1 + (a^-alpha - 1) U)^(1/alpha), hitting 1 at U=0 and 1/a at U=1.
    At a subnormal a, a V past the largest float is inf, so its jump is 0;
    where a^-alpha itself overflows, V = U^(1/alpha)/a, the 1 being below
    an ulp of U a^-alpha for every U > 0.  No warning is raised.
    """
    size = operator.index(size)
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must be in (0, 1), got {a}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    v = stream.gen.random(size)  # U, turned into V in place
    with np.errstate(over="ignore"):
        try:
            v *= a ** -alpha - 1.0
        except OverflowError:
            v **= 1.0 / alpha
            v /= a
            return np.maximum(v, 1.0, out=v)  # U = 0 still gives V = 1
        v += 1.0
        v **= 1.0 / alpha
    return v


def sample_transition_ctsou(p: CtsOuProcess, x0, dt: float, stream: RngStream, size: int = 1):
    """``size`` exact draws of X(dt) given X(0) = x0, shape (size,); see :func:`step_law`."""
    return step_law(p, dt).sample(x0, stream, size)


def simulate_skeleton_ctsou(p: CtsOuProcess, x0, grid, stream: RngStream, size: int = 1):
    """Exact skeleton X(t_1), ..., X(t_M) from X(0) = x0 on an increasing grid,
    shape (M, size): ``size`` paths in lockstep, one step law per grid gap."""
    runs = [(step_law(p, dt), 1) for dt in grid_steps(grid).tolist()]
    return np.array(list(path_states(runs, x0, stream, size, size)))


def cumulants_ctsou(p: CtsOuProcess, x0: float, dt: float, k: int) -> float:
    """Closed-form transition cumulant:
    x0 e^(-b dt) [k=1] + c beta^(alpha-k) Gamma(k-alpha) (1 - e^(-k b dt))."""
    _check_cumulant_args(k, x0, dt)
    alpha, beta, c = p.stationary.alpha, p.stationary.beta, p.stationary.c
    val = c * beta ** (alpha - k) * gamma_fn(k - alpha) * (1.0 - np.exp(-k * p.b * dt))
    if k == 1:
        val += x0 * np.exp(-p.b * dt)
    return float(val)
