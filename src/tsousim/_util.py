"""Internal helpers shared by the samplers and their oracles."""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as gamma_fn


def segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum ``values`` into ``len(counts)`` consecutive groups of the given sizes.

    Empty groups contribute 0.  ``values.size`` must equal ``counts.sum()``.
    """
    offsets = np.concatenate(([0], np.cumsum(counts)))
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    return prefix[offsets[1:]] - prefix[offsets[:-1]]


def decay(b: float, dt: float) -> float:
    """OU scale a = exp(-b*dt) over a step; dt must be positive."""
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    return float(np.exp(-b * dt))


def _one_minus_pow(a: float, alpha: float) -> float:
    # 1 - a**alpha without cancellation as a -> 1; a may underflow to 0
    with np.errstate(divide="ignore"):
        return float(-np.expm1(alpha * np.log(a)))


def simulate_skeleton(step, x0, grid, size):
    """Skeleton X(t_1), ..., X(t_M) from X(0) = x0 on an increasing grid.

    ``step(x, dt)`` draws the state one step of length dt ahead.  Returns
    an array of shape (M,) for scalar use or (M, size) when ``size`` paths
    are drawn in lockstep.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-D array of times")
    steps = np.diff(np.concatenate(([0.0], grid)))
    if np.any(steps <= 0.0):
        raise ValueError("grid times must be strictly increasing and positive")
    out = np.empty((grid.size,) if size is None else (grid.size, size))
    x = x0
    for i, dt in enumerate(steps):
        x = step(x, float(dt))
        out[i] = x
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def gamma_mixture_moment(a: float, alpha: float, beta: float, k: int, f_v) -> float:
    """k-th moment of a gamma(1-alpha, beta*V) jump whose mixing factor V
    has density ``f_v`` on [1, 1/a]:

        E[J^k] = int_1^{1/a} Gamma(1-alpha+k) / (Gamma(1-alpha) (beta v)^k) f_v(v) dv,

    by 64-node Gauss-Legendre.  Deliberately independent of the
    closed-form cumulant paths it is used to check.
    """
    lo, hi = 1.0, 1.0 / a
    v = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)
    cond = gamma_fn(1.0 - alpha + k) / (gamma_fn(1.0 - alpha) * (beta * v) ** k)
    return float(0.5 * (hi - lo) * np.sum(_GL_WEIGHTS * cond * f_v(v)))
