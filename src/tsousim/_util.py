"""Internal helpers shared by the samplers and their oracles."""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

# Cephes Gamma (Moshier, "Methods and Programs for Mathematical Functions",
# 1989), the code behind scipy.special.gamma: a rational fit P/Q on [2, 3),
# recurrences into that interval and Stirling's series above 33.
_GAMMA_P = (
    1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
    4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
    1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
    7.14304917030273074085e-2, 1.00000000000000000320e0,
)
_STIRLING = (
    7.87311395793093628397e-4, -2.29549961613378126380e-4, -2.68132617805781232825e-3,
    3.47222221605458667310e-3, 8.33333333333482257126e-2,
)
_MAXGAM = 171.624376956302725
_MAXSTIR = 143.01608
_SQRT_2PI = 2.50662827463100050242


def _gamma(x: float) -> float:
    if x > 33.0:
        if x >= _MAXGAM:
            return math.inf
        w = 1.0 / x
        w = 1.0 + w * float(np.polyval(_STIRLING, w))
        y = math.exp(x)
        if x > _MAXSTIR:  # split the power so it does not overflow
            v = math.pow(x, 0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = math.pow(x, x - 0.5) / y
        return _SQRT_2PI * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * float(np.polyval(_GAMMA_P, x)) / float(np.polyval(_GAMMA_Q, x))


@functools.lru_cache(maxsize=128)
def gamma(x: float) -> np.float64:
    """Gamma function for finite x > 0, bit for bit equal to scipy.special.gamma.

    Memoised: the samplers ask for the same few values (Gamma(1-alpha),
    Gamma(k-alpha)) on every step.  The result is an ``np.float64`` so that
    arithmetic on it overflows to inf as numpy does; past 171.62 it is inf.
    """
    x = float(x)
    if not (0.0 < x < math.inf):
        raise ValueError(f"gamma is implemented for finite x > 0 only, got {x!r}")
    return np.float64(_gamma(x))


def gammainc(s: float, x: float) -> float:
    """Regularised lower incomplete gamma P(s, x) for s in (0, 1] and x >= 0.

    The positive series P = x^s e^-x / Gamma(s+1) * sum_n x^n / ((s+1)...(s+n)),
    summed until a term no longer moves the sum.  For s <= 1 the upper tail
    Q = 1 - P is at most x^(s-1) e^-x / Gamma(s); once that is below half an
    ulp of 1, P rounds to 1 and is returned without summing, which also
    keeps the terms (about e^x) far from overflow.
    """
    s, x = float(s), float(x)
    if not (0.0 < s <= 1.0) or not (0.0 <= x < math.inf):
        raise ValueError(f"gammainc needs s in (0, 1] and finite x >= 0, got s={s!r}, x={x!r}")
    if x == 0.0:
        return 0.0
    if x - (s - 1.0) * math.log(x) + math.log(_gamma(s)) > 38.0:  # Q < e^-38 < 2^-54
        return 1.0
    term = total = 1.0
    n = 1.0
    while term > 1e-17 * total:
        term *= x / (s + n)
        total += term
        n += 1.0
    return math.exp(s * math.log(x) - x) / _gamma(s + 1.0) * total


def segment_sums(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over the consecutive nonempty segments that end
    (exclusive) at the strictly increasing offsets ``ends``; the last end
    must be ``values.size``.  ``values`` is consumed: its prefix sums are
    written into it.  Each segment's sum is the difference of the prefix
    sums at its last element and at the last element of the one before it.
    """
    total = int(ends[-1]) if ends.size else 0
    if total != values.size:
        raise ValueError(f"need ends[-1] == values.size, got {total} and {values.size}")
    values.cumsum(out=values)
    last = ends - 1
    out = values[last]
    out[1:] -= values[last[:-1]]
    return out


def decay(b: float, dt: float) -> float:
    """OU scale a = exp(-b*dt) over a step; dt must be positive, and b*dt at
    least about 2^-54, below which a rounds to 1.0 and the step is lost."""
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    a = float(np.exp(-b * dt))
    if a == 1.0:
        raise ValueError(f"b*dt = {b * dt!r} is too small: exp(-b*dt) rounds to 1.0")
    return a


def _theta(a: float, alpha: float) -> float:
    """theta = log a^-alpha >= 0, which indexes the mixing law of W; W's law is
    defined for a decay factor a in (0, 1) and alpha in [0, 1), alpha = 0 being
    the limit that the jump moment uses.  -theta is alpha log a bit for bit, so
    1 - a^alpha = -expm1(-theta) without cancellation as a -> 1."""
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must be in (0, 1), got {a}")
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return -alpha * float(np.log(a))


def _require_integer(name: str, value) -> int:
    """``value`` as an int; anything ``operator.index`` refuses is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_rate_and_scale(b: float, T: float = 1.0) -> None:
    """Refuse a reversion rate ``b`` or time scale ``T`` that is not positive
    and finite: the check of both process classes, a run's configuration and
    the density and cumulant maps of ``levy_core``."""
    for name, value in (("b", b), ("T", T)):
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def grid_steps(grid) -> np.ndarray:
    """Step lengths t_1, t_2 - t_1, ... of a skeleton from t = 0 over a
    nonempty, strictly increasing grid of positive times."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-D array of times")
    steps = np.diff(grid, prepend=0.0)
    if not np.all(steps > 0.0):  # NaN is refused too
        raise ValueError("grid times must be strictly increasing and positive")
    return steps


@functools.cache
def _gauss_legendre_64():
    # built on first use: numpy.polynomial and the eigen-solve are start-up
    # cost that sampling never needs
    return np.polynomial.legendre.leggauss(64)


def gamma_mixture_moment(a: float, alpha: float, beta: float, k: int, f_w) -> float:
    """k-th moment of a gamma(1-alpha, beta*V) jump whose mixing factor V = a^-W
    on [1, 1/a] has W of density ``f_w(w)`` on [0, 1]:

        E[J^k] = Gamma(1-alpha+k) / (Gamma(1-alpha) beta^k) int_0^1 a^(k w) f_w(w) dw,

    by 64-node Gauss-Legendre in w, which keeps the mass near v = 1 that a
    rule linear in v misses once b dt >= 10.  a^(k w) = e^(-k b dt w) varies
    on the scale w = 1/(b dt), so for b dt > 1 the rule runs on each of
    [0, s], [s, 2s], [2s, 4s], ... up to 1 with s = 1/(b dt): on [t, 2t]
    the integrand has fallen by e^(-k b dt t) wherever it varies faster
    than the nodes resolve.  At b dt <= 1, [0, 1] is the one interval.
    Deliberately independent of the closed-form cumulant paths it is used
    to check.
    """
    edges = [0.0]
    t = -1.0 / math.log(a)
    while t < 1.0:
        edges.append(t)
        t *= 2.0
    edges = np.append(edges, 1.0)
    half = 0.5 * np.diff(edges)
    nodes, node_weights = _gauss_legendre_64()
    w = (np.outer(half, nodes) + (half + edges[:-1])[:, None]).ravel()
    weights = np.outer(half, node_weights).ravel()
    mix = np.sum(weights * np.exp(k * math.log(a) * w) * f_w(w))
    return float(gamma(1.0 - alpha + k) / (gamma(1.0 - alpha) * beta**k) * mix)
