"""Gamma and the lower incomplete gamma against scipy.special.

``_util.gamma`` is a port of Cephes Gamma, the code scipy.special.gamma
runs, so the two must agree bit for bit (compared through ``float.hex``):
every sampler constant and golden hash depends on it.  ``_util.gammainc``
is a different algorithm (the positive series) from scipy's, so it only
has to agree to a few ulp.
"""

import math

import numpy as np
import pytest
from scipy import special

from tsousim._util import gamma, gammainc

ALPHAS = (0.0, 0.3, 0.5, 0.7, 0.9)


def _hex_mismatches(x):
    want = special.gamma(x)
    return [(xi, gamma(xi).hex(), float(w).hex()) for xi, w in zip(x, want) if gamma(xi).hex() != float(w).hex()]


def test_gamma_is_bitwise_scipy_on_a_seeded_grid():
    x = np.random.default_rng(20261019).uniform(0.0, 12.0, 200_000)
    assert _hex_mismatches(x[x > 0.0]) == []


def test_gamma_is_bitwise_scipy_near_zero():
    # below 1e-9 Cephes switches to z / ((1 + euler x) x); 5e-324 overflows to inf
    x = np.concatenate([np.logspace(-9.0, 0.0, 2000), np.logspace(-320.0, -9.0, 200), [5e-324]])
    assert _hex_mismatches(x) == []


def test_gamma_is_bitwise_scipy_on_the_library_arguments():
    # Gamma(1 - alpha) and Gamma(k - alpha) for the cumulant orders k <= 8
    x = [k - alpha for alpha in ALPHAS for k in range(1, 9)]
    assert _hex_mismatches(np.array(x)) == []


def test_gamma_is_bitwise_scipy_on_the_stirling_branch():
    # Cephes uses Stirling's series above 33 and gives inf from 171.62 on
    x = np.concatenate([np.random.default_rng(7).uniform(12.0, 180.0, 20_000), [33.0, 171.6, 171.7, 1e300]])
    assert _hex_mismatches(x) == []


def test_gamma_returns_numpy_floats():
    # so that products and powers of it overflow to inf as numpy does,
    # where Python floats would raise OverflowError
    assert type(gamma(0.5)) is np.float64
    with np.errstate(over="ignore"):
        assert gamma(1e-3) ** 200.0 == np.inf


@pytest.mark.parametrize("x", [0.0, -0.0, -0.5, -3.0, math.nan, math.inf, -math.inf])
def test_gamma_rejects_arguments_outside_the_positive_axis(x):
    with pytest.raises(ValueError, match="finite x > 0"):
        gamma(x)


def test_gammainc_matches_scipy():
    s = np.concatenate([np.linspace(0.0, 1.0, 41)[1:], [1e-3, 1e-9]])
    x = np.logspace(-3.0, 3.0, 241)
    got = np.array([[gammainc(si, xi) for xi in x] for si in s])
    want = special.gammainc(s[:, None], x[None, :])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


def test_gammainc_edges():
    assert gammainc(0.5, 0.0) == 0.0
    assert gammainc(1.0, 50.0) == 1.0
    for s, x in ((0.0, 1.0), (1.5, 1.0), (0.5, -1.0), (0.5, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            gammainc(s, x)
