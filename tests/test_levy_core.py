"""Levy-core tests: remainder triplet identities, tempered-stable
decomposition, stationary/driving-density maps and cumulant formulas."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special
from scipy.special import gamma as gamma_fn

from _helpers import levy_core_oracle_values
from tsousim import cts_ou, levy_core, ou_cts
from tsousim.levy_core import (
    ABS_TOL,
    REL_TOL,
    DecompositionError,
    GeneralTsLaw,
    LevyTriplet,
    NotSelfDecomposableError,
    QuadratureError,
    aremainder_triplet,
    bdlp_density_from_stationary,
    cts_log_chf,
    lk_log_chf,
    ou_cumulants_from_bdlp,
    ou_cumulants_from_stationary,
    _cts_nu,
    stationary_density_from_bdlp,
    ts_remainder_decompose,
)
from tsousim.rand_core import CtsParams, cts_cumulants

CTS_REF = CtsParams(0.5, 1.4, 0.8)
GAMMA_REF = CtsParams(0.0, 1.0, 1.0)


def quad_positive(fn, hi=200.0):
    """Independent log-axis quadrature used as the test-side oracle."""
    breaks = [-280.0, -30.0, -4.0, 0.0, np.log(hi)]
    return sum(
        integrate.quad(lambda t: fn(np.exp(t)) * np.exp(t), ta, tb, limit=400)[0]
        for ta, tb in zip(breaks[:-1], breaks[1:])
    )


class TestARemainderTriplet:
    def test_degenerate_scale_limit(self):
        t = LevyTriplet.from_cts(CTS_REF)
        rem = aremainder_triplet(t, 1.0 - 1e-7)
        assert abs(rem.gamma_drift) < 1e-5
        assert rem.sigma == 0.0
        x = np.array([0.3, 1.0, 4.0])
        assert np.all(np.abs(rem.nu(x)) < 1e-5 * t.nu(x))

    def test_gamma_law_remainder_density(self):
        a = 0.5
        rem = aremainder_triplet(LevyTriplet.from_cts(GAMMA_REF), a)
        x = np.array([0.1, 1.0, 10.0])
        direct = np.exp(-x) * (1.0 - np.exp(-x * (1.0 / a - 1.0))) / x
        assert np.allclose(rem.nu(x), direct, rtol=1e-12, atol=0)

    def test_compound_mass_matches_step_rate(self):
        # integral of nu_a - nu_1 equals the compound-Poisson rate of the
        # CTS-OU step decomposition; the lower limit avoids the region where
        # the two density evaluations cancel catastrophically (the truncated
        # mass below 1e-16 is ~1.6e-8, inside the 1e-6 budget)
        a = 0.5
        t = LevyTriplet.from_cts(CTS_REF)
        rem = aremainder_triplet(t, a)
        shrink = 1.0 - a**CTS_REF.alpha

        def nu2(x):
            return rem.nu(x) - shrink * t.nu(x)

        breaks = [np.log(1e-16), -4.0, 0.0, np.log(200.0)]
        val = sum(
            integrate.quad(lambda s: nu2(np.exp(s)) * np.exp(s), ta, tb, limit=400)[0]
            for ta, tb in zip(breaks[:-1], breaks[1:])
        )
        lam = ts_remainder_decompose(CTS_REF, a).lambda_a
        assert val == pytest.approx(lam, abs=1e-6)

    def test_sigma_scaling_two_sided(self):
        nu = lambda x: np.exp(-np.abs(x)) / np.abs(x)
        t = LevyTriplet(0.0, 0.5, nu, subordinator=False)
        rem = aremainder_triplet(t, 0.4)
        assert rem.sigma == pytest.approx(0.5 * np.sqrt(1.0 - 0.16), rel=1e-15)

    def test_scale_domain(self):
        t = LevyTriplet.from_cts(CTS_REF)
        for a in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                aremainder_triplet(t, a)

    def test_rejects_non_self_decomposable_flag(self):
        t = LevyTriplet.from_cts(CTS_REF)
        t.self_decomposable = False
        with pytest.raises(NotSelfDecomposableError):
            aremainder_triplet(t, 0.5)

    def test_remainder_of_a_remainder_is_refused(self):
        # the gamma remainder's k_a(x) = e^(-x) - e^(-2x) rises from 0, so
        # a remainder is not flagged self-decomposable
        rem = aremainder_triplet(LevyTriplet.from_cts(GAMMA_REF), 0.5)
        assert isinstance(rem, LevyTriplet) and not rem.self_decomposable
        with pytest.raises(NotSelfDecomposableError):
            aremainder_triplet(rem, 0.5)

    def test_detects_negative_remainder_density(self):
        # bump density: k(x) = x nu(x) increases, so nu_a goes negative
        # flagged after construction, which would refuse the rising k
        bump = lambda x: np.exp(-((x - 2.0) ** 2) / 0.02)
        t = LevyTriplet(0.0, 0.0, bump, self_decomposable=False)
        t.self_decomposable = True
        with pytest.raises(NotSelfDecomposableError):
            aremainder_triplet(t, 0.5)

    def test_construction_rejects_increasing_k(self):
        with pytest.raises(NotSelfDecomposableError):
            LevyTriplet(0.0, 0.0, lambda x: np.exp(-((x - 2.0) ** 2) / 0.02))

    def test_construction_rejects_non_integrable_density(self):
        with pytest.raises(ValueError):
            LevyTriplet(0.0, 0.0, lambda x: x**-4.0 * np.exp(-x))

    @pytest.mark.parametrize(
        "sigma, nu, subordinator, match",
        [(-0.5, _cts_nu(CTS_REF), False, "sigma must be nonnegative"),
         (0.5, _cts_nu(CTS_REF), True, "a subordinator has no Gaussian part"),
         (0.0, lambda x: np.where(x > 5.0, np.inf, np.exp(-x) / x), True,
          "must be finite away from the origin")],
    )
    def test_construction_refusals(self, sigma, nu, subordinator, match):
        with pytest.raises(ValueError, match=match):
            LevyTriplet(0.0, sigma, nu, subordinator=subordinator)


class TestLkLogChf:
    def test_normalisation_at_zero(self):
        assert lk_log_chf(LevyTriplet.from_cts(CTS_REF), 0.0) == 0.0

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_cts_closed_form(self, u):
        t = LevyTriplet.from_cts(CTS_REF)
        assert abs(lk_log_chf(t, u) - cts_log_chf(CTS_REF, u)) < 1e-6

    @pytest.mark.parametrize("law", [CTS_REF, GAMMA_REF])
    @pytest.mark.parametrize("a", [0.9, 0.5, 0.1])
    def test_remainder_chf_identity(self, law, a):
        t = LevyTriplet.from_cts(law)
        rem = aremainder_triplet(t, a)
        for u in (0.25, 0.5, 1.0, 2.0, 4.0):
            target = cts_log_chf(law, u) - cts_log_chf(law, a * u)
            assert abs(lk_log_chf(rem, u) - target) < 1e-6

    def test_two_sided_symmetric_law(self):
        # difference of two unit-gamma subordinators: log chf = -log(1+u^2)
        nu = lambda x: np.exp(-np.abs(x)) / np.abs(x)
        t = LevyTriplet(0.0, 0.0, nu, subordinator=False)
        for u in (0.5, 2.0):
            assert abs(lk_log_chf(t, u) - (-np.log1p(u * u))) < 1e-6

    def test_two_sided_remainder_identity(self):
        nu = lambda x: np.exp(-np.abs(x)) / np.abs(x)
        t = LevyTriplet(0.0, 0.0, nu, subordinator=False)
        a = 0.4
        rem = aremainder_triplet(t, a)
        psi = lambda u: -np.log1p(u * u)
        for u in (0.5, 2.0):
            assert abs(lk_log_chf(rem, u) - (psi(u) - psi(a * u))) < 1e-6

    def test_remainder_nonnegativity_grid(self):
        grid = np.logspace(-6, 4, 200)
        for alpha in (0.3, 0.5, 0.7, 0.9):
            for a in (0.97, 0.44, 0.05):
                rem = aremainder_triplet(
                    LevyTriplet.from_cts(CtsParams(alpha, 1.4, 0.8)), a
                )
                assert np.all(rem.nu(grid) >= 0.0)


class TestTsRemainderDecompose:
    def test_general_tempering_matches_closed_form(self):
        gen = GeneralTsLaw(0.5, 0.8, lambda x: np.exp(-1.4 * np.asarray(x)))
        lam_quad = ts_remainder_decompose(gen, 0.5).lambda_a
        lam_closed = ts_remainder_decompose(CTS_REF, 0.5).lambda_a
        assert lam_quad == pytest.approx(lam_closed, abs=1e-8)

    def test_rate_vanishes_as_scale_tends_to_one(self):
        assert ts_remainder_decompose(CTS_REF, 1.0 - 1e-9).lambda_a < 1e-6

    def test_alpha0_rate_and_driving_mass(self):
        # alpha = 0: rate c log(1/a); total driving-process mass T c b
        a = 0.5
        dec = ts_remainder_decompose(GAMMA_REF, a)
        assert dec.lambda_a == pytest.approx(np.log(1.0 / a), rel=1e-12)
        T, b, c, beta = 1.0, 10.0, GAMMA_REF.c, GAMMA_REF.beta
        nu_stat = lambda x: c * np.exp(-beta * x) / x
        nu_L = lambda x: bdlp_density_from_stationary(nu_stat, b, T, x)
        total, _ = integrate.quad(nu_L, 1e-12, 80.0, limit=300)
        assert total == pytest.approx(T * c * b, rel=1e-6)

    def test_alpha0_scaled_part_has_no_intensity(self):
        # c (1 - a^0) = 0: both branches give the placeholder intensity
        gen = GeneralTsLaw(0.0, 0.8, lambda x: np.exp(-1.4 * np.asarray(x)))
        for law in (CtsParams(0.0, 1.4, 0.8), gen):
            assert ts_remainder_decompose(law, 0.5).scaled.c <= np.finfo(float).tiny

    def test_jump_density_normalised(self):
        for a in (0.9, 0.3):
            dec = ts_remainder_decompose(CTS_REF, a)
            jump_density = lambda x: dec.nu2(x) / dec.lambda_a
            assert quad_positive(jump_density) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("a", [0.0, 1.0, 1.5, np.nan])
    def test_scale_domain(self, a):
        with pytest.raises(ValueError, match=r"scale a must be in \(0, 1\), got"):
            ts_remainder_decompose(CTS_REF, a)

    def test_rejects_tempering_not_decreasing_near_zero(self):
        law = GeneralTsLaw(0.5, 1.0, lambda x: np.ones_like(np.asarray(x, dtype=float)))
        with pytest.raises(DecompositionError, match="not decreasing near 0"):
            ts_remainder_decompose(law, 0.5)

    @pytest.mark.parametrize(
        "alpha, c, q, match",
        [(1.0, 1.0, np.exp, "alpha must be in"), (-0.1, 1.0, np.exp, "alpha must be in"),
         (np.nan, 1.0, np.exp, "alpha must be in"), (0.5, 0.0, np.exp, "c must be positive"),
         (0.5, np.nan, np.exp, "c must be positive"),
         (0.5, 1.0, lambda x: 2.0 * np.exp(-x), "must satisfy q\\(0\\)=1")],
    )
    def test_general_law_refusals(self, alpha, c, q, match):
        with pytest.raises(ValueError, match=match):
            GeneralTsLaw(alpha, c, q)

    def test_rejects_tempering_that_violates_small_x_hypothesis(self):
        # q(x) - q(x/a) ~ x^0.2 is not o(x^alpha) for alpha = 0.5
        law = GeneralTsLaw(0.5, 1.0, lambda x: np.exp(-np.asarray(x, dtype=float) ** 0.2))
        with pytest.raises(DecompositionError, match="not o"):
            ts_remainder_decompose(law, 0.5)

    def test_non_smooth_integrable_tempering(self):
        # D(x) ~ x^0.8 beats x^alpha for alpha = 0.5: integrable, no error
        law = GeneralTsLaw(0.5, 1.0, lambda x: np.exp(-np.asarray(x, dtype=float) ** 0.8))
        dec = ts_remainder_decompose(law, 0.5)
        assert np.isfinite(dec.lambda_a) and dec.lambda_a > 0.0

    def test_cumulant_form_of_remainder_split(self):
        # scaled part + rate * jump moments = (1 - a^k) * stationary cumulants
        for alpha in (0.3, 0.5, 0.9):
            for a in (0.9, 0.44):
                law = CtsParams(alpha, 1.4, 0.8)
                dec = ts_remainder_decompose(law, a)
                for k in (1, 2, 3, 4):
                    moment = quad_positive(lambda x, k=k: x**k * dec.nu2(x))
                    lhs = cts_cumulants(dec.scaled, k) + moment
                    rhs = (1.0 - a**k) * cts_cumulants(law, k)
                    assert lhs == pytest.approx(rhs, rel=1e-6)


class TestDensityMaps:
    B, T = 10.0, 1.0

    def _bdlp_ctsou(self, p):
        # driving density of an OU process with stationary law p
        al, be, c = p.alpha, p.beta, p.c
        return lambda x: (
            c * self.T * self.B * al * np.exp(-be * x) / x ** (al + 1.0)
            + c * self.T * self.B * be * np.exp(-be * x) / x**al
        )

    def test_stationary_recovered_from_driving_density(self):
        nu_L = self._bdlp_ctsou(CTS_REF)
        for x in (0.2, 1.0, 3.0):
            want = CTS_REF.c * np.exp(-CTS_REF.beta * x) / x ** (1.0 + CTS_REF.alpha)
            got = stationary_density_from_bdlp(nu_L, self.B, self.T, x)
            assert got == pytest.approx(want, rel=1e-6)

    def test_zero_driving_density(self):
        assert stationary_density_from_bdlp(lambda x: 0.0 * x, self.B, self.T, 1.0) == 0.0

    def test_compound_poisson_driving_gives_gamma_law(self):
        beta, c = GAMMA_REF.beta, GAMMA_REF.c
        nu_L = lambda x: self.T * c * self.B * beta * np.exp(-beta * x)
        for x in (0.5, 2.0):
            want = c * np.exp(-beta * x) / x
            got = stationary_density_from_bdlp(nu_L, self.B, self.T, x)
            assert got == pytest.approx(want, rel=1e-8)

    def test_driving_density_from_stationary_cts(self):
        p = CTS_REF
        nu_stat = lambda x: p.c * np.exp(-p.beta * x) / x ** (1.0 + p.alpha)
        want_fn = self._bdlp_ctsou(p)
        for x in (0.2, 1.0, 3.0):
            got = bdlp_density_from_stationary(nu_stat, self.B, self.T, x)
            assert got == pytest.approx(want_fn(x), rel=1e-6)

    def test_round_trip_maps_are_inverse(self):
        p = CTS_REF
        nu_stat = lambda x: p.c * np.exp(-p.beta * x) / x ** (1.0 + p.alpha)
        nu_L = lambda y: bdlp_density_from_stationary(nu_stat, self.B, self.T, y)
        for x in (0.5, 1.5):
            back = stationary_density_from_bdlp(nu_L, self.B, self.T, x)
            assert back == pytest.approx(nu_stat(x), rel=1e-6)

    def test_alpha0_driving_density(self):
        beta, c = GAMMA_REF.beta, GAMMA_REF.c
        nu_stat = lambda x: c * np.exp(-beta * x) / x
        for x in (0.5, 2.0):
            got = bdlp_density_from_stationary(nu_stat, self.B, self.T, x)
            want = self.T * c * self.B * beta * np.exp(-beta * x)
            assert got == pytest.approx(want, rel=1e-6)

    def test_origin_is_rejected(self):
        with pytest.raises(ValueError):
            stationary_density_from_bdlp(lambda x: 0.0 * x, self.B, self.T, 0.0)
        with pytest.raises(ValueError):
            bdlp_density_from_stationary(lambda x: 0.0 * x, self.B, self.T, 0.0)


class TestCumulants:
    def test_cts_first_cumulant_value(self):
        assert cts_cumulants(CTS_REF, 1) == pytest.approx(
            0.8 * 1.4**-0.5 * gamma_fn(0.5), rel=1e-15
        )
        assert cts_cumulants(CTS_REF, 1) == pytest.approx(1.1984, abs=2e-4)

    def test_gamma_second_cumulant(self):
        p = CtsParams(0.0, 2.0, 1.5)
        assert cts_cumulants(p, 2) == pytest.approx(p.c / p.beta**2, rel=1e-15)

    @pytest.mark.parametrize("law", [CTS_REF, CtsParams(0.9, 1.4, 0.8)])
    def test_moment_integral_oracle(self, law):
        nu = lambda x: law.c * np.exp(-law.beta * x) / x ** (1.0 + law.alpha)
        for k in (1, 2, 3, 4):
            moment = quad_positive(lambda x, k=k: x**k * nu(x))
            assert moment == pytest.approx(cts_cumulants(law, k), rel=1e-8)

    def test_ou_from_stationary_limits(self):
        cums = [cts_cumulants(CTS_REF, k) for k in (1, 2, 3, 4)]
        for k in (1, 2, 3, 4):
            assert ou_cumulants_from_stationary(cums, 5.0, 10.0, np.inf, k) == cums[k - 1]
        assert ou_cumulants_from_stationary(cums, 5.0, 10.0, 0.0, 1) == 5.0
        for k in (2, 3, 4):
            assert ou_cumulants_from_stationary(cums, 5.0, 10.0, 0.0, k) == 0.0

    def test_ou_from_stationary_matches_process_closed_form(self):
        proc = cts_ou.CtsOuProcess(CTS_REF, 10.0)
        dt = 1.0 / 365.0
        via_generic = ou_cumulants_from_stationary(
            lambda k: cts_cumulants(CTS_REF, k), 10.0, proc.b, dt, 2
        )
        assert via_generic == pytest.approx(
            cts_ou.cumulants_ctsou(proc, 10.0, dt, 2), abs=1e-12
        )

    def test_ou_from_bdlp_stationary_mean(self):
        c_l1 = cts_cumulants(CTS_REF, 1)
        got = ou_cumulants_from_bdlp([c_l1], 0.0, 10.0, 1.0, np.inf, 1)
        assert got == pytest.approx(c_l1 / 10.0, rel=1e-15)

    def test_ou_from_bdlp_third_cumulant_against_fd_oracle(self):
        # finite differences of the transition Laplace exponent
        # L(u) = (1/T) int_0^t l(u e^{-b s}) ds, with Richardson refinement
        b, T, dt = 10.0, 1.0, 30.0 / 365.0
        p = CTS_REF
        g = p.c * gamma_fn(1.0 - p.alpha) / p.alpha

        def lap(u):
            f = lambda s: g * (p.beta**p.alpha - (p.beta + u * np.exp(-b * s)) ** p.alpha)
            return integrate.quad(f, 0.0, dt, limit=200, epsabs=1e-13, epsrel=1e-11)[0] / T

        def third_diff(h):
            return (lap(2 * h) - 2 * lap(h) + 2 * lap(-h) - lap(-2 * h)) / (2 * h**3)

        oracle = -(4.0 * third_diff(0.025) - third_diff(0.05)) / 3.0
        val = ou_cumulants_from_bdlp(
            lambda k: cts_cumulants(p, k), 0.0, b, T, dt, 3
        )
        assert val == pytest.approx(oracle, rel=1e-4)

    def test_ou_from_bdlp_matches_step_additivity(self):
        proc = ou_cts.OuCtsProcess(CTS_REF, 10.0)
        dt = 30.0 / 365.0
        law = ou_cts.step_law_oucts(proc, dt)
        for k in (1, 2, 3, 4):
            additive = law.cumulant(k)
            generic = ou_cumulants_from_bdlp(
                lambda kk: cts_cumulants(CTS_REF, kk), 0.0, proc.b, proc.T, dt, k
            )
            assert additive == pytest.approx(generic, rel=1e-8)

    @pytest.mark.parametrize("k", [0, 2.5])
    @pytest.mark.parametrize(
        "cumulant",
        [
            lambda k: cts_cumulants(CTS_REF, k),
            lambda k: cts_ou.step_law(cts_ou.CtsOuProcess(CTS_REF, 10.0), 0.1).cumulant(k),
            lambda k: cts_ou.cumulants_ctsou(cts_ou.CtsOuProcess(CTS_REF, 10.0), 0.0, 0.1, k),
            lambda k: ou_cts.cumulants_oucts(ou_cts.OuCtsProcess(CTS_REF, 10.0), 0.0, 0.1, k),
            lambda k: ou_cumulants_from_stationary(lambda j: 1.0, 0.0, 10.0, 0.1, k),
        ],
        ids=["cts", "step-law", "ctsou", "oucts", "from-stationary"],
    )
    def test_order_domain(self, cumulant, k):
        # a non-integer order returned a value (0.3747 at k = 2.5 for CTS-OU)
        with pytest.raises(ValueError, match="cumulant order"):
            cumulant(k)

    @pytest.mark.parametrize("dt", [-1.0, -np.inf, np.nan])
    @pytest.mark.parametrize(
        "cumulant",
        [
            lambda dt: cts_ou.cumulants_ctsou(cts_ou.CtsOuProcess(CTS_REF, 10.0), 0.0, dt, 2),
            lambda dt: ou_cts.cumulants_oucts(ou_cts.OuCtsProcess(CTS_REF, 10.0), 0.0, dt, 2),
            lambda dt: ou_cumulants_from_stationary([1.0, 2.0], 0.0, 10.0, dt, 2),
            lambda dt: ou_cumulants_from_bdlp([1.0, 2.0], 0.0, 10.0, 1.0, dt, 2),
        ],
        ids=["ctsou", "oucts", "from-stationary", "from-bdlp"],
    )
    def test_negative_or_nan_step_is_refused(self, cumulant, dt):
        # a negative dt gave a huge negative variance (-2.1e8 for CTS-OU at dt = -1)
        with pytest.raises(ValueError, match="dt must be nonnegative"):
            cumulant(dt)

    @pytest.mark.parametrize("value", [-10.0, 0.0, np.inf, np.nan])
    @pytest.mark.parametrize(
        "cumulant",
        [
            lambda v: ou_cumulants_from_stationary([1.0, 2.0], 0.0, v, 1.0, 2),
            lambda v: ou_cumulants_from_bdlp([1.0, 2.0], 0.0, v, 1.0, 1.0, 2),
            lambda v: ou_cumulants_from_bdlp([1.0, 2.0], 0.0, 10.0, v, 1.0, 2),
        ],
        ids=["from-stationary-b", "from-bdlp-b", "from-bdlp-T"],
    )
    def test_non_positive_rate_or_time_scale_is_refused(self, cumulant, value):
        # b = -10 gave a variance of -9.7e8 from the stationary cumulants
        with pytest.raises(ValueError, match="must be positive and finite"):
            cumulant(value)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("x0", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "cumulant",
        [
            lambda x0, k: cts_ou.cumulants_ctsou(cts_ou.CtsOuProcess(CTS_REF, 10.0), x0, 0.01, k),
            lambda x0, k: ou_cts.cumulants_oucts(ou_cts.OuCtsProcess(CTS_REF, 10.0), x0, 0.01, k),
            lambda x0, k: ou_cumulants_from_stationary([1.0, 2.0, 3.0, 4.0], x0, 10.0, 0.01, k),
            lambda x0, k: ou_cumulants_from_bdlp([1.0, 2.0, 3.0, 4.0], x0, 10.0, 1.0, 0.01, k),
            lambda x0, k: cts_ou.step_law(cts_ou.CtsOuProcess(CTS_REF, 10.0), 0.01).cumulant(k, x0),
        ],
        ids=["ctsou", "oucts", "from-stationary", "from-bdlp", "step-law"],
    )
    def test_non_finite_start_is_refused(self, cumulant, x0, k):
        # as StepLaw.sample does; a NaN start gave a NaN cumulant
        with pytest.raises(ValueError, match="x0 must be finite"):
            cumulant(x0, k)


class TestQuadrature:
    """The adaptive 21-point Gauss-Kronrod rule behind every oracle."""

    @staticmethod
    def _scipy_quad(fn, lo, hi, *, name):
        # QUADPACK through scipy with the same tolerances and interval limit
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return integrate.quad(
                lambda x: float(fn(x)), lo, hi, limit=levy_core._MAX_INTERVALS,
                epsabs=ABS_TOL, epsrel=REL_TOL,
            )[0]

    def test_pinned_oracle_values_agree_with_quadpack(self, monkeypatch):
        got = levy_core_oracle_values()
        monkeypatch.setattr(levy_core, "_quad", self._scipy_quad)
        want = levy_core_oracle_values()
        assert len(got) == len(want) == 70
        assert max(abs(g / w - 1.0) for g, w in zip(got, want)) <= 1e-9

    def test_cts_drift_matches_scipy_incomplete_gamma(self):
        # int_0^1 x^-alpha e^(-beta x) dx = beta^(alpha-1) Gamma(1-alpha) P(1-alpha, beta)
        a, b, c = CTS_REF.alpha, CTS_REF.beta, CTS_REF.c
        want = c * b ** (a - 1.0) * gamma_fn(1.0 - a) * special.gammainc(1.0 - a, b)
        assert LevyTriplet.from_cts(CTS_REF).gamma_drift == pytest.approx(want, rel=1e-14)

    def test_scalar_only_integrand_is_evaluated_node_by_node(self):
        # math.exp raises TypeError on arrays
        assert levy_core._quad(lambda x: math.exp(-x), 0.0, 5.0, name="t") == pytest.approx(
            -math.expm1(-5.0), rel=1e-14
        )
        nu_L = lambda x: 8.0 * math.exp(-1.4 * x) / x**1.5
        want = stationary_density_from_bdlp(lambda x: 8.0 * np.exp(-1.4 * x) / x**1.5, 10.0, 1.0, 0.5)
        assert stationary_density_from_bdlp(nu_L, 10.0, 1.0, 0.5) == pytest.approx(want, rel=1e-13)

    def test_smooth_integrals_are_exact_to_rounding(self):
        assert levy_core._quad(np.cos, 0.0, 10.0, name="t") == pytest.approx(np.sin(10.0), rel=1e-14)
        # one Gauss-Kronrod panel integrates a degree-31 polynomial exactly
        assert levy_core._quad(lambda x: 32.0 * x**31, 0.0, 1.0, name="t") == pytest.approx(1.0, rel=1e-14)

    def test_divergent_integral_raises(self):
        with pytest.raises(QuadratureError, match="estimated error"):
            levy_core._quad(lambda x: 1.0 / x, 0.0, 1.0, name="1/x")

    def test_non_finite_integral_raises(self):
        with pytest.raises(QuadratureError, match="non-finite"):
            levy_core._quad(lambda x: np.full_like(x, np.nan), 0.0, 1.0, name="nan")


class TestDensityWarnings:
    """The densities open no errstate of their own: ``_quad`` opens one
    around each quadrature.  Called directly, they stay silent on the
    positive axis (pytest turns any warning into an error)."""

    X = np.concatenate([np.logspace(-10.0, 10.0, 201), [0.3, 1.0, 7.5]])

    def test_cts_density_is_silent_for_positive_x(self):
        nu = LevyTriplet.from_cts(CTS_REF).nu
        vals = nu(self.X)
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        for x in (1e-10, 0.3, 1.0, 1e10):
            assert np.isfinite(nu(x))

    def test_remainder_jump_density_is_silent_for_positive_x(self):
        dec = ts_remainder_decompose(CTS_REF, 0.5)
        vals = dec.nu2(self.X) / dec.lambda_a
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)

    def test_cts_density_at_zero_is_inf_with_numpys_warning(self):
        nu = LevyTriplet.from_cts(CTS_REF).nu
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            assert nu(0.0) == np.inf

    def test_quadrature_restores_the_error_state(self):
        before = np.geterr()
        rem = aremainder_triplet(LevyTriplet.from_cts(CTS_REF), 0.5)
        lk_log_chf(rem, 1.0)
        assert np.geterr() == before
