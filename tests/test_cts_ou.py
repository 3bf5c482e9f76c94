"""CTS-OU transition tests: step-law rates, the inverse-transform mixing
factor, exact transitions against closed-form cumulants, the alpha = 0
compound-Poisson route, and skeleton generation."""

import copy
import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gamma as gamma_fn

from _helpers import FixedStream, chi2_pvalue, z_score
from tsousim._util import gamma_mixture_moment
from tsousim.cts_ou import (
    CtsOuProcess,
    cumulants_ctsou,
    sample_transition_ctsou,
    sample_v_ctsou,
    simulate_skeleton_ctsou,
    step_law,
)
from tsousim.levy_core import ou_cumulants_from_stationary
from tsousim.ou_cts import OuCtsProcess, simulate_skeleton_oucts
from tsousim.rand_core import CtsParams, RngStream, cts_cumulants, sample_cts, sample_inverse_gaussian

B, C, BETA = 10.0, 0.8, 1.4  # reference parameter set used throughout
PROC = CtsOuProcess(CtsParams(0.5, BETA, C), B)


class TestStepLaw:
    def test_reference_step(self):
        law = step_law(PROC, 1.0 / 365.0)
        assert law.a == pytest.approx(np.exp(-10.0 / 365.0), rel=1e-15)
        assert law.a == pytest.approx(0.97297, abs=5e-6)
        assert law.x1_params.c == pytest.approx(C * (1.0 - law.a**0.5), rel=1e-12)

    def test_rate_equals_density_mass(self):
        # lambda_a cross-checked by quadrature of the compound part's density
        law = step_law(PROC, 1.0 / 365.0)
        a, al = law.a, 0.5

        def nu2(x):
            return C * a**al * np.exp(-BETA * x) * -np.expm1(-BETA * x * (1 / a - 1)) / x ** (1 + al)

        val = sum(
            integrate.quad(lambda t: nu2(np.exp(t)) * np.exp(t), ta, tb, limit=400)[0]
            for ta, tb in zip([-36.0, -4.0, 0.0], [-4.0, 0.0, np.log(200.0)])
        )
        assert val == pytest.approx(law.lambda_a, abs=1e-8)

    def test_small_step_rate_is_first_order(self):
        dt = 1e-6
        lam = step_law(PROC, dt).lambda_a
        first_order = C * gamma_fn(0.5) * B * BETA**0.5 * dt
        assert abs(lam / first_order - 1.0) < 1e-3

    def test_large_step_rate_limit(self):
        # b*dt = 500: 1 - a^alpha rounds to 1.0 exactly, while a has not
        # underflowed to 0.0, so the law still has its jumps
        lam = step_law(PROC, 50.0).lambda_a
        assert lam == pytest.approx(C * gamma_fn(0.5) * BETA**0.5 / 0.5, rel=1e-12)

    def test_alpha0_gamma_ou_law(self):
        # alpha = 0: no CTS part, Poisson(c*b*dt) decayed exponential jumps
        law = step_law(CtsOuProcess(CtsParams(0.0, BETA, C), B), 0.1)
        assert law.x1_params is None
        assert law.lambda_a == C * B * 0.1

    @pytest.mark.parametrize("b", [np.inf, np.nan, 0.0])
    def test_rate_must_be_positive_and_finite(self, b):
        # an infinite b used to pass and die in numpy's Poisson sampler
        with pytest.raises(ValueError, match="must be positive and finite"):
            CtsOuProcess(CtsParams(0.0, BETA, C), b)


class TestMixingFactor:
    def test_endpoints(self):
        a, alpha = 0.5, 0.5
        assert sample_v_ctsou(a, alpha, FixedStream([0.0])) == pytest.approx(1.0)
        assert sample_v_ctsou(a, alpha, FixedStream([1.0 - 1e-16])) == pytest.approx(
            1.0 / a, rel=1e-12
        )

    def test_quantile_inversion_oracle(self):
        # V at U=0.25 must satisfy F_V(V) = 0.25 for the stated density
        a, alpha = 0.5, 0.5
        v = sample_v_ctsou(a, alpha, FixedStream([0.25]))
        assert v == pytest.approx((1.0 + (2**0.5 - 1.0) * 0.25) ** 2, rel=1e-12)
        f_of_v = (v**alpha - 1.0) / (a**-alpha - 1.0)
        assert f_of_v == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.99], ids=["power-overflows", "span-overflows"])
    def test_subnormal_a_gives_one_at_u0_and_inf_past_the_largest_float(self, alpha):
        # a = exp(-744): (1 + (a^-alpha - 1) U)^(1/alpha) overflows at U = 0.5,
        # and at alpha 0.99 so does a^-alpha; 0 * inf must not turn U = 0 into NaN
        v = sample_v_ctsou(math.exp(-744.0), alpha, FixedStream([0.0, 2.0**-53, 0.5]), 3)
        assert v[0] == 1.0 and 1.0 < v[1] < np.inf and v[2] == np.inf

    def test_density_chi2(self):
        a, alpha = 0.44, 0.7
        v = sample_v_ctsou(a, alpha, RngStream(21, 1), size=10**5)
        assert v.min() >= 1.0 and v.max() <= 1.0 / a
        cdf = lambda x: (x**alpha - 1.0) / (a**-alpha - 1.0)
        assert chi2_pvalue(v, cdf, 1.0, 1.0 / a) > 0.05

    @pytest.mark.parametrize(
        "a, alpha, match",
        [(0.0, 0.5, "a must be in"), (1.0, 0.5, "a must be in"), (np.nan, 0.5, "a must be in"),
         (0.5, 0.0, "alpha must be in"), (0.5, 1.0, "alpha must be in"),
         (0.5, np.nan, "alpha must be in")],
    )
    def test_refuses_a_or_alpha_outside_the_law(self, a, alpha, match):
        stream = RngStream(21, 3)
        with pytest.raises(ValueError, match=f"^{match} \\(0, 1\\)"):
            sample_v_ctsou(a, alpha, stream, 4)
        assert stream.gen.random() == RngStream(21, 3).gen.random()

    def test_consumes_exactly_one_uniform_per_draw(self):
        # pure inversion: no rejection loop in the mixing-factor stage
        s1 = RngStream(21, 2)
        sample_v_ctsou(0.5, 0.5, s1, size=1000)
        s2 = RngStream(21, 2)
        s2.gen.random(1000)
        assert s1.gen.bit_generator.state["state"]["counter"].tolist() == (
            s2.gen.bit_generator.state["state"]["counter"].tolist()
        )


class TestTransition:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.96, 0.99])
    @pytest.mark.parametrize("b_dt", [720.0, 744.0])
    def test_subnormal_decay_draws_finite_values_without_a_warning(self, alpha, b_dt):
        # a = exp(-b*dt) is subnormal: a^-alpha overflowed a Python float at
        # alpha > 0.95 and V^(1/alpha) warned below it; a V or beta*V past
        # the largest float is inf and its jump 0.  pyproject turns any
        # warning into an error.
        law = step_law(CtsOuProcess(CtsParams(alpha, BETA, C), B), b_dt / B)
        assert 0.0 < law.a < np.finfo(float).tiny
        x = law.sample(0.0, RngStream(22, 9), 10**4)
        assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
        assert abs(z_score(x, law.cumulant(1), 1)) < 4.0

    def test_degenerate_intensity_returns_decayed_start(self):
        tiny = CtsOuProcess(CtsParams(0.5, BETA, 1e-300), B)
        x = sample_transition_ctsou(tiny, 2.0, 0.1, RngStream(22, 1))
        assert x == pytest.approx(np.exp(-B * 0.1) * 2.0, rel=1e-12)

    def test_cumulants_reference_cell(self):
        x = sample_transition_ctsou(PROC, 0.0, 1.0 / 365.0, RngStream(22, 2), size=10**6)
        for k in (1, 2, 3, 4):
            assert abs(z_score(x, cumulants_ctsou(PROC, 0.0, 1.0 / 365.0, k), k)) < 4.0

    def test_half_step_composition(self):
        dt = 30.0 / 365.0
        n = 2 * 10**5
        stream = RngStream(22, 3)
        half = sample_transition_ctsou(PROC, 0.0, dt / 2, stream, size=n)
        half = sample_transition_ctsou(PROC, half, dt / 2, stream, size=n)
        for k in (1, 2, 3, 4):
            assert abs(z_score(half, cumulants_ctsou(PROC, 0.0, dt, k), k)) < 4.0

    def test_stationarity(self):
        # started from the stationary law, one step leaves the cumulants alone
        n = 2 * 10**5
        for alpha in (0.5, 0.9):
            proc = CtsOuProcess(CtsParams(alpha, BETA, C), B)
            for dt in (1.0 / 365.0, 30.0 / 365.0):
                stream = RngStream(22, 4)
                x0 = sample_cts(proc.stationary, stream, size=n)
                x = sample_transition_ctsou(proc, x0, dt, stream, size=n)
                for k in (1, 2, 3, 4):
                    assert abs(z_score(x, cts_cumulants(proc.stationary, k), k)) < 4.0

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_empirical_chf_against_remainder_factorisation(self, alpha):
        # whole-law check at the alpha corners: the transition chf equals
        # exp(i u a x0) eta(u)/eta(a u) with eta the stationary chf
        from tsousim.levy_core import cts_log_chf

        dt, x0, n = 30.0 / 365.0, 0.4, 2 * 10**5
        proc = CtsOuProcess(CtsParams(alpha, BETA, C), B)
        x = sample_transition_ctsou(proc, x0, dt, RngStream(26, 1), size=n)
        a = np.exp(-B * dt)
        for u in (0.5, 1.0, 2.0):
            target = np.exp(
                1j * u * x0 * a
                + cts_log_chf(proc.stationary, u)
                - cts_log_chf(proc.stationary, a * u)
            )
            assert abs(np.mean(np.exp(1j * u * x)) - target) < 4.0 / np.sqrt(n)

    def test_underflowed_decay_draws_the_stationary_law(self):
        # b*dt = 800: exp(-b*dt) is 0.0 in double precision, and the
        # transition law is the stationary law up to O(a)
        x = sample_transition_ctsou(PROC, 5.0, 80.0, RngStream(27, 1), size=1000)
        assert np.array_equal(x, sample_cts(PROC.stationary, RngStream(27, 1), size=1000))
        x = sample_transition_ctsou(PROC, 5.0, 80.0, RngStream(27, 2))
        assert x == sample_cts(PROC.stationary, RngStream(27, 2))

    @pytest.mark.parametrize("dt", [1.0 / 365.0, 80.0])
    def test_non_finite_start_rejected(self, dt):
        # at dt = 80 the law is the stationary one, whose draw does not depend on x0
        with pytest.raises(ValueError, match="x0 must be finite"):
            sample_transition_ctsou(PROC, float("nan"), dt, RngStream(27, 3))
        with pytest.raises(ValueError, match="x0 must be finite"):
            sample_transition_ctsou(PROC, np.array([1.0, np.inf]), dt, RngStream(27, 3), size=2)

    def test_x1_law_matches_inverse_gaussian_at_alpha_half(self):
        law = step_law(PROC, 30.0 / 365.0)
        c_eff, beta = law.x1_params.c, law.x1_params.beta
        x = sample_cts(law.x1_params, RngStream(22, 5), size=10**5)
        y = sample_inverse_gaussian(
            c_eff * np.sqrt(np.pi / beta), 2.0 * np.pi * c_eff**2, RngStream(22, 6), size=10**5
        )
        assert stats.ks_2samp(x, y).pvalue > 0.01


class TestGammaOuStep:
    PROC0 = CtsOuProcess(CtsParams(0.0, BETA, C), B)

    def test_reaches_stationary_gamma_law(self):
        dt = 20.0 / B  # b*dt = 20: the decayed start is below double precision
        x = sample_transition_ctsou(self.PROC0, 0.0, dt, RngStream(23, 1), size=2 * 10**5)
        for k in (1, 2, 3, 4):
            truth = C * gamma_fn(float(k)) / BETA**k
            assert abs(z_score(x, truth, k)) < 4.0

    def test_no_jump_branch(self):
        quiet = CtsOuProcess(CtsParams(0.0, BETA, 1e-12), B)
        x = sample_transition_ctsou(quiet, 3.0, 0.01, RngStream(23, 2), size=50)
        assert np.allclose(x, np.exp(-B * 0.01) * 3.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("b_dt", [0.1, 3.0, 80.0, 800.0])
    def test_law_cumulant_matches_closed_form(self, b_dt):
        # at b*dt = 800 a = exp(-b*dt) underflows to 0.0, where a quadrature
        # over [1, 1/a] divided by zero
        law = step_law(self.PROC0, b_dt / B)
        assert (law.a == 0.0) == (b_dt == 800.0)
        for k in (1, 2, 3, 4):
            assert law.cumulant(k, 0.7) == pytest.approx(
                cumulants_ctsou(self.PROC0, 0.7, b_dt / B, k), rel=1e-8
            )

    @pytest.mark.parametrize("b_dt", [0.1, 3.0])
    def test_jump_moment_matches_mixture_quadrature(self, b_dt):
        # V = exp(b_dt U): W = -log(V)/log(a) = U is uniform on [0, 1]
        law = step_law(self.PROC0, b_dt / B)
        for k in (1, 2, 3, 4):
            quad = gamma_mixture_moment(law.a, 0.0, BETA, k, lambda w: np.ones_like(w))
            assert law.jump_moment(k) == pytest.approx(quad, rel=1e-10)

    def test_mean_against_generic_ou_formula(self):
        dt = 0.1
        x = sample_transition_ctsou(self.PROC0, 1.0, dt, RngStream(23, 3), size=10**6)
        truth = ou_cumulants_from_stationary(
            lambda k: cts_cumulants(self.PROC0.stationary, k), 1.0, B, dt, 1
        )
        assert abs(z_score(x, truth, 1)) < 4.0


class TestSkeleton:
    def test_single_point_grid_equals_transition(self):
        base = RngStream(24, 1)
        path = simulate_skeleton_ctsou(PROC, 1.0, [0.1], copy.deepcopy(base), size=16)
        direct = sample_transition_ctsou(PROC, 1.0, 0.1, copy.deepcopy(base), size=16)
        assert np.array_equal(path[0], direct)

    def test_uniform_vs_nonuniform_grid(self):
        n = 2 * 10**5
        t_end = 0.3
        uni = simulate_skeleton_ctsou(
            PROC, 0.0, [0.1, 0.2, 0.3], RngStream(24, 2), size=n
        )[-1]
        non = simulate_skeleton_ctsou(
            PROC, 0.0, [0.02, 0.21, 0.3], RngStream(24, 3), size=n
        )[-1]
        for k in (1, 2, 3, 4):
            truth = cumulants_ctsou(PROC, 0.0, t_end, k)
            assert abs(z_score(uni, truth, k)) < 4.0
            assert abs(z_score(non, truth, k)) < 4.0

    def test_fixed_seed_reproducibility(self):
        grid = np.linspace(0.01, 0.2, 7)
        a = simulate_skeleton_ctsou(PROC, 0.5, grid, RngStream(24, 4))
        b = simulate_skeleton_ctsou(PROC, 0.5, grid, RngStream(24, 4))
        assert np.array_equal(a, b)

    def test_alpha0_route(self):
        proc = CtsOuProcess(CtsParams(0.0, BETA, C), B)
        path = simulate_skeleton_ctsou(proc, 0.2, [0.05, 0.1], RngStream(24, 5), size=8)
        assert path.shape == (2, 8) and np.all(np.isfinite(path))

    def test_grid_validation(self):
        for grid in ([0.2, 0.1], [0.0, 0.1], []):
            with pytest.raises(ValueError):
                simulate_skeleton_ctsou(PROC, 0.0, grid, RngStream(24, 6))
        # a NaN time is refused by the grid check, not later by the step law
        oucts = OuCtsProcess(CtsParams(0.5, BETA, C), B)
        for grid in ([0.1, np.nan, 0.3], [np.nan]):
            for skeleton, proc in ((simulate_skeleton_ctsou, PROC), (simulate_skeleton_oucts, oucts)):
                with pytest.raises(ValueError, match="grid times must be strictly increasing"):
                    skeleton(proc, 0.0, grid, RngStream(24, 6))


class TestCumulants:
    def test_long_horizon_reaches_stationary(self):
        for k in (1, 2, 3, 4):
            assert cumulants_ctsou(PROC, 7.0, 1e6, k) == pytest.approx(
                cts_cumulants(PROC.stationary, k), rel=1e-12
            )

    def test_half_life_mean(self):
        dt = np.log(2.0) / B
        want = 0.5 * 1.0 + 0.5 * cts_cumulants(PROC.stationary, 1)
        assert cumulants_ctsou(PROC, 1.0, dt, 1) == pytest.approx(want, rel=1e-12)

    def test_underflowed_decay_cumulant_is_stationary(self):
        # the same stationary law as the draw at b*dt = 800
        law = step_law(PROC, 80.0)
        for k in (1, 2, 3, 4):
            assert law.cumulant(k, 5.0) == cts_cumulants(PROC.stationary, k)

    def test_additivity_against_jump_moments(self):
        law = step_law(PROC, 30.0 / 365.0)
        for k in (1, 2, 3, 4):
            assert law.cumulant(k) == pytest.approx(
                cumulants_ctsou(PROC, 0.0, 30.0 / 365.0, k), rel=1e-8
            )

    def test_mixture_density_chi2_more_alphas(self):
        for alpha, a in [(0.3, 0.9), (0.9, 0.3)]:
            v = sample_v_ctsou(a, alpha, RngStream(25, 1), size=10**5)
            cdf = lambda x: (x**alpha - 1.0) / (a**-alpha - 1.0)
            assert chi2_pvalue(v, cdf, 1.0, 1.0 / a) > 0.05
