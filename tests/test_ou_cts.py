"""OU-CTS tests: step-law rates and limits, the convex mixing density and
its chord-envelope sampler, exact transitions, and both approximate steps."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gamma as gamma_fn

from _helpers import chi2_pvalue, envelope_acceptance, z_score
from tsousim import ou_cts, rand_core
from tsousim.cts_ou import CtsOuProcess, cumulants_ctsou, step_law
from tsousim.harness import (
    ExperimentConfig,
    estimate_cumulants,
    export_trajectories,
    run_experiment,
)
from tsousim.levy_core import ou_cumulants_from_bdlp
from tsousim.ou_cts import (
    OuCtsProcess,
    OuCtsStepLaw,
    build_envelope,
    cumulants_oucts,
    f_w_density,
    sample_transition_oucts,
    sample_v_alpha0,
    sample_v_oucts,
    sample_w,
    scaled_bdlp_law,
    simulate_skeleton_oucts,
    single_chord_mass,
    step_law_oucts,
    x1_only_law,
)
from tsousim.rand_core import CtsParams, RngStream, cts_cumulants

B, C, BETA = 10.0, 0.8, 1.4
PROC = OuCtsProcess(CtsParams(0.5, BETA, C), B)
ALPHAS = (0.3, 0.5, 0.7, 0.9)
A_CELLS = (0.97, 0.44, 0.05)


def f_w_cdf(w, a, alpha):
    th = -alpha * np.log(a)
    return (np.exp(th * w) - 1.0 - th * w) / (np.exp(th) - 1.0 - th)


class TestStepLaw:
    @pytest.mark.parametrize("b, T", [(np.inf, 1.0), (B, np.inf), (B, 0.0), (np.nan, 1.0)])
    def test_rate_and_time_scale_must_be_positive_and_finite(self, b, T):
        # T = inf used to pass and die later in CtsParams (c = 0)
        with pytest.raises(ValueError, match="must be positive and finite"):
            OuCtsProcess(CtsParams(0.5, BETA, C), b, T)

    def test_small_step_rate_is_second_order(self):
        dt = 1e-4
        lam = step_law_oucts(PROC, dt).lambda_a
        second_order = C * gamma_fn(0.5) * B * BETA**0.5 * dt**2 / (2.0 * PROC.T)
        assert abs(lam / second_order - 1.0) < 1e-3

    def test_alpha_limit_rate(self):
        small = OuCtsProcess(CtsParams(1e-6, BETA, C), B)
        law = step_law_oucts(small, 30.0 / 365.0)
        assert abs(law.lambda_a / (C * np.log(law.a) ** 2 / (2.0 * small.T * B)) - 1.0) < 1e-4

    def test_rate_against_proof_route_quadrature(self):
        # outer w-integral of the compound density, inner integral in closed form
        dt = 30.0 / 365.0
        law = step_law_oucts(PROC, dt)
        a, al = law.a, 0.5
        inner = lambda w: w ** (-1.0 - al) * (
            (BETA * w) ** (al - 0.0) - 0.0
        )  # placeholder, replaced below
        total, _ = integrate.quad(
            lambda w: w ** (-1.0 - al)
            * (BETA**al * gamma_fn(1.0 - al) / al)
            * (a**-al - w**al),
            1.0,
            1.0 / a,
            limit=200,
        )
        assert C / (PROC.T * B) * total == pytest.approx(law.lambda_a, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.001, 0.3, 0.5, 0.7, 0.9, 0.999])
    def test_one_log_gives_the_bits_of_two(self, alpha):
        # the step law takes log(a) once and forms 1 - a^alpha as
        # -expm1(-theta); a copy of the formulas that took it twice, once
        # for 1 - a^alpha and once for theta, gives the same bits
        from tsousim._util import gamma

        for b, T in ((1.0, 1.0), (B, 0.5)):
            p = OuCtsProcess(CtsParams(alpha, BETA, C), b, T)
            for bdt in np.geomspace(1e-8, 700.0, 301):
                dt = float(bdt) / b
                a = float(np.exp(-b * dt))
                c_old = C * -float(np.expm1(alpha * np.log(a))) / (T * alpha * b)
                th = -alpha * float(np.log(a))
                lam_old = (
                    C * BETA**alpha * float(gamma(1.0 - alpha)) / (T * b * alpha**2)
                    * ou_cts._expm1_minus_x(th)
                )
                law = step_law_oucts(p, dt)
                assert law.x1_params.c.hex() == c_old.hex(), (b, dt)
                assert law.x1_params.beta.hex() == (BETA / a).hex()
                assert law.lambda_a.hex() == lam_old.hex(), (b, dt)

    def test_x1_parameters(self):
        dt = 30.0 / 365.0
        law = step_law_oucts(PROC, dt)
        assert law.x1_params.beta == pytest.approx(BETA / law.a, rel=1e-15)
        assert law.x1_params.beta > BETA
        assert law.x1_params.c == pytest.approx(
            C * (1.0 - law.a**0.5) / (PROC.T * 0.5 * B), rel=1e-12
        )

    def test_envelope_built_on_first_jump_and_draws_unchanged(self):
        # dt = 1/365: lambda_a is about 6e-5, so 16 draws almost surely have
        # no jump and never reach the envelope
        law = step_law_oucts(PROC, 1.0 / 365.0)
        assert law.sample(0.0, RngStream(40, 0), 16).shape == (16,)
        assert "envelope" not in vars(law)
        # b dt = 3: every transition jumps; a law whose envelope was built
        # up front draws the same bytes, since building one draws nothing
        lazy, eager = step_law_oucts(PROC, 0.3), step_law_oucts(PROC, 0.3)
        assert eager.envelope.segment_count >= 4
        x = lazy.sample(0.0, RngStream(41, 0), 64)
        assert "envelope" in vars(lazy)
        assert x.tobytes() == eager.sample(0.0, RngStream(41, 0), 64).tobytes()

    def test_envelope_is_documented_on_the_class(self):
        # class access returns the lazy attribute itself, so help() shows its docstring
        assert OuCtsStepLaw.envelope.__doc__.startswith("The f_W chord envelope")

    def test_jump_count_beyond_the_cap_is_refused_before_any_draw(self):
        # alpha 0.9, b dt = 30: lambda_a is about 6.8e11 jumps per path,
        # terabytes of jump arrays for a single path
        law = step_law_oucts(OuCtsProcess(CtsParams(0.9, BETA, C), B), 3.0)
        stream = RngStream(42, 0)
        with pytest.raises(ValueError, match=r"lambda_a = 6\.767e\+11 .*size = 1 .*67108864 jumps"):
            law.sample(0.0, stream, 1)
        assert stream.gen.random(16).tobytes() == RngStream(42, 0).gen.random(16).tobytes()

    def test_alpha0_limiting_law(self):
        law = step_law_oucts(OuCtsProcess(CtsParams(0.0, BETA, C), B), 0.1)
        assert law.envelope is None
        assert law.lambda_a == pytest.approx(
            C * np.log(law.a) ** 2 / (2.0 * PROC.T * B), rel=1e-15
        )


class TestMixingDensityW:
    def test_vanishes_at_origin(self):
        assert f_w_density(0.0, 0.44, 0.5) == 0.0

    @pytest.mark.parametrize("alpha,a", [(0.5, 0.44), (0.9, 0.05), (0.3, 0.97)])
    def test_normalisation(self, alpha, a):
        val, _ = integrate.quad(lambda w: f_w_density(w, a, alpha), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("a", A_CELLS)
    def test_single_chord_matches_forced_envelope(self, alpha, a):
        env = build_envelope(alpha, a, force_segments=1)
        assert env.total_mass == pytest.approx(single_chord_mass(a, alpha), abs=1e-12)

    def test_monotone_and_convex(self):
        w = np.linspace(0.0, 1.0, 1001)
        for alpha, a in [(0.3, 0.97), (0.9, 0.05), (0.5, 0.44)]:
            f = f_w_density(w, a, alpha)
            assert np.all(np.diff(f) >= -1e-12)
            assert np.all(np.diff(f, 2) >= -1e-12)

    def test_tiny_theta_series_branch(self):
        w = np.linspace(0.0, 1.0, 101)
        f = f_w_density(w, np.exp(-1e-7), 0.5)  # theta = 5e-8 < 1e-6
        assert np.all(np.isfinite(f))
        assert np.max(np.abs(f - 2.0 * w)) < 1e-6

    # theta = 0.999 log(1/5e-324) = 743.7 > 709.78, where e^theta overflows
    HUGE_THETA = (5e-324, 0.999)

    def test_envelope_builds_where_e_theta_overflows(self):
        # it used to warn, double to 2^21 chords on NaN densities and raise
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            env = build_envelope(*self.HUGE_THETA[::-1])
        assert 1.0 <= env.total_mass <= ou_cts.DEFAULT_TARGET_G
        assert env.segment_count <= 2**13 and np.all(np.isfinite(env.f_values))

    def test_normalisation_where_e_theta_overflows(self):
        a, alpha = self.HUGE_THETA
        th = -alpha * np.log(a)
        assert th > ou_cts._LOG_MAX
        # the mass lies within a few 1/theta of w = 1
        cut = 1.0 - 60.0 / th
        head, _ = integrate.quad(lambda w: f_w_density(w, a, alpha), 0.0, cut)
        tail, _ = integrate.quad(lambda w: f_w_density(w, a, alpha), cut, 1.0)
        assert head + tail == pytest.approx(1.0, abs=1e-10)
        # the one chord's area is f_W(1) / 2 = theta (1 - e^-theta) / 2 (1 - (1 + theta) e^-theta)
        assert single_chord_mass(a, alpha) == pytest.approx(th / 2.0, rel=1e-15)
        assert f_w_density(1.0, a, alpha) == pytest.approx(th, rel=1e-15)

    @staticmethod
    def direct_f_w(w, th):
        # f_W and the one-chord mass as written before the overflow branch
        if th < 1e-6:
            return 2.0 * w * (1.0 + th * (w / 2.0 - 1.0 / 3.0))
        return th * np.expm1(th * w) / ou_cts._expm1_minus_x(th)

    def test_same_bits_as_the_direct_form_up_to_theta_700(self):
        w = np.concatenate(([0.0, 1.0], np.random.default_rng(2032).random(997)))
        checked = []
        for a in np.exp(-np.geomspace(1e-8, 744.0, 300)).tolist() + [1e-300, 5e-324]:
            for alpha in (0.3, 0.9, 0.999):
                th = ou_cts._theta(a, alpha)
                if th > 700.0:
                    continue
                checked.append(th)
                assert f_w_density(w, a, alpha).tobytes() == self.direct_f_w(w, th).tobytes()
                mass = float(th * np.expm1(th) / (2.0 * ou_cts._expm1_minus_x(th)))
                assert single_chord_mass(a, alpha) == mass
        assert min(checked) < 1e-6 and max(checked) > 690.0

    @pytest.mark.parametrize(
        "a, alpha, match",
        [(1.5, 0.5, "a must be in"), (1.0, 0.5, "a must be in"), (0.0, 0.5, "a must be in"),
         (np.nan, 0.5, "a must be in"), (0.5, 1.5, "alpha must be in"),
         (0.5, 1.2, "alpha must be in"), (0.5, -0.2, "alpha must be in"),
         (0.5, np.nan, "alpha must be in")],
    )
    def test_refuses_a_or_alpha_outside_the_law(self, a, alpha, match):
        # each used to return a value or, at alpha < 0, to double the chords
        # to 2^21 before raising RuntimeError
        for call in (
            lambda: f_w_density(0.5, a, alpha),
            lambda: single_chord_mass(a, alpha),
            lambda: build_envelope(alpha, a),
        ):
            with pytest.raises(ValueError, match=f"^{match} "):
                call()

    @pytest.mark.parametrize("segments", [0, -1, 2.5, "4", np.float64(4.0)])
    def test_refuses_force_segments_that_is_not_a_positive_integer(self, segments, monkeypatch):
        # 0 used to raise ZeroDivisionError, -1 IndexError and 2.5 a TypeError
        # from np.linspace; the refusal comes before any chord is built
        monkeypatch.setattr(ou_cts, "f_w_density", None)
        with pytest.raises(ValueError, match="^force_segments must be an integer >= 1, got "):
            build_envelope(0.5, 0.5, force_segments=segments)


class TestEnvelope:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("a", A_CELLS)
    def test_domination_and_probabilities(self, alpha, a):
        env = build_envelope(alpha, a)
        w = np.linspace(0.0, 1.0, 1001)
        g_l = np.interp(w, env.breakpoints, env.f_values)
        assert np.max(f_w_density(w, a, alpha) - g_l) <= 0.0
        # sample_w draws from the chords through slopes, so they must be these
        chords = np.diff(env.f_values) / np.diff(env.breakpoints)
        np.testing.assert_allclose(env.slopes, chords, rtol=1e-12, atol=0.0)
        assert env.total_mass >= 1.0
        assert abs(np.sum(env.masses / env.total_mass) - 1.0) < 1e-12
        assert env.cum_probabilities[-1] == 1.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("a", A_CELLS)
    def test_doubling_convergence(self, alpha, a):
        for seg in (8, 16, 32):
            g1 = build_envelope(alpha, a, force_segments=seg).total_mass
            g2 = build_envelope(alpha, a, force_segments=2 * seg).total_mass
            assert g2 - 1.0 <= (g1 - 1.0) / 3.0

    def test_target_domain(self):
        # the fixed target G_L <= DEFAULT_TARGET_G is reached at the edges of
        # the (alpha, a) domain, with the fewest doublings from 4 chords
        for alpha in (0.01, 0.5, 0.99):
            for a in (np.exp(-1e-4), 0.44, 1e-6):
                env = build_envelope(alpha, a)
                assert env.total_mass <= ou_cts.DEFAULT_TARGET_G
                seg = env.segment_count
                assert seg >= 4 and seg & (seg - 1) == 0
                if seg > 4:
                    coarser = build_envelope(alpha, a, force_segments=seg // 2)
                    assert coarser.total_mass > ou_cts.DEFAULT_TARGET_G


class TestSampleW:
    def test_acceptance_rate_matches_total_mass(self):
        env = build_envelope(0.7, 0.05)
        rate = envelope_acceptance(env, 0.05, 0.7, RngStream(31, 1), 10**5)
        assert abs(rate - 1.0 / env.total_mass) < 0.01

    def test_density_chi2(self):
        a, alpha = 0.44, 0.5
        env = build_envelope(alpha, a)
        w, _ = sample_w(env, a, alpha, RngStream(31, 4), size=10**5)
        assert chi2_pvalue(w, lambda x: f_w_cdf(x, a, alpha), 0.0, 1.0) > 0.05

    def test_near_degenerate_scale(self):
        # b*dt = 1e-4: the density is nearly linear and must stay finite
        a = np.exp(-1e-4)
        env = build_envelope(0.5, a)
        w, _ = sample_w(env, a, 0.5, RngStream(31, 3), size=10**4)
        assert np.all((w >= 0.0) & (w <= 1.0))
        assert np.all(np.isfinite(f_w_density(w, a, 0.5)))


class TestMemory:
    """Peak traced memory of the jump pipeline, in float64 arrays of its
    jump count, and of the cumulant estimator and a whole cumulant cell,
    in arrays of its sample size.  A step draws its jumps in chunks of at
    most ``rand_core._JUMP_CHUNK``, so its peak does not grow with
    lambda_a.  The W sampler holds its proposals whole and keeps only a
    small-integer segment index per proposal; the gamma stage writes the
    jumps into the mixing factors' array; both run the rest one block of
    ``rand_core._CHUNK`` elements at a time.  ``segment_sums`` writes the
    prefix sums into the jump values and sees only the paths that have
    jumps.  Measured peaks (numpy 2.4.6), with earlier figures in brackets:

    * OU-CTS step at alpha 0.9, b dt = 3 (about 14 jumps per transition,
      932 557 for one 65 536-path block, four chunks): 0.82 arrays, set by
      the double-rejection temporaries of its 65 536 CTS draws [1.59 with
      every jump in one array, 2.45 with the segment uniforms and the
      gammas held whole, 5.24 before blocking];
    * CTS-OU step at alpha 0.9, dt = 30/365 (about 6 jumps per transition,
      392 082 for 65 536 paths, two chunks): 1.73 arrays, set by double
      rejection too [2.17 with every jump in one array, 2.38 with the
      gammas held whole, 2.84 with a separate prefix array and five
      path-length index arrays in ``segment_sums``, 3.33 before blocking];
    * OU-CTS step at alpha 0.9, b dt = 10 (lambda_a about 1.03e4, some
      2.6e6 jumps for 256 paths, ten chunks): 1.60 arrays of one chunk,
      3.35 MB, its W sampler's peak on one chunk [27.1 MB with every jump
      in one array];
    * ``sample_w`` alone, 2**18 draws: 1.60 arrays [2.44 with the segment
      uniforms held whole, 5.00 before blocking];
    * ``estimate_cumulants`` on 10**6 values: 0.022, 0.019 and 0.020
      arrays in 100, 2 and 7 batches, its two-row buffer of
      ``rand_core._CHUNK`` values [1.01, 1.50 and 1.14 with one scratch of
      the sample's size and a block of whole rows; 2.00 with d and d**2
      held whole];
    * ``run_experiment`` on a 2**20-path CTS-OU cell at alpha 0.5,
      dt = 1/365, seed 5: 1.40 arrays of its sample (1.31 at seed 3), the
      terminal states written into one array plus one block's step [2.10,
      2.01 at seed 3, with a list of block arrays joined by
      ``np.concatenate`` and the estimator's scratch];
    * ``run_experiment`` on the 2**18-path OU-CTS cell at alpha 0.9,
      dt = 0.3, seed 5, the benchmark's coarse peak cell: 3.56 arrays of
      its sample [6.31 with one 65 536-path block's jumps in one array,
      9.63 with the segment uniforms and the gammas held whole];
    * ``export_trajectories`` of 2**17 paths and no steps (one row): 1.73
      tables of its (steps + 1) x (paths + 1) values, and 1.28 at 8 steps,
      each CSV line written in slices of ``rand_core._CHUNK`` fields [12.6
      and 2.53 with the header's and each row's text held whole].

    The out-of-place arithmetic before blocking peaked at 13.1 and 13.0
    arrays for the OU-CTS step and ``sample_w``.  The envelope and the
    estimator's sample are made before tracing starts."""

    OUCTS = step_law_oucts(OuCtsProcess(CtsParams(0.9, BETA, C), B), 0.3)
    CTSOU = step_law(CtsOuProcess(CtsParams(0.9, BETA, C), B), 30.0 / 365.0)

    @staticmethod
    def _traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _chunks(law, monkeypatch):
        # the m of every draw_jumps call the law makes
        jumps = []
        cls = type(law)
        draw = cls.draw_jumps

        def counted(law, stream, m):
            jumps.append(m)
            return draw(law, stream, m)

        monkeypatch.setattr(cls, "draw_jumps", counted)
        return jumps

    @pytest.mark.parametrize(
        "law, n_jumps, bound",
        [(OUCTS, 932557, 1.0), (CTSOU, 392082, 2.0)],
        ids=["oucts", "ctsou"],
    )
    def test_step_peak_in_jump_arrays(self, law, n_jumps, bound, monkeypatch):
        jumps = self._chunks(law, monkeypatch)
        assert self.OUCTS.envelope is not None  # built before tracing starts
        peak = self._traced_peak(lambda: law.sample(0.0, RngStream(5, 0), 1 << 16))
        assert sum(jumps) == n_jumps and max(jumps) <= rand_core._JUMP_CHUNK
        assert peak <= bound * 8 * n_jumps

    def test_step_peak_does_not_grow_with_the_jump_rate(self, monkeypatch):
        law = step_law_oucts(OuCtsProcess(CtsParams(0.9, BETA, C), B), 1.0)
        assert law.lambda_a > 1e4 and law.envelope is not None
        jumps = self._chunks(law, monkeypatch)
        peak = self._traced_peak(lambda: law.sample(0.0, RngStream(5, 3), 256))
        assert sum(jumps) > 9 * rand_core._JUMP_CHUNK
        assert peak <= 1.75 * 8 * rand_core._JUMP_CHUNK

    def test_w_sampler_peaks_below_1_75_arrays(self):
        env, n = self.OUCTS.envelope, 1 << 18
        peak = self._traced_peak(
            lambda: sample_w(env, self.OUCTS.a, 0.9, RngStream(5, 1), n)
        )
        assert peak <= 1.75 * 8 * n

    @pytest.mark.parametrize("batches", [100, 2, 7])
    def test_estimate_cumulants_holds_no_sample_sized_scratch(self, batches):
        n = 10**6
        x = RngStream(5, 2).gen.standard_exponential(n)
        peak = self._traced_peak(lambda: estimate_cumulants(x, batches))
        assert peak <= 0.05 * 8 * n

    def test_cumulant_cell_peaks_below_1_5_sample_arrays(self):
        paths = 1 << 20
        cfg = ExperimentConfig("cts-ou", 0.5, BETA, C, B, 1.0 / 365.0, paths=paths, seed=5)
        peak = self._traced_peak(lambda: run_experiment(cfg))
        assert peak <= 1.5 * 8 * paths

    def test_coarse_cumulant_cell_peaks_below_4_sample_arrays(self):
        paths = 1 << 18
        cfg = ExperimentConfig("ou-cts", 0.9, BETA, C, B, 0.3, paths=paths, seed=5)
        peak = self._traced_peak(lambda: run_experiment(cfg))
        assert peak <= 4 * 8 * paths

    def test_wide_export_peaks_below_three_tables(self, tmp_path):
        paths = 1 << 17
        cfg = ExperimentConfig(
            "cts-ou", 0.5, BETA, C, B, 1.0 / 365.0, paths=paths, seed=5, steps=0,
            out=str(tmp_path / "wide.csv"),
        )
        peak = self._traced_peak(lambda: export_trajectories(cfg))
        assert peak <= 3 * 8 * (paths + 1)


class TestMixingFactorV:
    def test_range_and_chi2(self):
        dt = 30.0 / 365.0
        law = step_law_oucts(PROC, dt)
        v = sample_v_oucts(law, RngStream(32, 1), size=10**5)
        assert v.min() >= 1.0 and v.max() <= 1.0 / law.a

        def cdf(x):
            return f_w_cdf(np.log(x) / -np.log(law.a), law.a, 0.5)

        assert chi2_pvalue(v, cdf, 1.0, 1.0 / law.a) > 0.05

    def test_moment_plug_in_against_density_quadrature(self):
        # lambda * E[J^k] against int x^k nu_2(x) dx via the proof's route
        dt = 30.0 / 365.0
        law = step_law_oucts(PROC, dt)
        a, al = law.a, 0.5
        for k in (1, 2, 3, 4):
            outer, _ = integrate.quad(
                lambda w: w ** (-1.0 - al)
                * gamma_fn(k - al)
                * ((BETA * w) ** (al - k) - (BETA / a) ** (al - k)),
                1.0,
                1.0 / a,
                limit=200,
            )
            direct = C / (PROC.T * B) * outer
            plug_in = law.lambda_a * law.jump_moment(k)
            assert plug_in == pytest.approx(direct, rel=1e-6)

    def test_alpha0_endpoints_and_fit(self):
        from _helpers import FixedStream

        a = 0.44
        assert sample_v_alpha0(a, FixedStream([1.0 - 1e-16])) == pytest.approx(
            1.0 / a, rel=1e-7
        )
        assert sample_v_alpha0(a, FixedStream([0.0])) == pytest.approx(1.0)
        v = sample_v_alpha0(a, RngStream(32, 2), size=10**5)
        assert v.min() >= 1.0 and v.max() <= 1.0 / a
        cdf = lambda x: (np.log(x) / np.log(a)) ** 2
        assert chi2_pvalue(v, cdf, 1.0, 1.0 / a) > 0.05

    @pytest.mark.parametrize("a", [0.0, 1.0, 1.5, np.nan])
    def test_alpha0_refuses_a_outside_the_unit_interval(self, a):
        stream = RngStream(32, 5)
        with pytest.raises(ValueError, match="a must be in \\(0, 1\\)"):
            sample_v_alpha0(a, stream, 4)
        assert stream.gen.random() == RngStream(32, 5).gen.random()

    def test_alpha0_is_continuity_limit(self):
        dt = 30.0 / 365.0
        a = float(np.exp(-B * dt))
        tiny = OuCtsProcess(CtsParams(1e-6, BETA, C), B)
        law = step_law_oucts(tiny, dt)
        v_small = sample_v_oucts(law, RngStream(32, 3), size=10**5)
        v_zero = sample_v_alpha0(a, RngStream(32, 4), size=10**5)
        assert stats.ks_2samp(v_small, v_zero).pvalue > 0.01


class TestTransition:
    def test_cumulants_reference_cell(self):
        x = sample_transition_oucts(PROC, 0.0, 1.0 / 365.0, RngStream(33, 1), size=10**6)
        for k in (1, 2, 3, 4):
            assert abs(z_score(x, cumulants_oucts(PROC, 0.0, 1.0 / 365.0, k), k)) < 4.0

    def test_degenerate_intensity(self):
        tiny = OuCtsProcess(CtsParams(0.5, BETA, 1e-300), B)
        x = sample_transition_oucts(tiny, 2.0, 0.1, RngStream(33, 2))
        assert x == pytest.approx(np.exp(-1.0) * 2.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_empirical_chf_against_quadrature(self, alpha):
        # transition log chf: i u x0 a + (1/T) int_0^dt psi_L(u e^{-b s}) ds
        dt, x0, n = 30.0 / 365.0, 0.7, 2 * 10**5
        proc = OuCtsProcess(CtsParams(alpha, BETA, C), B)
        x = sample_transition_oucts(proc, x0, dt, RngStream(33, 3), size=n)
        a = np.exp(-B * dt)
        g = C * gamma_fn(1.0 - alpha) / alpha
        for u in (0.5, 1.0, 2.0):
            psi = lambda uu: g * (BETA**alpha - (BETA - 1j * uu) ** alpha)
            re, _ = integrate.quad(lambda s: psi(u * np.exp(-B * s)).real, 0, dt)
            im, _ = integrate.quad(lambda s: psi(u * np.exp(-B * s)).imag, 0, dt)
            target = np.exp(1j * u * x0 * a + (re + 1j * im) / proc.T)
            empirical = np.mean(np.exp(1j * u * x))
            assert abs(empirical - target) < 4.0 / np.sqrt(n)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_underflowed_decay_is_rejected(self, alpha):
        # b*dt = 800: exp(-b*dt) is 0.0 and the CTS part's rate beta/a is infinite
        proc = OuCtsProcess(CtsParams(alpha, BETA, C), B)
        with pytest.raises(ValueError, match=r"b\*dt = 800.0 .*underflows"):
            sample_transition_oucts(proc, 0.0, 80.0, RngStream(33, 5), size=4)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_subnormal_decay_is_rejected(self, alpha, monkeypatch):
        # b*dt = 740: exp(-b*dt) is subnormal, not 0.0, and beta/a overflows;
        # without the check the CTS draw would never accept
        monkeypatch.setattr(rand_core, "_MAX_REJECTION_ROUNDS", 10)
        proc = OuCtsProcess(CtsParams(alpha, BETA, C), B)
        with pytest.raises(ValueError, match=r"b\*dt = 740.0 .*underflows"):
            sample_transition_oucts(proc, 0.0, 74.0, RngStream(33, 7), size=4)

    def test_overflowing_cts_scale_is_rejected(self, monkeypatch):
        monkeypatch.setattr(rand_core, "_MAX_REJECTION_ROUNDS", 10)
        proc = OuCtsProcess(CtsParams(0.002, BETA, C), B)
        with pytest.raises(ValueError, match=r"overflows for alpha = 0\.002"):
            sample_transition_oucts(proc, 0.0, 30.0 / 365.0, RngStream(33, 6), size=4)

    def test_alpha0_transition_cumulants(self):
        proc = OuCtsProcess(CtsParams(0.0, BETA, C), B)
        dt = 30.0 / 365.0
        x = sample_transition_oucts(proc, 0.0, dt, RngStream(33, 4), size=4 * 10**5)
        for k in (1, 2, 3, 4):
            assert abs(z_score(x, cumulants_oucts(proc, 0.0, dt, k), k)) < 4.0


class TestSkeleton:
    def test_fixed_seed_reproducibility(self):
        grid = [0.05, 0.1, 0.2]
        a = simulate_skeleton_oucts(PROC, 0.5, grid, RngStream(34, 1), size=4)
        b = simulate_skeleton_oucts(PROC, 0.5, grid, RngStream(34, 1), size=4)
        assert np.array_equal(a, b)

    def test_half_step_composition(self):
        dt, n = 30.0 / 365.0, 2 * 10**5
        stream = RngStream(34, 2)
        x = sample_transition_oucts(PROC, 0.0, dt / 2, stream, size=n)
        x = sample_transition_oucts(PROC, x, dt / 2, stream, size=n)
        for k in (1, 2, 3, 4):
            assert abs(z_score(x, cumulants_oucts(PROC, 0.0, dt, k), k)) < 4.0

    def test_draws_do_not_depend_on_earlier_calls(self):
        p = OuCtsProcess(CtsParams(0.9, BETA, C), B)
        grid = 0.3 * np.arange(1, 201)
        # rounding gives the uniform grid 9 step lengths that differ only in their last bits
        steps = np.unique(np.diff(np.concatenate(([0.0], grid))))
        assert steps.size == 9
        before = simulate_skeleton_oucts(p, 0.0, grid, RngStream(42, 0), size=8)
        for dt in steps:
            sample_transition_oucts(p, 0.0, float(dt), RngStream(42, 1), size=2)
        after = simulate_skeleton_oucts(p, 0.0, grid, RngStream(42, 0), size=8)
        assert before.tobytes() == after.tobytes()
        # every step law carries the envelope of its own a, whatever ran before
        for dt in steps:
            law = step_law_oucts(p, float(dt))
            own = build_envelope(0.9, law.a)
            assert law.envelope.f_values.tobytes() == own.f_values.tobytes()


class TestCumulants:
    def test_long_horizon_second_cumulant(self):
        want = C * gamma_fn(1.5) / (2.0 * PROC.T * B * BETA**1.5)
        assert cumulants_oucts(PROC, 3.0, 1e6, 2) == pytest.approx(want, rel=1e-12)

    def test_matches_generic_bdlp_composition(self):
        for dt in (1.0 / 365.0, 30.0 / 365.0):
            for k in (1, 2, 3, 4):
                generic = ou_cumulants_from_bdlp(
                    lambda kk: cts_cumulants(PROC.bdlp, kk), 0.4, B, PROC.T, dt, k
                )
                assert cumulants_oucts(PROC, 0.4, dt, k) == pytest.approx(
                    generic, abs=1e-12, rel=1e-12
                )

    def test_additivity_against_jump_moments(self):
        law = step_law_oucts(PROC, 30.0 / 365.0)
        for k in (1, 2, 3, 4):
            assert law.cumulant(k) == pytest.approx(
                cumulants_oucts(PROC, 0.0, 30.0 / 365.0, k), rel=1e-8
            )

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    @pytest.mark.parametrize("b_dt", [10.0, 30.0, 100.0, 300.0, 700.0])
    def test_law_cumulant_at_coarse_steps(self, b_dt, alpha):
        # both families' jump-moment quadratures run over W, which keeps the
        # mixing mass near v = 1 that a rule linear in v missed from b dt = 10,
        # on intervals that double from w = 1/(b dt), which resolve
        # a^(k w) = e^(-k b dt w) that one rule on [0, 1] missed from b dt = 300
        dt, params = b_dt / B, CtsParams(alpha, BETA, C)
        po, pc = OuCtsProcess(params, B), CtsOuProcess(params, B)
        for k in (1, 2, 3, 4):
            assert step_law_oucts(po, dt).cumulant(k) == pytest.approx(
                cumulants_oucts(po, 0.0, dt, k), rel=1e-10
            )
            assert step_law(pc, dt).cumulant(k) == pytest.approx(
                cumulants_ctsou(pc, 0.0, dt, k), rel=1e-10
            )

    def test_time_scale_parameter(self):
        # every T-bearing factor must agree: additivity holds at T=2 and the
        # whole increment law scales like 1/T
        p2 = OuCtsProcess(CtsParams(0.5, BETA, C), B, T=2.0)
        law = step_law_oucts(p2, 0.2)
        for k in (1, 2, 3, 4):
            assert law.cumulant(k) == pytest.approx(cumulants_oucts(p2, 0.0, 0.2, k), rel=1e-8)
            assert cumulants_oucts(p2, 0.0, 0.2, k) == pytest.approx(
                cumulants_oucts(PROC, 0.0, 0.2, k) / 2.0, rel=1e-12
            )

    def test_time_scale_monte_carlo(self):
        from _helpers import z_score

        p2 = OuCtsProcess(CtsParams(0.5, BETA, C), B, T=2.0)
        x = sample_transition_oucts(p2, 0.0, 30.0 / 365.0, RngStream(36, 1), size=10**5)
        for k in (1, 2):
            assert abs(z_score(x, cumulants_oucts(p2, 0.0, 30.0 / 365.0, k), k)) < 4.0


class TestApproximations:
    def test_x1_only_bias_profile(self):
        # strongly biased at the coarse step, vanishing bias at fine steps
        k2_coarse = x1_only_law(PROC, 30.0 / 365.0).cumulant(2)
        assert abs(1.0 - k2_coarse / cumulants_oucts(PROC, 0.0, 30.0 / 365.0, 2)) > 0.05
        k2_fine = x1_only_law(PROC, 1e-4).cumulant(2)
        assert abs(1.0 - k2_fine / cumulants_oucts(PROC, 0.0, 1e-4, 2)) < 5e-3

    def test_x1_only_self_consistency(self):
        dt, n = 30.0 / 365.0, 2 * 10**5
        law = x1_only_law(PROC, dt)
        x = law.sample(0.3, RngStream(35, 1), size=n)
        for k in (1, 2):
            assert abs(z_score(x, law.cumulant(k, 0.3), k)) < 4.0

    def test_scaled_bdlp_mean_formula(self):
        dt = 1e-4
        a = np.exp(-B * dt)
        k1 = scaled_bdlp_law(PROC, dt).cumulant(1)
        assert k1 == pytest.approx(
            a * C * dt * gamma_fn(0.5) / (PROC.T * BETA**0.5), rel=1e-12
        )
        assert abs(1.0 - k1 / cumulants_oucts(PROC, 0.0, dt, 1)) < 5e-3

    def test_scaled_bdlp_bias_grows_with_step(self):
        bias = lambda dt: abs(
            1.0 - scaled_bdlp_law(PROC, dt).cumulant(2) / cumulants_oucts(PROC, 0.0, dt, 2)
        )
        assert bias(30.0 / 365.0) > 5.0 * bias(1.0 / 365.0)

    def test_scaled_bdlp_self_consistency(self):
        dt, n = 30.0 / 365.0, 2 * 10**5
        law = scaled_bdlp_law(PROC, dt)
        x = law.sample(0.3, RngStream(35, 2), size=n)
        for k in (1, 2):
            assert abs(z_score(x, law.cumulant(k, 0.3), k)) < 4.0

    @pytest.mark.parametrize("alpha,dt", [(0.0, 30.0 / 365.0), (0.5, 30.0 / 365.0), (0.9, 0.3)])
    def test_scaled_bdlp_law_is_the_scaled_driving_increment(self, alpha, dt):
        # a * (x0 + L(dt)), L(dt) ~ CTS(alpha, beta, c dt/T), drawn on an equal
        # stream; at alpha 0.9 and b*dt = 3 both take the double-rejection route
        proc = OuCtsProcess(CtsParams(alpha, BETA, C), B)
        law = scaled_bdlp_law(proc, dt)
        increment = CtsParams(alpha, BETA, C * dt / proc.T)
        dr = rand_core.cts_tilting_acceptance(increment) < rand_core.TILTING_ACCEPTANCE_FLOOR
        assert dr == (alpha == 0.9)
        s1, s2 = RngStream(36, 1), RngStream(36, 1)
        x = law.sample(0.7, s1, size=10**4)
        y = law.a * (0.7 + rand_core.sample_cts(increment, s2, size=10**4))
        np.testing.assert_allclose(x, y, rtol=1e-13, atol=0.0)
        assert s1.gen.random() == s2.gen.random()
        for k in (1, 2, 3, 4):
            want = law.a**k * cts_cumulants(increment, k) + (law.a * 0.7 if k == 1 else 0.0)
            assert law.cumulant(k, 0.7) == pytest.approx(want, rel=1e-13)
