"""Base sampler tests: determinism, exactness against analytic moments and
closed-form laws, equivalence of the CTS kernels (each called alone through
``_helpers.cts_kernel``), the n-fold tilting route, the bounded proposal
count of every route ``sample_cts`` takes, and the proposal cost of the
double-rejection route."""

import copy
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import erfc, gamma as gamma_fn

from _helpers import cts_kernel, two_array_segment_sums, z_score
from tsousim import cts_ou, ou_cts, rand_core
from tsousim._util import _theta, decay, segment_sums
from tsousim._util import gamma as tsousim_gamma
from tsousim.rand_core import (
    CtsParams,
    RngStream,
    TILTING_ACCEPTANCE_FLOOR,
    cts_tilting_acceptance,
    sample_cts,
    sample_inverse_gaussian,
    sample_poisson,
    sample_stable_subordinator,
)

# Median of the positive stable law with Laplace transform exp(-u^0.9),
# frozen from two independent oracles that agree to 13 digits:
# mpmath.invertlaplace of exp(-s^0.9)/s (Talbot) and the angular-integral
# representation of the CDF, each solved for the 0.5 quantile.
STABLE_09_MEDIAN = 0.8867701677171331


class TestUniform:
    def test_range_contract(self):
        u = RngStream(1).gen.random()
        assert 0.0 <= u < 1.0

    def test_determinism_same_address(self):
        a = RngStream(7, 3).gen.random(5)
        b = RngStream(7, 3).gen.random(5)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        assert not np.array_equal(
            RngStream(7, 0).gen.random(8), RngStream(7, 1).gen.random(8)
        )

    def test_distinct_streams_uncorrelated(self):
        # adjacent stream ids from one seed behave like independent streams
        n = 10**5
        base = RngStream(7, 0).gen.random(n)
        for sid in (1, 2, 3):
            other = RngStream(7, sid).gen.random(n)
            corr = np.corrcoef(base, other)[0, 1]
            assert abs(corr) < 4.0 / np.sqrt(n)

    def test_ks_against_uniform(self):
        n = 10**5
        u = RngStream(11, 0).gen.random(n)
        d = stats.kstest(u, "uniform").statistic
        assert d < 1.36 / np.sqrt(n) * 1.5

    @pytest.mark.parametrize("seed,stream_id", [(2**64, 0), (-1, 0), (0, 2**64), (0, -1)])
    def test_out_of_range_address_is_refused(self, seed, stream_id):
        # each would wrap onto the stream of its value mod 2^64
        with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize(
        "seed,stream_id", [(1.5, 0), (0, 2.5), (np.float64(3.0), 0), ("7", 0)]
    )
    def test_non_integer_address_is_refused(self, seed, stream_id):
        # int() would truncate 1.5 onto the stream of seed 1
        with pytest.raises(ValueError, match="integral"):
            RngStream(seed, stream_id)

    def test_largest_address_is_a_stream_of_its_own(self):
        top = 2**64 - 1
        assert not np.array_equal(
            RngStream(top, top).gen.random(8), RngStream(0, 0).gen.random(8)
        )


class TestGamma:
    def test_exponential_special_case(self):
        beta = 1.4
        x = sample_cts(CtsParams(0.0, beta, 1.0), RngStream(2, 1), size=10**6)
        assert abs(z_score(x, 1.0 / beta, 1)) < 4.0

    def test_boosted_shape_mean(self):
        x = sample_cts(CtsParams(0.0, 2.0, 0.5), RngStream(2, 2), size=10**6)
        assert abs(z_score(x, 0.25, 1)) < 4.0

    def test_boosted_shape_variance(self):
        x = sample_cts(CtsParams(0.0, 2.0, 0.5), RngStream(2, 3), size=10**6)
        assert abs(z_score(x, 0.125, 2)) < 4.0

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (1.0, -2.0), (-0.5, 1.0)])
    def test_parameter_domain(self, shape, rate):
        with pytest.raises(ValueError):
            CtsParams(0.0, rate, shape)


class TestPoisson:
    def test_zero_mean(self):
        assert np.all(sample_poisson(0.0, RngStream(3, 1), size=100) == 0)

    def test_mean_matches_step_law_rate(self):
        # rate of the compound part of a CTS-OU step at the reference params
        proc = cts_ou.CtsOuProcess(CtsParams(0.5, 1.4, 0.8), 10.0)
        lam = cts_ou.step_law(proc, 30.0 / 365.0).lambda_a
        n = sample_poisson(lam, RngStream(3, 2), size=10**6)
        assert abs(z_score(n.astype(float), lam, 1)) < 4.0

    def test_variance_100(self):
        n = sample_poisson(100.0, RngStream(3, 3), size=10**6)
        assert abs(z_score(n.astype(float), 100.0, 2)) < 4.0

    @pytest.mark.parametrize("mean", [-1.0, np.nan, np.inf])
    def test_negative_mean_rejected(self, mean):
        # numpy's Generator.poisson refuses the mean before it draws
        stream = RngStream(3, 4)
        with pytest.raises(ValueError):
            sample_poisson(mean, stream)
        assert stream.gen.random(16).tobytes() == RngStream(3, 4).gen.random(16).tobytes()


def scattered_segment_sums(values, counts):
    """``segment_sums`` over the nonempty groups, as ``StepLaw.increments``
    calls it, with 0 for each empty group."""
    occupied = np.flatnonzero(counts)
    out = np.zeros(counts.size)
    out[occupied] = segment_sums(values, np.cumsum(counts[occupied]))
    return out


class TestSegmentSums:
    """``segment_sums`` equals the two-array reference bit for bit."""

    @pytest.mark.parametrize(
        "counts",
        [[0, 0, 3, 1, 2], [2, 1, 0, 0], [1, 0, 0, 4, 0, 2], [0, 0, 0], [5], [0], []],
        ids=["leading-empty", "trailing-empty", "inner-empty", "all-empty", "one-group",
             "one-empty-group", "no-groups"],
    )
    def test_small_layouts(self, counts):
        counts = np.array(counts, dtype=np.int64)
        values = RngStream(8, 1).gen.standard_normal(int(counts.sum()))
        want = two_array_segment_sums(values, counts)
        assert scattered_segment_sums(values.copy(), counts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("rate", [0.046, 14.0])
    def test_poisson_counts(self, rate):
        stream = RngStream(8, 2)
        counts = sample_poisson(rate, stream, size=1 << 16)
        values = stream.gen.standard_normal(int(counts.sum()))
        want = two_array_segment_sums(values, counts)
        assert scattered_segment_sums(values.copy(), counts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [4, 6])
    def test_size_mismatch_rejected(self, size):
        with pytest.raises(ValueError, match=r"ends\[-1\] == values.size"):
            segment_sums(np.ones(size), np.array([2, 5]))


class TestStableSubordinator:
    def test_levy_half_closed_form_cdf(self):
        # alpha = 1/2 is the Levy(1/2) law with CDF erfc(1/(2 sqrt(x)))
        s = sample_stable_subordinator(0.5, RngStream(4, 1), size=10**5)
        p = stats.kstest(s, lambda x: erfc(1.0 / (2.0 * np.sqrt(x)))).pvalue
        assert p > 0.05

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_laplace_transform_identity(self, alpha):
        s = sample_stable_subordinator(alpha, RngStream(4, 2), size=10**6)
        assert abs(z_score(np.exp(-s), np.exp(-1.0), 1)) < 4.0

    def test_median_alpha_09(self):
        s = sample_stable_subordinator(0.9, RngStream(4, 3), size=2 * 10**5)
        assert abs(np.median(s) / STABLE_09_MEDIAN - 1.0) < 0.02

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_parameter_domain(self, alpha):
        with pytest.raises(ValueError):
            sample_stable_subordinator(alpha, RngStream(4, 4))


class TestCts:
    def test_alpha0_is_gamma(self):
        p = CtsParams(0.0, 1.4, 0.8)
        x = sample_cts(p, RngStream(5, 1), size=10**6)
        for k in (1, 2):
            truth = p.c * gamma_fn(float(k)) / p.beta**k
            assert abs(z_score(x, truth, k)) < 4.0

    def test_mean_alpha_half(self):
        p = CtsParams(0.5, 1.4, 0.8)
        truth = p.c * p.beta ** (p.alpha - 1.0) * gamma_fn(1.0 - p.alpha)
        assert truth == pytest.approx(1.1984, abs=2e-4)
        x = sample_cts(p, RngStream(5, 2), size=10**6)
        assert abs(z_score(x, truth, 1)) < 4.0

    def test_alpha_half_matches_inverse_gaussian(self):
        # CTS(1/2, beta, c) = IG(mu, lam) with mu = c sqrt(pi/beta), lam = 2 pi c^2
        beta, c = 1.4, 0.8
        x = sample_cts(CtsParams(0.5, beta, c), RngStream(5, 3), size=10**5)
        y = sample_inverse_gaussian(
            c * np.sqrt(np.pi / beta), 2.0 * np.pi * c**2, RngStream(5, 4), size=10**5
        )
        assert stats.ks_2samp(x, y).pvalue > 0.05

    @pytest.mark.parametrize(
        "params",
        [CtsParams(0.7, 1.4, 0.5), CtsParams(0.4, 1.0, 0.8)],
    )
    def test_tilting_matches_double_rejection(self, params):
        # overlapping range: tilting still terminates, double rejection active
        assert 0.02 < cts_tilting_acceptance(params) < 0.1
        a = cts_kernel(params, RngStream(5, 5), 10**5, "tilting")
        b = cts_kernel(params, RngStream(5, 6), 10**5, "double-rejection")
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_double_rejection_moments(self):
        p = CtsParams(0.9, 1.4, 0.8)  # tilting acceptance ~1e-5: double rejection
        x = sample_cts(p, RngStream(5, 7), size=2 * 10**5)
        for k in (1, 2):
            truth = p.c * p.beta ** (p.alpha - k) * gamma_fn(k - p.alpha)
            assert abs(z_score(x, truth, k)) < 4.0

    @pytest.mark.parametrize(
        "alpha,beta,c",
        [(1.0, 1.4, 0.8), (-0.1, 1.4, 0.8), (0.5, 0.0, 0.8), (0.5, np.inf, 0.8),
         (0.5, np.nan, 0.8), (0.5, 1.4, 0.0), (0.5, 1.4, np.inf), (0.5, 1.4, np.nan)],
    )
    def test_parameter_domain(self, alpha, beta, c):
        with pytest.raises(ValueError):
            CtsParams(alpha, beta, c)

    def test_overflowing_scale_rejected(self, monkeypatch):
        # sigma = (c Gamma(1-alpha)/alpha)^(1/alpha) is inf: no proposal could be
        # accepted; a small round cap makes a missing check fail fast, not spin
        monkeypatch.setattr(rand_core, "_MAX_REJECTION_ROUNDS", 10)
        with pytest.raises(ValueError, match=r"alpha = 0\.002, c = 0\.8"):
            sample_cts(CtsParams(0.002, 1.4, 0.8), RngStream(5, 10), size=4)

    @staticmethod
    def tilted(alpha, share):
        # CtsParams whose gamma = lam^alpha alpha (1-alpha) is ``share`` of
        # alpha^2 2^106, above which 1 + alpha/sqrt(gamma) rounds to 1
        c = 0.8
        sigma = (c * gamma_fn(1.0 - alpha) / alpha) ** (1.0 / alpha)
        lam = (share * alpha**2 * 2.0**106 / (alpha * (1.0 - alpha))) ** (1.0 / alpha)
        return CtsParams(alpha, lam / sigma, c)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_heaviest_tilt_below_the_bound_draws(self, alpha):
        p = self.tilted(alpha, 0.9)
        x = sample_cts(p, RngStream(5, 11), size=2000)
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)
        # the law is concentrated at its mean: k2 / k1^2 is below 1e-32
        assert x.mean() == pytest.approx(rand_core.cts_cumulants(p, 1), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_tilt_above_the_bound_is_refused_before_any_draw(self, alpha, monkeypatch):
        # double rejection would return exact zeros; tilting would spin
        monkeypatch.setattr(rand_core, "_MAX_REJECTION_ROUNDS", 10)
        stream = RngStream(5, 12)
        with pytest.raises(ValueError, match="too heavy for double rejection"):
            sample_cts(self.tilted(alpha, 1.1), stream, size=4)
        assert stream.gen.random(4).tobytes() == RngStream(5, 12).gen.random(4).tobytes()

    def test_infinite_tilt_is_refused(self, monkeypatch):
        # sigma is finite (about 1e300) but beta*sigma overflows to inf
        monkeypatch.setattr(rand_core, "_MAX_REJECTION_ROUNDS", 10)
        with pytest.raises(ValueError, match=r"beta\*sigma = inf"):
            sample_cts(CtsParams(0.016, 1e10, 1e3), RngStream(5, 13), size=4)


def numpy_scalar_cts_scale(params):
    """``rand_core._cts_scale`` as it was written with numpy scalars under
    ``np.errstate``, the referee of its Python-float form: sigma, or the
    start of the refusal's message."""
    a, b, c = params.alpha, params.beta, params.c
    with np.errstate(over="ignore"):
        sigma = (c * tsousim_gamma(1.0 - a) / a) ** (1.0 / a)
        lam = b * sigma
    gamma_ = lam**a * a * (1.0 - a)
    if math.isinf(sigma):
        return "CTS scale"
    if gamma_ > 0.0 and 1.0 + a / math.sqrt(gamma_) == 1.0:
        return "CTS tilt"
    return sigma


def _scale_laws():
    # a fixed grid, the refusals' neighbourhoods (TestCts's laws) and 2000
    # laws drawn log-uniformly in beta and c
    laws = [CtsParams(a, b, c) for a in (0.002, 0.016, 0.035, 0.05, 0.3, 0.5, 0.9, 0.999)
            for b in (1e-3, 1.4, 1e10, 1e100) for c in (1e-12, 0.8, 1e3, 1e100)]
    laws += [TestCts.tilted(a, share) for a in (0.3, 0.5, 0.9) for share in (0.9, 1.1)]
    laws += [CtsParams(0.002, 1.4, 0.8), CtsParams(0.016, 1e10, 1e3)]
    rng = np.random.default_rng(2030)
    laws += [CtsParams(a, 10.0**lb, 10.0**lc) for a, lb, lc in zip(
        rng.uniform(0.001, 0.999, 2000), rng.uniform(-3, 100, 2000), rng.uniform(-12, 100, 2000))]
    return laws


class TestCtsScaleReferee:
    def test_same_sigma_and_same_refusals_as_numpy_scalars(self):
        kinds = set()
        for params in _scale_laws():
            want = numpy_scalar_cts_scale(params)
            if isinstance(want, str):
                kinds.add(want)
                with pytest.raises(ValueError, match=f"^{want} "):
                    rand_core._cts_scale(params)
            else:
                assert np.float64(rand_core._cts_scale(params)).tobytes() == want.tobytes()
        assert kinds == {"CTS scale", "CTS tilt"}  # both refusals are refereed

    def test_refusals_leave_the_stream_untouched(self, monkeypatch):
        monkeypatch.setattr(rand_core, "_MAX_REJECTION_ROUNDS", 10)
        refused = [p for p in _scale_laws() if isinstance(numpy_scalar_cts_scale(p), str)]
        assert len(refused) >= 10
        for i, params in enumerate(refused):
            stream = RngStream(5, 100 + i)
            with pytest.raises(ValueError, match="^CTS "):
                sample_cts(params, stream, size=4)
            assert stream.gen.random(4).tobytes() == RngStream(5, 100 + i).gen.random(4).tobytes()

    @pytest.mark.parametrize("params", [CtsParams(0.002, 1.4, 0.8), TestCts.tilted(0.5, 1.1)],
                             ids=["scale-overflow", "tilt-too-heavy"])
    def test_a_refused_law_raises_on_every_use(self, params):
        for _ in range(3):
            for name in ("_sigma", "_summands"):
                with pytest.raises(ValueError, match="^CTS "):
                    getattr(params, name)
        assert "_sigma" not in vars(params) and "_summands" not in vars(params)


class TestOneMinusPow:
    """1 - a^alpha is -expm1(-theta), theta = _util._theta(a, alpha), wherever
    a step law or the remainder split forms it."""

    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.5, 0.999])
    def test_an_underflowed_scale_gives_one_without_a_warning(self, alpha):
        # b*dt = 800: a = exp(-800) underflows to 0, so the step law is the
        # stationary one (alpha > 0) or gamma-OU's, and never forms 1 - a^alpha
        p = cts_ou.CtsOuProcess(CtsParams(alpha, 1.4, 0.8), 800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = cts_ou.step_law(p, 1.0)
        if alpha > 0.0:
            assert law == rand_core.StepLaw(0.0, p.stationary, 0.0)
        else:
            assert law == cts_ou.CtsOuStepLaw(0.0, None, 0.8 * 800.0, 1.4, 800.0)

    def test_same_bits_as_expm1_of_alpha_log_a(self):
        rng = np.random.default_rng(2031)
        for a, alpha in zip(np.exp(-rng.exponential(30.0, 5000)), rng.uniform(0.0, 1.0, 5000)):
            want = -np.expm1(alpha * np.log(a))
            assert (-np.expm1(-_theta(float(a), float(alpha)))).tobytes() == want.tobytes()


def law_at(alpha, p, beta=1.4):
    """CtsParams(alpha, beta, c) whose tilting acceptance is p."""
    return CtsParams(alpha, beta, -np.log(p) * alpha / (gamma_fn(1.0 - alpha) * beta**alpha))


def laplace(params, u):
    """E exp(-u X) = exp(c Gamma(-alpha) ((beta + u)^alpha - beta^alpha))."""
    a, b, c = params.alpha, params.beta, params.c
    return np.exp(c * gamma_fn(-a) * ((b + u) ** a - b**a))


def laplace_z(x, params):
    """z-scores of the sample mean of exp(-u x) at u in {0.1, 0.5, 1, 2, 5}/k1,
    each divided by its exact SE sqrt((L(2u) - L(u)^2) / n)."""
    u = np.array([0.1, 0.5, 1.0, 2.0, 5.0]) / rand_core.cts_cumulants(params, 1)
    mean = np.exp(-np.outer(u, x)).mean(axis=1)
    truth = laplace(params, u)
    return (mean - truth) / np.sqrt((laplace(params, 2.0 * u) - truth**2) / x.size)


MODERATE = [(alpha, p) for p in (0.2, 0.1, 0.05) for alpha in (0.3, 0.5, 0.9)]


class TestNFoldTilting:
    """``sample_cts`` on moderate tilts, p = acceptance in
    [0.05, 0.223), draws n = round(-ln p) tilted summands: n = 2 at p 0.2 and
    0.1, n = 3 at p 0.05.  The referees run at seeds fixed before their
    first run, and each law is checked by two tests:

    * the closed-form Laplace transform at five u, z-scored with the exact
      variance of exp(-uX); 45 |z| < 4 gates, a family-wise false-alarm
      rate of at most 45 x 6.3e-5 = 0.3% (Bonferroni).  Measured on 10^5
      draws a law (numpy 2.4.6): over 10 other seeds the largest |z| of any
      law was 2.97; summands at the full scale sigma gave a largest |z| of
      279-3032, and draws of the law with c 2% high 7.6-47;
    * a two-sample KS test against the double-rejection kernel alone
      (``cts_kernel``) at p > 0.01, a family-wise false-alarm rate of at
      most 9%, fixed by the seeds.
    """

    @pytest.mark.parametrize(
        "p,n",
        [(0.99, 1), (0.25, 1), (np.exp(-1.49), 1), (np.exp(-1.51), 2), (0.2, 2), (0.1, 2),
         (0.06, 3), (0.05, 3)],
    )
    def test_summand_count(self, p, n, monkeypatch):
        calls = []
        tilting = rand_core._cts_tilting

        def spy(alpha, beta, sigma, stream, size):
            calls.append(sigma)
            return tilting(alpha, beta, sigma, stream, size)

        monkeypatch.setattr(rand_core, "_cts_tilting", spy)
        params = law_at(0.5, p)
        sample_cts(params, RngStream(5, 14), size=4)
        assert params._summands == n
        assert calls == [params._sigma * n ** -2.0] * n  # sigma n^(-1/alpha)

    @pytest.mark.parametrize("p", [0.0499, 0.01])
    def test_below_the_floor_is_double_rejection(self, p, monkeypatch):
        monkeypatch.setattr(rand_core, "_cts_tilting", None)  # any tilting call fails
        params = law_at(0.5, p)
        x = sample_cts(params, RngStream(5, 15), size=4)
        assert np.all(x > 0.0) and params._summands == 0

    @pytest.mark.parametrize("alpha,p", MODERATE)
    def test_laplace_transform(self, alpha, p):
        params = law_at(alpha, p)
        x = sample_cts(params, RngStream(31, MODERATE.index((alpha, p))), size=10**5)
        assert np.abs(laplace_z(x, params)).max() < 4.0

    @pytest.mark.parametrize("alpha,p", MODERATE)
    def test_matches_double_rejection(self, alpha, p):
        params = law_at(alpha, p)
        i = MODERATE.index((alpha, p))
        x = sample_cts(params, RngStream(32, i), size=5 * 10**4)
        y = cts_kernel(params, RngStream(33, i), 5 * 10**4, "double-rejection")
        assert stats.ks_2samp(x, y).pvalue > 0.01

    @pytest.mark.parametrize("p", [0.9, 0.5, 0.25])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_one_summand_is_the_tilting_kernel_bit_for_bit(self, alpha, p):
        params = law_at(alpha, p)
        assert params._summands == 1
        s1, s2 = RngStream(34, 1), RngStream(34, 1)
        x = sample_cts(params, s1, size=1000)
        y = cts_kernel(params, s2, 1000, "tilting")
        assert x.tobytes() == y.tobytes()
        assert s1.gen.random(4).tobytes() == s2.gen.random(4).tobytes()

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_every_automatic_route_bounds_its_proposals(self, alpha):
        # no proposal cap is needed: from the floor up to p = 1 the route
        # draws n in {1, 2, 3} summands at n p^(-1/n) <= 8.2 expected
        # proposals a draw; below the floor it is double rejection, whose
        # cost TestDoubleRejectionEfficiency bounds uniformly in the tilt
        for p in np.geomspace(TILTING_ACCEPTANCE_FLOOR, 0.999, 400):
            params = law_at(alpha, p)
            p, n = cts_tilting_acceptance(params), params._summands
            if p >= TILTING_ACCEPTANCE_FLOOR:
                assert n in (1, 2, 3) and n * p ** (-1.0 / n) <= 8.2
            else:
                assert n == 0
        for p in np.geomspace(1e-300, TILTING_ACCEPTANCE_FLOOR, 400, endpoint=False):
            assert law_at(alpha, p)._summands == 0


class TestSinc:
    @pytest.mark.parametrize(
        "x",
        [1e-3, -1e-3, np.nextafter(6e-3, 0.0), 6e-3, np.nextafter(6e-3, 1.0), -6e-3, 0.5],
    )
    def test_series_and_direct_branches_agree_with_sin_over_x(self, x):
        # below |x| = 6e-3 the series is used, from 6e-3 on the passed sine
        got = rand_core._sinc(np.array([x]), np.sin(np.array([x])))[0]
        assert got == pytest.approx(np.sin(x) / x, rel=1e-15, abs=0.0)

    def test_zero(self):
        assert rand_core._sinc(np.zeros(1), np.zeros(1))[0] == 1.0


class TestDoubleRejectionEfficiency:
    """Proposals per accepted draw of Devroye's double rejection, counted by
    ``_rejection_loop``, on 2e4 draws of the tilted stable law per cell.

    Measured (numpy 2.4.6), with gamma = lam^alpha * alpha * (1 - alpha):

        alpha  lam=0.1  1     10    1e2   1e3   1e4
        0.3    4.34     5.42  6.57  7.39  3.21  2.23
        0.5    3.95     5.63  7.19  2.56  1.99  1.92
        0.7    3.21     5.38  4.06  2.04  1.92  1.88
        0.9    2.17     4.17  7.23  2.00  1.88  1.84

    The cost peaks where gamma approaches 1 from below (gamma 0.84, 0.79
    and 0.72 in the three cells above 7) and falls to about 1.9 once gamma
    is large.  Devroye bounds the expected number of iterations uniformly
    in lam, so the test asserts at most 8 everywhere (8% above the
    measured peak) and at most 2.5 at lam = 1e4 (12% above the measured
    2.23).  The relative standard error of each ratio is below 0.7%.

    What it detects: a wrong envelope constant or mixture weight, or a
    stage-2 fault that rejects good candidates, once the extra work
    exceeds 8% in the peak cell, 12% at lam = 1e4, or the headroom of
    the flat bound elsewhere (up to 3.7x in the cheapest cell).  A fault
    that accepts too much lowers the count; the moment tests and the
    golden hashes are left to catch it.
    """

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0, 1e2, 1e3, 1e4])
    def test_proposals_per_draw_bounded_in_tilt(self, alpha, lam, monkeypatch):
        counts = []
        loop = rand_core._rejection_loop

        def counting(propose, n, what):
            out, proposals = loop(propose, n, what)
            counts.append(proposals)
            return out, proposals

        monkeypatch.setattr(rand_core, "_rejection_loop", counting)
        n = 2 * 10**4
        stream = RngStream(12, int(round(10 * alpha)))
        rand_core._tilted_stable_double_rejection(alpha, lam, stream, n)
        assert counts[0] / n <= (2.5 if lam == 1e4 else 8.0)


class TestRejectionLoop:
    def test_counts_every_proposal(self):
        # accepts the first half (rounded up) of each round: 8 + 4 + 2 + 1
        def propose(m):
            return np.full(m, float(m)), np.arange(m) < (m + 1) // 2

        draws, proposals = rand_core._rejection_loop(propose, 8, "halving")
        assert proposals == 15
        assert sorted(draws) == [1.0, 2.0, 4.0, 4.0, 8.0, 8.0, 8.0, 8.0]

    def test_no_slots_propose_nothing(self):
        stream, before = RngStream(5, 3), RngStream(5, 3)
        sizes = []

        def propose(m):
            sizes.append(m)
            return stream.gen.random(m), np.ones(m, dtype=bool)

        draws, proposals = rand_core._rejection_loop(propose, 0, "empty")
        assert draws.shape == (0,) and proposals == 0 and sizes == []
        assert stream.gen.random() == before.gen.random()

    @pytest.mark.parametrize("n", [1, 5, (1 << 16) + 3])
    def test_accepting_everything_takes_one_round(self, n):
        # the first round's candidates are returned as they are, with n proposals
        rounds = []

        def propose(m):
            rounds.append((m, np.arange(m, dtype=float)))
            return rounds[-1][1], np.ones(m, dtype=bool)

        draws, proposals = rand_core._rejection_loop(propose, n, "accept-all")
        assert [m for m, _ in rounds] == [n] and proposals == n
        assert draws is rounds[0][1]
        assert draws.tolist() == list(range(n))

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(rand_core, "_MAX_REJECTION_ROUNDS", 3)

        def never(m):
            return np.zeros(m), np.zeros(m, dtype=bool)

        with pytest.raises(RuntimeError, match="did not terminate"):
            rand_core._rejection_loop(never, 4, "never-accepting proposal")
        # tilting acceptance ~1e-5: four rounds of four proposals accept nothing
        with pytest.raises(RuntimeError, match="tilting rejection"):
            cts_kernel(CtsParams(0.9, 1.4, 0.8), RngStream(5, 9), 4, "tilting")


class TestInverseGaussian:
    def test_mean(self):
        x = sample_inverse_gaussian(0.7, 1.3, RngStream(6, 1), size=10**6)
        assert abs(z_score(x, 0.7, 1)) < 4.0

    def test_variance(self):
        x = sample_inverse_gaussian(0.7, 1.3, RngStream(6, 2), size=10**6)
        assert abs(z_score(x, 0.7**3 / 1.3, 2)) < 4.0

    def test_concentration_limit(self):
        mu = 0.7
        x = sample_inverse_gaussian(mu, 1e6 * mu, RngStream(6, 3), size=10**4)
        assert x.std() < 0.01 * mu

    @pytest.mark.parametrize(
        "mu,lam",
        [(-1.0, 1.0), (np.inf, 1.0), (np.nan, 1.0), (1.0, 0.0), (1.0, np.inf), (1.0, np.nan)],
    )
    def test_parameter_domain(self, mu, lam):
        # an infinite mean or shape returned NaN draws with a RuntimeWarning
        stream = RngStream(6, 4)
        with pytest.raises(ValueError, match="positive and finite"):
            sample_inverse_gaussian(mu, lam, stream, 3)
        assert stream.gen.random(4).tobytes() == RngStream(6, 4).gen.random(4).tobytes()

    def test_small_shape_draws_are_positive_and_silent(self):
        # mu y / lambda up to about 5e10: the smaller root written as a
        # difference cancelled to zero or below on four draws in ten
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = sample_inverse_gaussian(1.0, 1e-9, RngStream(1, 0), 10**6)
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)


class TestReproducibility:
    def test_cloned_stream_identical_for_every_sampler(self):
        base = RngStream(9, 2)
        base.gen.random(17)  # advance the counter away from the origin
        draws = []
        for _ in range(2):
            s = copy.deepcopy(base)
            draws.append(
                (
                    s.gen.random(3),
                    sample_cts(CtsParams(0.0, 2.0, 0.5), s, size=3),
                    sample_poisson(4.0, s, size=3),
                    sample_stable_subordinator(0.7, s, size=3),
                    sample_cts(CtsParams(0.5, 1.4, 0.8), s, size=3),
                    sample_inverse_gaussian(0.7, 1.3, s, size=3),
                )
            )
        for a, b in zip(*draws):
            assert np.array_equal(a, b)

    def test_first_two_moments_all_base_laws(self):
        # one batch-SE gate per sampler with finite first two moments
        n = 10**6
        cases = [
            (RngStream(10, 1).gen.random(n), 0.5, 1.0 / 12.0),
            (sample_cts(CtsParams(0.0, 3.0, 2.0), RngStream(10, 2), size=n), 2 / 3, 2 / 9),
            (
                sample_poisson(7.0, RngStream(10, 3), size=n).astype(float),
                7.0,
                7.0,
            ),
            (
                sample_cts(CtsParams(0.3, 1.4, 0.8), RngStream(10, 4), size=n),
                0.8 * 1.4 ** (0.3 - 1) * gamma_fn(0.7),
                0.8 * 1.4 ** (0.3 - 2) * gamma_fn(1.7),
            ),
            (
                sample_inverse_gaussian(0.5, 2.0, RngStream(10, 5), size=n),
                0.5,
                0.5**3 / 2.0,
            ),
        ]
        for x, m1, m2 in cases:
            assert abs(z_score(x, m1, 1)) < 4.0
            assert abs(z_score(x, m2, 2)) < 4.0


_CTSOU = cts_ou.CtsOuProcess(CtsParams(0.5, 1.4, 0.8), 10.0)
_OUCTS = ou_cts.OuCtsProcess(CtsParams(0.9, 1.4, 0.8), 10.0)
STEP_LAWS = {
    "ctsou-alpha0.5": cts_ou.step_law(_CTSOU, 30.0 / 365.0),
    "ctsou-alpha0": cts_ou.step_law(cts_ou.CtsOuProcess(CtsParams(0.0, 1.4, 0.8), 10.0), 0.1),
    "oucts-alpha0.9": ou_cts.step_law_oucts(_OUCTS, 0.3),
    "x1-only": ou_cts.x1_only_law(_OUCTS, 0.3),
}


class TestStepLawRefusals:
    @pytest.mark.parametrize("a", [1.0, -0.1, np.nan])
    def test_scale_outside_unit_interval(self, a):
        with pytest.raises(ValueError, match=r"scale a must be in \[0, 1\), got"):
            rand_core.StepLaw(a, None, 0.0)

    @pytest.mark.parametrize("lambda_a", [-1.0, np.nan])
    def test_negative_or_nan_jump_rate(self, lambda_a):
        with pytest.raises(ValueError, match="jump rate must be nonnegative, got"):
            rand_core.StepLaw(0.5, None, lambda_a)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan])
    def test_decay_needs_a_positive_step(self, dt):
        with pytest.raises(ValueError, match="dt must be positive, got"):
            decay(10.0, dt)


class TestPathDriver:
    @pytest.mark.parametrize("name", list(STEP_LAWS))
    @pytest.mark.parametrize("x0", [0.0, 0.7, np.linspace(0.1, 2.0, 64)], ids=["0", "0.7", "array"])
    def test_sample_is_the_decayed_start_plus_one_increment(self, name, x0):
        # the same variates in the same rounding: a*x0 + (CTS part + jumps)
        law = STEP_LAWS[name]
        base = RngStream(11, 4)
        base.gen.random(5)
        got = law.sample(x0, copy.deepcopy(base), 64)
        want = law.a * np.asarray(x0) + law.increments(copy.deepcopy(base), 64)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "skeleton, process",
        [(cts_ou.simulate_skeleton_ctsou, _CTSOU), (ou_cts.simulate_skeleton_oucts, _OUCTS)],
        ids=["cts-ou", "ou-cts"],
    )
    @pytest.mark.parametrize(
        "x0, match",
        [(np.nan, "x0 must be finite"), (np.array([0.0, np.inf, 1.0]), "x0 must be finite"),
         (np.zeros(2), "does not match size")],
        ids=["nan", "inf-in-array", "wrong-shape"],
    )
    def test_skeleton_refuses_a_bad_start_before_any_draw(self, skeleton, process, x0, match):
        stream = RngStream(11, 5)
        with pytest.raises(ValueError, match=match):
            skeleton(process, x0, [0.1, 0.3], stream, 3)
        assert stream.gen.random(8).tobytes() == RngStream(11, 5).gen.random(8).tobytes()

    def test_runs_are_drawn_in_calls_of_at_most_max_draws(self):
        # 7 steps of 10 paths with max_draws 30: calls of 3, 3 and 1 steps,
        # then 2 steps of a second law in one call
        calls = []
        law, other = STEP_LAWS["ctsou-alpha0.5"], STEP_LAWS["x1-only"]

        class Spy:
            def __init__(self, inner):
                self.a = inner.a
                self.inner = inner

            def increments(self, stream, size):
                calls.append(size)
                return self.inner.increments(stream, size)

        states = list(
            rand_core.path_states([(Spy(law), 7), (Spy(other), 2)], 0.5, RngStream(11, 6), 10, 30)
        )
        assert calls == [30, 30, 10, 20]
        assert len(states) == 9 and all(x.shape == (10,) for x in states)
