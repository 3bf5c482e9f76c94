"""Harness tests: cumulant estimation, experiment tables, trajectory export,
worker-count invariance and the validation report."""

import sys
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from _helpers import force_single_chord
from tsousim import cts_ou, harness, levy_core, ou_cts
from tsousim.harness import (
    ExperimentConfig,
    estimate_cumulants,
    export_trajectories,
    run_experiment,
    simulate_terminal,
    validate_suite,
)
from tsousim.rand_core import CtsParams, RngStream, StepLaw, cts_cumulants

REF = dict(beta=1.4, c=0.8, b=10.0)


def make_cfg(**kw):
    base = dict(
        process="cts-ou",
        alpha=0.5,
        dt=1.0 / 365.0,
        paths=1000,
        seed=501,
        batches=10,
        **REF,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def terminal(cfg: ExperimentConfig) -> np.ndarray:
    """Terminal values of cfg, stepped by the law its validate() returns."""
    return simulate_terminal(cfg, cfg.validate())


class TestEstimateCumulants:
    def test_constant_vector(self):
        cv = estimate_cumulants(np.full(1000, 3.25), 10)
        assert (cv.k1, cv.k2, cv.k3, cv.k4) == (3.25, 0.0, 0.0, 0.0)
        assert all(cv.se(k) == 0.0 for k in (1, 2, 3, 4))

    def test_exponential_cumulants(self):
        x = RngStream(502).gen.standard_exponential(10**6)
        cv = estimate_cumulants(x, 100)
        for k, truth in zip((1, 2, 3, 4), (1.0, 1.0, 2.0, 6.0)):
            assert abs(cv.k(k) - truth) < 4.0 * cv.se(k)

    def test_matches_power_sum_formulas(self):
        # same plug-in estimator written via raw power sums
        x = RngStream(503).gen.standard_normal(1000)
        cv = estimate_cumulants(x, 10)
        n = x.size
        s1, s2, s3, s4 = (np.sum(x**k) / n for k in (1, 2, 3, 4))
        m2 = s2 - s1**2
        m3 = s3 - 3 * s2 * s1 + 2 * s1**3
        m4 = s4 - 4 * s3 * s1 + 6 * s2 * s1**2 - 3 * s1**4
        assert cv.k1 == pytest.approx(s1, abs=1e-12)
        assert cv.k2 == pytest.approx(m2, abs=1e-12)
        assert cv.k3 == pytest.approx(m3, abs=1e-12)
        assert cv.k4 == pytest.approx(m4 - 3 * m2**2, abs=1e-12)

    def test_read_only_input_left_unchanged(self):
        x = RngStream(505).gen.standard_normal(1000)
        x.setflags(write=False)
        before = x.copy()
        estimate_cumulants(x, 10)
        assert np.array_equal(x, before)

    def test_matches_pow_reference_on_shifted_sample(self):
        # shifted so most raw values are negative and the centred values
        # take both signs; the reference forms the moments with d**k
        x = RngStream(506).gen.standard_exponential(10**5) - 3.0
        cv = estimate_cumulants(x, 10)

        def reference(y, axis=None):
            m = np.mean(y, axis=axis, keepdims=axis is not None)
            d = y - m
            m2, m3, m4 = (np.mean(d**k, axis=axis) for k in (2, 3, 4))
            return np.squeeze(m), m2, m3, m4 - 3.0 * m2 * m2

        full = reference(x)
        ses = [np.std(col, ddof=1) / np.sqrt(10) for col in reference(x.reshape(10, -1), axis=1)]
        for k in (1, 2, 3, 4):
            assert cv.k(k) == pytest.approx(full[k - 1], rel=1e-13)
            assert cv.se(k) == pytest.approx(ses[k - 1], rel=1e-13)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_cumulants(np.ones(100), 1)
        with pytest.raises(ValueError):
            estimate_cumulants(np.ones(5), 10)

    @pytest.mark.parametrize("values", [
        {3: np.nan}, {3: np.inf}, {3: -np.inf}, {3: np.inf, 700: -np.inf},
        {1004: np.nan}, {1006: -np.inf},  # in the tail that batching truncates away
    ], ids=["nan", "inf", "-inf", "both-infs", "nan-in-tail", "-inf-in-tail"])
    def test_non_finite_sample_is_refused_without_a_warning(self, values):
        x = RngStream(508).gen.standard_normal(1007)
        for i, v in values.items():
            x[i] = v
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="must be finite"):
                estimate_cumulants(x, 10)
        assert caught == []

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_sample_whose_sum_overflows_is_refused(self, sign):
        x = np.full(1000, sign * 1e308)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="finite sum"):
                estimate_cumulants(x, 10)
        assert caught == []

    @pytest.mark.parametrize("x", [
        np.tile([1e100, -1e100], 500),  # mean 0, but d**4 overflows
        RngStream(509).gen.standard_normal(1000) * 1e60,  # k4 fits, the spread of k4 does not
    ], ids=["moment", "batch-se"])
    def test_sample_whose_central_moments_overflow_is_refused(self, x):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="overflow; rescale"):
                estimate_cumulants(x, 10)
        assert caught == []

    @pytest.mark.parametrize("batches", [10.0, "10", None])
    def test_non_integer_batches_rejected(self, batches):
        with pytest.raises(ValueError, match="batches must be an integer"):
            estimate_cumulants(np.ones(100), batches)

    def test_numpy_integer_batches_accepted(self):
        x = RngStream(507).gen.standard_normal(1000)
        assert estimate_cumulants(x, np.int64(10)) == estimate_cumulants(x, 10)


def _pairwise_reference(x):
    """``np.add.reduce`` of a contiguous 1-D run, written as numpy's
    pairwise summation tree: a run longer than 8192 values splits at
    h = n//2 - (n//2) % 8 and its two halves are summed in turn; a shorter
    run is reduced whole."""
    n = x.size
    if n <= 8192:
        return np.add.reduce(x)
    h = n // 2
    h -= h % 8
    return _pairwise_reference(x[:h]) + _pairwise_reference(x[h:])


# run lengths on both sides of numpy's 8-way unrolled block (8), its
# pairwise cut-off (128) and the 8192-value leaves of the reference
TREE_SIZES = [1, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 16385, 10**5 + 3, 2**18 + 37, 10**6]


class TestSummationTree:
    """The estimator's moment sums are bit-equal to ``np.mean`` only while
    numpy sums in the pairwise tree above; a numpy whose tree differs
    fails here by name."""

    @staticmethod
    def _values(n, seed=0):
        gen = RngStream(530, seed).gen
        # magnitudes over six decades, so a different summation order
        # changes the last bits of the sum
        return gen.standard_normal(n) * np.exp(3.0 * gen.standard_normal(n))

    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_reference_matches_add_reduce(self, n):
        x = self._values(n)
        assert _pairwise_reference(x) == np.add.reduce(x)

    def test_reference_matches_2d_reduce_over_all_axes(self):
        r = self._values(7 * 37449, 1).reshape(7, 37449)
        assert _pairwise_reference(r.ravel()) == np.add.reduce(r, axis=None)
        assert np.mean(r) == _pairwise_reference(r.ravel()) / r.size

    def test_row_means_are_per_row_reduces(self):
        r = self._values(7 * 37449, 2).reshape(7, 37449)
        rows = [np.add.reduce(row) / r.shape[1] for row in r]
        assert np.array_equal(np.mean(r, axis=1), rows)
        assert np.array_equal(np.mean(r, axis=1), [_pairwise_reference(row) / r.shape[1] for row in r])

    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_power_sums_match_add_reduce(self, n):
        x = self._values(n, 3)
        centre = np.mean(x)
        d = x - centre
        sums = harness._power_sums(x, centre, np.empty((2, min(8192, n))))
        expected = [np.add.reduce(d * d), np.add.reduce((d * d) * d), np.add.reduce((d * d) * (d * d))]
        assert [float(s).hex() for s in sums] == [float(s).hex() for s in expected]

    @pytest.mark.parametrize(
        "n,batches", [(4000, 20), (27, 13), (8192 * 5, 5), (8191 * 4 + 3, 4), (8193 * 3, 3)]
    )
    def test_batch_estimates_are_per_row_reduces(self, n, batches):
        # rows of at most 8192 values are reduced in blocks of whole rows;
        # each row's moments must still be np.add.reduce over that row
        x = self._values(n, 4)
        per = n // batches
        cols = []
        for row in x[: per * batches].reshape(batches, per):
            m = np.mean(row)
            d = row - m
            m2 = np.add.reduce(d * d) / per
            m3 = np.add.reduce((d * d) * d) / per
            m4 = np.add.reduce((d * d) * (d * d)) / per
            cols.append((m, m2, m3, m4 - 3.0 * m2 * m2))
        want = [float(np.std(c, ddof=1) / np.sqrt(batches)).hex() for c in zip(*cols)]
        cv = estimate_cumulants(x, batches)
        assert [float(cv.se(k)).hex() for k in (1, 2, 3, 4)] == want


class TestRunExperiment:
    def test_smoke_small(self):
        table = run_experiment(make_cfg(paths=10, batches=2))
        assert len(table.rows) == 4
        for row in table.rows:
            assert np.isfinite(row.se) and np.isfinite(row.estimated)

    def test_err_definition_and_sign(self):
        table = run_experiment(make_cfg(paths=2000, batches=4, seed=504))
        for row in table.rows:
            assert row.err_pct == 100.0 * (row.true - row.estimated) / row.true

    def test_reference_cell(self):
        # the daily-step stationary-CTS cell at the full sampling effort
        cfg = make_cfg(paths=10**6, batches=100, seed=20260810)
        table = run_experiment(cfg)
        for row in table.rows:
            assert abs(row.estimated - row.true) < 4.0 * row.se

    def test_x1_only_bias_visible_at_coarse_step(self):
        cfg = make_cfg(
            process="ou-cts",
            method="x1-only",
            dt=30.0 / 365.0,
            paths=2 * 10**5,
            batches=100,
            seed=505,
        )
        table = run_experiment(cfg)
        assert abs(table.row(2).err_pct) > 5.0

    def test_method_restricted_to_driving_process(self):
        with pytest.raises(ValueError):
            make_cfg(method="x1-only").validate()

    @pytest.mark.parametrize(
        "bad",
        [dict(x0=float("nan")), dict(x0=float("inf")), dict(dt=float("inf")), dict(dt=float("nan"))],
    )
    def test_non_finite_x0_and_dt_rejected(self, bad):
        with pytest.raises(ValueError):
            make_cfg(**bad).validate()

    def test_non_integer_seed_rejected(self):
        # the stream of seed 1.5 was the stream of seed 1
        with pytest.raises(ValueError, match="seed must be in .* and integral"):
            make_cfg(seed=1.5).validate()

    @pytest.mark.parametrize("process,method", list(harness.STEP_LAWS))
    def test_seed_check_builds_no_generator(self, process, method, monkeypatch):
        # validate_suite's additivity check validates 16 configurations;
        # a Philox stream per seed check was most of each validate()
        def refuse(*args, **kwargs):
            raise AssertionError("validate() built a Philox bit generator")

        monkeypatch.setattr(np.random, "Philox", refuse)
        make_cfg(process=process, method=method).validate()

    @pytest.mark.parametrize(
        "field,value", [("paths", 2000.0), ("steps", 1.5), ("batches", 10.0), ("workers", 2.0)]
    )
    def test_non_integer_counts_rejected(self, field, value):
        # each used to pass validate and then fail in a range, a slice or
        # not at all (workers=2.0 ran)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make_cfg(**{field: value}).validate()

    @pytest.mark.parametrize(
        "field,value,match",
        [("steps", -1, "steps must be nonnegative, got -1"),
         ("batches", 1, "need at least 2 batches, got 1"),
         ("workers", 0, "workers must be >= 1, got 0")],
    )
    def test_counts_out_of_range_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            make_cfg(**{field: value}).validate()

    def test_numpy_integer_counts_accepted(self):
        fields = dict(paths=np.int64(1000), steps=np.int64(2), batches=np.int64(10), workers=np.int64(1))
        make_cfg(**fields).validate()

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("process,method", list(harness.STEP_LAWS))
    @pytest.mark.parametrize(
        "x0,size",
        [(float("nan"), 1), (float("inf"), 1), (np.array([0.0, np.nan]), 2)],
        ids=["nan", "inf", "nan-in-array"],
    )
    def test_every_step_law_rejects_non_finite_start(self, alpha, process, method, x0, size):
        cfg = make_cfg(process=process, method=method, alpha=alpha)
        law = harness.STEP_LAWS[(process, method)](cfg.process_object(), cfg)
        with pytest.raises(ValueError, match="x0 must be finite"):
            law.sample(x0, RngStream(510), size)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("process,method", list(harness.STEP_LAWS))
    def test_every_step_law_refuses_a_step_below_double_precision(self, alpha, process, method):
        # b*dt = 1e-299 < 2^-54: exp(-b*dt) rounds to 1.0; the refusal used
        # to name a CTS intensity of -0.0 or a scale a of 1.0
        with pytest.raises(ValueError, match=r"^b\*dt = 1e-299 is too small"):
            make_cfg(process=process, method=method, alpha=alpha, dt=1e-300).validate()

    @pytest.mark.parametrize("process,method", list(harness.STEP_LAWS))
    def test_every_step_law_refuses_an_intensity_that_underflows(self, process, method):
        # c (1 - a^alpha) is below the smallest subnormal: CtsParams would
        # refuse a c of 0.0 that the configuration never gave
        with pytest.raises(ValueError, match="CTS part's intensity .*5e-324"):
            make_cfg(process=process, method=method, c=5e-324).validate()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("dt", [1.0 / 365.0, 0.3], ids=["daily", "b-dt-3"])
    @pytest.mark.parametrize("process,method", list(harness.STEP_LAWS))
    @pytest.mark.parametrize("x0", [0.0, np.linspace(0.1, 2.0, 16)], ids=["scalar", "array"])
    def test_sample_leaves_the_stream_where_one_path_states_step_does(
        self, alpha, dt, process, method, x0
    ):
        # the same draws in the same order: equal values and the same next 16 uniforms
        cfg = make_cfg(process=process, method=method, alpha=alpha, dt=dt)
        law = harness.STEP_LAWS[(process, method)](cfg.process_object(), cfg)
        direct, driven = RngStream(511, 1), RngStream(511, 1)
        x = law.sample(x0, direct, 16)
        y = next(harness.path_states(((law, 1),), x0, driven, 16, 16))
        assert x.tobytes() == y.tobytes()
        assert direct.gen.random(16).tobytes() == driven.gen.random(16).tobytes()

    def test_largest_chunked_call_is_checked(self):
        # OU-CTS alpha 0.9, b dt = 10: about 1.03e4 jumps per path.  One step
        # of 100 paths expects 1.03e6 jumps, but 1000 steps are drawn 655 per
        # call, 6.7e8 jumps, ten times the cap; validate refuses before any draw
        cfg = make_cfg(process="ou-cts", alpha=0.9, dt=1.0, paths=100, steps=1)
        assert cfg.validate().lambda_a == pytest.approx(1.03e4, rel=1e-2)
        cfg.steps = 1000
        with pytest.raises(ValueError, match=r"size = 65500 expects more than the cap"):
            cfg.validate()

    def test_approx_target_differs_from_truth(self):
        cfg = make_cfg(process="ou-cts", method="scaled-bdlp", dt=30.0 / 365.0)
        assert harness.target_cumulant(cfg, 2) < harness.true_cumulant(cfg, 2)
        cfg_exact = make_cfg(process="ou-cts", dt=30.0 / 365.0)
        assert harness.target_cumulant(cfg_exact, 2) == harness.true_cumulant(cfg_exact, 2)


def own_cumulant(cfg: ExperimentConfig, k: int) -> float:
    """Closed form of the law each (process, method) pair samples, from X(0) = cfg.x0."""
    alpha, beta, c, b, dt, T = cfg.alpha, cfg.beta, cfg.c, cfg.b, cfg.dt, cfg.T
    a = np.exp(-b * dt)
    proc = cfg.process_object()
    if cfg.method == "exact" and cfg.process == "cts-ou":
        return cts_ou.cumulants_ctsou(proc, cfg.x0, dt, k)
    if cfg.method == "exact":
        return ou_cts.cumulants_oucts(proc, cfg.x0, dt, k)
    if cfg.method == "x1-only":
        c1 = c * dt / T if alpha == 0.0 else c * (1.0 - a**alpha) / (T * alpha * b)
        val = cts_cumulants(CtsParams(alpha, beta / a, c1), k)
    else:
        val = a**k * cts_cumulants(CtsParams(alpha, beta, c * dt / T), k)
    return val + (a * cfg.x0 if k == 1 else 0.0)


class TestStepLawCumulants:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("process,method", list(harness.STEP_LAWS))
    def test_cumulant_matches_closed_form(self, alpha, process, method):
        cfg = make_cfg(process=process, method=method, alpha=alpha, dt=30.0 / 365.0, x0=0.3)
        law = harness.STEP_LAWS[(process, method)](cfg.process_object(), cfg)
        rel = 1e-8 if method == "exact" else 1e-12
        for k in (1, 2, 3, 4):
            assert law.cumulant(k, cfg.x0) == pytest.approx(own_cumulant(cfg, k), rel=rel)
        with pytest.raises(ValueError, match="order must be >= 1"):
            law.cumulant(0)

    @pytest.mark.parametrize("method", ["x1-only", "scaled-bdlp"])
    def test_geometric_target_over_several_steps(self, method):
        # seed fixed before the first run; the approximate laws are biased
        # at this step, so the target must differ from the exact truth
        cfg = make_cfg(
            process="ou-cts", method=method, dt=30.0 / 365.0, steps=4, x0=0.3,
            paths=2 * 10**5, batches=100, seed=20261018,
        )
        cv = estimate_cumulants(terminal(cfg), cfg.batches)
        for k in (1, 2, 3, 4):
            assert abs(cv.k(k) - harness.target_cumulant(cfg, k)) / cv.se(k) < 4.0
        assert abs(cv.k(2) - harness.true_cumulant(cfg, 2)) / cv.se(2) > 4.0


class TestWorkers:
    def test_worker_count_invariance(self, monkeypatch):
        # four threads write their blocks into slices of one output array,
        # switching every 1 us; a misplaced or lost block changes the sample
        monkeypatch.setattr(harness, "BLOCK_SIZE", 1000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            samples = [
                terminal(make_cfg(paths=5000, seed=506, workers=w)) for w in (1, 4)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(samples[0], samples[1])

    def test_block_streams_are_disjoint(self, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_SIZE", 1000)
        x = terminal(make_cfg(paths=3000, seed=507))
        assert np.unique(x[x > 0]).size > 2000  # no duplicated blocks

    @pytest.mark.parametrize("workers", [1, 4])
    def test_block_error_propagates(self, workers, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_SIZE", 1000)
        stream = harness.RngStream

        def failing(seed, stream_id=0):
            if stream_id == 2:
                raise RuntimeError("block 2 failed")
            return stream(seed, stream_id)

        monkeypatch.setattr(harness, "RngStream", failing)
        with pytest.raises(RuntimeError, match="block 2 failed"):
            terminal(make_cfg(paths=5000, workers=workers))

    def test_failing_block_cancels_the_queued_ones(self, monkeypatch):
        # block 0 fails at once while each other block takes 0.2 s, so only
        # the blocks already running when the failure is seen may start:
        # about workers + 1, where a pool that runs every queued block starts
        # all of them; half the blocks leaves the failure 0.6 s to be seen
        workers, blocks = 2, 16
        monkeypatch.setattr(harness, "BLOCK_SIZE", 64)
        path_states, started = harness.path_states, []

        def recorded(runs, x0, stream, size, chunk):
            started.append(stream.stream_id)
            if stream.stream_id == 0:
                raise RuntimeError("block 0 failed")
            time.sleep(0.2)
            return path_states(runs, x0, stream, size, chunk)

        monkeypatch.setattr(harness, "path_states", recorded)
        with pytest.raises(RuntimeError, match="block 0 failed"):
            terminal(make_cfg(paths=64 * blocks, workers=workers))
        assert 0 in started and len(started) <= blocks // 2


class TestTrajectories:
    def test_zero_steps_single_row(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = make_cfg(steps=0, x0=0.7, out=str(out), paths=3)
        export_trajectories(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == "time,path_0,path_1,path_2"
        assert lines[1:] == ["0.0,0.7,0.7,0.7"]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_year_of_daily_steps(self, alpha, tmp_path):
        out = tmp_path / f"traj_{alpha}.csv"
        cfg = make_cfg(alpha=alpha, dt=1.0 / 365.0, steps=365, out=str(out), seed=508, paths=3)
        export_trajectories(cfg)
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert data.shape == (366, 4)
        assert np.all(np.isfinite(data))
        # the jump part of each step is nonnegative: X(t+dt) >= a X(t)
        a = np.exp(-cfg.b * cfg.dt)
        paths = data[:, 1:]
        assert np.min(paths[1:] - a * paths[:-1]) >= -1e-12

    def test_byte_identical_reruns(self, tmp_path):
        texts = []
        for run in range(2):
            out = tmp_path / f"run{run}.csv"
            cfg = make_cfg(steps=30, out=str(out), seed=509, paths=4)
            export_trajectories(cfg)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_requires_output_path(self):
        with pytest.raises(ValueError):
            export_trajectories(make_cfg(out=None, paths=1))

    @pytest.mark.parametrize("dt,most,least", [(1.0 / 365.0, 1, 0), (0.3, 1, 1)])
    def test_one_envelope_per_experiment(self, dt, most, least, tmp_path, monkeypatch):
        # the envelope is built on the first jump: at b dt = 10/365 the 800
        # draws may have none, at b dt = 3 every transition has some
        builds = []
        build = harness.ou_cts.build_envelope

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(harness.ou_cts, "build_envelope", counted)
        cfg = make_cfg(process="ou-cts", dt=dt, steps=200, out=str(tmp_path / "t.csv"), paths=4)
        export_trajectories(cfg)
        assert least <= len(builds) <= most

    @pytest.mark.parametrize("process,method", list(harness.STEP_LAWS))
    def test_one_step_law_per_experiment(self, process, method, tmp_path, monkeypatch):
        built = []
        check = StepLaw.__post_init__

        def counted(law):
            built.append(type(law).__name__)
            check(law)

        monkeypatch.setattr(StepLaw, "__post_init__", counted)
        cfg = make_cfg(
            process=process, method=method, steps=200, out=str(tmp_path / "t.csv"), paths=4
        )
        export_trajectories(cfg)
        assert len(built) == 1, built


@pytest.mark.parametrize("steps", [5, 0])
@pytest.mark.parametrize("process", ["cts-ou", "ou-cts"])
def test_terminal_values_are_the_last_exported_row(process, steps, tmp_path, monkeypatch):
    """simulate_terminal and export_trajectories run one driver: at x0 != 0,
    over 5 steps, with 64-path blocks and a short last block of 22 paths
    that draws 2 steps per call, the terminal values equal the CSV's last
    row bit for bit (float repr round-trips); at 0 steps both are x0."""
    monkeypatch.setattr(harness, "BLOCK_SIZE", 64)
    cfg = make_cfg(
        process=process, dt=30.0 / 365.0, steps=steps, x0=0.7, paths=150, seed=20261020,
        out=str(tmp_path / "t.csv"),
    )
    export_trajectories(cfg)
    last = (tmp_path / "t.csv").read_text().splitlines()[-1].split(",")
    exported_row = np.array([float(v) for v in last[1:]])
    assert terminal(cfg).tobytes() == exported_row.tobytes()


def exported(cfg: ExperimentConfig) -> np.ndarray:
    """Export cfg.paths trajectories and read them back, time column first."""
    export_trajectories(cfg)
    return np.loadtxt(cfg.out, delimiter=",", skiprows=1, ndmin=2)


class TestChunkedExport:
    """The export draws the increments of up to BLOCK_SIZE // n steps per
    call of the step law; these tests check the law, the dependence across
    steps and the chunking itself.  Seeds were fixed before the first run."""

    @pytest.mark.parametrize("process,seed", [("cts-ou", 20261101), ("ou-cts", 20261102)])
    def test_last_row_cumulants(self, process, seed, tmp_path):
        """4-SE z-gates of k1..k4 of X(4 dt), dt = 30/365, from x0 = 2.

        20000 paths give chunks of 3 steps, so the horizon spans a chunk
        boundary.  Detection power: dropping the decayed start a^4 x0 moves
        k1 by 16 SE (CTS-OU) and 72 SE (OU-CTS); reusing one increment row
        for the steps of a chunk raises k2 by 22%, about 12 SE of CTS-OU k2.
        """
        cfg = make_cfg(
            process=process, dt=30.0 / 365.0, steps=4, x0=2.0, paths=20000,
            batches=100, seed=seed, out=str(tmp_path / "t.csv"),
        )
        cv = estimate_cumulants(exported(cfg)[-1, 1:], cfg.batches)
        for k in (1, 2, 3, 4):
            z = (cv.k(k) - harness.true_cumulant(cfg, k)) / cv.se(k)
            assert abs(z) < 4.0, (k, z)

    @pytest.mark.parametrize("process", ["cts-ou", "ou-cts"])
    def test_matches_step_by_step_skeleton(self, process, tmp_path):
        """Two-sample KS test, p > 0.01, of the export against the skeleton
        drawn one transition per step, at t = 5 dt and 10 dt.

        4000 paths on each side: a difference of 0.036 between the two CDFs
        fails the gate at that level, and one of 0.05 fails it with power
        above 0.9.
        """
        n, seed = 4000, 20261103
        cfg = make_cfg(
            process=process, dt=30.0 / 365.0, steps=10, x0=0.5, paths=n,
            seed=seed, out=str(tmp_path / "t.csv"),
        )
        paths = exported(cfg)[:, 1:]
        proc = cfg.process_object()
        grid = cfg.dt * np.arange(1, cfg.steps + 1)
        skeleton = cts_ou.simulate_skeleton_ctsou if process == "cts-ou" else ou_cts.simulate_skeleton_oucts
        ref = skeleton(proc, cfg.x0, grid, RngStream(seed + 1, 0), size=n)
        for step in (5, 10):
            assert stats.ks_2samp(paths[step], ref[step - 1]).pvalue > 0.01, step

    @pytest.mark.parametrize("block_size,steps", [(harness.BLOCK_SIZE, 3), (1000, 200)])
    def test_worker_count_invariance(self, block_size, steps, tmp_path, monkeypatch):
        """Byte-identical CSVs for 1 and 2 workers at BLOCK_SIZE + 8 paths:
        a full block draws one step per call, the 8-path block draws
        BLOCK_SIZE // 8 steps per call.  At the real BLOCK_SIZE all three
        steps fit one call; with 1000-path blocks and 200 steps the small
        block takes chunks of 125 and 75 steps, so a chunk length that
        depended on the worker count would change a byte (a mutant using
        BLOCK_SIZE // (n * workers) fails here)."""
        monkeypatch.setattr(harness, "BLOCK_SIZE", block_size)
        count = block_size + 8
        texts = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.csv"
            cfg = make_cfg(steps=steps, paths=count, seed=20261107, workers=workers, out=str(out))
            export_trajectories(cfg)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_threads_share_one_lazily_built_envelope(self, tmp_path, monkeypatch):
        """Eight OU-CTS blocks at b dt = 3 (every transition jumps) on four
        worker threads with a 1 us switch interval, so the threads race for
        the law's envelope on their first jump; the CSV must equal the
        one-worker CSV byte for byte."""
        monkeypatch.setattr(harness, "BLOCK_SIZE", 16)
        texts = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 4):
                out = tmp_path / f"w{workers}.csv"
                cfg = make_cfg(
                    process="ou-cts", dt=0.3, steps=20, paths=128, seed=20261109,
                    workers=workers, out=str(out),
                )
                export_trajectories(cfg)
                texts.append(out.read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("process", ["cts-ou", "ou-cts"])
    def test_bound_across_chunk_boundary(self, process, tmp_path):
        """64 paths over 1100 daily steps: chunks of 1024 and 76 steps.

        Every increment is nonnegative, so X(t+dt) >= a X(t) holds exactly
        in floating point.  Detection power: a loop that skipped the short
        last chunk would leave rows 1025..1100 as unwritten np.empty memory,
        in practice zeros, which fail the bound against the positive row
        before them; an off-by-one in the increment index raises.
        """
        cfg = make_cfg(process=process, steps=1100, paths=64, seed=20261108, out=str(tmp_path / "t.csv"))
        data = exported(cfg)
        assert data.shape == (1101, 65)
        assert np.array_equal(data[:, 0], cfg.dt * np.arange(1101))
        paths = data[:, 1:]
        assert np.all(np.isfinite(paths))
        a = float(np.exp(-cfg.b * cfg.dt))
        assert np.all(paths[1:] >= a * paths[:-1])


class TestValidateSuite:
    def test_fresh_suite_passes(self):
        report = validate_suite()
        assert report.passed, report.to_text()
        assert "acceptance=" in report.to_text()  # per-cell measurements present

    def test_under_resolved_envelope_is_detected(self, monkeypatch):
        force_single_chord(monkeypatch)
        report = validate_suite()
        assert not report.passed
        # G_1 is 1.04-1.67 on the a = exp(-300/365) and a = 0.05 cells of
        # every alpha, and below 1.005 on the a = exp(-10/365) cells
        failed = [e.name for e in report.entries if not e.passed]
        assert len(failed) == 8
        assert all(name.startswith("envelope alpha=") for name in failed)

    def test_biased_jump_moment_is_detected(self, monkeypatch):
        moment = ou_cts.OuCtsStepLaw.jump_moment
        monkeypatch.setattr(
            ou_cts.OuCtsStepLaw, "jump_moment", lambda law, k: 1.01 * moment(law, k)
        )
        failed = [e.name for e in validate_suite().entries if not e.passed]
        assert failed == ["cumulant additivity (ou-cts)"]

    def test_shifted_remainder_chf_is_detected(self, monkeypatch):
        lk_log_chf = levy_core.lk_log_chf
        monkeypatch.setattr(levy_core, "lk_log_chf", lambda rem, u: lk_log_chf(rem, u) + 1e-5)
        failed = [e.name for e in validate_suite().entries if not e.passed]
        assert failed == [
            "remainder-triplet identity (gamma)",
            "remainder-triplet identity (cts)",
        ]
