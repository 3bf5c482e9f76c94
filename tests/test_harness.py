"""Harness tests: cumulant estimation, experiment tables, trajectory export,
worker-count invariance and the validation report."""

import numpy as np
import pytest

from tsousim import harness
from tsousim.harness import (
    ExperimentConfig,
    estimate_cumulants,
    export_trajectories,
    run_experiment,
    simulate_terminal,
    validate_suite,
)
from tsousim.rand_core import RngStream

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

    def test_approx_target_differs_from_truth(self):
        cfg = make_cfg(process="ou-cts", method="scaled-bdlp", dt=30.0 / 365.0)
        assert harness.target_cumulant(cfg, 2) < harness.true_cumulant(cfg, 2)
        cfg_exact = make_cfg(process="ou-cts", dt=30.0 / 365.0)
        assert harness.target_cumulant(cfg_exact, 2) == harness.true_cumulant(cfg_exact, 2)


class TestWorkers:
    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_SIZE", 1000)
        samples = [
            simulate_terminal(make_cfg(paths=5000, seed=506, workers=w)) for w in (1, 4)
        ]
        assert np.array_equal(samples[0], samples[1])

    def test_block_streams_are_disjoint(self, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_SIZE", 1000)
        x = simulate_terminal(make_cfg(paths=3000, seed=507))
        assert np.unique(x[x > 0]).size > 2000  # no duplicated blocks


class TestTrajectories:
    def test_zero_steps_single_row(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = make_cfg(steps=0, x0=0.7, out=str(out))
        export_trajectories(cfg, count=3)
        lines = out.read_text().splitlines()
        assert lines[0] == "time,path_0,path_1,path_2"
        assert lines[1:] == ["0.0,0.7,0.7,0.7"]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_year_of_daily_steps(self, alpha, tmp_path):
        out = tmp_path / f"traj_{alpha}.csv"
        cfg = make_cfg(alpha=alpha, dt=1.0 / 365.0, steps=365, out=str(out), seed=508)
        export_trajectories(cfg, count=3)
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
            export_trajectories(cfg, count=4)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_requires_output_path(self):
        with pytest.raises(ValueError):
            export_trajectories(make_cfg(out=None), count=1)

    def test_one_envelope_per_experiment(self, tmp_path, monkeypatch):
        builds = []
        build = harness.ou_cts.build_envelope

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(harness.ou_cts, "build_envelope", counted)
        cfg = make_cfg(process="ou-cts", steps=200, out=str(tmp_path / "t.csv"), paths=4)
        export_trajectories(cfg, count=4)
        assert len(builds) == 1


class TestValidateSuite:
    def test_fresh_suite_passes(self):
        report = validate_suite(proposals=2 * 10**4)
        assert report.passed, report.to_text()
        assert "acceptance=" in report.to_text()  # per-cell measurements present

    def test_envelope_fault_injection_is_reported(self):
        report = validate_suite(inject_envelope_fault=True, proposals=2 * 10**4)
        assert not report.passed
        faulty = [e for e in report.entries if "fault injection" in e.name]
        assert len(faulty) == 1 and not faulty[0].passed
        assert "holds" in faulty[0].detail and "G_1" in faulty[0].detail
