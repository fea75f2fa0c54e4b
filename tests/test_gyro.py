import math

import numpy as np
import pytest

from gyrofde.gyro import (DriftSpec, GyroErrorModel, NoiseSpec, RateTrace,
                          drift_stationary_std, substream, synthesize_rate_trace)
from gyrofde.units import DEG
from oracles import init_drift_state, noise_sample, step_drift

HOUR = 1.0
SEC = 1.0 / 3600.0


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-1.0)
    with pytest.raises(ValueError):
        DriftSpec(K=0.1, Tc=0.0)
    with pytest.raises(ValueError):
        DriftSpec(K=-0.1, Tc=1.0)


class TestDriftStationaryStd:
    def test_zero_amplitude(self):
        assert drift_stationary_std(DriftSpec(K=0.0, Tc=3.0)) == 0.0

    def test_formula(self):
        # K=0.01 deg/h^1.5, Tc=1 h -> 7.071e-3 deg/h
        std = drift_stationary_std(DriftSpec(K=0.01 * DEG, Tc=1.0))
        assert std / DEG == pytest.approx(7.071e-3, rel=1e-4)

    def test_against_long_trace(self):
        # K=0.03 deg/h^1.5, Tc=10 h -> 6.708e-2 deg/h; sample std of a
        # synthesized record much longer than 1000 Tc
        d = DriftSpec(K=0.03 * DEG, Tc=10.0)
        m = GyroErrorModel(NoiseSpec(0.0), (d,), turn_on=True)
        trace = synthesize_rate_trace(m, duration=20_000.0, dt=0.1, seed=11)
        sample_std = float(np.std(trace.samples, ddof=1))
        assert sample_std == pytest.approx(drift_stationary_std(d), rel=0.05)
        assert drift_stationary_std(d) / DEG == pytest.approx(6.708e-2, rel=1e-3)


class TestInitDriftState:
    def test_turn_on_off_is_exactly_zero(self):
        d = DriftSpec(K=0.5, Tc=2.0)
        assert init_drift_state(d, substream(0, 1), turn_on=False) == 0.0

    def test_zero_amplitude(self):
        assert init_drift_state(DriftSpec(K=0.0, Tc=1.0), substream(0, 2)) == 0.0

    def test_variance_is_half_K2_Tc(self):
        d = DriftSpec(K=0.01 * DEG, Tc=1.0)
        rng = substream(3, 0)
        draws = np.array([init_drift_state(d, rng) for _ in range(100_000)])
        var_deg2 = np.var(draws / DEG, ddof=1)
        assert var_deg2 == pytest.approx(5e-5, rel=0.03)


class TestStepDrift:
    def test_deterministic_decay_without_amplitude(self):
        d = DriftSpec(K=0.0, Tc=4.0)
        s = step_drift(1.7, d, dt=0.5, rng=substream(0, 0))
        assert s == 1.7 * math.exp(-0.5 / 4.0)

    def test_mean_decay(self):
        d = DriftSpec(K=0.2, Tc=1.0)
        rng = substream(9, 0)
        s0, dt = 3.0, 0.05
        steps = np.array([step_drift(s0, d, dt, rng) for _ in range(100_000)])
        expected = s0 * math.exp(-dt / d.Tc)
        # MC tolerance: std of the mean = K sqrt(dt) / sqrt(n)
        tol = 4 * d.K * math.sqrt(dt) / math.sqrt(len(steps))
        assert abs(steps.mean() - expected) < tol

    def test_long_run_std(self):
        # chain driven from zero reaches K sqrt(Tc/2) for dt <= Tc/100
        d = DriftSpec(K=0.05, Tc=0.5)
        dt = d.Tc / 100
        rng = substream(21, 0)
        s, out = 0.0, np.empty(200_000)
        for i in range(len(out)):
            s = step_drift(s, d, dt, rng)
            out[i] = s
        discrete = d.K * math.sqrt(dt / -math.expm1(-2 * dt / d.Tc))
        assert discrete == pytest.approx(drift_stationary_std(d), rel=0.01)
        assert np.std(out[1000:], ddof=1) == pytest.approx(drift_stationary_std(d), rel=0.05)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            step_drift(0.0, DriftSpec(K=1.0, Tc=1.0), 0.0, substream(0, 0))


class TestNoiseSample:
    def test_zero_amplitude(self):
        assert noise_sample(NoiseSpec(0.0), SEC, substream(0, 0)) == 0.0

    def test_bandwidth_scaling(self):
        # N = 0.03 deg/sqrt(h) at dt = 1 s -> std 1.8 deg/h
        n = NoiseSpec(0.03 * DEG)
        rng = substream(5, 0)
        draws = np.array([noise_sample(n, SEC, rng) for _ in range(100_000)])
        assert np.std(draws, ddof=1) / DEG == pytest.approx(1.8, rel=0.02)

    def test_integrated_angle_random_walk(self):
        # accumulated angle over t=1 h has std N sqrt(t) = 0.03 deg
        N = 0.03 * DEG
        rng = substream(6, 0)
        n_steps, trials = 3600, 10_000
        sums = np.empty(trials)
        scale = (N / math.sqrt(SEC)) * SEC  # per-sample rate std times dt
        for k in range(trials):
            sums[k] = scale * rng.standard_normal(n_steps).sum()
        assert np.std(sums, ddof=1) / DEG == pytest.approx(0.03, rel=0.05)


class TestSynthesizeRateTrace:
    def test_ideal_gyro_is_silent(self):
        m = GyroErrorModel(NoiseSpec(0.0), ())
        trace = synthesize_rate_trace(m, 1.0, SEC, seed=0)
        assert np.all(trace.samples == 0.0)

    def test_seed_determinism(self):
        m = GyroErrorModel.from_deg(0.01, ((0.02, 0.5),))
        a = synthesize_rate_trace(m, 0.5, SEC, seed=123)
        b = synthesize_rate_trace(m, 0.5, SEC, seed=123)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_noise_only_variance(self):
        N = 0.03 * DEG
        m = GyroErrorModel(NoiseSpec(N), ())
        trace = synthesize_rate_trace(m, 1_000_000 * SEC, SEC, seed=8)
        assert len(trace.samples) == 1_000_000
        assert np.var(trace.samples, ddof=1) == pytest.approx(N * N / SEC, rel=0.02)

    def test_matches_stepwise_operations_bit_for_bit(self):
        m = GyroErrorModel.from_deg(0.02, ((0.05, 0.3), (0.01, 2.0)))
        dt, n, seed = 1 / 120, 50, 7
        trace = synthesize_rate_trace(m, n * dt, dt, seed)

        states = [init_drift_state(d, substream(seed, 1 + i, 0), m.turn_on)
                  for i, d in enumerate(m.drifts)]
        rngs = [substream(seed, 1 + i, 1) for i in range(len(m.drifts))]
        noise_rng = substream(seed, 0, 1)
        rate = np.empty(n)
        for j in range(n):
            r = noise_sample(m.noise, dt, noise_rng)
            for s in states:
                r += s
            rate[j] = r
            for k, d in enumerate(m.drifts):
                states[k] = step_drift(states[k], d, dt, rngs[k])
        np.testing.assert_array_equal(trace.samples, rate)

    def test_rejects_bad_duration(self):
        m = GyroErrorModel(NoiseSpec(1.0), ())
        with pytest.raises(ValueError):
            synthesize_rate_trace(m, 0.0, SEC, seed=0)
        with pytest.raises(ValueError):
            synthesize_rate_trace(m, 1.0, -SEC, seed=0)


def _state_matrix(d, n_chains, n_steps, dt, turn_on, seed):
    """Ensemble of drift chains via the public trace op, one process each."""
    m = GyroErrorModel(NoiseSpec(0.0), (d,), turn_on=turn_on)
    out = np.empty((n_chains, n_steps))
    for c in range(n_chains):
        out[c] = synthesize_rate_trace(m, n_steps * dt, dt, seed=seed + c).samples
    return out


class TestDriftChainProperties:
    def test_stationarity_no_transient(self):
        # with the turn-on draw, early and late ensemble variances agree
        d = DriftSpec(K=0.8, Tc=0.05)
        dt = d.Tc / 100
        states = _state_matrix(d, 4000, 400, dt, True, seed=1000)
        v_early = np.var(states[:, 1], ddof=1)
        v_late = np.var(states[:, -1], ddof=1)
        # each variance estimate carries ~ sqrt(2/n) = 2.2% relative noise
        assert v_early / v_late == pytest.approx(1.0, abs=0.10)

    def test_autocovariance_decay_rate(self):
        d = DriftSpec(K=0.5, Tc=0.1)
        dt = d.Tc / 100
        m = GyroErrorModel(NoiseSpec(0.0), (d,), turn_on=True)
        x = synthesize_rate_trace(m, 400 * d.Tc, dt, seed=77).samples
        x = x - x.mean()
        lags = np.arange(1, 80)
        acov = np.array([np.dot(x[:-l], x[l:]) / (len(x) - l) for l in lags])
        slope = np.polyfit(lags * dt, np.log(acov), 1)[0]
        assert slope == pytest.approx(-1.0 / d.Tc, rel=0.05)

    def test_cold_start_variance_growth(self):
        # turn_on off: Var s(t) -> (K^2 Tc / 2)(1 - e^(-2t/Tc)) in the small-dt limit
        d = DriftSpec(K=1.0, Tc=0.2)
        dt = d.Tc / 100
        states = _state_matrix(d, 6000, 150, dt, False, seed=5000)
        for j in (30, 80, 149):
            t = j * dt  # sample j is the state after j updates

            expected = (d.K ** 2 * d.Tc / 2) * -math.expm1(-2 * t / d.Tc)
            assert np.var(states[:, j], ddof=1) == pytest.approx(expected, rel=0.05)


def test_rate_trace_csv_round_trip(tmp_path):
    m = GyroErrorModel.from_deg(0.01, ((0.02, 0.5),))
    trace = synthesize_rate_trace(m, 0.01, SEC, seed=3)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t_h,rate_deg_per_h"
    back = RateTrace.from_csv(path)
    assert back.dt == pytest.approx(trace.dt, rel=1e-15)
    np.testing.assert_allclose(back.samples, trace.samples, rtol=1e-15)
    # the reader is exact on what the writer printed
    assert back.dt == trace.dt and back.duration == trace.duration
    rates = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
    assert np.array_equal(back.samples, np.array(rates) * DEG)


@pytest.mark.parametrize("rows, line, what", [
    ("0.1,1\n0.2,nan\n0.3,1\n", 3, "non-finite rate"),
    ("0.1,1\ninf,1\n", 3, "non-finite timestamp"),
    ("0.1,1\n0.2,1\n0.35,1\n", 4, "timestamp"),
    ("0.1,1\n0.1,1\n", 3, "timestamp"),
    ("0,1\n", 2, "timestamp"),
    ("0.1,1\n0.2\n", 3, "expected two numbers"),
])
def test_rate_trace_from_csv_rejects_bad_rows(tmp_path, rows, line, what):
    path = tmp_path / "trace.csv"
    path.write_text("t_h,rate_deg_per_h\n" + rows)
    with pytest.raises(ValueError, match=f"trace.csv:{line}: {what}"):
        RateTrace.from_csv(path)
