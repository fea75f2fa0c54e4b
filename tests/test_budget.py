import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gyrofde import _series
from gyrofde.budget import (ErrorBudget, FlightProfile, budget_series_to_csv,
                            fde_sigma)
from gyrofde.gyro import DriftSpec, GyroErrorModel
from gyrofde.units import DEG, NMI_KM

P = FlightProfile()  # 900 km/h, 10 h, R=6371 km

log_K = st.floats(min_value=1e-4, max_value=1.0).map(lambda v: v * DEG)
log_Tc = st.floats(min_value=0.01, max_value=50.0)
log_t = st.floats(min_value=1e-3, max_value=30.0)


def drift_model(K, Tc, turn_on=True):
    return GyroErrorModel(0.0, (DriftSpec(K, Tc),), turn_on)


class TestFlightProfile:
    def test_defaults(self):
        assert P.n_steps == 36000

    @pytest.mark.parametrize("kw", [dict(v=-1), dict(duration=0), dict(R=0),
                                    dict(dt=0)])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            FlightProfile(**kw)

    @pytest.mark.parametrize("name, value, line", [
        *((name, value, f"{name} must be finite and {rule}, got {value}")
          for name, rule in (("v", ">= 0"), ("duration", "> 0"), ("R", "> 0"), ("dt", "> 0"))
          for value in (math.nan, math.inf)),
        ("v", -1.0, "v must be >= 0, got -1.0"), ("v", -math.inf, "v must be >= 0, got -inf"),
        ("duration", 0.0, "duration must be > 0, got 0.0"), ("R", -0.0, "R must be > 0, got -0.0"),
        ("dt", -math.inf, "dt must be > 0, got -inf")])
    def test_each_bad_value_has_its_line(self, name, value, line):
        with pytest.raises(ValueError) as e:
            FlightProfile(**{name: value})
        assert str(e.value) == line


class TestErrorBudgetRecord:
    TERMS = ["atrk_noise", "atrk_drift", "atrk_turnon",
             "xtrk_noise", "xtrk_drift", "xtrk_turnon"]

    def test_fields_are_the_six_variance_terms(self):
        assert [f.name for f in dataclasses.fields(ErrorBudget)] == self.TERMS

    def test_sigmas_are_not_settable(self):
        with pytest.raises(TypeError):
            ErrorBudget(*[1.0] * 6, sigma_fde=1.0)
        with pytest.raises(AttributeError):
            ErrorBudget(*[1.0] * 6).sigma_atrk = 1.0

    @pytest.mark.parametrize("shape", [(), (50,)])
    def test_sigmas_are_root_sums_in_their_grouping(self, shape):
        """Bit for bit: a sum grouped otherwise can differ in the last place."""
        rng = np.random.default_rng(18)
        for _ in range(200):
            an, ad, at, xn, xd, xt = (
                (rng.random(shape) * 10.0 ** rng.integers(-8, 8, shape))[()]
                for _ in range(6))
            b = ErrorBudget(an, ad, at, xn, xd, xt)
            for got, want in ((b.sigma_atrk, np.sqrt(an + ad + at)),
                              (b.sigma_xtrk, np.sqrt(xn + xd + xt)),
                              (b.sigma_fde, np.sqrt((an + ad + at) + (xn + xd + xt)))):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestAtrkVariance:
    def test_ideal_gyro(self):
        b = fde_sigma(GyroErrorModel(), P, 10.0)
        assert (b.atrk_noise, b.atrk_drift, b.atrk_turnon) == (0.0, 0.0, 0.0)

    def test_noise_only(self):
        # sigma = N R sqrt(t) = 1.758 km at N=0.005 deg/sqrt(h), 10 h
        N = 0.005 * DEG
        b = fde_sigma(GyroErrorModel(N), P, 10.0)
        noise, drift, turnon = b.atrk_noise, b.atrk_drift, b.atrk_turnon
        assert drift == turnon == 0.0
        assert math.sqrt(noise) == pytest.approx(N * P.R * math.sqrt(10.0), rel=1e-12)
        assert math.sqrt(noise) == pytest.approx(1.758, rel=1e-3)

    def test_drift_with_turnon(self):
        # total drift sigma = K Tc R sqrt(t - Tc (1 - e^-t/Tc)) = 3.336 km
        K, Tc, t = 0.01 * DEG, 1.0, 10.0
        b = fde_sigma(drift_model(K, Tc), P, t)
        drift, turnon = b.atrk_drift, b.atrk_turnon
        expected = K * Tc * P.R * math.sqrt(t - Tc * (1 - math.exp(-t / Tc)))
        assert math.sqrt(drift + turnon) == pytest.approx(expected, rel=1e-12)
        assert math.sqrt(drift + turnon) == pytest.approx(3.336, rel=1e-3)

    def test_inflight_matches_double_sum_oracle(self):
        K, Tc = 0.02 * DEG, 0.8
        for t in (0.004, 0.4, 4.0):
            drift = fde_sigma(drift_model(K, Tc), P, t).atrk_drift
            assert drift == pytest.approx(
                oracles.atrk_drift_var(K, Tc, P.R, t), rel=2e-3)

    def test_turnon_matches_oracle(self):
        K, Tc, t = 0.02 * DEG, 0.8, 4.0
        turnon = fde_sigma(drift_model(K, Tc), P, t).atrk_turnon
        assert turnon == pytest.approx(
            oracles.atrk_turnon_var(K, Tc, P.R, t), rel=2e-3)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            fde_sigma(GyroErrorModel(), P, -1.0)


class TestXtrkVariance:
    def test_no_translation_no_error(self):
        m = GyroErrorModel.from_deg(0.01, ((0.01, 1.0),))
        b = fde_sigma(m, FlightProfile(v=0.0), 10.0)
        assert (b.xtrk_noise, b.xtrk_drift, b.xtrk_turnon) == (0.0, 0.0, 0.0)

    def test_noise_only(self):
        # sigma = N v t^1.5 / sqrt(3) = 1.434 km
        N = 0.005 * DEG
        noise = fde_sigma(GyroErrorModel(N), P, 10.0).xtrk_noise
        assert math.sqrt(noise) == pytest.approx(
            N * P.v * 10.0 ** 1.5 / math.sqrt(3), rel=1e-12)
        assert math.sqrt(noise) == pytest.approx(1.434, rel=1e-3)

    def test_benchmark_drift_terms(self):
        # in-flight bracket 243.832 h^3; sigmas 2.453 and 1.000 km
        K, Tc, t = 0.01 * DEG, 1.0, 10.0
        b = fde_sigma(drift_model(K, Tc), P, t)
        drift, turnon = b.xtrk_drift, b.xtrk_turnon
        assert drift / (K * K * Tc * Tc * P.v * P.v) == pytest.approx(243.832, rel=1e-5)
        assert math.sqrt(drift) == pytest.approx(2.453, rel=1e-3)
        assert math.sqrt(turnon) == pytest.approx(1.000, rel=1e-3)

    def test_inflight_matches_double_sum_oracle(self):
        K, Tc = 0.02 * DEG, 0.8
        for t in (0.004, 0.4, 4.0):
            drift = fde_sigma(drift_model(K, Tc), P, t).xtrk_drift
            assert drift == pytest.approx(
                oracles.xtrk_drift_var(K, Tc, P.v, t), rel=2e-3)

    def test_turnon_matches_oracle(self):
        K, Tc, t = 0.02 * DEG, 0.8, 4.0
        turnon = fde_sigma(drift_model(K, Tc), P, t).xtrk_turnon
        assert turnon == pytest.approx(
            oracles.xtrk_turnon_var(K, Tc, P.v, t), rel=2e-3)


class TestAlgebraicIdentities:
    @settings(max_examples=200, deadline=None)
    @given(log_K, log_Tc, log_t)
    def test_atrk_split_equals_total_form(self, K, Tc, t):
        # in-flight + turn-on == K^2 Tc^2 R^2 [t - Tc (1 - e^-t/Tc)] to 1e-12
        b = fde_sigma(drift_model(K, Tc), FlightProfile(duration=t), t)
        drift, turnon = b.atrk_drift, b.atrk_turnon
        total = K * K * Tc ** 3 * P.R ** 2 * _xminus_em_ref(t / Tc)
        assert drift + turnon == pytest.approx(total, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(log_K, log_Tc, log_t)
    def test_xtrk_terms_sum_to_total(self, K, Tc, t):
        m = drift_model(K, Tc)
        b = fde_sigma(m, FlightProfile(duration=max(t, 1e-3)), t)
        noise, drift, turnon = b.xtrk_noise, b.xtrk_drift, b.xtrk_turnon
        assert b.sigma_xtrk ** 2 == pytest.approx(noise + drift + turnon, rel=1e-12)


def _xminus_em_ref(x: float) -> float:
    """Reference x - (1 - e^-x), independent exact summation."""
    if x >= 0.25:
        return x - (1.0 - math.exp(-x))
    total, term, k = 0.0, x, 1
    for k in range(2, 60):
        term *= -x / k
        total -= term
    return total


class TestSmallTimeLimits:
    def test_atrk_cubic(self):
        K, Tc = 0.03 * DEG, 2.0
        for t in (Tc / 100, Tc / 1000):
            drift = fde_sigma(drift_model(K, Tc), FlightProfile(R=1.0), t).atrk_drift
            assert drift == pytest.approx(K * K * t ** 3 / 3, rel=0.01)

    def test_xtrk_quintic(self):
        K, Tc = 0.03 * DEG, 2.0
        for t in (Tc / 100, Tc / 1000):
            drift = fde_sigma(drift_model(K, Tc), FlightProfile(v=1.0), t).xtrk_drift
            assert drift == pytest.approx(K * K * t ** 5 / 20, rel=0.01)

    def test_series_consistent_with_direct_at_cutover(self):
        from gyrofde._series import (atrk_inflight_shape, xminus_em,
                                     xtrk_inflight_shape)
        for x in (0.45, 0.49999):
            a = math.exp(-x)
            assert atrk_inflight_shape(x) == pytest.approx(
                x - (3 - 4 * a + a * a) / 2, rel=1e-11)
            assert xtrk_inflight_shape(x) == pytest.approx(
                x ** 3 / 3 - x * x + x * (1 - 2 * a) + (1 - a * a) / 2, rel=1e-10)
            assert xminus_em(x) == pytest.approx(x - (1 - a), rel=1e-12)


class TestLargeTimeGrowth:
    def test_xtrk_cubic_asymptotes(self):
        # sigma within 15% of its t^(3/2) asymptote for t >= 10 Tc (the exact
        # deficit at t = 10 Tc is 14.5% on the std scale, 27% on variance)
        N, K, Tc = 0.003 * DEG, 0.01 * DEG, 0.6
        for t in (10 * Tc, 20 * Tc, 50 * Tc):
            b = fde_sigma(GyroErrorModel(N, (DriftSpec(K, Tc),)),
                          FlightProfile(duration=t), t)
            noise, drift = b.xtrk_noise, b.xtrk_drift
            assert noise == pytest.approx(N * N * P.v ** 2 * t ** 3 / 3, rel=1e-12)
            assert math.sqrt(drift) == pytest.approx(
                math.sqrt(K * K * Tc * Tc * P.v ** 2 * t ** 3 / 3), rel=0.15)


class TestFdeSigma:
    def test_zero_time_budget(self):
        b = fde_sigma(GyroErrorModel.from_deg(0.01, ((0.01, 1.0),)), P, 0.0)
        assert b.sigma_fde == b.sigma_atrk == b.sigma_xtrk == 0.0

    def test_rss_invariant(self):
        b = fde_sigma(GyroErrorModel.from_deg(0.005, ((0.01, 1.0),)), P, 10.0)
        assert b.sigma_fde ** 2 == pytest.approx(
            b.sigma_atrk ** 2 + b.sigma_xtrk ** 2, rel=1e-12)

    def test_noise_only_10nmi_neighborhood(self):
        # N = 0.02 deg/sqrt(h), K = 0: 2 sigma_FDE = 18.15 km = 9.80 nmi
        b = fde_sigma(GyroErrorModel.from_deg(0.02), P, 10.0)
        assert b.fde95_km == pytest.approx(18.150, rel=1e-3)
        assert abs(b.fde95_nmi - 10.0) / 10.0 < 0.05

    def test_drift_only_10nmi_neighborhood(self):
        # K = 0.021 deg/h^1.5, Tc = 1 h: 2 sigma_FDE within 10% of 10 nmi
        b = fde_sigma(GyroErrorModel.from_deg(0.0, ((0.021, 1.0),)), P, 10.0)
        assert abs(b.fde95_km - 10 * NMI_KM) / (10 * NMI_KM) < 0.10

    def test_monotone_in_time(self):
        m = GyroErrorModel.from_deg(0.005, ((0.01, 1.0),))
        sig = [fde_sigma(m, P, t).sigma_fde for t in np.linspace(0.1, 10, 25)]
        assert np.all(np.diff(sig) > 0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=0.05),
           st.floats(min_value=1e-3, max_value=0.05), log_Tc,
           st.floats(min_value=1.05, max_value=3.0))
    def test_monotone_in_N_and_K(self, N_deg, K_deg, Tc, factor):
        t = 10.0
        base = fde_sigma(GyroErrorModel.from_deg(N_deg, ((K_deg, Tc),)), P, t).sigma_fde
        upN = fde_sigma(GyroErrorModel.from_deg(N_deg * factor, ((K_deg, Tc),)), P, t).sigma_fde
        upK = fde_sigma(GyroErrorModel.from_deg(N_deg, ((K_deg * factor, Tc),)), P, t).sigma_fde
        assert upN > base and upK > base

    def test_multi_drift_additivity(self):
        d1, d2 = (0.01, 0.5), (0.004, 3.0)
        both = fde_sigma(GyroErrorModel.from_deg(0.005, (d1, d2)), P, 10.0)
        one = fde_sigma(GyroErrorModel.from_deg(0.005, (d1,)), P, 10.0)
        two = fde_sigma(GyroErrorModel.from_deg(0.0, (d2,)), P, 10.0)
        assert both.atrk_drift == one.atrk_drift + two.atrk_drift
        assert both.xtrk_drift == one.xtrk_drift + two.xtrk_drift
        assert both.atrk_turnon == one.atrk_turnon + two.atrk_turnon
        assert both.xtrk_turnon == one.xtrk_turnon + two.xtrk_turnon
        assert both.atrk_noise == one.atrk_noise

    def test_rejects_time_outside_profile(self):
        with pytest.raises(ValueError):
            fde_sigma(GyroErrorModel(), P, 11.0)


class TestTurnonFraction:
    def test_atrk_long_flight(self):
        # ~ Tc/(2t) = 2.5% of the total drift variance at t=10 h, Tc=0.5 h
        m = GyroErrorModel.from_deg(0.0, ((0.01, 0.5),))
        b = fde_sigma(m, P, 10.0)
        frac = b.atrk_turnon / (b.atrk_drift + b.atrk_turnon)
        assert frac == pytest.approx(0.0263158, rel=1e-4)
        assert frac == pytest.approx(0.025, abs=0.002)

    def test_xtrk_at_20_Tc(self):
        # ~ 3 Tc/(2t) = 7.5% at t = 20 Tc
        m = GyroErrorModel.from_deg(0.0, ((0.01, 1.0),))
        p = FlightProfile(duration=20.0)
        b = fde_sigma(m, p, 20.0)
        frac = b.xtrk_turnon / (b.xtrk_drift + b.xtrk_turnon)
        assert frac == pytest.approx(0.0731460, rel=1e-4)
        assert frac == pytest.approx(0.075, abs=0.005)

    def test_short_flight_turnon_dominates(self):
        m = GyroErrorModel.from_deg(0.0, ((0.01, 1.0),))
        b = fde_sigma(m, P, 0.01)
        frac = b.atrk_turnon / (b.atrk_drift + b.atrk_turnon)
        assert frac > 0.9


def test_budget_csv_schema(tmp_path):
    path = tmp_path / "budget.csv"
    m = GyroErrorModel.from_deg(0.005, ((0.01, 1.0),))
    budget_series_to_csv(path, m, P, np.linspace(0, 10, 5))
    lines = path.read_text().splitlines()
    assert lines[0] == ("t_h,sigma_atrk_km,sigma_xtrk_km,sigma_fde_km,fde95_nmi,"
                        "atrk_noise_km2,atrk_drift_km2,atrk_turnon_km2,"
                        "xtrk_noise_km2,xtrk_drift_km2,xtrk_turnon_km2")
    assert len(lines) == 6
    last = [float(v) for v in lines[-1].split(",")]
    b = fde_sigma(m, P, 10.0)
    # 17-significant-digit fields round-trip exactly
    assert last[3] == b.sigma_fde and last[4] == b.fde95_nmi


class TestFlightSteps:
    @pytest.mark.parametrize("duration, dt", [(0.5, 1.0), (0.5, 7 / 3600),
                                              (1.0, 0.3)])
    def test_dt_must_divide_the_duration(self, duration, dt):
        with pytest.raises(ValueError, match="does not divide"):
            FlightProfile(duration=duration, dt=dt).n_steps

    def test_whole_steps(self):
        assert FlightProfile(duration=0.05, dt=5 / 3600).n_steps == 36
        assert FlightProfile(duration=1.0, dt=1.0).n_steps == 1


SHAPES = ("atrk_inflight_shape", "xtrk_inflight_shape", "xminus_em")


class TestArrayKernels:
    """The fixed-degree Horner kernels against the scalar series loops they
    replaced (kept in oracles)."""

    @pytest.mark.parametrize("name", SHAPES)
    def test_series_side_within_8_ulp_of_scalar_series(self, name):
        x = np.geomspace(1e-8, 0.5, 4001)[:-1]
        new = getattr(_series, name)(x)
        old = np.array([getattr(oracles, name)(float(v)) for v in x])
        # positive doubles: the distance of their bit patterns counts ulps
        assert np.max(np.abs(new.view(np.int64) - old.view(np.int64))) <= 8

    @pytest.mark.parametrize("name", SHAPES)
    def test_direct_side_within_1e_12_of_scalar_form(self, name):
        x = np.geomspace(0.5, 1e3, 4001)
        old = [getattr(oracles, name)(float(v)) for v in x]
        np.testing.assert_allclose(getattr(_series, name)(x), old,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", SHAPES)
    def test_float_in_float_out_equal_to_array_call(self, name):
        f = getattr(_series, name)
        x = np.concatenate(([0.0, 0.5], np.geomspace(1e-8, 1e3, 301)))
        scalars = [f(float(v)) for v in x]
        assert all(isinstance(s, float) for s in scalars)
        assert np.array_equal(f(x), scalars)

    @pytest.mark.parametrize("turn_on", [True, False])
    def test_fde_sigma_over_times_equals_scalar_calls(self, turn_on):
        # Tc = 25 h stays on the series side, Tc = 1 h crosses the cutover
        m = GyroErrorModel.from_deg(0.003, ((0.01, 1.0), (0.005, 1.5),
                                            (0.02, 25.0)), turn_on)
        times = np.linspace(0.0, 10.0, 301)
        b = fde_sigma(m, P, times)
        one = [fde_sigma(m, P, float(t)) for t in times]
        for f in dataclasses.fields(b):
            col = getattr(b, f.name)
            assert col.shape == times.shape
            assert np.array_equal(col, [getattr(o, f.name) for o in one]), f.name
            assert isinstance(getattr(one[-1], f.name), float)
