import math
import os
import pathlib
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from gyrofde import allan
from gyrofde.allan import (AllanCurve, allan_landmarks_analytic,
                           allan_variance_analytic, allan_variance_empirical,
                           confidence_band, default_tau_grid, estimator_dof,
                           identify_from_max)
from gyrofde.gyro import DriftSpec, GyroErrorModel, RateTrace, synthesize_rate_trace
from gyrofde.units import DEG
from oracles import (allan_landmarks_decimal, allan_variance_empirical_per_tau,
                     estimator_dof_direct, estimator_dof_per_tau)

SEC = 1.0 / 3600.0

FIG3 = GyroErrorModel.from_deg(5e-4, ((0.03, 10.0),))  # N=0.03 (deg/h)/sqrt(Hz)


class TestAnalytic:
    def test_one_second_ordinate_equals_arw(self):
        sigma = math.sqrt(allan_variance_analytic(FIG3, SEC))
        assert sigma / DEG == pytest.approx(0.03, rel=1e-3)

    def test_noise_only_is_N2_over_tau(self):
        m = GyroErrorModel(0.004, ())
        for tau in (1e-4, 0.3, 7.0):
            assert allan_variance_analytic(m, tau) == 0.004 ** 2 / tau

    def test_drift_short_tau_limit(self):
        # K^2 tau / 3 within 1% for tau <= Tc/100
        d = DriftSpec(K=0.02, Tc=5.0)
        m = GyroErrorModel(0.0, (d,))
        for tau in (d.Tc / 100, d.Tc / 1000):
            assert allan_variance_analytic(m, tau) == pytest.approx(
                d.K ** 2 * tau / 3, rel=0.01)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            allan_variance_analytic(FIG3, 0.0)

    def test_multi_drift_additivity_exact(self):
        d1, d2 = DriftSpec(0.02, 0.3), DriftSpec(0.005, 4.0)
        N = 0.001
        both = GyroErrorModel(N, (d1, d2))
        taus = np.geomspace(1e-3, 50, 40)
        total = allan_variance_analytic(both, taus)
        parts = (allan_variance_analytic(GyroErrorModel(N, (d1,)), taus)
                 + allan_variance_analytic(GyroErrorModel(0.0, (d2,)), taus))
        np.testing.assert_allclose(total, parts, rtol=1e-15)

    def test_loglog_slopes(self):
        # -1/2 (noise), +1/2 (drift rise), -1/2 (past Tc), within 0.05
        m = GyroErrorModel(1e-6, (DriftSpec(1e-2, 1e7),))
        tau_min = math.sqrt(3) * 1e-6 / 1e-2

        def slope(tau):
            f = 1.1
            lo = math.sqrt(allan_variance_analytic(m, tau / f))
            hi = math.sqrt(allan_variance_analytic(m, tau * f))
            return math.log(hi / lo) / math.log(f * f)

        assert slope(tau_min / 1e3) == pytest.approx(-0.5, abs=0.05)
        assert slope(tau_min * 1e3) == pytest.approx(+0.5, abs=0.05)
        assert slope(1.89 * 1e7 * 1e3) == pytest.approx(-0.5, abs=0.05)


class TestEmpirical:
    def test_constant_trace_gives_zero(self):
        trace = RateTrace(dt=SEC, samples=np.full(2000, 0.7))
        curve = allan_variance_empirical(trace, [10 * SEC, 100 * SEC])
        # zero up to the rounding of the sample mean (values ~1e-31)
        np.testing.assert_allclose(curve.sigmas, 0.0, atol=1e-20)

    def test_linear_ramp_closed_form(self):
        # rate r*t: consecutive window means differ by exactly r*tau
        r, dt, n = 0.5, SEC, 5000
        samples = r * np.arange(n) * dt
        trace = RateTrace(dt=dt, samples=samples)
        taus = np.array([10, 100, 500]) * SEC
        curve = allan_variance_empirical(trace, taus)
        np.testing.assert_allclose(curve.sigmas, r * taus / math.sqrt(2), rtol=1e-9)
        # slope +1 on log-log
        s = np.diff(np.log(curve.sigmas)) / np.diff(np.log(taus))
        np.testing.assert_allclose(s, 1.0, atol=1e-6)

    def test_white_noise_matches_analytic_within_3_estimator_std(self):
        N = 0.03 * DEG
        m = GyroErrorModel(N, ())
        trace = synthesize_rate_trace(m, 10.0, SEC, seed=4)
        taus = default_tau_grid(SEC, trace.duration)
        taus = taus[(taus >= 10 * SEC) & (taus <= 1.0)]
        curve = allan_variance_empirical(trace, taus)
        analytic = N / np.sqrt(taus)
        nu = estimator_dof(m, SEC, len(trace.samples), taus)
        tol = 3.0 * analytic / np.sqrt(2.0 * nu)
        assert np.all(np.abs(curve.sigmas - analytic) < tol)

    def test_rejects_bad_taus(self):
        trace = RateTrace(dt=SEC, samples=np.zeros(100))
        with pytest.raises(ValueError, match="multiple"):
            allan_variance_empirical(trace, [1.5 * SEC])
        with pytest.raises(ValueError, match="large"):
            allan_variance_empirical(trace, [60 * SEC])


class TestLandmarks:
    def test_reference_model_minimum(self):
        lm = allan_landmarks_analytic(FIG3)
        assert lm.sigma_min / DEG == pytest.approx(4.1e-3, rel=0.03)
        d = FIG3.drifts[0]
        sigma_min_cf = math.sqrt(2 / math.sqrt(3)) * math.sqrt(FIG3.N * d.K)
        assert lm.sigma_min == pytest.approx(sigma_min_cf, rel=0.01)

    def test_reference_model_maximum(self):
        lm = allan_landmarks_analytic(FIG3)
        d = FIG3.drifts[0]
        assert lm.tau_max / d.Tc == pytest.approx(1.89, abs=0.01)
        assert lm.sigma_max / (d.K * math.sqrt(d.Tc)) == pytest.approx(0.437, abs=0.002)

    def test_maximum_absent_when_noise_buries_drift(self):
        m = GyroErrorModel(1.0, (DriftSpec(1e-6, 1.0),))
        lm = allan_landmarks_analytic(m)
        assert lm.tau_max is None and lm.sigma_max is None

    def test_minimum_insensitive_to_Tc(self):
        # vary Tc x10 with Tc >= 100 tau_min: sigma_min moves < 1%
        base = GyroErrorModel.from_deg(1e-4, ((0.05, 2.0),))
        wide = GyroErrorModel.from_deg(1e-4, ((0.05, 20.0),))
        a = allan_landmarks_analytic(base)
        b = allan_landmarks_analytic(wide)
        assert a.tau_min * 100 <= 2.0
        assert b.sigma_min == pytest.approx(a.sigma_min, rel=0.01)

    def test_random_models_match_the_decimal_bisection(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            # r >= 1e-3 keeps the minimum at x >= 1e-3, where the oracle's
            # shape keeps over 30 of its 40 digits
            r = 10 ** rng.uniform(-3.0, math.log10(0.25))
            K, Tc = 10 ** rng.uniform(-4.0, 0.0) * DEG, 10 ** rng.uniform(-2.0, 2.0)
            lm = allan_landmarks_analytic(GyroErrorModel(r * K * Tc, (DriftSpec(K, Tc),)))
            tau_min, sigma_min, tau_max, sigma_max = allan_landmarks_decimal(r * K * Tc, K, Tc)
            assert lm.tau_min == pytest.approx(tau_min, rel=1e-13, abs=0)
            assert lm.tau_max == pytest.approx(tau_max, rel=1e-13, abs=0)
            assert lm.sigma_min == pytest.approx(sigma_min, rel=1e-14, abs=0)
            assert lm.sigma_max == pytest.approx(sigma_max, rel=1e-14, abs=0)

    @pytest.mark.parametrize("K, Tc", [(1e-8, 1e-4), (0.03, 10.0), (1e2, 1e4)])
    def test_landmarks_exist_only_below_r_0_2518(self, K, Tc):
        """tau^2 times the slope over (K Tc)^2 is x^2 f'(x) - r^2, and
        x^2 f'(x) peaks at 0.25180^2, at x = 1.0107."""
        def landmarks(r):
            m = GyroErrorModel(r * K * DEG * Tc, (DriftSpec(K * DEG, Tc),))
            lm = allan_landmarks_analytic(m)
            return lm.tau_min, lm.sigma_min, lm.tau_max, lm.sigma_max

        tau_min, sigma_min, tau_max, sigma_max = landmarks(0.2515)
        assert tau_min < 1.0107 * Tc < tau_max and sigma_min < sigma_max
        assert landmarks(0.2519) == (None, None, None, None)

    @pytest.mark.parametrize("r", [0.25178, 0.25179])
    def test_landmarks_closer_than_a_grid_cell_are_found(self, r):
        """Just under the threshold both landmarks lie within one cell of
        the slope scan's grid; the scan's point at the peak of x^2 f'(x)
        separates them."""
        K, Tc = 0.03 * DEG, 10.0
        lm = allan_landmarks_analytic(GyroErrorModel(r * K * Tc, (DriftSpec(K, Tc),)))
        tau_min, sigma_min, tau_max, sigma_max = allan_landmarks_decimal(r * K * Tc, K, Tc)
        assert lm.tau_min == pytest.approx(tau_min, rel=1e-13, abs=0)
        assert lm.tau_max == pytest.approx(tau_max, rel=1e-13, abs=0)
        assert lm.sigma_min == pytest.approx(sigma_min, rel=1e-14, abs=0)
        assert lm.sigma_max == pytest.approx(sigma_max, rel=1e-14, abs=0)
        above = allan_landmarks_analytic(GyroErrorModel(0.2519 * K * Tc, (DriftSpec(K, Tc),)))
        assert (above.tau_min, above.sigma_min, above.tau_max, above.sigma_max) == (None,) * 4

    def test_preconditions(self):
        with pytest.raises(ValueError):
            allan_landmarks_analytic(GyroErrorModel(1.0, ()))
        with pytest.raises(ValueError):
            allan_landmarks_analytic(GyroErrorModel(0.0, (DriftSpec(1.0, 1.0),)))


@pytest.mark.parametrize("sig, want", [
    ([0.0, 2.0, 1.0, 3.0, 0.5], 3),  # two interior peaks: the higher
    ([0.0, 2.0, 1.0, 2.0, 0.5], 1),  # equal peaks: the first
    ([1.0, 2.0, 2.0, 1.0], 1),       # a plateau: its first sample
    ([3.0, 2.0, 1.0], None), ([1.0, 2.0, 3.0], None),
    ([], None), ([1.0], None), ([1.0, 2.0], None)])
def test_interior_maximum(sig, want):
    assert allan._interior_maximum(np.array(sig, dtype=float)) == want


class TestIdentifyFromMax:
    def test_definitional_inverse(self):
        d = identify_from_max(1.89, 0.437)
        assert d.Tc == pytest.approx(1.0, rel=1e-12)
        assert d.K == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_through_landmarks(self):
        for K, Tc in ((0.03, 10.0), (0.2, 0.4), (0.004, 2.5)):
            m = GyroErrorModel.from_deg(1e-4, ((K, Tc),))
            lm = allan_landmarks_analytic(m)
            d = identify_from_max(lm.tau_max, lm.sigma_max)
            assert d.K / DEG == pytest.approx(K, rel=0.015)
            assert d.Tc == pytest.approx(Tc, rel=0.015)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            identify_from_max(0.0, 1.0)
        with pytest.raises(ValueError):
            identify_from_max(1.0, -1.0)


class TestEstimatorBand:
    def test_white_noise_dof_matches_known_result(self):
        # overlapping estimator on pure white noise at tau = dt:
        # exact quadratic-form value 2M^2/(3M - 1), the classic 2n/3 asymptote
        m = GyroErrorModel(0.1, ())
        n = 5000
        M = n - 1
        nu = estimator_dof(m, SEC, n, [SEC])
        assert nu[0] == pytest.approx(2 * M * M / (3 * M - 1), rel=1e-9)
        assert nu[0] == pytest.approx(2 * n / 3, rel=1e-3)

    def test_dof_decreases_with_tau(self):
        nu = estimator_dof(FIG3, SEC, 20_000, np.array([2, 20, 200, 2000]) * SEC)
        assert np.all(np.diff(nu) < 0)

    @pytest.mark.parametrize("confidence", [0.999, 0.99, 0.95])
    def test_chi2_band_is_scipy_stats_bit_for_bit(self, confidence):
        from scipy.stats import chi2
        nu = np.concatenate([np.arange(1.0, 2000.0), np.geomspace(1.0, 1e6, 500)])
        tails = ((1.0 - confidence) / 2.0, (1.0 + confidence) / 2.0)
        for got, q in zip(allan._chi2_band(nu, confidence), tails):
            np.testing.assert_array_equal(got, np.sqrt(chi2.ppf(q, nu) / nu))
        # an int dof, as compare_to_analytic passes it
        for got, q in zip(allan._chi2_band(99, confidence), tails):
            assert got == math.sqrt(chi2.ppf(q, 99) / 99)

    def test_synthesized_trace_inside_99_band(self):
        # fixed seed; ~90% of seeds pass this 99%-band containment check
        m = GyroErrorModel.from_deg(5e-4, ((0.3, 0.02),))
        dt, duration = SEC, 2.0
        trace = synthesize_rate_trace(m, duration, dt, seed=3)
        taus = default_tau_grid(dt, duration)
        taus = taus[(taus >= 10 * dt) & (taus <= duration / 10)]
        curve = allan_variance_empirical(trace, taus)
        analytic = np.sqrt(allan_variance_analytic(m, taus))
        lo, hi = confidence_band(m, dt, len(trace.samples), taus, 0.99)
        assert np.all(curve.sigmas >= lo * analytic)
        assert np.all(curve.sigmas <= hi * analytic)


def test_default_tau_grid_properties():
    taus = default_tau_grid(SEC, 10.0)
    assert np.all(np.diff(taus) > 0)
    assert taus[0] >= 2 * SEC - 1e-12
    assert taus[-1] <= 2.0 + 1e-12
    mult = taus / SEC
    np.testing.assert_allclose(mult, np.round(mult), atol=1e-6)


def test_curve_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        AllanCurve(taus=[2.0, 1.0], sigmas=[1.0, 1.0])
    with pytest.raises(ValueError, match="sigmas"):
        AllanCurve(taus=[1.0, 2.0], sigmas=[1.0, np.nan])
    curve = AllanCurve(taus=[1.0, 2.0], sigmas=[0.5, 0.25])
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau_s,sigma_deg_per_h"
    assert float(lines[1].split(",")[0]) == pytest.approx(3600.0)


def test_curve_rejects_nonpositive_tau_and_infinite_sigma():
    for taus in ([0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="taus"):
            AllanCurve(taus=taus, sigmas=[1.0, 1.0])
    with pytest.raises(ValueError, match="sigmas"):
        AllanCurve(taus=[1.0, 2.0], sigmas=[1.0, np.inf])


def test_curve_rejects_infinite_tau():
    with pytest.raises(ValueError, match="taus"):
        AllanCurve(taus=[1.0, np.inf], sigmas=[1.0, 1.0])


def test_curve_from_csv_is_exact_on_what_to_csv_wrote(tmp_path):
    taus = default_tau_grid(SEC, 24.0)
    path = tmp_path / "curve.csv"
    AllanCurve(taus, np.sqrt(allan_variance_analytic(FIG3, taus))).to_csv(path)
    cells = [line.split(",") for line in path.read_text().splitlines()[1:]]
    back = AllanCurve.from_csv(path)
    assert np.array_equal(back.taus, [float(tau) / 3600 for tau, _ in cells])
    assert np.array_equal(back.sigmas, [float(sigma) * DEG for _, sigma in cells])


@pytest.mark.parametrize("body, match", [
    ("10,0.1\n20,abc\n30,0.1\n", "curve.csv:3: expected two numbers, got '20,abc'"),
    ("10,0.1\n# comment\n30,0.1\n", "curve.csv:3: expected two numbers"),
    ("10,0.1\n\n30,0.1\n", "curve.csv:3: expected two numbers, got ''"),
    ("10,0.1,1\n", "curve.csv:2: expected two numbers"),
    ('10,"0.1"\n', "curve.csv:2: expected two numbers"),
    ("", "curve.csv: no rows after the header"),
    ("20,0.1\n10,0.1\n", "curve.csv: taus must be finite, > 0 and strictly increasing"),
], ids=["bad-cell", "comment-line", "blank-line", "three-cells", "quoted-cell", "no-rows",
        "unordered-taus"])
def test_curve_from_csv_names_the_bad_line(tmp_path, body, match):
    path = tmp_path / "curve.csv"
    path.write_text("tau_s,sigma_deg_per_h\n" + body)
    with pytest.raises(ValueError, match=match):
        AllanCurve.from_csv(path)


# The Allan-trace model of the benchmark, the navigation-grade point, and
# models at the extremes of eps = dt/Tc.
DOF_MODELS = {
    "noise-only": GyroErrorModel.from_deg(5e-4, ()),
    "allan-trace": GyroErrorModel.from_deg(1e-4, ((0.03, 0.05),)),
    "navigation-grade": GyroErrorModel.from_deg(0.005, ((0.01, 1.0),)),
    "drift-only-Tc-100h": GyroErrorModel.from_deg(0.0, ((0.01, 100.0),)),
    "three-drifts": GyroErrorModel.from_deg(
        0.005, ((0.01, 1.0), (0.003, 10.0), (0.05, 0.002))),
}


def _second_diff_cov_exact(model, dt, m, max_lag):
    """dt^2 [2C(l) - C(l+m) - C(l-m)], C(L) = sum_u (m-|u|) R(L+u), summed in
    exact rationals from the float model parameters."""
    dt_q = Fraction(dt)
    white = Fraction(model.N) ** 2 / dt_q
    drifts = []
    for d in model.drifts:
        q = Fraction(math.exp(-dt / d.Tc))
        drifts.append((Fraction(d.K) ** 2 * dt_q / (1 - q * q), q))

    def R(k):
        return (white if k == 0 else 0) + sum(V * q ** abs(k) for V, q in drifts)

    def C(L):
        return sum((m - abs(u)) * R(L + u) for u in range(-(m - 1), m))

    return [dt_q ** 2 * (2 * C(l) - C(l + m) - C(l - m)) for l in range(max_lag + 1)]


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("name", list(DOF_MODELS))
def test_second_diff_cov_matches_exact_sum(name, m):
    model = DOF_MODELS[name]
    max_lag = 4 * m + 2  # both sides of l = 2m, where the tail takes over
    exact = [float(c) for c in _second_diff_cov_exact(model, SEC, m, max_lag)]
    got = allan._second_diff_cov(model, SEC, m, max_lag)
    assert len(got) == max_lag + 1
    np.testing.assert_allclose(got, exact, rtol=0, atol=1e-9 * exact[0])


# estimator_dof on default_tau_grid(1 s, 24 h), 86,400 samples, as computed
# by the former FFT window-sum convolution.
DOF_24H = {
    "allan-trace": [
        49702.11364622308, 38391.50183848464, 30610.294765159513,
        25318.276392472893, 21557.9380944116, 16598.343012437483,
        13442.809195414808, 10318.456152953153, 8202.85280573457,
        6259.279001385907, 4441.716035812217, 3226.9297282127563,
        2428.14548534273, 1804.8271594245234, 1387.477627154303,
        1070.3085209418828, 830.6840032016769, 655.2473343694811,
        517.2502375238761, 413.1032192400155, 331.4659080206084,
        266.09151284704575, 214.29414300272407, 172.94013588127063,
        140.004753110192, 113.38524712806556, 91.98907229565638,
        74.6287104787314, 60.49459076306267, 48.93277218643736,
        39.45075065033846, 31.644525579379795, 25.21822397625452,
        19.950359232308507, 15.647313032644236, 12.146620606155288,
        9.317226710651546, 7.045107574227813, 5.242001896548335],
    "navigation-grade": [
        49370.219311203786, 37930.14469371083, 30050.43310648699,
        24683.87167407128, 20873.26163742239, 15887.67792437622,
        12797.987558364937, 9893.999549332784, 8058.599360404544,
        6457.775111361869, 4973.39617183114, 3920.7816988212358,
        3156.6788679110655, 2489.267332038005, 1991.4395587252704,
        1578.471207869242, 1244.4062624953892, 987.7780346562446,
        779.3962219183834, 618.9799748809215, 491.8836569263196,
        389.70383979006846, 308.8733851615194, 244.73280055937056,
        194.11801486129545, 153.6255974987704, 121.36072466180518,
        95.3240702525863, 74.20211575241682, 57.06574594325168,
        43.34024436328479, 32.57758103821551, 24.36283468463147,
        18.235936515573442, 13.704350866744, 10.337049756796567,
        7.806403958563336, 5.875890003777217, 4.3908994842486955],
}


@pytest.mark.parametrize("name", list(DOF_24H))
def test_estimator_dof_matches_convolution_values(name):
    nu = estimator_dof(DOF_MODELS[name], SEC, 86_400, default_tau_grid(SEC, 24.0))
    np.testing.assert_allclose(nu, DOF_24H[name], rtol=1e-12, atol=0)


def test_estimator_dof_loads_no_scipy():
    """The dof is closed form; only confidence_band's chi-square needs scipy."""
    script = (
        "import sys\n"
        "from gyrofde.allan import default_tau_grid, estimator_dof\n"
        "from gyrofde.gyro import GyroErrorModel\n"
        "m = GyroErrorModel.from_deg(1e-4, ((0.03, 0.05),))\n"
        "estimator_dof(m, 1 / 3600, 86400, default_tau_grid(1 / 3600, 24.0))\n"
        "scipy = sorted(k for k in sys.modules if k.startswith('scipy'))\n"
        "assert not scipy, scipy\n")
    src = str(pathlib.Path(allan.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


DOF_ORACLE_MODELS = {**DOF_MODELS,
                     "drift-Tc-1e4h": GyroErrorModel.from_deg(0.005, ((0.01, 1e4),))}


@pytest.mark.parametrize("name", list(DOF_ORACLE_MODELS))
def test_estimator_dof_matches_direct_sum(name):
    """The closed-form tail against every lag summed, on the 24 h grid and on
    records whose tail is one lag long (m = 5), empty (m = 6, 9) or whose only
    lag is 0 (m = 10, M = 1)."""
    model = DOF_ORACLE_MODELS[name]
    for n, taus in ((86_400, default_tau_grid(SEC, 24.0)),
                    (20, np.array([5, 6, 9, 10]) * SEC)):
        np.testing.assert_allclose(estimator_dof(model, SEC, n, taus),
                                   estimator_dof_direct(model, SEC, n, taus),
                                   rtol=1e-13, atol=0)


def test_estimator_dof_work_per_tau_is_bounded_by_the_window(monkeypatch):
    """Only lags below 2m are built, not all n - 2m + 1."""
    lags = []

    def spy(model, dt, m, max_lag, G=None):
        lags.append((m, max_lag))
        return second_diff_cov(model, dt, m, max_lag, G)

    second_diff_cov = allan._second_diff_cov
    monkeypatch.setattr(allan, "_second_diff_cov", spy)
    taus = default_tau_grid(SEC, 24.0)
    estimator_dof(DOF_MODELS["three-drifts"], SEC, 86_400, taus)
    assert [m for m, _ in lags] == list(np.round(taus / SEC).astype(int))
    assert all(max_lag == 2 * m - 1 for m, max_lag in lags)


@pytest.mark.parametrize("name", list(DOF_MODELS))
def test_estimator_dof_is_the_per_tau_loop_bit_for_bit(name, monkeypatch):
    """One G serves every tau: the dof equals G rebuilt per tau, bit for bit,
    and _second_sum runs once per call."""
    sizes = []

    def spy(model, dt, size):
        sizes.append(size)
        return second_sum(model, dt, size)

    second_sum = allan._second_sum
    monkeypatch.setattr(allan, "_second_sum", spy)
    model, taus = DOF_MODELS[name], default_tau_grid(SEC, 24.0)
    got = estimator_dof(model, SEC, 86_400, taus)
    assert len(sizes) == 1
    monkeypatch.setattr(allan, "_second_sum", second_sum)
    assert got.tobytes() == estimator_dof_per_tau(model, SEC, 86_400, taus).tobytes()


@pytest.mark.parametrize("seed, hours, noise, drifts", [
    (3, 24.0, 1e-4, ((0.03, 0.05), (0.01, 1.0))),
    (4, 10.0, 0.0, ((0.03, 0.05), (0.01, 1.0))),
    (5, 5.0, 5e-4, ()),
], ids=["24h-noise-two-drifts", "10h-two-drifts", "5h-noise-only"])
def test_empirical_and_dof_are_the_per_tau_loops_bit_for_bit(seed, hours, noise, drifts):
    """One difference buffer for every tau leaves every sigma's bits."""
    model = GyroErrorModel.from_deg(noise, drifts)
    trace = synthesize_rate_trace(model, hours, SEC, seed=seed)
    taus = default_tau_grid(SEC, hours)
    got = allan_variance_empirical(trace, taus)
    want = allan_variance_empirical_per_tau(trace, taus)
    assert got.sigmas.tobytes() == want.sigmas.tobytes()
    n = len(trace.samples)
    assert (estimator_dof(model, SEC, n, taus).tobytes()
            == estimator_dof_per_tau(model, SEC, n, taus).tobytes())


def test_empty_tau_lists_give_empty_arrays():
    trace = RateTrace(dt=SEC, samples=np.zeros(100))
    nu = estimator_dof(FIG3, SEC, 100, [])
    lo, hi = confidence_band(FIG3, SEC, 100, [])
    curve = allan_variance_empirical(trace, [])
    for a in (nu, lo, hi, curve.taus, curve.sigmas):
        assert a.dtype == float and a.shape == (0,)


def test_default_tau_grid_is_unique_of_the_rounded_multiples():
    """Dropping repeated neighbours is np.unique on the nondecreasing grid."""
    rng = np.random.default_rng(20)
    for _ in range(2000):
        dt = 10 ** rng.uniform(-4, 1)
        duration = dt * 10 ** rng.uniform(1, 6)
        lo, hi = 2.0 * dt, duration / 5.0
        if hi < lo:
            continue
        n = max(2, int(round(10 * math.log10(hi / lo))) + 1)
        mult = np.unique(np.round(np.geomspace(lo, hi, n) / dt).astype(int))
        assert np.array_equal(default_tau_grid(dt, duration), mult[mult >= 1] * dt)


@pytest.mark.parametrize("a, L", [(1 / 90, 17281), (2e-8, 3), (2e-8, 17281), (1e-5, 1)])
def test_geometric_tail_sum_matches_decimal_sum(a, L):
    """T(a, L) = sum_(j=1..L) (L+1-j) e^(-aj), summed in 60 digits; the naive
    r/u^2 [Lu - r(1 - r^L)] loses 4e-11 at (2e-8, 17281) and 9e-3 at (2e-8, 3)."""
    with localcontext() as ctx:
        ctx.prec = 60
        r = (-Decimal(a)).exp()
        p, exact = Decimal(1), Decimal(0)
        for j in range(1, L + 1):
            p *= r
            exact += (L + 1 - j) * p
    assert allan._geometric_tail_sum(a, L) == pytest.approx(float(exact), rel=1e-15)


def test_dof_rejects_a_tau_that_is_no_multiple_of_dt():
    message = "is not an integer multiple of dt"
    with pytest.raises(ValueError, match=message):
        estimator_dof(FIG3, SEC, 1000, [1.5 * SEC])
    with pytest.raises(ValueError, match=message):
        confidence_band(FIG3, SEC, 1000, [2 * SEC, 1.5 * SEC])
    trace = RateTrace(dt=SEC, samples=np.zeros(1000))
    with pytest.raises(ValueError, match=message):
        allan_variance_empirical(trace, [1.5 * SEC])


@pytest.mark.parametrize("drifts", [(), ((0.03, 0.05),)], ids=["noise-only", "one-drift"])
def test_zero_amplitude_drift_leaves_the_dof_and_band(drifts):
    """A drift with K = 0 changes neither the dof nor the band, bit for bit,
    even where dt/Tc underflows to zero: the dof reads the drifts the
    budget reads."""
    bare = GyroErrorModel.from_deg(1e-4, drifts)
    zero = GyroErrorModel.from_deg(1e-4, drifts + ((0.0, 1e200),))
    taus = [SEC, 60 * SEC]
    assert (estimator_dof(zero, SEC, 3600, taus).tolist()
            == estimator_dof(bare, SEC, 3600, taus).tolist())
    for got, want in zip(confidence_band(zero, SEC, 3600, taus),
                         confidence_band(bare, SEC, 3600, taus)):
        assert got.tolist() == want.tolist()
