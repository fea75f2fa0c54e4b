"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with the measured
values (run with ``pytest tests/test_acceptance.py -v -s`` to see them all).
Statistical criteria run on fixed documented seeds and are fully
deterministic.

Criterion 8 is asserted exactly as specified and is expected to FAIL: the
required time-constant trade factor of ~3.2 between Tc = 1 h and Tc = 10 h is
not what the closed-form error expressions produce (they give ~6.2), and the
value it would require for the Tc = 1 h plateau (~1.2e-2 deg/h^1.5)
contradicts criterion 7's own endpoint (~2.1e-2 deg/h^1.5), which this
toolkit reproduces.  The failure message carries the analysis.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import oracles
from gyrofde.allan import (allan_landmarks_analytic, allan_variance_analytic,
                           allan_variance_empirical, confidence_band,
                           default_tau_grid)
from gyrofde.budget import FlightProfile, fde_sigma
from gyrofde.gyro import DriftSpec, GyroErrorModel, synthesize_rate_trace
from gyrofde.montecarlo import compare_to_analytic, run_ensemble
from gyrofde.tradestudy import RequirementTarget, solve_K
from gyrofde.units import DEG

SEC = 1.0 / 3600.0
FIG3 = GyroErrorModel.from_deg(5e-4, ((0.03, 10.0),))  # 0.03 (deg/h)/sqrt(Hz)
BENCHMARK = GyroErrorModel.from_deg(0.005, ((0.01, 1.0),))
P10 = FlightProfile()  # 900 km/h, 10 h
RNP10 = RequirementTarget()


def report(num: int, ok: bool, budget_s: float, elapsed: float, detail: str) -> str:
    line = (f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} "
            f"[{elapsed:.2f}s / budget {budget_s:g}s] {detail}")
    print(line)
    return line


def test_criterion_1_allan_minimum_value():
    t0 = time.time()
    lm = allan_landmarks_analytic(FIG3)
    sigma_min_deg = lm.sigma_min / DEG
    elapsed = time.time() - t0
    ok = abs(sigma_min_deg - 4.1e-3) / 4.1e-3 < 0.03 and elapsed < 1.0
    line = report(1, ok, 1, elapsed,
                  f"sigma_min = {sigma_min_deg:.4e} deg/h (target 4.1e-3 +-3%)")
    assert ok, line


def test_criterion_2_allan_maximum_landmarks():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    worst_x, worst_r = 0.0, 0.0
    for _ in range(20):
        K = 10.0 ** rng.uniform(-3, -1) * DEG
        Tc = 10.0 ** rng.uniform(-1, 1.5)
        drift_only = GyroErrorModel(0.0, (DriftSpec(K, Tc),))

        def neg_sigma(logtau):
            return -math.sqrt(allan_variance_analytic(drift_only, math.exp(logtau)))

        res = minimize_scalar(neg_sigma,
                              bracket=(math.log(0.5 * Tc), math.log(2 * Tc),
                                       math.log(8 * Tc)),
                              method="golden", options={"xtol": 1e-12})
        tau_max, sigma_max = math.exp(res.x), -res.fun
        worst_x = max(worst_x, abs(tau_max / Tc - 1.89))
        worst_r = max(worst_r, abs(sigma_max / (K * math.sqrt(Tc)) - 0.437))
    elapsed = time.time() - t0
    ok = worst_x <= 0.01 and worst_r <= 0.002 and elapsed < 1.0
    line = report(2, ok, 1, elapsed,
                  f"max |tau_max/Tc - 1.89| = {worst_x:.4f} (<=0.01), "
                  f"max |ratio - 0.437| = {worst_r:.5f} (<=0.002), 20 draws")
    assert ok, line


def _xminus_em_ref(x: float) -> float:
    if x >= 0.25:
        return x - (1.0 - math.exp(-x))
    total, term = 0.0, x
    for k in range(2, 80):
        term *= -x / k
        total -= term
    return total


def test_criterion_3_algebraic_consistency():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst_a = worst_x = 0.0
    for _ in range(1000):
        K = 10.0 ** rng.uniform(-4, -1) * DEG
        Tc = 10.0 ** rng.uniform(-2, 1.7)
        t = 10.0 ** rng.uniform(-3, 1.5)
        m = GyroErrorModel(0.0, (DriftSpec(K, Tc),), turn_on=True)
        b = fde_sigma(m, FlightProfile(duration=max(t, 1.0)), t)
        # along-track split terms against the combined drift form
        drift, turnon = b.atrk_drift, b.atrk_turnon
        total = K * K * Tc ** 3 * P10.R ** 2 * _xminus_em_ref(t / Tc)
        worst_a = max(worst_a, abs(drift + turnon - total) / total)
        # cross-track terms against the assembled total
        nx, dx, tx = b.xtrk_noise, b.xtrk_drift, b.xtrk_turnon
        worst_x = max(worst_x, abs(b.sigma_xtrk ** 2 - (nx + dx + tx))
                      / max(b.sigma_xtrk ** 2, 1e-300))
    elapsed = time.time() - t0
    ok = worst_a <= 1e-12 and worst_x <= 1e-12 and elapsed < 1.0
    line = report(3, ok, 1, elapsed,
                  f"worst ATRK split residual {worst_a:.2e}, "
                  f"worst XTRK sum residual {worst_x:.2e} (<=1e-12), 1000 triples")
    assert ok, line


def test_criterion_4_small_time_oracles():
    t0 = time.time()
    K, R, v = 0.02 * DEG, P10.R, P10.v
    worst_taylor_a = worst_taylor_x = worst_oracle_a = worst_oracle_x = 0.0
    for Tc in (0.8, 5.0):
        for frac in (1 / 100, 1 / 300):
            t = Tc * frac
            m = GyroErrorModel(0.0, (DriftSpec(K, Tc),))
            b = fde_sigma(m, P10, t)
            da, dx = b.atrk_drift, b.xtrk_drift
            worst_taylor_a = max(worst_taylor_a,
                                 abs(da / (K * K * R * R * t ** 3 / 3) - 1))
            worst_taylor_x = max(worst_taylor_x,
                                 abs(dx / (K * K * v * v * t ** 5 / 20) - 1))
            worst_oracle_a = max(worst_oracle_a,
                                 abs(da / oracles.atrk_drift_var(K, Tc, R, t) - 1))
            worst_oracle_x = max(worst_oracle_x,
                                 abs(dx / oracles.xtrk_drift_var(K, Tc, v, t) - 1))
    elapsed = time.time() - t0
    ok = (worst_taylor_a < 0.01 and worst_taylor_x < 0.01
          and worst_oracle_a < 0.02 and worst_oracle_x < 0.02 and elapsed < 10.0)
    line = report(4, ok, 10, elapsed,
                  f"taylor dev ATRK {worst_taylor_a:.4f} / XTRK {worst_taylor_x:.4f} "
                  f"(<0.01); double-sum dev ATRK {worst_oracle_a:.4f} / "
                  f"XTRK {worst_oracle_x:.4f} (<0.02)")
    assert ok, line


def test_criterion_5_turnon_ratios():
    t0 = time.time()
    b = fde_sigma(GyroErrorModel.from_deg(0.0, ((0.01, 0.5),)), P10, 10.0)
    atrk = b.atrk_turnon / (b.atrk_drift + b.atrk_turnon)
    b = fde_sigma(GyroErrorModel.from_deg(0.0, ((0.01, 1.0),)),
                  FlightProfile(duration=20.0), 20.0)
    xtrk = b.xtrk_turnon / (b.xtrk_drift + b.xtrk_turnon)
    elapsed = time.time() - t0
    ok = (abs(atrk - 0.025) <= 0.002 and abs(xtrk - 0.075) <= 0.005
          and elapsed < 1.0)
    line = report(5, ok, 1, elapsed,
                  f"ATRK ratio {atrk:.4f} (2.5% +-0.2%), "
                  f"XTRK ratio {xtrk:.4f} (7.5% +-0.5%)")
    assert ok, line


@pytest.mark.slow
def test_criterion_6_monte_carlo_validation():
    t0 = time.time()
    stats = run_ensemble(BENCHMARK, P10, n_flights=100, n_groups=10,
                         master_seed=42, stat_stride=900)
    rep = compare_to_analytic(stats, BENCHMARK, P10, confidence=0.95)
    checks = []
    details = []
    for t, j in ((2.5, 10), (5.0, 20), (10.0, 40)):  # stat times every 0.25 h
        assert rep.times[j] == pytest.approx(t)
        ca, cx = rep.coverage[:, j]  # ATRK, XTRK
        pa, px = rep.pooled_rel_dev[:, j]
        checks += [ca >= 0.8, cx >= 0.8, abs(pa) < 0.10, abs(px) < 0.10]
        details.append(f"t={t}: cover {ca:.1f}/{cx:.1f} pooled {pa:+.3f}/{px:+.3f}")
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 300.0
    line = report(6, ok, 300, elapsed,
                  "10x100 flights, seed 42; " + "; ".join(details))
    assert ok, line


def test_criterion_7_contour_endpoints():
    t0 = time.time()
    k = solve_K(1e-3 * DEG, 1.0, RNP10)
    k_deg = k / DEG
    lo, hi = 1e-2 * DEG, 4e-2 * DEG
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if solve_K(mid, 1.0, RNP10) is None:
            hi = mid
        else:
            lo = mid
    boundary_deg = 0.5 * (lo + hi) / DEG
    elapsed = time.time() - t0
    ok = (abs(k_deg - 2.1e-2) / 2.1e-2 <= 0.10
          and abs(boundary_deg - 2e-2) / 2e-2 <= 0.10 and elapsed < 5.0)
    line = report(7, ok, 5, elapsed,
                  f"K plateau {k_deg:.4e} deg/h^1.5 (2.1e-2 +-10%); "
                  f"noise-only boundary {boundary_deg:.4e} deg/sqrt(h) (2e-2 +-10%)")
    assert ok, line


def test_criterion_8_Tc_trade_factor():
    t0 = time.time()
    k1 = solve_K(1e-3 * DEG, 1.0, RNP10)
    k10 = solve_K(1e-3 * DEG, 10.0, RNP10)
    factor = k1 / k10
    elapsed = time.time() - t0
    ok = abs(factor - 3.2) <= 0.3 and elapsed < 5.0
    line = report(8, ok, 5, elapsed,
                  f"K(Tc=1h)/K(Tc=10h) = {factor:.2f} (required 3.2 +-0.3); "
                  f"K(1h) = {k1 / DEG:.4e}, K(10h) = {k10 / DEG:.4e} deg/h^1.5")
    assert ok, (
        line + "\nThe closed forms give a trade factor of ~6.2: the same "
        "K(Tc=1h) ~ 2.17e-2 endpoint that criterion 7 accepts (2.1e-2 +-10%) "
        "is mathematically incompatible with a 3.2x ratio against "
        "K(Tc=10h) ~ 3.5e-3. A 3.2x factor would need K(Tc=1h) ~ 1.2e-2, "
        "which criterion 7 rejects. Both endpoints cannot hold at once; the "
        "solver is internally consistent (round-trip and residual checks in "
        "tests/test_tradestudy.py).")


def test_criterion_9_empirical_allan_estimator():
    t0 = time.time()
    duration = 48.0
    trace = synthesize_rate_trace(FIG3, duration, SEC, seed=0)
    taus = default_tau_grid(SEC, duration)
    taus = taus[(taus >= 10 * SEC - 1e-12) & (taus <= 4.8 + 1e-12)]
    curve = allan_variance_empirical(trace, taus)
    analytic = np.sqrt(allan_variance_analytic(FIG3, taus))
    lo, hi = confidence_band(FIG3, SEC, len(trace.samples), taus, 0.99)
    ratio = curve.sigmas / analytic
    inside = (ratio >= lo) & (ratio <= hi)
    elapsed = time.time() - t0
    ok = bool(np.all(inside)) and elapsed < 60.0
    line = report(9, ok, 60, elapsed,
                  f"48 h trace, seed 0: {int(inside.sum())}/{len(taus)} taus inside "
                  f"the 99% band over [10 s, 4.8 h]")
    assert ok, line


def test_benchmark_value_self_consistency_note():
    # The published heat-map places the (0.005, 0.01, 1 h) pairing just under
    # the 10 nmi ceiling; the closed forms put it near 5.2 nmi.  The suite
    # asserts the toolkit's self-consistent value and emits this note.
    b = fde_sigma(BENCHMARK, P10, 10.0)
    assert b.fde95_nmi == pytest.approx(5.2117, rel=1e-3)
    print(f"NOTE: benchmark pairing N=0.005 deg/sqrt(h), K=0.01 deg/h^1.5, "
          f"Tc=1 h evaluates to {b.fde95_nmi:.2f} nmi at 95% (10 h, 900 km/h); "
          f"commonly quoted charts place it just under 10 nmi. The toolkit "
          f"reports its self-consistent closed-form value.")
