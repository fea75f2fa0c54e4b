"""Allan variance: analytic model, estimator, landmarks, drift identification.

For white noise of amplitude N plus first-order Markov drifts (K_i, Tc_i) the
Allan variance has the closed form

    sigma^2(tau) = N^2/tau
        + sum_i K_i^2 Tc_i^2 / tau * (1 - Tc_i/(2 tau) * (3 - 4 e^(-tau/Tc_i)
                                                            + e^(-2 tau/Tc_i)))

The curve falls as tau^(-1/2) (noise), rises as tau^(+1/2) (drift), and rolls
off again past Tc.  The local maximum of the drift term sits at
tau = 1.89 Tc with ordinate 0.437 K sqrt(Tc); inverting a measured maximum
therefore recovers both K and Tc, which the minimum (1.074 sqrt(NK), at
sqrt(3) N/K) cannot do because it carries no Tc information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from ._series import atrk_inflight_shape
from .gyro import DriftSpec, GyroErrorModel, RateTrace
from .units import DEG, HOUR_S

__all__ = [
    "AllanCurve", "AllanLandmarks",
    "allan_variance_analytic", "allan_deviation_analytic",
    "allan_variance_empirical", "allan_landmarks_analytic",
    "identify_from_max", "landmarks_to_json", "default_tau_grid",
    "estimator_dof", "confidence_band",
    "TAU_MAX_OVER_TC", "SIGMA_MAX_OVER_K_SQRT_TC",
]

# Landmark constants of the drift term (used by identify_from_max).
TAU_MAX_OVER_TC = 1.89
SIGMA_MAX_OVER_K_SQRT_TC = 0.437


@dataclass
class AllanCurve:
    """(tau, sigma) samples in h and rad/h; source is 'analytic' or 'empirical'."""

    taus: np.ndarray
    sigmas: np.ndarray
    source: str

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        if np.any(np.diff(self.taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        if not np.all(self.sigmas >= 0):
            raise ValueError("sigmas must be >= 0 (and not NaN)")
        if self.source not in ("analytic", "empirical"):
            raise ValueError(f"bad source {self.source!r}")

    def to_csv(self, path) -> None:
        """Header ``tau_s,sigma_deg_per_h``."""
        write_csv(path, ("tau_s", "sigma_deg_per_h"),
                  self.taus * HOUR_S, self.sigmas / DEG)


@dataclass
class AllanLandmarks:
    """Numerically located extrema of the analytic curve, plus the closed-form
    approximations sqrt(3) N/K, 1.074 sqrt(NK), 1.89 Tc, 0.437 K sqrt(Tc).

    A landmark that does not exist as an interior extremum (e.g. drift buried
    under the noise floor) is None; the numeric values are authoritative, the
    closed forms advisory.
    """

    tau_min: float | None
    sigma_min: float | None
    tau_max: float | None
    sigma_max: float | None
    tau_min_approx: float
    sigma_min_approx: float
    tau_max_approx: float
    sigma_max_approx: float

    def __post_init__(self):
        if self.tau_min is not None and self.tau_max is not None:
            if not self.tau_min < self.tau_max:
                raise ValueError("tau_min must precede tau_max")

    def report(self, identified: DriftSpec | None = None) -> dict:
        """JSON-ready landmark report (seconds / deg units)."""
        def _s(tau):
            return None if tau is None else tau * HOUR_S

        def _d(sig):
            return None if sig is None else sig / DEG

        rep = {
            "tau_min_s": _s(self.tau_min),
            "sigma_min_deg_per_h": _d(self.sigma_min),
            "tau_max_s": _s(self.tau_max),
            "sigma_max_deg_per_h": _d(self.sigma_max),
        }
        if identified is not None:
            rep["K_deg_per_h32"] = identified.K / DEG
            rep["Tc_h"] = identified.Tc
        else:
            rep["K_deg_per_h32"] = None
            rep["Tc_h"] = None
        return rep


def allan_variance_analytic(m: GyroErrorModel, tau) -> np.ndarray | float:
    """Closed-form Allan variance at tau (h); accepts scalars or arrays. rad^2/h^2.

    A drift's term is its along-track in-flight variance on a unit-radius
    flight of length tau, over tau^2: K^2 Tc^3 times the along-track shape at
    tau/Tc, series included.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be > 0")
    drift = 0.0 * tau
    for d in m.drifts:
        drift = drift + d.K * d.K * d.Tc ** 3 * atrk_inflight_shape(tau / d.Tc)
    return (m.noise.N ** 2 / tau + drift / (tau * tau))[()]


def allan_deviation_analytic(m: GyroErrorModel, tau) -> np.ndarray | float:
    return np.sqrt(allan_variance_analytic(m, tau))


def default_tau_grid(dt: float, duration: float,
                     points_per_decade: int = 10) -> np.ndarray:
    """Log-spaced taus from 2 dt to duration/5, quantized to multiples of dt."""
    lo, hi = 2.0 * dt, duration / 5.0
    if hi < lo:
        raise ValueError("record too short for any tau")
    n = max(2, int(round(points_per_decade * math.log10(hi / lo))) + 1)
    taus = np.geomspace(lo, hi, n)
    mult = np.unique(np.round(taus / dt).astype(int))
    return mult[mult >= 1] * dt


def allan_variance_empirical(trace: RateTrace, taus) -> AllanCurve:
    """Fully overlapping two-sample deviation estimate of a rate trace.

    Each tau must be an integer multiple of the trace step and satisfy
    2 tau <= duration; every admissible start index contributes one squared
    difference of consecutive window means (partial windows are excluded).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    x = trace.samples
    n = len(x)
    # Constant offsets cancel in the window-mean differences; removing the
    # sample mean first makes that exact in floating point as well.
    theta = np.concatenate(([0.0], np.cumsum(x - x.mean()) * trace.dt))
    sigmas = np.empty(len(taus))
    for j, tau in enumerate(taus):
        m = tau / trace.dt
        m_int = int(round(m))
        if abs(m - m_int) > 1e-9 * max(m, 1.0) or m_int < 1:
            raise ValueError(f"tau={tau} is not an integer multiple of dt={trace.dt}")
        if 2 * m_int > n:
            raise ValueError(f"tau={tau} too large: 2 tau exceeds the record")
        d = (theta[2 * m_int:] - 2.0 * theta[m_int:n - m_int + 1]
             + theta[: n - 2 * m_int + 1])
        avar = np.mean(d * d) / (2.0 * (m_int * trace.dt) ** 2)
        sigmas[j] = math.sqrt(avar)
    return AllanCurve(taus=taus, sigmas=sigmas, source="empirical")


def _golden_log_extremum(f, lo: float, mid: float, hi: float) -> float:
    """Golden-section refinement of a bracketed minimum of f on log-tau.

    The loop of scipy's ``minimize_scalar(method="golden", xtol=1e-12)`` for a
    three-point bracket, step for step, so the landmarks come out bit-identical
    without importing scipy.optimize.
    """
    g = lambda u: f(math.exp(u))
    x0, xb, x3 = math.log(lo), math.log(mid), math.log(hi)
    if not x0 < xb < x3:
        raise ValueError("bracket must satisfy lo < mid < hi")
    fb = g(xb)
    if not (fb < g(x0) and fb < g(x3)):
        raise ValueError("bracket must satisfy f(mid) < f(lo) and f(mid) < f(hi)")
    gR = 0.61803399  # scipy's rounding of the golden ratio conjugate
    gC = 1.0 - gR
    if abs(x3 - xb) > abs(xb - x0):
        x1, x2 = xb, xb + gC * (x3 - xb)
    else:
        x1, x2 = xb - gC * (xb - x0), xb
    f1, f2 = g(x1), g(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= 1e-12 * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = gR * x1 + gC * x3
            f2 = g(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = gR * x2 + gC * x0
            f1 = g(x1)
    return math.exp(x1 if f1 < f2 else x2)


def allan_landmarks_analytic(m: GyroErrorModel) -> AllanLandmarks:
    """Locate the curve's interior minimum and maximum for a one-drift model."""
    if len(m.drifts) != 1:
        raise ValueError("landmark extraction needs exactly one drift process")
    d = m.drifts[0]
    N, K, Tc = m.noise.N, d.K, d.Tc
    if N <= 0 or K <= 0:
        raise ValueError("landmarks require N > 0 and K > 0")

    tau_min_cf = math.sqrt(3.0) * N / K
    sigma_min_cf = math.sqrt(2.0 / math.sqrt(3.0)) * math.sqrt(N * K)
    tau_max_cf = TAU_MAX_OVER_TC * Tc
    sigma_max_cf = SIGMA_MAX_OVER_K_SQRT_TC * K * math.sqrt(Tc)

    lo = min(tau_min_cf, Tc) / 1e3
    hi = max(tau_max_cf, tau_min_cf) * 1e3
    grid = np.geomspace(lo, hi, max(200, int(60 * math.log10(hi / lo))))
    sig = np.sqrt(allan_variance_analytic(m, grid))

    tau_min = sigma_min = tau_max = sigma_max = None
    interior = np.arange(1, len(grid) - 1)
    mins = interior[(sig[interior] < sig[interior - 1]) & (sig[interior] <= sig[interior + 1])]
    if len(mins):
        i = mins[0]
        tau_min = _golden_log_extremum(lambda t: math.sqrt(allan_variance_analytic(m, t)),
                                       grid[i - 1], grid[i], grid[i + 1])
        sigma_min = math.sqrt(allan_variance_analytic(m, tau_min))
    maxs = interior[(sig[interior] > sig[interior - 1]) & (sig[interior] >= sig[interior + 1])]
    if len(maxs):
        i = maxs[-1]
        tau_max = _golden_log_extremum(lambda t: -math.sqrt(allan_variance_analytic(m, t)),
                                       grid[i - 1], grid[i], grid[i + 1])
        sigma_max = math.sqrt(allan_variance_analytic(m, tau_max))

    return AllanLandmarks(tau_min, sigma_min, tau_max, sigma_max,
                          tau_min_cf, sigma_min_cf, tau_max_cf, sigma_max_cf)


def identify_from_max(tau_max: float, sigma_max: float) -> DriftSpec:
    """Recover (K, Tc) from the measured Allan maximum: Tc = tau_max/1.89,
    K = sigma_max / (0.437 sqrt(Tc))."""
    if tau_max <= 0 or sigma_max <= 0:
        raise ValueError("tau_max and sigma_max must be > 0")
    Tc = tau_max / TAU_MAX_OVER_TC
    K = sigma_max / (SIGMA_MAX_OVER_K_SQRT_TC * math.sqrt(Tc))
    return DriftSpec(K=K, Tc=Tc)


def landmarks_to_json(path, lm: AllanLandmarks,
                      identified: DriftSpec | None = None) -> None:
    write_json(path, lm.report(identified))


# --------------------------------------------------------------------------
# Estimator statistics: effective degrees of freedom of the overlapping
# estimator under the model, for confidence banding.
# --------------------------------------------------------------------------

def _window_sum_cov(d: DriftSpec, dt: float, m: int, max_lag: int) -> np.ndarray:
    """Cov(S_0, S_L) for L = 0..max_lag, S_k = sum of m consecutive drift states.

    The discrete chain is stationary with Cov(s_i, s_j) = V q^|i-j|,
    V = K^2 dt / (1 - q^2); the window-sum covariance is that kernel
    convolved with a triangle of half-width m.
    """
    from scipy.signal import fftconvolve

    q = math.exp(-dt / d.Tc)
    V = d.K * d.K * dt / (1.0 - q * q)
    lags = np.arange(-(m - 1), max_lag + m)
    kernel = V * q ** np.abs(lags)
    tri = (m - np.abs(np.arange(-(m - 1), m))).astype(float)
    full = fftconvolve(kernel, tri)
    # full[i] corresponds to lag lags[0] + (-(m-1)) + i; lag 0 sits at 2(m-1)
    out = full[2 * (m - 1): 2 * (m - 1) + max_lag + 1]
    return out


def _second_diff_cov(model: GyroErrorModel, dt: float, m: int,
                     max_lag: int) -> np.ndarray:
    """Cov(d_0, d_l), l = 0..max_lag, of overlapping second differences d_k of
    the integrated rate, in (rad)^2 (angle units)."""
    # white part: d is a +-1 weighted sum of m-blocks of iid increments
    l = np.arange(max_lag + 1)
    gw = np.zeros(max_lag + 1)
    in1 = l <= m
    gw[in1] = 2 * m - 3 * l[in1]
    in2 = (l > m) & (l <= 2 * m)
    gw[in2] = l[in2] - 2 * m
    cov = model.noise.N ** 2 * dt * gw
    # drift part via window-sum covariances, padded so index l+m exists
    for d in model.drifts:
        cs = _window_sum_cov(d, dt, m, max_lag + m)
        csl = cs[: max_lag + 1]
        cs_plus = cs[m: m + max_lag + 1]
        cs_minus = cs[np.abs(l - m)]
        cov = cov + dt * dt * (2.0 * csl - cs_plus - cs_minus)
    return cov


def estimator_dof(model: GyroErrorModel, dt: float, n_samples: int,
                  taus) -> np.ndarray:
    """Effective chi-square degrees of freedom of the overlapping estimator.

    Treats the Allan-variance estimate (a quadratic form in the Gaussian
    record) as a scaled chi-square matched in mean and variance:
    nu = 2 E^2 / Var.  This is the effective count of independent windows;
    it reduces to ~2n/3 for pure white noise and shrinks when drift
    correlations (range Tc) span many windows.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    nu = np.empty(len(taus))
    for j, tau in enumerate(taus):
        m = int(round(tau / dt))
        M = n_samples - 2 * m + 1
        if m < 1 or M < 1:
            raise ValueError(f"tau={tau} incompatible with the record")
        cov = _second_diff_cov(model, dt, m, M - 1)
        w = 1.0 - np.arange(M) / M
        c0 = cov[0]
        denom = c0 * c0 + 2.0 * np.sum(w[1:] * cov[1:] ** 2)
        nu[j] = M * c0 * c0 / denom
    return nu


def confidence_band(model: GyroErrorModel, dt: float, n_samples: int,
                    taus, confidence: float = 0.99):
    """(lo, hi) multiplicative band on the Allan deviation around the analytic
    curve at the given confidence, from the estimator's effective dof."""
    from scipy.stats import chi2

    nu = estimator_dof(model, dt, n_samples, taus)
    alpha = (1.0 - confidence) / 2.0
    lo = np.sqrt(chi2.ppf(alpha, nu) / nu)
    hi = np.sqrt(chi2.ppf(1.0 - alpha, nu) / nu)
    return lo, hi
