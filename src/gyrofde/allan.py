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
sqrt(3) N/K) cannot do because it carries no Tc information.  Both landmarks
are located where the curve's closed-form slope changes sign, to adjacent
doubles; with one drift they exist only while N/(K Tc) < 0.2518.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import read_csv, write_csv, write_json
from ._series import atrk_inflight_shape, xminus_em
from .budget import _drift_pairs
from .gyro import DriftSpec, GyroErrorModel, RateTrace, _whole_steps
from .units import DEG, HOUR_S

__all__ = [
    "AllanCurve", "AllanLandmarks",
    "allan_variance_analytic", "allan_variance_empirical",
    "allan_landmarks_analytic",
    "identify_from_max", "landmarks_to_json", "default_tau_grid",
    "estimator_dof", "confidence_band",
    "TAU_MAX_OVER_TC", "SIGMA_MAX_OVER_K_SQRT_TC",
]

# Landmark constants of the drift term (used by identify_from_max).
TAU_MAX_OVER_TC = 1.89
SIGMA_MAX_OVER_K_SQRT_TC = 0.437


@dataclass
class AllanCurve:
    """(tau, sigma) samples in h and rad/h."""

    taus: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        if not (np.isfinite(self.taus).all()
                and (np.diff(self.taus, prepend=0.0) > 0).all()):
            raise ValueError("taus must be finite, > 0 and strictly increasing")
        if not np.all(np.isfinite(self.sigmas) & (self.sigmas >= 0)):
            raise ValueError("sigmas must be finite and >= 0")

    def to_csv(self, path) -> None:
        """Header ``tau_s,sigma_deg_per_h``."""
        write_csv(path, ("tau_s", "sigma_deg_per_h"),
                  self.taus * HOUR_S, self.sigmas / DEG)

    @classmethod
    def from_csv(cls, path) -> "AllanCurve":
        """Read a ``to_csv`` curve."""
        tau_s, sigma = read_csv(path, ("tau_s", "sigma_deg_per_h"))
        try:
            return cls(tau_s / HOUR_S, sigma * DEG)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


@dataclass
class AllanLandmarks:
    """Extrema of the analytic curve: sign changes of its closed-form slope,
    each to adjacent doubles in tau.

    A landmark that does not exist as an interior extremum is None.  With one
    drift, tau^2 times the slope is (K Tc)^2 (x^2 f'(x) - r^2), x = tau/Tc,
    r = N/(K Tc) (f as in _allan_slope); x^2 f'(x) rises from 0 to 0.0634 at
    x = 1.0107 and then falls to -1, so both landmarks exist for r < 0.2518
    and neither does above.
    """

    tau_min: float | None
    sigma_min: float | None
    tau_max: float | None
    sigma_max: float | None

    def __post_init__(self):
        if self.tau_min is not None and self.tau_max is not None:
            if not self.tau_min < self.tau_max:
                raise ValueError("tau_min must precede tau_max")


def allan_variance_analytic(m: GyroErrorModel, tau) -> np.ndarray | float:
    """Closed-form Allan variance at tau (h); accepts scalars or arrays. rad^2/h^2.

    A drift's term is its along-track in-flight variance on a unit-radius
    flight of length tau, over tau^2: K^2 Tc^3 times the along-track shape at
    tau/Tc, series included.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be > 0")
    # numpy operands, as in budget._budget: an overflow meets np.errstate
    drift = 0.0 * tau
    for K, Tc in _drift_pairs(m):
        K, Tc = np.float64(K), np.float64(Tc)
        drift = drift + K * K * Tc ** 3 * atrk_inflight_shape(tau / Tc)
    return (np.float64(m.N) ** 2 / tau + drift / (tau * tau))[()]


def _allan_slope(m: GyroErrorModel, tau) -> np.ndarray | float:
    """d sigma^2/d tau at tau (h), rad^2/h^3: -N^2/tau^2 + sum_i K_i^2 f'(tau/Tc_i).

    A drift's term is K^2 Tc f(tau/Tc) with f(x) = S(x)/x^2, S the along-track
    shape, and S'(x) = (1 - e^-x)^2, so f'(x) = (x S'(x) - 2 S(x))/x^3.
    """
    tau = np.asarray(tau, dtype=float)
    # numpy operands, as in allan_variance_analytic
    slope = -np.float64(m.N) ** 2 / (tau * tau)
    for K, Tc in _drift_pairs(m):
        x = tau / np.float64(Tc)
        slope = slope + np.float64(K) ** 2 * (
            x * np.expm1(-x) ** 2 - 2.0 * atrk_inflight_shape(x)) / x ** 3
    return slope[()]


def default_tau_grid(dt: float, duration: float) -> np.ndarray:
    """Log-spaced taus from 2 dt to duration/5, 10 per decade, quantized to
    multiples of dt."""
    lo, hi = 2.0 * dt, duration / 5.0
    if hi < lo:
        raise ValueError("record too short for any tau")
    n = max(2, int(round(10 * math.log10(hi / lo))) + 1)
    # the multiples never decrease: np.unique without its import of numpy.ma
    mult = np.round(np.geomspace(lo, hi, n) / dt).astype(int)
    mult = mult[np.concatenate(([True], mult[1:] != mult[:-1]))]
    return mult[mult >= 1] * dt


def _window_length(tau: float, dt: float) -> int:
    """The window length m of tau = m dt, to 1e-9 relative."""
    m = _whole_steps(tau, dt)
    if m is None:
        raise ValueError(f"tau={tau} is not an integer multiple of dt={dt}")
    return m


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
    buf = np.empty(n)  # every tau's second differences, built in place
    for j, tau in enumerate(taus):
        m_int = _window_length(tau, trace.dt)
        if 2 * m_int > n:
            raise ValueError(f"tau={tau} too large: 2 tau exceeds the record")
        # d = (theta[2m:] - 2 theta[m:]) + theta[:M], M = n - 2m + 1, rounded in that order
        d = np.multiply(theta[m_int:n - m_int + 1], 2.0, out=buf[: n - 2 * m_int + 1])
        np.subtract(theta[2 * m_int:], d, out=d)
        d += theta[: n - 2 * m_int + 1]
        d *= d
        avar = np.mean(d) / (2.0 * (m_int * trace.dt) ** 2)
        sigmas[j] = math.sqrt(avar)
    return AllanCurve(taus=taus, sigmas=sigmas)


def _interior_maximum(sig) -> int | None:
    """Index of the highest interior sample at or above both neighbours, the
    first of equals, or None.  An Allan curve's extrema are interior: its
    global maximum is usually the noise branch at the left edge, and on short
    records its global minimum can be the rolloff tail at the right edge."""
    mid = sig[1:-1]
    peaks = np.flatnonzero((mid >= sig[:-2]) & (mid >= sig[2:]))
    if not peaks.size:
        return None
    return 1 + int(peaks[np.argmax(mid[peaks])])


def allan_landmarks_analytic(m: GyroErrorModel) -> AllanLandmarks:
    """The curve's lowest interior minimum and highest interior maximum (the
    first of equals) for a one-drift model: the sign changes of its slope on
    a log grid, each bisected in log tau until its ends are adjacent doubles."""
    if len(m.drifts) != 1:
        raise ValueError("landmark extraction needs exactly one drift process")
    d = m.drifts[0]
    N, K, Tc = m.N, d.K, d.Tc
    if N <= 0 or K <= 0:
        raise ValueError("landmarks require N > 0 and K > 0")

    # the closed forms sqrt(3) N/K and 1.89 Tc bound the grid, in numpy
    # floats: an overflow meets np.errstate, as in allan_variance_analytic
    tau_min_cf = math.sqrt(3.0) * np.float64(N) / K
    tau_max_cf = TAU_MAX_OVER_TC * np.float64(Tc)
    lo = min(tau_min_cf, Tc) / 1e3
    hi = max(tau_max_cf, tau_min_cf) * 1e3
    grid = np.geomspace(lo, hi, max(200, int(60 * math.log10(hi / lo))))
    # x^2 f'(x) peaks at this x: whenever both landmarks exist the slope is
    # > 0 there, so the scan brackets them even when they lie closer than
    # one grid cell (r just under 0.2518)
    peak = 1.0106779430343892 * np.float64(Tc)
    grid = np.insert(grid, np.searchsorted(grid, peak), peak)
    slope = _allan_slope(m, grid)

    def extremum(s):
        """(tau, sigma) of the lowest minimum (s = 1) or the highest maximum
        (s = -1), or (None, None): s times the slope goes from <= 0 to > 0."""
        best = (None, None)
        up = (s * slope[:-1] <= 0) & (s * slope[1:] > 0)
        for lo, hi in zip(grid[:-1][up].tolist(), grid[1:][up].tolist()):
            while (above := math.nextafter(lo, hi)) < hi:
                # the geometric mean, kept strictly between the ends
                mid = min(max(math.sqrt(lo) * math.sqrt(hi), above), math.nextafter(hi, lo))
                if s * _allan_slope(m, mid) > 0:
                    hi = mid
                else:
                    lo = mid
            sigma = math.sqrt(allan_variance_analytic(m, lo))
            if best[0] is None or s * sigma < s * best[1]:
                best = (lo, sigma)
        return best

    return AllanLandmarks(*extremum(1.0), *extremum(-1.0))


def identify_from_max(tau_max: float, sigma_max: float) -> DriftSpec:
    """Recover (K, Tc) from the measured Allan maximum: Tc = tau_max/1.89,
    K = sigma_max / (0.437 sqrt(Tc))."""
    if tau_max <= 0 or sigma_max <= 0:
        raise ValueError("tau_max and sigma_max must be > 0")
    Tc = tau_max / TAU_MAX_OVER_TC
    # a numpy quotient: its overflow meets np.errstate, not DriftSpec as inf
    K = np.float64(sigma_max) / (SIGMA_MAX_OVER_K_SQRT_TC * math.sqrt(Tc))
    return DriftSpec(K=float(K), Tc=Tc)


def landmarks_to_json(path, lm: AllanLandmarks,
                      identified: DriftSpec | None = None) -> None:
    """The landmarks in s and deg/h, and the (K, Tc) identified from the
    maximum, or None for each missing value."""
    def seconds(tau):
        return None if tau is None else tau * HOUR_S

    def deg(x):
        return None if x is None else x / DEG

    K, Tc = (None, None) if identified is None else (identified.K, identified.Tc)
    write_json(path, {
        "tau_min_s": seconds(lm.tau_min),
        "sigma_min_deg_per_h": deg(lm.sigma_min),
        "tau_max_s": seconds(lm.tau_max),
        "sigma_max_deg_per_h": deg(lm.sigma_max),
        "K_deg_per_h32": deg(K),
        "Tc_h": Tc,
    })


# --------------------------------------------------------------------------
# Estimator statistics: effective degrees of freedom of the overlapping
# estimator under the model, for confidence banding.
# --------------------------------------------------------------------------

def _drift_tails(model: GyroErrorModel, dt: float, m: int):
    """Per drift pair that the budget reads (budget._drift_pairs, so none
    with K = 0): (eps, c, A), with eps = dt/Tc, c as in _second_diff_cov and
    A = c (1 - q^m)^4, so that Cov(d_0, d_l) = -dt^2 sum A e^(-eps (l-2m+1))
    for l >= 2m."""
    terms = []
    for K, Tc in _drift_pairs(model):
        eps = dt / Tc
        one_minus_q = -math.expm1(-eps)
        c = K * K * dt / (one_minus_q ** 3 * (2.0 - one_minus_q))
        terms.append((eps, c, c * math.expm1(-m * eps) ** 4))
    return terms


def _second_sum(model: GyroErrorModel, dt: float, size: int) -> np.ndarray:
    """G(k), k = 0..size-1, as in _second_diff_cov; G does not depend on the
    window length, so one array serves every tau."""
    k = np.arange(size)
    G = model.N ** 2 / dt * k / 2.0
    for eps, c, _ in _drift_tails(model, dt, 0):
        G = G + c * (xminus_em(eps * (k + 1)) - xminus_em(2.0 * eps) * k / 2.0)
    return G


def _second_diff_cov(model: GyroErrorModel, dt: float, m: int,
                     max_lag: int, G: np.ndarray | None = None) -> np.ndarray:
    """Cov(d_0, d_l), l = 0..max_lag, of overlapping second differences d_k of
    the integrated rate, in (rad)^2 (angle units).

    d_k = dt (S_(k+m) - S_k), S_k the sum of the m rate samples from k, so

        Cov(d_0, d_l) = -dt^2 [G(l+2m) - 4G(l+m) + 6G(l) - 4G(|l-m|) + G(|l-2m|)]

    with G the even second sum of the rate autocovariance R (G(k+1) - 2G(k)
    + G(k-1) = R(k)).  White noise has G = (N^2/dt)|k|/2.  A drift, the chain
    R(k) = V q^|k| with q = e^-eps, eps = dt/Tc, V = K^2 dt/(1 - q^2), has
    G = c [xminus_em(eps(|k|+1)) - xminus_em(2 eps)|k|/2] + const,
    c = V/(1-q)^2; xminus_em keeps it accurate as eps -> 0.  For l >= 2m the
    terms linear in |k| cancel exactly and each drift leaves the tail
    -c q^(l-2m+1) (1 - q^m)^4.  A given G spans at least min(2m, max_lag + 1)
    + 2m points.
    """
    lag = np.arange(max_lag + 1)
    head = lag[: 2 * m]
    if G is None:
        G = _second_sum(model, dt, len(head) + 2 * m)
    cov = np.zeros(max_lag + 1)
    for eps, c, A in _drift_tails(model, dt, m):
        cov[2 * m:] -= A * np.exp(-eps * (lag[2 * m:] - 2 * m + 1))
    cov[: 2 * m] = -(G[head + 2 * m] - 4.0 * G[head + m] + 6.0 * G[head]
                     - 4.0 * G[np.abs(head - m)] + G[np.abs(head - 2 * m)])
    return dt * dt * cov


def _geometric_tail_sum(a, L):
    """T(a, L) = sum_(j=1..L) (L+1-j) e^(-a j) for a > 0, L >= 0, without
    cancellation: r/u^2 [xminus_em(aL) - L xminus_em(a) - u expm1(-aL)],
    r = e^-a, u = 1 - r."""
    u = -np.expm1(-a)
    return (1.0 - u) / (u * u) * (xminus_em(a * L) - L * xminus_em(a)
                                  - u * np.expm1(-a * L))


def estimator_dof(model: GyroErrorModel, dt: float, n_samples: int,
                  taus) -> np.ndarray:
    """Effective chi-square degrees of freedom of the overlapping estimator.

    Treats the Allan-variance estimate (a quadratic form in the Gaussian
    record) as a scaled chi-square matched in mean and variance:
    nu = 2 E^2 / Var.  This is the effective count of independent windows;
    it reduces to ~2n/3 for pure white noise and shrinks when drift
    correlations (range Tc) span many windows.

    Var weights the squared covariance at lag l of the M = n - 2m + 1 second
    differences by (1 - l/M).  Lags below 2m are summed term by term, from
    one G (_second_sum) built for all taus.  From
    lag 2m + j - 1 on, j = 1..L = M - 2m, the covariance is the geometric
    tail -dt^2 sum_d A_d e^(-eps_d j) and the weight (L+1-j)/M, so their sum
    is dt^4/M sum_(d,e) A_d A_e T(eps_d + eps_e, L): O(m) work per tau, not
    O(n).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    m = np.array([_window_length(tau, dt) for tau in taus], dtype=int)
    M = n_samples - 2 * m + 1
    # G once, over the longest range any tau reads
    G = _second_sum(model, dt, (np.minimum(2 * m, M) + 2 * m).max(initial=0))
    c0, lagged = np.empty(len(taus)), np.empty(len(taus))
    for j, tau in enumerate(taus):
        if M[j] < 1:
            raise ValueError(f"tau={tau} incompatible with the record")
        h = min(2 * m[j], M[j])
        cov = _second_diff_cov(model, dt, m[j], h - 1, G)
        w = 1.0 - np.arange(h) / M[j]
        c0[j] = cov[0]
        lagged[j] = np.sum(w[1:] * cov[1:] ** 2)
    # (eps, c, A) by tau and drift
    tails = np.array([_drift_tails(model, dt, mj) for mj in m]).reshape(
        len(m), len(_drift_pairs(model)), 3)
    eps, B = tails[:, :, 0], dt * dt * tails[:, :, 2]
    T = _geometric_tail_sum(eps[:, :, None] + eps[:, None, :],
                            np.maximum(M - 2 * m, 0)[:, None, None])
    lagged += np.einsum("jd,je,jde->j", B, B, T) / M
    return M * c0 * c0 / (c0 * c0 + 2.0 * lagged)


def confidence_band(model: GyroErrorModel, dt: float, n_samples: int,
                    taus, confidence: float = 0.99):
    """(lo, hi) multiplicative band on the Allan deviation around the analytic
    curve at the given confidence, from the estimator's effective dof."""
    return _chi2_band(estimator_dof(model, dt, n_samples, taus), confidence)


def _chi2_band(nu, confidence: float):
    """(lo, hi) = sqrt(chi2.ppf(q, nu) / nu) at the two tails q of the
    confidence: the band on a deviation estimated with nu degrees of freedom.
    chi2.ppf(q, nu) is 2 gammaincinv(nu/2, q), as scipy.stats computes it,
    so only scipy.special is loaded."""
    from scipy.special import gammaincinv

    alpha = (1.0 - confidence) / 2.0
    return tuple(np.sqrt(2 * gammaincinv(nu / 2, q) / nu) for q in (alpha, 1.0 - alpha))
