"""Reference values computed apart from gyrofde.

Every closed form the program reports is re-derived here by numerical
quadrature of the model's own integrals, never from the program's bracket
expressions or series:

* a drift state s with ds = -s/Tc dt + K dW, started at 0 (in-flight part) or
  from its stationary law N(0, K^2 Tc/2) (turn-on part);
* heading error theta = int s, along-track error R theta, cross-track error
  v int theta;
* the Allan variance of s from its autocovariance (K^2 Tc/2) e^(-|l|/Tc).

Composite Gauss-Legendre quadrature on smooth integrands gives these to
about 1e-13 relative, so the checks can be tight.  Canonical units: rad, h,
km.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2

DEG = math.pi / 180.0
NMI_KM = 1.852

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANELS = 64


def _integrate(f, a, b) -> np.ndarray:
    """int_a^b f(y) dy for arrays a, b (broadcast), f vectorised in y."""
    a = np.asarray(a, dtype=float)[..., None, None]
    b = np.asarray(b, dtype=float)[..., None, None]
    edges = np.linspace(0.0, 1.0, _PANELS + 1)
    lo = a + (b - a) * edges[:-1, None]
    half = 0.5 * (b - a) / _PANELS
    y = lo + half * (1.0 + _NODES)
    return np.sum(f(y) * _WEIGHTS, axis=(-2, -1)) * half[..., 0, 0]


def drift_unit_variances(Tc: float, R: float, v: float, t) -> dict:
    """Variance terms per unit K^2 at times t (h): along-track and
    cross-track, in-flight and turn-on, km^2 / (rad/h^1.5)^2."""
    t = np.asarray(t, dtype=float)
    em = lambda y: -np.expm1(-y / Tc)            # 1 - e^(-y/Tc)
    # theta gain of an impulse at t - y: int_0^y e^(-u/Tc) du = Tc em(y)
    atrk = R * R * Tc * Tc * _integrate(lambda y: em(y) ** 2, 0.0, t)
    # cross-track gain of that impulse: int_0^y Tc em(u) du = Tc (y - Tc em(y))
    xtrk = v * v * Tc * Tc * _integrate(lambda y: (y - Tc * em(y)) ** 2, 0.0, t)
    # turn-on state s0 ~ N(0, Tc/2): theta = s0 int_0^t e^(-u/Tc) du,
    # cross-track = v s0 int_0^t (t - u) e^(-u/Tc) du
    g_theta = _integrate(lambda u: np.exp(-u / Tc), 0.0, t)
    tt = t[..., None, None]
    g_y = _integrate(lambda u: (tt - u) * np.exp(-u / Tc), 0.0, t)
    return {"atrk_drift": atrk, "xtrk_drift": xtrk,
            "atrk_turnon": 0.5 * Tc * R * R * g_theta ** 2,
            "xtrk_turnon": 0.5 * Tc * v * v * g_y ** 2}


def noise_variances(N: float, R: float, v: float, t) -> tuple:
    """Exact white-noise terms N^2 R^2 t and N^2 v^2 t^3 / 3, km^2."""
    t = np.asarray(t, dtype=float)
    return N * N * R * R * t, N * N * v * v * t ** 3 / 3.0


def budget(N: float, drifts, turn_on: bool, R: float, v: float, t) -> dict:
    """Full error budget at times t: per-term variances and sigmas (km)."""
    an, xn = noise_variances(N, R, v, t)
    out = {"atrk_noise": an, "xtrk_noise": xn}
    for key in ("atrk_drift", "xtrk_drift", "atrk_turnon", "xtrk_turnon"):
        out[key] = np.zeros_like(an)
    for K, Tc in drifts:
        unit = drift_unit_variances(Tc, R, v, t)
        for key, val in unit.items():
            if turn_on or "turnon" not in key:
                out[key] = out[key] + K * K * val
    va = out["atrk_noise"] + out["atrk_drift"] + out["atrk_turnon"]
    vx = out["xtrk_noise"] + out["xtrk_drift"] + out["xtrk_turnon"]
    out.update(sigma_atrk=np.sqrt(va), sigma_xtrk=np.sqrt(vx),
               sigma_fde=np.sqrt(va + vx))
    out["fde95_nmi"] = 2.0 * out["sigma_fde"] / NMI_KM
    return out


def allan_variance(N: float, drifts, tau) -> np.ndarray:
    """Allan variance (rad/h)^2 at tau (h) for white noise plus Markov drifts.

    With window-difference weight w (-1 then +1 over two windows of tau), the
    difference of window means has variance (1/tau^2) int W(l) C(l) dl, where
    W(l) = 2 tau - 3|l| for |l| <= tau and |l| - 2 tau up to 2 tau.
    """
    tau = np.asarray(tau, dtype=float)
    avar = N * N / tau
    for K, Tc in drifts:
        cov = lambda l: 0.5 * K * K * Tc * np.exp(-l / Tc)
        tt = tau[..., None, None]
        near = _integrate(lambda l: (2.0 * tt - 3.0 * l) * cov(l), 0.0, tau)
        far = _integrate(lambda l: (l - 2.0 * tt) * cov(l), tau, 2.0 * tau)
        avar = avar + 2.0 * (near + far) / (2.0 * tau * tau)
    return avar


def naive_overlapping_avar(x: np.ndarray, m: int) -> float:
    """Overlapping Allan variance of samples x at m samples per window, from
    explicit window means (no cumulative sums)."""
    means = np.convolve(x, np.ones(m) / m, mode="valid")
    d = means[m:] - means[:-m]
    return float(np.mean(d * d) / 2.0)


def identify_from_max(tau_max_h: float, sigma_max: float) -> tuple[float, float]:
    """(K, Tc) from an Allan maximum: Tc = tau/1.89, K = sigma/(0.437 sqrt(Tc))."""
    Tc = tau_max_h / 1.89
    return sigma_max / (0.437 * math.sqrt(Tc)), Tc


def std_ratio_band(dof: int, confidence: float) -> tuple[float, float]:
    """Two-sided band on s/sigma for a sample std with ``dof`` degrees of freedom."""
    alpha = (1.0 - confidence) / 2.0
    return (math.sqrt(chi2.ppf(alpha, dof) / dof),
            math.sqrt(chi2.ppf(1.0 - alpha, dof) / dof))
