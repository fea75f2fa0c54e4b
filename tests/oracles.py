"""Brute-force discrete-time oracles, independent of the closed forms.

Each in-flight drift variance is evaluated by summing the squared
position-gain of one unit impulse per time bin: the impulse's rate response
decays geometrically; its heading gain is the rate summed over later bins,
and its cross-track gain is the heading summed again.  Everything is plain
cumulative-sum arithmetic; none of the package's bracket expressions appear.
Two references follow: the scalar shape series, for the package's array
kernels, and the one-step drift and noise operations, for its vectorized
rate synthesis.
"""

import math

import numpy as np

from gyrofde.gyro import DriftSpec, NoiseSpec, drift_stationary_std


def atrk_drift_var(K: float, Tc: float, R: float, t: float, n: int = 10_000) -> float:
    """Heading-variance double sum for in-flight drift, times R^2. km^2."""
    dt = t / n
    w = np.exp(-np.arange(n) * (dt / Tc))            # w_m = e^(-m dt/Tc)
    suffix = np.cumsum(w[::-1])[::-1]                # sum_{m >= i} w_m
    gain = dt * suffix / w                           # dt * sum e^(-(m-i) dt/Tc)
    return K * K * dt * float(np.sum(gain * gain)) * R * R


def xtrk_drift_var(K: float, Tc: float, v: float, t: float, n: int = 10_000) -> float:
    """Cross-track variance double-double sum for in-flight drift. km^2."""
    dt = t / n
    w = np.exp(-np.arange(n) * (dt / Tc))
    P = np.cumsum(w)                                 # P_k = sum_{m<=k} w_m
    T = np.cumsum(P[::-1])[::-1]                     # sum_{k>=i} P_k
    i = np.arange(n)
    P_before = np.concatenate(([0.0], P[:-1]))       # P_{i-1}
    gain = v * dt * dt * (T - (n - i) * P_before) / w
    return K * K * dt * float(np.sum(gain * gain))


def atrk_turnon_var(K: float, Tc: float, R: float, t: float, n: int = 10_000) -> float:
    """Variance from the stationary turn-on state decaying through the flight."""
    dt = t / n
    gain = dt * float(np.sum(np.exp(-np.arange(n) * (dt / Tc))))
    return (K * K * Tc / 2.0) * gain * gain * R * R


def xtrk_turnon_var(K: float, Tc: float, v: float, t: float, n: int = 10_000) -> float:
    dt = t / n
    w = np.exp(-np.arange(n) * (dt / Tc))
    heading = np.cumsum(w) * dt                      # heading gain after each bin
    gain = v * dt * float(np.sum(heading))
    return (K * K * Tc / 2.0) * gain * gain


# The scalar series the closed forms summed before they took arrays: each
# loops until the next term falls below 1e-18 of the running total.  Kept as
# the reference that the fixed-degree Horner kernels are tested against.
_CUTOVER = 0.5
_TOL = 1e-18


def atrk_inflight_shape(x: float) -> float:
    """x - (3 - 4 e^-x + e^-2x)/2; ~ x^3/3 for small x."""
    if x >= _CUTOVER:
        a = math.exp(-x)
        return x - (3.0 - 4.0 * a + a * a) / 2.0
    total, powx, fact, k = 0.0, x * x, 2.0, 2
    while True:
        k += 1
        powx *= x
        fact *= k
        term = (2.0 ** k - 4.0) / (2.0 * fact) * powx
        total += term if k % 2 else -term
        if abs(term) < _TOL * max(abs(total), 1e-300):
            return total


def xtrk_inflight_shape(x: float) -> float:
    """x^3/3 - x^2 + x(1 - 2 e^-x) + (1 - e^-2x)/2; ~ x^5/20 for small x."""
    if x >= _CUTOVER:
        a = math.exp(-x)
        return x ** 3 / 3.0 - x * x + x * (1.0 - 2.0 * a) + (1.0 - a * a) / 2.0
    total, powx, fact, k = 0.0, x ** 4, 24.0, 4
    while True:
        k += 1
        powx *= x
        fact *= k
        term = (2.0 * k - 2.0 ** (k - 1)) / fact * powx
        total += -term if k % 2 else term
        if abs(term) < _TOL * max(abs(total), 1e-300):
            return total


def xminus_em(x: float) -> float:
    """x - (1 - e^-x); ~ x^2/2 for small x."""
    if x >= _CUTOVER:
        return x - (-math.expm1(-x))
    total, term, k = 0.0, x, 1
    while True:
        k += 1
        term *= -x / k
        total -= term  # sum_{k>=2} (-1)^k x^k / k!
        if abs(term) < _TOL * max(abs(total), 1e-300):
            return total


# One step at a time, the operations the vectorized rate synthesis
# (gyro._rate_series) must reproduce bit for bit on the same streams.

def init_drift_state(d: DriftSpec, rng: np.random.Generator,
                     turn_on: bool = True) -> float:
    """Draw the drift state at t=0; exactly 0 (and no draw) when turn_on is off."""
    if not turn_on:
        return 0.0
    return drift_stationary_std(d) * float(rng.standard_normal())


def step_drift(state: float, d: DriftSpec, dt: float,
               rng: np.random.Generator) -> float:
    """Advance the drift state by dt: decay through exp(-dt/Tc), add K sqrt(dt) impulse."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    return state * math.exp(-dt / d.Tc) + (d.K * math.sqrt(dt)) * float(rng.standard_normal())


def noise_sample(n: NoiseSpec, dt: float, rng: np.random.Generator) -> float:
    """One white-noise rate sample with std N/sqrt(dt)."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    return (n.N / math.sqrt(dt)) * float(rng.standard_normal())
