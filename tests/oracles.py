"""Brute-force discrete-time oracles, independent of the closed forms.

Each in-flight drift variance is evaluated by summing the squared
position-gain of one unit impulse per time bin: the impulse's rate response
decays geometrically; its heading gain is the rate summed over later bins,
and its cross-track gain is the heading summed again.  Everything is plain
cumulative-sum arithmetic; none of the package's bracket expressions appear.
Five references follow: the scalar shape series, for the package's array
kernels; the one-step drift and noise operations, for its vectorized rate
synthesis; the estimator dof summed over every lag, for its closed-form
tail; the Allan estimator and its dof with all their work done per tau,
for the kernels that share it across taus; the Allan landmarks bisected
in 40-digit decimal arithmetic, for the package's double bisection; and the
flight's covariance carried one step of dt at a time, for the Monte-Carlo
sampler's interval maps and for the closed forms' discretization bias.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from gyrofde.allan import (AllanCurve, _drift_pairs, _drift_tails,
                           _geometric_tail_sum, _second_diff_cov, _window_length)
from gyrofde.gyro import DriftSpec, drift_stationary_std


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


def noise_sample(N: float, dt: float, rng: np.random.Generator) -> float:
    """One white-noise rate sample with std N/sqrt(dt)."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    return (N / math.sqrt(dt)) * float(rng.standard_normal())


def estimator_dof_direct(model, dt: float, n_samples: int, taus) -> np.ndarray:
    """Effective dof of the overlapping estimator with every one of the
    M = n - 2m + 1 lags' covariances built and squared: O(n) per tau."""
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


def allan_variance_empirical_per_tau(trace, taus) -> AllanCurve:
    """The overlapping estimator with a fresh second-difference array per tau."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    x = trace.samples
    n = len(x)
    theta = np.concatenate(([0.0], np.cumsum(x - x.mean()) * trace.dt))
    sigmas = np.empty(len(taus))
    for j, tau in enumerate(taus):
        m = _window_length(tau, trace.dt)
        if 2 * m > n:
            raise ValueError(f"tau={tau} too large: 2 tau exceeds the record")
        d = theta[2 * m:] - 2.0 * theta[m:n - m + 1] + theta[: n - 2 * m + 1]
        sigmas[j] = math.sqrt(np.mean(d * d) / (2.0 * (m * trace.dt) ** 2))
    return AllanCurve(taus=taus, sigmas=sigmas)


def estimator_dof_per_tau(model, dt: float, n_samples: int, taus) -> np.ndarray:
    """estimator_dof with G rebuilt for every tau (_second_diff_cov without G)."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    m = np.array([_window_length(tau, dt) for tau in taus], dtype=int)
    M = n_samples - 2 * m + 1
    c0, lagged = np.empty(len(taus)), np.empty(len(taus))
    for j, tau in enumerate(taus):
        if M[j] < 1:
            raise ValueError(f"tau={tau} incompatible with the record")
        h = min(2 * m[j], M[j])
        cov = _second_diff_cov(model, dt, m[j], h - 1)
        w = 1.0 - np.arange(h) / M[j]
        c0[j] = cov[0]
        lagged[j] = np.sum(w[1:] * cov[1:] ** 2)
    tails = np.array([_drift_tails(model, dt, mj) for mj in m]).reshape(
        len(m), len(_drift_pairs(model)), 3)
    eps, B = tails[:, :, 0], dt * dt * tails[:, :, 2]
    T = _geometric_tail_sum(eps[:, :, None] + eps[:, None, :],
                            np.maximum(M - 2 * m, 0)[:, None, None])
    lagged += np.einsum("jd,je,jde->j", B, B, T) / M
    return M * c0 * c0 / (c0 * c0 + 2.0 * lagged)


def allan_landmarks_decimal(N: float, K: float, Tc: float):
    """(tau_min, sigma_min, tau_max, sigma_max) of a one-drift Allan curve, as
    floats, from a bisection on tau in 40-digit decimal arithmetic.

    The slope is -N^2/tau^2 + K^2 f'(x), x = tau/Tc, f(x) = S(x)/x^2 with
    S(x) = x - (3 - 4 e^-x + e^-2x)/2, so f'(x) = (x (1 - e^-x)^2 - 2 S(x))/x^3.
    tau^2 times it has the sign of x^2 f'(x) - r^2, r = N/(K Tc), which is
    below 0 at x = r, above 0 at x = 1.0107 (its maximum, 0.0634) for
    r < 0.25 and below 0 at x = 100: the minimum lies in the first bracket,
    the maximum in the second.  S loses about -log10(x^3/3) of the 40 digits
    to cancellation, so x >= 1e-3 keeps over 30.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        N, K, Tc = Decimal(N), Decimal(K), Decimal(Tc)

        def shape(x):
            a = (-x).exp()
            return x - (3 - 4 * a + a * a) / 2

        def slope(tau):
            x = tau / Tc
            fprime = (x * (1 - (-x).exp()) ** 2 - 2 * shape(x)) / x ** 3
            return -N * N / (tau * tau) + K * K * fprime

        def root(lo, hi, s):
            """s * slope goes from < 0 at lo to > 0 at hi."""
            assert s * slope(lo) < 0 < s * slope(hi)
            while hi - lo > hi * Decimal("1e-20"):
                mid = (lo + hi) / 2
                if s * slope(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            x = lo / Tc
            sigma = (N * N / lo + K * K * Tc ** 3 * shape(x) / (lo * lo)).sqrt()
            return float(lo), float(sigma)

        r = N / (K * Tc)
        split = Decimal("1.0107") * Tc
        return (*root(r * Tc, split, 1), *root(split, 100 * Tc, -1))


# The Monte-Carlo flight model, one zero-order-hold step of dt at a time.
# An axis's state is (s_1..s_D, theta, y), drifts with K = 0 left out:
#     s_i   <- exp(-dt/Tc_i) s_i + K_i sqrt(dt) w_i
#     theta <- theta + dt sum_i s_i + N sqrt(dt) z
#     y     <- y + v dt theta     (the new theta)

def flight_step(m, p):
    """(F, Q) of one step: x <- F x + noise of covariance Q, entry by entry."""
    drifts = [(d.K, d.Tc) for d in m.drifts if d.K != 0.0]
    D = len(drifts)
    F, Q = np.eye(D + 2), np.zeros((D + 2, D + 2))
    for i, (K, Tc) in enumerate(drifts):
        F[i, i] = math.exp(-p.dt / Tc)
        F[D, i] = p.dt
        F[D + 1, i] = p.v * p.dt * p.dt
        Q[i, i] = K * K * p.dt
    F[D + 1, D] = p.v * p.dt
    noise = m.N * m.N * p.dt  # theta's increment; y takes v dt times it
    Q[D, D] = noise
    Q[D, D + 1] = Q[D + 1, D] = p.v * p.dt * noise
    Q[D + 1, D + 1] = (p.v * p.dt) ** 2 * noise
    return F, Q


def flight_steps(m, p, k: int):
    """(F^k, Q_k) of k steps: Phi <- F Phi and P <- F P F^T + Q, from I and 0."""
    F, Q = flight_step(m, p)
    Phi, P = np.eye(len(F)), np.zeros_like(Q)
    for _ in range(k):
        Phi = F @ Phi
        P = F @ P @ F.T + Q
    return Phi, P


def flight_variances(m, p, idx):
    """(along-track, cross-track) variances, km^2, at the step indices idx
    (increasing), from the turn-on covariance diag(K^2 Tc/2), or 0 without
    turn-on, carried one step at a time."""
    F, Q = flight_step(m, p)
    D = len(F) - 2
    drifts = [(d.K, d.Tc) for d in m.drifts if d.K != 0.0]
    P = np.diag([K * K * Tc / 2.0 if m.turn_on else 0.0 for K, Tc in drifts] + [0.0, 0.0])
    atrk, xtrk, step = [], [], 0
    for k in idx:
        for _ in range(k - step):
            P = F @ P @ F.T + Q
        step = k
        atrk.append(p.R * p.R * P[D, D])
        xtrk.append(P[D + 1, D + 1])
    return np.array(atrk), np.array(xtrk)

