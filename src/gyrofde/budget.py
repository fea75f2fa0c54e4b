"""Closed-form along-track, cross-track, and fix-displacement error budgets.

With x = t/Tc and a = exp(-x), the variance contributions of one drift
process factor into dimensionless shapes (distance scale applied outside):

    along-track   in-flight  K^2 Tc^3 R^2 * [x - (3 - 4a + a^2)/2]
                  turn-on    K^2 Tc^3 R^2 * (1 - a)^2 / 2
                  (their sum is exactly K^2 Tc^3 R^2 * [x - (1 - a)])
    cross-track   in-flight  K^2 Tc^5 v^2 * [x^3/3 - x^2 + x(1-2a) + (1-a^2)/2]
                  turn-on    K^2 Tc^5 v^2 * (x - (1 - a))^2 / 2

White noise contributes N^2 R^2 t along-track and N^2 v^2 t^3 / 3
cross-track.  The fix displacement error is the root-sum-square of the two
axes; 2 sigma_FDE is reported as the 95% figure.

The bracketed shapes cancel catastrophically for x << 1, so they switch to
exact power series below x = 0.5 (small-t limits: x^3/3 along-track,
x^5/20 cross-track).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from ._series import atrk_inflight_shape, xminus_em, xtrk_inflight_shape
from .gyro import GyroErrorModel, _whole_steps
from .units import NMI_KM

__all__ = ["FlightProfile", "ErrorBudget", "fde_sigma", "budget_series_to_csv"]


@dataclass(frozen=True)
class FlightProfile:
    """Constant-speed great-circle flight: v km/h, duration h, sphere radius km.

    dt is the simulation step used by the Monte-Carlo engine only; it must
    divide the duration into whole steps (``n_steps`` raises otherwise).
    """

    v: float = 900.0
    duration: float = 10.0
    R: float = 6371.0
    dt: float = 1.0 / 3600.0

    def __post_init__(self):
        if self.v < 0:
            raise ValueError(f"v must be >= 0, got {self.v}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.R <= 0:
            raise ValueError(f"R must be > 0, got {self.R}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")

    @property
    def n_steps(self) -> int:
        """Steps of dt in the flight; dt must divide the duration."""
        n = _whole_steps(self.duration, self.dt)
        if n is None:
            raise ValueError(f"dt={self.dt!r} h does not divide the flight "
                             f"duration {self.duration!r} h into whole steps")
        return n


@dataclass(frozen=True)
class ErrorBudget:
    """Per-term variances (km^2) at one flight time, or arrays of them over
    an array of times; the standard deviations (km) are their root sums."""

    atrk_noise: float
    atrk_drift: float
    atrk_turnon: float
    xtrk_noise: float
    xtrk_drift: float
    xtrk_turnon: float

    @property
    def sigma_atrk(self) -> float:
        return np.sqrt(self.atrk_noise + self.atrk_drift + self.atrk_turnon)

    @property
    def sigma_xtrk(self) -> float:
        return np.sqrt(self.xtrk_noise + self.xtrk_drift + self.xtrk_turnon)

    @property
    def sigma_fde(self) -> float:
        return np.sqrt((self.atrk_noise + self.atrk_drift + self.atrk_turnon)
                       + (self.xtrk_noise + self.xtrk_drift + self.xtrk_turnon))

    @property
    def fde95_km(self) -> float:
        """95%-confidence fix displacement, the 2 sigma convention."""
        return 2.0 * self.sigma_fde

    @property
    def fde95_nmi(self) -> float:
        return self.fde95_km / NMI_KM


def _budget(N, drifts, turn_on: bool, R, v, t) -> ErrorBudget:
    """The closed-form budget behind every public call: noise amplitude N,
    drift (K, Tc) pairs, radius R and speed v at flight time t.

    Broadcasts over N, each K and Tc, and t, and the fields of the result
    broadcast against each other; each field is a float when N, the drifts
    and t are floats, and has the shape of t when only t is an array.
    """
    t = np.asarray(t, dtype=float)[()]
    if np.any(t < 0):
        raise ValueError(f"t must be >= 0, got {t}")
    # numpy operands, not Python floats: an overflow in N ** 2 * v * v or
    # K * K * Tc ** 5 * v * v then meets the caller's np.errstate, where a
    # Python float product would be inf without a word
    N, R, v = np.float64(N), np.float64(R), np.float64(v)
    drifts = [(np.float64(K), np.float64(Tc)) for K, Tc in drifts]
    an = N ** 2 * R * R * t
    # np.power, not **: a float t then takes numpy's array pow, not libm's,
    # so a float and an array of times give the same bits
    xn = N ** 2 * v * v * np.power(t, 3) / 3.0
    ad = at = xd = xt = 0.0 * t
    for K, Tc in drifts:
        x = t / Tc
        sa = K * K * Tc ** 3 * R * R
        sx = K * K * Tc ** 5 * v * v
        ad = ad + sa * atrk_inflight_shape(x)
        xd = xd + sx * xtrk_inflight_shape(x)
        if turn_on:
            em = -np.expm1(-x)
            at = at + sa * em * em / 2.0
            g = xminus_em(x)
            xt = xt + sx * g * g / 2.0
    return ErrorBudget(an, ad, at, xn, xd, xt)


def _drift_pairs(m: GyroErrorModel) -> list[tuple[float, float]]:
    """The (K, Tc) pairs every closed form reads.  A drift with K = 0 is
    left out: its terms are exactly +0.0, however large Tc ** 5 is."""
    return [(d.K, d.Tc) for d in m.drifts if d.K != 0.0]


def fde_sigma(m: GyroErrorModel, p: FlightProfile, t) -> ErrorBudget:
    """Assemble the full budget at time t of the profile.

    t is a float or an array of times; for an array every field of the
    budget is an array, equal bit for bit to one call per time.
    """
    t = np.asarray(t, dtype=float)
    outside = ~((0.0 <= t) & (t <= p.duration * (1 + 1e-12)))
    if outside.any():
        raise ValueError(f"t={t[outside][0]} outside flight duration {p.duration}")
    return _budget(m.N, _drift_pairs(m), m.turn_on, p.R, p.v, t)


def budget_series_to_csv(path, m: GyroErrorModel, p: FlightProfile,
                         times) -> None:
    """ErrorBudget CSV over a time grid: sigmas, 95% figure, per-term variances."""
    b = fde_sigma(m, p, times)
    write_csv(path, ("t_h", "sigma_atrk_km", "sigma_xtrk_km", "sigma_fde_km",
                     "fde95_nmi", "atrk_noise_km2", "atrk_drift_km2",
                     "atrk_turnon_km2", "xtrk_noise_km2", "xtrk_drift_km2",
                     "xtrk_turnon_km2"),
              np.asarray(times, dtype=float), b.sigma_atrk, b.sigma_xtrk,
              b.sigma_fde, b.fde95_nmi, b.atrk_noise, b.atrk_drift,
              b.atrk_turnon, b.xtrk_noise, b.xtrk_drift, b.xtrk_turnon)
