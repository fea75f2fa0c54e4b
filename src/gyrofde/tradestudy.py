"""Requirement solving and parameter-map generation.

All solvers work against the 95% figure 2 sigma_FDE at the target's
evaluation time.  The variance is the noise variance plus K^2 times the
drift variance at K = 1 (every drift term is K^2 times a positive factor),
so the K solver takes that root exactly; the Tc dependence is not monotone
in general, so the Tc solver pre-scans in log space and bisects the
smallest crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._io import write_csv, write_json
from .budget import FlightProfile, _budget, fde_sigma
from .gyro import DriftSpec, GyroErrorModel, NoiseSpec, drift_stationary_std
from .units import DEG, NMI_KM

__all__ = [
    "RequirementTarget", "ComplianceResult", "TcSolution", "ContourResult",
    "check_requirement", "solve_K", "solve_Tc", "solve_K_contour", "fde_grid",
    "fde95_of", "grid_to_csv", "compliance_to_json",
]

_REL_TOL = 1e-4


@dataclass(frozen=True)
class RequirementTarget:
    """A 95%-confidence fix-displacement-error ceiling on a given flight.

    Defaults encode the common trans-oceanic requirement: 18.52 km (10 nmi)
    at the end of the flight.
    """

    fde95: float = 10.0 * NMI_KM
    flight: FlightProfile = field(default_factory=FlightProfile)
    evaluate_at: float | None = None  # h; None = flight end

    def __post_init__(self):
        if self.fde95 <= 0:
            raise ValueError(f"fde95 must be > 0, got {self.fde95}")
        t = self.eval_time
        if not 0 < t <= self.flight.duration:
            raise ValueError(f"evaluate_at={t} outside the flight")

    @property
    def eval_time(self) -> float:
        return self.flight.duration if self.evaluate_at is None else self.evaluate_at


def fde95_of(m: GyroErrorModel, r: RequirementTarget) -> float:
    """2 sigma_FDE in km at the target's evaluation time."""
    return fde_sigma(m, r.flight, r.eval_time).fde95_km


def _fde95_map(N, K, Tc, r: RequirementTarget) -> np.ndarray:
    """fde95_of for the one-drift turn-on model, broadcast over N, K and Tc."""
    return _budget(N, [(K, Tc)], True, r.flight.R, r.flight.v, r.eval_time).fde95_km


@dataclass(frozen=True)
class ComplianceResult:
    passed: bool
    fde95_km: float
    margin_km: float
    target: RequirementTarget

    @property
    def fde95_nmi(self) -> float:
        return self.fde95_km / NMI_KM

    @property
    def margin_nmi(self) -> float:
        return self.margin_km / NMI_KM


def check_requirement(m: GyroErrorModel, r: RequirementTarget) -> ComplianceResult:
    """Pass iff 2 sigma_FDE at the evaluation time stays at or under the target."""
    fde95 = fde95_of(m, r)
    return ComplianceResult(passed=bool(fde95 <= r.fde95), fde95_km=fde95,
                            margin_km=r.fde95 - fde95, target=r)


def _model(N: float, K: float, Tc: float) -> GyroErrorModel:
    return GyroErrorModel(NoiseSpec(N), (DriftSpec(K, Tc),), turn_on=True)


def solve_K(N: float, Tc: float, r: RequirementTarget) -> float | None:
    """The K >= 0 (rad/h^(3/2)) putting 2 sigma_FDE exactly on the target.

    Returns None when the noise alone already exceeds the target.  Otherwise
    the exact root K = sqrt(((fde95/2)^2 - noise variance) / drift variance
    at K = 1).
    """
    if N < 0 or Tc <= 0:
        raise ValueError("need N >= 0 and Tc > 0")
    b = fde_sigma(_model(N, 1.0, Tc), r.flight, r.eval_time)
    noise = b.atrk_noise + b.xtrk_noise
    if 2.0 * math.sqrt(noise) > r.fde95:  # fde95_of at K = 0, bit for bit
        return None
    drift = b.atrk_drift + b.atrk_turnon + b.xtrk_drift + b.xtrk_turnon
    return math.sqrt(((r.fde95 / 2.0) ** 2 - noise) / drift)


@dataclass(frozen=True)
class TcSolution:
    """Smallest Tc crossing of the target, if any; crossings counts how many
    sign changes the pre-scan saw (>1 flags a non-monotone reach)."""

    Tc: float | None
    crossings: int

    @property
    def feasible_in_range(self) -> bool:
        return self.Tc is not None


def solve_Tc(N: float, K: float, r: RequirementTarget,
             Tc_lo: float = 1e-3, Tc_hi: float | None = None,
             scan_points: int = 50) -> TcSolution:
    """Tc with 2 sigma_FDE on the target, scanned over [Tc_lo, 10 x duration]."""
    if N < 0 or K <= 0:
        raise ValueError("need N >= 0 and K > 0")
    if Tc_hi is None:
        Tc_hi = 10.0 * r.flight.duration
    grid = np.geomspace(Tc_lo, Tc_hi, scan_points)
    vals = _fde95_map(N, K, grid, r) - r.fde95
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(sign_change) == 0:
        return TcSolution(Tc=None, crossings=0)
    i = sign_change[0]
    lo, hi = math.log(grid[i]), math.log(grid[i + 1])

    def f(logtc: float) -> float:
        return fde95_of(_model(N, K, math.exp(logtc)), r) - r.fde95

    flo = f(lo)
    while hi - lo > _REL_TOL:
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return TcSolution(Tc=math.exp(0.5 * (lo + hi)), crossings=len(sign_change))


@dataclass
class ContourResult:
    """Required-K contour across a noise grid at fixed Tc."""

    N_values: np.ndarray      # rad/sqrt(h)
    K_values: np.ndarray      # rad/h^(3/2); NaN where infeasible
    feasible: np.ndarray      # bool
    margin: np.ndarray        # km, target minus noise-only 2 sigma
    Tc: float
    target: RequirementTarget

    def equivalent_bias(self) -> np.ndarray:
        """K sqrt(Tc/2) in rad/h for each solved point (drift-bias axis)."""
        return np.array([
            drift_stationary_std(DriftSpec(k, self.Tc)) if np.isfinite(k) else np.nan
            for k in self.K_values])

    def to_csv(self, path) -> None:
        """Header ``N_deg_sqrth,K_deg_h32,feasible``; K is empty where infeasible."""
        write_csv(path, ("N_deg_sqrth", "K_deg_h32", "feasible"),
                  self.N_values / DEG,
                  np.where(self.feasible, self.K_values / DEG, np.nan),
                  self.feasible)


def solve_K_contour(N_values, Tc: float, r: RequirementTarget) -> ContourResult:
    N_values = np.asarray(N_values, dtype=float)
    K = np.full(len(N_values), np.nan)
    ok = np.zeros(len(N_values), dtype=bool)
    margin = np.empty(len(N_values))
    for i, n in enumerate(N_values):
        margin[i] = r.fde95 - fde95_of(_model(n, 0.0, Tc), r)
        k = solve_K(n, Tc, r)
        if k is not None:
            K[i], ok[i] = k, True
    return ContourResult(N_values=N_values, K_values=K, feasible=ok,
                         margin=margin, Tc=Tc, target=r)


def fde_grid(N_range, K_range, Tc: float, r: RequirementTarget) -> np.ndarray:
    """2 sigma_FDE (km) on the outer product of N_range x K_range (canonical
    units), row index over N, column over K.  Feed a contour plotter."""
    N_range = np.asarray(N_range, dtype=float)
    K_range = np.asarray(K_range, dtype=float)
    if N_range.size < 1 or K_range.size < 1:
        raise ValueError("empty grid ranges")
    # the noise and drift specs reject NaN, negative or infinite N and K and
    # a bad Tc; a range holds such a value iff its min or max does
    for ext in (np.min, np.max):
        _model(float(ext(N_range)), float(ext(K_range)), Tc)
    return _fde95_map(N_range[:, None], K_range, Tc, r)


def grid_to_csv(path, N_range, K_range, grid_km: np.ndarray) -> None:
    """Header ``N_deg_sqrth,K_deg_h32,fde95_nmi``, row-major over (N, K)."""
    N_range, K_range = np.asarray(N_range), np.asarray(K_range)
    write_csv(path, ("N_deg_sqrth", "K_deg_h32", "fde95_nmi"),
              np.repeat(N_range / DEG, len(K_range)),
              np.tile(K_range / DEG, len(N_range)),
              (grid_km / NMI_KM).ravel())


def compliance_to_json(path, res: ComplianceResult, m: GyroErrorModel,
                       notes: list[str] | None = None) -> None:
    b = fde_sigma(m, res.target.flight, res.target.eval_time)
    doc = {
        "pass": res.passed,
        "fde95_nmi": res.fde95_nmi,
        "margin_nmi": res.margin_nmi,
        "target_nmi": res.target.fde95 / NMI_KM,
        "evaluate_at_h": res.target.eval_time,
        "breakdown": {
            "sigma_atrk_km": b.sigma_atrk,
            "sigma_xtrk_km": b.sigma_xtrk,
            "sigma_fde_km": b.sigma_fde,
            "atrk_noise_km2": b.atrk_noise,
            "atrk_drift_km2": b.atrk_drift,
            "atrk_turnon_km2": b.atrk_turnon,
            "xtrk_noise_km2": b.xtrk_noise,
            "xtrk_drift_km2": b.xtrk_drift,
            "xtrk_turnon_km2": b.xtrk_turnon,
        },
        "notes": notes or [],
    }
    write_json(path, doc)
