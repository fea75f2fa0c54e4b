"""Requirement solving and parameter-map generation.

All solvers work against the 95% figure 2 sigma_FDE at the end of the
flight.  The variance is the noise variance plus K^2 times the
drift variance at K = 1 (every drift term is K^2 times a positive factor),
so the K solver takes that root exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ._io import write_csv, write_json
from .budget import ErrorBudget, FlightProfile, _budget, fde_sigma
from .gyro import DriftSpec, GyroErrorModel
from .units import DEG, NMI_KM

__all__ = [
    "RequirementTarget", "ComplianceResult", "ContourResult",
    "check_requirement", "solve_K", "solve_K_contour", "fde_grid",
    "fde95_of", "grid_to_csv", "compliance_to_json",
]


@dataclass(frozen=True)
class RequirementTarget:
    """A 95%-confidence fix-displacement-error ceiling at the end of a flight.

    Defaults encode the common trans-oceanic requirement: 18.52 km (10 nmi)
    at the end of the flight.
    """

    fde95: float = 10.0 * NMI_KM
    flight: FlightProfile = field(default_factory=FlightProfile)

    def __post_init__(self):
        if self.fde95 <= 0:
            raise ValueError(f"fde95 must be > 0, got {self.fde95}")
        if not np.isfinite(self.fde95):
            raise ValueError(f"fde95 must be finite and > 0, got {self.fde95}")


def fde95_of(m: GyroErrorModel, r: RequirementTarget) -> float:
    """2 sigma_FDE in km at the end of the flight."""
    return check_requirement(m, r).budget.fde95_km


def _one_drift_budget(N, K, Tc, r: RequirementTarget) -> ErrorBudget:
    """The one-drift turn-on budget at the flight end, broadcast over N, K, Tc.
    N, then K and Tc, pass the model and drift spec checks first: a range
    holds a NaN, negative or infinite value iff its min or max does."""
    for ext in (np.min, np.max):
        GyroErrorModel(float(ext(N, initial=0.0)))
        DriftSpec(float(ext(K, initial=0.0)), Tc)
    return _budget(N, [(K, Tc)], True, r.flight.R, r.flight.v, r.flight.duration)


@dataclass(frozen=True)
class ComplianceResult:
    budget: ErrorBudget
    target: RequirementTarget

    @property
    def passed(self) -> bool:
        return bool(self.budget.fde95_km <= self.target.fde95)

    @property
    def margin_nmi(self) -> float:
        return (self.target.fde95 - self.budget.fde95_km) / NMI_KM


def check_requirement(m: GyroErrorModel, r: RequirementTarget) -> ComplianceResult:
    """Pass iff 2 sigma_FDE at the end of the flight stays at or under the target."""
    return ComplianceResult(fde_sigma(m, r.flight, r.flight.duration), r)


def solve_K(N, Tc: float, r: RequirementTarget):
    """The K >= 0 (rad/h^(3/2)) putting 2 sigma_FDE exactly on the target,
    for a float N or each entry of an array of N (bit for bit the same).

    None for a float, NaN in an array, where the noise alone already exceeds
    the target.  Otherwise the exact root K = sqrt(((fde95/2)^2 - noise
    variance) / drift variance at K = 1), from one budget for every N.
    """
    b = _one_drift_budget(N, 1.0, Tc, r)
    noise = b.atrk_noise + b.xtrk_noise
    drift = b.atrk_drift + b.atrk_turnon + b.xtrk_drift + b.xtrk_turnon
    infeasible = 2.0 * np.sqrt(noise) > r.fde95  # fde95_of at K = 0, bit for bit
    # an infeasible entry is NaN before the root: the CLI raises on the
    # invalid operation that the root of a negative would be
    K = np.sqrt(np.where(infeasible, np.nan, (r.fde95 / 2.0) ** 2 - noise) / drift)
    if np.ndim(K) == 0:
        return None if infeasible else float(K)
    return K


@dataclass
class ContourResult:
    """Required-K contour across a noise grid at fixed Tc."""

    N_values: np.ndarray      # rad/sqrt(h)
    K_values: np.ndarray      # rad/h^(3/2); NaN where infeasible

    @property
    def feasible(self) -> np.ndarray:
        return ~np.isnan(self.K_values)

    def to_csv(self, path) -> None:
        """Header ``N_deg_sqrth,K_deg_h32,feasible``; K is empty where infeasible."""
        write_csv(path, ("N_deg_sqrth", "K_deg_h32", "feasible"),
                  self.N_values / DEG, self.K_values / DEG, self.feasible)


def solve_K_contour(N_values, Tc: float, r: RequirementTarget) -> ContourResult:
    N_values = np.asarray(N_values, dtype=float)
    if N_values.size < 1:
        raise ValueError("empty contour range")
    return ContourResult(N_values, solve_K(N_values, Tc, r))


def fde_grid(N_range, K_range, Tc: float, r: RequirementTarget) -> np.ndarray:
    """2 sigma_FDE (km) on the outer product of N_range x K_range (canonical
    units), row index over N, column over K.  Feed a contour plotter."""
    N_range = np.asarray(N_range, dtype=float)
    K_range = np.asarray(K_range, dtype=float)
    if N_range.size < 1 or K_range.size < 1:
        raise ValueError("empty grid ranges")
    return _one_drift_budget(N_range[:, None], K_range, Tc, r).fde95_km


def grid_to_csv(path, N_range, K_range, grid_km: np.ndarray) -> None:
    """Header ``N_deg_sqrth,K_deg_h32,fde95_nmi``, row-major over (N, K)."""
    N_range, K_range = np.asarray(N_range), np.asarray(K_range)
    write_csv(path, ("N_deg_sqrth", "K_deg_h32", "fde95_nmi"),
              np.repeat(N_range / DEG, len(K_range)),
              np.tile(K_range / DEG, len(N_range)),
              (grid_km / NMI_KM).ravel())


def compliance_to_json(path, res: ComplianceResult,
                       notes: list[str] | None = None) -> None:
    """The check report from the budget it judged; with no path, only its
    ``pass``, ``fde95_nmi``, ``margin_nmi`` and ``notes`` keys, to stdout."""
    b = res.budget
    doc = {
        "pass": res.passed,
        "fde95_nmi": b.fde95_nmi,
        "margin_nmi": res.margin_nmi,
        "target_nmi": res.target.fde95 / NMI_KM,
        "evaluate_at_h": res.target.flight.duration,
        "breakdown": {
            "sigma_atrk_km": b.sigma_atrk,
            "sigma_xtrk_km": b.sigma_xtrk,
            "sigma_fde_km": b.sigma_fde,
            **{f"{f.name}_km2": getattr(b, f.name) for f in fields(b)},
        },
        "notes": notes or [],
    }
    if path is None:
        doc = {k: doc[k] for k in ("pass", "fde95_nmi", "margin_nmi", "notes")}
    write_json(path, doc)
