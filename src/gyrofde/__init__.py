"""gyrofde: gyroscope noise/drift -> aircraft position-error budgets.

Closed-form along-track / cross-track / fix-displacement error expressions,
Allan-deviation analysis and drift identification, seeded Monte-Carlo flight
validation, and requirement trade-study solvers.
"""

from .allan import (AllanCurve, AllanLandmarks, allan_deviation_analytic,
                    allan_landmarks_analytic, allan_variance_analytic,
                    allan_variance_empirical, confidence_band,
                    default_tau_grid, estimator_dof, identify_from_max)
from .budget import (ErrorBudget, FlightProfile, atrk_variance, fde_sigma,
                     turnon_fraction, xtrk_variance)
from .gyro import (DriftSpec, GyroErrorModel, NoiseSpec, RateTrace,
                   drift_stationary_std, substream, synthesize_rate_trace)
from .montecarlo import (ComparisonReport, EnsembleStats, FlightSample,
                         compare_to_analytic, run_ensemble, simulate_flight)
from .tradestudy import (ComplianceResult, ContourResult, RequirementTarget,
                         TcSolution, check_requirement, fde95_of, fde_grid,
                         solve_K, solve_K_contour, solve_Tc)
from .units import Quantity, UnitError, convert, parse_quantity

__version__ = "0.1.0"

__all__ = [
    "Quantity", "UnitError", "convert", "parse_quantity",
    "NoiseSpec", "DriftSpec", "GyroErrorModel", "RateTrace",
    "drift_stationary_std", "synthesize_rate_trace", "substream",
    "AllanCurve", "AllanLandmarks", "allan_variance_analytic",
    "allan_deviation_analytic", "allan_variance_empirical",
    "allan_landmarks_analytic", "identify_from_max", "default_tau_grid",
    "estimator_dof", "confidence_band",
    "FlightProfile", "ErrorBudget", "atrk_variance", "xtrk_variance",
    "fde_sigma", "turnon_fraction",
    "FlightSample", "EnsembleStats", "ComparisonReport", "simulate_flight",
    "run_ensemble", "compare_to_analytic",
    "RequirementTarget", "ComplianceResult", "TcSolution", "ContourResult",
    "check_requirement", "solve_K", "solve_Tc", "solve_K_contour", "fde_grid",
    "fde95_of",
]
