"""The two fixed gyro models the workloads use, as CLI flags and as
canonical (rad, h) parameters for the oracles."""

from __future__ import annotations

from oracles import DEG

# The navigation-grade point: N = 0.005 deg/sqrt(h), K = 0.01 deg/h^1.5,
# Tc = 1 h.  Its drift bump is buried under the noise (no Allan landmarks).
NAV = (0.005, 0.01, 1.0)
# A drift-dominated model whose Allan maximum (1.89 Tc = 340 s) a 24 h record
# at 1 s resolves on every seed tried (see README).
ALLAN = (1e-4, 0.03, 0.05)


def flags(model) -> list[str]:
    N, K, Tc = model
    return ["--noise", f"{N!r} deg_per_sqrt_h", "--drift", f"{K!r} deg_per_h_3_2, {Tc!r} h"]


def oracle_spec(model) -> dict:
    """Model part of a check spec: N and drifts in rad and h."""
    N, K, Tc = model
    return {"N": N * DEG, "drifts": [(K * DEG, Tc)], "turn_on": True}


def gyro_model(model):
    from gyrofde.gyro import GyroErrorModel
    N, K, Tc = model
    return GyroErrorModel.from_deg(N, ((K, Tc),))


NAV_FLAGS, ALLAN_FLAGS = flags(NAV), flags(ALLAN)

