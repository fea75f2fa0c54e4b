"""Statistical gyroscope error model and seeded rate-error synthesis.

The measured rate error is white noise plus one or more exponentially
correlated (first-order Markov) drift processes:

    noise sample          w_N / sqrt(dt),        w_N ~ N(0, N^2)
    drift state update    s <- s exp(-dt/Tc) + w_K sqrt(dt),  w_K ~ N(0, K^2)

All quantities are canonical (rad, h).  Randomness is always drawn from an
explicit numpy Generator; reproducible substreams are derived from a master
seed with ``substream`` so results never depend on execution order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from ._io import write_csv
from .units import DEG

__all__ = [
    "NoiseSpec", "DriftSpec", "GyroErrorModel", "RateTrace",
    "substream", "drift_stationary_std", "synthesize_rate_trace",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Angle-random-walk amplitude N, rad/sqrt(h)."""

    N: float

    def __post_init__(self):
        if not (self.N >= 0.0 and math.isfinite(self.N)):
            raise ValueError(f"N must be finite and >= 0, got {self.N}")


@dataclass(frozen=True)
class DriftSpec:
    """One Markov drift process: amplitude K (rad/h^(3/2)), time constant Tc (h)."""

    K: float
    Tc: float

    def __post_init__(self):
        if not (self.K >= 0.0 and math.isfinite(self.K)):
            raise ValueError(f"K must be finite and >= 0, got {self.K}")
        if not (self.Tc > 0.0 and math.isfinite(self.Tc)):
            raise ValueError(f"Tc must be finite and > 0, got {self.Tc}")


@dataclass(frozen=True)
class GyroErrorModel:
    """Noise plus an ordered list of drift processes.

    ``turn_on`` selects whether each drift state starts from its stationary
    distribution (a gyroscope switched on with residual drift history) or
    from exactly zero.
    """

    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec(0.0))
    drifts: tuple[DriftSpec, ...] = ()
    turn_on: bool = True

    def __post_init__(self):
        object.__setattr__(self, "drifts", tuple(self.drifts))

    @classmethod
    def from_deg(cls, N_deg_sqrt_h: float = 0.0,
                 drifts_deg: tuple[tuple[float, float], ...] = (),
                 turn_on: bool = True) -> "GyroErrorModel":
        """Convenience constructor taking N in deg/sqrt(h) and (K deg/h^1.5, Tc h)."""
        return cls(NoiseSpec(N_deg_sqrt_h * DEG),
                   tuple(DriftSpec(k * DEG, tc) for k, tc in drifts_deg),
                   turn_on)


@dataclass
class RateTrace:
    """Bench-test rate-error record: n samples at step dt covering `duration`."""

    dt: float
    samples: np.ndarray
    duration: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        n = len(self.samples)
        if abs(n * self.dt - self.duration) > 1.5 * self.dt:
            raise ValueError(
                f"{n} samples x dt={self.dt} != duration={self.duration}")

    def to_csv(self, path) -> None:
        """Header ``t_h,rate_deg_per_h``; timestamps at interval ends."""
        write_csv(path, ("t_h", "rate_deg_per_h"),
                  np.arange(1, len(self.samples) + 1) * self.dt, self.samples / DEG)

    @classmethod
    def from_csv(cls, path) -> "RateTrace":
        """Read a ``to_csv`` record.  dt is the first timestamp; every value
        must be finite and row i's timestamp within 1e-3 dt of i dt."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["t_h", "rate_deg_per_h"]:
            raise ValueError(f"{path}: expected header t_h,rate_deg_per_h")
        body = rows[1:]
        if not body:
            raise ValueError(f"{path}: empty trace")
        try:
            t = np.array([float(a) for a, _ in body])
            rates = np.array([float(b) for _, b in body]) * DEG
        except ValueError:
            for line, row in enumerate(body, start=2):
                try:
                    a, b = row
                    float(a), float(b)
                except ValueError:
                    raise ValueError(f"{path}:{line}: expected two numbers, "
                                     f"got {','.join(row)!r}") from None
        dt = float(t[0])
        # strict, so that dt <= 0 fails on the first row
        on_grid = np.abs(t - np.arange(1, len(t) + 1) * dt) < 1e-3 * dt
        for what, bad in (("non-finite timestamp", ~np.isfinite(t)),
                          ("non-finite rate", ~np.isfinite(rates)),
                          (f"timestamp is not (i+1) dt to within 1e-3 dt "
                           f"(dt = {dt!r} h, the first timestamp)", ~on_grid)):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"{path}:{i + 2}: {what}: {','.join(body[i])!r}")
        return cls(dt=dt, samples=rates, duration=len(rates) * dt)


def substream(seed, *key: int) -> np.random.Generator:
    """Generator for a keyed substream of ``seed``.

    ``seed`` is an int master seed or an existing SeedSequence; ``key`` extends
    its spawn key, so (seed, *key) fully determines the stream regardless of
    what else has been drawn or in which order streams are created.
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = np.random.SeedSequence(entropy=seed.entropy,
                                    spawn_key=tuple(seed.spawn_key) + key)
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.default_rng(ss)


def drift_stationary_std(d: DriftSpec) -> float:
    """Stationary standard deviation K sqrt(Tc/2) of the drift state, rad/h."""
    return d.K * math.sqrt(d.Tc / 2.0)


def _drift_states(d: DriftSpec, n_steps: int, dt: float,
                  init_rng: np.random.Generator,
                  sample_rng: np.random.Generator, turn_on: bool) -> np.ndarray:
    """States s_0..s_{n-1} held over each step interval (zero-order hold).

    s_0 is the turn-on draw from the stationary distribution (or exactly 0,
    with no draw); s_j = s_{j-1} exp(-dt/Tc) + K sqrt(dt) w_j.  The tests pin
    this bit for bit to the stepwise loop of ``tests/oracles.py``.
    """
    from scipy.signal import lfilter

    s0 = drift_stationary_std(d) * float(init_rng.standard_normal()) if turn_on else 0.0
    if n_steps == 1:
        return np.array([s0])
    q = math.exp(-dt / d.Tc)
    impulses = (d.K * math.sqrt(dt)) * sample_rng.standard_normal(n_steps - 1)
    tail, _ = lfilter([1.0], [1.0, -q], impulses, zi=np.array([q * s0]))
    return np.concatenate(([s0], tail))


def _rate_series(m: GyroErrorModel, n_steps: int, dt: float, seed,
                 prefix: tuple[int, ...] = ()) -> np.ndarray:
    """Per-step rate error, rad/h, from keyed substreams of ``seed``.

    Process p's streams are keyed (*prefix, p, 0) for the turn-on draw and
    (*prefix, p, 1) for per-step samples; noise is process 0, drift i is
    process 1+i.  Separating the turn-on draw keeps all in-flight randomness
    identical when only the turn_on flag changes.
    """
    rate = (m.noise.N / math.sqrt(dt)) * \
        substream(seed, *prefix, 0, 1).standard_normal(n_steps)
    for i, d in enumerate(m.drifts):
        rate += _drift_states(d, n_steps, dt,
                              substream(seed, *prefix, 1 + i, 0),
                              substream(seed, *prefix, 1 + i, 1), m.turn_on)
    return rate


def synthesize_rate_trace(m: GyroErrorModel, duration: float, dt: float,
                          seed) -> RateTrace:
    """Simulate a bench recording of the rate error (zero applied rotation).

    Keyed substreams per process make the trace bit-reproducible for a given
    seed and unaffected by evaluation order.
    """
    if dt <= 0.0 or duration < dt:
        raise ValueError(f"need duration >= dt > 0, got duration={duration}, dt={dt}")
    n = int(round(duration / dt))
    return RateTrace(dt=dt, samples=_rate_series(m, n, dt, seed),
                     duration=n * dt)
