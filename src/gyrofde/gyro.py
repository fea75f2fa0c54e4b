"""Statistical gyroscope error model and seeded rate-error synthesis.

The measured rate error of a ``GyroErrorModel(N, drifts, turn_on)`` is white
noise of amplitude N plus one or more exponentially correlated (first-order
Markov) drift processes ``DriftSpec(K, Tc)``:

    noise sample          w_N / sqrt(dt),        w_N ~ N(0, N^2)
    drift state update    s <- s exp(-dt/Tc) + w_K sqrt(dt),  w_K ~ N(0, K^2)

All quantities are canonical (rad, h).  Randomness is always drawn from an
explicit numpy Generator; reproducible substreams are derived from a master
seed with ``substream`` so results never depend on execution order.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from ._io import read_csv, write_csv
from .units import DEG

__all__ = [
    "DriftSpec", "GyroErrorModel", "RateTrace",
    "substream", "drift_stationary_std", "synthesize_rate_trace",
]


def _whole_steps(span: float, dt: float) -> int | None:
    """The count k >= 1 with span = k dt to 1e-9 relative, else None: the
    one rule for the steps of a flight, a trace record and an Allan window."""
    n = span / dt
    k = round(n) if math.isfinite(n) else 0
    return k if k >= 1 and abs(n - k) <= 1e-9 * n else None


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
    """Angle-random-walk amplitude N (rad/sqrt(h)) plus an ordered list of
    drift processes.

    ``turn_on`` selects whether each drift state starts from its stationary
    distribution (a gyroscope switched on with residual drift history) or
    from exactly zero.
    """

    N: float = 0.0
    drifts: tuple[DriftSpec, ...] = ()
    turn_on: bool = True

    def __post_init__(self):
        if not (self.N >= 0.0 and math.isfinite(self.N)):
            raise ValueError(f"N must be finite and >= 0, got {self.N}")
        object.__setattr__(self, "drifts", tuple(self.drifts))

    @classmethod
    def from_deg(cls, N_deg_sqrt_h: float = 0.0,
                 drifts_deg: tuple[tuple[float, float], ...] = (),
                 turn_on: bool = True) -> "GyroErrorModel":
        """Convenience constructor taking N in deg/sqrt(h) and (K deg/h^1.5, Tc h)."""
        return cls(N_deg_sqrt_h * DEG,
                   tuple(DriftSpec(k * DEG, tc) for k, tc in drifts_deg),
                   turn_on)


@dataclass
class RateTrace:
    """Bench-test rate-error record: n samples at step dt."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)

    @property
    def duration(self) -> float:
        """The span n dt the record covers, h."""
        return len(self.samples) * self.dt

    def to_csv(self, path) -> None:
        """Header ``t_h,rate_deg_per_h``; timestamps at interval ends."""
        write_csv(path, ("t_h", "rate_deg_per_h"),
                  np.arange(1, len(self.samples) + 1) * self.dt, self.samples / DEG)

    @classmethod
    def from_csv(cls, path) -> "RateTrace":
        """Read a ``to_csv`` record.  dt is the first timestamp; every value
        must be finite and row i's timestamp within 1e-3 dt of i dt."""
        t, rates = read_csv(path, ("t_h", "rate_deg_per_h"))
        dt = float(t[0])
        # strict, so that dt <= 0 fails on the first row; a timestamp whose
        # grid point is not finite is off the grid
        with np.errstate(all="ignore"):
            on_grid = np.abs(t - np.arange(1, len(t) + 1) * dt) < 1e-3 * dt
        for what, bad in (("non-finite timestamp", ~np.isfinite(t)),
                          ("non-finite rate", ~np.isfinite(rates)),
                          (f"timestamp is not (i+1) dt to within 1e-3 dt "
                           f"(dt = {dt!r} h, the first timestamp)", ~on_grid)):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"{path}:{i + 2}: {what}: {t[i]},{rates[i]}")
        return cls(dt=dt, samples=rates * DEG)


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


def _load_linear_filter():
    """The C kernel ``_linear_filter(b, a, x, axis, zi)`` that
    ``scipy.signal.lfilter`` hands its arguments to, loaded from its extension
    file alone: importing ``scipy.signal`` loads most of scipy and takes
    about a second."""
    import importlib.machinery
    import importlib.util

    scipy = importlib.util.find_spec("scipy")
    folder = os.path.join(scipy.submodule_search_locations[0], "signal")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sigtools" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.signal._sigtools", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module._linear_filter
    raise ImportError(f"no scipy.signal._sigtools extension in {folder}")


@functools.cache
def _first_order_filter():
    """(q, x, s) -> y with y_j = q y_{j-1} + x_j from y_{-1} = s, along the
    last axis of x; s is a float, or an array of one start per row of x.

    The kernel is private to scipy, so it is used only if it loads and
    reproduces that recursion bit for bit on a small input; otherwise this
    is ``scipy.signal.lfilter`` itself."""
    q, x, s = 0.7, np.array([0.3, -1.1, 2.5, -0.0]), -0.4
    want = np.array(list(itertools.accumulate(x, lambda y, v: q * y + v, initial=s))[1:])
    try:
        kernel = _load_linear_filter()

        def run(q, x, s):
            return kernel(np.array([1.0]), np.array([1.0, -q]), x, -1,
                          np.asarray(q * s)[..., None])[0]

        if run(q, x, s).tobytes() == want.tobytes():
            return run
    except (ImportError, AttributeError, TypeError, ValueError):
        pass  # no file, a file that does not load, or a kernel of another signature
    from scipy.signal import lfilter

    return lambda q, x, s: lfilter([1.0], [1.0, -q], x, zi=np.asarray(q * s)[..., None])[0]


def _add_drift_states(out: np.ndarray, d: DriftSpec, dt: float,
                      init_rng: np.random.Generator,
                      sample_rng: np.random.Generator, turn_on: bool) -> None:
    """Add the states s_0..s_{n-1}, each held over its step interval (zero-order
    hold), into ``out`` of length n.

    s_0 is the turn-on draw from the stationary distribution (or exactly 0,
    with no draw); s_j = s_{j-1} exp(-dt/Tc) + K sqrt(dt) w_j.  The tests pin
    this bit for bit to the stepwise loop of ``tests/oracles.py``.
    """
    s0 = drift_stationary_std(d) * float(init_rng.standard_normal()) if turn_on else 0.0
    out[0] += s0
    if len(out) > 1:
        q = math.exp(-dt / d.Tc)
        impulses = sample_rng.standard_normal(len(out) - 1)
        impulses *= d.K * math.sqrt(dt)
        out[1:] += _first_order_filter()(q, impulses, s0)


def _rate_series(m: GyroErrorModel, dt: float, seed, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the per-step rate error, rad/h, from keyed substreams
    of ``seed``, and return it.

    Process p's streams are keyed (p, 0) for the turn-on draw and (p, 1) for
    per-step samples; noise is process 0, drift i is process 1+i.  Separating
    the turn-on draw keeps all in-flight randomness identical when only the
    turn_on flag changes.
    """
    substream(seed, 0, 1).standard_normal(out=out)
    out *= m.N / math.sqrt(dt)
    for i, d in enumerate(m.drifts):
        _add_drift_states(out, d, dt, substream(seed, 1 + i, 0),
                          substream(seed, 1 + i, 1), m.turn_on)
    return out


def synthesize_rate_trace(m: GyroErrorModel, duration: float, dt: float,
                          seed) -> RateTrace:
    """Simulate a bench recording of the rate error (zero applied rotation)
    over ``duration``, which must be a whole number of steps dt.

    Keyed substreams per process make the trace bit-reproducible for a given
    seed and unaffected by evaluation order.
    """
    if dt <= 0.0 or duration < dt:
        raise ValueError(f"need duration >= dt > 0, got duration={duration}, dt={dt}")
    n = _whole_steps(duration, dt)
    if n is None:
        raise ValueError(f"dt={dt!r} h does not divide the trace duration "
                         f"{duration!r} h into whole steps")
    return RateTrace(dt=dt, samples=_rate_series(m, dt, seed, np.empty(n)))
