"""Discrete-time flight simulation and ensemble statistics.

Each flight carries two independent gyro axes: pitch errors integrate into
along-track arc-length error R * dtheta, yaw errors integrate twice (rate ->
heading -> lateral offset) into cross-track error y with dy = v dtheta dt.
Flight (g, i) draws every random number from substreams keyed on
(master_seed, g, i, axis, process), so ensembles are bit-reproducible and
independent of execution order and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._io import write_csv, write_json
from .allan import _chi2_band
from .budget import FlightProfile, fde_sigma
from .gyro import GyroErrorModel, _rate_series

__all__ = [
    "EnsembleStats", "ComparisonReport",
    "simulate_flight", "run_ensemble", "compare_to_analytic",
]


# axis 0 of every stacked statistic: along-track, then cross-track
AXES = ("ATRK", "XTRK")


@dataclass
class EnsembleStats:
    """Per-group, per-time sample standard deviations over simulated flights.

    Axis 0 of ``std`` and ``pooled_std`` is the error axis, in the order of
    ``AXES``: along-track (ATRK), then cross-track (XTRK)."""

    times: np.ndarray
    std: np.ndarray         # (2, n_groups, n_times), km
    pooled_std: np.ndarray  # (2, n_times), all groups pooled
    n_flights: int
    model: GyroErrorModel
    profile: FlightProfile

    @property
    def n_groups(self) -> int:
        """The number of groups, axis 1 of std."""
        return self.std.shape[1]

    def to_csv(self, path) -> None:
        """Header ``t_h,group,std_atrk_km,std_xtrk_km``, group-major."""
        write_csv(path, ("t_h", "group", "std_atrk_km", "std_xtrk_km"),
                  np.tile(self.times, self.n_groups),
                  np.repeat(np.arange(self.n_groups), len(self.times)),
                  *self.std.reshape(2, -1))


def _flight_errors(m: GyroErrorModel, p: FlightProfile, seed, idx: np.ndarray,
                   buf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (axis x len(idx)) with one flight's along- and cross-track
    errors (km) at the step indices ``idx``, which start at 0, where both
    are exact zeros.  ``buf`` (n_steps entries) holds each axis's rate, then
    its angle sums, in place."""
    dt = p.dt
    at = idx[1:] - 1
    out[:, 0] = 0.0
    for axis in range(2):
        _rate_series(m, dt, seed, buf, prefix=(axis,))
        np.cumsum(buf, out=buf)
        buf *= dt  # dtheta
        if axis == 0:
            out[0, 1:] = p.R * buf[at]
        else:
            np.cumsum(buf, out=buf)
            out[1, 1:] = buf[at] * (p.v * dt)
    return out


def simulate_flight(m: GyroErrorModel, p: FlightProfile,
                    seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One flight's times, along- and cross-track errors (km): n_steps+1 entries
    each, from exact zeros.  ``seed`` is an int or a keyed SeedSequence."""
    n = p.n_steps
    idx = np.arange(n + 1)
    atrk, xtrk = _flight_errors(m, p, seed, idx, np.empty(n), np.empty((2, n + 1)))
    return idx * p.dt, atrk, xtrk


def _group_accumulators(args) -> np.ndarray:
    """The (s, ss) x axis x time sums and sums of squares of one group's
    flight errors at the stat indices, every flight integrated in one buffer."""
    m, p, g, n_flights, master_seed, idx = args
    sums = np.zeros((2, 2, len(idx)))
    buf, v = np.empty(p.n_steps), np.empty((2, len(idx)))
    for i in range(n_flights):
        key = np.random.SeedSequence(entropy=master_seed, spawn_key=(g, i))
        _flight_errors(m, p, key, idx, buf, v)
        sums[0] += v
        sums[1] += v * v
    return sums


def _sample_std(sums: np.ndarray, n: float) -> np.ndarray:
    """The ddof-1 standard deviation of n draws from their (s, ss) sums."""
    s, ss = sums
    return np.sqrt(np.maximum(ss - s * s / n, 0.0) / (n - 1.0))


def run_ensemble(m: GyroErrorModel, p: FlightProfile, n_flights: int,
                 n_groups: int, master_seed: int, stat_stride: int = 1,
                 n_workers: int = 1) -> EnsembleStats:
    """Simulate n_groups x n_flights flights and reduce to per-time group stds.

    ``stat_stride`` thins the time grid the statistics are recorded on (the
    simulation itself always runs at the profile step).  ``n_workers`` groups
    may run in separate processes; the result is bit-identical for any worker
    count because each group is reduced independently in flight order.
    """
    if n_flights < 2:
        raise ValueError("need at least 2 flights per group")
    if n_groups < 1:
        raise ValueError("need at least 1 group")
    if stat_stride < 1:
        raise ValueError("stat_stride must be >= 1")
    if n_workers < 1:
        raise ValueError(f"need at least 1 worker, got {n_workers}")

    n = p.n_steps
    # a stride past the last step records [0, n]; capped, numpy can take it
    idx = np.arange(0, n + 1, min(stat_stride, n))
    if idx[-1] != n:
        idx = np.append(idx, n)

    # (s, ss) x axis x group x time, allocated before any flight runs: a
    # group count too large to hold fails here, at once
    sums = np.zeros((2, 2, n_groups, len(idx)))
    jobs = ((m, p, g, n_flights, master_seed, idx) for g in range(n_groups))
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        # a worker started by spawn or forkserver does not inherit the
        # caller's floating-point error state, so pass it on; under fork the
        # pool starts every worker it may use, so it may use one per group
        with ProcessPoolExecutor(max_workers=min(n_workers, n_groups),
                                 initializer=partial(np.seterr, **np.geterr())) as pool:
            results = list(pool.map(_group_accumulators, jobs))
    else:
        results = map(_group_accumulators, jobs)
    for g, group_sums in enumerate(results):
        sums[:, :, g] = group_sums

    nf = float(n_flights)
    return EnsembleStats(times=idx * p.dt, std=_sample_std(sums, nf),
                         pooled_std=_sample_std(sums.sum(axis=2), nf * n_groups),
                         n_flights=n_flights, model=m, profile=p)


@dataclass
class ComparisonReport:
    """Group-level agreement between simulated stds and the analytic curves.

    Axis 0 of every array but ``times`` is the error axis, in the order of
    ``AXES``: along-track (ATRK), then cross-track (XTRK)."""

    times: np.ndarray
    analytic: np.ndarray        # (2, n_times), km
    rel_dev: np.ndarray         # (2, n_groups, n_times)
    coverage: np.ndarray        # (2, n_times) fraction of groups inside the band
    pooled_rel_dev: np.ndarray  # (2, n_times)
    band_lo: float
    band_hi: float
    confidence: float

    def to_json(self, path) -> None:
        doc = {
            "times_h": self.times.tolist(),
            "band": {"lo": self.band_lo, "hi": self.band_hi,
                     "confidence": self.confidence},
        }
        for ax, name in enumerate(AXES):
            doc[name.lower()] = {
                "analytic_km": self.analytic[ax].tolist(),
                "rel_dev": self.rel_dev[ax].tolist(),
                "coverage": self.coverage[ax].tolist(),
                "pooled_rel_dev": self.pooled_rel_dev[ax].tolist(),
            }
        write_json(path, doc)


def compare_to_analytic(stats: EnsembleStats, m: GyroErrorModel,
                        p: FlightProfile,
                        confidence: float = 0.95) -> ComparisonReport:
    """Relative deviations of group stds from the analytic sigmas, and the
    fraction of groups inside the chi-square band for a sample std of
    n_flights Gaussian draws (about +-14% at n=100, 95%)."""
    if m != stats.model or p != stats.profile:
        raise ValueError("stats were produced from a different model/profile")
    lo, hi = map(float, _chi2_band(stats.n_flights - 1, confidence))

    b = fde_sigma(m, p, stats.times)
    ana = np.array([b.sigma_atrk, b.sigma_xtrk])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ana[:, None] > 0, stats.std / ana[:, None], 1.0)
        pooled_ratio = np.where(ana > 0, stats.pooled_std / ana, 1.0)
    return ComparisonReport(
        times=stats.times, analytic=ana, rel_dev=ratio - 1.0,
        coverage=np.mean((ratio >= lo) & (ratio <= hi), axis=1),
        pooled_rel_dev=pooled_ratio - 1.0,
        band_lo=lo, band_hi=hi, confidence=confidence)
