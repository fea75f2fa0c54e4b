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


@dataclass
class EnsembleStats:
    """Per-group, per-time sample standard deviations over simulated flights."""

    times: np.ndarray
    std_atrk: np.ndarray        # (n_groups, n_times), km
    std_xtrk: np.ndarray
    pooled_std_atrk: np.ndarray  # (n_times,), all groups pooled
    pooled_std_xtrk: np.ndarray
    n_flights: int
    model: GyroErrorModel
    profile: FlightProfile

    @property
    def n_groups(self) -> int:
        """The number of groups, the rows of std_atrk."""
        return self.std_atrk.shape[0]

    def to_csv(self, path) -> None:
        """Header ``t_h,group,std_atrk_km,std_xtrk_km``, group-major."""
        write_csv(path, ("t_h", "group", "std_atrk_km", "std_xtrk_km"),
                  np.tile(self.times, self.n_groups),
                  np.repeat(np.arange(self.n_groups), len(self.times)),
                  self.std_atrk.ravel(), self.std_xtrk.ravel())


def simulate_flight(m: GyroErrorModel, p: FlightProfile,
                    seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One flight's times, along- and cross-track errors (km): n_steps+1 entries
    each, from exact zeros.  ``seed`` is an int or a keyed SeedSequence."""
    n, dt = p.n_steps, p.dt
    errs = []
    for axis in range(2):
        rate = _rate_series(m, n, dt, seed, prefix=(axis,))
        dtheta = np.cumsum(rate) * dt
        if axis == 0:
            err = p.R * dtheta
        else:
            err = np.cumsum(dtheta) * (p.v * dt)
        errs.append(np.concatenate(([0.0], err)))
    times = np.arange(n + 1) * dt
    return times, errs[0], errs[1]


def _group_accumulators(args):
    """Sum and sum-of-squares over one group's flights at the stat indices."""
    m, p, g, n_flights, master_seed, idx = args
    s = np.zeros((2, len(idx)))
    ss = np.zeros((2, len(idx)))
    for i in range(n_flights):
        key = np.random.SeedSequence(entropy=master_seed, spawn_key=(g, i))
        _, atrk, xtrk = simulate_flight(m, p, key)
        for ax, err in enumerate((atrk, xtrk)):
            v = err[idx]
            s[ax] += v
            ss[ax] += v * v
    return s, ss


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
    times = idx * p.dt

    # allocated before any flight runs: a group count too large to hold
    # fails here, at once
    std = np.zeros((2, n_groups, len(idx)))
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
        results = [_group_accumulators(j) for j in jobs]

    nf = float(n_flights)
    tot_s = np.zeros((2, len(idx)))
    tot_ss = np.zeros((2, len(idx)))
    for g, (s, ss) in enumerate(results):
        var = np.maximum(ss - s * s / nf, 0.0) / (nf - 1.0)
        std[:, g, :] = np.sqrt(var)
        tot_s += s
        tot_ss += ss
    ntot = nf * n_groups
    pooled_var = np.maximum(tot_ss - tot_s * tot_s / ntot, 0.0) / (ntot - 1.0)
    pooled = np.sqrt(pooled_var)

    return EnsembleStats(times=times, std_atrk=std[0], std_xtrk=std[1],
                         pooled_std_atrk=pooled[0], pooled_std_xtrk=pooled[1],
                         n_flights=n_flights, model=m, profile=p)


@dataclass
class ComparisonReport:
    """Group-level agreement between simulated stds and the analytic curves."""

    times: np.ndarray
    analytic_atrk: np.ndarray
    analytic_xtrk: np.ndarray
    rel_dev_atrk: np.ndarray     # (n_groups, n_times)
    rel_dev_xtrk: np.ndarray
    coverage_atrk: np.ndarray    # (n_times,) fraction of groups inside the band
    coverage_xtrk: np.ndarray
    pooled_rel_dev_atrk: np.ndarray
    pooled_rel_dev_xtrk: np.ndarray
    band_lo: float
    band_hi: float
    confidence: float

    def to_json(self, path) -> None:
        doc = {
            "times_h": self.times.tolist(),
            "band": {"lo": self.band_lo, "hi": self.band_hi,
                     "confidence": self.confidence},
            "atrk": {
                "analytic_km": self.analytic_atrk.tolist(),
                "rel_dev": self.rel_dev_atrk.tolist(),
                "coverage": self.coverage_atrk.tolist(),
                "pooled_rel_dev": self.pooled_rel_dev_atrk.tolist(),
            },
            "xtrk": {
                "analytic_km": self.analytic_xtrk.tolist(),
                "rel_dev": self.rel_dev_xtrk.tolist(),
                "coverage": self.coverage_xtrk.tolist(),
                "pooled_rel_dev": self.pooled_rel_dev_xtrk.tolist(),
            },
        }
        write_json(path, doc)

    def coverage_at(self, t: float, axis: str) -> float:
        j = int(np.argmin(np.abs(self.times - t)))
        return float((self.coverage_atrk if axis == "ATRK"
                      else self.coverage_xtrk)[j])

    def pooled_rel_dev_at(self, t: float, axis: str) -> float:
        j = int(np.argmin(np.abs(self.times - t)))
        return float((self.pooled_rel_dev_atrk if axis == "ATRK"
                      else self.pooled_rel_dev_xtrk)[j])


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

    rel = np.zeros((2, stats.n_groups, len(stats.times)))
    cov = np.zeros((2, len(stats.times)))
    pooled_rel = np.zeros((2, len(stats.times)))
    for ax, (grp, pooled) in enumerate((
            (stats.std_atrk, stats.pooled_std_atrk),
            (stats.std_xtrk, stats.pooled_std_xtrk))):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(ana[ax] > 0, grp / ana[ax], 1.0)
            pooled_ratio = np.where(ana[ax] > 0, pooled / ana[ax], 1.0)
        rel[ax] = ratio - 1.0
        cov[ax] = np.mean((ratio >= lo) & (ratio <= hi), axis=0)
        pooled_rel[ax] = pooled_ratio - 1.0

    return ComparisonReport(
        times=stats.times, analytic_atrk=ana[0], analytic_xtrk=ana[1],
        rel_dev_atrk=rel[0], rel_dev_xtrk=rel[1],
        coverage_atrk=cov[0], coverage_xtrk=cov[1],
        pooled_rel_dev_atrk=pooled_rel[0], pooled_rel_dev_xtrk=pooled_rel[1],
        band_lo=lo, band_hi=hi, confidence=confidence)
