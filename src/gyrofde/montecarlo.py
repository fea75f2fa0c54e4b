"""Discrete-time flight simulation and ensemble statistics.

Each flight carries two independent gyro axes: pitch errors integrate into
along-track arc-length error R * theta, yaw errors integrate twice (rate ->
heading -> lateral offset) into cross-track error y with dy = v theta dt.

The flight model is a zero-order-hold step of dt.  An axis's state is
x = (s_1..s_D, theta, y), its drift states, angle and offset, and one step
is linear-Gaussian, x <- F x + B u, with u standard normal:

    s_i   <- q_i s_i + K_i sqrt(dt) w_i,      q_i = exp(-dt/Tc_i)
    theta <- theta + dt sum_i s_i + N sqrt(dt) z
    y     <- y + v dt theta                   (the new theta)

So k steps are one draw from (F^k, Q_k), which repeated squaring builds from
the one-step map, once per distinct interval length.  A flight is sampled
exactly, from the same law as a step-by-step integration, at its stat
indices only: the cost grows with the number of stat times and with
log2(stride), not with the number of steps.  Group g draws all of its
flights, in flight order, from one generator keyed on (master_seed, g),
gyro.substream(master_seed, g): flight i of the group is row i of its
(n_flights, 2, normals per axis) standard normals.  So ensembles are
bit-reproducible and independent of execution order, worker count and
block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._io import write_csv, write_json
from .allan import _chi2_band
from .budget import FlightProfile, _drift_pairs, fde_sigma
from .gyro import GyroErrorModel, _first_order_filter, substream

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


def _step_map(m: GyroErrorModel, p: FlightProfile):
    """(F, Q, turn-on stds) of one step of dt on the state (s_1..s_D, theta, y).

    A drift with K = 0 is left out, by the closed forms' rule.  The turn-on
    std of drift i is its stationary K_i sqrt(Tc_i/2), or 0 without turn-on.
    """
    drifts = _drift_pairs(m)
    D = len(drifts)
    # numpy operands: an overflow meets the caller's np.errstate
    dt, v = np.float64(p.dt), np.float64(p.v)
    F, B = np.eye(D + 2), np.zeros((D + 2, D + 1))
    for i, (K, Tc) in enumerate(drifts):
        F[i, i] = np.exp(-(p.dt / Tc))
        B[i, i] = K * np.sqrt(dt)
    F[D, :D] = dt
    F[D + 1, :D] = v * dt * dt
    F[D + 1, D] = v * dt
    B[D, D] = np.float64(m.N) * np.sqrt(dt)
    B[D + 1, D] = v * dt * B[D, D]
    sd = np.array([K * np.sqrt(Tc / 2.0) if m.turn_on else 0.0 for K, Tc in drifts])
    return F, B @ B.T, sd


def _then(a, b):
    """Interval a, then interval b: (F_b F_a, F_b Q_a F_b^T + Q_b)."""
    (Fa, Qa), (Fb, Qb) = a, b
    return Fb @ Fa, Fb @ Qa @ Fb.T + Qb


def _interval_map(F: np.ndarray, Q: np.ndarray, k: int):
    """(F^k, Q_k) of k >= 1 steps of the one-step map (F, Q), by repeated
    squaring."""
    result, power = None, (F, Q)
    while True:
        if k & 1:
            result = power if result is None else _then(result, power)
        k >>= 1
        if not k:
            return result
        power = _then(power, power)


def _noise_factor(Q: np.ndarray) -> np.ndarray:
    """L with L L^T = Q, one column per direction of nonzero variance.

    The eigenvectors come from Q scaled to a unit diagonal, so states of
    very different size (an angle, an offset in km) factor alike; a
    direction whose eigenvalue is at rounding level is dropped, as is a
    state of no variance."""
    scale = np.sqrt(np.diag(Q))
    live = scale > 0.0
    L = np.zeros((len(Q), 0))
    if live.any():
        s = scale[live]
        w, V = np.linalg.eigh(Q[np.ix_(live, live)] / s[:, None] / s)
        keep = w > len(w) * np.finfo(float).eps * w[-1]
        L = np.zeros((len(Q), int(keep.sum())))
        L[live] = s[:, None] * V[:, keep] * np.sqrt(w[keep])
    return L


def _interval_model(m: GyroErrorModel, p: FlightProfile, idx: np.ndarray):
    """(turn-on stds, segments) of the flight between the stat indices idx,
    which start at 0.  Each segment is (count, F^k, L): count consecutive
    intervals of k steps, with L L^T = Q_k.  Every interval has the stride's
    length but the last, which may be shorter."""
    F, Q, sd = _step_map(m, p)
    M = len(idx) - 1
    k, last = int(idx[1] - idx[0]), int(idx[-1] - idx[-2])
    lengths = [(M - 1, k), (1, last)] if last != k else [(M, k)]
    segments = []
    for count, length in lengths:
        Fk, Qk = _interval_map(F, Q, length)
        segments.append((count, Fk, _noise_factor(Qk)))
    return sd, tuple(segments)


def _normals_per_axis(model) -> int:
    """How many standard normals one flight axis of ``model`` takes."""
    sd, segments = model
    return len(sd) + sum(count * L.shape[1] for count, _, L in segments)


def _flight_errors(model, p: FlightProfile, normals: np.ndarray) -> np.ndarray:
    """(flight, axis, stat time) along- and cross-track errors (km) at the
    stat times of ``model`` (see _interval_model), from each flight's
    (axis, _normals_per_axis) standard normals; both are exact zeros at
    time 0.

    Per axis a flight takes its D turn-on normals, used or not, then each
    segment's normals, a (rank, count) block.  The drift states follow
    s_j = q^k s_{j-1} + noise, and theta and y sum their increments; every
    operation is elementwise or along a flight's own row, so a flight's
    errors do not depend on the other flights drawn with it."""
    sd, segments = model
    D, B = len(sd), len(normals)
    M = sum(count for count, _, _ in segments)
    ends = np.cumsum([D] + [count * L.shape[1] for count, _, L in segments])
    out = np.empty((B, 2, M + 1))
    out[:, :, 0] = 0.0

    def coef(row, col):
        """F^k[row, col] of every interval."""
        return np.concatenate([np.full(count, Fk[row, col]) for count, Fk, _ in segments])

    def noise(c):
        """State c's part of every interval's draw: (flight, interval)."""
        u, j = np.zeros((B, M)), 0
        for (count, _, L), lo, hi in zip(segments, ends[:-1], ends[1:]):
            draws = z[:, lo:hi].reshape(B, L.shape[1], count)
            for r in range(L.shape[1]):
                u[:, j:j + count] += L[c, r] * draws[:, r]
            j += count
        return u

    # the drift recursion runs over the first M - 1 intervals, which share
    # the first segment's map
    q = segments[0][1].diagonal()
    for axis in range(2):
        z = normals[:, axis]
        s = []  # s[i][:, j]: drift i at the start of interval j
        for i in range(D):
            si = np.empty((B, M))
            si[:, 0] = sd[i] * z[:, i]
            if M > 1:
                si[:, 1:] = _first_order_filter()(q[i], noise(i)[:, :-1], si[:, 0])
            s.append(si)
        inc = noise(D)
        for i in range(D):
            inc += coef(D, i) * s[i]
        theta = out[:, axis, 1:]
        np.cumsum(inc, axis=1, out=theta)
        if axis == 0:
            theta *= p.R
            continue
        before = np.zeros((B, M))  # theta at each interval's start
        before[:, 1:] = theta[:, :-1]
        inc = noise(D + 1)
        inc += coef(D + 1, D) * before
        for i in range(D):
            inc += coef(D + 1, i) * s[i]
        np.cumsum(inc, axis=1, out=out[:, 1, 1:])
    return out


def simulate_flight(m: GyroErrorModel, p: FlightProfile,
                    seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One flight's times, along- and cross-track errors (km): n_steps+1 entries
    each, from exact zeros.  ``seed`` is an int or a keyed SeedSequence."""
    idx = np.arange(p.n_steps + 1)
    model = _interval_model(m, p, idx)
    normals = np.random.default_rng(seed).standard_normal((1, 2, _normals_per_axis(model)))
    errors = _flight_errors(model, p, normals)
    return idx * p.dt, errors[0, 0], errors[0, 1]


# a block of flights holds about this many floats per array
_BLOCK_FLOATS = 2 ** 16


def _group_accumulators(args) -> np.ndarray:
    """The (s, ss) x axis x time sums and sums of squares of one group's
    flight errors at the stat times.  The flights take their normals in
    flight order from the group's keyed generator, one standard_normal call
    per block of flights."""
    model, p, g, n_flights, master_seed = args
    sd, segments = model
    n_times = 1 + sum(count for count, _, _ in segments)
    block = max(1, _BLOCK_FLOATS // (n_times * (len(sd) + 2)))
    rng = substream(master_seed, g)
    normals = np.empty((min(block, n_flights), 2, _normals_per_axis(model)))
    sums = np.zeros((2, 2, n_times))
    for first in range(0, n_flights, block):
        drawn = normals[:n_flights - first]
        rng.standard_normal(out=drawn)
        v = _flight_errors(model, p, drawn)
        # the sums so far enter with the block's first flight: a sum over
        # axis 0 adds in flight order, so the sums do not depend on the block
        for k, x in enumerate((v, v * v)):
            x[0] += sums[k]
            x.sum(axis=0, out=sums[k])
    return sums


def _sample_std(sums: np.ndarray, n: float) -> np.ndarray:
    """The ddof-1 standard deviation of n draws from their (s, ss) sums."""
    s, ss = sums
    return np.sqrt(np.maximum(ss - s * s / n, 0.0) / (n - 1.0))


def run_ensemble(m: GyroErrorModel, p: FlightProfile, n_flights: int,
                 n_groups: int, master_seed: int, stat_stride: int = 1,
                 n_workers: int = 1) -> EnsembleStats:
    """Simulate n_groups x n_flights flights and reduce to per-time group stds.

    ``stat_stride`` sets the time grid the statistics are recorded on, and
    the flights are sampled on that grid alone, from the law of the profile
    step.  ``n_workers`` groups may run in separate processes; the result is
    bit-identical for any worker count because each group is reduced
    independently in flight order.
    """
    if not 2 <= n_flights <= 2 ** 32:
        raise ValueError(f"need 2 to 2**32 flights per group, got {n_flights}")
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
    model = _interval_model(m, p, idx)
    jobs = ((model, p, g, n_flights, master_seed) for g in range(n_groups))
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
