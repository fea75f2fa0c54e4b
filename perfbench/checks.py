"""Output checks.

Each check compares program output with values from ``oracles`` (computed
apart from gyrofde) or with properties the method must have, never with a
stored copy of earlier output.  A check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import oracles as o

# Quadrature references agree with the closed forms to ~1e-13; this leaves
# room for last-digit changes in the program and none for a real error.
REL_TOL = 1e-9
# solve_K bisects to hi - lo <= 1e-4 hi and returns the midpoint.
K_REL_TOL = 1e-4


def read_csv(path) -> np.ndarray:
    """Float rows of a CSV after its header; empty cells read as NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(c) if c else math.nan for c in r] for r in rows])


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(want), 1e-300)
    return float(np.max(np.abs(got - want) / scale)) if got.size else 0.0


def _close(problems, what, got, want, tol=REL_TOL) -> None:
    if np.shape(got) != np.shape(want):
        problems.append(f"{what}: shape {np.shape(got)} != {np.shape(want)}")
        return
    err = _rel_err(got, want)
    if not err <= tol:
        problems.append(f"{what}: relative error {err:.3g} > {tol:g}")


def budget_csv(rows: np.ndarray, spec: dict) -> list[str]:
    """``analytic`` CSV: exact noise columns, sigma identities, and every row's
    drift and turn-on terms against quadrature."""
    p = []
    if rows.shape != (spec["points"], 11):
        return [f"budget: shape {rows.shape}, want ({spec['points']}, 11)"]
    t = rows[:, 0]
    _close(p, "budget times", t, np.linspace(0.0, spec["duration"], spec["points"]), 1e-12)
    ref = o.budget(spec["N"], spec["drifts"], spec["turn_on"], spec["R"], spec["v"], t)
    cols = ["sigma_atrk", "sigma_xtrk", "sigma_fde", "fde95_nmi", "atrk_noise",
            "atrk_drift", "atrk_turnon", "xtrk_noise", "xtrk_drift", "xtrk_turnon"]
    for j, key in enumerate(cols, start=1):
        _close(p, f"budget {key}", rows[:, j], ref[key])
    va = rows[:, 5] + rows[:, 6] + rows[:, 7]
    vx = rows[:, 8] + rows[:, 9] + rows[:, 10]
    _close(p, "budget sigma_atrk^2 = sum of terms", rows[:, 1] ** 2, va, 1e-12)
    _close(p, "budget sigma_fde^2 = atrk^2 + xtrk^2", rows[:, 3] ** 2,
           rows[:, 1] ** 2 + rows[:, 2] ** 2, 1e-12)
    return p


def check_report(doc: dict, spec: dict) -> list[str]:
    """``check`` JSON: 2 sigma_FDE against quadrature, verdict and margin."""
    p = []
    ref = float(o.budget(spec["N"], spec["drifts"], True, spec["R"], spec["v"],
                         spec["duration"])["fde95_nmi"])
    _close(p, "check fde95_nmi", doc.get("fde95_nmi", math.nan), ref)
    if doc.get("pass") is not (ref <= spec["target_nmi"]):
        p.append(f"check pass={doc.get('pass')} but 2 sigma = {ref} nmi")
    if not abs(doc.get("margin_nmi", math.nan) - (spec["target_nmi"] - ref)) \
            <= REL_TOL * spec["target_nmi"]:
        p.append(f"check margin_nmi {doc.get('margin_nmi')} != target - {ref}")
    return p


def grid_csv(rows: np.ndarray, spec: dict) -> list[str]:
    """``grid`` CSV: axes, monotonicity in N and K, every cell against
    quadrature (2 sigma_FDE = 2 sqrt(noise(N) + K^2 D) with D independent of
    N and K)."""
    n_N, n_K = len(spec["N_deg"]), len(spec["K_deg"])
    if rows.shape != (n_N * n_K, 3):
        return [f"grid: shape {rows.shape}, want ({n_N * n_K}, 3)"]
    p = []
    g = rows.reshape(n_N, n_K, 3)
    _close(p, "grid N axis", g[:, 0, 0], spec["N_deg"], 1e-12)
    _close(p, "grid K axis", g[0, :, 1], spec["K_deg"], 1e-12)
    fde = g[:, :, 2]
    if np.any(np.diff(fde, axis=0) < 0) or np.any(np.diff(fde, axis=1) < 0):
        p.append("grid: 2 sigma_FDE decreases along N or K")
    ref = _fde95_nmi(np.asarray(spec["N_deg"])[:, None] * o.DEG,
                     np.asarray(spec["K_deg"])[None, :] * o.DEG, spec["Tc"], spec)
    _close(p, "grid fde95_nmi", fde, ref)
    return p


def _unit_drift_var(Tc: float, spec: dict) -> float:
    u = o.drift_unit_variances(Tc, spec["R"], spec["v"], spec["duration"])
    return float(sum(u.values()))


def _fde95_nmi(N, K, Tc, spec) -> np.ndarray:
    """2 sigma_FDE (nmi) at (N, K) pairs, broadcast."""
    an, xn = o.noise_variances(1.0, spec["R"], spec["v"], spec["duration"])
    var = N * N * (an + xn) + K * K * _unit_drift_var(Tc, spec)
    return 2.0 * np.sqrt(var) / o.NMI_KM


def contour_csv(rows: np.ndarray, spec: dict) -> list[str]:
    """``contour`` CSV: feasible iff the noise alone meets the target; each
    required K against the closed-form root of the quadrature budget (the
    variance is linear in K^2), and 2 sigma_FDE there on the target."""
    n = len(spec["N_deg"])
    if rows.shape != (n, 3):
        return [f"contour: shape {rows.shape}, want ({n}, 3)"]
    p = []
    N = np.asarray(spec["N_deg"]) * o.DEG
    _close(p, "contour N axis", rows[:, 0], spec["N_deg"], 1e-12)
    an, xn = o.noise_variances(N, spec["R"], spec["v"], spec["duration"])
    sigma_target = spec["target_nmi"] * o.NMI_KM / 2.0
    feasible = 2.0 * np.sqrt(an + xn) / o.NMI_KM <= spec["target_nmi"]
    if not np.array_equal(rows[:, 2] == 1, feasible):
        p.append("contour: feasible flags differ from noise-only 2 sigma <= target")
        return p
    K = rows[:, 1]
    if np.any(np.isfinite(K) != feasible):
        p.append("contour: K given where infeasible or missing where feasible")
        return p
    N, K, noise = N[feasible], K[feasible], (an + xn)[feasible]
    K_ref = np.sqrt((sigma_target ** 2 - noise) / _unit_drift_var(spec["Tc"], spec)) / o.DEG
    _close(p, "contour K", K, K_ref, 2 * K_REL_TOL)
    _close(p, "contour 2 sigma_FDE on target", _fde95_nmi(N, K * o.DEG, spec["Tc"], spec),
           np.full(len(K), spec["target_nmi"]), 1e-3)
    return p


def fit_from_values(doc: dict, tau_s: float, sigma_deg: float) -> list[str]:
    """``fit-allan --tau-max/--sigma-max``: Tc = tau/1.89, K = sigma/(0.437 sqrt Tc)."""
    p = []
    K, Tc = o.identify_from_max(tau_s / 3600.0, sigma_deg)
    _close(p, "fit-allan Tc_h", doc.get("Tc_h", math.nan), Tc, 1e-12)
    _close(p, "fit-allan K_deg_per_h32", doc.get("K_deg_per_h32", math.nan), K, 1e-12)
    return p


def allan_analytic_csv(rows: np.ndarray, spec: dict) -> list[str]:
    """``allan --analytic-out``: taus on whole steps, sigma against quadrature."""
    p = []
    tau_h = rows[:, 0] / 3600.0
    if len(rows) < 10 or np.any(np.diff(tau_h) <= 0):
        return ["allan analytic: fewer than 10 taus or taus not increasing"]
    ref = np.sqrt(o.allan_variance(spec["N"], spec["drifts"], tau_h)) / o.DEG
    _close(p, "allan analytic sigma", rows[:, 1], ref)
    return p


def landmarks(doc: dict, spec: dict) -> list[str]:
    """Landmarks JSON: tau_min/tau_max are a local minimum/maximum of the
    quadrature curve with the reported ordinates, and (K, Tc) is the
    identification from the maximum."""
    p = []
    curve = lambda tau_s: np.sqrt(o.allan_variance(
        spec["N"], spec["drifts"], np.asarray(tau_s) / 3600.0)) / o.DEG
    for kind, sign in (("min", 1.0), ("max", -1.0)):
        tau, sig = doc.get(f"tau_{kind}_s"), doc.get(f"sigma_{kind}_deg_per_h")
        if tau is None or sig is None:
            p.append(f"landmarks: no {kind}")
            continue
        _close(p, f"landmarks sigma_{kind}", sig, float(curve(tau)))
        around = curve([tau * (1 - 1e-3), tau * (1 + 1e-3)])
        if np.any(sign * (around - sig) < 0):
            p.append(f"landmarks: tau_{kind} is not a local {kind}imum")
    if not p:
        K, Tc = o.identify_from_max(doc["tau_max_s"] / 3600.0, doc["sigma_max_deg_per_h"])
        _close(p, "landmarks K", doc.get("K_deg_per_h32", math.nan), K, 1e-12)
        _close(p, "landmarks Tc", doc.get("Tc_h", math.nan), Tc, 1e-12)
    return p


def ensemble(rows: np.ndarray, spec: dict, confidence: float = 0.999) -> list[str]:
    """Ensemble CSV: at every recorded time after 0 and on both axes, the
    within-group pooled std (groups x (flights - 1) dof) lies in the chi-square
    band around the quadrature sigma.  The band is family-wise over all
    times and axes (Bonferroni); the mean log-ratio over times must also lie
    in the per-time band, which catches a small shift common to all times."""
    G, F = spec["groups"], spec["flights"]
    t = np.unique(rows[:, 0])
    if rows.shape != (G * len(t), 4):
        return [f"ensemble: shape {rows.shape}, want ({G * len(t)}, 4)"]
    p = []
    r = rows.reshape(G, len(t), 4)
    ref = o.budget(spec["N"], spec["drifts"], True, spec["R"], spec["v"], t[1:])
    dof = G * (F - 1)
    lo1, hi1 = o.std_ratio_band(dof, confidence)
    lo, hi = o.std_ratio_band(dof, 1.0 - (1.0 - confidence) / (2 * (len(t) - 1)))
    for j, axis in ((2, "atrk"), (3, "xtrk")):
        if np.any(r[:, 0, j] != 0.0):
            p.append(f"ensemble {axis}: nonzero std at t = 0")
        ratio = np.sqrt(np.mean(r[:, 1:, j] ** 2, axis=0)) / ref[f"sigma_{axis}"]
        out = np.nonzero((ratio < lo) | (ratio > hi))[0]
        if len(out):
            p.append(f"ensemble {axis}: pooled std / sigma outside [{lo:.4f}, {hi:.4f}] "
                     f"at t = {t[1:][out].tolist()} (ratios {ratio[out].tolist()})")
        mean = math.exp(float(np.mean(np.log(ratio))))
        if not lo1 <= mean <= hi1:
            p.append(f"ensemble {axis}: geometric-mean ratio {mean:.4f} outside "
                     f"[{lo1:.4f}, {hi1:.4f}]")
    return p


def comparison_report(doc: dict, spec: dict) -> list[str]:
    """``simulate --report``: the analytic sigmas it compares against."""
    p = []
    t = np.asarray(doc["times_h"])
    ref = o.budget(spec["N"], spec["drifts"], True, spec["R"], spec["v"], t)
    for axis in ("atrk", "xtrk"):
        _close(p, f"report {axis} analytic_km", doc[axis]["analytic_km"],
               ref[f"sigma_{axis}"])
    return p


def trace_readback(csv_rows: np.ndarray, synthesized: np.ndarray,
                   read_back: np.ndarray, dt_h: float) -> list[str]:
    """Trace CSV: timestamps at interval ends, rates exactly the synthesized
    samples in deg/h, and the program's reader returns exactly those."""
    p = []
    n = len(synthesized)
    if csv_rows.shape != (n, 2):
        return [f"trace: shape {csv_rows.shape}, want ({n}, 2)"]
    if not np.array_equal(csv_rows[:, 0], np.array([float(f"{(i + 1) * dt_h:.17g}")
                                                    for i in range(n)])):
        p.append("trace: timestamps are not (i + 1) dt")
    if not np.array_equal(csv_rows[:, 1], synthesized / o.DEG):
        k = int(np.sum(csv_rows[:, 1] != synthesized / o.DEG))
        p.append(f"trace: {k} written rates differ from the synthesized samples")
    if not np.array_equal(read_back, csv_rows[:, 1] * o.DEG):
        p.append("trace: samples read back differ from the CSV")
    return p


def empirical_curve(rows: np.ndarray, samples: np.ndarray, spec: dict,
                    band: tuple[np.ndarray, np.ndarray]) -> list[str]:
    """Empirical Allan CSV: equal to explicit window-mean overlapping Allan at
    three taus, and at least 90% of taus inside the confidence band around
    the quadrature curve."""
    p = []
    m = np.rint(rows[:, 0] / spec["dt_s"]).astype(int)
    if len(m) != len(band[0]):
        return [f"empirical: {len(m)} taus, band has {len(band[0])}"]
    for j in (0, len(m) // 3, len(m) // 2):
        naive = math.sqrt(o.naive_overlapping_avar(samples, int(m[j]))) / o.DEG
        _close(p, f"empirical sigma at m = {m[j]}", rows[j, 1], naive)
    ana = np.sqrt(o.allan_variance(spec["N"], spec["drifts"], rows[:, 0] / 3600.0)) / o.DEG
    ratio = rows[:, 1] / ana
    inside = np.mean((ratio >= band[0]) & (ratio <= band[1]))
    if not inside >= 0.9:
        p.append(f"empirical: only {inside:.1%} of taus inside the band")
    return p


def fit_from_curve(doc: dict, rows: np.ndarray, spec: dict) -> list[str]:
    """``fit-allan --curve``: the maximum it used is an interior local maximum
    of the curve, (K, Tc) is its identification, and both are within a
    factor of 3 of the model that made the record."""
    p = []
    tau_s, sig = doc.get("tau_max_s"), doc.get("sigma_max_deg_per_h")
    hit = np.nonzero((rows[:, 0] == tau_s) & (rows[:, 1] == sig))[0]
    if len(hit) != 1 or not 0 < hit[0] < len(rows) - 1 or \
            sig < max(rows[hit[0] - 1, 1], rows[hit[0] + 1, 1]):
        return ["fit-allan --curve: maximum is not an interior local maximum of the curve"]
    p += fit_from_values(doc, tau_s, sig)
    (K, Tc), = spec["drifts"]
    for name, got, want in (("K", doc["K_deg_per_h32"] * o.DEG, K), ("Tc", doc["Tc_h"], Tc)):
        if not 1 / 3 <= got / want <= 3:
            p.append(f"fit-allan --curve: {name} off by {got / want:.3g}x")
    return p
