"""Command-line front end: config parsing, subcommand dispatch, CSV/JSON output.

Configs are JSON with units attached to every physical value, e.g.::

    {
      "N": "0.005 deg_per_sqrt_h",
      "drifts": [{"K": "0.01 deg_per_h_3_2", "Tc": "1 h"}],
      "turn_on": true,
      "flight": {"v": "900 km_per_h", "duration": "10 h",
                 "R": "6371 km", "dt": "1 s"},
      "seed": 42
    }

Flags override file values.  Exit codes: 0 success, 1 requirement failure
from ``check``, 2 bad input or I/O (one ``gyrofde: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import allan as allan_mod
from . import tradestudy as ts
from ._io import write_json
from .budget import FlightProfile, budget_series_to_csv
from .gyro import (DriftSpec, GyroErrorModel, NoiseSpec, RateTrace,
                   synthesize_rate_trace)
from .montecarlo import compare_to_analytic, run_ensemble
from .units import DEG, UnitError, parse_quantity

DEFAULTS = {
    "R_km": 6371.0,
    "v_km_h": 900.0,
    "duration_h": 10.0,
    "dt_h": 1.0 / 3600.0,
    "turn_on": True,
    "seed": 0,
}

# The widely quoted navigation-grade pairing; used only to attach an advisory
# note to `check` reports in its neighborhood.
_BENCHMARK_NOTE = (
    "note: for noise/drift values near the commonly cited navigation-grade "
    "pairing (N=0.005 deg_per_sqrt_h, K=0.01 deg_per_h_3_2, Tc=1 h) these "
    "closed forms give a 95% fix displacement of about 5.2 nmi over 10 h at "
    "900 km/h; published heat-map charts sometimes place the same point near "
    "10 nmi. This tool reports its self-consistent closed-form value.")


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


@dataclass
class RunConfig:
    model: GyroErrorModel
    flight: FlightProfile
    seed: int = 0
    raw: dict = field(default_factory=dict)


def _quantity(node, path: str, dimension: str) -> float:
    if not isinstance(node, str):
        raise ConfigError(f"{path}: expected '<value> <unit>' string, got {node!r}")
    try:
        return parse_quantity(node, dimension).canonical()
    except UnitError as e:
        raise ConfigError(f"{path}: {e}") from None


def parse_config(doc: dict, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Validate a config document (plus flag overrides) into canonical units."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = dict(doc)

    ov = overrides or argparse.Namespace()
    if getattr(ov, "noise", None) is not None:
        doc["N"] = ov.noise
    if getattr(ov, "drift", None):
        doc["drifts"] = []
        for spec in ov.drift:
            parts = [s.strip() for s in spec.split(",")]
            if len(parts) != 2:
                raise ConfigError(
                    f"--drift: expected '<K> <unit>, <Tc> <unit>', got {spec!r}")
            doc["drifts"].append({"K": parts[0], "Tc": parts[1]})
    flight = dict(doc.get("flight", {}))
    for flag, key in (("v", "v"), ("duration", "duration"),
                      ("radius", "R"), ("dt", "dt")):
        if getattr(ov, flag, None) is not None:
            flight[key] = getattr(ov, flag)
    doc["flight"] = flight
    if getattr(ov, "seed", None) is not None:
        doc["seed"] = ov.seed
    if getattr(ov, "turn_on", None) is not None:
        doc["turn_on"] = ov.turn_on

    N = _quantity(doc["N"], "N", "arw") if "N" in doc else 0.0
    drifts = []
    for i, dnode in enumerate(doc.get("drifts", [])):
        if not isinstance(dnode, dict) or "K" not in dnode or "Tc" not in dnode:
            raise ConfigError(f"drifts[{i}]: expected object with K and Tc")
        K = _quantity(dnode["K"], f"drifts[{i}].K", "rrw")
        Tc = _quantity(dnode["Tc"], f"drifts[{i}].Tc", "time")
        try:
            drifts.append(DriftSpec(K=K, Tc=Tc))
        except ValueError as e:
            field_name = "K" if "K" in str(e) else "Tc"
            raise ConfigError(f"drifts[{i}].{field_name}: {e}") from None
    turn_on = doc.get("turn_on", DEFAULTS["turn_on"])
    if not isinstance(turn_on, bool):
        raise ConfigError(f"turn_on: expected true/false, got {turn_on!r}")
    try:
        model = GyroErrorModel(NoiseSpec(N), tuple(drifts), turn_on)
    except ValueError as e:
        raise ConfigError(f"N: {e}") from None

    fl = doc["flight"]
    try:
        profile = FlightProfile(
            v=_quantity(fl["v"], "flight.v", "speed") if "v" in fl else DEFAULTS["v_km_h"],
            duration=_quantity(fl["duration"], "flight.duration", "time")
            if "duration" in fl else DEFAULTS["duration_h"],
            R=_quantity(fl["R"], "flight.R", "length") if "R" in fl else DEFAULTS["R_km"],
            dt=_quantity(fl["dt"], "flight.dt", "time") if "dt" in fl else DEFAULTS["dt_h"],
        )
    except ValueError as e:
        raise ConfigError(f"flight: {e}") from None

    seed = doc.get("seed", DEFAULTS["seed"])
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed: expected integer, got {seed!r}")
    return RunConfig(model=model, flight=profile, seed=seed, raw=doc)


def load_config(path: str | None, overrides: argparse.Namespace) -> RunConfig:
    doc = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
    return parse_config(doc, overrides)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--noise", metavar="'V UNIT'",
                   help="noise amplitude, e.g. '0.005 deg_per_sqrt_h'")
    p.add_argument("--drift", action="append", metavar="'K UNIT, Tc UNIT'",
                   help="drift process (repeatable; replaces the config list)")
    p.add_argument("--v", help="speed, e.g. '900 km_per_h'")
    p.add_argument("--duration", help="flight duration, e.g. '10 h'")
    p.add_argument("--radius", help="sphere radius, e.g. '6371 km'")
    p.add_argument("--dt", help="simulation step, e.g. '1 s'")
    p.add_argument("--seed", type=int, help="master seed")
    on = p.add_mutually_exclusive_group()
    on.add_argument("--turn-on", dest="turn_on", action="store_true",
                    default=None, help="start drifts from their stationary state")
    on.add_argument("--no-turn-on", dest="turn_on", action="store_false",
                    default=None, help="start drifts from zero")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gyrofde",
        description="Gyroscope noise/drift to position-error budgets and trade studies")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form error budget over time")
    _add_common(p)
    p.add_argument("--points", type=int, default=101, help="time samples")
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("simulate", help="Monte-Carlo ensemble vs analytic curves")
    _add_common(p)
    p.add_argument("--groups", type=int, default=10)
    p.add_argument("--flights", type=int, default=100)
    p.add_argument("--stat-stride", type=int, default=0,
                   help="record stats every this many steps (0 = auto)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the flight groups (output is identical)")
    p.add_argument("--out", required=True, help="ensemble CSV")
    p.add_argument("--report", help="comparison report JSON")

    p = sub.add_parser("allan", help="analytic and/or empirical Allan curves")
    _add_common(p)
    p.add_argument("--trace", help="RateTrace CSV to estimate from")
    p.add_argument("--synthesize-trace", metavar="OUT",
                   help="write a synthesized RateTrace CSV for the config model")
    p.add_argument("--trace-duration", default="10 h",
                   help="duration for --synthesize-trace")
    p.add_argument("--analytic-out", help="analytic curve CSV")
    p.add_argument("--empirical-out", help="empirical curve CSV")
    p.add_argument("--landmarks-out", help="landmark report JSON")

    p = sub.add_parser("fit-allan", help="identify K, Tc from an Allan maximum")
    p.add_argument("--tau-max", help="abscissa of the maximum, e.g. '68040 s'")
    p.add_argument("--sigma-max", help="ordinate, e.g. '0.041 deg_per_h'")
    p.add_argument("--curve", help="Allan curve CSV to take the maximum from")
    p.add_argument("--out", help="output JSON (default stdout)")

    p = sub.add_parser("grid", help="2-sigma FDE heat-map grid over (N, K)")
    _add_common(p)
    p.add_argument("--target", default="10 nmi", help="FDE ceiling (95%%)")
    p.add_argument("--tc", default="1 h", help="drift time constant")
    p.add_argument("--n-range", default="1e-4,1e-1,60",
                   help="N range deg_per_sqrt_h: lo,hi,points (log-spaced)")
    p.add_argument("--k-range", default="1e-3,1e-1,60",
                   help="K range deg_per_h_3_2: lo,hi,points (log-spaced)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("contour", help="required-K contour across noise values")
    _add_common(p)
    p.add_argument("--target", default="10 nmi")
    p.add_argument("--tc", default="1 h")
    p.add_argument("--n-range", default="1e-4,1e-1,60")
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="requirement compliance check (exit 1 on fail)")
    _add_common(p)
    p.add_argument("--target", default="10 nmi")
    p.add_argument("--out", help="report JSON (default stdout)")
    return ap


def _logspace_arg(text: str, name: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(",")
        lo, hi = float(lo), float(hi)
        # checked first: numpy warns on stderr before it fails on an infinite end
        if np.isfinite(lo) and np.isfinite(hi):
            return np.geomspace(lo, hi, int(n))
    except ValueError:
        pass
    raise ConfigError(f"{name}: expected 'lo,hi,points' with finite ends, got {text!r}")


def _target(args, cfg: RunConfig) -> ts.RequirementTarget:
    fde95 = parse_quantity(args.target, "length").canonical()
    return ts.RequirementTarget(fde95=fde95, flight=cfg.flight)


def _cmd_analytic(args) -> int:
    if args.points < 2:
        raise ConfigError(f"--points: need at least 2, got {args.points}")
    cfg = load_config(args.config, args)
    times = np.linspace(0.0, cfg.flight.duration, args.points)
    budget_series_to_csv(args.out, cfg.model, cfg.flight, times)
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, args)
    stride = args.stat_stride
    if stride <= 0:
        stride = max(1, cfg.flight.n_steps // 40)
    stats = run_ensemble(cfg.model, cfg.flight, args.flights, args.groups,
                         cfg.seed, stat_stride=stride, n_workers=args.workers)
    stats.to_csv(args.out)
    if args.report:
        compare_to_analytic(stats, cfg.model, cfg.flight).to_json(args.report)
    return 0


def _cmd_allan(args) -> int:
    cfg = load_config(args.config, args)
    trace = None
    if args.synthesize_trace:
        duration = parse_quantity(args.trace_duration, "time").canonical()
        trace = synthesize_rate_trace(cfg.model, duration, cfg.flight.dt, cfg.seed)
        trace.to_csv(args.synthesize_trace)
    if args.analytic_out:
        dt, dur = cfg.flight.dt, cfg.flight.duration
        taus = allan_mod.default_tau_grid(dt, dur) * 1.0
        curve = allan_mod.AllanCurve(
            taus=taus, sigmas=np.sqrt(allan_mod.allan_variance_analytic(cfg.model, taus)),
            source="analytic")
        curve.to_csv(args.analytic_out)
    if args.empirical_out:
        if args.trace:
            trace = RateTrace.from_csv(args.trace)
        if trace is None:
            raise ConfigError("--empirical-out needs --trace or --synthesize-trace")
        taus = allan_mod.default_tau_grid(trace.dt, trace.duration)
        allan_mod.allan_variance_empirical(trace, taus).to_csv(args.empirical_out)
    if args.landmarks_out:
        lm = allan_mod.allan_landmarks_analytic(cfg.model)
        ident = None
        if lm.tau_max is not None:
            ident = allan_mod.identify_from_max(lm.tau_max, lm.sigma_max)
        allan_mod.landmarks_to_json(args.landmarks_out, lm, ident)
    return 0


def _interior_maximum(sig: np.ndarray) -> int | None:
    """Index of the highest interior local maximum of a sampled curve.

    The drift bump of an Allan curve is an interior extremum; the global
    sample maximum is usually the noise branch at the left edge, and on short
    records the global minimum can be the rolloff tail at the right edge, so
    neither is a safe anchor.
    """
    idx = [i for i in range(1, len(sig) - 1)
           if sig[i] >= sig[i - 1] and sig[i] >= sig[i + 1]]
    if not idx:
        return None
    return max(idx, key=lambda i: sig[i])


def _cmd_fit_allan(args) -> int:
    if args.curve:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data: caught below
            try:
                rows = np.loadtxt(args.curve, delimiter=",", skiprows=1, ndmin=2)
            except ValueError as e:
                raise ConfigError(f"{args.curve}: {e}") from None
        if rows.shape[1] != 2:
            raise ConfigError(f"{args.curve}: expected columns tau_s,sigma_deg_per_h")
        taus_h = rows[:, 0] / 3600.0
        sig = rows[:, 1] * DEG
        i = _interior_maximum(sig)
        if i is None:
            raise ConfigError(
                f"{args.curve}: no interior Allan maximum; the record is too "
                "short (or too noisy) to resolve the drift maximum")
        tau_max, sigma_max = float(taus_h[i]), float(sig[i])
    elif args.tau_max and args.sigma_max:
        tau_max = parse_quantity(args.tau_max, "time").canonical()
        sigma_max = parse_quantity(args.sigma_max, "rate").canonical()
    else:
        raise ConfigError("fit-allan needs --curve or both --tau-max/--sigma-max")
    d = allan_mod.identify_from_max(tau_max, sigma_max)
    doc = {"K_deg_per_h32": d.K / DEG, "Tc_h": d.Tc,
           "tau_max_s": tau_max * 3600.0, "sigma_max_deg_per_h": sigma_max / DEG}
    write_json(args.out or None, doc)
    return 0


def _cmd_grid(args) -> int:
    cfg = load_config(args.config, args)
    r = _target(args, cfg)
    tc = parse_quantity(args.tc, "time").canonical()
    N = _logspace_arg(args.n_range, "--n-range") * DEG
    K = _logspace_arg(args.k_range, "--k-range") * DEG
    grid = ts.fde_grid(N, K, tc, r)
    ts.grid_to_csv(args.out, N, K, grid)
    return 0


def _cmd_contour(args) -> int:
    cfg = load_config(args.config, args)
    r = _target(args, cfg)
    tc = parse_quantity(args.tc, "time").canonical()
    N = _logspace_arg(args.n_range, "--n-range") * DEG
    ts.solve_K_contour(N, tc, r).to_csv(args.out)
    return 0


def _cmd_check(args) -> int:
    cfg = load_config(args.config, args)
    r = _target(args, cfg)
    res = ts.check_requirement(cfg.model, r)
    notes = []
    m = cfg.model
    if (len(m.drifts) == 1 and 0.5 < m.noise.N / (0.005 * DEG) < 2.0
            and 0.5 < m.drifts[0].K / (0.01 * DEG) < 2.0
            and 0.5 < m.drifts[0].Tc < 2.0):
        notes.append(_BENCHMARK_NOTE)
    if args.out:
        ts.compliance_to_json(args.out, res, cfg.model, notes)
    else:
        write_json(None, {"pass": res.passed, "fde95_nmi": res.fde95_nmi,
                          "margin_nmi": res.margin_nmi, "notes": notes})
    return 0 if res.passed else 1


_COMMANDS = {
    "analytic": _cmd_analytic,
    "simulate": _cmd_simulate,
    "allan": _cmd_allan,
    "fit-allan": _cmd_fit_allan,
    "grid": _cmd_grid,
    "contour": _cmd_contour,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as e:  # includes ConfigError and UnitError
        print(f"gyrofde: error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"gyrofde: i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
