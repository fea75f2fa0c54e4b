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

Flags override file values; a command takes the flags of the keys it reads
and no others.  Exit codes: 0 success, 1 requirement failure from ``check``,
2 bad input (argv errors included) or I/O (one ``gyrofde: ...`` line on
stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import allan as allan_mod
from . import tradestudy as ts
from ._io import write_json
from .budget import FlightProfile, budget_series_to_csv
from .gyro import DriftSpec, GyroErrorModel, RateTrace, synthesize_rate_trace
from .montecarlo import compare_to_analytic, run_ensemble
from .units import DEG, HOUR_S, UnitError, parse_quantity

# Each flight key with the flag that overrides it and its dimension.
_FLIGHT = {"v": ("v", "speed"), "duration": ("duration", "time"),
           "R": ("radius", "length"), "dt": ("dt", "time")}
_ROOT_KEYS = ("N", "drifts", "turn_on", "flight", "seed")

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


def _quantity(node, path: str, dimension: str) -> float:
    if not isinstance(node, str):
        raise ConfigError(f"{path}: expected '<value> <unit>' string, got {node!r}")
    try:
        return parse_quantity(node, dimension)
    except UnitError as e:
        raise ConfigError(f"{path}: {e}") from None


def _object(node, path: str, keys) -> dict:
    """A copy of ``node``, which must be a JSON object with keys among ``keys``."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {node!r}")
    for key in node:
        if key not in keys:
            raise ConfigError(f"{path}: unknown key {key!r}; known keys: "
                              f"{', '.join(keys)}")
    return dict(node)


def parse_config(doc: dict, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Validate a config document (plus flag overrides) into canonical units.

    Only the keys given are passed on: the dataclasses supply every default.
    """
    doc = _object(doc, "config root", _ROOT_KEYS)
    flight = _object(doc.get("flight", {}), "flight", _FLIGHT)
    ov = vars(overrides or argparse.Namespace())
    for flag, key in (("noise", "N"), ("seed", "seed"), ("turn_on", "turn_on")):
        if ov.get(flag) is not None:
            doc[key] = ov[flag]
    for key, (flag, _) in _FLIGHT.items():
        if ov.get(flag) is not None:
            flight[key] = ov[flag]
    if ov.get("drift"):
        doc["drifts"] = []
        for spec in ov["drift"]:
            parts = [s.strip() for s in spec.split(",")]
            if len(parts) != 2:
                raise ConfigError(
                    f"--drift: expected '<K> <unit>, <Tc> <unit>', got {spec!r}")
            doc["drifts"].append({"K": parts[0], "Tc": parts[1]})
    for key, kind, what in (("turn_on", bool, "true/false"), ("seed", int, "integer")):
        if key in doc and type(doc[key]) is not kind:
            raise ConfigError(f"{key}: expected {what}, got {doc[key]!r}")
    if doc.get("seed", 0) < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {doc['seed']!r}")
    if not isinstance(doc.get("drifts", []), list):
        raise ConfigError(f"drifts: expected a JSON array, got {doc['drifts']!r}")

    model = {"drifts": []}
    if "turn_on" in doc:
        model["turn_on"] = doc["turn_on"]
    if "N" in doc:
        model["N"] = _quantity(doc["N"], "N", "arw")
        try:  # checked here, so that a bad N is reported before any drift error
            GyroErrorModel(model["N"])
        except ValueError as e:
            raise ConfigError(f"N: {e}") from None
    for i, dnode in enumerate(doc.get("drifts", [])):
        dnode = _object(dnode, f"drifts[{i}]", ("K", "Tc"))
        if "K" not in dnode or "Tc" not in dnode:
            raise ConfigError(f"drifts[{i}]: expected object with K and Tc")
        K = _quantity(dnode["K"], f"drifts[{i}].K", "rrw")
        Tc = _quantity(dnode["Tc"], f"drifts[{i}].Tc", "time")
        try:
            model["drifts"].append(DriftSpec(K=K, Tc=Tc))
        except ValueError as e:
            field_name = "K" if "K" in str(e) else "Tc"
            raise ConfigError(f"drifts[{i}].{field_name}: {e}") from None
    given = {key: _quantity(flight[key], f"flight.{key}", dimension)
             for key, (_, dimension) in _FLIGHT.items() if key in flight}
    try:
        profile = FlightProfile(**given)
    except ValueError as e:
        raise ConfigError(f"flight: {e}") from None
    run = {"seed": doc["seed"]} if "seed" in doc else {}
    return RunConfig(GyroErrorModel(**model), profile, **run)


def load_config(path: str | None, overrides: argparse.Namespace) -> RunConfig:
    doc = {}
    if path is not None:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        try:  # UTF-8 whatever the locale; a nesting too deep is a RecursionError
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
    return parse_config(doc, overrides)


class _Parser(argparse.ArgumentParser):
    """An argv error is bad input like any other: one line from main, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise", metavar="'V UNIT'",
                   help="noise amplitude, e.g. '0.005 deg_per_sqrt_h'")
    p.add_argument("--drift", action="append", metavar="'K UNIT, Tc UNIT'",
                   help="drift process (repeatable; replaces the config list)")
    on = p.add_mutually_exclusive_group()
    on.add_argument("--turn-on", dest="turn_on", action="store_true",
                    default=None, help="start drifts from their stationary state")
    on.add_argument("--no-turn-on", dest="turn_on", action="store_false",
                    default=None, help="start drifts from zero")


def _flight_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--v", help="speed, e.g. '900 km_per_h'")
    p.add_argument("--radius", help="sphere radius, e.g. '6371 km'")


def _map_flags(p: argparse.ArgumentParser) -> None:
    """grid and contour map the turn-on model of --tc over their ranges."""
    p.add_argument("--target", default="10 nmi", help="FDE ceiling (95%%)")
    p.add_argument("--tc", default="1 h", help="drift time constant")
    p.add_argument("--n-range", default="1e-4,1e-1,60",
                   help="N range deg_per_sqrt_h: lo,hi,points (log-spaced)")
    p.add_argument("--out", required=True)


def _sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dt", help="simulation step, e.g. '1 s'")
    p.add_argument("--seed", type=int, help="master seed")


def _config_command(sub, name: str, help: str, *groups) -> argparse.ArgumentParser:
    """A command that reads a config: --config, --duration and the flag
    groups whose keys it reads, and no others."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--duration", help="flight duration, e.g. '10 h'")
    for group in groups:
        group(p)
    return p


# cached: in-process callers (perfbench, the tests, embedders) run main many times
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="gyrofde",
        description="Gyroscope noise/drift to position-error budgets and trade studies")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _config_command(sub, "analytic", "closed-form error budget over time",
                        _model_flags, _flight_flags)
    p.add_argument("--points", type=int, default=101, help="time samples")
    p.add_argument("--out", required=True, help="output CSV")

    p = _config_command(sub, "simulate", "Monte-Carlo ensemble vs analytic curves",
                        _model_flags, _flight_flags, _sampling_flags)
    p.add_argument("--groups", type=int, default=10)
    p.add_argument("--flights", type=int, default=100)
    p.add_argument("--stat-stride", type=int, default=0,
                   help="record stats every this many steps (0 = auto: n_steps // 40, "
                        "at least 1)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the flight groups (output is identical)")
    p.add_argument("--out", required=True, help="ensemble CSV")
    p.add_argument("--report", help="comparison report JSON")

    p = _config_command(sub, "allan", "analytic and/or empirical Allan curves",
                        _model_flags, _sampling_flags)
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

    p = _config_command(sub, "grid", "2-sigma FDE heat-map grid over (N, K)",
                        _flight_flags, _map_flags)
    p.add_argument("--k-range", default="1e-3,1e-1,60",
                   help="K range deg_per_h_3_2: lo,hi,points (log-spaced)")

    _config_command(sub, "contour", "required-K contour across noise values",
                    _flight_flags, _map_flags)

    p = _config_command(sub, "check", "requirement compliance check (exit 1 on fail)",
                        _model_flags, _flight_flags)
    p.add_argument("--target", default="10 nmi")
    p.add_argument("--out", help="report JSON (default stdout)")
    return ap


# From about 2**63 points numpy's linspace and geomspace fail with an
# IndexError, not a MemoryError; no count near that fits in memory
_MAX_POINTS = 2 ** 62


# A step count whose float64 buffer numpy cannot address fails with a
# ValueError that names no input; at or below this one it is a MemoryError
_MAX_STEPS = 2 ** 59


def _check_steps(span: float, dt: float, flags: str) -> None:
    n = span / dt
    if not n <= _MAX_STEPS:
        raise ConfigError(f"{flags}: {n:.3g} steps of dt, more than the "
                          f"limit of 2**59")


def _logspace_arg(text: str, name: str) -> np.ndarray:
    mixed = False
    try:
        lo, hi, n = text.split(",")
        lo, hi, n = float(lo), float(hi), int(n)
        # checked first: numpy warns on stderr before it fails on an infinite end
        if np.isfinite(lo) and np.isfinite(hi) and n <= _MAX_POINTS:
            mixed = lo < 0 < hi or hi < 0 < lo  # no log10 for one end
            if not mixed:
                return np.geomspace(lo, hi, n)
    except ValueError:
        pass
    if mixed:
        raise ConfigError(f"{name}: a log-spaced range needs ends of one sign, got {text!r}")
    raise ConfigError(f"{name}: expected 'lo,hi,points' with finite ends and "
                      f"at most 2**62 points, got {text!r}")


def _check_out_dirs(*paths) -> None:
    """Fail before any work when an output's directory does not exist."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ConfigError(f"{path}: no such directory {parent!r}")


def _target(args, cfg: RunConfig) -> ts.RequirementTarget:
    fde95 = _quantity(args.target, "--target", "length")
    return ts.RequirementTarget(fde95=fde95, flight=cfg.flight)


def _cmd_analytic(args) -> int:
    if not 2 <= args.points <= _MAX_POINTS:
        raise ConfigError(f"--points: need 2 to 2**62, got {args.points}")
    cfg = load_config(args.config, args)
    times = np.linspace(0.0, cfg.flight.duration, args.points)
    budget_series_to_csv(args.out, cfg.model, cfg.flight, times)
    return 0


def _cmd_simulate(args) -> int:
    _check_out_dirs(args.out, args.report)
    cfg = load_config(args.config, args)
    _check_steps(cfg.flight.duration, cfg.flight.dt, "--duration / --dt")
    stride = args.stat_stride
    if stride < 0:
        raise ConfigError(f"--stat-stride: need 0 (auto) or more steps, got {stride}")
    if stride == 0:
        stride = max(1, cfg.flight.n_steps // 40)
    stats = run_ensemble(cfg.model, cfg.flight, args.flights, args.groups,
                         cfg.seed, stat_stride=stride, n_workers=args.workers)
    report = compare_to_analytic(stats, cfg.model, cfg.flight) if args.report else None
    stats.to_csv(args.out)
    if report:
        report.to_json(args.report)
    return 0


def _cmd_allan(args) -> int:
    """Compute every requested output, then write them: a run that fails
    leaves no file behind."""
    outs = (args.synthesize_trace, args.analytic_out, args.empirical_out,
            args.landmarks_out)
    if not any(outs):
        raise ConfigError("allan needs at least one of --synthesize-trace, "
                          "--analytic-out, --empirical-out, --landmarks-out")
    if args.trace and args.synthesize_trace:
        raise ConfigError("--trace and --synthesize-trace are exclusive: "
                          "give one record source")
    _check_out_dirs(*outs)
    if args.empirical_out and not (args.trace or args.synthesize_trace):
        raise ConfigError("--empirical-out needs --trace or --synthesize-trace")
    cfg = load_config(args.config, args)
    writes = []  # (write, path)
    trace = RateTrace.from_csv(args.trace) if args.trace else None
    if args.synthesize_trace:
        duration = _quantity(args.trace_duration, "--trace-duration", "time")
        _check_steps(duration, cfg.flight.dt, "--trace-duration / --dt")
        trace = synthesize_rate_trace(cfg.model, duration, cfg.flight.dt, cfg.seed)
        writes.append((trace.to_csv, args.synthesize_trace))
    if args.analytic_out:
        dt, dur = cfg.flight.dt, cfg.flight.duration
        # the tau grid counts its multiples of dt in int64
        _check_steps(dur, dt, "--duration / --dt")
        taus = allan_mod.default_tau_grid(dt, dur)
        curve = allan_mod.AllanCurve(
            taus=taus, sigmas=np.sqrt(allan_mod.allan_variance_analytic(cfg.model, taus)))
        writes.append((curve.to_csv, args.analytic_out))
    if args.empirical_out:
        taus = allan_mod.default_tau_grid(trace.dt, trace.duration)
        writes.append((allan_mod.allan_variance_empirical(trace, taus).to_csv,
                       args.empirical_out))
    if args.landmarks_out:
        lm = allan_mod.allan_landmarks_analytic(cfg.model)
        ident = (None if lm.tau_max is None
                 else allan_mod.identify_from_max(lm.tau_max, lm.sigma_max))
        writes.append((lambda path: allan_mod.landmarks_to_json(path, lm, ident),
                       args.landmarks_out))
    for write, path in writes:
        write(path)
    return 0


def _cmd_fit_allan(args) -> int:
    if args.curve and (args.tau_max or args.sigma_max):
        raise ConfigError("--curve and --tau-max/--sigma-max are exclusive: "
                          "give one source of the maximum")
    if args.curve:
        curve = allan_mod.AllanCurve.from_csv(args.curve)
        i = allan_mod._interior_maximum(curve.sigmas)
        if i is None:
            raise ConfigError(
                f"{args.curve}: no interior Allan maximum; the record is too "
                "short (or too noisy) to resolve the drift maximum")
        tau_max, sigma_max = float(curve.taus[i]), float(curve.sigmas[i])
    elif args.tau_max and args.sigma_max:
        tau_max = _quantity(args.tau_max, "--tau-max", "time")
        sigma_max = _quantity(args.sigma_max, "--sigma-max", "rate")
    else:
        raise ConfigError("fit-allan needs --curve or both --tau-max/--sigma-max")
    d = allan_mod.identify_from_max(tau_max, sigma_max)
    doc = {"K_deg_per_h32": d.K / DEG, "Tc_h": d.Tc,
           "tau_max_s": tau_max * HOUR_S, "sigma_max_deg_per_h": sigma_max / DEG}
    write_json(args.out or None, doc)
    return 0


def _cmd_grid(args) -> int:
    cfg = load_config(args.config, args)
    r = _target(args, cfg)
    tc = _quantity(args.tc, "--tc", "time")
    N = _logspace_arg(args.n_range, "--n-range") * DEG
    K = _logspace_arg(args.k_range, "--k-range") * DEG
    grid = ts.fde_grid(N, K, tc, r)
    ts.grid_to_csv(args.out, N, K, grid)
    return 0


def _cmd_contour(args) -> int:
    cfg = load_config(args.config, args)
    r = _target(args, cfg)
    tc = _quantity(args.tc, "--tc", "time")
    N = _logspace_arg(args.n_range, "--n-range") * DEG
    ts.solve_K_contour(N, tc, r).to_csv(args.out)
    return 0


def _cmd_check(args) -> int:
    cfg = load_config(args.config, args)
    res = ts.check_requirement(cfg.model, _target(args, cfg))
    notes = []
    m = cfg.model
    if (len(m.drifts) == 1 and 0.5 < m.N / (0.005 * DEG) < 2.0
            and 0.5 < m.drifts[0].K / (0.01 * DEG) < 2.0
            and 0.5 < m.drifts[0].Tc < 2.0):
        notes.append(_BENCHMARK_NOTE)
    ts.compliance_to_json(args.out or None, res, notes)
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
    try:
        args = build_parser().parse_args(argv)
        # an input whose numbers overflow fails here, not as a warning and a
        # non-finite result
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](args)
    except ValueError as e:  # includes ConfigError and UnitError
        print(f"gyrofde: error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:  # numpy's and Python's float errors
        detail = (e.args or [type(e).__name__])[-1]
        print(f"gyrofde: error: input out of numeric range: {detail}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a count of points, steps or samples too large
        print(f"gyrofde: error: out of memory: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"gyrofde: i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
