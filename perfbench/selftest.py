"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs gyrofde at small sizes, then asserts that every check in ``checks``
passes the real output and rejects a perturbed copy of it.  A check that
cannot fail is reported, and so is a check with no perturbation here.
Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import inspect
import json
import os
import shutil
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import models  # noqa: E402
from models import ALLAN, ALLAN_FLAGS, NAV, NAV_FLAGS  # noqa: E402
from workloads import FLIGHT  # noqa: E402


def _scaled(rows, index, factor):
    out = rows.copy()
    out[index] *= factor
    return out


def cases(d: str) -> list[tuple]:
    """(check name, check function, real args, perturbed args, perturbation)."""
    import gyrofde.cli as cli
    from gyrofde import allan, gyro

    def run(*argv):
        if cli.main(list(argv)) != 0:
            raise RuntimeError(f"gyrofde {' '.join(argv)} failed")

    def csv(name):
        return checks.read_csv(os.path.join(d, name))

    def js(name):
        with open(os.path.join(d, name)) as fh:
            return json.load(fh)

    p = lambda name: os.path.join(d, name)
    nav, al = {**models.oracle_spec(NAV), **FLIGHT}, models.oracle_spec(ALLAN)
    axes = {"N_deg": np.geomspace(1e-4, 1e-1, 20), "K_deg": np.geomspace(1e-3, 1e-1, 20)}
    maps = {**FLIGHT, **axes, "Tc": 100.0, "target_nmi": 10.0}
    run("analytic", *NAV_FLAGS, "--out", p("budget.csv"))
    run("check", *NAV_FLAGS, "--out", p("check.json"))
    run("grid", "--tc", "100 h", "--n-range", "1e-4,1e-1,20", "--k-range", "1e-3,1e-1,20",
        "--out", p("grid.csv"))
    run("contour", "--tc", "100 h", "--n-range", "1e-4,1e-1,20", "--out", p("contour.csv"))
    run("fit-allan", "--tau-max", "6804 s", "--sigma-max", "0.0414 deg_per_h", "--out", p("fit.json"))
    run("allan", *ALLAN_FLAGS, "--analytic-out", p("ana.csv"), "--landmarks-out", p("lm.json"))
    run("simulate", *NAV_FLAGS, "--duration", "1 h", "--seed", "5", "--workers", "1",
        "--out", p("ens.csv"), "--report", p("rep.json"))

    def record(tc_h, name):
        model = (ALLAN[0], ALLAN[1], tc_h)
        run("allan", *models.flags(model), "--seed", "9", "--trace-duration", "24 h",
            "--synthesize-trace", p(f"{name}.csv"), "--empirical-out", p(f"{name}_emp.csv"))
        return (csv(f"{name}_emp.csv"), gyro.RateTrace.from_csv(p(f"{name}.csv")).samples)

    emp, samples = record(ALLAN[2], "trace")
    other_emp, other_samples = record(3 * ALLAN[2], "other")
    run("fit-allan", "--curve", p("trace_emp.csv"), "--out", p("fit_curve.json"))
    dt = 1 / 3600
    band = allan.confidence_band(models.gyro_model(ALLAN), dt, len(samples),
                                 allan.default_tau_grid(dt, 24.0), confidence=0.999)
    synth = gyro.synthesize_rate_trace(models.gyro_model(ALLAN), 24.0, dt, 9).samples
    trace_rows = csv("trace.csv")
    changed = trace_rows.copy()
    changed[1234, 1] = np.nextafter(changed[1234, 1], np.inf)

    check, fit, fit_curve, lm = js("check.json"), js("fit.json"), js("fit_curve.json"), js("lm.json")
    rep = js("rep.json")
    rep_bad = copy.deepcopy(rep)
    rep_bad["xtrk"]["analytic_km"][20] *= 1 + 1e-6
    ens = csv("ens.csv")
    contour = csv("contour.csv")
    allan_spec = {**al, "dt_s": 1.0}
    nav_check = {**nav, "target_nmi": 10.0}
    return [
        ("budget_csv", checks.budget_csv, (csv("budget.csv"), {**nav, "points": 101}),
         (_scaled(csv("budget.csv"), (50, 6), 1 + 1e-6), {**nav, "points": 101}),
         "one drift term x (1 + 1e-6)"),
        ("check_report", checks.check_report, (check, nav_check),
         ({**check, "fde95_nmi": check["fde95_nmi"] * (1 + 1e-6)}, nav_check),
         "2 sigma x (1 + 1e-6)"),
        ("grid_csv", checks.grid_csv, (csv("grid.csv"), maps),
         (_scaled(csv("grid.csv"), (slice(None), 2), 1 + 1e-3), maps), "grid x (1 + 1e-3)"),
        ("contour_csv", checks.contour_csv, (contour, maps),
         (_scaled(contour, (slice(None), 1), 1 + 1e-3), maps), "contour K x (1 + 1e-3)"),
        ("fit_from_values", checks.fit_from_values, (fit, 6804.0, 0.0414),
         ({**fit, "Tc_h": fit["Tc_h"] * (1 + 1e-9)}, 6804.0, 0.0414), "Tc x (1 + 1e-9)"),
        ("allan_analytic_csv", checks.allan_analytic_csv, (csv("ana.csv"), al),
         (_scaled(csv("ana.csv"), (5, 1), 1 + 1e-6), al), "one sigma x (1 + 1e-6)"),
        ("landmarks", checks.landmarks, (lm, al),
         ({**lm, "tau_max_s": lm["tau_max_s"] * 1.01}, al), "tau_max x 1.01"),
        ("ensemble", checks.ensemble, (ens, {**nav, "groups": 10, "flights": 100}),
         (_scaled(ens, (slice(None), slice(2, 4)), 1.1), {**nav, "groups": 10, "flights": 100}),
         "simulated stds x 1.1"),
        ("comparison_report", checks.comparison_report, (rep, nav), (rep_bad, nav),
         "one analytic sigma x (1 + 1e-6)"),
        ("trace_readback", checks.trace_readback, (trace_rows, synth, samples, dt),
         (changed, synth, samples, dt), "one trace sample changed by one ulp"),
        ("empirical_curve", checks.empirical_curve, (emp, samples, allan_spec, band),
         (other_emp, other_samples, allan_spec, band), "Allan curve of a record with 3 Tc"),
        ("fit_from_curve", checks.fit_from_curve, (fit_curve, emp, allan_spec),
         ({**fit_curve, "K_deg_per_h32": fit_curve["K_deg_per_h32"] * (1 + 1e-6)}, emp,
          allan_spec), "K x (1 + 1e-6)"),
    ]


def main() -> int:
    d = os.path.join(ROOT, "perfbench", "runs", f"selftest-p{os.getpid()}")
    os.makedirs(d)
    try:
        table = cases(d)
    finally:
        shutil.rmtree(d)
    bad = []
    for name, fn, real, perturbed, what in table:
        got_real, got_bad = fn(*real), fn(*perturbed)
        if got_real:
            bad.append(f"{name} rejects real output: {got_real}")
        if not got_bad:
            bad.append(f"{name} accepts a perturbed output ({what})")
        print(f"selftest: {name}: real {'FAIL' if got_real else 'ok'}, {what}: "
              + (f"rejected ({got_bad[0]})" if got_bad else "ACCEPTED"))
    covered = {name for name, *_ in table}
    public = {n for n, f in inspect.getmembers(checks, inspect.isfunction)
              if f.__module__ == "checks" and not n.startswith("_") and n != "read_csv"}
    for name in sorted(public - covered):
        bad.append(f"{name} has no perturbation in the self-test")
    for b in bad:
        print(f"selftest: {b}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
