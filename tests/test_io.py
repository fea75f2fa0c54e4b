"""Every output artifact goes through gyrofde._io and keeps its bytes: the
CSVs are what csv.writer writes for the same 17-significant-digit rows, and
the JSON documents are json.dumps(doc, indent=2) plus a newline."""

import csv
import io
import json
import pathlib
import re

import numpy as np
import pytest

import gyrofde
from gyrofde import tradestudy as ts
from gyrofde.allan import AllanCurve, allan_variance_analytic, default_tau_grid
from gyrofde.budget import FlightProfile, budget_series_to_csv, fde_sigma
from gyrofde.cli import main
from gyrofde.gyro import GyroErrorModel, synthesize_rate_trace
from gyrofde.montecarlo import run_ensemble
from gyrofde.units import DEG, HOUR_S, NMI_KM

SEC = 1.0 / 3600.0
NAV = GyroErrorModel.from_deg(0.005, ((0.01, 1.0),))
NAV_FLAGS = ["--noise", "0.005 deg_per_sqrt_h", "--drift", "0.01 deg_per_h_3_2, 1 h"]


def _g(v) -> str:
    return f"{v:.17g}"


# Each case writes its artifact to a path and gives the header and the rows
# the writer it replaced built one at a time.

def _trace():
    tr = synthesize_rate_trace(NAV, 0.2, SEC, seed=3)
    rows = [[_g((i + 1) * tr.dt), _g(r / DEG)] for i, r in enumerate(tr.samples)]
    return tr.to_csv, ["t_h", "rate_deg_per_h"], rows


def _ensemble():
    p = FlightProfile(duration=0.05, dt=5 * SEC)
    st = run_ensemble(NAV, p, 3, 3, master_seed=5, stat_stride=4)
    rows = [[_g(t), g, _g(st.std_atrk[g, j]), _g(st.std_xtrk[g, j])]
            for g in range(st.n_groups) for j, t in enumerate(st.times)]
    return st.to_csv, ["t_h", "group", "std_atrk_km", "std_xtrk_km"], rows


def _allan():
    taus = default_tau_grid(SEC, 10.0)
    curve = AllanCurve(taus, np.sqrt(allan_variance_analytic(NAV, taus)), "analytic")
    rows = [[_g(tau * HOUR_S), _g(s / DEG)] for tau, s in zip(curve.taus, curve.sigmas)]
    return curve.to_csv, ["tau_s", "sigma_deg_per_h"], rows


def _budget():
    p = FlightProfile()
    times = np.linspace(0.0, p.duration, 11)
    rows = []
    for t in times:
        b = fde_sigma(NAV, p, t)
        rows.append([_g(v) for v in (
            b.t, b.sigma_atrk, b.sigma_xtrk, b.sigma_fde, b.fde95_nmi,
            b.atrk_noise, b.atrk_drift, b.atrk_turnon,
            b.xtrk_noise, b.xtrk_drift, b.xtrk_turnon)])
    header = ["t_h", "sigma_atrk_km", "sigma_xtrk_km", "sigma_fde_km", "fde95_nmi",
              "atrk_noise_km2", "atrk_drift_km2", "atrk_turnon_km2",
              "xtrk_noise_km2", "xtrk_drift_km2", "xtrk_turnon_km2"]
    return lambda path: budget_series_to_csv(path, NAV, p, times), header, rows


def _grid():
    r = ts.RequirementTarget()
    N = np.geomspace(1e-4, 1e-1, 7) * DEG
    K = np.geomspace(1e-3, 1e-1, 5) * DEG
    grid = ts.fde_grid(N, K, 1.0, r)
    rows = [[_g(n / DEG), _g(k / DEG), _g(grid[i, j] / NMI_KM)]
            for i, n in enumerate(N) for j, k in enumerate(K)]
    return (lambda path: ts.grid_to_csv(path, N, K, grid),
            ["N_deg_sqrth", "K_deg_h32", "fde95_nmi"], rows)


def _contour():
    res = ts.solve_K_contour(np.geomspace(1e-4, 1e-1, 9) * DEG, 1.0,
                             ts.RequirementTarget())
    assert res.feasible.any() and not res.feasible.all()
    rows = [[_g(n / DEG), _g(k / DEG) if ok else "", int(ok)]
            for n, k, ok in zip(res.N_values, res.K_values, res.feasible)]
    return res.to_csv, ["N_deg_sqrth", "K_deg_h32", "feasible"], rows


@pytest.mark.parametrize("case", [_trace, _ensemble, _allan, _budget, _grid, _contour],
                         ids=["trace", "ensemble", "allan", "budget", "grid", "contour"])
def test_csv_bytes_match_csv_writer(tmp_path, case):
    write, header, rows = case()
    path = tmp_path / "out.csv"
    write(path)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(header)
    w.writerows(rows)
    assert path.read_bytes() == ref.getvalue().encode()


@pytest.mark.parametrize("argv", [
    ["check", *NAV_FLAGS],
    ["check", "--noise", "0.1 deg_per_sqrt_h"],
    ["fit-allan", "--tau-max", "6804 s", "--sigma-max", "0.0414 deg_per_h"],
], ids=["check-pass", "check-fail", "fit-allan"])
def test_stdout_json_is_json_dumps_indent_2(capsys, argv):
    main(argv)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


_WRITES = re.compile(r"csv\.writer|json\.dumps?\(|sys\.stdout|"
                     r"\bopen\([^)]*[\"'](?:[wax]|r\+)")


def test_only_io_module_writes_outputs():
    src = pathlib.Path(gyrofde.__file__).parent
    offenders = [f"{path.name}:{i}: {line.strip()}"
                 for path in sorted(src.glob("*.py")) if path.name != "_io.py"
                 for i, line in enumerate(path.read_text().splitlines(), start=1)
                 if _WRITES.search(line)]
    for name in ("allan", "budget", "montecarlo", "tradestudy"):
        text = (src / f"{name}.py").read_text()
        offenders += [f"{name}.py imports {m}"
                      for m in ("csv", "json") if re.search(rf"^import {m}$", text, re.M)]
    assert not offenders
