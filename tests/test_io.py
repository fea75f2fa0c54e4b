"""Every output artifact goes through gyrofde._io and keeps its bytes: the
CSVs are what csv.writer writes for the same 17-significant-digit rows, and
the JSON documents are json.dumps(doc, indent=2) plus a newline."""

import csv
import io
import json
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gyrofde
from gyrofde import _io
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
    rows = [[_g(t), g, _g(st.std[0, g, j]), _g(st.std[1, g, j])]
            for g in range(st.n_groups) for j, t in enumerate(st.times)]
    return st.to_csv, ["t_h", "group", "std_atrk_km", "std_xtrk_km"], rows


def _allan():
    taus = default_tau_grid(SEC, 10.0)
    curve = AllanCurve(taus, np.sqrt(allan_variance_analytic(NAV, taus)))
    rows = [[_g(tau * HOUR_S), _g(s / DEG)] for tau, s in zip(curve.taus, curve.sigmas)]
    return curve.to_csv, ["tau_s", "sigma_deg_per_h"], rows


def _budget():
    p = FlightProfile()
    times = np.linspace(0.0, p.duration, 11)
    rows = []
    for t in times:
        b = fde_sigma(NAV, p, t)
        rows.append([_g(v) for v in (
            t, b.sigma_atrk, b.sigma_xtrk, b.sigma_fde, b.fde95_nmi,
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


def _cells(x) -> list[str]:
    """The float cells ``write_csv`` writes for ``x``, one per line, as
    written under the CLI's floating-point error state."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "x.csv"
        with np.errstate(all="raise"):
            _io.write_csv(path, ["x"], np.asarray(x, dtype=np.float64))
        return path.read_text().split("\n")[1:-1]


def _python(x) -> list[str]:
    return ["" if v != v else "%.17g" % v for v in np.asarray(x, dtype=np.float64).tolist()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_float_cells_are_python_percent_17g(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _cells(x) == _python(x)


def _edge_values() -> np.ndarray:
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
    ends = np.array([1e-250, 1e250, 1e16, 1e17, 1e15])
    near = np.concatenate([tens, ends])
    return np.concatenate([
        near, np.nextafter(near, np.inf), np.nextafter(near, 0.0),
        # exact ties of the 17th digit, then short and 17-digit values
        [1000000000000000.25, 1000000000000000.75, 0.5, 2.5, 9007199254740993.0,
         12345678901234567.0, 1.5e-5, 1.25e-4],
        # subnormals, zeros, infinities, NaN
        [5e-324, 1e-310, 2.2250738585072009e-308, 0.0, np.inf, np.nan],
        # each notation: 1e-5 and 1e16 are the last decades before "e"
        [1e-5, 1.2e-5, 1e-4, 1.2e-4, 0.1, 1.0, 10.0, 1234.5, 1e16 + 2, 1.234e16, 1e21],
    ])


def test_float_cells_at_the_edges():
    x = _edge_values()
    x = np.concatenate([x, -x])
    assert _cells(x) == _python(x)


def test_ordinary_floats_are_formatted_by_numpy():
    """Python formats a near-tie or a decade edge; ordinary values, across
    the range, all go through numpy."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096) * 10.0 ** rng.integers(-240, 240, 4096)
    _, exact = _io._float_cells(x)
    assert exact.mean() > 0.999


def test_rows_across_blocks_match_csv_writer(tmp_path):
    """Several row blocks, with a NaN and a negative on each side of the
    block edges, and float, int and bool columns mixed."""
    step = _io._CELLS // 4
    n = 3 * step + 7
    rng = np.random.default_rng(1)
    a = rng.standard_normal(n) * 1e3
    a[[step - 1, 2 * step]] = np.nan
    a[[step, 2 * step - 1]] = -abs(a[[step, 2 * step - 1]])
    cols = [a, np.arange(n) - 5, rng.random(n) > 0.5,
            (rng.random(n) * 1e-3).astype(np.float32)]
    path = tmp_path / "out.csv"
    _io.write_csv(path, ["a", "i", "b", "f"], *cols)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["a", "i", "b", "f"])
    w.writerows([["" if x != x else _g(x), i, int(b), _g(f)]
                 for x, i, b, f in zip(*(c.tolist() for c in cols))])
    assert path.read_bytes() == ref.getvalue().encode()


def test_zero_rows_write_the_header_only(tmp_path):
    path = tmp_path / "out.csv"
    _io.write_csv(path, ["a", "b"], np.array([]), np.array([], dtype=int))
    assert path.read_bytes() == b"a,b\r\n"


@pytest.mark.parametrize("column", [
    np.array([2 ** 53]), np.array([-2 ** 53]), np.array([0, 2 ** 63 - 1]),
    np.array([-2 ** 63, 0]), np.array([2 ** 64 - 1], dtype=np.uint64)])
def test_integer_column_at_2_53_or_more_is_rejected(tmp_path, column):
    """Every cell is written as a float, which prints an integer as '%d'
    only below 2**53 in magnitude."""
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="2\\*\\*53"):
        _io.write_csv(path, ["x", "i"], np.zeros(len(column)), column)
    assert not path.exists()
    _io.write_csv(path, ["i"], np.array([2 ** 53 - 1, 1 - 2 ** 53]))
    assert path.read_bytes() == b"i\r\n9007199254740991\r\n-9007199254740991\r\n"


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


_READS = re.compile(r"^\s*(import csv\b|from csv import)|\b(np|numpy)\.(loadtxt|genfromtxt)\b")


def test_only_io_module_reads_csv():
    src = pathlib.Path(gyrofde.__file__).parent
    offenders = [f"{path.name}:{i}: {line.strip()}"
                 for path in sorted(src.glob("*.py")) if path.name != "_io.py"
                 for i, line in enumerate(path.read_text().splitlines(), start=1)
                 if _READS.search(line)]
    assert not offenders
