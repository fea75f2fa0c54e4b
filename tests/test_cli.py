import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gyrofde
from gyrofde.allan import allan_variance_empirical, default_tau_grid
from gyrofde.cli import ConfigError, main, parse_config
from gyrofde.gyro import GyroErrorModel, synthesize_rate_trace
from gyrofde.units import DEG

BENCHMARK = {
    "N": "0.005 deg_per_sqrt_h",
    "drifts": [{"K": "0.01 deg_per_h_3_2", "Tc": "1 h"}],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_benchmark_model(self):
        cfg = parse_config(dict(BENCHMARK))
        assert cfg.model.noise.N == pytest.approx(0.005 * DEG)
        assert cfg.model.drifts[0].K == pytest.approx(0.01 * DEG)
        assert cfg.model.drifts[0].Tc == 1.0
        assert cfg.model.turn_on is True
        assert cfg.flight.v == 900.0 and cfg.flight.duration == 10.0
        assert cfg.flight.R == 6371.0 and cfg.flight.dt == pytest.approx(1 / 3600)

    def test_empty_drift_list_is_valid(self):
        cfg = parse_config({"N": "0.01 deg_per_sqrt_h", "drifts": []})
        assert cfg.model.drifts == ()

    def test_zero_Tc_names_field(self):
        doc = {"N": "0 deg_per_sqrt_h",
               "drifts": [{"K": "0.01 deg_per_h_3_2", "Tc": "0 h"}]}
        with pytest.raises(ConfigError, match=r"drifts\[0\].Tc"):
            parse_config(doc)

    def test_unknown_unit_names_field(self):
        with pytest.raises(ConfigError, match="N"):
            parse_config({"N": "0.01 furlongs_per_fortnight"})

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ConfigError, match="drifts\\[0\\].K"):
            parse_config({"drifts": [{"K": "0.01 km", "Tc": "1 h"}]})

    def test_mixed_units_convert(self):
        cfg = parse_config({
            "N": "0.3 deg_per_h_per_sqrt_hz",
            "drifts": [{"K": "0.0001 rad_per_h_3_2", "Tc": "1800 s"}],
            "flight": {"duration": "36000 s", "R": "3440 nmi"},
        })
        assert cfg.model.noise.N == pytest.approx(0.005 * DEG)
        assert cfg.model.drifts[0].Tc == pytest.approx(0.5)
        assert cfg.flight.duration == pytest.approx(10.0)
        assert cfg.flight.R == pytest.approx(3440 * 1.852)

    def test_bool_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": True})


class TestAnalyticCommand:
    def test_ideal_gyro_all_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"drifts": []})
        out = tmp_path / "budget.csv"
        assert main(["analytic", "--config", cfg, "--points", "11",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 11
        assert all(float(v) == 0.0 for row in rows for v in row.split(",")[1:])

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "budget.csv"
        rc = main(["analytic", "--noise", "0.005 deg_per_sqrt_h",
                   "--duration", "2 h", "--points", "3", "--out", str(out)])
        assert rc == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[0]) == pytest.approx(2.0)

    def test_bad_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"N": "1 nmi"})
        assert main(["analytic", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, {
            **BENCHMARK,
            "flight": {"duration": "0.05 h", "dt": "5 s"}, "seed": 42})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            rep = tmp_path / f"{name}.json"
            rc = main(["simulate", "--config", cfg, "--groups", "2",
                       "--flights", "5", "--out", str(out), "--report", str(rep)])
            assert rc == 0
            outs.append((out.read_bytes(), rep.read_bytes()))
        assert outs[0] == outs[1]

    def test_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, {
            **BENCHMARK, "flight": {"duration": "0.05 h", "dt": "5 s"}})
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            main(["simulate", "--config", cfg, "--seed", seed, "--groups", "1",
                  "--flights", "3", "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]


class TestAllanCommands:
    def test_synthesize_estimate_and_landmarks(self, tmp_path):
        cfg = write_config(tmp_path, {
            "N": "0.0005 deg_per_sqrt_h",
            "drifts": [{"K": "0.3 deg_per_h_3_2", "Tc": "72 s"}],
            "flight": {"duration": "1 h", "dt": "1 s"}, "seed": 3})
        trace = tmp_path / "trace.csv"
        ana = tmp_path / "allan_analytic.csv"
        emp = tmp_path / "allan_empirical.csv"
        lm = tmp_path / "landmarks.json"
        rc = main(["allan", "--config", cfg, "--synthesize-trace", str(trace),
                   "--trace-duration", "1 h", "--analytic-out", str(ana),
                   "--empirical-out", str(emp), "--landmarks-out", str(lm)])
        assert rc == 0
        assert trace.read_text().splitlines()[0] == "t_h,rate_deg_per_h"
        assert ana.read_text().splitlines()[0] == "tau_s,sigma_deg_per_h"
        assert emp.read_text().splitlines()[0] == "tau_s,sigma_deg_per_h"
        doc = json.loads(lm.read_text())
        assert set(doc) == {"tau_min_s", "sigma_min_deg_per_h", "tau_max_s",
                            "sigma_max_deg_per_h", "K_deg_per_h32", "Tc_h"}
        # the noise term tilts this model's maximum slightly leftward
        assert doc["Tc_h"] == pytest.approx(0.02, rel=0.05)

    def test_empirical_curve_uses_the_synthesized_trace(self, tmp_path):
        # estimated from the samples in memory, not from their CSV round trip
        emp = tmp_path / "emp.csv"
        rc = main(["allan", "--noise", "0.0005 deg_per_sqrt_h",
                   "--drift", "0.3 deg_per_h_3_2, 72 s", "--seed", "4",
                   "--trace-duration", "0.5 h", "--synthesize-trace",
                   str(tmp_path / "trace.csv"), "--empirical-out", str(emp)])
        assert rc == 0
        m = GyroErrorModel.from_deg(5e-4, ((0.3, 72 / 3600),))
        trace = synthesize_rate_trace(m, 0.5, 1 / 3600, 4)
        want = allan_variance_empirical(
            trace, default_tau_grid(trace.dt, trace.duration))
        want_path = tmp_path / "want.csv"
        want.to_csv(want_path)
        assert emp.read_bytes() == want_path.read_bytes()

    def test_fit_allan_from_flags(self, tmp_path, capsys):
        rc = main(["fit-allan", "--tau-max", "6804 s",
                   "--sigma-max", "0.0414 deg_per_h"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["Tc_h"] == pytest.approx(1.0, rel=1e-6)
        assert doc["K_deg_per_h32"] == pytest.approx(0.0414 / 0.437, rel=1e-6)

    def test_fit_allan_from_curve_file(self, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("tau_s,sigma_deg_per_h\n3600,0.01\n6804,0.0414\n"
                         "10000,0.02\n")
        out = tmp_path / "fit.json"
        assert main(["fit-allan", "--curve", str(curve), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["Tc_h"] == pytest.approx(1.0, rel=1e-6)

    def test_fit_allan_picks_interior_maximum(self, tmp_path):
        # neither the noise branch at the left edge (global max) nor the
        # rolloff tail at the right edge (global min) may anchor the fit
        curve = tmp_path / "curve.csv"
        curve.write_text("tau_s,sigma_deg_per_h\n10,0.05\n100,0.01\n"
                         "1000,0.03\n3600,0.02\n7200,0.005\n")
        out = tmp_path / "fit.json"
        assert main(["fit-allan", "--curve", str(curve), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["Tc_h"] == pytest.approx((1000 / 3600) / 1.89, rel=1e-9)

    def test_fit_allan_rejects_curve_without_interior_maximum(self, tmp_path):
        curve = tmp_path / "mono.csv"
        curve.write_text("tau_s,sigma_deg_per_h\n10,0.05\n100,0.02\n1000,0.01\n")
        assert main(["fit-allan", "--curve", str(curve)]) == 2

    def test_fit_allan_needs_inputs(self):
        assert main(["fit-allan"]) == 2


class TestGridContourCommands:
    def test_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["grid", "--n-range", "1e-3,1e-2,3", "--k-range",
                   "1e-3,1e-2,3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N_deg_sqrth,K_deg_h32,fde95_nmi"
        assert len(lines) == 10

    def test_contour(self, tmp_path):
        out = tmp_path / "contour.csv"
        rc = main(["contour", "--n-range", "1e-3,5e-2,4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N_deg_sqrth,K_deg_h32,feasible"
        assert lines[1].endswith(",1") and lines[-1].endswith(",0")


class TestCheckCommand:
    def test_benchmark_passes_and_carries_note(self, tmp_path):
        cfg = write_config(tmp_path, dict(BENCHMARK))
        out = tmp_path / "check.json"
        rc = main(["check", "--config", cfg, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert rc == 0 and doc["pass"] is True
        assert doc["fde95_nmi"] == pytest.approx(5.2117, rel=1e-3)
        assert doc["notes"]  # closed-form vs published-chart advisory

    def test_noisy_gyro_fails_with_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {"N": "0.1 deg_per_sqrt_h"})
        out = tmp_path / "check.json"
        rc = main(["check", "--config", cfg, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert rc == 1 and doc["pass"] is False
        assert doc["margin_nmi"] < 0

    def test_breakdown_round_trips_through_precision(self, tmp_path):
        cfg = write_config(tmp_path, dict(BENCHMARK))
        out = tmp_path / "check.json"
        main(["check", "--config", cfg, "--out", str(out)])
        doc = json.loads(out.read_text())
        b = doc["breakdown"]
        rss = np.sqrt(b["sigma_atrk_km"] ** 2 + b["sigma_xtrk_km"] ** 2)
        assert rss == pytest.approx(b["sigma_fde_km"], rel=1e-12)
        assert doc["pass"] == (doc["fde95_nmi"] <= 10.0)


def _write_trace(path, rows):
    path.write_text("t_h,rate_deg_per_h\n" + "".join(f"{t},{r}\n" for t, r in rows))
    return str(path)


def _bad_input_cases(tmp_path):
    short = _write_trace(tmp_path / "short.csv",
                         [(i / 3600, 0.01) for i in range(1, 4)])
    nan = _write_trace(tmp_path / "nan.csv",
                       [(i / 3600, "nan" if i == 5 else 0.01) for i in range(1, 601)])
    gap = _write_trace(tmp_path / "gap.csv",
                       [((i + (46 if i > 5 else 0)) / 3600, 0.01) for i in range(1, 11)])
    seed_true = write_config(tmp_path, {"seed": True}, "seed.json")
    one_row = tmp_path / "one_row.csv"
    one_row.write_text("tau_s,sigma_deg_per_h\n10,0.1\n")
    bad_number = tmp_path / "bad_number.csv"
    bad_number.write_text("tau_s,sigma_deg_per_h\n10,0.1\n20,abc\n30,0.1\n")
    out = str(tmp_path / "out.csv")
    return {
        "simulate-groups-0": ["simulate", "--groups", "0", "--out", out],
        "simulate-flights-1": ["simulate", "--flights", "1", "--out", out],
        "simulate-workers-0": ["simulate", "--workers", "0", "--out", out],
        "check-negative-target": ["check", "--target", "-1 nmi"],
        "grid-zero-points": ["grid", "--n-range", "1e-3,1e-2,0", "--out", out],
        "allan-short-trace": ["allan", "--trace", short, "--empirical-out", out],
        "allan-nan-trace": ["allan", "--trace", nan, "--empirical-out", out],
        "allan-gap-trace": ["allan", "--trace", gap, "--empirical-out", out],
        "analytic-points-0": ["analytic", "--points", "0", "--out", out],
        "seed-true": ["analytic", "--config", seed_true, "--out", out],
        "fit-allan-one-row": ["fit-allan", "--curve", str(one_row), "--out", out],
        "fit-allan-bad-number": ["fit-allan", "--curve", str(bad_number), "--out", out],
    }


@pytest.mark.parametrize("case", [
    "simulate-groups-0", "simulate-flights-1", "simulate-workers-0",
    "check-negative-target",
    "grid-zero-points", "allan-short-trace", "allan-nan-trace",
    "allan-gap-trace", "analytic-points-0", "seed-true", "fit-allan-one-row",
    "fit-allan-bad-number"])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, case):
    argv = _bad_input_cases(tmp_path)[case]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gyrofde: error: ")
    assert not (tmp_path / "out.csv").exists()


def _bad_range_and_step_cases(tmp_path):
    flight = ["--dt", "1 h", "--duration", "0.5 h", "--groups", "1", "--flights", "2"]
    return {
        "grid-negative-N": ["grid", "--n-range=-1e-3,-1e-2,3"],
        "grid-nan-N": ["grid", "--n-range", "nan,1e-2,3"],
        "grid-inf-N": ["grid", "--n-range", "1e-3,inf,3"],
        "grid-negative-K": ["grid", "--k-range=-1e-3,-1e-2,3"],
        "grid-nan-K": ["grid", "--k-range", "nan,1e-2,3"],
        "grid-zero-Tc": ["grid", "--tc", "0 h"],
        "contour-negative-N": ["contour", "--n-range=-1e-3,-1e-2,3"],
        "contour-nan-N": ["contour", "--n-range", "nan,1e-2,3"],
        "contour-inf-N": ["contour", "--n-range", "1e-3,inf,3"],
        "contour-zero-Tc": ["contour", "--tc", "0 h"],
        "simulate-dt-past-the-end": ["simulate", *flight],
        "simulate-dt-past-the-end-report": ["simulate", *flight, "--report",
                                            str(tmp_path / "report.json")],
    }


# pytest captures warnings, which on a terminal would be extra stderr lines
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [
    "grid-negative-N", "grid-nan-N", "grid-inf-N", "grid-negative-K",
    "grid-nan-K", "grid-zero-Tc", "contour-negative-N", "contour-nan-N",
    "contour-inf-N", "contour-zero-Tc", "simulate-dt-past-the-end",
    "simulate-dt-past-the-end-report"])
def test_bad_range_or_step_exits_2_with_one_line(tmp_path, capsys, case):
    out = tmp_path / "out.csv"
    assert main(_bad_range_and_step_cases(tmp_path)[case] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gyrofde: error: ")
    assert not out.exists() and not (tmp_path / "report.json").exists()


def test_closed_form_commands_load_no_scipy(tmp_path):
    """import gyrofde.cli and every command that needs no sampling or dof
    band stays clear of scipy (its import dominates a cold start)."""
    argvs = [
        ["check", "--noise", "0.005 deg_per_sqrt_h",
         "--drift", "0.01 deg_per_h_3_2, 1 h"],
        ["analytic", "--noise", "0.005 deg_per_sqrt_h", "--out", "a.csv"],
        ["grid", "--n-range", "1e-3,1e-2,3", "--k-range", "1e-3,1e-2,3",
         "--out", "g.csv"],
        ["contour", "--n-range", "1e-3,5e-2,4", "--out", "c.csv"],
        ["fit-allan", "--tau-max", "6804 s", "--sigma-max", "0.0414 deg_per_h"],
        ["allan", "--noise", "0.0001 deg_per_sqrt_h",
         "--drift", "0.03 deg_per_h_3_2, 0.05 h",
         "--analytic-out", "aa.csv", "--landmarks-out", "lm.json"],
    ]
    script = (
        "import json, sys\n"
        "from gyrofde.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(k for k in sys.modules if k.startswith('scipy'))\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert not scipy_modules(), (argv, scipy_modules())\n")
    src = str(pathlib.Path(gyrofde.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
