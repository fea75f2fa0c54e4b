import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gyrofde
from gyrofde.allan import allan_variance_empirical, default_tau_grid
from gyrofde.budget import FlightProfile, fde_sigma
from gyrofde.cli import ConfigError, RunConfig, build_parser, main, parse_config
from gyrofde.gyro import DriftSpec, GyroErrorModel, synthesize_rate_trace
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
        assert cfg.model.N == pytest.approx(0.005 * DEG)
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
        assert cfg.model.N == pytest.approx(0.005 * DEG)
        assert cfg.model.drifts[0].Tc == pytest.approx(0.5)
        assert cfg.flight.duration == pytest.approx(10.0)
        assert cfg.flight.R == pytest.approx(3440 * 1.852)

    def test_bool_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": True})

    def test_defaults_are_the_dataclass_defaults(self):
        assert parse_config({}) == RunConfig(GyroErrorModel(), FlightProfile())

    def test_every_flag_overrides_its_key(self):
        doc = {**BENCHMARK, "turn_on": True, "seed": 1,
               "flight": {"v": "900 km_per_h", "duration": "10 h",
                          "R": "6371 km", "dt": "1 s"}}
        flags = argparse.Namespace(
            noise="0.002 rad_per_sqrt_h", drift=["0.003 rad_per_h_3_2, 2 h"],
            turn_on=False, seed=7, v="800 km_per_h", duration="4 h",
            radius="6000 km", dt="2 h")
        assert parse_config(doc, flags) == RunConfig(
            GyroErrorModel(0.002, (DriftSpec(0.003, 2.0),), False),
            FlightProfile(v=800.0, duration=4.0, R=6000.0, dt=2.0), seed=7)


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


    @pytest.mark.parametrize("argv, rc", [
        (["--noise", "0.005 deg_per_sqrt_h", "--drift", "0.01 deg_per_h_3_2, 1 h"], 0),
        (["--noise", "0.1 deg_per_sqrt_h", "--duration", "3 h"], 1),
    ], ids=["pass", "fail"])
    def test_report_is_stdout_plus_the_budget_it_judged(self, tmp_path, capsys, argv, rc):
        out = tmp_path / "check.json"
        assert main(["check", *argv]) == rc
        stdout = json.loads(capsys.readouterr().out)
        assert main(["check", *argv, "--out", str(out)]) == rc
        doc = json.loads(out.read_text())
        assert list(stdout) == ["pass", "fde95_nmi", "margin_nmi", "notes"]
        assert {k: doc[k] for k in stdout} == stdout
        cfg = parse_config({}, build_parser().parse_args(["check", *argv]))
        b = fde_sigma(cfg.model, cfg.flight, cfg.flight.duration)
        assert doc["evaluate_at_h"] == cfg.flight.duration
        assert doc["breakdown"] == {
            "sigma_atrk_km": b.sigma_atrk, "sigma_xtrk_km": b.sigma_xtrk,
            "sigma_fde_km": b.sigma_fde, "atrk_noise_km2": b.atrk_noise,
            "atrk_drift_km2": b.atrk_drift, "atrk_turnon_km2": b.atrk_turnon,
            "xtrk_noise_km2": b.xtrk_noise, "xtrk_drift_km2": b.xtrk_drift,
            "xtrk_turnon_km2": b.xtrk_turnon}


def _write_trace(path, rows):
    path.write_text("t_h,rate_deg_per_h\n" + "".join(f"{t},{r}\n" for t, r in rows))
    return str(path)


# Each flag a command does not take, as (command, flag, value): the command
# never read its key, so the flag is unknown to it.  Without the flag each
# argv runs, writing to its command's output flag.
_OUT_FLAG = {"allan": "--analytic-out"}
_FLAG_VALUE = {"--dt": ["1 s"], "--seed": ["1"], "--v": ["900 km_per_h"],
               "--radius": ["6371 km"], "--noise": ["0.005 deg_per_sqrt_h"],
               "--drift": ["0.01 deg_per_h_3_2, 1 h"]}
REMOVED_FLAGS = {
    f"{command}-takes-no-{flag[2:]}": (command, flag, *_FLAG_VALUE.get(flag, []))
    for command, flags in (
        ("analytic", ("--dt", "--seed")), ("check", ("--dt", "--seed")),
        ("allan", ("--v", "--radius")),
        *((command, ("--noise", "--drift", "--turn-on", "--no-turn-on", "--dt",
                     "--seed")) for command in ("grid", "contour")))
    for flag in flags}


# Configs that cannot be read or parsed, each given to both commands that
# take a config and write one output
CONFIG_FAULTS = {"missing": None, "directory": None, "invalid-json": b'{"N": ',
                 "invalid-utf8": b'{"N": "1 deg_per_sqrt_h\xff"}',
                 "deep": b"[" * 100_000 + b"]" * 100_000}
CONFIG_FAULT_CASES = [f"{command}-config-{fault}" for command in ("check", "analytic")
                      for fault in CONFIG_FAULTS]


def _bad_input_cases(tmp_path):
    short = _write_trace(tmp_path / "short.csv",
                         [(i / 3600, 0.01) for i in range(1, 4)])
    nan = _write_trace(tmp_path / "nan.csv",
                       [(i / 3600, "nan" if i == 5 else 0.01) for i in range(1, 601)])
    gap = _write_trace(tmp_path / "gap.csv",
                       [((i + (46 if i > 5 else 0)) / 3600, 0.01) for i in range(1, 11)])
    seed_true = write_config(tmp_path, {"seed": True}, "seed.json")
    seed_negative = write_config(tmp_path, {"seed": -1}, "seed_negative.json")
    one_row = tmp_path / "one_row.csv"
    one_row.write_text("tau_s,sigma_deg_per_h\n10,0.1\n")
    bad_number = tmp_path / "bad_number.csv"
    bad_number.write_text("tau_s,sigma_deg_per_h\n10,0.1\n20,abc\n30,0.1\n")
    curves = {}
    for name, body in (
            ("nan-sigma", "100,0.01\n1000,0.03\n3600,0.02\n7200,nan\n"),
            ("unordered-taus", "10,0.01\n1000,0.03\n100,0.02\n"),
            ("negative-tau", "-1,0.01\n100,0.03\n1000,0.02\n")):
        curves[name] = tmp_path / f"{name}.csv"
        curves[name].write_text("tau_s,sigma_deg_per_h\n" + body)
    curves["interior-max"] = tmp_path / "interior-max.csv"  # a curve fit-allan accepts
    curves["interior-max"].write_text("tau_s,sigma_deg_per_h\n10,0.01\n1000,0.03\n3600,0.02\n")
    rate_trace = _write_trace(tmp_path / "rate_trace.csv",
                              [(1 / 3600, 0.01), (2 / 3600, 0.03), (3 / 3600, 0.02)])
    # a field longer than the csv module's limit of 131,072 characters
    long_trace = _write_trace(tmp_path / "long_trace.csv",
                              [(1 / 3600, 0.01), (2 / 3600, "x" * 200_000)])
    long_curve = tmp_path / "long_curve.csv"
    long_curve.write_text(f"tau_s,sigma_deg_per_h\n10,0.1\n20,{'x' * 200_000}\n")
    (tmp_path / "directory.json").mkdir()
    for fault, body in CONFIG_FAULTS.items():
        if body is not None:
            (tmp_path / f"{fault}.json").write_bytes(body)
    out = str(tmp_path / "out.csv")
    return {
        **{f"{command}-config-{fault}": [command, "--config",
                                         str(tmp_path / f"{fault}.json"), "--out", out]
           for command in ("check", "analytic") for fault in CONFIG_FAULTS},
        **{case: [command, *flag, _OUT_FLAG.get(command, "--out"), out]
           for case, (command, *flag) in REMOVED_FLAGS.items()},
        "analytic-points-not-int": ["analytic", "--points", "x", "--out", out],
        "analytic-unknown-flag": ["analytic", "--bogus", "--out", out],
        "analytic-no-out": ["analytic", "--points", "3"],
        "check-turn-on-and-no-turn-on": ["check", "--turn-on", "--no-turn-on",
                                         "--out", out],
        "allan-trace-duration-not-whole-steps": ["allan", "--synthesize-trace", out,
                                                 "--trace-duration", "10.6 s"],
        "simulate-dt-1e-300": ["simulate", "--duration", "10 s", "--dt", "1e-300 s",
                               "--out", out],
        "allan-dt-1e-300": ["allan", "--dt", "1e-300 s", "--trace-duration", "10 s",
                            "--synthesize-trace", out],
        # the analytic tau grid's multiples of dt would overflow int64
        "allan-analytic-dt-1e-300": ["allan", "--dt", "1e-300 s", "--analytic-out", out],
        "allan-analytic-duration-1e300": ["allan", "--duration", "1e300 h",
                                          "--analytic-out", out],
        "simulate-groups-0": ["simulate", "--groups", "0", "--out", out],
        "simulate-groups-1e15": ["simulate", "--groups", str(10 ** 15), "--out", out],
        "simulate-flights-1": ["simulate", "--flights", "1", "--out", out],
        "simulate-workers-0": ["simulate", "--workers", "0", "--out", out],
        "simulate-stat-stride-negative": ["simulate", "--stat-stride", "-3",
                                          "--out", out],
        "check-negative-target": ["check", "--target", "-1 nmi"],
        "grid-zero-points": ["grid", "--n-range", "1e-3,1e-2,0", "--out", out],
        "contour-zero-points": ["contour", "--n-range", "1e-3,1e-2,0", "--out", out],
        "allan-short-trace": ["allan", "--trace", short, "--empirical-out", out],
        "allan-nan-trace": ["allan", "--trace", nan, "--empirical-out", out],
        "allan-gap-trace": ["allan", "--trace", gap, "--empirical-out", out],
        "analytic-points-0": ["analytic", "--points", "0", "--out", out],
        "analytic-points-1e15": ["analytic", "--points", str(10 ** 15), "--out", out],
        "analytic-points-2**63": ["analytic", "--points", str(2 ** 63), "--out", out],
        "grid-points-1e15": ["grid", "--n-range", f"1e-3,1e-2,{10 ** 15}", "--out", out],
        "contour-points-2**63": ["contour", "--n-range", f"1e-3,1e-2,{2 ** 63}",
                                 "--out", out],
        "seed-true": ["analytic", "--config", seed_true, "--out", out],
        "seed-negative": ["analytic", "--config", seed_negative, "--out", out],
        # products that overflow a double: numeric range, not a failed requirement
        "check-v-overflow": ["check", "--v", "1e200 km_per_h",
                             "--noise", "1 deg_per_sqrt_h", "--out", out],
        "check-K-overflow": ["check", "--drift", "1e200 deg_per_h_3_2, 1 h", "--out", out],
        "check-radius-overflow": ["check", "--radius", "1e200 km",
                                  "--noise", "1 deg_per_sqrt_h", "--out", out],
        "check-target-overflow": ["check", "--target", "1e308 nmi", "--out", out],
        "allan-K-overflow": ["allan", "--drift", "1e200 deg_per_h_3_2, 1 h",
                             "--analytic-out", out],
        # the landmark search bracket sqrt(3) N/K overflows, or underflows to 0
        "allan-landmarks-bracket-overflow": [
            "allan", "--noise", "1e300 deg_per_sqrt_h", "--drift",
            "1e-300 deg_per_h_3_2, 1 h", "--landmarks-out", str(tmp_path / "l.json")],
        "allan-landmarks-bracket-zero": [
            "allan", "--noise", "1e-300 deg_per_sqrt_h", "--drift",
            "1e300 deg_per_h_3_2, 1 h", "--landmarks-out", str(tmp_path / "l.json")],
        # sigma^2 underflows to 0 at the maximum the slope finds
        "allan-maximum-underflow": [
            "allan", "--noise", "1.3e-168 deg_per_sqrt_h", "--drift",
            "6.2e-99 deg_per_h_3_2, 5.13e-53 h", "--landmarks-out", str(tmp_path / "l.json")],
        "fit-allan-K-overflow": ["fit-allan", "--tau-max", "1e-300 s",
                                 "--sigma-max", "1e300 deg_per_h", "--out", out],
        "fit-allan-curve-and-tau-max": ["fit-allan", "--curve", str(curves["interior-max"]),
                                        "--tau-max", "1 s", "--out", out],
        "fit-allan-curve-and-landmark": ["fit-allan", "--curve", str(curves["interior-max"]),
                                         "--tau-max", "1 s", "--sigma-max", "5 deg_per_h",
                                         "--out", out],
        "fit-allan-one-row": ["fit-allan", "--curve", str(one_row), "--out", out],
        "fit-allan-bad-number": ["fit-allan", "--curve", str(bad_number), "--out", out],
        "fit-allan-nan-sigma": ["fit-allan", "--curve", str(curves["nan-sigma"]),
                                "--out", out],
        "fit-allan-rate-trace": ["fit-allan", "--curve", rate_trace, "--out", out],
        "fit-allan-unordered-taus": ["fit-allan", "--curve",
                                     str(curves["unordered-taus"]), "--out", out],
        "fit-allan-negative-tau": ["fit-allan", "--curve", str(curves["negative-tau"]),
                                   "--out", out],
        "allan-trace-long-field": ["allan", "--trace", long_trace, "--empirical-out", out],
        "fit-allan-long-field": ["fit-allan", "--curve", str(long_curve), "--out", out],
    }


@pytest.mark.parametrize("case", [
    "simulate-dt-1e-300", "allan-dt-1e-300", "allan-analytic-dt-1e-300",
    "allan-analytic-duration-1e300",
    "simulate-groups-0", "simulate-groups-1e15", "simulate-flights-1",
    "simulate-workers-0", "simulate-stat-stride-negative", "check-negative-target",
    "grid-zero-points", "contour-zero-points", "allan-short-trace", "allan-nan-trace",
    "allan-gap-trace", "analytic-points-0", "analytic-points-1e15",
    "analytic-points-2**63", "grid-points-1e15", "contour-points-2**63",
    "seed-true", "seed-negative", "check-v-overflow", "check-K-overflow",
    "check-radius-overflow", "check-target-overflow", "allan-K-overflow",
    "allan-landmarks-bracket-overflow", "allan-landmarks-bracket-zero",
    "allan-maximum-underflow", "fit-allan-K-overflow", "fit-allan-curve-and-tau-max",
    "fit-allan-curve-and-landmark", "fit-allan-one-row",
    "fit-allan-bad-number", "fit-allan-nan-sigma", "fit-allan-rate-trace",
    "fit-allan-unordered-taus", "fit-allan-negative-tau", "analytic-points-not-int",
    "analytic-unknown-flag", "analytic-no-out", "check-turn-on-and-no-turn-on",
    "allan-trace-duration-not-whole-steps", "allan-trace-long-field",
    "fit-allan-long-field", *REMOVED_FLAGS, *CONFIG_FAULT_CASES])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, case):
    argv = _bad_input_cases(tmp_path)[case]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gyrofde: error: ")
    if case in REMOVED_FLAGS:
        assert f"unrecognized arguments: {REMOVED_FLAGS[case][1]}" in err[0]
    if case in CONFIG_FAULT_CASES:  # one short line that names the file
        assert argv[2] in err[0] and len(err[0]) < 300
    if case.startswith("seed-"):
        assert "seed" in err[0]
    if case.endswith("-overflow"):
        assert "out of numeric range" in err[0]
    if case.startswith("fit-allan-curve-and-"):
        assert "--curve" in err[0]
    if case.startswith(("simulate-dt-", "allan-dt-", "allan-analytic-")):
        # the flags and the step limit, not numpy's size or cast
        flags = "--trace-duration" if case == "allan-dt-1e-300" else "--duration"
        assert f"{flags} / --dt:" in err[0] and "2**59" in err[0]
    if case.endswith("long-field"):  # a bounded prefix of the 200,000-character row
        assert len(err[0]) < 300
    if case.startswith("allan-landmarks-"):  # numpy's message, not a conversion's
        assert "encountered in" in err[0]
        assert not (tmp_path / "l.json").exists()
    if case == "allan-maximum-underflow":
        assert "--noise / --drift:" in err[0] and "underflows" in err[0]
        assert not (tmp_path / "l.json").exists()
    assert not (tmp_path / "out.csv").exists()


def test_cached_parser_leaks_nothing_between_calls(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["analytic", "--out", str(a)]) == 0
    assert main(["analytic", "--drift", "0.02 deg_per_h_3_2, 2 h",
                 "--drift", "0.03 deg_per_h_3_2, 5 h", "--no-turn-on",
                 "--out", str(tmp_path / "drifts.csv")]) == 0
    assert main(["analytic", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert build_parser() is build_parser()
    # a mutable default, such as a list, is state one call can hand the next
    args = build_parser().parse_args(["analytic", "--out", str(b)])
    assert not any(isinstance(v, (list, dict, set)) for v in vars(args).values())


@pytest.mark.parametrize("case", list(REMOVED_FLAGS))
def test_argv_runs_without_the_flag_its_command_does_not_take(tmp_path, capsys, case):
    command, flag, *value = REMOVED_FLAGS[case]
    argv = [command, _OUT_FLAG.get(command, "--out"), str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert main(argv + [flag, *value]) == 2


@pytest.mark.parametrize("argv", [["--help"], ["grid", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gyrofde")


def test_stat_stride_past_the_last_step_records_the_last_step(tmp_path, monkeypatch):
    """A stride of 2**63, past numpy's int64 arange, records what a stride of
    n_steps records: the start and the end."""
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--noise", "0.005 deg_per_sqrt_h", "--duration", "0.01 h",
            "--groups", "1", "--flights", "2"]
    assert main(argv + ["--stat-stride", str(2 ** 63), "--out", "far.csv"]) == 0
    assert main(argv + ["--stat-stride", "36", "--out", "end.csv"]) == 0
    assert (tmp_path / "far.csv").read_bytes() == (tmp_path / "end.csv").read_bytes()


def _failed_run_cases(tmp_path):
    gap = _write_trace(tmp_path / "gap.csv",
                       [((i + (46 if i > 5 else 0)) / 3600, 0.01) for i in range(1, 11)])
    trace = tmp_path / "trace.csv"
    synthesize_rate_trace(GyroErrorModel.from_deg(0.005), 0.1, 1 / 3600, 1).to_csv(trace)
    a, e = str(tmp_path / "a.csv"), str(tmp_path / "e.csv")
    t, lm = str(tmp_path / "t.csv"), str(tmp_path / "lm.json")
    nodir = tmp_path / "nodir"
    return {
        "allan-bad-trace-no-empirical": ["allan", "--trace", gap, "--analytic-out", a],
        "allan-trace-and-synthesize": ["allan", "--trace", str(trace),
                                       "--synthesize-trace", t, "--empirical-out", e],
        "allan-no-output": ["allan", "--noise", "0.005 deg_per_sqrt_h"],
        "allan-no-trace": ["allan", "--analytic-out", a, "--empirical-out", e],
        "allan-bad-trace": ["allan", "--trace", gap, "--analytic-out", a,
                            "--empirical-out", e],
        "allan-landmarks-no-drift": ["allan", "--analytic-out", a,
                                     "--landmarks-out", lm],
        "allan-missing-dir": ["allan", "--synthesize-trace", t, "--trace-duration",
                              "0.1 h", "--analytic-out", str(nodir / "a.csv")],
        "simulate-missing-dir": ["simulate", "--groups", "1", "--flights", "2",
                                 "--duration", "0.1 h", "--out", e,
                                 "--report", str(nodir / "r.json")],
    }


@pytest.mark.parametrize("case", [
    "allan-no-trace", "allan-bad-trace", "allan-landmarks-no-drift",
    "allan-missing-dir", "simulate-missing-dir", "allan-bad-trace-no-empirical",
    "allan-trace-and-synthesize", "allan-no-output"])
def test_failed_run_leaves_no_output_file(tmp_path, capsys, case):
    argv = _failed_run_cases(tmp_path)[case]
    inputs = set(tmp_path.iterdir())
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gyrofde: error: ")
    assert set(tmp_path.iterdir()) == inputs


def _bad_range_and_step_cases(tmp_path):
    flight = ["--dt", "1 h", "--duration", "0.5 h", "--groups", "1", "--flights", "2"]
    overflow = ["simulate", "--noise", "1e300 deg_per_sqrt_h", "--groups", "2",
                "--flights", "2", "--duration", "0.01 h"]
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
        "check-overflowing-noise": ["check", "--noise", "1e300 deg_per_sqrt_h"],
        "analytic-overflowing-noise": ["analytic", "--noise", "1e300 deg_per_sqrt_h"],
        "check-overflowing-duration": ["check", "--duration", "1e300 h"],
        "check-tiny-Tc": ["check", "--drift", "1e-3 deg_per_h_3_2, 1e-300 h"],
        "simulate-overflowing-noise": overflow,
        "simulate-overflowing-noise-2-workers": overflow + ["--workers", "2"],
    }


# pytest captures warnings, which on a terminal would be extra stderr lines
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [
    "grid-negative-N", "grid-nan-N", "grid-inf-N", "grid-negative-K",
    "grid-nan-K", "grid-zero-Tc", "contour-negative-N", "contour-nan-N",
    "contour-inf-N", "contour-zero-Tc", "simulate-dt-past-the-end",
    "simulate-dt-past-the-end-report", "check-overflowing-noise",
    "analytic-overflowing-noise", "check-overflowing-duration", "check-tiny-Tc",
    "simulate-overflowing-noise", "simulate-overflowing-noise-2-workers"])
def test_bad_range_or_step_exits_2_with_one_line(tmp_path, capsys, case):
    out = tmp_path / "out.csv"
    assert main(_bad_range_and_step_cases(tmp_path)[case] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gyrofde: error: ")
    assert not out.exists() and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["check", "--target", "10 nmi"],
    ["check", "--noise", "0.003 deg_per_sqrt_h", "--drift", "0.03 deg_per_h_3_2, 4 h",
     "--target", "50 nmi"],
    ["simulate", "--noise", "0.005 deg_per_sqrt_h", "--drift", "0.01 deg_per_h_3_2, 1 h",
     "--duration", "0.01 h", "--groups", "2", "--flights", "5",
     "--out", "e.csv", "--report", "r.json"],
], ids=["check-bare", "check", "simulate-report"])
def test_zero_drift_with_huge_Tc_changes_no_output(tmp_path, capsys, monkeypatch, argv):
    """A drift of zero amplitude contributes exactly nothing, even where its
    Tc ** 5 would overflow."""
    outputs = []
    for extra in ([], ["--drift", "0 deg_per_h_3_2, 1e100 h"]):
        run_dir = tmp_path / str(len(outputs))
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main(argv + extra) == 0
        out, err = capsys.readouterr()
        assert not err
        outputs.append((out, {p.name: p.read_bytes() for p in run_dir.iterdir()}))
    assert outputs[1] == outputs[0]


def test_zero_drift_with_huge_Tc_leaves_the_analytic_allan_curve(tmp_path, monkeypatch):
    """The Allan closed form reads the drifts the budget reads: a zero
    amplitude drift adds nothing, even where its Tc ** 3 would overflow."""
    monkeypatch.chdir(tmp_path)
    argv = ["allan", "--noise", "0.0001 deg_per_sqrt_h"]
    assert main(argv + ["--analytic-out", "bare.csv"]) == 0
    assert main(argv + ["--drift", "0 deg_per_h_3_2, 1e200 h",
                        "--analytic-out", "zero.csv"]) == 0
    assert (tmp_path / "zero.csv").read_bytes() == (tmp_path / "bare.csv").read_bytes()


def test_closed_form_commands_load_no_scipy(tmp_path):
    """import gyrofde.cli and every command that needs no sampling or dof
    band stays clear of scipy (its import dominates a cold start).  A drift
    synthesis loads lfilter's kernel alone, not scipy.signal, and the
    report's chi-square band needs scipy.special, not scipy.stats."""
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
        "    assert not scipy_modules(), (argv, scipy_modules())\n"
        "def check_drift_synthesis(argv):\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded = {'scipy.signal', 'scipy.stats', 'scipy.linalg'} & set(sys.modules)\n"
        "    assert not loaded, (argv, loaded)\n"
        "check_drift_synthesis(['allan', '--noise', '0.0001 deg_per_sqrt_h', '--drift',\n"
        "                       '0.03 deg_per_h_3_2, 0.05 h', '--trace-duration', '1 h',\n"
        "                       '--synthesize-trace', 't.csv'])\n"
        "for noise_only in (True, False):\n"
        "    drift = [] if noise_only else ['--drift', '0.01 deg_per_h_3_2, 1 h']\n"
        "    check_drift_synthesis(['simulate', '--noise', '0.005 deg_per_sqrt_h', *drift,\n"
        "                           '--duration', '0.01 h', '--groups', '2', '--flights',\n"
        "                           '3', '--out', 's.csv', '--report', 'r.json'])\n"
        "    public = [k for k in scipy_modules() if k.count('.') == 1\n"
        "              and not k.startswith(('scipy._', 'scipy.version'))]\n"
        "    assert public == ['scipy.special'], public\n")
    src = str(pathlib.Path(gyrofde.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_allan_closed_forms_load_no_numpy_ma(tmp_path):
    """np.unique imports numpy.ma; the tau grid drops repeats without it."""
    script = (
        "import sys\n"
        "from gyrofde.cli import main\n"
        "assert main(['allan', '--noise', '0.0001 deg_per_sqrt_h',\n"
        "             '--drift', '0.03 deg_per_h_3_2, 0.05 h',\n"
        "             '--analytic-out', 'a.csv', '--landmarks-out', 'l.json']) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n")
    src = str(pathlib.Path(gyrofde.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", script],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    """RFC 8259 lets a parser ignore a leading UTF-8 byte-order mark."""
    text = json.dumps(BENCHMARK).encode()
    runs = []
    for name, data in (("plain.json", text), ("bom.json", b"\xef\xbb\xbf" + text)):
        (tmp_path / name).write_bytes(data)
        rc = main(["check", "--config", str(tmp_path / name)])
        runs.append((rc, capsys.readouterr()))
    assert runs[0] == runs[1] and runs[0][1].err == ""


def _schema_cases():
    drift = {"K": "0.01 deg_per_h_3_2", "Tc": "1 h"}
    return {
        "flight-not-object": ({"flight": 3}, "flight: expected a JSON object"),
        "flight-list": ({"flight": [["v", "900 km_per_h"]]},
                        "flight: expected a JSON object"),
        "drifts-not-list": ({"drifts": drift}, "drifts: expected a JSON array"),
        "drift-not-object": ({"drifts": ["0.01 deg_per_h_3_2, 1 h"]},
                             "drifts[0]: expected a JSON object"),
        "root-not-object": ([BENCHMARK], "config root: expected a JSON object"),
        "unknown-root-key": ({**BENCHMARK, "noise": "0.5 deg_per_sqrt_h"},
                             "config root: unknown key 'noise'; "
                             "known keys: N, drifts, turn_on, flight, seed"),
        "unknown-flight-key": ({**BENCHMARK, "flight": {"duration": "10 h", "radius": "1 km"}},
                               "flight: unknown key 'radius'; known keys: v, duration, R, dt"),
        "unknown-drift-key": ({"drifts": [{**drift, "tau": "1 h"}]},
                              "drifts[0]: unknown key 'tau'; known keys: K, Tc"),
    }


@pytest.mark.parametrize("case", list(_schema_cases()))
def test_config_schema_error_exits_2_with_one_line(tmp_path, capsys, case):
    doc, message = _schema_cases()[case]
    out = tmp_path / "report.json"
    assert main(["check", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"gyrofde: error: {message}")
    assert not out.exists()


NEGATIVE = "must be finite and >= 0, got -0.017453292519943295"  # -1 deg in rad
LOG_RANGE = "expected 'lo,hi,points' with finite ends > 0 and at most 2**62 points, got"


def _bad_drift_config(N):
    return {"N": N, "drifts": [{"K": "-1 deg_per_h_3_2", "Tc": "1 h"}]}


# argv (a dict is a config file) -> the one error line: a bad N is reported
# before a bad K or Tc, and a value subnormal in its canonical unit is out of range
BAD_VALUES = {
    "analytic-noise-flag": (["analytic", "--noise", "-1 deg_per_sqrt_h"],
                            f"N: N {NEGATIVE}"),
    "config-N-and-K": (["check", "--config", _bad_drift_config("-1 deg_per_sqrt_h")],
                       f"N: N {NEGATIVE}"),
    "config-K": (["check", "--config", _bad_drift_config("1 deg_per_sqrt_h")],
                 f"drifts[0].K: K {NEGATIVE}"),
    "grid-N-and-Tc": (["grid", "--n-range=-1,-0.1,3", "--tc", "0 h"],
                      f"--n-range: {LOG_RANGE} '-1,-0.1,3'"),
    "grid-Tc": (["grid", "--n-range=0.1,1,3", "--tc", "0 h"],
                "Tc must be finite and > 0, got 0.0"),
    "grid-N-and-K": (["grid", "--n-range=-1,-0.1,3", "--k-range=-1,-0.1,3"],
                     f"--n-range: {LOG_RANGE} '-1,-0.1,3'"),
    "contour-N": (["contour", "--n-range=-1,-0.1,3"], f"--n-range: {LOG_RANGE} '-1,-0.1,3'"),
    "analytic-noise-subnormal": (
        ["analytic", "--noise", "1e-320 deg_per_sqrt_h"],
        "N: value out of numeric range in '1e-320 deg_per_sqrt_h'"),
    "fit-allan-tau-max-subnormal": (
        ["fit-allan", "--tau-max", "1e-320 s", "--sigma-max", "1 deg_per_h"],
        "--tau-max: value out of numeric range in '1e-320 s'"),
    "simulate-groups-0": (["simulate", "--groups", "0"],
                          "--groups: need at least 1 group, got 0"),
    "simulate-flights-1": (["simulate", "--flights", "1"],
                           "--flights: need 2 to 2**32 flights per group, got 1"),
    "simulate-workers-0": (["simulate", "--workers", "0"],
                           "--workers: need at least 1 worker, got 0"),
}


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_value_exits_2_with_its_line(tmp_path, capsys, case):
    argv, line = BAD_VALUES[case]
    argv = [write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"gyrofde: error: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["check", "--target", "10 s"], "--target"),
    (["grid", "--tc", "1 km"], "--tc"),
    (["contour", "--tc", "1"], "--tc"),
    (["allan", "--synthesize-trace", "t.csv", "--trace-duration", "1 km"],
     "--trace-duration"),
    (["fit-allan", "--tau-max", "1 km", "--sigma-max", "0.04 deg_per_h"], "--tau-max"),
    (["fit-allan", "--tau-max", "6804 s", "--sigma-max", "0.04 km"], "--sigma-max"),
    (["grid", "--k-range=-1e-3,1e-1,3"], "--k-range"),
    (["contour", "--n-range=1e-3,-1e-1,3"], "--n-range"),
], ids=["target", "grid-tc", "contour-tc", "trace-duration", "tau-max", "sigma-max",
        "grid-k-range-mixed-sign", "contour-n-range-mixed-sign"])
def test_quantity_flag_errors_name_the_flag(tmp_path, capsys, argv, flag):
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    if argv[0] in ("grid", "contour"):
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"gyrofde: error: {flag}: ")
    assert not any(tmp_path.iterdir())


def test_overflow_in_a_forkserver_worker_exits_2_with_one_line(tmp_path):
    """A worker started by forkserver (Python 3.14's default on Linux) does
    not inherit the caller's floating-point error state; it must raise on
    overflow as the caller does, not print warnings.  The interval map of
    this flight overflows from about 4.6e157 deg/sqrt(h); below that the
    parent builds the map and the pool, and only a worker's sums of squares
    overflow."""
    script = (
        "import concurrent.futures, multiprocessing, sys\n"
        "from gyrofde.cli import main\n"
        "class RecordingPool(concurrent.futures.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        open('pool-built', 'w').close()\n"
        "        super().__init__(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = RecordingPool\n"
        "multiprocessing.set_start_method('forkserver')\n"
        "sys.exit(main(sys.argv[1:]))\n")
    argv = ["simulate", "--noise", "1e156 deg_per_sqrt_h", "--groups", "2",
            "--flights", "2", "--duration", "0.01 h", "--workers", "2",
            "--out", "out.csv"]
    src = str(pathlib.Path(gyrofde.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", script, *argv],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert res.returncode == 2
    err = res.stderr.splitlines()
    assert err == ["gyrofde: error: input out of numeric range: "
                   "overflow encountered in multiply"], err
    assert (tmp_path / "pool-built").exists()
    assert not (tmp_path / "out.csv").exists()
