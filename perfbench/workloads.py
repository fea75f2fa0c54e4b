"""The four workloads: inputs made from the seed, one round of operations,
and the checks on what the last round wrote.

A run repeats whole rounds of the same operations, so the share of failed
operations is the same in every run.  Every round rewrites the same outputs
from the same inputs; the runner checks that each round wrote the same bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import models
from models import ALLAN, ALLAN_FLAGS, NAV, NAV_FLAGS

# Flight defaults of the CLI: 900 km/h for 10 h on a 6371 km sphere.
FLIGHT = {"R": 6371.0, "v": 900.0, "duration": 10.0}


@dataclass
class Op:
    """One operation: a CLI argv, or an API call when ``call`` is set."""

    name: str
    argv: list[str] = field(default_factory=list)
    call: Callable[[], object] | None = None
    work: int = 1
    known_fault: bool = False


def _log_uniform(rng, lo, hi) -> float:
    return float(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


class Workload:
    name = ""
    cold = False            # each op in a fresh interpreter
    outputs: list[str] = []  # files whose bytes must repeat across rounds

    def __init__(self, seed: int, outdir: str):
        self.rng = np.random.default_rng(seed)
        self.dir = outdir

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def prepare(self) -> None:
        """Untimed set-up of inputs, after gyrofde is importable."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, stdout: dict[str, str]) -> list[str]:
        raise NotImplementedError


class CliCold(Workload):
    """What a requirements engineer types, each command in a fresh
    interpreter, plus three commands that should exit 2 with one error line."""

    name = "cli-cold"
    cold = True
    outputs = ["analytic.csv", "grid.csv", "contour.csv", "allan_analytic.csv",
               "landmarks.json"]

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.fit = (float(self.rng.uniform(2000.0, 20000.0)),
                    float(self.rng.uniform(0.005, 0.05)))

    def prepare(self):
        # A fixed record with one NaN rate: seed-independent on purpose.
        with open(self.path("nan_trace.csv"), "w") as fh:
            fh.write("t_h,rate_deg_per_h\n")
            for i in range(600):
                rate = "nan" if i == 300 else repr(0.01 * math.sin(0.1 * i))
                fh.write(f"{(i + 1) / 3600!r},{rate}\n")

    def ops(self):
        tau, sig = self.fit
        return [
            Op("check", ["check", *NAV_FLAGS, "--target", "10 nmi"]),
            Op("analytic", ["analytic", *NAV_FLAGS, "--out", "analytic.csv"]),
            Op("grid", ["grid", "--out", "grid.csv"]),
            Op("contour", ["contour", "--out", "contour.csv"]),
            Op("fit-allan", ["fit-allan", "--tau-max", f"{tau!r} s",
                             "--sigma-max", f"{sig!r} deg_per_h"]),
            Op("allan", ["allan", *ALLAN_FLAGS, "--analytic-out", "allan_analytic.csv",
                         "--landmarks-out", "landmarks.json"]),
            Op("simulate-groups-0", ["simulate", "--groups", "0", "--out", "bad.csv"],
               known_fault=True),
            Op("check-negative-target", ["check", "--target", "-1 nmi"], known_fault=True),
            Op("allan-nan-trace", ["allan", "--trace", "nan_trace.csv",
                                   "--empirical-out", "nan_allan.csv"], known_fault=True),
        ]

    def check(self, stdout):
        nav = {**models.oracle_spec(NAV), **FLIGHT}
        grid_axes = {"N_deg": np.geomspace(1e-4, 1e-1, 60), "K_deg": np.geomspace(1e-3, 1e-1, 60)}
        p = checks.check_report(json.loads(stdout["check"]), {**nav, "target_nmi": 10.0})
        p += checks.budget_csv(checks.read_csv(self.path("analytic.csv")),
                               {**nav, "points": 101})
        p += checks.grid_csv(checks.read_csv(self.path("grid.csv")),
                             {**FLIGHT, **grid_axes, "Tc": 1.0, "target_nmi": 10.0})
        p += checks.contour_csv(checks.read_csv(self.path("contour.csv")),
                                {**FLIGHT, **grid_axes, "Tc": 1.0, "target_nmi": 10.0})
        p += checks.fit_from_values(json.loads(stdout["fit-allan"]), *self.fit)
        allan = models.oracle_spec(ALLAN)
        p += checks.allan_analytic_csv(checks.read_csv(self.path("allan_analytic.csv")), allan)
        with open(self.path("landmarks.json")) as fh:
            p += checks.landmarks(json.load(fh), allan)
        return p


class Maps(Workload):
    """Closed forms only: dense grids, contours and long multi-drift budgets
    at a Tc above the series cutover for most of the flight (1 h), one that
    crosses it (10 h) and one below it throughout (100 h)."""

    name = "maps"
    POINTS = 2001
    MESH = 100

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        r = self.rng
        jit = lambda: float(r.uniform(0.8, 1.25))
        self.target = float(r.uniform(8.0, 12.0))
        self.n_range = (1e-4 * jit(), 1e-1 * jit())
        self.k_range = (1e-3 * jit(), 1e-1 * jit())
        self.N = float(r.uniform(1e-3, 5e-3))
        self.K = [_log_uniform(r, 3e-3, 3e-2) for _ in range(3)]
        self.outputs = [f"{k}_{tc}.csv" for k in ("grid", "contour") for tc in (1, 100)] + \
            [f"analytic_{tc}.csv" for tc in (1, 10, 100)]

    def _drifts(self, base):
        return [(k, base * f) for k, f in zip(self.K, (1.0, 1.5, 2.5))]

    def ops(self):
        m = self.MESH
        n_arg = f"{self.n_range[0]!r},{self.n_range[1]!r},{m}"
        k_arg = f"{self.k_range[0]!r},{self.k_range[1]!r},{m}"
        target = ["--target", f"{self.target!r} nmi"]
        ops = []
        for tc in (1, 100):
            ops.append(Op(f"grid@{tc}h", ["grid", *target, "--tc", f"{tc} h", "--n-range", n_arg,
                                          "--k-range", k_arg, "--out", self.path(f"grid_{tc}.csv")],
                          work=m * m))
            ops.append(Op(f"contour@{tc}h", ["contour", *target, "--tc", f"{tc} h", "--n-range",
                                             n_arg, "--out", self.path(f"contour_{tc}.csv")],
                          work=m))
        for tc in (1, 10, 100):
            argv = ["analytic", "--noise", f"{self.N!r} deg_per_sqrt_h"]
            for k, t in self._drifts(tc):
                argv += ["--drift", f"{k!r} deg_per_h_3_2, {t!r} h"]
            argv += ["--points", str(self.POINTS), "--out", self.path(f"analytic_{tc}.csv")]
            ops.append(Op(f"analytic@{tc}h", argv, work=self.POINTS))
        return ops

    def check(self, stdout):
        axes = {"N_deg": np.geomspace(*self.n_range, self.MESH),
                "K_deg": np.geomspace(*self.k_range, self.MESH)}
        p = []
        for tc in (1, 100):
            spec = {**FLIGHT, **axes, "Tc": float(tc), "target_nmi": self.target}
            p += checks.grid_csv(checks.read_csv(self.path(f"grid_{tc}.csv")), spec)
            p += checks.contour_csv(checks.read_csv(self.path(f"contour_{tc}.csv")), spec)
        for tc in (1, 10, 100):
            spec = {**FLIGHT, "N": self.N * models.DEG, "turn_on": True, "points": self.POINTS,
                    "drifts": [(k * models.DEG, t) for k, t in self._drifts(tc)]}
            p += checks.budget_csv(checks.read_csv(self.path(f"analytic_{tc}.csv")), spec)
        return p


class Simulate(Workload):
    """The Monte-Carlo ensemble: 10 groups x 100 flights of 10 h at 1 s
    steps, serial (a 2-worker pool on 2 cores does not repeat; see README)."""

    name = "simulate"
    GROUPS, FLIGHTS = 10, 100
    outputs = ["ensemble.csv", "report.json"]

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.master = int(self.rng.integers(0, 2 ** 31))

    def _argv(self, groups, flights, workers, out, extra=()):
        return ["simulate", *NAV_FLAGS, "--seed", str(self.master), "--groups", str(groups),
                "--flights", str(flights), "--workers", str(workers),
                "--out", self.path(out), *extra]

    def ops(self):
        return [Op("simulate", self._argv(self.GROUPS, self.FLIGHTS, 1, "ensemble.csv",
                                          ("--report", self.path("report.json"))),
                   work=self.GROUPS * self.FLIGHTS)]

    def check(self, stdout):
        import gyrofde.cli as cli
        spec = {**models.oracle_spec(NAV), **FLIGHT,
                "groups": self.GROUPS, "flights": self.FLIGHTS}
        p = checks.ensemble(checks.read_csv(self.path("ensemble.csv")), spec)
        with open(self.path("report.json")) as fh:
            p += checks.comparison_report(json.load(fh), spec)
        # Worker-count invariance on a small ensemble, untimed.
        small = []
        for w in (1, 2):
            if cli.main(self._argv(3, 4, w, f"small_{w}.csv", ("--duration", "1 h"))) != 0:
                return p + [f"simulate --workers {w} on the small ensemble failed"]
            with open(self.path(f"small_{w}.csv"), "rb") as fh:
                small.append(fh.read())
        if small[0] != small[1]:
            p.append("simulate: ensemble CSV differs between 1 and 2 workers")
        return p


class AllanTrace(Workload):
    """A 24 h synthesized rate record: write, estimate, fit, and the
    estimator's confidence band."""

    name = "allan-trace"
    HOURS, DT = 24.0, 1.0 / 3600.0
    CONFIDENCE = 0.999
    outputs = ["trace.csv", "empirical.csv", "fit.json"]

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.trace_seed = int(self.rng.integers(0, 2 ** 31))
        self.band = None

    def prepare(self):
        from gyrofde import allan
        self.model = models.gyro_model(ALLAN)
        self.n = int(round(self.HOURS / self.DT))
        self.taus = allan.default_tau_grid(self.DT, self.HOURS)

    def _band(self):
        from gyrofde import allan
        self.band = allan.confidence_band(self.model, self.DT, self.n, self.taus,
                                          confidence=self.CONFIDENCE)

    def ops(self):
        return [
            Op("allan", ["allan", *ALLAN_FLAGS, "--seed", str(self.trace_seed),
                         "--trace-duration", f"{self.HOURS!r} h",
                         "--synthesize-trace", self.path("trace.csv"),
                         "--empirical-out", self.path("empirical.csv")], work=self.n),
            Op("fit-allan", ["fit-allan", "--curve", self.path("empirical.csv"),
                             "--out", self.path("fit.json")], work=0),
            Op("confidence_band", call=self._band, work=0),
        ]

    def check(self, stdout):
        from gyrofde import gyro
        spec = {**models.oracle_spec(ALLAN), "dt_s": 1.0}
        rows = checks.read_csv(self.path("trace.csv"))
        synth = gyro.synthesize_rate_trace(self.model, self.HOURS, self.DT, self.trace_seed)
        read = gyro.RateTrace.from_csv(self.path("trace.csv")).samples
        p = checks.trace_readback(rows, synth.samples, read, self.DT)
        emp = checks.read_csv(self.path("empirical.csv"))
        p += checks.empirical_curve(emp, read, spec, self.band)
        with open(self.path("fit.json")) as fh:
            p += checks.fit_from_curve(json.load(fh), emp, spec)
        return p


WORKLOADS = {w.name: w for w in (CliCold, Maps, Simulate, AllanTrace)}
