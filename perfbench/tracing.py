"""Spans around calls into gyrofde's public functions, and the per-layer
probes that the traced run derives its metrics from.

Spans are recorded from the benchmark's side only: ``Instrumentation``
replaces public functions and methods with wrappers that open a span (or
bump a count in the innermost open span) and restores them afterwards.  The
program itself is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from models import ALLAN, ALLAN_FLAGS, NAV, NAV_FLAGS, gyro_model


class Tracer:
    """Spans (name, start, end, parent index, counts), kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str) -> None:
        if self._stack:
            counts = self.spans[self._stack[-1]][4]
            counts[name] = counts.get(name, 0) + 1

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path) -> None:
        selfs = self.self_times()
        doc = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                "self_s": st, "counts": s[4]} for s, st in zip(self.spans, selfs)]
        with open(path, "w") as fh:
            json.dump(doc, fh)


# Public calls that get a span, by module, and methods by (module, class).
SPANNED = {
    "gyrofde.cli": ["build_parser", "load_config"],
    "gyrofde.units": ["parse_quantity"],
    "gyrofde.budget": ["budget_series_to_csv"],
    "gyrofde.tradestudy": ["fde_grid", "solve_K_contour", "solve_K", "grid_to_csv",
                           "check_requirement", "compliance_to_json"],
    "gyrofde.gyro": ["synthesize_rate_trace"],
    "gyrofde.montecarlo": ["run_ensemble", "simulate_flight", "compare_to_analytic"],
    "gyrofde.allan": ["allan_variance_analytic", "allan_variance_empirical",
                      "allan_landmarks_analytic", "default_tau_grid", "identify_from_max",
                      "estimator_dof", "confidence_band", "landmarks_to_json"],
}
METHODS = [("gyrofde.gyro", "RateTrace", "to_csv"), ("gyrofde.gyro", "RateTrace", "from_csv"),
           ("gyrofde.montecarlo", "EnsembleStats", "to_csv"),
           ("gyrofde.montecarlo", "ComparisonReport", "to_json"),
           ("gyrofde.allan", "AllanCurve", "to_csv"),
           ("gyrofde.tradestudy", "ContourResult", "to_csv")]
# Hot public calls that only bump a count: a span each would cost more than
# the call.
COUNTED = {"gyrofde.tradestudy": ["fde95_of"], "gyrofde.budget": ["fde_sigma"]}


class Instrumentation:
    """Installs span and count wrappers on gyrofde; ``remove`` restores."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == "gyrofde" or n.startswith("gyrofde.")}
        tr = self.tracer
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, names in table.items():
                short = mod.split(".")[1]
                for name in names:
                    orig = getattr(mods[mod], name)
                    self._replace_everywhere(mods, orig, make(orig, f"{short}.{name}"))
        cli = mods["gyrofde.cli"]
        main = cli.main

        @functools.wraps(main)
        def traced_main(argv=None):
            with tr.span(f"cli.cmd.{argv[0]}"):
                return main(argv)
        self._set(cli, "main", traced_main)
        for mod, cls_name, meth in METHODS:
            cls = getattr(mods[mod], cls_name)
            raw = cls.__dict__[meth]
            name = f"{mod.split('.')[1]}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self._spanned(raw.__func__, name)))
            else:
                self._set(cls, meth, self._spanned(raw, name))

    def remove(self) -> None:
        for ns, name, orig in reversed(self._undo):
            setattr(ns, name, orig)
        self._undo.clear()

    def _set(self, ns, name, value) -> None:
        self._undo.append((ns, name, ns.__dict__[name]))
        setattr(ns, name, value)

    def _replace_everywhere(self, mods, orig, wrapper) -> None:
        # Modules import each other's functions by name; wrap every binding.
        for m in mods.values():
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self._set(m, attr, wrapper)

    def _spanned(self, fn, name):
        tr = self.tracer

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            with tr.span(name):
                return fn(*a, **kw)
        return wrapper

    def _counted(self, fn, name):
        count = self.tracer.count

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            count(name)
            return fn(*a, **kw)
        return wrapper


def child_import_seconds(root: str, before: str, timed: str) -> float:
    """Seconds a fresh interpreter takes to run ``timed`` after ``before``."""
    code = (f"{before}\nimport time\nt = time.perf_counter()\n{timed}\n"
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _unwrap(fn):
    return getattr(fn, "__wrapped__", fn)


def _per_call(tr: Tracer, name: str, fn, n: int) -> float:
    with tr.span(name) as s:
        for _ in range(n):
            fn()
    return (s[2] - s[1]) / n


class Probes:
    """The fixed set of layer probes behind every per-layer metric.

    They are the same on every workload, so a per-layer figure means one
    thing wherever it is reported.  Sizes are stated in the README.
    """

    def __init__(self, tr: Tracer, root: str, workdir: str):
        self.tr, self.root, self.dir = tr, root, workdir
        self.metrics: dict[str, tuple[float, str]] = {}

    def _put(self, name, value, unit) -> None:
        self.metrics[name] = (float(value), unit)

    def _spans(self, start: int, name: str) -> list[list]:
        return [s for s in self.tr.spans[start:] if s[0] == name]

    def _last(self, start: int, name: str) -> float:
        s = self._spans(start, name)[-1]
        return s[2] - s[1]

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def run(self, setup_samples: list[float]) -> dict:
        self.imports(setup_samples)
        self.cli()
        self.kernels()
        self.maps()
        self.gyro()
        self.montecarlo()
        self.allan()
        self.commands()
        return self.metrics

    def imports(self, setup_samples) -> None:
        self._put("cli.import_s", statistics.median(setup_samples), "s")
        self._put("cli.import_numpy_s", child_import_seconds(self.root, "", "import numpy"), "s")
        self._put("cli.import_scipy_s", child_import_seconds(
            self.root, "import numpy",
            "import scipy.signal, scipy.optimize, scipy.stats"), "s")

    def cli(self) -> None:
        import gyrofde.cli as cli
        from workloads import CliCold
        tr = self.tr
        times = []
        for argv in (op.argv for op in CliCold(0, self.dir).ops() if not op.known_fault):
            for _ in range(5):
                with tr.span("cli.parse_args") as s:
                    cli.build_parser().parse_args(argv)
                times.append(s[2] - s[1])
        self._put("cli.parse_args_ms", 1e3 * statistics.median(times), "ms")
        path = self._path("nav.json")
        with open(path, "w") as fh:
            json.dump({"N": "0.005 deg_per_sqrt_h",
                       "drifts": [{"K": "0.01 deg_per_h_3_2", "Tc": "1 h"}],
                       "flight": {"v": "900 km_per_h", "duration": "10 h"}, "seed": 1}, fh)
        args = cli.build_parser().parse_args(["analytic", "--out", "-"])
        start = len(tr.spans)
        for _ in range(20):
            cli.load_config(path, args)
        self._put("cli.load_config_ms", 1e3 * statistics.median(
            s[2] - s[1] for s in self._spans(start, "cli.load_config")), "ms")

    def kernels(self) -> None:
        from gyrofde import _series, budget, units
        from gyrofde.gyro import GyroErrorModel
        tr = self.tr
        # probed unwrapped, so one span covers many calls
        pq = _unwrap(units.parse_quantity)
        self._put("units.parse_quantity_us", 1e6 * _per_call(
            tr, "units.parse_quantity.loop", lambda: pq("0.005 deg_per_sqrt_h", "arw"), 2000), "us")
        for fn in ("atrk_inflight_shape", "xtrk_inflight_shape", "xminus_em"):
            f = getattr(_series, fn)
            for size, x in (("small", 0.3), ("large", 2.0)):
                self._put(f"series.{fn}_{size}_us", 1e6 * _per_call(
                    tr, f"series.{fn}.loop", lambda: f(x), 2000), "us")
        p = budget.FlightProfile()
        fs = _unwrap(budget.fde_sigma)
        for name, Tc in (("budget.fde_sigma_us", 1.0), ("budget.fde_sigma_series_us", 100.0)):
            m = GyroErrorModel.from_deg(0.005, ((0.01, Tc),))
            self._put(name, 1e6 * _per_call(tr, "budget.fde_sigma.loop",
                                            lambda: fs(m, p, 10.0), 2000), "us")
        m = GyroErrorModel.from_deg(0.003, ((0.01, 1.0), (0.005, 1.5), (0.02, 2.5)))
        start = len(tr.spans)
        budget.budget_series_to_csv(self._path("budget.csv"), m, p, np.linspace(0, 10, 2001))
        self._put("budget.series_csv_ms",
                  1e3 * self._last(start, "budget.budget_series_to_csv"), "ms")

    def maps(self) -> None:
        from gyrofde import tradestudy as ts
        from gyrofde.units import DEG
        tr = self.tr
        r = ts.RequirementTarget()
        N = np.geomspace(1e-4, 1e-1, 60) * DEG
        K = np.geomspace(1e-3, 1e-1, 60) * DEG
        start = len(tr.spans)
        grid = ts.fde_grid(N, K, 1.0, r)
        ts.grid_to_csv(self._path("grid.csv"), N, K, grid)
        ts.solve_K_contour(N, 1.0, r)
        self._put("tradestudy.fde_grid_cells_per_s",
                  grid.size / self._last(start, "tradestudy.fde_grid"), "1/s")
        self._put("tradestudy.grid_csv_rows_per_s",
                  grid.size / self._last(start, "tradestudy.grid_to_csv"), "1/s")
        self._put("tradestudy.contour_points_per_s",
                  len(N) / self._last(start, "tradestudy.solve_K_contour"), "1/s")
        solves = self._spans(start, "tradestudy.solve_K")
        self._put("tradestudy.solve_K_ms",
                  1e3 * statistics.median(s[2] - s[1] for s in solves), "ms")
        self._put("tradestudy.fde95_calls_per_solve", statistics.mean(
            s[4].get("tradestudy.fde95_of", 0) for s in solves), "count")

    def gyro(self) -> None:
        from gyrofde import gyro
        tr = self.tr
        sub = _unwrap(gyro.substream)
        self._put("gyro.substream_us", 1e6 * _per_call(
            tr, "gyro.substream.loop", lambda: sub(12345, 3, 7, 0, 1), 1000), "us")
        n = 86400
        for kind, model in (("noise", gyro.GyroErrorModel.from_deg(0.005)),
                            ("drift", gyro.GyroErrorModel.from_deg(0.0, ((0.01, 1.0),)))):
            start = len(tr.spans)
            gyro.synthesize_rate_trace(model, 24.0, 1 / 3600, 7)
            self._put(f"gyro.synth_{kind}_samples_per_s",
                      n / self._last(start, "gyro.synthesize_rate_trace"), "1/s")
        trace = gyro.synthesize_rate_trace(gyro_model(ALLAN), 24.0, 1 / 3600, 7)
        path = self._path("trace.csv")
        start = len(tr.spans)
        trace.to_csv(path)
        gyro.RateTrace.from_csv(path)
        self._put("gyro.trace_write_rows_per_s", n / self._last(start, "gyro.RateTrace.to_csv"), "1/s")
        self._put("gyro.trace_read_rows_per_s", n / self._last(start, "gyro.RateTrace.from_csv"), "1/s")
        self._put("gyro.trace_csv_bytes", os.path.getsize(path), "B")

    def montecarlo(self) -> None:
        from gyrofde import montecarlo as mc
        from gyrofde.budget import FlightProfile
        from gyrofde.gyro import GyroErrorModel
        tr = self.tr
        m, p = gyro_model(NAV), FlightProfile()
        start = len(tr.spans)
        for i in range(10):
            mc.simulate_flight(m, p, i)
        self._put("montecarlo.flight_ms", 1e3 * statistics.median(
            s[2] - s[1] for s in self._spans(start, "montecarlo.simulate_flight")), "ms")
        workers = len(os.sched_getaffinity(0))
        for name, w in (("serial", 1), ("pool", workers)):
            start = len(tr.spans)
            stats = mc.run_ensemble(m, p, 25, 4, 11, stat_stride=900, n_workers=w)
            self._put(f"montecarlo.ensemble_{name}_s", self._last(start, "montecarlo.run_ensemble"), "s")
        start = len(tr.spans)
        mc.compare_to_analytic(stats, m, p)
        stats.to_csv(self._path("ensemble.csv"))
        self._put("montecarlo.compare_ms", 1e3 * self._last(start, "montecarlo.compare_to_analytic"), "ms")
        self._put("montecarlo.ensemble_csv_ms",
                  1e3 * self._last(start, "montecarlo.EnsembleStats.to_csv"), "ms")

    def allan(self) -> None:
        from gyrofde import allan, gyro
        tr = self.tr
        dt, n = 1 / 3600, 86400
        m = gyro_model(ALLAN)
        trace = gyro.synthesize_rate_trace(m, 24.0, dt, 7)
        start = len(tr.spans)
        taus = allan.default_tau_grid(dt, 24.0)
        curve = allan.allan_variance_empirical(trace, taus)
        allan.confidence_band(m, dt, n, taus)
        curve.to_csv(self._path("allan.csv"))
        allan.allan_landmarks_analytic(m)
        self._put("allan.empirical_samples_per_s",
                  n / self._last(start, "allan.allan_variance_empirical"), "1/s")
        self._put("allan.confidence_band_s", self._last(start, "allan.confidence_band"), "s")
        self._put("allan.curve_csv_ms", 1e3 * self._last(start, "allan.AllanCurve.to_csv"), "ms")
        self._put("allan.landmarks_ms", 1e3 * self._last(start, "allan.allan_landmarks_analytic"), "ms")
        small = allan.default_tau_grid(dt, 10.0)
        start = len(tr.spans)
        for _ in range(20):
            allan.allan_variance_analytic(m, small)
        self._put("allan.analytic_us_per_tau", 1e6 * statistics.median(
            s[2] - s[1] for s in self._spans(start, "allan.allan_variance_analytic")) / len(small), "us")

    def commands(self) -> None:
        import gyrofde.cli as cli
        nav = NAV_FLAGS
        out = self._path
        argvs = [
            ["analytic", *nav, "--out", out("c_analytic.csv")],
            ["grid", "--out", out("c_grid.csv")],
            ["contour", "--out", out("c_contour.csv")],
            ["check", *nav, "--out", out("c_check.json")],
            ["fit-allan", "--tau-max", "6804 s", "--sigma-max", "0.0414 deg_per_h",
             "--out", out("c_fit.json")],
            ["allan", *ALLAN_FLAGS, "--seed", "7", "--trace-duration", "24 h",
             "--synthesize-trace", out("c_trace.csv"), "--empirical-out", out("c_emp.csv"),
             "--analytic-out", out("c_ana.csv"), "--landmarks-out", out("c_lm.json")],
            ["simulate", *nav, "--groups", "2", "--flights", "10", "--workers", "1",
             "--seed", "3", "--out", out("c_ens.csv"), "--report", out("c_rep.json")],
        ]
        for argv in argvs:
            start = len(self.tr.spans)
            if cli.main(argv) != 0:
                raise RuntimeError(f"probe command failed: {argv}")
            self._put(f"cli.cmd.{argv[0]}_s", self._last(start, f"cli.cmd.{argv[0]}"), "s")
