"""gyrofde benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload maps --seed 1 --seconds 18 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of the traced run.  See
README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


class Runner:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.stdout: dict[str, str] = {}
        self.digest: str | None = None
        self.problems: list[str] = []

    def setup_seconds(self) -> list[float]:
        from tracing import child_import_seconds
        return [child_import_seconds(ROOT, "", "import gyrofde.cli")
                for _ in range(SETUP_REPEATS)]

    def execute(self, op) -> bool:
        if self.wl.cold:
            res = subprocess.run([sys.executable, "-m", "gyrofde.cli", *op.argv],
                                 cwd=self.wl.dir, env=self.env, capture_output=True,
                                 text=True, timeout=120)
            self.stdout[op.name] = res.stdout
            if op.known_fault:
                lines = res.stderr.strip().splitlines()
                return res.returncode == 2 and len(lines) == 1 \
                    and lines[0].startswith("gyrofde: error")
            return res.returncode == 0
        import gyrofde.cli as cli
        try:
            if op.call is not None:
                op.call()
                return True
            return cli.main(op.argv) == 0
        except (Exception, SystemExit):
            traceback.print_exc()
            return False

    def _round_digest(self) -> str:
        h = hashlib.sha256()
        for name in self.wl.outputs:
            with open(self.wl.path(name), "rb") as fh:
                h.update(fh.read())
        for name in sorted(self.stdout):
            h.update(self.stdout[name].encode())
        return h.hexdigest()

    def loop(self, seconds: float, tracer=None) -> list[tuple]:
        """Whole rounds, started until ``seconds`` have passed."""
        ops = self.wl.ops()
        samples, rounds, start = [], 0, time.perf_counter()
        while True:
            for op in ops:
                t0 = time.perf_counter()
                if tracer is not None and self.wl.cold:
                    with tracer.span(f"cold.{op.name}"):
                        ok = self.execute(op)
                else:
                    ok = self.execute(op)
                samples.append((op, time.perf_counter() - t0, ok))
            rounds += 1
            if all(ok for op, _, ok in samples if not op.known_fault):
                digest = self._round_digest()
                if self.digest is None:
                    self.digest = digest
                elif digest != self.digest:
                    self.problems.append(f"round {rounds} wrote different outputs")
            if time.perf_counter() - start >= seconds:
                return samples

    def summary(self, samples) -> tuple[float, float]:
        """cmd_p50_s, the median over rounds of a round's mean command time,
        and work_per_s; failed known-fault commands enter neither."""
        per_round = len(self.wl.ops())
        means = []
        for i in range(0, len(samples), per_round):
            good = [dt for op, dt, ok in samples[i:i + per_round] if not op.known_fault]
            means.append(sum(good) / len(good))
        good = [(op, dt, ok) for op, dt, ok in samples if not op.known_fault]
        work = sum(op.work for op, _, ok in good if ok)
        return statistics.median(means), work / sum(dt for _, dt, _ in good)

    def run(self) -> dict:
        setup = self.setup_seconds()
        if not self.wl.cold or self.trace:
            import gyrofde.cli  # noqa: F401  (the one in-process import)
        self.wl.prepare()
        if self.trace:
            metrics, samples = self.traced(setup)
        else:
            samples = self.loop(self.seconds)
            who = resource.RUSAGE_CHILDREN if self.wl.cold else resource.RUSAGE_SELF
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            p50, rate = self.summary(samples)
            metrics = {"setup_s": (statistics.median(setup), "s"), "cmd_p50_s": (p50, "s"),
                       "work_per_s": (rate, "1/s"), "peak_rss_mb": (rss_mb, "MB")}
        failed = sum(not ok for _, _, ok in samples)
        good_failed = any(not ok for op, _, ok in samples if not op.known_fault)
        if not good_failed:
            self.problems += self.wl.check(self.stdout)
        for p in self.problems:
            print(f"perfbench: check failed: {p}", file=sys.stderr)
        print(f"perfbench: {self.wl.name}: {len(samples)} operations, {failed} failed",
              file=sys.stderr)
        return {"correct": not self.problems, "attempted": len(samples), "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    def traced(self, setup):
        """Untraced then traced halves of the workload (their difference is
        the tracing overhead), then the layer probes under the same spans."""
        from tracing import Instrumentation, Probes, Tracer
        plain = self.loop(self.seconds / 2)
        tracer = Tracer()
        inst = Instrumentation(tracer)
        inst.install()
        try:
            traced = self.loop(self.seconds / 2, tracer)
            probe_dir = os.path.join(self.wl.dir, "probes")
            os.mkdir(probe_dir)
            metrics = Probes(tracer, ROOT, probe_dir).run(setup)
        finally:
            inst.remove()
        overhead = 100.0 * (self.summary(traced)[0] / self.summary(plain)[0] - 1.0)
        metrics["trace.overhead_pct"] = (overhead, "%")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        tracer.write(os.path.join(os.path.dirname(self.wl.dir),
                                  f"spans-{self.wl.name}-s{self.seed}.json"))
        return metrics, plain + traced


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gyrofde", "cli.py")):
        print(f"perfbench: no gyrofde sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    runs = os.path.join(ROOT, "perfbench", "runs")
    outdir = os.path.join(runs, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(outdir)
    try:
        result = Runner(WORKLOADS[args.workload](args.seed, outdir), args.seed,
                        args.seconds, bool(args.trace)).run()
    finally:
        shutil.rmtree(outdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
