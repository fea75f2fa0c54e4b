"""Every output of a small fixed set of CLI runs keeps its bytes.

The sha256 digests below pin the artifact contract: the CSV and JSON bytes
of each command for a fixed config and seed, ``check``'s stdout included,
and ``simulate``'s at one and two workers alike.  A refactor that means to
keep every artifact must leave this file unchanged.

The digests were taken with numpy 2.4.6 and scipy 1.17.1.  Another numpy may
draw other normals or print other digits, and another scipy may round the
chi-square band differently; re-take them only once such a change is traced
to the library.
"""

import hashlib
import json

import pytest

from gyrofde.cli import main

CONFIG = {
    "N": "0.005 deg_per_sqrt_h",
    "drifts": [{"K": "0.01 deg_per_h_3_2", "Tc": "1 h"}],
    "flight": {"v": "900 km_per_h", "duration": "10 h"},
    "seed": 7,
}

# name -> (argv, its output files, the exit code); "{cfg}" is the config file
RUNS = {
    "analytic": (["analytic", "--config", "{cfg}", "--drift", "0.01 deg_per_h_3_2, 1 h",
                  "--drift", "0.004 deg_per_h_3_2, 3 h", "--points", "41",
                  "--out", "analytic.csv"], ["analytic.csv"], 0),
    "grid": (["grid", "--n-range", "1e-4,1e-1,10", "--k-range", "1e-3,1e-1,10",
              "--out", "grid.csv"], ["grid.csv"], 0),
    "contour": (["contour", "--n-range", "1e-4,1e-1,10", "--out", "contour.csv"],
                ["contour.csv"], 0),
    "check": (["check", "--config", "{cfg}", "--out", "check.json"], ["check.json"], 0),
    "check-stdout": (["check", "--config", "{cfg}"], [], 0),
    "check-fail": (["check", "--noise", "0.05 deg_per_sqrt_h", "--out", "fail.json"],
                   ["fail.json"], 1),
    "fit-allan": (["fit-allan", "--tau-max", "6804 s", "--sigma-max", "0.04 deg_per_h",
                   "--out", "fit.json"], ["fit.json"], 0),
    # a model whose Allan curve has both landmarks
    "allan": (["allan", "--config", "{cfg}", "--noise", "5e-4 deg_per_sqrt_h",
               "--drift", "0.03 deg_per_h_3_2, 10 h", "--synthesize-trace", "trace.csv",
               "--trace-duration", "2 h", "--analytic-out", "analytic_allan.csv",
               "--empirical-out", "empirical_allan.csv",
               "--landmarks-out", "landmarks.json"],
              ["trace.csv", "analytic_allan.csv", "empirical_allan.csv",
               "landmarks.json"], 0),
    **{f"simulate-workers-{w}": (
        ["simulate", "--config", "{cfg}", "--duration", "1 h", "--groups", "3",
         "--flights", "4", "--workers", str(w), "--out", "ensemble.csv",
         "--report", "report.json"], ["ensemble.csv", "report.json"], 0)
       for w in (1, 2)},
}

DIGESTS = {
    "analytic": {
        "analytic.csv":
            "76eb92724606ee1ce42ed39c8627460a837dbb768e824b6646ac5834b4722672",
    },
    "grid": {
        "grid.csv":
            "a272379dbbcc120ac6fb99bda25a764cf46a417f2cde0643f02da25a144ae9e8",
    },
    "contour": {
        "contour.csv":
            "d3949399e7f9aaabd2d844d4935e5933fabd585a20ba53a40bea9015e08b385c",
    },
    "check": {
        "check.json":
            "3ded576474870951edfaac7212c4a726ee064ecaf175d7388976c514081f8617",
    },
    "check-stdout": {
        "stdout":
            "e972586600962592778f81cf5be08a2d4e0c4397e6029fe32000e69b8134666d",
    },
    "check-fail": {
        "fail.json":
            "05fa0a2440d6c4b6509eaca9d0e981f08b3754ac4af5107580e9fa31dcbb998f",
    },
    "fit-allan": {
        "fit.json":
            "9a3b52ee3042513b547b70b63e03d975cf33740eec8af5c77b010e352fe889b0",
    },
    "allan": {
        "trace.csv":
            "d80fd959e964569ced7f9b4da93b96d30853164560986babccc735bf41152437",
        "analytic_allan.csv":
            "203ae6ba608e6a1c283afab32a96840901e45c42e0aae03787ae99fc5e7d07cf",
        "empirical_allan.csv":
            "8a05ee5812355eb6955c512e450f5668feb0455f995cbb001badaeb0da8cf484",
        "landmarks.json":
            "78fdabf6d386cb5216fafb30ccc340e95541902bd365dc313c3b1cc5f81f9b14",
    },
    "simulate-workers-1": {
        "ensemble.csv":
            "a0a9a183f05257cf33e9523d026dd155a8eb07cbdf665c24f0fc9ae39b58d17b",
        "report.json":
            "24d86c7cfec8c42ca48e20eb124894506081b6b9f0fc34f6382653d379ef946d",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(tmp_path, capsys, name) -> dict:
    """The digest of each output of run ``name``, and of its stdout."""
    argv, outs, rc = RUNS[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    run_dir = tmp_path / name
    run_dir.mkdir()
    argv = [str(cfg) if a == "{cfg}" else
            str(run_dir / a) if a.endswith((".csv", ".json")) else a for a in argv]
    capsys.readouterr()
    assert main(argv) == rc
    captured = capsys.readouterr()
    assert captured.err == ""
    digests = {out: _sha((run_dir / out).read_bytes()) for out in outs}
    if captured.out:
        digests["stdout"] = _sha(captured.out.encode())
    return digests


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_keep_their_bytes(tmp_path, capsys, name):
    want = DIGESTS[name.replace("-workers-2", "-workers-1")]
    assert _run(tmp_path, capsys, name) == want
