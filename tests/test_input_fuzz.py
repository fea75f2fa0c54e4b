"""Fuzz the input boundary: random configs, CSV bodies and argv through
main(), in process.  Whatever the input, main returns 0, 1 (a failed ``check`` only) or
2; exit 2 prints exactly one ``gyrofde: `` line on stderr and leaves no
output file; nothing warns."""

import contextlib
import io
import json
import pathlib
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from gyrofde.cli import main
from gyrofde.units import KNOWN_UNITS

# derandomized, so that every run of the suite tries the same inputs
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

# a strategy listed n times in one_of is drawn about n times as often
usual = st.sampled_from([1e-3, 0.01, 0.5, 1.0, 10.0, 900.0])
numbers = st.one_of(usual, usual, st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 0.0]),
                    st.floats(allow_nan=False, allow_infinity=False))
junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _quantity(units):
    return st.builds("{!r} {}".format, numbers, st.sampled_from(sorted(units)))


def _config(loose):
    """A config tree with '<number> <unit>' values in the right units; when
    ``loose``, any value may have a wrong unit or type, and any object may
    hold an unknown key or be junk."""
    def value(*units):
        right = _quantity(units)
        return st.one_of(right, right, right, _quantity(KNOWN_UNITS), junk) if loose else right

    def node(required=False, **values):
        known = (st.fixed_dictionaries(values) if required
                 else st.fixed_dictionaries({}, optional=values))
        unknown = st.builds(lambda d, k, v: {**d, k: v}, known,
                            st.sampled_from(["noise", "tc", "speed", ""]), junk)
        return st.one_of(known, known, known, unknown, junk) if loose else known

    def typed(strategy):
        return strategy | junk if loose else strategy

    drift = node(True, K=value("deg_per_h_3_2"), Tc=value("h", "s"))
    flight = node(v=value("km_per_h"), duration=value("h", "s"),
                  R=value("km"), dt=value("h", "s"))
    return node(N=value("deg_per_sqrt_h"), drifts=typed(st.lists(drift, max_size=3)),
                turn_on=typed(st.booleans()), flight=flight,
                seed=typed(st.integers(0, 2 ** 64)))


def _run(tmp, argv, outputs):
    """main(argv) under the boundary's contract; ``outputs`` are the files
    the run may write."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    allowed = {0, 1, 2} if argv[0] == "check" else {0, 2}
    assert code in allowed, (argv, code, err.getvalue())
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("gyrofde: "), lines
        assert not any((tmp / name).exists() for name in outputs)
    else:
        assert lines == []


def _run_config(body: bytes, command):
    """``command`` on a config file of ``body``, under the ``_run`` contract."""
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        (tmp / "c.json").write_bytes(body)
        argv = [command, "--config", str(tmp / "c.json"), "--out", str(tmp / "o")]
        if command == "analytic":
            argv += ["--points", "3"]
        _run(tmp, argv, ["o"])


CONFIG_COMMANDS = st.sampled_from(["check", "analytic"])


@FUZZ
@given(doc=st.one_of(_config(False), _config(True)), command=CONFIG_COMMANDS)
def test_random_config_trees(doc, command):
    _run_config(json.dumps(doc).encode(), command)


# Config files that are not JSON text: random bytes, a JSON document cut
# short, and a run of '[' (closed or not) around and far past the nesting
# that the parser can recurse into
raw_configs = st.one_of(
    st.binary(max_size=40),
    st.builds(lambda doc, cut: json.dumps(doc).encode()[:cut],
              _config(True), st.integers(0, 120)),
    st.builds(lambda n, closed: b"[" * n + b"]" * (n * closed),
              st.sampled_from([1, 10, 900, 1000, 5000, 100_000]) | st.integers(1, 3000),
              st.booleans()))


@FUZZ
@given(body=raw_configs, command=CONFIG_COMMANDS)
def test_raw_config_bytes(body, command):
    _run_config(body, command)


cell = st.one_of(
    numbers.map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "abc", "1e400", "#", " 1"]))
row = st.one_of(st.tuples(cell, cell).map(",".join), cell,
                st.sampled_from(["", "# comment", "1,2,3"]))


@st.composite
def _body(draw, first_column):
    """Rows with a well-formed first column and a numeric second, maybe with
    one random row put in; or random rows only."""
    shape = draw(st.sampled_from(["clean", "clean", "one random row", "random rows"]))
    if shape == "random rows":
        return draw(st.lists(row, max_size=12))
    rows = [f"{a!r},{draw(numbers)!r}" for a in draw(first_column)]
    if shape == "one random row":
        rows.insert(draw(st.integers(0, len(rows))), draw(row))
    return rows


@st.composite
def _timestamps(draw):
    dt = draw(st.sampled_from([1 / 3600, 0.01, 1.0, 1e300, 1e-300]))
    return [(i + 1) * dt for i in range(draw(st.integers(10, 40) | st.integers(1, 9)))]


_taus = st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=12).map(
    lambda taus: sorted(set(taus)))
CSV_CASES = {  # command: (header it reads, a body for it, argv after the path)
    "allan": ("t_h,rate_deg_per_h", _body(_timestamps()),
              lambda tmp: ["--empirical-out", str(tmp / "out")]),
    "fit-allan": ("tau_s,sigma_deg_per_h", _body(_taus),
                  lambda tmp: ["--out", str(tmp / "out")]),
}


@FUZZ
@given(data=st.data(), command=st.sampled_from(sorted(CSV_CASES)))
def test_random_csv_bodies(data, command):
    header, body, outputs = CSV_CASES[command]
    if data.draw(st.sampled_from(["right header"] * 3 + ["any header"])) != "right header":
        header = data.draw(st.sampled_from(
            ["t_h,rate_deg_per_h", "tau_s,sigma_deg_per_h", "", "# c"]))
    lines = [header, *data.draw(body)]
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        (tmp / "in.csv").write_text("".join(line + "\n" for line in lines))
        flag = "--trace" if command == "allan" else "--curve"
        _run(tmp, [command, flag, str(tmp / "in.csv"), *outputs(tmp)], ["out"])


def _mostly(right, *wrong):
    """``right`` four times in five, else one of ``wrong``."""
    return st.one_of(right, right, right, right, st.one_of(*wrong))


# Integer flags at small and extreme values.  numpy refuses at once to
# allocate 10**15 samples, and 2**63 is past its index type; a count in
# between would allocate real memory, so no draw below asks for one.
counts = st.sampled_from([-1, 0, 1, 2, 3, 2 ** 63, 10 ** 15])
few = _mostly(st.sampled_from([2, 3]), st.sampled_from([-1, 0, 1]))


def _flag_value(*units):
    return _mostly(_quantity(units), _quantity(KNOWN_UNITS),
                   st.sampled_from(["", "abc", "1", "nan h", "1 km_per_h h"]))


# A sampling command (simulate, allan --synthesize-trace) always gets one of
# these durations and steps: at most 3600 steps, or at least 1e300, which
# numpy refuses at once.
SHORT = _mostly(st.sampled_from(["0.01 h", "36 s", "1 s"]),
                st.sampled_from(["0 h", "-1 h", "1e-300 h", "1e300 h"]))
STEP = _mostly(st.sampled_from(["1 s", "0.5 s", "36 s"]),
               st.sampled_from(["1 h", "0 s", "-1 s", "1e-300 s", "1e300 h"]))


# The flag groups, each given only to the commands that read its keys.  A
# sampling command (simulate, allan) takes --duration as a required flag.
_drift = _mostly(st.builds("{}, {}".format, _flag_value("deg_per_h_3_2"),
                           _flag_value("h", "s")),
                 _flag_value("h"))
MODEL = {"--noise": _flag_value("deg_per_sqrt_h"),
         "--drift": st.lists(_drift, min_size=1, max_size=3),
         "--turn-on": st.none(), "--no-turn-on": st.none()}
FLIGHT = {"--v": _flag_value("km_per_h"), "--radius": _flag_value("km")}
SAMPLING = {"--dt": STEP, "--seed": counts}
DURATION = {"--duration": _flag_value("h", "s")}


def _range():
    bound = _mostly(usual.map(repr), numbers.map(repr), st.sampled_from(["nan", "inf", "x"]))
    return st.builds("{},{},{}".format, bound, bound, counts)


TARGET = {"--target": _flag_value("nmi", "km")}
TC = {"--tc": _flag_value("h", "s")}
ARGV_CASES = {  # command: (required flags, optional flags, files it may write)
    "analytic": ({"--out": st.just("o")},
                 {**MODEL, **FLIGHT, **DURATION, "--points": counts}, ["o"]),
    "simulate": ({"--out": st.just("o"), "--duration": SHORT, "--groups": few,
                  "--flights": few},
                 {**MODEL, **FLIGHT, **SAMPLING, "--stat-stride": counts,
                  "--workers": few.filter(lambda n: n <= 2), "--report": st.just("r")},
                 ["o", "r"]),
    "allan": ({"--duration": SHORT, "--trace-duration": SHORT,
               "--analytic-out": st.just("a")},
              {**MODEL, **SAMPLING, "--synthesize-trace": st.just("t"),
               "--empirical-out": st.just("e"), "--landmarks-out": st.just("l")},
              ["t", "a", "e", "l"]),
    "fit-allan": ({}, {"--tau-max": _flag_value("s", "h"),
                       "--sigma-max": _flag_value("deg_per_h"), "--out": st.just("o")},
                  ["o"]),
    "grid": ({"--out": st.just("o")},
             {**FLIGHT, **DURATION, **TARGET, **TC, "--n-range": _range(),
              "--k-range": _range()}, ["o"]),
    "contour": ({"--out": st.just("o")},
                {**FLIGHT, **DURATION, **TARGET, **TC, "--n-range": _range()}, ["o"]),
    "check": ({}, {**MODEL, **FLIGHT, **DURATION, **TARGET, "--out": st.just("o")}, ["o"]),
}


@settings(FUZZ, max_examples=300)
@given(data=st.data(), command=st.sampled_from(sorted(ARGV_CASES)))
def test_random_argv(data, command):
    """Random flags of each command's own groups, each as ``--flag=value``;
    --turn-on with --no-turn-on is an argv error like any other."""
    required, optional, outputs = ARGV_CASES[command]
    flags = data.draw(st.fixed_dictionaries(required, optional=optional))
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        argv = [command]
        for flag, value in flags.items():
            for v in value if isinstance(value, list) else [value]:
                if v in outputs:
                    v = str(tmp / v)
                argv.append(flag if v is None else f"{flag}={v}")
        _run(tmp, argv, outputs)
