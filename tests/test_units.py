import math
import re
import sys
from pathlib import Path

import pytest

from gyrofde.units import KNOWN_UNITS, UnitError, parse_quantity

# Each tag's dimension and the canonical value of one of it, written out here
# apart from the module's table so that a slip in either shows.
SCALES = {
    "rad_per_h": ("rate", 1.0),
    "deg_per_h": ("rate", math.pi / 180.0),
    "rad_per_sqrt_h": ("arw", 1.0),
    "deg_per_sqrt_h": ("arw", math.pi / 180.0),
    "deg_per_h_per_sqrt_hz": ("arw", math.pi / 180.0 / 60.0),
    "rad_per_h_3_2": ("rrw", 1.0),
    "deg_per_h_3_2": ("rrw", math.pi / 180.0),
    "h": ("time", 1.0),
    "s": ("time", 1.0 / 3600.0),
    "km": ("length", 1.0),
    "nmi": ("length", 1.852),
    "km_per_h": ("speed", 1.0),
}
DIMENSIONS = sorted({dimension for dimension, _ in SCALES.values()})


def test_arw_bandwidth_convention():
    # 0.03 (deg/h)/sqrt(Hz) reads as the 1-s ordinate: /60 in deg/sqrt(h)
    N = parse_quantity("0.03 deg_per_h_per_sqrt_hz", "arw")
    assert N == pytest.approx(5.0e-4 * math.pi / 180.0, rel=1e-12)


def test_nautical_mile_definition():
    assert parse_quantity("10 nmi", "length") == pytest.approx(18.52, rel=1e-12)


def test_rrw_deg_to_rad():
    K = parse_quantity("0.01 deg_per_h_3_2", "rrw")
    assert K == pytest.approx(1.7453e-4, rel=1e-4)
    assert K == pytest.approx(0.01 * math.pi / 180.0, rel=1e-15)


def test_second_to_hour():
    assert parse_quantity("3600 s", "time") == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("tag", sorted(KNOWN_UNITS | SCALES.keys()))
def test_every_tag_reads_its_scale_in_its_dimension_only(tag):
    dimension, scale = SCALES[tag]
    assert parse_quantity(f"1 {tag}", dimension).hex() == scale.hex()
    for other in DIMENSIONS:
        if other != dimension:
            with pytest.raises(UnitError) as exc:
                parse_quantity(f"1 {tag}", other)
            assert other in str(exc.value) and dimension in str(exc.value)


def test_incompatible_dimensions_error_names_both_units():
    with pytest.raises(UnitError) as exc:
        parse_quantity("1 nmi", "rate")
    assert str(exc.value) == "expected a rate quantity, got 'nmi' (length)"


def test_unknown_tag_rejected():
    with pytest.raises(UnitError, match="furlong") as exc:
        parse_quantity("1 furlong", "length")
    assert str(exc.value).endswith(", ".join(sorted(KNOWN_UNITS)))


def test_parse_quantity():
    assert parse_quantity("0.005 deg_per_sqrt_h", "arw") == 0.005 * (math.pi / 180.0)
    assert parse_quantity("1 s", "time") == pytest.approx(1 / 3600)
    assert parse_quantity("0 deg_per_sqrt_h", "arw") == 0.0
    assert parse_quantity("-0 s", "time") == 0.0
    assert parse_quantity("1e-400 s", "time") == 0.0  # the number reads as zero
    assert parse_quantity("2.2250738585072014e-308 h", "time") == sys.float_info.min


# each bad text with a dimension it would otherwise match, and its message
_BAD = {"0.005": ("arw", "expected '<value> <unit>', got '0.005'"),
        "x deg_per_h": ("rate", "bad numeric value in 'x deg_per_h'"),
        "1 parsec": ("length", "unknown unit tag 'parsec'"),
        "nan h": ("time", "non-finite value in 'nan h'"),
        "1 2 h": ("time", "expected '<value> <unit>', got '1 2 h'"),
        # nonzero, but subnormal in the canonical unit
        "1e-320 s": ("time", "value out of numeric range in '1e-320 s'"),
        "1e-320 deg_per_sqrt_h": ("arw", "value out of numeric range in "
                                         "'1e-320 deg_per_sqrt_h'"),
        "-1e-310 h": ("time", "value out of numeric range in '-1e-310 h'")}


@pytest.mark.parametrize("bad", list(_BAD))
def test_parse_quantity_rejects(bad):
    dimension, message = _BAD[bad]
    with pytest.raises(UnitError) as exc:
        parse_quantity(bad, dimension)
    assert str(exc.value).startswith(message)


def test_checks_run_in_order():
    # field count, number, finite, tag, dimension: the first that fails names the error
    for text, message in (("x parsec km", "expected '<value> <unit>'"),
                          ("x parsec", "bad numeric value"),
                          ("inf parsec", "non-finite value"),
                          ("1 parsec", "unknown unit tag")):
        with pytest.raises(UnitError, match=message):
            parse_quantity(text, "time")


def test_value_that_overflows_its_canonical_unit_rejected():
    assert parse_quantity("1e308 km", "length") == 1e308
    with pytest.raises(UnitError, match="value out of numeric range in '1e308 nmi'"):
        parse_quantity("1e308 nmi", "length")


def test_parse_quantity_dimension_check():
    with pytest.raises(UnitError, match="time"):
        parse_quantity("1 km", "time")


def test_readme_tag_list_is_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"Accepted unit tags: ((?:`\w+`,?\s*)+)\.", readme).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(KNOWN_UNITS)
