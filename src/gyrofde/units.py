"""Canonical unit system: one tag table and one parser.

Everything downstream of the I/O boundary works in radians, hours, and
kilometers.  The unit tags below are the only ones the toolkit accepts; they
appear verbatim in CLI flags, config files, and CSV headers.

Conventions worth spelling out once:

* Angle random walk quoted in ``deg_per_h_per_sqrt_hz`` is read as the
  1-second Allan-deviation ordinate, so x (deg/h)/sqrt(Hz) = x/60 deg/sqrt(h)
  (sqrt(1 h) = 60 sqrt(s)).
* 1 nmi = 1.852 km exactly.
* Rate-random-walk amplitudes K carry deg/h^(3/2): only ``deg_per_h_3_2``
  (or ``rad_per_h_3_2``) is accepted for K.
"""

from __future__ import annotations

import math
import sys

DEG = math.pi / 180.0
NMI_KM = 1.852
HOUR_S = 3600.0

# tag -> (dimension, scale factor to the canonical unit of that dimension).
# Canonical units: rate rad/h, arw rad/sqrt(h), rrw rad/h^(3/2), time h,
# length km, speed km/h.
_UNITS: dict[str, tuple[str, float]] = {
    "rad_per_h": ("rate", 1.0),
    "deg_per_h": ("rate", DEG),
    "rad_per_sqrt_h": ("arw", 1.0),
    "deg_per_sqrt_h": ("arw", DEG),
    "deg_per_h_per_sqrt_hz": ("arw", DEG / 60.0),
    "rad_per_h_3_2": ("rrw", 1.0),
    "deg_per_h_3_2": ("rrw", DEG),
    "h": ("time", 1.0),
    "s": ("time", 1.0 / HOUR_S),
    "km": ("length", 1.0),
    "nmi": ("length", NMI_KM),
    "km_per_h": ("speed", 1.0),
}

KNOWN_UNITS = frozenset(_UNITS)


class UnitError(ValueError):
    """Malformed quantity, unknown unit tag, a tag of the wrong dimension, or
    a value that overflows its canonical unit or is subnormal in it."""


def parse_quantity(text: str, dimension: str) -> float:
    """The canonical value of a ``"<number> <unit_tag>"`` string whose tag
    has ``dimension``, e.g. ``"0.01 deg_per_h_3_2"`` as ``"rrw"``."""
    parts = text.split()
    if len(parts) != 2:
        raise UnitError(f"expected '<value> <unit>', got {text!r}")
    try:
        value = float(parts[0])
    except ValueError:
        raise UnitError(f"bad numeric value in {text!r}") from None
    if not math.isfinite(value):
        raise UnitError(f"non-finite value in {text!r}")
    try:
        unit_dimension, scale = _UNITS[parts[1]]
    except KeyError:
        raise UnitError(f"unknown unit tag {parts[1]!r}; known tags: "
                        f"{', '.join(sorted(KNOWN_UNITS))}") from None
    if unit_dimension != dimension:
        raise UnitError(f"expected a {dimension} quantity, got {parts[1]!r} "
                        f"({unit_dimension})")
    canonical = value * scale
    # 1e308 nmi is finite, in km it is not; 1e-320 s is a subnormal in h and
    # keeps only a few of its digits
    if not math.isfinite(canonical) or 0.0 < abs(canonical) < sys.float_info.min:
        raise UnitError(f"value out of numeric range in {text!r}")
    return canonical
