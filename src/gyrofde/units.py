"""Canonical unit system and conversions.

Everything downstream of the I/O boundary works in radians, hours, and
kilometers.  The unit tags below are the only ones the toolkit accepts; they
appear verbatim in CLI flags, config files, and CSV headers.

Conventions worth spelling out once:

* Angle random walk quoted in ``deg_per_h_per_sqrt_hz`` is read as the
  1-second Allan-deviation ordinate, so x (deg/h)/sqrt(Hz) = x/60 deg/sqrt(h)
  (sqrt(1 h) = 60 sqrt(s)).
* 1 nmi = 1.852 km exactly.
* Rate-random-walk amplitudes carry deg/h^(3/2); a published value quoted as
  deg/h^3 is dimensionally impossible for this drift model and is treated as
  a typo for deg/h^(3/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEG = math.pi / 180.0
NMI_KM = 1.852
HOUR_S = 3600.0

# dimension -> {tag: scale factor to the canonical unit of that dimension}
_DIMENSIONS: dict[str, dict[str, float]] = {
    "rate": {  # canonical rad/h
        "rad_per_h": 1.0,
        "deg_per_h": DEG,
    },
    "arw": {  # canonical rad/sqrt(h)
        "rad_per_sqrt_h": 1.0,
        "deg_per_sqrt_h": DEG,
        "deg_per_h_per_sqrt_hz": DEG / 60.0,
    },
    "rrw": {  # canonical rad/h^(3/2)
        "rad_per_h_3_2": 1.0,
        "deg_per_h_3_2": DEG,
    },
    "time": {  # canonical h
        "h": 1.0,
        "s": 1.0 / HOUR_S,
    },
    "length": {  # canonical km
        "km": 1.0,
        "nmi": NMI_KM,
    },
    "speed": {  # canonical km/h
        "km_per_h": 1.0,
    },
}

_UNIT_DIMENSION: dict[str, str] = {
    tag: dim for dim, tags in _DIMENSIONS.items() for tag in tags
}
_SCALE: dict[str, float] = {
    tag: scale for tags in _DIMENSIONS.values() for tag, scale in tags.items()
}

KNOWN_UNITS = frozenset(_UNIT_DIMENSION)


class UnitError(ValueError):
    """Unknown unit tag or dimensionally incompatible conversion."""


def dimension_of(unit: str) -> str:
    try:
        return _UNIT_DIMENSION[unit]
    except KeyError:
        raise UnitError(f"unknown unit tag {unit!r}; known tags: "
                        f"{', '.join(sorted(KNOWN_UNITS))}") from None


@dataclass(frozen=True)
class Quantity:
    """A value tagged with one of the supported units."""

    value: float
    unit: str

    def __post_init__(self):
        dimension_of(self.unit)  # validates the tag

    @property
    def dimension(self) -> str:
        return _UNIT_DIMENSION[self.unit]

    def canonical(self) -> float:
        """Value expressed in the canonical unit of its dimension."""
        return self.value * _SCALE[self.unit]


def convert(q: Quantity, unit: str) -> Quantity:
    """Convert ``q`` to a dimensionally compatible unit.

    Raises UnitError naming both units when the dimensions differ.
    """
    dim_src = dimension_of(q.unit)
    dim_dst = dimension_of(unit)
    if dim_src != dim_dst:
        raise UnitError(
            f"cannot convert {q.unit!r} ({dim_src}) to {unit!r} ({dim_dst})")
    return Quantity(q.value * (_SCALE[q.unit] / _SCALE[unit]), unit)


def parse_quantity(text: str, expect_dimension: str | None = None) -> Quantity:
    """Parse a ``"<number> <unit_tag>"`` string, e.g. ``"0.01 deg_per_h_3_2"``."""
    parts = text.split()
    if len(parts) != 2:
        raise UnitError(f"expected '<value> <unit>', got {text!r}")
    try:
        value = float(parts[0])
    except ValueError:
        raise UnitError(f"bad numeric value in {text!r}") from None
    if not math.isfinite(value):
        raise UnitError(f"non-finite value in {text!r}")
    q = Quantity(value, parts[1])
    if expect_dimension is not None and q.dimension != expect_dimension:
        raise UnitError(
            f"expected a {expect_dimension} quantity, got {parts[1]!r} "
            f"({q.dimension})")
    return q
