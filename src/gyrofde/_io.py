"""The one writer of gyrofde's output artifacts, CSV and JSON.

CSV: one header row, then one row per index of the columns.  A float cell
has 17 significant digits, so a read-back is exact; a NaN cell is left
empty (a missing value, e.g. an infeasible contour point); an integer or
bool cell is written as an integer.  Lines end in csv's "\\r\\n".  Rows are
formatted in blocks so that a long column never becomes one list of strings.

JSON: indent 2 and a trailing newline, to a file or, with no path, stdout.
"""

from __future__ import annotations

import json
import sys

import numpy as np

_BLOCK = 4096


def write_csv(path, header, *columns) -> None:
    """Write equal-length 1-d columns under ``header`` (one name per column)."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    if len(header) != len(cols) or any(len(c) != n for c in cols):
        raise ValueError("header and columns must match in number and length")
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in cols) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, n, _BLOCK):
            block = zip(*(c[i:i + _BLOCK].tolist() for c in cols))
            # "nan" is printed only for a NaN cell
            fh.write("".join(map(row.__mod__, block)).replace("nan", ""))


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path``, or to stdout when ``path`` is None."""
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
