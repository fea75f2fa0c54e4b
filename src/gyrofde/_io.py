"""The one writer of gyrofde's output artifacts, CSV and JSON, and the one
reader of the CSVs it takes back as input.

CSV: one header row, then one row per index of the columns.  A float cell
holds the bytes of ``'%.17g' % x``, 17 significant digits, so a read-back is
exact; a NaN cell is left empty (a missing value, e.g. an infeasible contour
point).  An integer or bool cell is written as its float, which for a
magnitude under 2**53 is the bytes of ``'%d' % v``.  Lines end in csv's
"\\r\\n".

The float cells of a block of rows are formatted together by numpy.  A
finite x with 1e-250 < |x| < 1e250 is scaled by 10**(16 - E), E =
floor(log10|x|), as an error-free double-double product, whose error is
under 2**-45; that gives its 17-digit integer exactly wherever the scaled
value is farther than 2**-30 from a rounding tie and lies strictly inside
(1e16, 1e17 - 1).  Every other cell (a near-tie, a decade edge, zero, inf,
NaN, a magnitude out of that range) is formatted by Python one at a time.
Each cell is laid out in a fixed width with zero bytes for the characters it
omits, and the zero bytes are dropped from the block.

JSON: indent 2 and a trailing newline, to a file or, with no path, stdout.
"""

from __future__ import annotations

import functools
import json
import sys

import numpy as np

_CELLS = 1 << 12            # cells per block of rows
_SPLIT = 134217729.0        # 2**27 + 1: Dekker's split of a 53-bit significand
_X_MIN, _X_MAX = 1e-250, 1e250  # 10**(16 - E) and its split parts stay normal
_D_MIN, _D_MAX = 10 ** 16, 10 ** 17 - 1
_TIE = 2.0 ** -30            # a scaled value this near a rounding tie goes to Python
_E_MIN, _E_MAX = -260, 260  # covers floor(log10|x|) of the range, misjudged or not
_PYTHON = 10                # the prefix row of a cell Python formats: "%s"
# A cell is six 8-byte words.  Bytes 0-5 hold the sign and "0.000" (or
# "%s"), 6 the first digit, 7 its dot slot, 8-39 sixteen more digits each
# followed by a dot slot, 40-44 "e+308" and 45-46 the separator.
_WORDS = 6


@functools.cache
def _pow10(k: int) -> tuple[float, float, float, float]:
    """10**k as hi + lo, exact to about 2**-106, with hi split in two halves."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    t = _SPLIT * hi
    hi_hi = t - (t - hi)
    return hi, hi_hi, hi - hi_hi, lo


def _words(texts) -> np.ndarray:
    """Each text of up to 8 one-byte characters, zero-padded, as a uint64."""
    data = b"".join(t.encode("latin-1").ljust(8, b"\0") for t in texts)
    return np.frombuffer(data, np.uint64)


@functools.cache
def _tables():
    """The 4-digit groups as "d.d.d.d." words with empty dot slots, the
    digit counts and masks by group, and the prefix and exponent words."""
    i = np.arange(10000, dtype=np.int16)
    spread = np.zeros((10000, 8), np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        spread[:, 2 * j] = i // unit % 10 + ord("0")
    groups = spread.view(np.uint64).ravel()
    sig = np.select([i % 10 > 0, i % 100 > 0, i % 1000 > 0, i > 0], [4, 3, 2, 1], 0)
    # for group w: the count of digits up to its last nonzero one (0 for
    # none), and by the count of digits kept, the mask of its word
    w = np.arange(4, dtype=np.int8)[:, None]
    last = np.where(sig > 0, sig + 4 * w + 1, 0).astype(np.int8)
    upto = np.clip(np.arange(18) - 4 * w - 1, 0, 4)
    masks = _words(["\xff\0" * j for j in range(5)])[upto]
    prefix = _words([sign + ("0." + "0" * (z - 1) if z else "")
                     for sign in ("", "-") for z in range(5)] + ["%s"])
    exps = _words([""] + ["e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)])
    return groups, last, masks, prefix, exps


def _scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17-digit integer D and decimal exponent E of each |x|, with the
    mask of the cells where they are exact."""
    ax = np.abs(x)
    exact = (ax > _X_MIN) & (ax < _X_MAX)  # False for NaN
    ax = np.where(exact, ax, 1.0)
    E = np.floor(np.log10(ax)).astype(np.int32)
    # 10**(16 - E) as a double-double, made for only the k this block uses
    k = 16 - E
    k0 = int(k.min())
    used = np.flatnonzero(np.bincount(k - k0))
    powers = np.zeros((used[-1] + 1, 4))
    powers[used] = [_pow10(k0 + int(j)) for j in used]
    hi, hi_hi, hi_lo, lo = powers.take(k - k0, axis=0).T
    # ax * hi = p + e exactly (Dekker's two-product, no FMA), then + ax * lo
    p = ax * hi
    t = _SPLIT * ax
    ax_hi = t - (t - ax)
    ax_lo = ax - ax_hi
    e = ((ax_hi * hi_hi - p) + ax_hi * hi_lo + ax_lo * hi_hi) + ax_lo * hi_lo
    e += ax * lo
    # p >= 2**53 is an integer wherever the check below passes
    whole = np.floor(e)
    frac = e - whole
    D = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    exact &= (np.abs(frac - 0.5) > _TIE) & (D > _D_MIN) & (D < _D_MAX)
    return D, E, exact


def _float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (len(x), _WORDS) uint64 cells of float64 ``x``, zero bytes to be
    dropped, and the mask of the cells it wrote; each other cell holds "%s"
    for Python to fill."""
    groups, last, masks, prefix, exps = _tables()
    D, E, exact = _scaled(x)
    # the 17 digits: the first, then four groups of 4
    top = D // 10 ** 8
    low = (D - top * 10 ** 8).astype(np.int32)
    top = top.astype(np.int32)
    g = [top // 10 ** 4 % 10 ** 4, top % 10 ** 4, low // 10 ** 4, low % 10 ** 4]
    n = np.ones(len(x), np.int8)  # significant digits
    for w, gw in enumerate(g):
        np.maximum(n, last[w].take(gw), out=n)

    fixed = (E >= -4) & (E < 17)
    lead = np.where(fixed, E + 1, 1)  # digits before the dot
    keep = np.where(exact, np.maximum(n, lead), 0)
    dot = np.where(exact & (n > lead) & (lead > 0), lead, 0)
    small = np.where(fixed & (E < 0), -E, 0)

    cells = np.empty((len(x), _WORDS), np.uint64)
    cells[:, 0] = prefix.take(np.where(exact, 5 * (x < 0) + small, _PYTHON))
    for w, gw in enumerate(g):
        cells[:, 1 + w] = groups.take(gw) & masks[w].take(keep)
    cells[:, 5] = exps.take(np.where(exact & ~fixed, E - _E_MIN + 1, 0))
    text = cells.view(np.uint8)
    text[:, 6] = np.where(exact, top // 10 ** 8 + ord("0"), 0)
    at = np.flatnonzero(dot)
    text.reshape(-1)[at * 8 * _WORDS + 5 + 2 * dot[at]] = ord(".")
    return cells, exact


def write_csv(path, header, *columns) -> None:
    """Write equal-length 1-d columns under ``header`` (one name per column).

    Every cell is written as a float; an integer or bool column must stay
    below 2**53 in magnitude, where its float prints as its ``'%d'``."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    if len(header) != len(cols) or any(len(c) != n for c in cols):
        raise ValueError("header and columns must match in number and length")
    if n and any(c.dtype.kind in "iu" and max(int(c.max()), -int(c.min())) >= 2 ** 53
                 for c in cols):
        raise ValueError("an integer column holds a value of magnitude 2**53 or more")
    width = len(cols)
    sep = _words(["\0" * 5 + ","] * (width - 1) + ["\0" * 5 + "\r\n"])
    step = max(1, _CELLS // width)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for i in range(0, n, step):
            x = np.column_stack([c[i:i + step] for c in cols]).astype(float, copy=False)
            cells, exact = _float_cells(x.ravel())
            cells.reshape(len(x), width, _WORDS)[:, :, 5] |= sep
            text = cells.tobytes().translate(None, b"\0")
            if not exact.all():  # Python's cells; a NaN is a missing value
                text %= tuple(b"" if v != v else b"%.17g" % v
                              for v in x.ravel()[~exact].tolist())
            fh.write(text)


def read_csv(path, header) -> tuple[np.ndarray, np.ndarray]:
    """The two float columns of a two-column CSV headed exactly ``header``.

    A row is two unquoted cells, each parsed with ``float``, so a ``write_csv``
    float reads back bit for bit.  A bad row, a comment or blank line
    included, raises ``{path}:{line}: expected two numbers, got '...'``,
    showing the row's first 80 characters.
    """
    with open(path, "rb") as fh:
        head, *body = fh.read().splitlines() or [b""]
    if head != ",".join(header).encode():
        raise ValueError(f"{path}: expected header {','.join(header)}")
    if not body:
        raise ValueError(f"{path}: no rows after the header")
    try:
        if any(row.count(b",") != 1 for row in body):
            raise ValueError
        cells = np.fromiter(map(float, b",".join(body).split(b",")), float)
        return cells[0::2], cells[1::2]
    except ValueError:  # parsed first: the search below is for errors only
        for line, row in enumerate(body, start=2):
            try:
                a, b = map(float, row.split(b","))
            except ValueError:
                text = row.decode(errors="replace")
                raise ValueError(f"{path}:{line}: expected two numbers, got {text[:80]!r}"
                                 + ("..." if len(text) > 80 else "")) from None


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path``, or to stdout when ``path`` is None."""
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
