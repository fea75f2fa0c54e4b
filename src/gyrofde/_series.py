"""Dimensionless drift-shape brackets with cancellation-free small-x series.

With x = t/Tc and a = exp(-x), the three shapes below underlie the drift
terms of the error budget and of the Allan variance.  Evaluated directly
they lose all precision for x << 1 (their leading orders are x^3/3, x^5/20,
and x^2/2 while the operands are O(x)), so below the cutover each switches
to its exact alternating power series.  The series stop at a fixed degree,
where the omitted tail is below 1e-17 relative at the cutover, and are
summed by Horner's rule.

Each shape takes a float or an array of x and returns the same kind (a float
as a numpy float64); one array call equals the elementwise calls bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_CUTOVER = 0.5
_DEGREE = 21


def _series(coef, k0: int) -> list[float]:
    """Coefficients of x^_DEGREE down to x^0 (Horner order), zero below x^k0."""
    return [coef(k) if k >= k0 else 0.0 for k in range(_DEGREE, -1, -1)]


_ATRK = _series(lambda k: (-1) ** (k + 1) * (2 ** k - 4) / (2 * math.factorial(k)), 3)
_XTRK = _series(lambda k: (-1) ** k * (2 * k - 2 ** (k - 1)) / math.factorial(k), 5)
_XMINUS_EM = _series(lambda k: (-1) ** k / math.factorial(k), 2)


def _horner(s, coef: list[float]):
    series = 0.0
    for c in coef:
        series = series * s + c
    return series


def _merge(x, direct, coef: list[float]):
    """direct at x >= _CUTOVER, the series elsewhere (NaN included); the
    series only ever sees x below the cutover, so it cannot overflow.

    An array evaluates the series only on its elements below the cutover
    and writes them into direct, a fresh array of the shape of x.
    """
    if np.ndim(x) == 0:
        return np.where(x >= _CUTOVER, direct, _horner(np.minimum(x, _CUTOVER), coef))[()]
    below = ~(x >= _CUTOVER)
    direct[below] = _horner(x[below], coef)
    return direct


def atrk_inflight_shape(x):
    """x - (3 - 4 e^-x + e^-2x)/2; ~ x^3/3 for small x."""
    x = np.asarray(x, dtype=float)[()]
    a = np.exp(-x)
    return _merge(x, x - (3.0 - 4.0 * a + a * a) / 2.0, _ATRK)


def xtrk_inflight_shape(x):
    """x^3/3 - x^2 + x(1 - 2 e^-x) + (1 - e^-2x)/2; ~ x^5/20 for small x."""
    x = np.asarray(x, dtype=float)[()]
    a = np.exp(-x)
    # np.power, not **, so that a float x and an array take the same pow
    direct = np.power(x, 3) / 3.0 - x * x + x * (1.0 - 2.0 * a) + (1.0 - a * a) / 2.0
    return _merge(x, direct, _XTRK)


def xminus_em(x):
    """x - (1 - e^-x); ~ x^2/2 for small x."""
    x = np.asarray(x, dtype=float)[()]
    return _merge(x, x - (-np.expm1(-x)), _XMINUS_EM)
