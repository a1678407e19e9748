"""The one root finder and the one evaluator of real polynomials.

A polynomial is a sequence of real coefficients in ascending degree order,
trailing zeros ignored.  :func:`find_roots` (companion eigenvalues, bit for bit
``np.roots``) solves a(z) once per ``CarmaModel``, b(z) in ``core.validate`` and
S(w) in the spectral factorization; :func:`_horner` (bit for bit ``np.polyval``)
evaluates b and a for f_Y, the residuals of ``validate``, S(w) and S_d(v).
"""

from __future__ import annotations

import numpy as np


def _trim(coeffs) -> list:
    """The coefficients as floats without trailing zeros; the zero polynomial is empty."""
    c = [float(x) for x in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    return c


def find_roots(coeffs) -> np.ndarray:
    """All complex roots of the polynomial ``coeffs``, repeated by multiplicity.

    The roots are the eigenvalues of the companion matrix of the polynomial
    with its zero low-order coefficients stripped, followed by one exact zero
    root per stripped coefficient: bit for bit ``np.roots``.  Complex roots of
    a real polynomial come in exactly conjugate pairs.  An m-fold root comes
    back as m roots about eps^(1/m) apart.
    """
    c = _trim(coeffs)
    if len(c) < 2:
        raise ValueError("root finding requires degree >= 1")
    nonzero = _trim(c[::-1])[::-1]  # c without its zero low-order coefficients
    roots = np.empty(0)
    if len(nonzero) > 1:
        companion = np.eye(len(nonzero) - 1, k=-1)
        companion[0] = nonzero[-2::-1]
        companion[0] /= -nonzero[-1]
        roots = np.linalg.eigvals(companion)
    return np.concatenate([roots, np.zeros(len(c) - len(nonzero))], dtype=complex)


def _horner(coeffs, x):
    """The polynomial ``coeffs`` (ascending) at x, a scalar or an array: bit for bit ``np.polyval``."""
    v = 0.0
    for c in reversed(coeffs):
        v = v * x + c
    return v
