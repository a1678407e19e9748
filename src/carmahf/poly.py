"""The one root finder on real polynomials.

A polynomial is a sequence of real coefficients in ascending degree order,
trailing zeros ignored.  :func:`find_roots` takes the eigenvalues of its
companion matrix: the roots of ``np.roots``, bit for bit.  ``core.validate``
reads the roots of both model polynomials from it, and the spectral
factorization the roots of its covariance polynomial in w = z + 1/z.
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
