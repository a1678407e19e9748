"""Root finding and root tests on real polynomials.

A polynomial is a sequence of real coefficients in ascending degree order,
trailing zeros ignored.  :func:`find_roots` takes the eigenvalues of its
companion matrix: the roots of ``np.roots``, bit for bit.  :func:`coprime`
reads both polynomials' roots from it, and the spectral factorization the
roots of its covariance polynomial in w = z + 1/z.  :func:`is_stable` reads
an array of the model's roots.
"""

from __future__ import annotations

import numpy as np

STABILITY_MARGIN = 1e-12
BACKWARD_TOL = 1e-12


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


def is_stable(roots) -> bool:
    """True iff every root in the array lies strictly inside the left half plane.

    The boundary (real part in ``[-STABILITY_MARGIN, 0]``) counts as unstable.
    """
    return bool(np.all(np.real(roots) < -STABILITY_MARGIN))


def coprime(a, b) -> bool:
    """True iff the polynomials ``a`` and ``b`` share no (numerical) zero.

    A root z of one polynomial counts as a zero of the other, p, when it is
    one to rounding: |p(z)| <= ``BACKWARD_TOL`` * sum_k |p_k| |z|^k.  Both
    ways are checked, each at the :func:`find_roots` of one polynomial.  An m-fold
    root splits into roots about eps^(1/m) apart, so only the polynomial
    evaluated at the roots of the one holding a shared zero less often reads
    it at rounding level; and p near an m-fold zero grows only like d^m with
    the distance d, so a looser bound would merge zeros that are clearly apart.
    """
    a, b = _trim(a), _trim(b)
    if not a or not b:
        return False
    for p, other in ((b, a), (a, b)):
        if len(other) > 1:
            z = find_roots(other)
            bound = np.polyval(np.abs(p[::-1]), np.abs(z))
            if np.any(np.abs(np.polyval(p[::-1], z)) <= BACKWARD_TOL * bound):
                return False
    return True
