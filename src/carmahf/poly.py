"""Real-coefficient polynomial arithmetic, root tests and the root finder.

:func:`find_roots` takes the eigenvalues of a :class:`Polynomial`'s companion
matrix in one ``np.linalg.eigvals`` call: the roots of ``np.roots``, bit for
bit.  :func:`coprime` reads both polynomials' roots from it, and the spectral
factorization the roots of its covariance polynomial in w = z + 1/z.
:func:`is_stable` reads an array of the model's roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STABILITY_MARGIN = 1e-12
BACKWARD_TOL = 1e-12


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with real coefficients in ascending degree order.

    ``coeffs[k]`` multiplies ``z**k``.  Trailing (near-)zero coefficients are
    trimmed on construction; the zero polynomial is represented as ``(0.0,)``.
    """

    coeffs: tuple

    def __init__(self, coeffs):
        c = [float(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        if not c:
            c = [0.0]
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        """Horner evaluation; accepts scalars or arrays, real or complex."""
        z = np.asarray(z)
        out = np.full(z.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        if z.ndim == 0:
            return complex(out)
        return out

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])


def find_roots(poly: Polynomial) -> np.ndarray:
    """All complex roots of ``poly``, repeated by multiplicity.

    The roots are the eigenvalues of the companion matrix of ``poly`` with
    its zero low-order coefficients stripped, followed by one exact zero root
    per stripped coefficient: bit for bit ``np.roots``.  Complex roots of a
    real polynomial come in exactly conjugate pairs.  An m-fold root comes
    back as m roots about eps^(1/m) apart.
    """
    if poly.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    zeros = 0
    while poly.coeffs[zeros] == 0.0:
        zeros += 1
    c = poly.coeffs[zeros:]
    roots = np.empty(0)
    if len(c) > 1:
        companion = np.eye(len(c) - 1, k=-1)
        companion[0] = c[-2::-1]
        companion[0] /= -c[-1]
        roots = np.linalg.eigvals(companion)
    return np.concatenate([roots, np.zeros(zeros)], dtype=complex)


def is_stable(roots) -> bool:
    """True iff every root in the array lies strictly inside the left half plane.

    The boundary (real part in ``[-STABILITY_MARGIN, 0]``) counts as unstable.
    """
    return bool(np.all(np.real(roots) < -STABILITY_MARGIN))


def coprime(a: Polynomial, b: Polynomial) -> bool:
    """True iff ``a`` and ``b`` share no (numerical) zero.

    A root z of one polynomial counts as a zero of the other, p, when it is
    one to rounding: |p(z)| <= ``BACKWARD_TOL`` * sum_k |p_k| |z|^k.  Both
    ways are checked, each at the :func:`find_roots` of one polynomial.  An m-fold
    root splits into roots about eps^(1/m) apart, so only the polynomial
    evaluated at the roots of the one holding a shared zero less often reads
    it at rounding level; and p near an m-fold zero grows only like d^m with
    the distance d, so a looser bound would merge zeros that are clearly apart.
    """
    if not any(a.coeffs) or not any(b.coeffs):
        return False
    for p, other in ((b, a), (a, b)):
        if other.degree >= 1:
            z = find_roots(other)
            bound = Polynomial(np.abs(p.coeffs)).eval(np.abs(z)).real
            if np.any(np.abs(p.eval(z)) <= BACKWARD_TOL * bound):
                return False
    return True
