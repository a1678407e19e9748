"""Real-coefficient polynomial arithmetic, root tests and a clustering root finder.

The model's roots come from companion-matrix eigenvalues: :func:`is_stable`
reads an array of them and :func:`coprime` takes both polynomials' roots
from ``np.roots``.  :func:`find_roots`, Aberth-Ehrlich simultaneous iteration
clustered into conjugate-closed multiplicity groups, serves only the spectral
factorization, which pairs the roots of its covariance generating polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLUSTER_RADIUS = 1e-6
STABILITY_MARGIN = 1e-12
BACKWARD_TOL = 1e-12

_MAX_ITER = 500
_STEP_TOL = 1e-13


class RootFindingError(RuntimeError):
    """Aberth iteration did not converge. Carries the best iterate found."""

    def __init__(self, message: str, best_iterate: np.ndarray):
        super().__init__(message)
        self.best_iterate = best_iterate


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


@dataclass(frozen=True)
class RootSet:
    """Distinct complex roots with multiplicities.

    For real-coefficient input the set is closed under conjugation and the
    total multiplicity equals the polynomial degree.
    """

    roots: tuple  # tuple of (complex value, int multiplicity)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)

    def values(self) -> np.ndarray:
        """Roots repeated according to multiplicity."""
        return np.array([z for z, m in self.roots for _ in range(m)])

    @property
    def all_simple(self) -> bool:
        return all(m == 1 for _, m in self.roots)


def _aberth(coeffs: np.ndarray) -> np.ndarray:
    """Simultaneous root iteration on a monic polynomial (ascending coeffs)."""
    n = len(coeffs) - 1
    deriv = coeffs[1:] * np.arange(1, n + 1)

    # Initial points on a Cauchy-bound circle with angular jitter so that no
    # starting point sits on a symmetry axis of the root configuration.
    radius = 1.0 + np.max(np.abs(coeffs[:-1]))
    angles = 2.0 * np.pi * (np.arange(n) + 0.376) / n + 0.5 / n
    z = 0.8 * radius * np.exp(1j * angles)

    eps = np.finfo(float).eps
    converged = np.zeros(n, dtype=bool)
    for _ in range(_MAX_ITER):
        pv = np.full(n, coeffs[-1], dtype=complex)
        for c in coeffs[-2::-1]:
            pv = pv * z + c
        dv = np.full(n, deriv[-1], dtype=complex)
        for c in deriv[-2::-1]:
            dv = dv * z + c
        # Backward-error sized residual bound: |p(z)| at this level means z is
        # an exact root of a polynomial within rounding distance of ours.
        az = np.abs(z)
        alpha = np.zeros(n)
        for k, c in enumerate(coeffs):
            alpha += np.abs(c) * az**k
        resid_ok = np.abs(pv) <= 8.0 * n * eps * alpha

        dv = np.where(dv == 0, eps, dv)
        newton = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = np.sum(1.0 / diff, axis=1) - 1.0 / np.diag(diff)
        denom = 1.0 - newton * s
        denom = np.where(denom == 0, eps, denom)
        step = newton / denom
        step = np.where(converged, 0.0, step)
        z = z - step
        converged = converged | resid_ok | (np.abs(step) < _STEP_TOL * (1.0 + np.abs(z)))
        if converged.all():
            return z
    raise RootFindingError(
        f"Aberth iteration did not converge within {_MAX_ITER} iterations", z
    )


def _cluster(points: np.ndarray, radius: float):
    """Greedy merge of roots closer than ``radius`` into multiplicity groups."""
    groups = [[z, 1] for z in points]
    while len(groups) > 1:
        best = None
        best_d = radius
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                d = abs(groups[i][0] - groups[j][0])
                if d < best_d:
                    best_d = d
                    best = (i, j)
        if best is None:
            break
        i, j = best
        zi, mi = groups[i]
        zj, mj = groups[j]
        groups[i] = [(zi * mi + zj * mj) / (mi + mj), mi + mj]
        del groups[j]
    return groups


def _conjugate_pair(groups):
    """Enforce exact conjugate closure on the clustered roots."""
    out = []
    pending = []
    for z, m in groups:
        if abs(z.imag) <= 1e-8 * (1.0 + abs(z)):
            out.append((complex(z.real, 0.0), m))
        else:
            pending.append([z, m])
    while pending:
        z, m = pending.pop(0)
        if not pending:
            # Unpaired complex root of a real polynomial: numerical accident,
            # keep it real-symmetrized with itself.
            out.append((z, m))
            break
        dists = [abs(z - np.conj(w)) for w, _ in pending]
        j = int(np.argmin(dists))
        w, mw = pending.pop(j)
        mean = (z + np.conj(w)) / 2.0
        out.append((mean, m))
        out.append((np.conj(mean), mw))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def find_roots(poly: Polynomial) -> RootSet:
    """All complex roots of ``poly`` clustered into multiplicity groups."""
    if poly.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    c = np.asarray(poly.coeffs, dtype=float)
    c = c / c[-1]
    if poly.degree == 1:
        raw = np.array([-c[0]])
    else:
        raw = _aberth(c.astype(complex))
    groups = _cluster(raw, CLUSTER_RADIUS)
    return RootSet(tuple(_conjugate_pair(groups)))


def is_stable(roots) -> bool:
    """True iff every root in the array lies strictly inside the left half plane.

    The boundary (real part in ``[-STABILITY_MARGIN, 0]``) counts as unstable.
    """
    return bool(np.all(np.real(roots) < -STABILITY_MARGIN))


def coprime(a: Polynomial, b: Polynomial) -> bool:
    """True iff ``a`` and ``b`` share no (numerical) zero.

    A root z of one polynomial counts as a zero of the other, p, when it is
    one to rounding: |p(z)| <= ``BACKWARD_TOL`` * sum_k |p_k| |z|^k.  Both
    ways are checked, each at the ``np.roots`` of one polynomial.  An m-fold
    root splits into roots about eps^(1/m) apart, so only the polynomial
    evaluated at the roots of the one holding a shared zero less often reads
    it at rounding level; and p near an m-fold zero grows only like d^m with
    the distance d, so a looser bound would merge zeros that are clearly apart.
    """
    if not any(a.coeffs) or not any(b.coeffs):
        return False
    for p, other in ((b, a), (a, b)):
        if other.degree >= 1:
            z = np.roots(other.coeffs[::-1])
            bound = Polynomial(np.abs(p.coeffs)).eval(np.abs(z)).real
            if np.any(np.abs(p.eval(z)) <= BACKWARD_TOL * bound):
                return False
    return True
