"""Continuous-time CARMA layer and the sampled state-space core.

The model and its stability rule, the coprimality rule of :func:`validate`, the
one Delta rule, companion state-space matrices, the causal kernel g, the
continuous-time autocovariance and spectral density, the stationary state
covariance, and the sampled system (F, Q_Delta, b) in Delta-scaled coordinates
that every Delta-grid quantity derives from; the kernel and the continuous-time
autocovariance at lag h square e^(A x) for a scaled step x = h / 2^s.  No route
reads the AR roots, so every root multiplicity takes the same route: the matrix
exponential is one fixed [13/13] Pade approximant of a norm-capped scaled block,
and stability and Sigma come from one exact integer elimination of the Hurwitz matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import poly

#: Relative backward error at which :func:`validate` reads a shared zero.
BACKWARD_TOL = 1e-12


class ModelError(ValueError):
    """A model assumption fails, named by ``reason`` (:class:`CarmaModel`, :func:`validate`) or ``sigma_overflow``."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class CarmaModel:
    """CARMA(p, q) specification, valid once it is built.

    ``a`` holds the autoregressive coefficients (a_1, ..., a_p) of
    a(z) = z^p + a_1 z^(p-1) + ... + a_p, ``b`` the moving-average
    coefficients (b_0, ..., b_q) with b_q = 1, and ``sigma2`` the variance of
    the driving Levy process per unit time.

    Construction raises :class:`ModelError` naming the first violated
    assumption: ``bad_orders``, ``nonpositive_sigma2``, ``non_finite``,
    ``bad_normalization`` or ``unstable_ar`` (exact: :func:`_hurwitz`).  ``roots``
    keeps the roots of a(z) from :func:`poly.find_roots`, outside equality and
    hashing; they serve only :func:`validate`, ``sampling.coarseness`` and
    Euler's step check.  An m-fold root comes out split by about eps^(1/m).
    """

    a: tuple
    b: tuple
    sigma2: float
    label: str | None = None
    roots: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, a, b, sigma2=1.0, label=None):
        object.__setattr__(self, "a", tuple(float(x) for x in a))
        object.__setattr__(self, "b", tuple(float(x) for x in b))
        object.__setattr__(self, "sigma2", float(sigma2))
        object.__setattr__(self, "label", label)
        if not 0 <= self.q < self.p:
            raise ModelError("bad_orders", f"require 0 <= q < p, got p={self.p} q={self.q}")
        if not self.sigma2 > 0.0:
            raise ModelError("nonpositive_sigma2", f"sigma2 must be positive, got {self.sigma2}")
        if not np.isfinite([*self.a, *self.b, self.sigma2]).all():
            raise ModelError("non_finite", f"a, b and sigma2 must be finite, got {self.a}, {self.b}, {self.sigma2}")
        if self.b[-1] != 1.0:
            raise ModelError("bad_normalization", f"leading MA coefficient must be 1, got {self.b[-1]}")
        if _hurwitz(self.a) is None:
            raise ModelError("unstable_ar", "autoregressive roots must lie strictly in the left half plane")
        object.__setattr__(self, "roots", tuple(poly.find_roots((*self.a[::-1], 1.0)).tolist()))

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b) - 1

    def companion(self) -> np.ndarray:
        """The p x p companion matrix whose eigenvalues are the AR roots."""
        p = self.p
        A = np.zeros((p, p))
        if p > 1:
            A[:-1, 1:] = np.eye(p - 1)
        A[-1, :] = [-c for c in self.a[::-1]]
        return A

    def b_vector(self) -> np.ndarray:
        """Moving-average coefficients zero-padded to length p."""
        v = np.zeros(self.p)
        v[: self.q + 1] = self.b
        return v


def validate(model: CarmaModel) -> CarmaModel:
    """The identifiability check: raise ModelError("common_zeros") if a and b share a zero.

    Every other assumption holds once the model is built; second-order
    quantities need no coprimality (a shared zero makes the state space
    non-minimal), so no library routine calls this.

    A root z of one polynomial counts as a zero of the other, p, when it is
    one to rounding: |p(z)| <= ``BACKWARD_TOL`` * sum_k |p_k| |z|^k.  Both
    ways are checked: b at ``model.roots`` and a at the :func:`poly.find_roots` of b.
    An m-fold root splits into roots about eps^(1/m) apart, so only the
    polynomial evaluated at the roots of the one holding a shared zero less
    often reads it at rounding level; and p near an m-fold zero grows only
    like d^m with the distance d, so a looser bound would merge zeros that are
    clearly apart.
    """
    a, b = (*model.a[::-1], 1.0), model.b  # ascending, each with leading coefficient 1
    for p, z in ((b, np.array(model.roots)), (a, poly.find_roots(b) if model.q else np.empty(0))):
        if np.any(np.abs(poly._horner(p, z)) <= BACKWARD_TOL * poly._horner(np.abs(p), np.abs(z))):
            raise ModelError("common_zeros", "AR and MA polynomials share a zero")
    return model


def _check_delta(delta: float) -> None:
    """The one rule for a grid size Delta: finite and positive."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")


def _like(x, out) -> np.ndarray | float:
    """The one shape rule: a float for a 0-d ``x`` (``out`` then holds one value), else ``out`` in x's shape."""
    return out.item() if np.ndim(x) == 0 else out.reshape(np.shape(x))


#: Coefficients b_0..b_13 of the [13/13] Pade approximant of e^x, b_j ~ (26-j)! / (j! (13-j)!).
_PADE13 = [math.factorial(26 - j) / (math.factorial(j) * math.factorial(13 - j)) for j in range(14)]
#: Largest 1-norm of a scaled block (the Van Loan block, or the kernel's S x) exponentiated whole.
#: Below theta_13 = 4.25 the [13/13] Pade approximant has backward error below unit roundoff
#: (Al-Mohy & Higham 2009, Table 3.1).
_BLOCK_NORM = 4.0
_TINY = np.finfo(float).tiny


def _norm1(X: np.ndarray) -> float:
    return float(np.abs(X).sum(0).max())


def _pade13(M: np.ndarray) -> np.ndarray:
    """e^M = X from the [13/13] Pade (V - U) X = V + U, for ||M||_1 <= _BLOCK_NORM."""
    b = _PADE13
    I = np.eye(len(M))
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    U = M @ (M6 @ (b[9] * M2 + b[11] * M4 + b[13] * M6) + (b[1] * I + b[3] * M2 + b[5] * M4 + b[7] * M6))
    V = M6 @ (b[8] * M2 + b[10] * M4 + b[12] * M6) + (b[0] * I + b[2] * M2 + b[4] * M4 + b[6] * M6)
    return np.linalg.solve(V - U, V + U)


def kernel_values(model: CarmaModel, t) -> np.ndarray | float:
    """The causal kernel g at the times t: a float for a scalar t, else an array.

    g(t) = b^T e^(At) e_p for t > 0, by scaling and squaring (:func:`_b_exp`),
    and 0 for t < 0 and for t = inf, where g decays to 0.
    At t = 0 the right limit g(0+) = b_(p-1) is returned (nonzero only when
    p - q = 1); a NaN time gives NaN.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t_arr.shape)
    out[t_arr == 0.0] = model.b_vector()[-1]
    rest = ~(t_arr <= 0.0) & (t_arr != np.inf)
    out[rest] = _b_exp(model, t_arr[rest])[:, -1]
    return _like(t, out)


def kernel_derivative_at_zero(model: CarmaModel, k: int) -> float:
    """Right derivative g^(k)(0+) = b^T A^k e_p.

    Equals 0 for k < p-q-1 and 1 for k = p-q-1.
    """
    if k < 0:
        raise ValueError("derivative order must be non-negative")
    A = model.companion()
    v = model.b_vector()
    for _ in range(k):
        v = A.T @ v
    return float(v[-1])


def _hurwitz(a) -> list | None:
    """den [H | (-1)^(p-1) e_1] brought to upper triangular form; None at the first pivot <= 0.

    H_ij = a_(2j-i+1) (a_0 = 1, a_k = 0 outside 0..p) is the Hurwitz matrix of
    a(z), integer once scaled by den, the largest denominator of the a_j.
    Fraction-free elimination (Bareiss 1968) makes the k-th pivot den^k times
    the k-th leading Hurwitz determinant, so the rows come back, with
    no pivot search, exactly when every root of a(z) has Re < 0 (Hurwitz 1895).
    """
    p, den = len(a), max(x.as_integer_ratio()[1] for x in a)
    c = [0] * p + [den, *(n * den // d for n, d in map(float.as_integer_ratio, a))] + [0] * p  # den a_k at p + k
    H = [c[p - i + 1 : 3 * p - i + 1 : 2] + [den * (-1) ** (p - 1) * (i == 0)] for i in range(p)]
    prev = 1
    for k in range(p):
        if H[k][k] <= 0:
            return None
        for i in range(k + 1, p):
            H[i] = [(H[k][k] * x - H[i][k] * y) // prev for x, y in zip(H[i], H[k])]
        prev = H[k][k]
    return H


def _sigma_integers(model: CarmaModel) -> tuple:
    """(y, 2 det) with 2 det Sigma_ij = (-1)^i y_((i+j)/2) for even i + j, all Python integers.

    det is the last Hurwitz pivot of :func:`_hurwitz`, and y = det x comes
    from integer back substitution in its Hurwitz system, in the order c_0..c_(p-1).
    """
    p, U = model.p, _hurwitz(model.a)
    det, y = U[p - 1][p - 1], []  # y = det x, from the last row up
    for k in reversed(range(p)):
        y.insert(0, (det * U[k][p] - sum(u * v for u, v in zip(U[k][k + 1 : p], y))) // U[k][k])
    return y[::-1], 2 * det


def stationary_state_covariance(model: CarmaModel) -> np.ndarray:
    """Stationary covariance Sigma (per unit sigma2): A Sigma + Sigma A^T = -e_p e_p^T.

    Sigma_ij = Cov(Y^(i), Y^(j)) of the unit-input CAR(p) state is
    (-1)^i c_k where i + j = 2k and 0 where i + j is odd (c_k = gamma^(2k)(0)),
    so Sigma = sum_k c_k B_k has p unknowns, not p^2 (Astrom 1970).  In that
    checkerboard form the equation (i, j) with i, j < p-1 reads
    Sigma_(i+1,j) + Sigma_(i,j+1) = 0 and holds identically, and (i, p-1) is
    the transpose of (p-1, i), so the p last-row equations are left: reversed,
    in c_(p-1), ..., c_0, the Hurwitz system H x = (-1)^(p-1) e_1 of
    :func:`_hurwitz` with the diagonal equation doubled.  Back substitution in
    integers gives det x exactly, so each c_k is one correctly rounded int / int
    division; one past the float range raises ModelError("sigma_overflow").
    """
    y, den = _sigma_integers(model)
    try:
        c = np.array([v / den for v in y])
    except OverflowError:
        raise ModelError("sigma_overflow", "the stationary state covariance exceeds the float range") from None
    p = model.p
    ij = np.arange(p)[:, None] + np.arange(p)
    return np.where(ij % 2, 0.0, (-1.0) ** np.arange(p)[:, None] * c[ij // 2])  # Sigma_ij = (-1)^i c_((i+j)/2)


def _sigma_factor(model: CarmaModel) -> np.ndarray:
    """R = L sqrt(D) with Sigma = L D L^T exactly, L unit lower triangular: R R^T = Sigma to rounding.

    The LDL^T of the integer checkerboard C = 2 det Sigma (:func:`_sigma_integers`)
    is taken fraction-free (Bareiss 1968): the k-th pivot C^(k)_kk is the
    (k+1)-th leading minor of C, so L_ik = C^(k)_ik / C^(k)_kk and
    D_k = C^(k)_kk / C^(k-1)_(k-1,k-1) / (2 det), each one correctly rounded
    int / int division.  Sigma is positive definite ((A, e_p) is controllable),
    so every pivot is positive, even where the rounded Sigma fails plain
    Cholesky.  An entry past the float range raises ModelError("sigma_overflow").
    """
    p, (y, den) = model.p, _sigma_integers(model)
    C = [[0 if (i + j) % 2 else (-1) ** i * y[(i + j) // 2] for j in range(p)] for i in range(p)]
    R, prev = np.zeros((p, p)), 1
    try:
        for k in range(p):
            piv = C[k][k]
            R[k:, k] = [C[i][k] / piv for i in range(k, p)]
            R[k:, k] *= math.sqrt(piv / (prev * den))
            for i in range(k + 1, p):
                C[i] = [(piv * x - C[i][k] * z) // prev for x, z in zip(C[i], C[k])]
            prev = piv
    except OverflowError:
        raise ModelError("sigma_overflow", "the stationary state covariance exceeds the float range") from None
    return R


def acvf_continuous(model: CarmaModel, h) -> np.ndarray | float:
    """Autocovariance gamma_Y(h) of the continuous-time process.

    The state-space identity sigma2 * b^T e^(A|h|) Sigma b, with b^T e^(A|h|)
    by scaling and squaring (:func:`_b_exp`); valid for every root
    multiplicity.  Lag 0 is sigma2 * b^T Sigma b itself, and an infinite lag
    gives the limit 0; a NaN lag gives NaN.
    """
    h_arr = np.atleast_1d(np.abs(np.asarray(h, dtype=float)))
    b = model.b_vector()
    sb = model.sigma2 * (stationary_state_covariance(model) @ b)
    out = np.full(h_arr.shape, sb @ b)
    out[h_arr == np.inf] = 0.0
    lag = (h_arr != 0.0) & (h_arr != np.inf)
    out[lag] = _b_exp(model, h_arr[lag]) @ sb
    return _like(h, out)


def _b_exp(model: CarmaModel, h: np.ndarray) -> np.ndarray:
    """The rows b^T e^(A h) = (b^T T) F^(2^s) T^-1 for lags h != 0, F = e^(S x) by :func:`_pade13`.

    x = h / 2^s with s the least that brings the 1-norm of S x, S = T^-1 A T and
    T = diag(x^(p-1), ..., x, 1), within ``_BLOCK_NORM``; x is set by the model's
    time scale, so T is in float range at every finite lag.  Where x^(p-1-k) is
    not a normal float, x ||A|| is far below rounding and the entry is b_k itself.
    """
    p, b = model.p, model.b_vector()
    k = p - 1.0 - np.arange(p)
    rows = np.empty((len(h), p))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i, x in enumerate(h):
            s = 0
            while _BLOCK_NORM < _norm1(Sx := _van_loan_block(model, x)[:p, :p]):
                x, s = x / 2.0, s + 1
            F = _pade13(Sx)
            for _ in range(s):
                F = F @ F
            t = x**k
            rows[i] = np.where(t < _TINY, b, (t * b) @ F / t)
    return rows


def spectral_density_continuous(model: CarmaModel, omega) -> np.ndarray | float:
    """f_Y(omega) = sigma2/(2 pi) * |b(i omega)|^2 / |a(i omega)|^2.

    Where |b|^2 or |a|^2 overflows at |omega| > 1, both are taken in
    x = 1/(i omega) with reversed coefficients: |b(i omega)|^2 / |a(i omega)|^2
    = |omega|^(2(q-p)) |x^q b(1/x)|^2 / |x^p a(1/x)|^2.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        iw = 1j * w
        num = np.abs(poly._horner(model.b, iw)) ** 2
        den = np.abs(poly._horner((*model.a[::-1], 1.0), iw)) ** 2
    far = ~(np.isfinite(num) & np.isfinite(den)) & (np.abs(w) > 1.0)
    if far.any():
        x = -1j * (1.0 / w[far])
        num[far] = np.abs(poly._horner(model.b[::-1], x)) ** 2 * np.abs(w[far]) ** (2.0 * (model.q - model.p))
        den[far] = np.abs(poly._horner((1.0, *model.a), x)) ** 2
    return _like(omega, model.sigma2 / (2.0 * np.pi) * num / den)


def _van_loan_block(model: CarmaModel, h: float) -> np.ndarray:
    """[[S h, h e_p e_p^T], [0, -S^T h]] with S = T^-1 A T, T = diag(h^(p-1), ..., h, 1).

    S h is built from its nonzero entries alone, the unit superdiagonal and the last row
    -a_(p-j) h^(p-j): a zero of A times h^-k would be NaN once h^-k overflows.
    """
    p = model.p
    M = np.zeros((2 * p, 2 * p))
    i = np.arange(p - 1)
    M[i, i + 1] = 1.0
    M[p - 1, :p] = -np.array(model.a[::-1]) * h ** np.arange(p, 0, -1.0)
    M[p:, p:] = -M[:p, :p].T
    M[p - 1, 2 * p - 1] = h
    return M


def sampled_state_space(model: CarmaModel, delta: float) -> tuple:
    """The sampled system (F, Q, b) on a Delta-grid, in Delta-scaled coordinates.

    With T = diag(delta^(p-1), ..., delta, 1) and S = T^-1 A T, returns
    F = T^-1 e^(A delta) T, Q = T^-1 Q_Delta T^-T and b = T b, where
    Q_Delta = int_0^delta e^(Au) e_p e_p^T e^(A^T u) du is the transition noise
    covariance per unit sigma2.  Both come from one Van Loan (1978) block
    exponential, exp([[S delta, delta e_p e_p^T], [0, -S^T delta]]) =
    [[F, G], [0, F^-T]] with Q = G F^T.

    The exponential is one [13/13] Pade approximant with no squaring
    (:func:`_pade13`).  The scaling is not optional: its error is relative to
    the block's norm, so the delta^k-sized entries of an unscaled F and
    Q_Delta would come out with only absolute accuracy, while here every
    entry of S delta is O(1) and every entry of Q is O(delta).

    On a coarse grid the F^-T block grows like e^(|lambda| delta), and
    squaring its exponential would lose Q to cancellation.  A block of 1-norm
    above ``_BLOCK_NORM`` is built for h = delta / 2^s instead, scaled with its own
    T and s the least that brings it within, and doubled s times by
    Q <- Q + F Q F^T, F <- F F (only PSD terms add up), with the exact change
    of scale diag(2^-(p-1-k)) from step h to 2h.  A block that is not finite,
    or a Q diagonal that underflows, gives NaN.
    """
    p = model.p
    k = np.arange(p)
    M, s = _van_loan_block(model, delta), 0
    while _BLOCK_NORM < (norm := _norm1(M)) < math.inf:
        s += 1
        M = _van_loan_block(model, delta * 2.0**-s)
    E = _pade13(M) if norm <= _BLOCK_NORM else np.full(M.shape, np.nan)
    F = E[:p, :p]
    Q = E[:p, p:] @ F.T
    d = 2.0 ** (k + 1.0 - p)
    for _ in range(s):
        Q = d[:, None] * (Q + F @ Q @ F.T) * d
        F = d[:, None] * (F @ F) / d
    Q = 0.5 * (Q + Q.T)
    if not np.diag(Q).min() >= _TINY:
        Q = np.full((p, p), np.nan)
    b = delta ** (p - 1.0 - k) * model.b_vector()
    return F, Q, b
