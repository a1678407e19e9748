"""Continuous-time CARMA layer and the sampled state-space core.

Model validation, companion state-space matrices, the causal kernel g, the
continuous-time autocovariance and spectral density, the stationary state
covariance, and the sampled system (F, Q_Delta, b) in Delta-scaled
coordinates that every Delta-grid quantity derives from.  Everything goes
through the matrix exponential and the Lyapunov equation, never through the
autoregressive roots, so every root multiplicity takes the same route.  The
roots themselves (:func:`ar_roots`, the companion eigenvalues) serve only the
stability check and coarse scale estimates.  The exponential (Al-Mohy &
Higham scaling and squaring) and the Lyapunov solve (one Kronecker system)
are numpy alone, like the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poly
from .poly import Polynomial


class ModelError(ValueError):
    """A CARMA model violates one of the standing assumptions."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class CarmaModel:
    """CARMA(p, q) specification.

    ``a`` holds the autoregressive coefficients (a_1, ..., a_p) of
    a(z) = z^p + a_1 z^(p-1) + ... + a_p, ``b`` the moving-average
    coefficients (b_0, ..., b_q) with b_q = 1, and ``sigma2`` the variance of
    the driving Levy process per unit time.
    """

    a: tuple
    b: tuple
    sigma2: float
    label: str | None = None

    def __init__(self, a, b, sigma2=1.0, label=None):
        object.__setattr__(self, "a", tuple(float(x) for x in a))
        object.__setattr__(self, "b", tuple(float(x) for x in b))
        object.__setattr__(self, "sigma2", float(sigma2))
        object.__setattr__(self, "label", label)

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b) - 1

    def ar_polynomial(self) -> Polynomial:
        return Polynomial(list(self.a[::-1]) + [1.0])

    def ma_polynomial(self) -> Polynomial:
        return Polynomial(self.b)

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


def ar_roots(model: CarmaModel) -> np.ndarray:
    """The autoregressive roots, as the eigenvalues of the companion matrix.

    Repeated roots come out split by about eps^(1/m) for multiplicity m,
    which is ample for the sign and scale tests they serve.
    """
    return np.linalg.eigvals(model.companion())


def validate(model: CarmaModel, require_coprime: bool = True) -> CarmaModel:
    """Check all standing assumptions; raise ModelError naming the violation.

    ``require_coprime=False`` skips the common-zero check: coprimality is an
    identifiability condition, and every second-order quantity here is well
    defined without it (a shared zero just makes the state space non-minimal).
    """
    if model.p < 1 or model.q >= model.p:
        raise ModelError("bad_orders", f"require 0 <= q < p, got p={model.p} q={model.q}")
    if model.sigma2 <= 0.0:
        raise ModelError("nonpositive_sigma2", f"sigma2 must be positive, got {model.sigma2}")
    if model.b[-1] != 1.0:
        raise ModelError("bad_normalization", f"leading MA coefficient must be 1, got {model.b[-1]}")
    if not poly.is_stable(ar_roots(model)):
        raise ModelError("unstable_ar", "autoregressive roots must lie strictly in the left half plane")
    if require_coprime and not poly.coprime(model.ar_polynomial(), model.ma_polynomial()):
        raise ModelError("common_zeros", "AR and MA polynomials share a zero")
    return model


#: theta_m of Al-Mohy & Higham (2009, Table 3.1): the [m/m] Pade approximant
#: of e^A has backward error below unit roundoff while its eta-norm is at most
#: theta_m.  Degree 13 is the one that scaling and squaring falls back to.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}
#: Coefficients b_0..b_m of the [m/m] Pade approximant, b_j ~ (2m-j)! / (j! (m-j)!).
_PADE = {m: [math.factorial(2 * m - j) / (math.factorial(j) * math.factorial(m - j)) for j in range(m + 1)] for m in _THETA}
#: 1/|c_(2m+1)| = (2m)! (2m+1)! / (m!)^2, the leading backward-error coefficient.
_ERR_RECIP = {m: math.factorial(2 * m) * math.factorial(2 * m + 1) / math.factorial(m) ** 2 for m in _THETA}


#: Largest 1-norm of a Van Loan block exponentiated whole (theta_13 = 4.25).
_BLOCK_NORM = 4.0


def _norm1(X: np.ndarray) -> float:
    return float(np.abs(X).sum(0).max())


def _ell(absA: np.ndarray, norm: float, m: int) -> int:
    """Extra squarings ell(A, m) that keep the Pade truncation error at rounding level.

    Al-Mohy & Higham (2009, eq. 5.1) from ``absA`` = abs(A) and ``norm`` =
    ||A||_1: with alpha = |c_(2m+1)| ||abs(A)^(2m+1)||_1 / ||A||_1,
    ell = max(ceil(log2(alpha / u) / (2m)), 0).  The power of abs(A) comes
    by binary powering, its 1-norm from a row of column sums.
    """
    P, k, w = absA, 2 * m + 1, None
    while True:
        if k & 1:
            w = P.sum(0) if w is None else w @ P
        k >>= 1
        if not k:
            break
        P = P @ P
    alpha = float(w.max()) / (norm * _ERR_RECIP[m]) * 2.0**53 if norm else 0.0
    return max(math.ceil(math.log2(alpha) / (2 * m)), 0) if alpha > 1.0 else 0


def _pade_degree(A: np.ndarray) -> tuple:
    """Pade degree m, squarings s and the even powers [I, A^2, ...] for e^A.

    Al-Mohy & Higham (2009, Algorithm 5.1) with exact 1-norms: m is the first
    of 3, 5, 7, 9 whose eta-norm max(||A^(2j)||^(1/2j),
    ||A^(2j+2)||^(1/(2j+2))) is within theta_m and needs no extra squaring;
    otherwise m = 13 with s halvings of A, s = None when A is not finite.
    """
    absA = np.abs(A)
    norm = float(absA.sum(0).max())
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    P = [np.eye(len(A)), A2, A4, A6]
    d6 = _norm1(A6) ** (1 / 6)
    eta = max(_norm1(A4) ** 0.25, d6)
    for m in (3, 5, 7, 9):
        if m == 7:
            P.append(A4 @ A4)
            d8 = _norm1(P[4]) ** 0.125
            eta = max(d6, d8)
        if eta <= _THETA[m] and _ell(absA, norm, m) == 0:
            return m, 0, P[: m // 2 + 1]
    eta = min(eta, max(d8, _norm1(A4 @ A6) ** 0.1))
    if not math.isfinite(eta):
        return 13, None, P[:4]
    s = math.ceil(math.log2(eta / _THETA[13])) if eta > _THETA[13] else 0
    s += _ell(absA * 2.0**-s, norm * 2.0**-s, 13)
    return 13, s, P[:4]


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A for one n x n matrix, n >= 2: the [m/m] Pade approximant of
    2^-s A from (V - U) X = V + U, squared s times."""
    m, s, P = _pade_degree(A)
    b = _PADE[m]
    if m < 13:
        U = A @ sum(c * X for c, X in zip(b[1::2], P))
        V = sum(c * X for c, X in zip(b[0::2], P))
        return np.linalg.solve(V - U, V + U)
    if s is None:
        return np.full(A.shape, np.nan)
    I, A2, A4, A6 = P
    A, A2, A4, A6 = A * 2.0**-s, A2 * 2.0 ** (-2 * s), A4 * 2.0 ** (-4 * s), A6 * 2.0 ** (-6 * s)
    U = A @ (A6 @ (b[9] * A2 + b[11] * A4 + b[13] * A6) + (b[1] * I + b[3] * A2 + b[5] * A4 + b[7] * A6))
    V = A6 @ (b[8] * A2 + b[10] * A4 + b[12] * A6) + (b[0] * I + b[2] * A2 + b[4] * A4 + b[6] * A6)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of one matrix (n, n) or of each slice of a stack (..., n, n).

    Scaling and squaring with a diagonal Pade approximant, the degree and the
    number of squarings chosen per matrix as in Al-Mohy & Higham (2009), *A
    new scaling and squaring algorithm for the matrix exponential*, SIAM J.
    Matrix Anal. Appl. 31(3), with exact 1-norms since n is at most 2p here.
    1 x 1 matrices take ``np.exp``; a matrix with non-finite entries, or
    whose powers overflow, gives NaN.
    """
    A = np.asarray(M, dtype=float)
    if A.shape[-1] == 1:
        return np.exp(A)
    if A.ndim == 2:
        return _expm(A)
    out = np.empty(A.shape)
    for i in np.ndindex(A.shape[:-2]):
        out[i] = _expm(A[i])
    return out


def kernel_values(model: CarmaModel, t) -> np.ndarray:
    """The causal kernel g evaluated on an array of times.

    g(t) = b^T e^(At) e_p for t > 0 and 0 for t < 0, from one matrix
    exponential per time.  At t = 0 the right limit g(0+) is returned
    (relevant only when p - q = 1).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t.shape)
    pos = t >= 0.0
    E = matrix_exp(model.companion() * t[pos][:, None, None])
    out[pos] = E[:, :, -1] @ model.b_vector()
    return out


def kernel(model: CarmaModel, t: float) -> float:
    """Scalar convenience wrapper around :func:`kernel_values`."""
    return float(kernel_values(model, [t])[0])


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


def stationary_state_covariance(model: CarmaModel) -> np.ndarray:
    """Stationary covariance Sigma (per unit sigma2): A Sigma + Sigma A^T = -e_p e_p^T.

    Solved as one p^2-unknown linear system (I (x) A + A (x) I) vec Sigma =
    -vec(e_p e_p^T); p is small, and the Kronecker sum is nonsingular because
    no two AR roots sum to zero in the open left half plane.
    """
    p = model.p
    A = model.companion()
    I = np.eye(p)
    rhs = np.zeros(p * p)
    rhs[-1] = -1.0
    sigma = np.linalg.solve(np.kron(I, A) + np.kron(A, I), rhs).reshape(p, p)
    return 0.5 * (sigma + sigma.T)


def acvf_continuous(model: CarmaModel, h) -> np.ndarray | float:
    """Autocovariance gamma_Y(h) of the continuous-time process.

    The state-space identity sigma2 * b^T e^(A|h|) Sigma b, from one matrix
    exponential per lag; valid for every root multiplicity.
    """
    h_arr = np.atleast_1d(np.abs(np.asarray(h, dtype=float)))
    b = model.b_vector()
    sb = stationary_state_covariance(model) @ b
    out = model.sigma2 * (matrix_exp(model.companion() * h_arr[..., None, None]) @ sb) @ b
    if np.isscalar(h) or np.asarray(h).ndim == 0:
        return float(out[0])
    return out


def spectral_density_continuous(model: CarmaModel, omega) -> np.ndarray | float:
    """f_Y(omega) = sigma2/(2 pi) * |b(i omega)|^2 / |a(i omega)|^2."""
    w = np.asarray(omega, dtype=float)
    iw = 1j * w
    num = np.abs(model.ma_polynomial().eval(iw)) ** 2
    den = np.abs(model.ar_polynomial().eval(iw)) ** 2
    out = model.sigma2 / (2.0 * np.pi) * num / den
    if w.ndim == 0:
        return float(out)
    return out


def _van_loan_block(model: CarmaModel, h: float) -> np.ndarray:
    """[[S h, h e_p e_p^T], [0, -S^T h]] with S = T^-1 A T, T = diag(h^(p-1), ..., h, 1)."""
    p = model.p
    k = np.arange(p)
    M = np.zeros((2 * p, 2 * p))
    M[:p, :p] = model.companion() * h ** (k[:, None] - k[None, :] + 1.0)
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

    The scaling is not optional: expm picks its Pade degree from the matrix
    norm, so the delta^k-sized entries of an unscaled F and Q_Delta come out
    with only absolute accuracy, while here every entry of S delta is O(1)
    and every entry of Q is O(delta).

    On a coarse grid the F^-T block grows like e^(|lambda| delta) and the
    squarings inside expm lose Q to cancellation.  A block of 1-norm above
    ``_BLOCK_NORM`` is built for h = delta / 2^s instead, scaled with its own
    T and s the least that brings it within, and doubled s times by
    Q <- Q + F Q F^T, F <- F F (only PSD terms add up), with the exact change
    of scale diag(2^-(p-1-k)) from step h to 2h.  A block that is not finite,
    or a Q diagonal that underflows, gives NaN.
    """
    p = model.p
    k = np.arange(p)
    M, s = _van_loan_block(model, delta), 0
    while _BLOCK_NORM < _norm1(M) < math.inf:
        s += 1
        M = _van_loan_block(model, delta * 2.0**-s)
    E = matrix_exp(M)
    F = E[:p, :p]
    Q = E[:p, p:] @ F.T
    d = 2.0 ** (k + 1.0 - p)
    for _ in range(s):
        Q = d[:, None] * (Q + F @ Q @ F.T) * d
        F = d[:, None] * (F @ F) / d
    Q = 0.5 * (Q + Q.T)
    if not np.diag(Q).min() >= np.finfo(float).tiny:
        Q = np.full((p, p), np.nan)
    b = delta ** (p - 1.0 - k) * model.b_vector()
    return F, Q, b
