"""Seeded simulation of CARMA sample paths on a Delta-grid.

Exact Gaussian transitions for the Brownian driver, Euler for Brownian or
compound-Poisson drivers, and the empirical second-order estimators used as
Monte Carlo oracles.  Both simulators run one recursion on the Delta grid from
a draw of the stationary law, with no burn-in; only the step (F, G) and its
noise differ.  The exact step is the Delta-scaled sampled system (F, Q, b) of
:func:`core.sampled_state_space`, the one every Delta-grid quantity reads, and
Euler's substeps fold exactly into one Delta step.  One propagator, a doubling
scan of real numpy matmuls within fixed blocks, takes every root multiplicity
the same way and draws the noise one block at a time, in state coordinates: no
array but the path grows with its length or with Euler's substeps.  Models are
valid once built; only Delta (:func:`core._check_delta`) and n are checked.
Covariances are factored by plain Cholesky: one that is not positive definite
raises numpy's LinAlgError rather than being perturbed.

RNG contract: numpy's PCG64 via ``default_rng``.  Each path gets its own
SeedSequence substream (``spawn_seeds``), and identical (model, delta, n,
seed, scheme) reproduce bit-identical arrays within one artifact version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, sampling
from .core import CarmaModel
from .sampling import CovSequence

#: Steps per block of the propagator's doubling scan; the state is carried between blocks.
_BLOCK = 2**16
#: empirical_filtered_acvf needs at least this many points per AR order.
MIN_LENGTH_PER_ORDER = 100


@dataclass(frozen=True)
class DriverSpec:
    """Second-order driving Levy process specification.

    ``kind`` is "brownian" or "compound_poisson".  Compound-Poisson jumps are
    either zero-mean normal or symmetric two-point; jump sizes are normalized
    so that Var(L_1) equals the model's sigma2.
    """

    kind: str = "brownian"
    jump_rate: float = 1.0
    jump_dist: str = "normal"  # "normal" or "two_point"

    def __post_init__(self):
        if self.kind not in ("brownian", "compound_poisson"):
            raise ValueError(f"unknown driver kind {self.kind!r}")
        if self.kind == "compound_poisson":
            if not 0.0 < self.jump_rate < np.inf:
                raise ValueError(f"jump_rate must be finite and > 0, got {self.jump_rate!r}")
            if self.jump_dist not in ("normal", "two_point"):
                raise ValueError(f"unknown jump distribution {self.jump_dist!r}")


@dataclass(frozen=True)
class SimulationResult:
    delta: float
    y: np.ndarray
    seed: int
    scheme: str  # "exact_gaussian" or "euler"
    substeps: int = 1


def spawn_seeds(seed: int, k: int) -> list:
    """k independent child seeds for parallel paths."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]


def _check_path(delta: float, n: int) -> None:
    core._check_delta(delta)
    if n < 0:
        raise ValueError(f"path length n must be >= 0, got {n}")


def _propagate(b_out: np.ndarray, F: np.ndarray, draw, m: int, x0: np.ndarray) -> tuple:
    """y[k] = b_out . x[k] for x[k] = F x[k-1] + v[k-1] (k = 1..m), x[0] = x0.

    Returns (y[0..m], x[m]); m = -1 gives an empty y.  ``draw(k)`` returns
    the next k rows of v as a fresh array, and is called once per block of at
    most ``_BLOCK`` steps, so no array grows with m except y.  Within a block
    the recursion is a linear prefix sum x[i] = sum_(j<=i) F^(i-j) v[j], with
    the state carried in from the previous block folded into the first v.  A
    Hillis-Steele doubling scan takes it: step k adds F^k times the partial
    sum k places back, so ceil(log2(_BLOCK)) real matmuls per block cover
    every root multiplicity the same way, and the number of passes over a
    block does not grow with the path length.
    """
    y = np.empty(m + 1)
    y[:1] = b_out @ x0
    x = x0
    for s in range(0, m, _BLOCK):
        v = draw(min(_BLOCK, m - s))
        v[0] += F @ x
        P, k = F, 1
        while k < len(v):  # after this step v[i] = sum_(j > i-2k) F^(i-j) v[j]
            v[k:] += v[:-k] @ P.T  # the right side is a fresh array, so nothing aliases
            P, k = P @ P, 2 * k
        y[s + 1 : s + 1 + len(v)] = v @ b_out
        x = v[-1]
    return y, x


def simulate_gaussian_exact(model: CarmaModel, delta: float, n: int, seed: int) -> SimulationResult:
    """Exact discretization of the state equation under a Brownian driver.

    Propagates the Delta-scaled state T^-1 x through the sampled system
    (F, Q, b) of :func:`core.sampled_state_space`, T = diag(delta^(p-1), ...,
    delta, 1): transitions F with Gaussian noise of covariance sigma2 * Q, and
    a stationary initial state drawn with T^-1 chol(sigma2 Sigma), the
    Cholesky factor of its covariance T^-1 sigma2 Sigma T^-T.  n = 0 gives
    an empty path.
    """
    _check_path(delta, n)
    rng = np.random.default_rng(seed)
    p = model.p
    F, Q, b = core.sampled_state_space(model, delta)
    t = delta ** np.arange(p - 1.0, -1.0, -1.0)
    Lq = np.linalg.cholesky(model.sigma2 * Q)
    Ls = np.linalg.cholesky(model.sigma2 * core.stationary_state_covariance(model)) / t[:, None]
    x0 = Ls @ rng.standard_normal(p)
    y = _propagate(b, F, lambda k: rng.standard_normal((k, p)) @ Lq.T, n - 1, x0)[0]
    return SimulationResult(delta=delta, y=y, seed=seed, scheme="exact_gaussian")


def _driver_increments(rng, driver: DriverSpec, sigma2: float, dt: float, shape: tuple) -> np.ndarray:
    if driver.kind == "brownian":
        return np.sqrt(sigma2 * dt) * rng.standard_normal(shape)
    rate = driver.jump_rate
    counts = rng.poisson(rate * dt, size=shape)
    if driver.jump_dist == "normal":
        # Var(jump) = sigma2 / rate, so Var(L_1) = rate * Var(jump) = sigma2.
        return np.sqrt(sigma2 / rate * counts) * rng.standard_normal(shape)
    j = np.sqrt(sigma2 / rate)
    return j * (2.0 * rng.binomial(counts, 0.5) - counts)


def simulate_euler(
    model: CarmaModel,
    delta: float,
    n: int,
    substeps: int,
    driver: DriverSpec,
    seed: int,
) -> SimulationResult:
    """Euler-Maruyama on the state equation at step dt = Delta/substeps.

    The S = substeps steps of F_E = I + A dt within one Delta interval fold
    exactly into one Delta step, x_(j+1)S = F_E^S x_jS + G_S dl_j, where
    G_S[:, i] = F_E^(S-1-i) e_p and dl_j holds the interval's S driver
    increments.  The path starts from chol(sigma2 Sigma) z, a draw of the
    stationary law, with no burn-in.  The increments are drawn and folded by
    G_S in slices of max(1, _BLOCK // substeps) Delta steps, so memory does
    not grow with substeps.  An F_E of spectral radius >= 1 raises ValueError.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    _check_path(delta, n)
    rng = np.random.default_rng(seed)
    p = model.p
    dt = delta / substeps
    if max(abs(1.0 + r * dt) for r in model.roots) >= 1.0:  # spectral radius of F_E
        raise ValueError(f"unstable Euler step: spectral radius of F_E >= 1 at substeps = {substeps}, delta = {delta}")
    FE = np.eye(p) + model.companion() * dt
    G = np.empty((p, substeps))
    G[:, -1] = np.eye(p)[-1]
    for i in range(substeps - 1, 0, -1):
        G[:, i - 1] = FE @ G[:, i]
    x0 = np.linalg.cholesky(model.sigma2 * core.stationary_state_covariance(model)) @ rng.standard_normal(p)

    rows = max(1, _BLOCK // substeps)  # Delta steps per slice: about _BLOCK increments
    def draw(k):
        v = np.empty((k, p))
        for i in range(0, k, rows):
            dl = _driver_increments(rng, driver, model.sigma2, dt, (min(rows, k - i), substeps))
            v[i : i + len(dl)] = dl @ G.T
        return v

    y = _propagate(model.b_vector(), np.linalg.matrix_power(FE, substeps), draw, n - 1, x0)[0]
    return SimulationResult(delta=delta, y=y, seed=seed, scheme="euler", substeps=substeps)


def empirical_filtered_acvf(result: SimulationResult, model: CarmaModel, lags: int) -> CovSequence:
    """Sample autocovariances (biased) of the filtered simulated series.

    Applies the annihilating filter from :func:`sampling.filter_coefficients`
    and attaches Bartlett-formula standard errors appropriate for an MA(p-1)
    sequence.
    """
    if lags < 0:
        raise ValueError("lag must be non-negative")
    y = np.asarray(result.y, dtype=float)
    p = model.p
    if len(y) < MIN_LENGTH_PER_ORDER * p:
        raise ValueError(f"series too short: need at least {MIN_LENGTH_PER_ORDER * p} points")
    u = np.convolve(y, sampling._filter_and_acvf(model, result.delta)[0], mode="valid")
    u = u - u.mean()
    n = len(u)
    gam = np.array([np.dot(u[: n - h], u[h:]) / n for h in range(max(lags, p - 1) + 1)])

    # Bartlett: Var(gamma_hat(h)) ~ (1/n) sum_j [gamma(j)^2 + gamma(j+h) gamma(j-h)],
    # truncated at the MA order p-1 where the true sequence vanishes.
    m = p - 1

    def g(j):
        return gam[abs(j)] if abs(j) <= m else 0.0

    se = np.empty(lags + 1)
    for h in range(lags + 1):
        s = sum(g(j) ** 2 + g(j + h) * g(j - h) for j in range(-m - lags, m + lags + 1))
        se[h] = np.sqrt(max(s, 0.0) / n)
    return CovSequence(
        delta=result.delta, values=tuple(gam[: lags + 1]), provenance="empirical", stderr=tuple(se)
    )
