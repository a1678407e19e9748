"""Model corpora for the arma-chain workload.

The timed ops use fixed models, so every seed times the same work; the seed
orders them.  The seeded corpus, drawn from the workload seed, keeps the
package's known failing cases (triple and quadruple AR roots, random q >= 2
and p >= 4 models at small delta): it is run and judged once per run,
untimed, and no case is dropped or re-drawn because it fails.  The program
under test only ever receives these models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ARMA_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
ASYMPTOTIC_OMEGAS = (np.pi / 4, np.pi / 2, np.pi)


@dataclass(frozen=True)
class Model:
    """Plain model record: ``a`` = (a_1..a_p), ``b`` = (b_0..b_q), b_q = 1."""

    label: str
    a: tuple
    b: tuple
    sigma2: float = 1.0

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b) - 1


def _from_roots(roots) -> tuple:
    return tuple(float(x) for x in np.real(np.poly(np.array(roots, dtype=complex)))[1:])


def random_model(rng: np.random.Generator, p: int, q: int, label: str) -> Model:
    """Distinct stable AR roots (real, or conjugate pairs) and random MA part."""
    roots = []
    while len(roots) < p:
        if p - len(roots) >= 2 and rng.random() < 0.5:
            re, im = -rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            roots += [complex(re, im), complex(re, -im)]
        else:
            roots.append(complex(-rng.uniform(0.3, 3.0), 0.0))
    b = tuple(float(x) for x in rng.uniform(-1.0, 1.0, q)) + (1.0,)
    return Model(label, _from_roots(roots), b, float(rng.uniform(0.5, 2.0)))


# Fixed repeated-root cases.  The triple root makes filter_coefficients raise
# NumericalError; the quadruple root gives silently wrong continuous-time
# values and a failed factorization.
DOUBLE = Model("double_root", (2.0, 1.0), (1.0,))
TRIPLE = Model("triple_root", (3.0, 3.0, 1.0), (1.0,))
QUADRUPLE = Model("quadruple_root", (4.0, 6.0, 4.0, 1.0), (1.0,))
NEAR_PAIR = Model("near_pair_1e-5", _from_roots([-1.0, -1.0 - 1e-5, -2.0]), (1.0,))
CARMA30 = Model("carma30", (6.0, 11.0, 6.0), (1.0,))


def _draw(seed: int) -> list:
    """One random model for every (p, q) with p <= 5 and q < p."""
    rng = np.random.default_rng([seed, 1])
    return [random_model(rng, p, q, f"random_p{p}q{q}") for p in range(1, 6) for q in range(p)]


def arma_chain(seed: int) -> list:
    """The seeded corpus: (model, delta) for a fresh draw of random models
    (so q = p - 1 is always present) plus the repeated and near-repeated
    root cases, each at every delta in ``ARMA_DELTAS``."""
    return [(m, d) for m in _draw(seed) + [DOUBLE, TRIPLE, QUADRUPLE, NEAR_PAIR] for d in ARMA_DELTAS]


#: Deltas at which the timed random models (the seed-0 draw) are timed: those
#: where the package's result is within 1e-8 of the oracle at the commit that
#: set up the benchmark, 100 times inside the judging tolerance, so a timed op
#: that fails is a regression.  Every (p, q) is timed at delta = 0.1 at least.
TIMED_DELTAS = {
    (1, 0): ARMA_DELTAS,
    (2, 0): ARMA_DELTAS,
    (2, 1): ARMA_DELTAS,
    (3, 0): (1e-1, 1e-2, 1e-3, 1e-4),
    (3, 1): ARMA_DELTAS,
    (3, 2): (1e-1, 1e-2, 1e-3, 1e-5),
    (4, 0): (1e-1, 1e-2),
    (4, 1): (1e-1, 1e-2, 1e-3),
    (4, 2): ARMA_DELTAS,
    (4, 3): (1e-1,),
    (5, 0): (1e-1,),
    (5, 1): (1e-1, 1e-2),
    (5, 2): (1e-1, 1e-2),
    (5, 3): (1e-1,),
    (5, 4): (1e-1,),
}


def timed_cases() -> list:
    """(model, delta) of the timed arma-chain ops; the same for every seed.

    The seed-0 draw at ``TIMED_DELTAS``, plus the double root and the near
    pair at every delta.
    """
    cases = [(m, d) for m in _draw(0) for d in TIMED_DELTAS[(m.p, m.q)]]
    return cases + [(m, d) for m in (DOUBLE, NEAR_PAIR) for d in ARMA_DELTAS]
