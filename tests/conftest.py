import numpy as np
import pytest
from mpmath import mp

from carmahf import CarmaModel


@pytest.fixture
def ou():
    return CarmaModel([1.0], [1.0])


@pytest.fixture
def carma20():
    return CarmaModel([3.0, 2.0], [1.0])


@pytest.fixture
def carma21():
    # Corpus model from the acceptance suite; a and b share the zero -1, which
    # is harmless for every second-order quantity computed here.
    return CarmaModel([3.0, 2.0], [1.0, 1.0])


@pytest.fixture
def carma30():
    return CarmaModel([6.0, 11.0, 6.0], [1.0])  # roots -1, -2, -3


def corpus():
    return [
        CarmaModel([3.0, 2.0], [1.0, 1.0]),
        CarmaModel([3.0, 2.0], [1.0]),
        CarmaModel([6.0, 11.0, 6.0], [1.0]),
    ]


def random_stable_model(rng, p_max=4):
    p = int(rng.integers(1, p_max + 1))
    roots = []
    while len(roots) < p:
        if p - len(roots) >= 2 and rng.random() < 0.5:
            re = -rng.uniform(0.3, 3.0)
            im = rng.uniform(0.3, 3.0)
            roots += [complex(re, im), complex(re, -im)]
        else:
            roots.append(complex(-rng.uniform(0.3, 3.0), 0.0))
    a_poly = np.real(np.poly(np.array(roots)))  # descending, monic
    a = a_poly[1:]
    q = int(rng.integers(0, p))
    b = np.concatenate([rng.uniform(-1.0, 1.0, q), [1.0]])
    return CarmaModel(a, b, sigma2=float(rng.uniform(0.5, 2.0)))


# Residue formulas for distinct AR roots, evaluated in 50-digit arithmetic: an
# independent reference for the library's matrix-exponential routes.


def _residue_terms(model):
    """(lambda, b(lambda)/a'(lambda), b(lambda) b(-lambda) / (a'(lambda) a(-lambda))) per root."""
    a = [1.0, *model.a]  # descending coefficients
    b = list(model.b[::-1])
    terms = []
    for z in mp.polyroots(a, maxsteps=200, extraprec=mp.prec):
        da = mp.polyval(a, z, derivative=True)[1]
        bz = mp.polyval(b, z)
        terms.append((z, bz / da, bz * mp.polyval(b, -z) / (da * mp.polyval(a, -z))))
    return terms


def residue_kernel(model, ts):
    """g(t) = sum_lambda b(lambda)/a'(lambda) e^(lambda t) for t >= 0."""
    with mp.workdps(50):
        terms = _residue_terms(model)
        return np.array([float(mp.re(sum(w * mp.exp(z * t) for z, w, _ in terms))) for t in ts])


def residue_acvf(model, hs):
    """gamma_Y(h) = sigma2 * sum_lambda c_lambda e^(lambda |h|)."""
    with mp.workdps(50):
        terms = _residue_terms(model)
        return np.array(
            [float(model.sigma2 * mp.re(sum(c * mp.exp(z * abs(h)) for z, _, c in terms))) for h in hs]
        )


def residue_sampled_density(model, delta, omegas):
    """f_Delta(w) = -sigma2/(2 pi) sum_lambda c_lambda sinh(lambda delta) / (cosh(lambda delta) - cos w)."""
    with mp.workdps(50):
        terms = _residue_terms(model)
        d = mp.mpf(delta)
        out = []
        for w in omegas:
            s = sum(c * mp.sinh(z * d) / (mp.cosh(z * d) - mp.cos(w)) for z, _, c in terms)
            out.append(float(-model.sigma2 / (2 * mp.pi) * mp.re(s)))
        return np.array(out)
