"""Convergence of exact quantities to their small-delta limit formulas.

For the filtered spectral density and autocovariances the package provides
closed-form leading-order terms as delta -> 0.  This demo tabulates the
exact-to-asymptotic ratios over a sweep of grid sizes; they approach 1.

Run:  python3 demos/03_asymptotics_convergence.py
"""

import math
from fractions import Fraction

import numpy as np

import carmahf as chf

models = [
    chf.CarmaModel([3.0, 2.0], [1.0, 1.0], label="carma21"),
    chf.CarmaModel([3.0, 2.0], [1.0], label="carma20"),
    chf.CarmaModel([6.0, 11.0, 6.0], [1.0], label="carma30"),
]

for model in models:
    print(f"\n=== {model.label}: CARMA({model.p},{model.q}) ===")
    header = " | ".join(f"lag {n}" for n in range(model.p))
    print(f"{'delta':>8} | autocovariance ratios: {header}")
    for delta in (0.1, 0.03, 0.01, 0.003, 0.001):
        gamma = chf.acvf_filtered_sequence(model, delta).values
        ratios = [gamma[n] / chf.gamma_ma_asymptotic(model, delta, n) for n in range(model.p)]
        print(f"{delta:8.3f} | " + " | ".join(f"{r:9.5f}" for r in ratios))

    w = np.pi / 2
    print(f"{'delta':>8} | spectral ratio at omega = pi/2")
    for delta in (0.1, 0.01, 0.001):
        r = chf.spectral_density_filtered(model, delta, w) / chf.f_ma_asymptotic(
            model, delta, w
        )
        print(f"{delta:8.3f} | {r:9.5f}")

# the exact rational coefficients behind the autocovariance asymptotics: at
# sigma2 = delta = 1, gamma_MA(p-1) is the coefficient (-1)^q / (2(p-q)-1)!
print("\nexact top-lag coefficients (units sigma2 * delta^(2(p-q)-1)):")
for p, q in ((1, 0), (2, 1), (2, 0), (3, 0), (4, 0)):
    # a(z) = (z + 1)^p and b(z) = z^q: a stable, coprime model of orders (p, q)
    model = chf.CarmaModel([math.comb(p, k) for k in range(1, p + 1)], [0.0] * q + [1.0])
    c = Fraction(chf.gamma_ma_asymptotic(model, 1.0, p - 1)).limit_denominator()
    print(f"  p={p}, q={q}: gamma_MA({p - 1}) coefficient = {c}")
