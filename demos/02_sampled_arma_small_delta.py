"""ARMA representation of a sampled CARMA process as the grid shrinks.

Sampling a CARMA(p,q) process on a delta-grid and applying the annihilating
filter phi(B) = prod(1 - e^{lambda_j delta} B) leaves an MA(p-1) sequence.
This demo computes the exact filtered autocovariances, factorizes them into
(theta, tau2), and shows the convergence of theta to its closed-form limit.

Run:  python3 demos/02_sampled_arma_small_delta.py
"""

import numpy as np

import carmahf as chf

model = chf.CarmaModel(a=[3.0, 2.0], b=[1.0], sigma2=1.0, label="carma20")
print(f"CARMA({model.p},{model.q}), d = p - q = {model.p - model.q}")

lim = chf.limit_ma_model(model.p - model.q)
print(f"closed-form limit: theta = {lim.theta}, tau2 scale = {lim.tau2_scale:.10f}\n")

print(f"{'delta':>8} | {'theta_1':>12} | {'tau2 / (s2 d^3)':>16} | {'residual':>9}")
for delta in (0.5, 0.1, 0.02, 0.004, 0.001):
    arma = chf.sampled_arma(model, delta)  # arma.gamma holds the exact filtered covariances it factored
    res = chf.reconstruction_residual(arma)
    scale = arma.tau2 / (model.sigma2 * delta**3)
    print(f"{delta:8.3f} | {arma.theta[0]:12.8f} | {scale:16.10f} | {res:9.2e}")

print(f"\nlimit         | {lim.theta[0]:12.8f} | {lim.tau2_scale:16.10f} |")

# beyond lag p-1 the filtered covariances vanish: the sequence is MA(p-1)
extras = chf.acvf_filtered_sequence(model, 0.01, model.p + 2).values[model.p:]
print("filtered covariances at lags p, p+1, p+2:", np.array(extras))
