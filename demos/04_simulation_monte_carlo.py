"""Monte Carlo verification of the analytic second-order structure.

Simulates CARMA sample paths (exact Gaussian transitions, and Euler with a
compound-Poisson driver), filters them, and compares empirical filtered
autocovariances with their analytic values using Bartlett standard errors.

Run:  python3 demos/04_simulation_monte_carlo.py
"""

import numpy as np

import carmahf as chf

model = chf.CarmaModel(a=[3.0, 2.0], b=[1.0, 1.0], sigma2=1.0, label="carma21")
delta, n = 0.1, 500_000

# --- exact Gaussian transitions ---------------------------------------------
res = chf.simulate_gaussian_exact(model, delta, n, seed=12345)
emp = chf.empirical_filtered_acvf(res, lags=3)  # filtered with res.model
exact = chf.acvf_filtered_sequence(model, delta, n_max=3)

print(f"exact-Gaussian path: n={n}, delta={delta}, seed={res.seed}")
print(f"{'lag':>3} | {'empirical':>12} | {'analytic':>12} | {'dev / SE':>8}")
for h in range(4):
    dev = (emp.values[h] - exact.values[h]) / emp.stderr[h]
    print(f"{h:3d} | {emp.values[h]:12.6e} | {exact.values[h]:12.6e} | {dev:8.2f}")

# --- compound-Poisson driver via Euler ---------------------------------------
driver = chf.DriverSpec(kind="compound_poisson", jump_rate=5.0, jump_dist="two_point")
res2 = chf.simulate_euler(model, delta, 200_000, substeps=64, driver=driver, seed=999)
emp2 = chf.empirical_filtered_acvf(res2, lags=1)

print("\ncompound-Poisson driver (same sigma2): second-order structure is unchanged")
print(f"{'lag':>3} | {'empirical':>12} | {'analytic':>12} | {'dev / SE':>8}")
for h in range(2):
    dev = (emp2.values[h] - exact.values[h]) / emp2.stderr[h]
    print(f"{h:3d} | {emp2.values[h]:12.6e} | {exact.values[h]:12.6e} | {dev:8.2f}")

# --- reproducibility ---------------------------------------------------------
res_b = chf.simulate_gaussian_exact(model, delta, n, seed=12345)
print("\nsame seed reproduces bit-identical paths:", np.array_equal(res.y, res_b.y))
seeds = chf.spawn_seeds(12345, 4)
print("independent child seeds for parallel paths:", seeds)
