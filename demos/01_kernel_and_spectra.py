"""Kernel, autocovariance, and spectral densities of a CARMA(2,1) model.

Walks through the continuous-time second-order objects: the causal kernel
g(t), the autocovariance function, and the continuous, sampled, and filtered
spectral densities on a grid size delta.

Run:  python3 demos/01_kernel_and_spectra.py
"""

import numpy as np

import carmahf as chf

model = chf.CarmaModel(a=[3.0, 2.0], b=[1.5, 1.0], sigma2=1.0, label="carma21")
chf.validate(model)
print(f"model: p={model.p}, q={model.q}, sigma2={model.sigma2}")

# --- the causal kernel g(t) = b' e^{At} e_p for t > 0 ------------------------
print("\nkernel g(t):")
for t in (0.0, 0.25, 1.0, 3.0):
    print(f"  g({t:4.2f}) = {chf.kernel_values(model, t):+.6f}")

# near t = 0 the kernel starts at b_q-normalized height 1 for p - q = 1
print(f"  g(0+) (derivative order 0) = {chf.kernel_derivative_at_zero(model, 0):.6f}")

# --- autocovariance ----------------------------------------------------------
print("\nautocovariance gamma_Y(h):")
for h in (0.0, 0.5, 1.0, 2.0):
    print(f"  gamma({h:3.1f}) = {chf.acvf_continuous(model, h):+.6f}")

# --- spectral densities ------------------------------------------------------
delta = 0.1
w = np.array([0.5, 1.5, 3.0])
print(f"\nspectral densities at omega = {w} (delta = {delta}):")
print("  continuous :", chf.spectral_density_continuous(model, w))
print("  sampled    :", chf.spectral_density_sampled(model, delta, w))
print("  filtered   :", chf.spectral_density_filtered(model, delta, w))

# the filtered density is the sampled density times the power transfer
psi = chf.power_transfer(model, delta, w)
print("  psi * sampled matches filtered:",
      np.allclose(psi * chf.spectral_density_sampled(model, delta, w),
                  chf.spectral_density_filtered(model, delta, w)))

# integrating the continuous spectrum recovers gamma_Y(0) (trapezoid rule, step 0.01)
x = np.linspace(0.0, 300.0, 30001)
f = chf.spectral_density_continuous(model, x)
val = (x[1] - x[0]) * (f.sum() - (f[0] + f[-1]) / 2)
print(f"\n2 * int_0^300 f_Y = {2 * val:.6f} vs gamma_Y(0) = "
      f"{chf.acvf_continuous(model, 0.0):.6f}")
