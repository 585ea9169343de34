"""Pole-sum approximation of lambda**(-s).

The fractional solver rests on replacing lambda**(-s) by C * sum a_l / (c_l +
b_l lambda).  This script shows how the number of poles N and the uniform
error bound depend on the fineness parameter kappa, and verifies the bound
numerically on a log grid.
"""

import numpy as np

from fracadapt import DomainSpec, bp_coefficients, eval_Q, faber_krahn_lambda0

lambda0 = faber_krahn_lambda0(DomainSpec("square"))
print(f"guaranteed spectral lower bound on (-1,1)^2: lambda0 = {lambda0:.4f}\n")

print("pole counts at the production value kappa = 0.26:")
for s in (0.1, 0.3, 0.5, 0.7, 0.9):
    scheme = bp_coefficients(s, 0.26, lambda0)
    print(f"  s = {s:.1f}:  N = {scheme.N:4d}   error bound = {scheme.epsilon:.2e}")

print("\ntrade-off at s = 0.5 (coarser kappa -> fewer poles, weaker bound):")
lam = np.logspace(np.log10(lambda0), 8, 200)
for kappa in (0.50, 0.35, 0.26, 0.20):
    scheme = bp_coefficients(0.5, kappa, lambda0)
    measured = np.abs(lam**-0.5 - eval_Q(scheme, lam)).max()
    print(
        f"  kappa = {kappa:.2f}:  N = {scheme.N:4d}   bound = {scheme.epsilon:.2e}"
        f"   measured max error = {measured:.2e}"
    )

# the diffusion-to-reaction ratios b_l / c_l = exp(2 kappa j) span an enormous
# range; this is why each parametric problem wants its own mesh
scheme = bp_coefficients(0.5, 0.26, lambda0)
exponent = np.log(scheme.b / scheme.c)
print(
    f"\nb_l / c_l = exp(2 kappa j) at kappa = 0.26, s = 0.5: "
    f"exponents 2 kappa j from {exponent.min():.2f} to {exponent.max():.2f}"
)
