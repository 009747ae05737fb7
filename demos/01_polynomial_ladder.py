"""From a deformation polynomial xi to the classification polynomial w.

The ladder: differentiate z^n xi(z) n times to get the density, invert the
unit-step difference to get its cumulative sum, and invert the half-step
difference n times on density(z + 1/2); dropping the terms below degree n
leaves z^(n-1) w. Everything is exact.
"""
from fractions import Fraction

from cherednik import (
    Poly,
    bernoulli,
    nabla,
    nabla_inverse,
    xi_to_density,
    xi_to_density_sum,
    xi_to_w,
)

half = Fraction(1, 2)

print("Bernoulli polynomials and the forward difference B_k(z+1) - B_k(z) = k z^(k-1):")
for k in range(5):
    print(f"  B_{k} = {bernoulli(k)!r:34}  step difference: {nabla(1, bernoulli(k))!r}")

print()
print("Inverting a step difference (constant term normalized to zero):")
p = Poly.of(0, 2)  # 2z
f = nabla_inverse(half, p)
print(f"  the unique f with f(z+1/2) - f(z-1/2) = {p!r} and f(0) = 0 is {f!r}")

print()
print("The ladder for a few deformations:")
for n, xi in [(1, Poly.of(0, 1)), (1, Poly.of(2)), (2, Poly.of(0, 1)), (3, Poly.of(0, 1))]:
    print(f"  rank n={n}, xi = {xi!r}")
    print(f"    density      = {xi_to_density(xi, n)!r}")
    print(f"    density sum  = {xi_to_density_sum(xi, n)!r}")
    print(f"    w            = {xi_to_w(xi, n)!r}   (degree = deg xi + 1)")

print()
print("The coefficients of w are the h-basis coefficients of the central")
print("character polynomial P(mu) = sum_k w_k h_k(mu + rho).")
