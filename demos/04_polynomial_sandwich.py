"""Two-sided polynomial bounds on the information rate.

log(1 + x) is awkward to control uniformly, but log(1 + x)/x is continuous on
a bounded eigenvalue range [0, C], so a Bernstein approximant of it — shifted
down and up by its own certified sup-error and multiplied back by x — yields
two polynomials p1 <= log(1 + x) <= p2 whose gap is exactly (2 * epsHat) * x.
Summed over the Gram spectrum, they bracket the sampled rate with a width
proportional to the scaled trace, uniformly in the matrix size.

Run:  python demos/04_polynomial_sandwich.py
"""

import numpy as np

from szegolab import (
    ConvergenceSchedule,
    SamplingGrid,
    SpectralModel,
    default_domain_max,
    gamma_sequence,
    sandwich_polynomials,
    sandwich_rate_bounds,
    toeplitz_eigs,
    toeplitz_matrix,
)

model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
C = default_domain_max(model)
print(f"eigenvalue domain cap: C = 2 * integral|R| = {C:g}")

for degree in (8, 16, 32, 64):
    pair = sandwich_polynomials(C, degree)
    print(f"  degree {degree:>3}: certified base error epsHat = {pair.eps_hat:.6e}")
pair = sandwich_polynomials(C, 64)

x = np.linspace(0.0, C, 5)
lo, up = pair.evaluate_pair(x)
print("\npointwise sandwich at a few eigenvalue values:")
print(f"{'x':>8} {'lower':>12} {'log1p(x)':>12} {'upper':>12}")
for xi, li, ti, ui in zip(x, lo, np.log1p(x), up):
    print(f"{xi:>8.3f} {li:>12.8f} {ti:>12.8f} {ui:>12.8f}")

print("\nrate bracket along the study schedule (degree 64):")
schedule = ConvergenceSchedule(((25.0, 500), (50.0, 1000), (100.0, 2000)))
print(f"{'T':>6} {'n':>6} {'lower':>12} {'rate':>12} {'upper':>12} {'width':>10}")
for grid in schedule.grids():
    spectrum = toeplitz_eigs(toeplitz_matrix(gamma_sequence(model, grid)), grid)
    lower, upper = sandwich_rate_bounds(pair, spectrum, grid.T)
    rate = float(np.sum(np.log1p(spectrum.eigenvalues))) / grid.T
    print(
        f"{grid.T:>6g} {grid.n:>6} {lower:>12.8f} {rate:>12.8f} {upper:>12.8f}"
        f" {upper - lower:>10.2e}"
    )
print(
    "\nThe width 2 * epsHat * tr(A)/T is horizon-stable because tr(A)/T\n"
    "converges; raising the degree tightens the bracket at will."
)
