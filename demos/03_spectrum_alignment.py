"""Wrapped-spectrum / spectral-density alignment.

The m-th circulant eigenvalue approximates the scaled spectral density
2*pi*f at the discrete frequency 2*pi*m/T.  This demo tabulates the two
side by side and measures the interior sup-gap, then shows what actually
controls that gap: the step size h, not the horizon T.

Run:  python demos/03_spectrum_alignment.py
"""

import math

import numpy as np

from szegolab import (
    SamplingGrid,
    SpectralModel,
    circulant_eigs,
    gamma_sequence,
    psd_alignment_sup,
)

model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
grid = SamplingGrid(T=100.0, n=4000)
gs = gamma_sequence(model, grid)
spec = circulant_eigs(gs.gamma_hat, grid)

print("wrapped-spectrum values against the scaled density 2*pi*f(2*pi*m/T):")
print(f"{'m':>6} {'frequency':>12} {'psiHat_m':>14} {'2*pi*f':>14} {'absDiff':>12}")
for m in (1, 10, 100, 500, 1000, 1999):
    lam = 2.0 * math.pi * m / grid.T
    psi = float(spec.dft_values[m])
    target = 2.0 * math.pi * float(model.psd(np.array([lam]))[0])
    print(f"{m:>6} {lam:>12.4f} {psi:>14.8e} {target:>14.8e} {abs(psi - target):>12.4e}")

print("\ninterior sup-gap sup_{0 < m < n/2} |psiHat_m - 2*pi*f(2*pi*m/T)|:")
rows = [
    (100.0, 4000),   # baseline, h = 0.025
    (200.0, 8000),   # horizon and count doubled, same h
    (100.0, 8000),   # count doubled at the same horizon, h halved
]
base = None
for T, n in rows:
    point = SamplingGrid(T=T, n=n)
    psi_hat = circulant_eigs(gamma_sequence(model, point).gamma_hat, point).dft_values
    sup = psd_alignment_sup(model, point, psi_hat)
    note = ""
    if base is None:
        base = sup
    else:
        note = f"   ratio vs baseline: {sup / base:.4f}"
    print(f"  T = {T:>5g}, n = {n:>5}, h = {T / n:g}: {sup:.6e}{note}")

print(
    "\nDoubling horizon and count together keeps h fixed and the gap does not\n"
    "move; halving h at the same horizon cuts the gap by ~4x.  The alignment\n"
    "error is a second-order function of the step size."
)
