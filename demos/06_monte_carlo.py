"""Monte-Carlo validation of the analytic Gram coefficients.

Everything else in the package flows through the analytic covariance
coefficients gamma_l.  This demo checks them against direct simulation:
sample the stationary signal on a refined grid, integrate it over each
sampling cell with the trapezoid rule, and compare the empirical normalized
covariances (with honest per-path standard errors) to the closed forms.
The batch is reproducible bit for bit from its seed — each block of paths
draws from its own stream, seeded by the seed and the block's index, so a
path's draws depend only on the seed and its index — and can be dumped to a
compact binary file for external analysis.

Run:  python demos/06_monte_carlo.py
"""

import os
import tempfile

import numpy as np

from szegolab import (
    SamplingGrid,
    SpectralModel,
    empirical_gram,
    gamma_sequence,
    noise_variance_ratio,
    read_batch,
    sample_paths,
    write_batch,
)

model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
grid = SamplingGrid(T=10.0, n=100)
batch = sample_paths(model, grid, refine=8, paths=4000, seed=42)
print(f"sampled {batch.paths} paths on a x{batch.refine} refined grid ({batch.generator})")

gamma = gamma_sequence(model, grid).gamma
lags = (0, 1, 2, 5, 10)
tilde, se = empirical_gram(batch, lags=lags)
print("\nempirical vs analytic normalized covariances:")
print(f"{'lag':>4} {'empirical':>14} {'analytic':>14} {'stdErr':>10} {'z':>7}")
for pos, lag in enumerate(lags):
    z = (tilde[pos] - gamma[lag]) / se[pos]
    print(f"{lag:>4} {tilde[pos]:>14.8e} {gamma[lag]:>14.8e} {se[pos]:>10.2e} {z:>7.2f}")

print(f"\nchannel-noise variance ratio (should be ~ 1): {noise_variance_ratio(batch):.4f}")

again = sample_paths(model, grid, refine=8, paths=4000, seed=42)
print("same seed reproduces the table bit for bit:",
      bool(np.array_equal(again.increments, batch.increments)))

with tempfile.TemporaryDirectory() as tmp:
    dump = os.path.join(tmp, "increments.szgl")
    write_batch(batch, dump)
    header, table = read_batch(dump)
    print(
        f"\nbinary dump round trip: {os.path.getsize(dump)} bytes, header {header}, "
        f"table intact: {bool(np.array_equal(table, batch.increments))}"
    )
