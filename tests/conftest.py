"""Shared fixtures: the expensive study artifacts are computed once per
session and reused by the unit and acceptance tests."""

from __future__ import annotations

import time

import pytest

from szegolab import (
    DEFAULT_SCHEDULE,
    SamplingGrid,
    SpectralModel,
    circulant_eigs,
    gamma_sequence,
    norm_report,
    psd_alignment_sup,
    rate_convergence,
    sample_paths,
    sandwich_polynomials,
)
from szegolab.spectra import _toeplitz_row_eigs


@pytest.fixture(scope="session")
def ou11():
    return SpectralModel.ornstein_uhlenbeck(1.0, 1.0)


@pytest.fixture(scope="session")
def default_study(ou11):
    """The full default-schedule convergence study plus its wall time."""
    start = time.perf_counter()
    report = rate_convergence(ou11, DEFAULT_SCHEDULE)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="session")
def pair64():
    return sandwich_polynomials(4.0, 64)


@pytest.fixture(scope="session")
def schedule_spectra(ou11):
    """Toeplitz spectra at the default schedule points, from the first row
    gamma alone (the route ``toeplitz_eigs`` runs on ``A[0]``)."""
    out = []
    for grid in DEFAULT_SCHEDULE.grids():
        gs = gamma_sequence(ou11, grid)
        out.append((grid, _toeplitz_row_eigs(gs.gamma, grid)))
    return tuple(out)


@pytest.fixture(scope="session")
def fine_diagnostics(ou11):
    """Wrap-difference and spectrum-alignment diagnostics at the fine
    operating point (100, 4000) and its doubled counterparts."""
    data = {}
    for T, n in ((100.0, 4000), (200.0, 8000), (100.0, 8000)):
        grid = SamplingGrid(T=T, n=n)
        gs = gamma_sequence(ou11, grid)
        psi_hat = circulant_eigs(gs.gamma_hat, grid).dft_values
        data[(T, n)] = {
            "norms": norm_report(gs),
            "alignment": psd_alignment_sup(ou11, grid, psi_hat),
        }
    return data


@pytest.fixture(scope="session")
def mc_batch(ou11):
    """The Monte-Carlo validation batch at its documented operating point."""
    return sample_paths(
        ou11, SamplingGrid(T=10.0, n=100), refine=8, paths=10_000, seed=42
    )
