"""Spectral layer: circulant eigenvalues (two routes), dense eigensolve,
Cholesky log-det, the O(n^2) Levinson/Schur log-dets and displacement traces
against those dense reference routes, trace powers, and the norm diagnostics.

The norm_report oracle recomputes every quantity from first principles:
the theta-grid bound by direct exactly-summed cosine series, the Frobenius
mass from the dense matrix, and the wrap difference from the dense circulant.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from szegolab import (
    DEFAULT_SCHEDULE,
    AsymmetryError,
    ConvergenceSchedule,
    NotPositiveDefinite,
    SamplingGrid,
    SpectralModel,
    SpectrumResult,
    circulant_eigs,
    gamma_sequence,
    mi_levinson,
    mi_logdet,
    mi_schur,
    norm_report,
    psd_alignment_sup,
    rate_convergence,
    toeplitz_eigs,
    toeplitz_matrix,
    toeplitz_traces,
    trace_power,
)

MODELS = {
    "ou": SpectralModel.ornstein_uhlenbeck(1.0, 1.0),
    "gauss": SpectralModel.gaussian_kernel(1.0, 1.0),
    "tri": SpectralModel.triangular(1.0, 1.0),
}


def _wrap_symmetric_row(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    row = rng.normal(size=n)
    row[1:] = 0.5 * (row[1:] + row[:0:-1])
    return row


# ---------------------------------------------------------------------------
# circulant spectra
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 33, 64])
def test_fft_route_matches_direct_route(n):
    row = _wrap_symmetric_row(n, seed=n)
    fast = circulant_eigs(row, method="fft")
    direct = circulant_eigs(row, method="direct")
    scale = max(1.0, float(np.max(np.abs(direct.dft_values))))
    assert np.max(np.abs(fast.dft_values - direct.dft_values)) <= 1e-10 * scale


def test_circulant_matches_dense_eigendecomposition():
    row = _wrap_symmetric_row(16, seed=3)
    spec = circulant_eigs(row)
    dense = np.sort(np.linalg.eigvalsh(scipy.linalg.circulant(row)))
    assert np.allclose(spec.eigenvalues, dense, rtol=1e-12, atol=1e-12)


def test_wrap_asymmetry_rejected():
    row = _wrap_symmetric_row(12, seed=1)
    row[3] += 1e-6
    with pytest.raises(AsymmetryError):
        circulant_eigs(row)


def test_circulant_method_validation():
    with pytest.raises(ValueError):
        circulant_eigs(np.ones(4), method="magic")


# ---------------------------------------------------------------------------
# SpectrumResult invariants
# ---------------------------------------------------------------------------
def test_spectrum_result_requires_sorted_finite():
    with pytest.raises(ValueError):
        SpectrumResult(source="toeplitz", eigenvalues=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        SpectrumResult(source="toeplitz", eigenvalues=np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        SpectrumResult(source="toeplitz", eigenvalues=np.array([]))
    with pytest.raises(ValueError):
        SpectrumResult(source="other", eigenvalues=np.array([1.0]))


# ---------------------------------------------------------------------------
# dense symmetric eigensolve
# ---------------------------------------------------------------------------
def test_toeplitz_eigs_matches_reference():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(30, 30))
    M = 0.5 * (M + M.T)
    spec = toeplitz_eigs(M)
    assert np.allclose(spec.eigenvalues, np.linalg.eigvalsh(M), rtol=1e-12, atol=1e-12)


def test_toeplitz_eigs_rejects_nonsymmetric_and_nonfinite():
    with pytest.raises(ValueError):
        toeplitz_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        toeplitz_eigs(np.array([[1.0, math.inf], [math.inf, 1.0]]))
    with pytest.raises(ValueError):
        toeplitz_eigs(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# log-det mutual information
# ---------------------------------------------------------------------------
def test_mi_logdet_two_by_two_closed_form():
    a, b = 0.9, 0.4
    A = np.array([[a, b], [b, a]])
    expected = 0.5 * math.log((1.0 + a) ** 2 - b * b)
    assert mi_logdet(A) == pytest.approx(expected, rel=1e-14)


def test_mi_logdet_matches_slogdet():
    rng = np.random.default_rng(11)
    B = rng.normal(size=(25, 25))
    A = B @ B.T / 25.0
    sign, logabs = np.linalg.slogdet(np.eye(25) + A)
    assert sign == 1.0
    assert mi_logdet(A) == pytest.approx(0.5 * logabs, rel=1e-12)


def test_mi_logdet_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        mi_logdet(np.array([[-2.0, 0.0], [0.0, -2.0]]))


# ---------------------------------------------------------------------------
# O(n^2) Toeplitz routes vs the dense reference routes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 50, 300])
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_fast_toeplitz_routes_match_dense_references(kind, n):
    gs = gamma_sequence(MODELS[kind], SamplingGrid(T=0.05 * n, n=n))
    A = toeplitz_matrix(gs)
    reference = mi_logdet(A)
    eig_sum = 0.5 * math.fsum(np.log1p(toeplitz_eigs(A).eigenvalues).tolist())
    for value in (mi_levinson(gs.gamma), mi_schur(gs.gamma), eig_sum):
        assert value == pytest.approx(reference, rel=1e-12)
    for k, trace in zip((2, 3, 4), toeplitz_traces(gs.gamma)):
        assert trace == pytest.approx(trace_power(A, k, method="direct"), rel=1e-12)


def test_levinson_matches_eigenvalue_sum_on_default_schedule(ou11, schedule_spectra):
    assert [grid for grid, _ in schedule_spectra] == list(DEFAULT_SCHEDULE.grids())
    for grid, spectrum in schedule_spectra:
        eig_sum = 0.5 * float(np.sum(np.log1p(spectrum.eigenvalues)))
        fast = mi_levinson(gamma_sequence(ou11, grid).gamma)
        assert fast == pytest.approx(eig_sum, rel=1e-10)


def test_fast_routes_give_exact_zeros_at_zero_power():
    silent = SpectralModel.ornstein_uhlenbeck(0.0, 1.0)
    gamma = gamma_sequence(silent, SamplingGrid(T=2.0, n=40)).gamma
    assert mi_levinson(gamma) == 0.0
    assert mi_schur(gamma) == 0.0
    assert toeplitz_traces(gamma) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("route", [mi_levinson, mi_schur])
def test_fast_logdets_reject_indefinite(route):
    with pytest.raises(NotPositiveDefinite):
        route([1.0, 2.0, 0.0])


@pytest.mark.parametrize("route", [mi_levinson, mi_schur, toeplitz_traces])
@pytest.mark.parametrize("gamma", [[], [[1.0, 0.5]], [1.0, math.nan]])
def test_fast_routes_validate_gamma(route, gamma):
    with pytest.raises(ValueError):
        route(gamma)


def test_study_point_allocates_no_dense_matrix():
    # The dense route allocates two 3000 x 3000 float64 matrices (>= 144 MB).
    schedule = ConvergenceSchedule(((150.0, 3000),))
    tracemalloc.start()
    try:
        rate_convergence(MODELS["ou"], schedule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# trace powers
# ---------------------------------------------------------------------------
def test_trace_power_routes_agree():
    rng = np.random.default_rng(7)
    B = rng.normal(size=(40, 40))
    M = 0.5 * (B + B.T)
    for k in (1, 2, 3, 4):
        via_eigs = trace_power(M, k)
        via_matmul = trace_power(M, k, method="direct")
        assert via_eigs == pytest.approx(via_matmul, rel=1e-8)


def test_trace_power_on_spectrum_and_vector():
    spec = SpectrumResult(source="circulant", eigenvalues=np.array([1.0, 2.0, 3.0]))
    assert trace_power(spec, 2) == 14.0
    assert trace_power(np.array([1.0, 2.0, 3.0]), 3) == 36.0


def test_trace_power_validation():
    with pytest.raises(ValueError):
        trace_power(np.eye(2), 0)
    with pytest.raises(ValueError):
        trace_power(np.eye(2), 2, method="magic")


# ---------------------------------------------------------------------------
# norm diagnostics vs first-principles oracle
# ---------------------------------------------------------------------------
def _norm_oracle(gs):
    gamma = gs.gamma
    n = gamma.size
    # theta-grid symbol bound by direct exactly-summed cosine series
    best = 0.0
    for j in range(4 * n):
        theta = 2.0 * math.pi * j / (4 * n)
        terms = [gamma[0]] + [2.0 * gamma[l] * math.cos(l * theta) for l in range(1, n)]
        best = max(best, abs(math.fsum(terms)))
    A = toeplitz_matrix(gs)
    frob = float(np.sum(A * A)) / gs.grid.T
    Ahat = scipy.linalg.circulant(gs.gamma_hat).T  # symmetric; transpose irrelevant
    wrap = float(np.sum((A - Ahat) ** 2)) / gs.grid.T
    return best, frob, wrap


@pytest.mark.parametrize(
    "model,T,n",
    [
        (SpectralModel.ornstein_uhlenbeck(1.0, 1.0), 5.0, 40),
        (SpectralModel.gaussian_kernel(1.0, 1.0), 6.0, 30),
        (SpectralModel.triangular(1.0, 1.0), 4.0, 25),
    ],
)
def test_norm_report_matches_oracle(model, T, n):
    gs = gamma_sequence(model, SamplingGrid(T=T, n=n))
    report = norm_report(gs)
    best, frob, wrap = _norm_oracle(gs)
    assert report.op_norm_bound == pytest.approx(best, rel=1e-13, abs=1e-15)
    assert report.frob_sq_over_t == pytest.approx(frob, rel=1e-12)
    assert report.wrap_diff_frob_sq_over_t == pytest.approx(wrap, rel=1e-12, abs=1e-15)


def test_grid_bound_dominates_circulant_spectrum():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    for T, n in ((10.0, 100), (25.0, 500)):
        grid = SamplingGrid(T=T, n=n)
        gs = gamma_sequence(model, grid)
        report = norm_report(gs)
        psi_hat = circulant_eigs(gs.gamma_hat, grid).dft_values
        assert float(np.max(np.abs(psi_hat))) <= report.op_norm_bound + 1e-12


def test_op_norm_bound_stays_below_symbol_supremum():
    # For the unit exponential model the symbol increases to its supremum
    # 2 pi f(0) = 2 at theta = 0 from below (the missing tail mass is
    # ~ e^{-T}), so the correctly rounded grid bound must never cross 2.0
    # even when the margin is far below double resolution.
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    for T, n in ((10.0, 100), (25.0, 500), (100.0, 4000)):
        report = norm_report(gamma_sequence(model, SamplingGrid(T=T, n=n)))
        assert report.op_norm_bound <= 2.0


def test_trace_equality_of_first_power():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    grid = SamplingGrid(T=5.0, n=50)
    gs = gamma_sequence(model, grid)
    # equal diagonals: first-power traces of the two companions are identical
    A = toeplitz_matrix(gs)
    Ahat = scipy.linalg.circulant(gs.gamma_hat)
    assert float(np.trace(A)) == float(np.trace(Ahat))


# ---------------------------------------------------------------------------
# spectrum / spectral-density alignment
# ---------------------------------------------------------------------------
def test_psd_alignment_fine_point_oracle():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    grid = SamplingGrid(T=100.0, n=4000)
    sup = psd_alignment_sup(model, grid)
    assert sup == pytest.approx(1.0300490e-4, rel=1e-5)


def test_psd_alignment_quarters_when_n_doubles_at_fixed_T():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    coarse = psd_alignment_sup(model, SamplingGrid(T=100.0, n=4000))
    fine = psd_alignment_sup(model, SamplingGrid(T=100.0, n=8000))
    assert fine / coarse == pytest.approx(0.25, abs=0.05)


def test_psd_alignment_empty_range_is_nan():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    assert math.isnan(psd_alignment_sup(model, SamplingGrid(T=1.0, n=2)))
