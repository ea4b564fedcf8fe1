"""Spectral layer: circulant eigenvalues (two routes), the split Toeplitz
eigensolve, Cholesky log-det, the O(n^2) Levinson/Schur log-dets and
displacement traces against the dense reference routes, and the norm
diagnostics.

The norm_report oracle recomputes every quantity from first principles:
the theta-grid bound by direct exactly-summed cosine series, the Frobenius
mass from the dense matrix, and the wrap difference from the dense circulant.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from szegolab import (
    DEFAULT_SCHEDULE,
    AsymmetryError,
    ConvergenceSchedule,
    ModelKind,
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
)
from szegolab.spectra import _CHECK_ROWS, _toeplitz_row_eigs

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
def _direct_dft(row: np.ndarray, block: int = 256) -> np.ndarray:
    """Reference O(n^2) real transform: psiHat_m = sum_k row_k cos(2pi m k/n)."""
    n = row.size
    k = np.arange(n)
    out = np.empty(n)
    for start in range(0, n, block):
        m = np.arange(start, min(start + block, n))
        out[start : start + m.size] = np.cos((2.0 * math.pi / n) * np.outer(m, k)) @ row
    return out


@pytest.mark.parametrize("n", [1, 2, 33, 64])
def test_fft_route_matches_direct_route(n):
    row = _wrap_symmetric_row(n, seed=n)
    fast = circulant_eigs(row).dft_values
    direct = _direct_dft(row)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(fast - direct)) <= 1e-10 * scale


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


# ---------------------------------------------------------------------------
# SpectrumResult invariants
# ---------------------------------------------------------------------------
def test_spectrum_result_requires_sorted_finite():
    with pytest.raises(ValueError):
        SpectrumResult(eigenvalues=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        SpectrumResult(eigenvalues=np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        SpectrumResult(eigenvalues=np.array([]))


# ---------------------------------------------------------------------------
# symmetric Toeplitz eigensolve (centrosymmetric split)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 3, 30, 31, 257, 258])
def test_toeplitz_eigs_matches_reference(n):
    row = np.random.default_rng(n).normal(size=n)
    A = scipy.linalg.toeplitz(row)
    spec = toeplitz_eigs(A)
    assert np.allclose(spec.eigenvalues, np.linalg.eigvalsh(A), rtol=1e-12, atol=1e-12)


def test_toeplitz_eigs_rejects_nonsymmetric_and_nonfinite():
    with pytest.raises(ValueError):
        toeplitz_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        toeplitz_eigs(np.array([[1.0, math.inf], [math.inf, 1.0]]))
    with pytest.raises(ValueError):
        toeplitz_eigs(np.ones((2, 3)))


def test_blockwise_toeplitz_check_decides_as_the_whole_matrix_check():
    # The check runs in row blocks; its verdict must be the one-shot
    # max|A - toeplitz(A[0])| > 1e-12 * max(1, max|A|) at every position, in
    # the first row, the first block and the ragged last one, just below and
    # above the tolerance, for one-sided and symmetric bumps.
    rng = np.random.default_rng(8)
    n = _CHECK_ROWS + 45
    base = scipy.linalg.toeplitz(rng.normal(size=n))
    tol = 1e-12 * float(np.max(np.abs(base)))
    for i, j in [(0, n - 1), (n - 1, 3), (_CHECK_ROWS + 1, _CHECK_ROWS)]:
        for bump in (0.5 * tol, 2.0 * tol):
            for symmetric in (False, True):
                A = base.copy()
                A[i, j] += bump
                if symmetric:
                    A[j, i] += bump
                reference = float(np.max(np.abs(A - scipy.linalg.toeplitz(A[0])))) > (
                    1e-12 * max(1.0, float(np.max(np.abs(A))))
                )
                if reference:
                    with pytest.raises(ValueError, match="not symmetric Toeplitz"):
                        toeplitz_eigs(A)
                else:
                    toeplitz_eigs(A)
    # A symmetric bump off the corners leaves A symmetric, which the old
    # symmetry check accepted, but not Toeplitz.
    A = base.copy()
    A[5, 2] += 2.0 * tol
    A[2, 5] += 2.0 * tol
    assert np.array_equal(A, A.T)
    with pytest.raises(ValueError, match="not symmetric Toeplitz"):
        toeplitz_eigs(A)
    for bad in (math.nan, -math.inf):
        A = base.copy()
        A[n - 1, n - 1] = bad
        with pytest.raises(ValueError, match="finite"):
            toeplitz_eigs(A)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(ModelKind)),
    power=st.floats(0.01, 100.0),
    scale=st.floats(0.05, 20.0),
    T=st.floats(0.5, 100.0),
    n=st.integers(1, 400),
)
def test_centrosymmetric_and_full_eigensolves_agree(kind, power, scale, T, n):
    gamma = gamma_sequence(SpectralModel(kind, power, scale), SamplingGrid(T=T, n=n)).gamma
    split = _toeplitz_row_eigs(gamma).eigenvalues
    full = np.linalg.eigvalsh(scipy.linalg.toeplitz(gamma))
    assert np.max(np.abs(split - full)) <= 1e-12 * float(np.max(np.abs(full)))
    split_sum = math.fsum(np.log1p(split).tolist())
    full_sum = math.fsum(np.log1p(full).tolist())
    assert split_sum == pytest.approx(full_sum, rel=1e-12)


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


def test_mi_logdet_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        mi_logdet(np.array([[1.0, math.nan], [math.nan, 1.0]]))


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
        assert trace == pytest.approx(np.trace(np.linalg.matrix_power(A, k)), rel=1e-12)


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


def _stepwise_kernels(gamma):
    # the three O(n^2) recursions as they stood with one temporary per step,
    # the reference that the scratch-buffer kernels must reproduce bit for bit
    c = gamma.copy()
    c[0] += 1.0
    n = c.size
    kappa, a, err = np.empty(n - 1), np.empty(n - 1), c[0]
    for k in range(1, n):
        pred = a[: k - 1]
        kap = -(c[k] + float(pred @ c[k - 1 : 0 : -1])) / err
        pred += kap * pred[::-1]
        a[k - 1] = kappa[k - 1] = kap
        err *= 1.0 - kap * kap
    terms = np.arange(n - 1, 0, -1, dtype=float) * np.log1p(-kappa * kappa)
    levinson = 0.5 * math.fsum([n * math.log(c[0]), *terms.tolist()])
    u, v = c.copy(), c.copy()
    v[0] = 0.0
    logs = np.empty(n)
    for k in range(n):
        uk, vk = u[k:], v[k:]
        rho = vk[0] / uk[0]
        rotated = uk - rho * vk
        vk -= rho * uk
        logs[k] = math.log(rotated[0])
        u[k + 1 :] = rotated[:-1]
    schur = 0.5 * math.fsum(logs.tolist())
    sym = np.concatenate((gamma[:0:-1], gamma))
    first = np.correlate(sym, gamma, "valid")[::-1]
    row, rows = first.copy(), (n + 1) // 2
    dots3, dots4 = np.empty(rows), np.empty(rows)
    for i in range(rows):
        dots3[i] = row @ sym[n - 1 - i : 2 * n - 1 - i]
        dots4[i] = row @ row
        if i + 1 < rows:
            row[1:] = row[:-1] + gamma[i + 1] * gamma[1:] - gamma[n - 1 - i] * gamma[:0:-1]
            row[0] = first[i + 1]
    weights = np.full(rows, 2.0)
    if n % 2:
        weights[-1] = 1.0
    traces = (
        math.fsum((weights * dots3).tolist()),
        math.fsum((weights * dots4).tolist()),
    )
    return levinson, schur, traces


@pytest.mark.parametrize("n", [1, 2, 3, 50, 51, 500])
@pytest.mark.parametrize("kind", MODELS)
def test_fast_routes_equal_their_stepwise_recursions(kind, n):
    gamma = gamma_sequence(MODELS[kind], SamplingGrid(T=0.05 * n, n=n)).gamma
    levinson, schur, traces = _stepwise_kernels(gamma)
    assert mi_levinson(gamma) == levinson
    assert mi_schur(gamma) == schur
    assert toeplitz_traces(gamma)[1:] == traces


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


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gaussian_study_point_holds_no_lag_by_node_table():
    # Below h = sigma the Gaussian gamma runs its 16-point rule on blocks of
    # 256 lags: one 3000 x 16 node table and its temporaries traced 1.56 MiB,
    # the largest transient of any ladder point.
    model, schedule = MODELS["gauss"], ConvergenceSchedule(((150.0, 3000),))
    assert _traced_peak(lambda: rate_convergence(model, schedule)) < 2**20
    grid = SamplingGrid(T=150.0, n=3000)
    assert _traced_peak(lambda: gamma_sequence(model, grid)) < 2**19


def test_norm_report_holds_half_the_symbol_grid():
    # The symbol on the 4n grid is real and even: a full complex FFT of it
    # traced 0.525 MiB at (150, 3000), the real FFT's bins 0..2n 0.296 MiB.
    gs = gamma_sequence(MODELS["gauss"], SamplingGrid(T=150.0, n=3000))
    norm_report(gs)  # fills numpy's FFT plan cache outside the measurement
    assert _traced_peak(lambda: norm_report(gs)) < 0.4 * 2**20


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
def _alignment(model, grid):
    dft = circulant_eigs(gamma_sequence(model, grid).gamma_hat, grid).dft_values
    return psd_alignment_sup(model, grid, dft)


def test_psd_alignment_fine_point_oracle():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    sup = _alignment(model, SamplingGrid(T=100.0, n=4000))
    assert sup == pytest.approx(1.0300490e-4, rel=1e-5)


def test_psd_alignment_quarters_when_n_doubles_at_fixed_T():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    coarse = _alignment(model, SamplingGrid(T=100.0, n=4000))
    fine = _alignment(model, SamplingGrid(T=100.0, n=8000))
    assert fine / coarse == pytest.approx(0.25, abs=0.05)


def test_psd_alignment_reads_the_given_spectrum():
    # a spectrum equal to 2pi f on the resolvable indices except one entry
    # offset by 0.25 has that offset as its sup; m = 0 and m >= n/2 are ignored
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    grid = SamplingGrid(T=4.0, n=9)
    m = np.arange(grid.n)
    dft = 2.0 * math.pi * np.asarray(model.psd(2.0 * math.pi * m / grid.T))
    dft[[0, 5, 8]] += 100.0
    assert psd_alignment_sup(model, grid, dft) == 0.0
    dft[2] += 0.25
    assert psd_alignment_sup(model, grid, dft) == pytest.approx(0.25, rel=1e-12)


def test_psd_alignment_empty_range_is_nan():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    assert math.isnan(_alignment(model, SamplingGrid(T=1.0, n=2)))
