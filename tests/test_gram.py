"""Gram-coefficient layer: exact closed forms, the quadrature reference, the
wrap identity, and the Toeplitz/circulant matrix builders.

Closed-form oracles (independent derivations):
  exponential, h = 1, P = alpha = 1:
      gamma_0 = 2/e, gamma_1 = (1 - 1/e)^2
  squared-exponential, h = 0.7, P = 1, sigma = 1 (2-D quadrature oracle):
      gamma_0 = 0.672758233989, gamma_1 = 0.536603473916, gamma_2 = 0.272189049918
  triangular, h = 0.4, P = 1, tau0 = 1 (exact piecewise integrals):
      gamma = 26/75, 6/25, 1/12, 1/300, then exactly 0.
"""

import math
import sys

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial.hermite import hermval

from szegolab import (
    GramSequence,
    ModelKind,
    NonConvergedQuadrature,
    NumericalError,
    SamplingGrid,
    SpectralModel,
    gamma_sequence,
    toeplitz_matrix,
)
from szegolab.gram import _toeplitz_view
from szegolab.quadrature import _panel_sums, adaptive_gauss_legendre


# ---------------------------------------------------------------------------
# sampling grid
# ---------------------------------------------------------------------------
def test_grid_step():
    grid = SamplingGrid(T=10.0, n=4)
    assert grid.h == 2.5


@pytest.mark.parametrize(
    "T,n",
    [(0.0, 10), (-1.0, 10), (math.nan, 10), (math.inf, 10), (1.0, 0), (1.0, -3), (1.0, True)],
)
def test_grid_validation(T, n):
    with pytest.raises(ValueError):
        SamplingGrid(T=T, n=n)


# ---------------------------------------------------------------------------
# closed-form coefficients
# ---------------------------------------------------------------------------
def test_exponential_closed_form_oracle():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    gs = gamma_sequence(model, SamplingGrid(T=4.0, n=4))  # h = 1
    assert gs.gamma[0] == pytest.approx(2.0 / math.e, rel=1e-14)
    assert gs.gamma[1] == pytest.approx((1.0 - 1.0 / math.e) ** 2, rel=1e-14)
    # geometric decay thereafter: gamma_{l+1} = e^{-alpha h} gamma_l for l >= 1
    assert gs.gamma[2] == pytest.approx(gs.gamma[1] * math.exp(-1.0), rel=1e-13)


def test_exponential_scaling_in_power():
    grid = SamplingGrid(T=5.0, n=25)
    unit = gamma_sequence(SpectralModel.ornstein_uhlenbeck(1.0, 2.0), grid)
    scaled = gamma_sequence(SpectralModel.ornstein_uhlenbeck(3.0, 2.0), grid)
    assert np.allclose(scaled.gamma, 3.0 * unit.gamma, rtol=1e-15, atol=0.0)


def test_squared_exponential_closed_form_oracle():
    model = SpectralModel.gaussian_kernel(1.0, 1.0)
    gs = gamma_sequence(model, SamplingGrid(T=2.1, n=3))  # h = 0.7
    expected = [0.672758233989, 0.536603473916, 0.272189049918]
    assert np.allclose(gs.gamma, expected, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-6])
def test_squared_exponential_at_tiny_step(h):
    # Reference: the even Taylor series gamma_l = h sum_k 2 h^(2k) R^(2k)(l h) / (2k+2)!
    # with R(t) = exp(-t^2 / 2), whose derivatives are
    # R^(2k)(t) = 2^-k H_2k(t / sqrt 2) R(t) (physicists' Hermite H).  The
    # terms fall by about h^2 each, so four of them reach rounding; the closed
    # form's second difference lost 1.5e-10 relative at h = 1e-3.
    n = 30
    grid = SamplingGrid(T=n * h, n=n)
    x = grid.h * np.arange(n) / math.sqrt(2.0)
    reference = np.zeros(n)
    for k in range(4):
        deriv = 0.5**k * hermval(x, [0.0] * (2 * k) + [1.0]) * np.exp(-x * x)
        reference += 2.0 * grid.h ** (2 * k + 1) * deriv / math.factorial(2 * k + 2)
    gamma = gamma_sequence(SpectralModel.gaussian_kernel(1.0, 1.0), grid).gamma
    assert np.max(np.abs(gamma / reference - 1.0)) <= 1e-13


@pytest.mark.parametrize("ratio", [0.05, 0.1, 0.5])
def test_squared_exponential_tail_is_positive_and_decreasing(ratio):
    # The exact gamma_l is positive and strictly decreasing in l; the erf
    # closed form's rounding made tail entries negative at h = 0.05 sigma.
    model = SpectralModel.gaussian_kernel(1.0, 1.0)
    gamma = gamma_sequence(model, SamplingGrid(T=400 * ratio, n=400)).gamma
    assert np.all(gamma >= 0.0)
    assert np.all(np.diff(gamma) <= 0.0)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 3000])
def test_squared_exponential_lag_blocks_equal_one_panel_call(n):
    # below h = sigma the 16-point rule runs on blocks of 256 lags; each
    # lag's panel is summed on its own, so the blocks reproduce one call over
    # all n lags (an n x 16 node table) bit for bit
    power, s = 1.7, 1.3
    grid = SamplingGrid(T=0.05 * n, n=n)
    h, two_var = grid.h, 2.0 * s * s
    lag = h * np.arange(n, dtype=float)[:, None]

    def overlap(u):
        bump = np.exp(-((lag + u) ** 2) / two_var) + np.exp(-((lag - u) ** 2) / two_var)
        return bump * (h - u)

    expected = power * _panel_sums(overlap, np.zeros(n), np.full(n, h)) / h
    gamma = gamma_sequence(SpectralModel.gaussian_kernel(power, s), grid).gamma
    assert np.array_equal(gamma, expected)


def test_triangular_closed_form_oracle():
    model = SpectralModel.triangular(1.0, 1.0)
    gs = gamma_sequence(model, SamplingGrid(T=2.4, n=6))  # h = 0.4
    expected = [26.0 / 75.0, 6.0 / 25.0, 1.0 / 12.0, 1.0 / 300.0, 0.0, 0.0]
    assert np.allclose(gs.gamma, expected, rtol=1e-13, atol=1e-16)
    # beyond the support the coefficients vanish exactly
    assert gs.gamma[4] == 0.0 and gs.gamma[5] == 0.0


def test_zero_power_gives_zero_coefficients():
    for ctor in (
        SpectralModel.ornstein_uhlenbeck,
        SpectralModel.gaussian_kernel,
        SpectralModel.triangular,
    ):
        gs = gamma_sequence(ctor(0.0, 1.0), SamplingGrid(T=2.0, n=8))
        assert np.array_equal(gs.gamma, np.zeros(8))


# ---------------------------------------------------------------------------
# quadrature reference agrees with the closed forms
# ---------------------------------------------------------------------------
_MAX_PANELS = 4096  # panels one coefficient's quadrature may evaluate


def _gamma_quadrature(model: SpectralModel, grid: SamplingGrid) -> np.ndarray:
    """Reference gamma_0..gamma_{n-1} by adaptive quadrature, 1e-10 absolute
    per coefficient; raises NonConvergedQuadrature when the panel budget is
    exhausted."""
    h, n = grid.h, grid.n
    breakpoints = model.acf_breakpoints()
    out = np.empty(n)
    for l in range(n):
        a0, m, b0 = (l - 1) * h, l * h, (l + 1) * h
        cuts = sorted({a0, b0} | {b for b in (*breakpoints, m) if a0 < b < b0})

        def integrand(t):
            return model.acf(t) * (h - np.abs(t - m))

        # The double integral over the cell pair reduces exactly to this
        # one-dimensional overlap-weighted form; target 1e-10 absolute on
        # gamma_l means 1e-10 * h on the unnormalized integral.
        total, _ = adaptive_gauss_legendre(integrand, cuts, 1e-10 * h, _MAX_PANELS)
        out[l] = total / h
    return out


@pytest.mark.parametrize(
    "model",
    [
        SpectralModel(kind, power, scale)
        for kind in ModelKind
        for power, scale in ((1.0, 1.0), (2.0, 0.9))
    ],
)
def test_quadrature_matches_closed_form(model):
    grid = SamplingGrid(T=4.0, n=10)  # h = 0.4, spans kinks of every model
    closed = gamma_sequence(model, grid).gamma
    quad = _gamma_quadrature(model, grid)
    assert np.allclose(quad, closed, rtol=0.0, atol=1e-10)


def test_quadrature_budget_exhaustion_raises(monkeypatch):
    # a fast-decaying covariance on a wide cell needs many bisections; a
    # budget of one panel cannot reach the per-cell accuracy target
    monkeypatch.setattr(sys.modules[__name__], "_MAX_PANELS", 1)
    model = SpectralModel.ornstein_uhlenbeck(1.0, 50.0)
    with pytest.raises(NonConvergedQuadrature):
        _gamma_quadrature(model, SamplingGrid(T=8.0, n=2))


# ---------------------------------------------------------------------------
# sequence invariants
# ---------------------------------------------------------------------------
def test_wrap_identity_exact():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    gs = gamma_sequence(model, SamplingGrid(T=5.0, n=50))
    n = 50
    assert gs.gamma_hat[0] == gs.gamma[0]
    for l in range(1, n):
        assert gs.gamma_hat[l] == gs.gamma[l] + gs.gamma[n - l]


def test_coefficient_mass_bounded_by_acf_integral():
    cases = [
        (SpectralModel.ornstein_uhlenbeck(1.0, 1.0), 2.0),
        (SpectralModel.gaussian_kernel(1.0, 1.0), math.sqrt(2.0 * math.pi)),
        (SpectralModel.triangular(1.0, 1.0), 1.0),
    ]
    for model, integral in cases:
        for T, n in ((2.0, 2), (10.0, 20), (30.0, 600)):
            gs = gamma_sequence(model, SamplingGrid(T=T, n=n))
            # gamma_0 + 2 sum_{l>=1} |gamma_l| <= 2 integral |R|; the one-sided
            # sum used in the stored invariant is half of that.
            assert float(np.sum(np.abs(gs.gamma))) <= integral + 1e-9


def test_sequence_constructor_derives_the_wrap_and_validates_gamma():
    grid = SamplingGrid(T=2.0, n=4)
    gs = GramSequence(grid=grid, gamma=[4.0, 3.0, 2.0, 1.0])
    assert np.array_equal(gs.gamma_hat, [4.0, 4.0, 4.0, 4.0])
    for gamma in ([1.0, 2.0, 3.0], [1.0, 2.0, math.nan, 0.0]):
        with pytest.raises(ValueError):
            GramSequence(grid=grid, gamma=gamma)


@pytest.mark.parametrize(
    "model",
    [
        SpectralModel.ornstein_uhlenbeck(1.0, 1e300),  # sinh overflows
        SpectralModel.ornstein_uhlenbeck(1.0, 1e-300),  # h * rate^2 underflows to 0
        SpectralModel.gaussian_kernel(1.0, 1e-300),  # the second difference is nan
    ],
)
def test_non_finite_closed_form_is_a_numerical_error(model):
    # a family's closed form out of float64 range is a typed failure, with no
    # warning; GramSequence keeps its ValueError for sequences callers build
    with pytest.raises(NumericalError, match="non-finite Gram coefficient"):
        gamma_sequence(model, SamplingGrid(T=100.0, n=40))


def test_arrays_are_immutable():
    gs = gamma_sequence(SpectralModel.ornstein_uhlenbeck(1.0, 1.0), SamplingGrid(T=2.0, n=4))
    with pytest.raises(ValueError):
        gs.gamma[0] = 1.0


# ---------------------------------------------------------------------------
# small-step consistency: gamma_l / h -> R(l h)
# ---------------------------------------------------------------------------
def test_midstep_consistency_first_order():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    deviations = []
    for h in (0.2, 0.1, 0.05):
        grid = SamplingGrid(T=h * 40, n=40)
        gs = gamma_sequence(model, grid)
        acf_at_nodes = model.acf(h * np.arange(40))
        dev = float(np.max(np.abs(gs.gamma / h - acf_at_nodes)))
        # bounded by C h with C = P * alpha (Lipschitz constant of R)
        assert dev <= model.power * model.scale * h
        deviations.append(dev)
    # at least first-order shrinkage under halving
    assert deviations[1] <= 0.6 * deviations[0]
    assert deviations[2] <= 0.6 * deviations[1]


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------
def test_toeplitz_matrix_structure_and_psd():
    model = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    gs = gamma_sequence(model, SamplingGrid(T=10.0, n=200))
    A = toeplitz_matrix(gs)
    assert A.shape == (200, 200)
    assert np.array_equal(A, A.T)
    assert np.array_equal(A, scipy.linalg.toeplitz(gs.gamma))
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= -1e-9 * gs.gamma[0]
    for n in (1, 2, 7):
        small = gamma_sequence(model, SamplingGrid(T=1.0, n=n))
        A = toeplitz_matrix(small)
        assert np.array_equal(A, scipy.linalg.toeplitz(small.gamma))
        assert A.flags.writeable and A.flags.c_contiguous


@pytest.mark.parametrize("n", [1, 2, 7])
def test_toeplitz_view_is_a_read_only_view_of_the_lags(n):
    row = np.arange(1.0, n + 1.0) ** 2
    view = _toeplitz_view(row)
    assert view.shape == (n, n)
    assert np.array_equal(view, scipy.linalg.toeplitz(row))
    assert not view.flags.writeable and not view.flags.owndata


def test_circulant_matrix_first_row():
    model = SpectralModel.triangular(1.0, 1.0)
    gs = gamma_sequence(model, SamplingGrid(T=2.0, n=8))
    gamma = gs.gamma
    expected = np.concatenate(([gamma[0]], gamma[1:] + gamma[:0:-1]))
    assert np.array_equal(gs.gamma_hat, expected)
    with pytest.raises(ValueError):
        gs.gamma_hat[0] = -1.0  # the first row of the frozen sequence is read-only
    assert gs.gamma_hat[0] == gamma[0]
