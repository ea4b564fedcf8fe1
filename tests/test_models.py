"""Model layer: autocovariances, spectral densities, and the spectral
functionals they must integrate to.

Oracle values are closed forms derived independently of the implementation:
for the exponential model with P = alpha = 1 the monomial functionals
(1/2pi) integral (2pi f)^q are 1, 1, 3/2, 5/2 for q = 1..4, and the log
functional is sqrt(3) - 1.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import szegolab.models

from szegolab import (
    ModelKind,
    NonConvergedQuadrature,
    SpectralModel,
    spectral_functional,
)
from szegolab import quadrature
from szegolab.models import (
    _GL3_NODES,
    _GL3_WEIGHTS,
    _algebraic_tail,
    _erf,
    _gaussian_power_tail,
)
from szegolab.quadrature import adaptive_gauss_legendre

SQRT3 = math.sqrt(3.0)
PARAMETERS = ((1.0, 1.0), (2.0, 0.7), (0.5, 3.0))  # (power, scale) pairs


def _all_models():
    return (
        SpectralModel.ornstein_uhlenbeck(1.0, 1.0),
        SpectralModel.gaussian_kernel(2.0, 0.7),
        SpectralModel.triangular(0.5, 1.3),
    )


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------
def test_constructors_set_kind_and_parameters():
    ou = SpectralModel.ornstein_uhlenbeck(2.0, 3.0)
    assert ou.kind is ModelKind.ORNSTEIN_UHLENBECK
    assert ou.power == 2.0 and ou.scale == 3.0
    gauss = SpectralModel.gaussian_kernel(1.0, 0.5)
    assert gauss.kind is ModelKind.GAUSSIAN_KERNEL and gauss.scale == 0.5
    tri = SpectralModel.triangular(1.0, 2.0)
    assert tri.kind is ModelKind.TRIANGULAR and tri.scale == 2.0


@pytest.mark.parametrize("power", [-1.0, math.nan, math.inf, True, "2"])
def test_invalid_power_rejected(power):
    with pytest.raises(ValueError):
        SpectralModel.ornstein_uhlenbeck(power, 1.0)


@pytest.mark.parametrize("scale", [0.0, -2.0, math.nan, math.inf])
def test_invalid_scale_rejected(scale):
    for ctor in (
        SpectralModel.ornstein_uhlenbeck,
        SpectralModel.gaussian_kernel,
        SpectralModel.triangular,
    ):
        with pytest.raises(ValueError):
            ctor(1.0, scale)


# ---------------------------------------------------------------------------
# autocovariance closed forms
# ---------------------------------------------------------------------------
def test_acf_is_exactly_even():
    tau = np.array([0.0, 0.1, 0.37, 1.0, 2.5, 17.0])
    for model in _all_models():
        assert np.array_equal(model.acf(tau), model.acf(-tau))


def test_acf_closed_forms():
    ou = SpectralModel.ornstein_uhlenbeck(2.0, 3.0)
    assert ou.acf(0.0) == 2.0
    assert ou.acf(0.5) == pytest.approx(2.0 * math.exp(-1.5), rel=1e-15)

    gauss = SpectralModel.gaussian_kernel(1.5, 2.0)
    assert gauss.acf(0.0) == 1.5
    assert gauss.acf(1.0) == pytest.approx(1.5 * math.exp(-0.125), rel=1e-15)

    tri = SpectralModel.triangular(1.0, 2.0)
    assert tri.acf(0.0) == 1.0
    assert tri.acf(1.0) == pytest.approx(0.5, rel=1e-15)
    assert tri.acf(2.0) == 0.0
    assert tri.acf(5.0) == 0.0


def test_psd_nonnegative_even_and_closed_forms():
    lam = np.linspace(-40.0, 40.0, 1001)
    for model in _all_models():
        values = model.psd(lam)
        assert np.all(values >= 0.0)
        assert np.array_equal(values, model.psd(-lam))

    ou = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    # 2pi f(lam) = 2 P alpha / (alpha^2 + lam^2)
    assert 2.0 * math.pi * ou.psd(0.0) == pytest.approx(2.0, rel=1e-14)
    assert 2.0 * math.pi * ou.psd(1.0) == pytest.approx(1.0, rel=1e-14)

    gauss = SpectralModel.gaussian_kernel(1.0, 1.0)
    # 2pi f(lam) = P sigma sqrt(2pi) exp(-sigma^2 lam^2 / 2)
    assert 2.0 * math.pi * gauss.psd(0.0) == pytest.approx(
        math.sqrt(2.0 * math.pi), rel=1e-14
    )

    tri = SpectralModel.triangular(1.0, 2.0)
    # 2pi f(0) = P tau0; first zero at lam = 2pi/tau0
    assert 2.0 * math.pi * tri.psd(0.0) == pytest.approx(2.0, rel=1e-14)
    assert tri.psd(math.pi) == pytest.approx(0.0, abs=1e-18)


def test_abs_acf_integral_closed_forms():
    assert SpectralModel.ornstein_uhlenbeck(1.0, 1.0).abs_acf_integral() == pytest.approx(2.0)
    assert SpectralModel.ornstein_uhlenbeck(3.0, 2.0).abs_acf_integral() == pytest.approx(3.0)
    assert SpectralModel.gaussian_kernel(2.0, 0.5).abs_acf_integral() == pytest.approx(
        2.0 * 0.5 * math.sqrt(2.0 * math.pi)
    )
    assert SpectralModel.triangular(2.0, 1.5).abs_acf_integral() == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# spectral functionals vs independent closed forms
# ---------------------------------------------------------------------------
def test_fourier_consistency_total_mass():
    # integral f(lam) dlam recovers R(0) = P for every model, exactly.
    for model in _all_models():
        assert spectral_functional(model, 1) == model.power


def test_ou_monomial_functionals_match_closed_forms():
    ou = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    expected = {1: 1.0, 2: 1.0, 3: 1.5, 4: 2.5}
    for q, value in expected.items():
        assert spectral_functional(ou, q) == pytest.approx(value, rel=1e-8)


def test_ou_log_functional_closed_form():
    ou = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    assert spectral_functional(ou, "log1p") == pytest.approx(SQRT3 - 1.0, rel=1e-8)
    # (1/2pi) integral log(1 + 2P alpha / (alpha^2 + lam^2)) = sqrt(alpha^2 + 2P alpha) - alpha
    tol = 1e-8
    for power, rate in PARAMETERS:
        expected = math.sqrt(rate * rate + 2.0 * power * rate) - rate
        value = spectral_functional(SpectralModel.ornstein_uhlenbeck(power, rate), "log1p", tol)
        assert abs(value - expected) <= tol * expected


def _acf_energy(model):
    # integral R(tau)^2 dtau in closed form: exponential P^2/alpha;
    # squared-exponential P^2 sigma sqrt(pi); triangular 2 P^2 tau0 / 3.
    p, s = model.power, model.scale
    return {
        ModelKind.ORNSTEIN_UHLENBECK: p * p / s,
        ModelKind.GAUSSIAN_KERNEL: p * p * s * math.sqrt(math.pi),
        ModelKind.TRIANGULAR: 2.0 * p * p * s / 3.0,
    }[model.kind]


def test_quadratic_functional_equals_acf_self_convolution():
    # (1/2pi) integral (2pi f)^2 = integral R(tau)^2 dtau.
    cases = [
        (SpectralModel.ornstein_uhlenbeck(1.0, 1.0), 1.0),
        (SpectralModel.ornstein_uhlenbeck(2.0, 0.5), 8.0),
        (SpectralModel.gaussian_kernel(1.0, 1.0), math.sqrt(math.pi)),
        (SpectralModel.gaussian_kernel(1.5, 0.8), 1.5**2 * 0.8 * math.sqrt(math.pi)),
        (SpectralModel.triangular(1.0, 1.0), 2.0 / 3.0),
        (SpectralModel.triangular(0.5, 2.0), 1.0 / 3.0),
    ]
    for power, scale in PARAMETERS:
        cases += [(model, _acf_energy(model)) for model in (
            SpectralModel(kind, power, scale) for kind in ModelKind
        )]
    tol = 1e-8
    for model, expected in cases:
        assert abs(spectral_functional(model, 2, tol) - expected) <= tol * expected


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(ModelKind)),
    power=st.floats(0.01, 100.0),
    scale=st.floats(0.05, 20.0),
)
def test_log_functional_lies_between_its_first_two_orders(kind, power, scale):
    # x - x^2/2 <= log(1 + x) <= x, integrated with (1/2pi) integral x = P and
    # (1/2pi) integral x^2 = integral R^2.
    model = SpectralModel(kind, power, scale)
    tol = 1e-8
    value = spectral_functional(model, "log1p", tol)
    slack = tol * value
    assert power - 0.5 * _acf_energy(model) - slack <= value <= power + slack


def test_zero_power_functionals_vanish():
    for ctor in (
        SpectralModel.ornstein_uhlenbeck,
        SpectralModel.gaussian_kernel,
        SpectralModel.triangular,
    ):
        model = ctor(0.0, 1.0)
        assert spectral_functional(model, "log1p") == 0.0
        assert spectral_functional(model, 3) == 0.0
        assert float(model.acf(0.7)) == 0.0


def test_functional_argument_validation():
    ou = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    with pytest.raises(ValueError):
        spectral_functional(ou, "exp")
    with pytest.raises(ValueError):
        spectral_functional(ou, 0)
    with pytest.raises(ValueError):
        spectral_functional(ou, 2.5)
    with pytest.raises(ValueError):
        spectral_functional(ou, 2, tol=0.0)
    # bools are not numbers here, and a degree must be an integer type
    for g in (True, False, 2.0, np.float64(3.0), np.bool_(True), None):
        with pytest.raises(ValueError):
            spectral_functional(ou, g)
    for tol in (True, False):
        with pytest.raises(ValueError):
            spectral_functional(ou, 2, tol=tol)
    assert spectral_functional(ou, np.int64(2)) == spectral_functional(ou, 2)


def test_functional_unreachable_tolerance_raises():
    ou = SpectralModel.ornstein_uhlenbeck(1.0, 1.0)
    with pytest.raises(NonConvergedQuadrature):
        spectral_functional(ou, 2, tol=1e-300)


# ---------------------------------------------------------------------------
# the numpy quadrature and special functions vs scipy references
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("g", ["log1p", 1, 2, 3, 4])
@pytest.mark.parametrize("power, scale", PARAMETERS)
@pytest.mark.parametrize("kind", list(ModelKind))
def test_functional_matches_quad_at_the_same_truncation(kind, power, scale, g, monkeypatch):
    model = SpectralModel(kind, power, scale)
    truncations = []

    def spy(fun, cuts, *args):
        truncations.append(float(cuts[-1]))
        return adaptive_gauss_legendre(fun, cuts, *args)

    monkeypatch.setattr(szegolab.models, "adaptive_gauss_legendre", spy)
    value = spectral_functional(model, g)
    if g == 1:
        assert value == power and not truncations
        return
    lam0 = truncations[-1]
    if g == "log1p":
        def integrand(lam):
            return math.log1p(2.0 * math.pi * model.psd(lam))
    else:
        def integrand(lam):
            return (2.0 * math.pi * model.psd(lam)) ** g
    # quad on every period of an oscillating density, so that the reference
    # itself resolves the integrand to near machine precision
    period = 2.0 * math.pi / model.correlation_time()
    edges = [*np.arange(0.0, lam0, period), lam0]
    pieces = [
        scipy.integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    ]
    reference = math.fsum(pieces) / math.pi
    if g == "log1p":
        # plus the first-order tail (1/pi) integral_{lam0}^inf 2pi*f in closed form
        if kind is ModelKind.ORNSTEIN_UHLENBECK:
            reference += (2.0 * power / math.pi) * (math.pi / 2.0 - math.atan(lam0 / scale))
        elif kind is ModelKind.GAUSSIAN_KERNEL:
            reference += power * math.erfc(scale * lam0 / math.sqrt(2.0))
        else:
            x0 = lam0 * scale / 2.0
            si, _ = scipy.special.sici(2.0 * x0)
            reference += (2.0 * power / math.pi) * (math.sin(x0) ** 2 / x0 + math.pi / 2.0 - si)
    assert abs(value - reference) <= 1e-12 * abs(reference)


def test_vectorised_erf_matches_scipy():
    x = np.linspace(-7.0, 7.0, 2002).reshape(7, -1)
    ours = _erf(x).astype(float)
    assert ours.shape == x.shape
    assert np.allclose(ours, scipy.special.erf(x), rtol=2e-16, atol=1e-16)


@pytest.mark.parametrize(
    "points, nodes, weights",
    [(16, quadrature._NODES, quadrature._WEIGHTS), (3, _GL3_NODES, _GL3_WEIGHTS)],
)
def test_gauss_legendre_tables_equal_leggauss(points, nodes, weights):
    # the tables stand in for numpy.polynomial at import, bit for bit
    expected_nodes, expected_weights = np.polynomial.legendre.leggauss(points)
    assert np.array_equal(nodes, expected_nodes)
    assert np.array_equal(weights, expected_weights)


def test_starved_panel_budget_raises_nonconverged(monkeypatch):
    def fun(t):
        return np.exp(-50.0 * t)

    with pytest.raises(NonConvergedQuadrature, match="budget of 4 panels"):
        adaptive_gauss_legendre(fun, (0.0, 8.0), 1e-12, 4)
    value, err_est = adaptive_gauss_legendre(fun, (0.0, 8.0), 1e-12, 4096)
    assert abs(value - 1.0 / 50.0) <= err_est <= 1e-12

    monkeypatch.setattr(szegolab.models, "_MAX_PANELS", 4)
    with pytest.raises(NonConvergedQuadrature):
        spectral_functional(SpectralModel.triangular(1.0, 1.0), "log1p")


def test_correlation_time_positive():
    for model in _all_models():
        assert model.correlation_time() > 0.0


@pytest.mark.parametrize(
    "u, lam0, q",
    [
        (2e300, 10.0, 2),
        (2e-300, 1e-299, 2),
        (4e300, 1e301, 2),
        (4e-300, 1e-299, 3),
        (2.0, 10.0, 2),
        (1e200, 2e30, 2),  # u^2 overflows; the log of the bound is 709.48 < log(DBL_MAX)
    ],
)
def test_algebraic_tail_outside_float64_range_is_its_rounded_value(u, lam0, q):
    # where u^q or lam0^(2q-1) leaves float64 the bound is summed as logs: it
    # is the correctly rounded value, inf on overflow
    exact = Decimal(u) ** q / ((2 * q - 1) * Decimal(lam0) ** (2 * q - 1)) / Decimal(math.pi)
    assert _algebraic_tail(u, lam0, q) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize(
    "p, s, lam0, q", [(1.0, 1e300, 1e-299, 2), (1e200, 1.0, 10.0, 2), (1e150, 1.0, 10.0, 2)]
)
def test_gaussian_tail_outside_float64_range_is_its_rounded_value(p, s, lam0, q):
    c, expo = p * s * math.sqrt(2.0 * math.pi), -q * (s * lam0) ** 2 / 2.0
    exact = Decimal(c) ** q * Decimal(expo).exp() / (q * Decimal(s) ** 2 * Decimal(lam0))
    assert _gaussian_power_tail(p, s, lam0, q) == pytest.approx(
        float(exact / Decimal(math.pi)), rel=1e-12
    )


@pytest.mark.parametrize(
    "model, g",
    [
        (SpectralModel.gaussian_kernel(1.0, 1e300), "log1p"),
        (SpectralModel.triangular(1.0, 1e300), 2),
        (SpectralModel.ornstein_uhlenbeck(1.0, 1e-300), "log1p"),
    ],
)
def test_functional_of_a_density_outside_float64_range_is_refused(model, g):
    # a sum that reads inf or nan is a typed failure, with no warning
    with pytest.raises(NonConvergedQuadrature, match="out of float64 range"):
        spectral_functional(model, g)
