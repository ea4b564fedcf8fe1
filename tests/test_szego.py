"""Study layer: schedules, the polynomial sandwich, the convergence study,
nested-grid refinement, and the circulant power-sum identity.

Frozen oracles (independent derivations and high-precision precomputation):
  unit exponential model, T = 10, n in {50, 100, 200, 400}:
      MI = 3.38998127, 3.53760184, 3.61590532, 3.65627816
  power sums at (T, n) = (100, 4000): q=2 left side 0.9998975527,
      q=3 left side 1.4999218950; the q=2 cross term is ~ 1e-41.
  sandwich base error at C = 4, d = 64: eps_hat = 3.65127159e-3.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from szegolab import (
    DEFAULT_SCHEDULE,
    ConvergenceSchedule,
    DegreeTooLow,
    DomainExceeded,
    SamplingGrid,
    SandwichPair,
    SpectralModel,
    SpectrumResult,
    default_domain_max,
    gamma_sequence,
    mi_logdet,
    power_sum_check,
    rate_convergence,
    refinement_stability,
    sandwich_polynomials,
    sandwich_rate_bounds,
    toeplitz_matrix,
)
from szegolab.szego import MAX_DOMAIN_CAP, MAX_SANDWICH_DEGREE, _bernstein

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------
def test_default_schedule_shape():
    assert DEFAULT_SCHEDULE.points == ((25.0, 500), (50.0, 1000), (100.0, 2000))
    assert all(g.h == 0.05 for g in DEFAULT_SCHEDULE.grids())


@pytest.mark.parametrize(
    "points",
    [
        (),
        ((10.0, 100), (5.0, 200)),  # T not increasing
        ((10.0, 100), (10.0, 200)),  # T not strictly increasing
        ((5.0, 100), (10.0, 100)),  # h increases
        ((5.0, 1),),  # n < 2
        ((0.0, 10),),
        ((math.inf, 10),),
    ],
)
def test_schedule_validation(points):
    with pytest.raises(ValueError):
        ConvergenceSchedule(points)


# ---------------------------------------------------------------------------
# polynomial sandwich
# ---------------------------------------------------------------------------
def test_sandwich_base_error_small(pair64):
    assert pair64.eps_hat <= 0.01
    assert pair64.eps_hat == pytest.approx(3.65127159e-3, rel=1e-6)


def test_sandwich_vanishes_at_zero(pair64):
    lo, up = pair64.evaluate_pair(0.0)
    assert float(lo[0]) == 0.0 and float(up[0]) == 0.0


def test_sandwich_brackets_log1p_on_grid(pair64):
    x = np.linspace(0.0, pair64.domain_max, 10_000)
    lo, up = pair64.evaluate_pair(x)
    target = np.log1p(x)
    assert np.all(lo <= target)
    assert np.all(target <= up)


@pytest.mark.parametrize("x", [np.nan, [1.0, np.nan], -1.0, 4.5])
def test_sandwich_rejects_points_outside_its_domain(pair64, x):
    with pytest.raises(DomainExceeded):
        pair64.evaluate_pair(x)


def test_sandwich_width_is_twice_eps_times_x(pair64):
    x = np.linspace(0.0, pair64.domain_max, 10_000)[1:]
    lo, up = pair64.evaluate_pair(x)
    ratio = (up - lo) / x
    assert float(np.max(ratio)) == pytest.approx(2.0 * pair64.eps_hat, rel=1e-9)
    assert float(np.min(ratio)) == pytest.approx(2.0 * pair64.eps_hat, rel=1e-9)


def test_sandwich_verify_rejects_understated_error(pair64):
    cheat = SandwichPair(
        degree=pair64.degree,
        domain_max=pair64.domain_max,
        eps_hat=pair64.eps_hat / 4.0,  # claims a tighter cap than the base realizes
        node_values=pair64.node_values.copy(),
    )
    with pytest.raises(DegreeTooLow):
        cheat.verify()


@pytest.mark.parametrize(
    "C, degree", [(4.0, 64), (17.0, 64), (1.0, 200), (0.3, 512), (1e5, 64)]
)
def test_sandwich_brackets_log1p_between_grid_points(C, degree):
    # 40x denser than the verification grid; on it a grid-only eps_hat lets
    # the lower bound cross log1p near the peak of |B_d - g|.  At C = 1e5 a
    # step of the grid is 10, so only the local curvature bound keeps the
    # re-sampled intervals few enough for a fine sub-step.
    pair = sandwich_polynomials(C, degree)
    x = np.linspace(0.0, C, 400_001)
    lo, up = pair.evaluate_pair(x)
    target = np.log1p(x)
    assert np.all(lo <= target) and np.all(target <= up)


@pytest.mark.parametrize("degree", [64, 1028])
def test_sandwich_error_stays_below_one_at_a_large_cap(degree):
    # g = log(1 + x)/x <= 1, so eps_hat >= 1 would bracket nothing; a global
    # curvature bound of 2/3 re-samples every interval and gave eps_hat ~ 9
    assert sandwich_polynomials(1e5, degree).eps_hat < 1.0


@pytest.mark.parametrize("C", [MAX_DOMAIN_CAP * (1 + 1e-15), 1e120, 1e200])
def test_sandwich_refuses_a_cap_above_the_overflow_limit(C):
    # 1e200 raised a bare OverflowError from the squared grid step, and 1e120
    # overflowed the cubed grid points into a bracket of width ~1e223
    with pytest.raises(ValueError, match="domain cap must be <= 1e\\+100"):
        sandwich_polynomials(C, 64)


def test_sandwich_at_the_cap_limit_stays_finite():
    with np.errstate(over="raise"):
        pair = sandwich_polynomials(MAX_DOMAIN_CAP, 64)
    assert math.isfinite(pair.eps_hat)


@pytest.mark.parametrize("degree", [850, 900, 1028])
def test_sandwich_constructs_at_high_degree(degree):
    pair = sandwich_polynomials(4.0, degree)
    assert pair.degree == degree
    if degree == MAX_SANDWICH_DEGREE:
        # B_d >= g for convex g, so a base shifted up by 2 eps_hat puts the
        # lower bound above log(1 + x) at every x > 0
        cheat = SandwichPair(
            degree=degree,
            domain_max=pair.domain_max,
            eps_hat=pair.eps_hat,
            node_values=pair.node_values + 2.0 * pair.eps_hat,
        )
        with pytest.raises(DegreeTooLow):
            cheat.verify()


def test_sandwich_pair_rejects_a_degree_beyond_its_basis():
    for degree in (MAX_SANDWICH_DEGREE + 1, 2000):
        with pytest.raises(ValueError, match=f"integer in 1..{MAX_SANDWICH_DEGREE}, got {degree}"):
            SandwichPair(
                degree=degree, domain_max=4.0, eps_hat=0.0, node_values=np.ones(degree + 1)
            )


def test_sandwich_pair_validates_node_values():
    with pytest.raises(ValueError, match="65 finite Bernstein coefficients"):
        SandwichPair(degree=64, domain_max=4.0, eps_hat=0.0, node_values=np.ones(66))
    with pytest.raises(ValueError, match="finite"):
        SandwichPair(degree=64, domain_max=4.0, eps_hat=0.0, node_values=np.full(65, np.nan))


def test_sandwich_construction_validation():
    with pytest.raises(ValueError):
        sandwich_polynomials(0.0, 64)
    with pytest.raises(ValueError, match="domain cap"):
        sandwich_polynomials(True, 8)
    with pytest.raises(ValueError):
        sandwich_polynomials(4.0, 0)
    with pytest.raises(ValueError):
        sandwich_polynomials(4.0, MAX_SANDWICH_DEGREE + 1)


@pytest.mark.parametrize("degree", [1, 2, 65, 200])
def test_bernstein_weights_match_exact_rational_values(degree):
    t = np.concatenate([np.linspace(0.0, 1.0, 17), [1e-3, 0.1, 1.0 / 3.0, 0.7071, 0.999]])
    weights = _bernstein(np.eye(degree + 1), t)  # unit coefficients give the basis
    assert weights.shape == (t.size, degree + 1)
    exact = np.array([
        [float(math.comb(degree, k) * Fraction(s) ** k * (1 - Fraction(s)) ** (degree - k))
         for k in range(degree + 1)]
        for s in t.tolist()
    ])
    assert np.max(np.abs(weights - exact)) <= 1e-13
    assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-13


@pytest.mark.parametrize("degree", [1, 2, 65, 200, 512, MAX_SANDWICH_DEGREE + 1])
def test_bernstein_weights_match_plain_powers_bit_for_bit(degree):
    # skipping the powers that underflow to 0 must not change a single bit
    rng = np.random.default_rng(3)
    near_ends = rng.random(1500) ** 8
    t = np.concatenate([np.linspace(0.0, 1.0, 2001), near_ends, 1.0 - near_ends,
                        [5e-324, 1e-300, 1.0 - 2.0**-53]])
    k = np.arange(degree + 1)
    coef = np.array([float(math.comb(degree, i)) for i in range(degree + 1)])
    plain = coef * t[:, None] ** k * (1.0 - t[:, None]) ** (degree - k)
    assert np.array_equal(_bernstein(np.eye(degree + 1), t), plain)


@pytest.mark.parametrize("degree", [1, 2, 65, 200, MAX_SANDWICH_DEGREE + 1])
def test_bernstein_weights_are_unit_rows_at_the_ends(degree):
    weights = _bernstein(np.eye(degree + 1), np.array([0.0, 1.0]))
    unit = np.zeros((2, degree + 1))
    unit[0, 0] = unit[1, -1] = 1.0
    assert np.array_equal(weights, unit)


def test_default_domain_cap():
    assert default_domain_max(SpectralModel.ornstein_uhlenbeck(1.0, 1.0)) == pytest.approx(4.0)
    assert default_domain_max(SpectralModel.triangular(1.0, 2.0)) == pytest.approx(4.0)


def test_sandwich_rate_bounds_bracket_small_points(ou11, pair64):
    from szegolab import toeplitz_eigs

    for T, n in ((5.0, 100), (10.0, 200)):
        grid = SamplingGrid(T=T, n=n)
        spectrum = toeplitz_eigs(toeplitz_matrix(gamma_sequence(ou11, grid)), grid)
        lower, upper = sandwich_rate_bounds(pair64, spectrum, T)
        mid = float(np.sum(np.log1p(spectrum.eigenvalues))) / T
        assert lower <= mid <= upper
        # width formula: sum (p2 - p1)(eig)/T = 2 eps_hat tr(A)/T
        trace = float(np.sum(spectrum.eigenvalues))
        assert upper - lower == pytest.approx(2.0 * pair64.eps_hat * trace / T, rel=1e-9)


def test_sandwich_rate_bounds_zero_spectrum(pair64):
    lower, upper = sandwich_rate_bounds(pair64, SpectrumResult(np.zeros(5)), 2.0)
    assert lower == 0.0 and upper == 0.0


def test_sandwich_rate_bounds_domain_errors(pair64):
    above_cap = SpectrumResult(np.array([0.5, 5.0]))
    below_floor = SpectrumResult(np.array([-1e-3, 0.5]))
    for spectrum in (above_cap, below_floor):
        with pytest.raises(DomainExceeded):
            sandwich_rate_bounds(pair64, spectrum, 1.0)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------
def test_rate_point_internals(ou11):
    schedule = ConvergenceSchedule(((5.0, 100), (10.0, 200)))
    report = rate_convergence(ou11, schedule)
    assert report.target_rate == pytest.approx((SQRT3 - 1.0) / 2.0, rel=1e-7)
    assert len(report.points) == 2
    for point, (T, n) in zip(report.points, schedule.points):
        assert (point.T, point.n) == (T, n)
        direct_mi = mi_logdet(toeplitz_matrix(gamma_sequence(ou11, SamplingGrid(T=T, n=n))))
        assert point.sampled_rate == pytest.approx(direct_mi / T, rel=1e-13)
        assert point.abs_err == pytest.approx(abs(point.sampled_rate - report.target_rate))
        assert point.rel_err == pytest.approx(point.abs_err / report.target_rate)
        assert point.route_rel_diff <= 1e-10
        row = point.table_row()
        assert len(row) == 14
        assert row[0] == T and row[1] == n


def test_rate_zero_power_exact_zeros():
    model = SpectralModel.ornstein_uhlenbeck(0.0, 1.0)
    report = rate_convergence(model, ConvergenceSchedule(((2.0, 10), (4.0, 20))))
    for point in report.points:
        assert point.sampled_rate == 0.0
        assert point.circulant_rate == 0.0
        assert point.target_rate == 0.0
        assert point.rel_err == 0.0


def test_equivalence_gap_shrinks_along_default_schedule(default_study):
    report, _ = default_study
    gaps = [p.log_sum_gap for p in report.points]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.01
    assert gaps[0] == pytest.approx(0.0029780, rel=1e-4)
    assert gaps[-1] == pytest.approx(0.0007445, rel=1e-4)


# ---------------------------------------------------------------------------
# nested-grid refinement
# ---------------------------------------------------------------------------
def test_refinement_oracle_values(ou11):
    report = refinement_stability(ou11, 10.0, (50, 100, 200, 400))
    expected = [3.38998127, 3.53760184, 3.61590532, 3.65627816]
    assert np.allclose(report.mi_values, expected, rtol=0.0, atol=5e-7)
    assert all(gap > 0.0 for gap in report.gaps)
    assert list(report.gaps) == sorted(report.gaps, reverse=True)


def test_refinement_zero_power():
    report = refinement_stability(SpectralModel.ornstein_uhlenbeck(0.0, 1.0), 4.0, (8, 16))
    assert report.mi_values == (0.0, 0.0)
    assert report.gaps == (0.0,)


def test_refinement_requires_doubling(ou11):
    with pytest.raises(ValueError):
        refinement_stability(ou11, 10.0, (50, 150))
    with pytest.raises(ValueError):
        refinement_stability(ou11, 10.0, (50,))


# ---------------------------------------------------------------------------
# power-sum identity
# ---------------------------------------------------------------------------
def test_power_sum_first_power_identity(ou11):
    # sum of circulant eigenvalues is n * gamma_0 exactly, and the integral
    # side is the total spectral mass R(0) = 1.
    res = power_sum_check(ou11, 100.0, 4000, 1)
    h = 100.0 / 4000
    gamma0 = 2.0 * (h + math.expm1(-h)) / h
    assert res.lhs == pytest.approx(gamma0 / h, rel=1e-12)
    assert res.rhs == pytest.approx(1.0, rel=1e-8)


def test_power_sum_fine_point_oracles(ou11):
    res2 = power_sum_check(ou11, 100.0, 4000, 2)
    assert res2.lhs == pytest.approx(0.9998975527, rel=1e-9)
    assert res2.rhs == pytest.approx(1.0, rel=1e-8)
    assert res2.gap < 0.02
    res3 = power_sum_check(ou11, 100.0, 4000, 3)
    assert res3.lhs == pytest.approx(1.4999218950, rel=1e-9)
    assert res3.rhs == pytest.approx(1.5, rel=1e-8)
    res4 = power_sum_check(ou11, 100.0, 4000, 4)
    assert res4.rhs == pytest.approx(2.5, rel=1e-8)


def test_power_sum_split_reconstructs_left_side(ou11):
    res = power_sum_check(ou11, 50.0, 1000, 2)
    assert res.s1 is not None and res.s2 is not None
    assert res.s1 + res.s2 == pytest.approx(res.lhs, rel=1e-12)
    assert res.s2 >= 0.0
    # the cross term must be negligible next to the Parseval part
    assert res.s2 < 1e-12 * res.s1


def test_power_sum_cross_term_decreases_in_T(ou11):
    coarse = power_sum_check(ou11, 50.0, 2000, 2)
    fine = power_sum_check(ou11, 100.0, 4000, 2)
    assert fine.s2 < coarse.s2


def test_power_sum_split_only_for_q2(ou11):
    res = power_sum_check(ou11, 10.0, 100, 3)
    assert res.s1 is None and res.s2 is None


@pytest.mark.parametrize("q", [0, 5, -1, 2.0, True])
def test_power_sum_rejects_bad_exponent(ou11, q):
    with pytest.raises(ValueError):
        power_sum_check(ou11, 10.0, 100, q)
