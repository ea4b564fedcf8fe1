"""Convergence studies tying the sampled mutual information to its
spectral-integral limit.

The central quantity is the per-time mutual information of the integrated
Gaussian channel, (1/T) * (1/2) log det(I + A).  It has two limits: as T
grows at a fixed sampling step h it converges to the circulant rate of that
step, and only as h -> 0 as well does it reach

    target = (1/4pi) * integral log(1 + 2pi f(lam)) dlam.

``rate_convergence`` runs that study over a (T, n) schedule and collects, per
point, both O(n^2) MI routes (Levinson-Durbin and Schur log-dets), the
circulant companion rate, the norm
diagnostics, the Toeplitz/circulant trace-power gaps (Toeplitz traces from the
displacement recurrence of A^2), and the alignment of the circulant spectrum
with the power spectral density.  No study point builds the n x n matrix A.

``sandwich_polynomials`` bounds log(1+x) on [0, C] by x * (B_d(x) -/+ eps_hat),
with B_d the Bernstein approximant of g(x) = log(1+x)/x and eps_hat its sup
error, certified between grid points; ``sandwich_rate_bounds`` sums that into
a bracket of width 2 * eps_hat * tr(A)/T on eigenvalue log-moments.  One
evaluator, ``_bernstein``, computes B_d for both, a block of basis rows at a
time, so no evaluation holds a points x (d + 1) table.
``power_sum_check`` verifies sum psiHat_m^q / T -> (1/2pi) integral (2pi f)^q,
including the q = 2 split whose cross term must vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooLow, DomainExceeded, NotPositiveDefinite, SzegolabError
from .gram import SamplingGrid, gamma_sequence
from .models import SpectralModel, _integer, _positive, spectral_functional
from .spectra import (
    SpectrumResult,
    circulant_eigs,
    mi_levinson,
    mi_schur,
    norm_report,
    psd_alignment_sup,
    toeplitz_traces,
)

__all__ = [
    "ConvergenceSchedule",
    "DEFAULT_SCHEDULE",
    "MAX_DOMAIN_CAP",
    "MAX_SANDWICH_DEGREE",
    "SandwichPair",
    "RatePoint",
    "RateReport",
    "RATE_COLUMNS",
    "RefinementReport",
    "PowerSumResult",
    "rate_convergence",
    "refinement_stability",
    "sandwich_polynomials",
    "sandwich_rate_bounds",
    "power_sum_check",
    "default_domain_max",
]


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ConvergenceSchedule:
    """An ordered list of (T, n) study points with T strictly increasing and
    step size h = T/n non-increasing, so later points are strictly harder."""

    points: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        pts = tuple((_positive("horizon T", T), _integer("sample count n", n, 2))
                    for T, n in self.points)
        if len(pts) == 0:
            raise ValueError("schedule must contain at least one point")
        for (t0, n0), (t1, n1) in zip(pts, pts[1:]):
            if not t1 > t0:
                raise ValueError(f"horizons must be strictly increasing, got {t0} then {t1}")
            if t1 / n1 > (t0 / n0) * (1.0 + 1e-12):
                raise ValueError(
                    f"step size must be non-increasing, got h={t0 / n0:g} then {t1 / n1:g}"
                )
        object.__setattr__(self, "points", pts)

    def grids(self) -> tuple[SamplingGrid, ...]:
        return tuple(SamplingGrid(T=T, n=n) for T, n in self.points)


DEFAULT_SCHEDULE = ConvergenceSchedule(((25.0, 500), (50.0, 1000), (100.0, 2000)))


# ---------------------------------------------------------------------------
# polynomial sandwich
# ---------------------------------------------------------------------------
# The binomial coefficients C(d, k) of the one degree-d Bernstein basis fit in
# a float64 up to d = 1029; the cap stays 1028 to keep the --degree range.
MAX_SANDWICH_DEGREE = 1028
# Above this domain cap the construction overflows float64: the curvature
# bound cubes grid points and the re-sampling rule squares the grid step.
MAX_DOMAIN_CAP = 1e100
# Points of the uniform grid on [0, C] that measures eps_hat and verifies a pair.
_VERIFY_POINTS = 10_000
# Points of one block of Bernstein basis rows in _bernstein.
_BLOCK_ROWS = 1024
# Eigenvalues down to -_EIG_FLOOR are round-off of a zero and clamp to 0.
_EIG_FLOOR = 1e-9


def _bernstein(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * b_{k,d}(t) at each t in [0, 1], with d = len(coeffs) - 1
    and b_{k,d}(t) = C(d, k) t^k (1 - t)^(d - k) the Bernstein basis.

    The basis values are built _BLOCK_ROWS points at a time and each block is
    multiplied by ``coeffs`` at once, so no call holds more than one block.
    The binomial coefficients are exact integers (``math.comb``) rounded once
    to float; at t = 0 and t = 1 the basis rows are exact unit vectors (0^0 = 1).
    """
    degree = coeffs.shape[0] - 1
    k = np.arange(degree + 1)
    binom = np.array([float(math.comb(degree, i)) for i in range(degree + 1)])
    out = np.empty(t.shape + coeffs.shape[1:])
    for i in range(0, t.size, _BLOCK_ROWS):
        block = t[i : i + _BLOCK_ROWS, None]
        basis = _power(block, k)
        basis *= binom
        basis *= _power(1.0 - block, degree - k)
        out[i : i + _BLOCK_ROWS] = basis @ coeffs
    return out


def _pair_bytes(degree: int) -> int:
    """Upper bound on the bytes that building a degree-d pair holds: twelve
    arrays the size of the verification grid, and three float arrays of one
    block of basis rows, the most that a ``_bernstein`` call holds besides
    its points and its result."""
    return 8 * (3 * _BLOCK_ROWS * (degree + 1) + 12 * _VERIFY_POINTS)


def _power(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """base**exponent for bases in [0, 1]; powers below e^-746 round to 0, so
    they skip pow, whose slow underflow path would dominate the cost."""
    with np.errstate(divide="ignore", invalid="ignore"):
        keep = ~(exponent * np.log(base) < -746.0)  # 0 * log(0) is nan: kept
    return np.power(base, exponent, out=np.zeros(keep.shape), where=keep)


def _degree(d) -> int:
    """The degree of a sandwich pair, checked (see ``MAX_SANDWICH_DEGREE``)."""
    return _integer("degree", d, 1, MAX_SANDWICH_DEGREE)


def _domain_cap(C) -> float:
    """The domain cap of a sandwich pair, checked (see ``MAX_DOMAIN_CAP``)."""
    C = _positive("domain cap", C)
    if C > MAX_DOMAIN_CAP:
        raise ValueError(
            f"domain cap must be <= {MAX_DOMAIN_CAP:g}, where the sandwich overflows; got {C:g}"
        )
    return C


def _log1p_over_x(x: np.ndarray) -> np.ndarray:
    """g(x) = log(1+x)/x, continuously extended by g(0) = 1."""
    with np.errstate(invalid="ignore"):
        return np.where(x > 0.0, np.log1p(x) / x, 1.0)


@dataclass(frozen=True)
class SandwichPair:
    """Two-sided polynomial bound p1(x) = x * (B_d(x) - eps_hat) <= log(1+x) <=
    p2(x) = x * (B_d(x) + eps_hat) on [0, domain_max], where B_d is the degree-d
    Bernstein polynomial with coefficients ``node_values``; the Bernstein basis
    keeps evaluation free of the cancellation a monomial form would suffer.
    """

    degree: int
    domain_max: float
    eps_hat: float
    node_values: np.ndarray

    def __post_init__(self) -> None:
        degree = _degree(self.degree)
        _domain_cap(self.domain_max)
        if not (math.isfinite(self.eps_hat) and self.eps_hat >= 0.0):
            raise ValueError(f"eps_hat must be finite and >= 0, got {self.eps_hat!r}")
        coeffs = np.asarray(self.node_values, dtype=float)
        if coeffs.shape != (degree + 1,) or not np.all(np.isfinite(coeffs)):
            raise ValueError(f"node_values must be {degree + 1} finite Bernstein "
                             f"coefficients, got shape {coeffs.shape}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "node_values", coeffs)

    def _base(self, x: np.ndarray) -> np.ndarray:
        """B_d at points x of [0, domain_max]."""
        t = x / self.domain_max
        if not np.all((t >= -1e-12) & (t <= 1.0 + 1e-12)):  # NaN fails too
            raise DomainExceeded(f"evaluation point outside [0, {self.domain_max:g}]: "
                                 f"range [{x.min():g}, {x.max():g}]")
        return _bernstein(self.node_values, np.clip(t, 0.0, 1.0))

    def evaluate_pair(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Both bounds from one evaluation of B_d."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        base, x = self._base(x), np.clip(x, 0.0, self.domain_max)
        return x * (base - self.eps_hat), x * (base + self.eps_hat)

    def verify(self) -> None:
        """Check the two-sided bound on a uniform grid; raise DegreeTooLow on
        any violation."""
        x = np.linspace(0.0, self.domain_max, _VERIFY_POINTS)
        self._check_grid(x, self._base(x))

    def _check_grid(self, x: np.ndarray, base: np.ndarray) -> None:
        target = np.log1p(x)
        bad_lower = int(np.sum(x * (base - self.eps_hat) > target))
        bad_upper = int(np.sum(x * (base + self.eps_hat) < target))
        if bad_lower or bad_upper:
            raise DegreeTooLow(f"sandwich bracket fails on the {_VERIFY_POINTS}-point grid (degree "
                               f"{self.degree}, domain [0, {self.domain_max:g}]): {bad_lower} "
                               f"lower, {bad_upper} upper violations")


def default_domain_max(model: SpectralModel) -> float:
    """Domain cap C = 2 * integral |R|, which dominates every eigenvalue of
    both the Toeplitz matrix and its circulant companion."""
    return 2.0 * model.abs_acf_integral()


def sandwich_polynomials(C: float, d: int) -> SandwichPair:
    """Construct the polynomial sandwich of log(1+x) on [0, C].

    B_d is the Bernstein polynomial of g(x) = log(1+x)/x on the nodes kC/d.
    eps_hat bounds |B_d - g| = B_d - g on all of [0, C]: B_d'' >= 0 (B_d
    averages second differences of g) and g'' <= 2/3 (g is the mean of
    1/(1 + xs) over s in [0, 1]), so between points a step apart B_d - g
    exceeds its larger endpoint value by at most kappa * step^2/8, kappa a
    bound on g'' there.  As g'' decreases in x and is at most 2 log(1+x)/x^3,
    the interval from grid point x_i takes kappa_i = min(2/3, 2 log(1+x_i)/x_i^3).
    Intervals where that could beat the grid maximum are re-sampled at a
    sub-step delta, and eps_hat is (maximum + delta^2/12) inflated by 1e-9
    relative and 1e-15 absolute.
    """
    d, C = _degree(d), _domain_cap(C)

    node_values = _log1p_over_x(C * np.arange(d + 1) / d)
    x = np.linspace(0.0, C, _VERIFY_POINTS)
    base = _bernstein(node_values, x / C)
    err = np.abs(base - _log1p_over_x(x))
    peak, rel, step = float(np.max(err)), 1e-9, C / (_VERIFY_POINTS - 1)
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0, where fmin keeps 2/3
        kappa = np.fmin(2.0 / 3.0, 2.0 * np.log1p(x[:-1]) / x[:-1] ** 3)
    starts = x[:-1][np.maximum(err[:-1], err[1:]) + kappa * step**2 / 8.0 > peak]
    # delta^2/12 within eps_hat's slack, at most one more grid of points
    sub = math.ceil(step / math.sqrt(12.0 * max(rel * peak, 1e-15)))
    sub = min(sub, _VERIFY_POINTS // (starts.size + 1))
    fine = (starts[:, None] + np.arange(1, sub) * (step / sub)).ravel()
    fine_err = np.abs(_bernstein(node_values, fine / C) - _log1p_over_x(fine))
    peak = max(peak, float(np.max(fine_err, initial=0.0)))
    eps_hat = (peak + (step / sub) ** 2 / 12.0) * (1.0 + rel) + 1e-15

    pair = SandwichPair(degree=d, domain_max=C, eps_hat=eps_hat, node_values=node_values)
    pair._check_grid(x, base)
    return pair


def sandwich_rate_bounds(
    pair: SandwichPair, spectrum: SpectrumResult, T: float
) -> tuple[float, float]:
    """Certified bracket (sum p1(eig)/T, sum p2(eig)/T) around the eigenvalue
    log-moment sum log(1+eig)/T of the spectrum, computed as
    (sum x*B_d(x) -/+ eps_hat * sum x)/T over the clamped eigenvalues x, so
    its width is 2 * eps_hat * tr(A)/T.

    Eigenvalues must lie in [-1e-9, domain_max]; small negatives within the
    floor are clamped to 0 before evaluation.  An eigenvalue above the
    domain cap raises DomainExceeded — it signals the cap was configured below
    2 * integral |R| for the model that produced the spectrum.
    """
    T = _positive("T", T)
    eig = spectrum.eigenvalues  # sorted ascending
    lo_eig, hi_eig = float(eig[0]), float(eig[-1])
    if lo_eig < -_EIG_FLOOR:
        raise DomainExceeded(f"eigenvalue {lo_eig:.6e} below the admissible floor -{_EIG_FLOOR:g}")
    if hi_eig > pair.domain_max:
        raise DomainExceeded(
            f"eigenvalue {hi_eig:.6e} exceeds the domain cap {pair.domain_max:g}; "
            "the cap must be at least twice the absolute autocovariance integral"
        )
    x = np.clip(eig, 0.0, pair.domain_max)
    mid = float(np.sum(x * pair._base(x)))
    half_width = pair.eps_hat * float(np.sum(x))
    return (mid - half_width) / T, (mid + half_width) / T


# ---------------------------------------------------------------------------
# rate-convergence study
# ---------------------------------------------------------------------------
RATE_COLUMNS = (
    "T",
    "n",
    "h",
    "sampledRate",
    "circulantRate",
    "targetRate",
    "absErr",
    "relErr",
    "wrapDiffFrobSqOverT",
    "traceGap_k1",
    "traceGap_k2",
    "traceGap_k3",
    "traceGap_k4",
    "eigPsdSupErr",
)


@dataclass(frozen=True)
class RatePoint:
    """All per-point diagnostics of the convergence study.

    ``sampled_rate`` is the Levinson-Durbin MI over T.  ``route_rel_diff`` is
    |Levinson - Schur| / |Levinson|, the agreement of the two independent
    log-det routes.  ``log_sum_gap`` is 2 |MI - circulant MI| / T with the
    Levinson MI.  ``trace_gaps[k-1]`` is |tr(A^k) - sum psiHat^k| / T.
    """

    T: float
    n: int
    h: float
    sampled_rate: float
    circulant_rate: float
    target_rate: float
    abs_err: float
    rel_err: float
    wrap_diff_frob_sq_over_t: float
    trace_gaps: tuple[float, float, float, float]
    eig_psd_sup_err: float
    route_rel_diff: float
    log_sum_gap: float
    op_norm_bound: float
    frob_sq_over_t: float
    max_abs_circulant_eig: float

    def table_row(self) -> tuple:
        """Values in the fixed report-column order (RATE_COLUMNS)."""
        return (
            self.T,
            self.n,
            self.h,
            self.sampled_rate,
            self.circulant_rate,
            self.target_rate,
            self.abs_err,
            self.rel_err,
            self.wrap_diff_frob_sq_over_t,
            *self.trace_gaps,
            self.eig_psd_sup_err,
        )


@dataclass(frozen=True)
class RateReport:
    """Study result: one RatePoint per schedule entry, in schedule order."""

    model: SpectralModel
    schedule: ConvergenceSchedule
    target_rate: float
    points: tuple[RatePoint, ...]

    def __post_init__(self) -> None:
        # The circulant rate has no sign invariant: when T is not much longer
        # than the correlation time the wrapped row can be indefinite.
        for p in self.points:
            if not (p.sampled_rate >= 0.0 and p.target_rate >= 0.0):
                raise ValueError(f"rates must be nonnegative, got point {p}")
            if not (math.isfinite(p.abs_err) and math.isfinite(p.rel_err)):
                raise ValueError(f"errors must be finite, got point {p}")

    def table_rows(self) -> list[tuple]:
        return [p.table_row() for p in self.points]


def _mi_from_eigs(eigenvalues: np.ndarray, source: str) -> float:
    """(1/2) * sum log(1+eig) of a spectrum; eigenvalues at or below -1 are
    inadmissible, and the error names the spectrum's ``source``."""
    low = float(np.min(eigenvalues))
    if low <= -1.0:
        raise NotPositiveDefinite(
            f"{source} eigenvalue {low:.6e} is <= -1; log(1+eig) is undefined"
        )
    return 0.5 * float(np.sum(np.log1p(eigenvalues)))


def _rate_point(model: SpectralModel, grid: SamplingGrid, target: float) -> RatePoint:
    gs = gamma_sequence(model, grid)
    mi = mi_levinson(gs.gamma)
    mi_check = mi_schur(gs.gamma)
    circ = circulant_eigs(gs.gamma_hat, grid)
    mi_hat = _mi_from_eigs(circ.dft_values, "circulant")

    T = grid.T
    sampled = mi / T
    circulant = mi_hat / T
    abs_err = abs(sampled - target)
    if target != 0.0:
        rel_err = abs_err / abs(target)
    else:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    route_rel_diff = abs(mi - mi_check) / max(abs(mi), 1e-300)
    log_sum_gap = 2.0 * abs(mi - mi_hat) / T

    nr = norm_report(gs)
    gap1 = abs(grid.n * (gs.gamma[0] - gs.gamma_hat[0])) / T
    gaps = [gap1]
    for k, trace in zip((2, 3, 4), toeplitz_traces(gs.gamma)):
        gaps.append(abs(trace - float(np.sum(circ.dft_values**k))) / T)

    return RatePoint(
        T=T,
        n=grid.n,
        h=grid.h,
        sampled_rate=sampled,
        circulant_rate=circulant,
        target_rate=target,
        abs_err=abs_err,
        rel_err=rel_err,
        wrap_diff_frob_sq_over_t=nr.wrap_diff_frob_sq_over_t,
        trace_gaps=tuple(gaps),
        eig_psd_sup_err=psd_alignment_sup(model, grid, circ.dft_values),
        route_rel_diff=route_rel_diff,
        log_sum_gap=log_sum_gap,
        op_norm_bound=nr.op_norm_bound,
        frob_sq_over_t=nr.frob_sq_over_t,
        max_abs_circulant_eig=float(np.max(np.abs(circ.dft_values))),
    )


def rate_convergence(
    model: SpectralModel,
    schedule: ConvergenceSchedule = DEFAULT_SCHEDULE,
    tol: float = 1e-8,
) -> RateReport:
    """Run the convergence study over the schedule, one point after another
    in schedule order.

    The points are independent, but threads do not speed them up: the O(n^2)
    recurrences are per-step Python that holds the GIL.  Any numerical failure
    is re-raised with the offending (T, n) point named.
    """
    target = 0.5 * spectral_functional(model, "log1p", tol)
    points = []
    for grid in schedule.grids():
        try:
            points.append(_rate_point(model, grid, target))
        except SzegolabError as exc:
            raise type(exc)(f"at schedule point (T={grid.T:g}, n={grid.n}): {exc}") from exc
    return RateReport(model=model, schedule=schedule, target_rate=target, points=tuple(points))


# ---------------------------------------------------------------------------
# nested-grid refinement study
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RefinementReport:
    """MI at a fixed horizon over nested dyadic grids, with successive gaps."""

    T: float
    n_seq: tuple[int, ...]
    mi_values: tuple[float, ...]
    gaps: tuple[float, ...]


def refinement_stability(model: SpectralModel, T: float, n_seq) -> RefinementReport:
    """Mutual information at fixed T on strictly doubling grids n, with the
    successive differences MI(2n) - MI(n); refining a grid conditions on more
    of the path, so the values should be non-decreasing with shrinking gaps."""
    seq = tuple(int(n) for n in n_seq)
    if len(seq) < 2:
        raise ValueError("n_seq must contain at least two grid sizes")
    for n0, n1 in zip(seq, seq[1:]):
        if n1 != 2 * n0:
            raise ValueError(f"grid sizes must strictly double, got {n0} then {n1}")
    mis = [mi_levinson(gamma_sequence(model, SamplingGrid(T=T, n=n)).gamma) for n in seq]
    gaps = tuple(b - a for a, b in zip(mis, mis[1:]))
    return RefinementReport(T=float(T), n_seq=seq, mi_values=tuple(mis), gaps=gaps)


# ---------------------------------------------------------------------------
# circulant power-sum identity
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PowerSumResult:
    """Both sides of sum psiHat^q / T -> (1/2pi) integral (2pi f)^q dlam.

    For q = 2 the left side splits exactly into ``s1`` (the Parseval part,
    converging to the autocovariance self-convolution at 0) and ``s2`` (the
    wrap cross term, converging to 0); s1 + s2 == lhs to round-off.
    """

    q: int
    T: float
    n: int
    lhs: float
    rhs: float
    gap: float
    s1: float | None = None
    s2: float | None = None


def _exponent(q) -> int:
    """The power q of ``power_sum_check``, checked."""
    return _integer("power q", q, 1, 4)


def power_sum_check(
    model: SpectralModel, T: float, n: int, q: int, tol: float = 1e-8
) -> PowerSumResult:
    """Evaluate the circulant eigenvalue power sum against its integral limit."""
    q = _exponent(q)
    grid = SamplingGrid(T=T, n=n)
    gs = gamma_sequence(model, grid)
    psi_hat = circulant_eigs(gs.gamma_hat, grid).dft_values
    lhs = float(np.sum(psi_hat.astype(float) ** q)) / grid.T
    rhs = spectral_functional(model, q, tol)
    s1 = s2 = None
    if q == 2:
        gamma = gs.gamma
        s1 = grid.n * (gamma[0] ** 2 + 2.0 * float(np.sum(gamma[1:] ** 2))) / grid.T
        s2 = grid.n * 2.0 * float(np.sum(gamma[1:] * gamma[:0:-1])) / grid.T
    return PowerSumResult(q=q, T=grid.T, n=grid.n, lhs=lhs, rhs=rhs, gap=abs(lhs - rhs), s1=s1, s2=s2)
