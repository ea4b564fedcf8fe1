"""Convergence studies tying the sampled mutual information to its
spectral-integral limit.

The central quantity is the per-time mutual information of the integrated
Gaussian channel, (1/T) * (1/2) log det(I + A), which converges to

    target = (1/4pi) * integral log(1 + 2pi f(lam)) dlam

as T grows with the sampling step held fine.  ``rate_convergence`` runs that
study over a (T, n) schedule and collects, per point, both O(n^2) MI routes
(Levinson-Durbin and Schur log-dets), the circulant companion rate, the norm
diagnostics, the Toeplitz/circulant trace-power gaps (Toeplitz traces from the
displacement recurrence of A^2), and the alignment of the circulant spectrum
with the power spectral density.  No study point builds the n x n matrix A.

``sandwich_polynomials`` constructs the constructive two-sided polynomial
bound p1(x) <= log(1+x) <= p2(x) on [0, C] from the Bernstein approximant of
g(x) = log(1+x)/x, and ``sandwich_rate_bounds`` turns it into a certified
bracket on eigenvalue log-moments.  ``power_sum_check`` verifies the circulant
power-sum identity sum psiHat_m^q / T -> (1/2pi) integral (2pi f)^q dlam,
including the two-term split whose cross term must vanish for q = 2.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.stats

from .errors import DegreeTooLow, DomainExceeded, NotPositiveDefinite, SzegolabError
from .gram import SamplingGrid, gamma_sequence
from .models import SpectralModel, spectral_functional
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
        pts = tuple((float(T), int(n)) for T, n in self.points)
        if len(pts) == 0:
            raise ValueError("schedule must contain at least one point")
        for T, n in pts:
            if not math.isfinite(T) or T <= 0.0:
                raise ValueError(f"horizon T must be finite and > 0, got {T!r}")
            if n < 2:
                raise ValueError(f"sample count n must be >= 2, got {n}")
        for (t0, n0), (t1, n1) in zip(pts, pts[1:]):
            if not t1 > t0:
                raise ValueError(f"horizons must be strictly increasing, got {t0} then {t1}")
            if t1 / n1 > (t0 / n0) * (1.0 + 1e-12):
                raise ValueError(
                    f"step size must be non-increasing, got h={t0 / n0:g} then {t1 / n1:g}"
                )
        object.__setattr__(self, "points", pts)

    @classmethod
    def coupled(cls, horizons, samples_per_unit: int = 20) -> "ConvergenceSchedule":
        """Schedule with n locked to the horizon: n = samples_per_unit * T."""
        if samples_per_unit < 1:
            raise ValueError(f"samples_per_unit must be >= 1, got {samples_per_unit}")
        return cls(tuple((float(T), int(round(samples_per_unit * float(T)))) for T in horizons))

    def grids(self) -> tuple[SamplingGrid, ...]:
        return tuple(SamplingGrid(T=T, n=n) for T, n in self.points)

    def __len__(self) -> int:
        return len(self.points)


DEFAULT_SCHEDULE = ConvergenceSchedule(((25.0, 500), (50.0, 1000), (100.0, 2000)))


# ---------------------------------------------------------------------------
# polynomial sandwich
# ---------------------------------------------------------------------------
def _bernstein_weights(degree: int, t: np.ndarray) -> np.ndarray:
    """Row-stochastic matrix of Bernstein basis values b_{k,degree}(t)."""
    k = np.arange(degree + 1)
    return scipy.stats.binom.pmf(k[None, :], degree, t[:, None])


@dataclass(frozen=True)
class SandwichPair:
    """Two-sided polynomial bound p1(x) <= log(1+x) <= p2(x) on [0, domain_max].

    Both polynomials are stored as Bernstein-basis coefficient vectors of
    degree ``degree + 1`` (one above the base approximant, because of the
    multiplication by x), which keeps evaluation free of the catastrophic
    cancellation a monomial representation would suffer at this degree.
    """

    degree: int
    domain_max: float
    eps_hat: float
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.degree, (int, np.integer)) or self.degree < 1:
            raise ValueError(f"degree must be an integer >= 1, got {self.degree!r}")
        if not (math.isfinite(self.domain_max) and self.domain_max > 0.0):
            raise ValueError(f"domain_max must be finite and > 0, got {self.domain_max!r}")
        if not (math.isfinite(self.eps_hat) and self.eps_hat >= 0.0):
            raise ValueError(f"eps_hat must be finite and >= 0, got {self.eps_hat!r}")
        for name in ("lower", "upper"):
            coeffs = np.asarray(getattr(self, name), dtype=float)
            if coeffs.shape != (self.degree + 2,):
                raise ValueError(
                    f"{name} must have {self.degree + 2} Bernstein coefficients, "
                    f"got shape {coeffs.shape}"
                )
            if not np.all(np.isfinite(coeffs)):
                raise ValueError(f"{name} coefficients must be finite")
            coeffs.flags.writeable = False
            object.__setattr__(self, name, coeffs)

    def _weights(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = x / self.domain_max
        if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
            raise DomainExceeded(
                f"evaluation point outside [0, {self.domain_max:g}]: "
                f"range [{x.min():g}, {x.max():g}]"
            )
        return _bernstein_weights(self.degree + 1, np.clip(t, 0.0, 1.0))

    def lower_eval(self, x) -> np.ndarray:
        return self._weights(x) @ self.lower

    def upper_eval(self, x) -> np.ndarray:
        return self._weights(x) @ self.upper

    def evaluate_pair(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Both bounds from one basis evaluation (identical weights)."""
        w = self._weights(x)
        return w @ self.lower, w @ self.upper

    def verify(self, grid_points: int = 10_000) -> None:
        """Check the two-sided bound and the width cap 2*eps_hat*x on a
        uniform grid; raise DegreeTooLow on any violation."""
        x = np.linspace(0.0, self.domain_max, grid_points)
        lo, up = self.evaluate_pair(x)
        target = np.log1p(x)
        width_cap = 2.0 * self.eps_hat * x
        bad_lower = int(np.sum(lo > target))
        bad_upper = int(np.sum(up < target))
        bad_width = int(np.sum((up - lo) > width_cap * (1.0 + 1e-12) + 1e-18))
        if bad_lower or bad_upper or bad_width:
            raise DegreeTooLow(
                f"sandwich invariants fail on the {grid_points}-point grid "
                f"(degree {self.degree}, domain [0, {self.domain_max:g}]): "
                f"{bad_lower} lower, {bad_upper} upper, {bad_width} width violations"
            )


def default_domain_max(model: SpectralModel) -> float:
    """Domain cap C = 2 * integral |R|, which dominates every eigenvalue of
    both the Toeplitz matrix and its circulant companion."""
    return 2.0 * model.abs_acf_integral()


def sandwich_polynomials(C: float, d: int, grid_points: int = 10_000) -> SandwichPair:
    """Construct the polynomial sandwich of log(1+x) on [0, C].

    The base approximant is the degree-d Bernstein polynomial B_d of
    g(x) = log(1+x)/x (continuously extended by g(0) = 1); eps_hat is its
    grid sup-error, inflated by one part in 1e9 so the floating-point
    inequalities below hold strictly.  Then

        p1(x) = x * (B_d(x) - eps_hat),   p2(x) = x * (B_d(x) + eps_hat),

    stored exactly in the Bernstein basis of degree d+1 via the identity
    t * b_{k,d}(t) = ((k+1)/(d+1)) * b_{k+1,d+1}(t).
    """
    if not (isinstance(C, (int, float, np.floating)) and math.isfinite(C) and C > 0.0):
        raise ValueError(f"domain cap C must be finite and > 0, got {C!r}")
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
        raise ValueError(f"degree d must be an integer >= 1, got {d!r}")
    d = int(d)

    nodes = C * np.arange(d + 1) / d
    node_values = np.empty(d + 1)
    node_values[0] = 1.0
    node_values[1:] = np.log1p(nodes[1:]) / nodes[1:]

    x = np.linspace(0.0, C, grid_points)
    g = np.empty_like(x)
    g[0] = 1.0
    g[1:] = np.log1p(x[1:]) / x[1:]
    base = _bernstein_weights(d, x / C) @ node_values
    eps_hat = float(np.max(np.abs(base - g))) * (1.0 + 1e-9) + 1e-15

    j = np.arange(d + 2, dtype=float)
    lower = np.zeros(d + 2)
    upper = np.zeros(d + 2)
    lower[1:] = C * (j[1:] / (d + 1)) * (node_values - eps_hat)
    upper[1:] = C * (j[1:] / (d + 1)) * (node_values + eps_hat)

    pair = SandwichPair(degree=d, domain_max=float(C), eps_hat=eps_hat, lower=lower, upper=upper)
    pair.verify(grid_points)
    return pair


def sandwich_rate_bounds(
    pair: SandwichPair, spectrum, T: float, eps_tol: float = 1e-9
) -> tuple[float, float]:
    """Certified bracket (sum p1(eig)/T, sum p2(eig)/T) around the eigenvalue
    log-moment sum log(1+eig)/T.

    Eigenvalues must lie in [-eps_tol, domain_max]; small negatives within the
    tolerance are clamped to 0 before evaluation.  An eigenvalue above the
    domain cap raises DomainExceeded — it signals the cap was configured below
    2 * integral |R| for the model that produced the spectrum.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and > 0, got {T!r}")
    eig = spectrum.eigenvalues if isinstance(spectrum, SpectrumResult) else spectrum
    eig = np.asarray(eig, dtype=float)
    if eig.size == 0:
        raise ValueError("spectrum must be non-empty")
    lo_eig = float(eig.min())
    hi_eig = float(eig.max())
    if lo_eig < -eps_tol:
        raise DomainExceeded(
            f"eigenvalue {lo_eig:.6e} below the admissible floor -{eps_tol:g}"
        )
    if hi_eig > pair.domain_max:
        raise DomainExceeded(
            f"eigenvalue {hi_eig:.6e} exceeds the domain cap {pair.domain_max:g}; "
            "the cap must be at least twice the absolute autocovariance integral"
        )
    lo, up = pair.evaluate_pair(np.clip(eig, 0.0, pair.domain_max))
    return float(np.sum(lo)) / T, float(np.sum(up)) / T


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
        for p in self.points:
            if not (p.sampled_rate >= 0.0 and p.circulant_rate >= 0.0 and p.target_rate >= 0.0):
                raise ValueError(f"rates must be nonnegative, got point {p}")
            if not (math.isfinite(p.abs_err) and math.isfinite(p.rel_err)):
                raise ValueError(f"errors must be finite, got point {p}")

    def rel_errors(self) -> tuple[float, ...]:
        return tuple(p.rel_err for p in self.points)

    def table_rows(self) -> list[tuple]:
        return [p.table_row() for p in self.points]


def _mi_from_eigs(eigenvalues: np.ndarray) -> float:
    """(1/2) * sum log(1+eig) of a circulant spectrum; eigenvalues at or below
    -1 are inadmissible."""
    low = float(np.min(eigenvalues))
    if low <= -1.0:
        raise NotPositiveDefinite(
            f"circulant eigenvalue {low:.6e} is <= -1; log(1+eig) is undefined"
        )
    return 0.5 * float(np.sum(np.log1p(eigenvalues)))


def _rate_point(model: SpectralModel, grid: SamplingGrid, target: float) -> RatePoint:
    gs = gamma_sequence(model, grid)
    mi = mi_levinson(gs.gamma)
    mi_check = mi_schur(gs.gamma)
    circ = circulant_eigs(gs.gamma_hat, grid)
    mi_hat = _mi_from_eigs(circ.dft_values)

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
    workers: int = 1,
) -> RateReport:
    """Run the convergence study over the schedule.

    Points are independent and may be evaluated in parallel (``workers`` > 1);
    the report rows are always assembled in schedule order.  Any numerical
    failure is re-raised with the offending (T, n) point named.
    """
    if not isinstance(schedule, ConvergenceSchedule):
        schedule = ConvergenceSchedule(tuple(schedule))
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    target = 0.5 * spectral_functional(model, "log1p", tol)

    def solve(grid: SamplingGrid) -> RatePoint:
        try:
            return _rate_point(model, grid, target)
        except SzegolabError as exc:
            raise type(exc)(f"at schedule point (T={grid.T:g}, n={grid.n}): {exc}") from exc

    grids = schedule.grids()
    if workers > 1 and len(grids) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(grids))) as pool:
            points = tuple(pool.map(solve, grids))
    else:
        points = tuple(solve(g) for g in grids)
    return RateReport(model=model, schedule=schedule, target_rate=target, points=points)


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


def power_sum_check(
    model: SpectralModel, T: float, n: int, q: int, tol: float = 1e-8
) -> PowerSumResult:
    """Evaluate the circulant eigenvalue power sum against its integral limit."""
    if not isinstance(q, (int, np.integer)) or isinstance(q, bool) or not 1 <= q <= 4:
        raise ValueError(f"power q must be an integer in 1..4, got {q!r}")
    q = int(q)
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
