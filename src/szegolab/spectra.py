"""Eigenvalue, log-determinant, trace-power and norm computations on the
Toeplitz Gram matrix A and its circulant companion.

The circulant spectrum is the real DFT of the wrapped first row,

    psiHat_m = sum_k gammaHat_k * exp(-2pi i m k / n),  m = 0..n-1,

real because the row is wrap-symmetric.  A direct O(n^2) cosine transform is
the reference path; the FFT is an accelerated path contracted to agree with it
to 1e-10 relative.

The sampled mutual information mi = (1/2) * log det(I + A) has two O(n^2)-time,
O(n)-memory routes that work on the gamma sequence and never build A:

- ``mi_levinson`` runs the Levinson-Durbin recursion on the first column
  c = e_0 + gamma of I + A; with reflection coefficients kappa_k,
  log det = n log c_0 + sum_k (n - k) log(1 - kappa_k^2).
- ``mi_schur`` runs the Schur (generator) recursion on the displacement
  generators of I + A, which yields the pivots d_k of its LDL^T
  factorization without inner products; log det = sum log d_k.

``toeplitz_traces`` gives tr(A^2), tr(A^3) and tr(A^4) in the same budget:
tr(A^2) is the closed Frobenius sum, and the rows of S = A^2 are streamed
through the displacement recurrence

    S[i+1, j+1] = S[i, j] + gamma_{i+1} gamma_{j+1} - gamma_{n-1-i} gamma_{n-1-j},

so that tr(A^3) = sum S o A and tr(A^4) = sum S o S.  The dense routes stay as
references: ``toeplitz_eigs`` (backward-stable symmetric eigensolver) and
``mi_logdet`` (sum log diag(Cholesky(I + A))).

``norm_report`` collects the three norm diagnostics used by the asymptotic
equivalence argument: the theta-grid bound on the symbol
g(theta) = sum_{|l|<n} gamma_l e^{i l theta} (which dominates the circulant
operator norm), the scaled Frobenius mass ||A||_F^2 / T, and the wrap
difference ||A - Ahat||_F^2 / T = 2 * sum_k k * gamma_k^2 / T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import AsymmetryError, ConvergenceFailure, NotPositiveDefinite
from .gram import GramSequence, SamplingGrid
from .models import SpectralModel

__all__ = [
    "SpectrumResult",
    "NormReport",
    "circulant_eigs",
    "toeplitz_eigs",
    "mi_logdet",
    "mi_levinson",
    "mi_schur",
    "toeplitz_traces",
    "trace_power",
    "norm_report",
    "psd_alignment_sup",
]


@dataclass(frozen=True)
class SpectrumResult:
    """A real spectrum with its provenance.

    ``eigenvalues`` is sorted ascending (ties left as-is); for circulant
    spectra ``dft_values`` preserves the DFT index order m = 0..n-1 needed by
    frequency-alignment diagnostics.
    """

    source: str
    eigenvalues: np.ndarray
    grid: SamplingGrid | None = None
    dft_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.source not in ("toeplitz", "circulant"):
            raise ValueError(f"source must be 'toeplitz' or 'circulant', got {self.source!r}")
        eig = np.asarray(self.eigenvalues, dtype=float)
        if eig.ndim != 1 or eig.size < 1:
            raise ValueError("eigenvalues must be a non-empty vector")
        if not np.all(np.isfinite(eig)):
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(eig) < 0.0):
            raise ValueError("eigenvalues must be sorted ascending")
        eig.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eig)
        if self.dft_values is not None:
            dft = np.asarray(self.dft_values, dtype=float)
            dft.flags.writeable = False
            object.__setattr__(self, "dft_values", dft)


@dataclass(frozen=True)
class NormReport:
    """Norm diagnostics of a Gram sequence (all per the definitions above)."""

    op_norm_bound: float
    frob_sq_over_t: float
    wrap_diff_frob_sq_over_t: float


def _check_wrap_symmetry(row: np.ndarray) -> None:
    if row.size > 1:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(row))))
        worst = float(np.max(np.abs(row[1:] - row[:0:-1])))
        if worst > tol:
            raise AsymmetryError(
                f"circulant first row violates wrap symmetry by {worst:.3e} "
                f"(tolerance {tol:.3e}); the spectrum would be complex"
            )


def _direct_dft(row: np.ndarray, block: int = 256) -> np.ndarray:
    """Reference O(n^2) real transform: psiHat_m = sum_k row_k cos(2pi m k/n)."""
    n = row.size
    k = np.arange(n)
    out = np.empty(n)
    for start in range(0, n, block):
        m = np.arange(start, min(start + block, n))
        out[start : start + m.size] = np.cos((2.0 * math.pi / n) * np.outer(m, k)) @ row
    return out


def circulant_eigs(row, grid: SamplingGrid | None = None, method: str = "fft") -> SpectrumResult:
    """Real spectrum of the circulant matrix with the given first row.

    ``method="direct"`` uses the O(n^2) cosine-sum reference transform;
    ``method="fft"`` is the accelerated path (valid for any n), contracted to
    agree with the reference to 1e-10 relative.
    """
    row = np.ascontiguousarray(np.asarray(row, dtype=float))
    if row.ndim != 1 or row.size < 1:
        raise ValueError("circulant first row must be a non-empty vector")
    _check_wrap_symmetry(row)
    if method == "fft":
        vals = np.fft.fft(row).real.copy()
    elif method == "direct":
        vals = _direct_dft(row)
    else:
        raise ValueError(f"method must be 'fft' or 'direct', got {method!r}")
    return SpectrumResult(
        source="circulant", eigenvalues=np.sort(vals), grid=grid, dft_values=vals
    )


def toeplitz_eigs(A: np.ndarray, grid: SamplingGrid | None = None) -> SpectrumResult:
    """Full real spectrum of a dense symmetric matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(A))))
    if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    try:
        eig = scipy.linalg.eigh(A, eigvals_only=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - solver-dependent
        raise ConvergenceFailure(f"symmetric eigensolver failed: {exc}") from exc
    return SpectrumResult(source="toeplitz", eigenvalues=np.asarray(eig, dtype=float), grid=grid)


def mi_logdet(A: np.ndarray) -> float:
    """Sampled mutual information (1/2) log det(I + A) in nats, via Cholesky."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    try:
        chol = scipy.linalg.cholesky(np.eye(n) + A, lower=True, check_finite=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"Cholesky factorization of I + A failed ({exc}); the matrix is not "
            "positive semidefinite within round-off"
        ) from exc
    return float(np.sum(np.log(np.diag(chol))))


def _gamma_copy(gamma) -> np.ndarray:
    """A validated float copy of the first row gamma of A."""
    gamma = np.array(gamma, dtype=float)
    if gamma.ndim != 1 or gamma.size < 1:
        raise ValueError("gamma must be a non-empty vector")
    if not np.all(np.isfinite(gamma)):
        raise ValueError("gamma entries must be finite")
    return gamma


def _frob_sq(gamma: np.ndarray) -> float:
    """||A||_F^2 = tr(A^2) = n gamma_0^2 + 2 sum_k (n - k) gamma_k^2."""
    n = gamma.size
    k = np.arange(1, n, dtype=float)
    return float(n * gamma[0] ** 2 + 2.0 * np.sum((n - k) * gamma[1:] ** 2))


def mi_levinson(gamma) -> float:
    """(1/2) log det(I + A) in nats by the Levinson-Durbin recursion on the
    first column of I + A; O(n^2) time, O(n) memory.

    Raises NotPositiveDefinite when a reflection coefficient has |kappa| >= 1.
    """
    c = _gamma_copy(gamma)
    c[0] += 1.0
    n = c.size
    if not c[0] > 0.0:
        raise NotPositiveDefinite(f"diagonal 1 + gamma_0 = {c[0]:.6e} of I + A is not positive")
    kappa = np.empty(n - 1)
    a = np.empty(n - 1)  # a[:k] holds the order-k predictor
    err = c[0]
    for k in range(1, n):
        pred = a[: k - 1]
        kap = -(c[k] + float(pred @ c[k - 1 : 0 : -1])) / err
        if not abs(kap) < 1.0:
            raise NotPositiveDefinite(
                f"Levinson reflection coefficient {kap:.6e} at order {k} has |kappa| >= 1; "
                "I + A is not positive definite"
            )
        pred += kap * pred[::-1]
        a[k - 1] = kap
        err *= 1.0 - kap * kap
        kappa[k - 1] = kap
    weights = np.arange(n - 1, 0, -1, dtype=float)
    terms = weights * np.log1p(-kappa * kappa)
    return 0.5 * math.fsum([n * math.log(c[0]), *terms.tolist()])


def mi_schur(gamma) -> float:
    """(1/2) log det(I + A) in nats as half the sum of the log pivots of the
    Toeplitz LDL^T factorization, from the Schur generator recursion; O(n^2)
    time, O(n) memory.

    The generators u = c, v = c - c_0 e_0 of I + A are rotated so that v[k]
    vanishes, which leaves the pivot d_k at u[k]; u then shifts one place.
    Raises NotPositiveDefinite on a pivot <= 0.
    """
    u = _gamma_copy(gamma)
    u[0] += 1.0
    v = u.copy()
    v[0] = 0.0
    logs = np.empty(u.size)
    for k in range(u.size):
        uk, vk = u[k:], v[k:]
        rho = vk[0] / uk[0]
        rotated = uk - rho * vk
        vk -= rho * uk
        pivot = rotated[0]
        if not pivot > 0.0:
            raise NotPositiveDefinite(
                f"Schur pivot {pivot:.6e} at step {k} is <= 0; I + A is not positive definite"
            )
        logs[k] = math.log(pivot)
        u[k + 1 :] = rotated[:-1]
    return 0.5 * math.fsum(logs.tolist())


def toeplitz_traces(gamma) -> tuple[float, float, float]:
    """(tr(A^2), tr(A^3), tr(A^4)) of the symmetric Toeplitz matrix with first
    row gamma, without building it; O(n^2) time, O(n) memory.

    Row 0 of S = A^2 is one correlation; later rows follow from the
    displacement recurrence of S (module docstring), and S is symmetric, so
    column 0 repeats row 0.  A and S are persymmetric (S[n-1-i, n-1-j] =
    S[i, j]), so row n-1-i contributes what row i does: only the first half
    of the rows is streamed, which also halves the recurrence's error growth.
    """
    gamma = _gamma_copy(gamma)
    n = gamma.size
    sym = np.concatenate((gamma[:0:-1], gamma))  # sym[n-1+m] = gamma_|m|
    first = np.correlate(sym, gamma, "valid")[::-1]
    row = first.copy()
    head, tail = gamma[1:], gamma[:0:-1]
    rows = (n + 1) // 2
    dots3 = np.empty(rows)
    dots4 = np.empty(rows)
    for i in range(rows):
        dots3[i] = row @ sym[n - 1 - i : 2 * n - 1 - i]
        dots4[i] = row @ row
        if i + 1 < rows:
            row[1:] = row[:-1] + gamma[i + 1] * head - gamma[n - 1 - i] * tail
            row[0] = first[i + 1]
    weights = np.full(rows, 2.0)
    if n % 2:
        weights[-1] = 1.0  # the middle row is its own mirror
    return (
        _frob_sq(gamma),
        math.fsum((weights * dots3).tolist()),
        math.fsum((weights * dots4).tolist()),
    )


def trace_power(obj, k: int, method: str = "auto") -> float:
    """tr(M^k) for a spectrum (SpectrumResult or 1-D eigenvalue vector) or a
    dense symmetric matrix.

    For matrices, ``method="auto"`` sums the k-th powers of the eigenvalues
    and ``method="direct"`` multiplies the matrix out; the two routes agree to
    1e-8 relative on well-conditioned inputs.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if isinstance(obj, SpectrumResult):
        return float(np.sum(obj.eigenvalues ** k))
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 1:
        return float(np.sum(arr**k))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a spectrum or square matrix, got shape {arr.shape}")
    if method == "direct":
        if k == 1:
            return float(np.trace(arr))
        power = arr
        for _ in range(k - 1):
            power = power @ arr
        return float(np.trace(power))
    if method != "auto":
        raise ValueError(f"method must be 'auto' or 'direct', got {method!r}")
    return trace_power(toeplitz_eigs(arr), k)


def _refine_symbol_values(gamma: np.ndarray, indices: np.ndarray, grid_size: int) -> np.ndarray:
    """Exactly re-sum g(theta_j) = gamma_0 + 2*sum_l gamma_l cos(l theta_j) at
    selected grid indices with correctly rounded summation, removing the
    accumulation error of the FFT evaluation."""
    n = gamma.size
    l = np.arange(1, n)
    refined = np.empty(indices.size)
    for pos, j in enumerate(indices):
        theta = 2.0 * math.pi * j / grid_size
        terms = 2.0 * gamma[1:] * np.cos(l * theta)
        refined[pos] = math.fsum([gamma[0], *terms.tolist()])
    return refined


def norm_report(gs: GramSequence) -> NormReport:
    """Operator-norm bound, scaled Frobenius mass, and wrap difference.

    The operator-norm bound is the maximum of |g(theta)| over the uniform
    4n-point theta grid, evaluated by FFT and then re-summed with correctly
    rounded arithmetic at the near-maximal grid points so the reported value
    is accurate to the last digit of the stored coefficients.
    """
    gamma = gs.gamma
    n = gamma.size
    T = gs.grid.T
    grid_size = 4 * n
    coeffs = np.zeros(grid_size)
    coeffs[0] = gamma[0]
    if n > 1:
        coeffs[1:n] = gamma[1:]
        coeffs[grid_size - n + 1 :] = gamma[:0:-1]
    symbol = np.fft.fft(coeffs).real
    magnitude = np.abs(symbol)
    rough_max = float(magnitude.max())
    candidates = np.flatnonzero(magnitude >= rough_max - 1e-9)
    if candidates.size > 512:
        candidates = candidates[np.argsort(magnitude[candidates])[-512:]]
    refined = np.abs(_refine_symbol_values(gamma, candidates, grid_size))
    op_norm = float(refined.max())

    wrap_diff = 2.0 * float(np.sum(np.arange(1, n) * gamma[1:] ** 2))
    return NormReport(
        op_norm_bound=op_norm,
        frob_sq_over_t=_frob_sq(gamma) / T,
        wrap_diff_frob_sq_over_t=wrap_diff / T,
    )


def psd_alignment_sup(
    model: SpectralModel, grid: SamplingGrid, dft_values: np.ndarray | None = None
) -> float:
    """sup over 0 < m < n/2 of |psiHat_m - 2pi f(2pi m / T)|.

    Measures how closely the circulant spectrum tracks the power spectral
    density on the resolvable frequencies lam_m = 2pi m / T.  Returns NaN when
    the index range is empty (n <= 2).
    """
    if dft_values is None:
        from .gram import gamma_sequence

        dft_values = circulant_eigs(gamma_sequence(model, grid).gamma_hat, grid).dft_values
    dft_values = np.asarray(dft_values, dtype=float)
    n = dft_values.size
    m_hi = (n + 1) // 2  # smallest index with m >= n/2
    m = np.arange(1, m_hi)
    if m.size == 0:
        return float("nan")
    lam = 2.0 * math.pi * m / grid.T
    target = 2.0 * math.pi * np.asarray(model.psd(lam), dtype=float)
    return float(np.max(np.abs(dft_values[m] - target)))
