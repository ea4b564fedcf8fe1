"""Gram coefficients of integrated-increment covariances and their Toeplitz /
circulant matrix views.

For a sampling grid with horizon T, n cells and step h = T/n, the cell
increments of the integrated input have normalized covariances

    gamma_l = (1/h) * integral_0^h integral_{l h}^{(l+1) h} R(v - u) dv du
            = (1/h) * integral R(tau) * (h - |tau - l h|)_+ dtau,

an even sequence (gamma_{-l} = gamma_l) by the symmetry of R.  The n x n
Toeplitz matrix A(i, j) = gamma_{|i-j|} is the Gram matrix of the increments
divided by h; its circulant companion has first row

    gammaHat_0 = gamma_0,   gammaHat_l = gamma_l + gamma_{n-l}   (1 <= l < n),

which satisfies the wrap symmetry gammaHat_l = gammaHat_{n-l} and therefore
has a real spectrum.

Coefficients are computed from the closed form in each model's family record
(``models``); the tests compare them against an adaptive Gauss-Legendre rule
on the exactly reduced one-dimensional form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError
from .models import SpectralModel, _integer, _positive

__all__ = [
    "SamplingGrid",
    "GramSequence",
    "gamma_sequence",
    "toeplitz_matrix",
]


@dataclass(frozen=True)
class SamplingGrid:
    """Even sampling of [0, T] into n cells; step h = T/n, times t_i = i*h."""

    T: float
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "T", _positive("T", self.T))
        object.__setattr__(self, "n", _integer("n", self.n, 1))

    @property
    def h(self) -> float:
        return self.T / self.n


def _wrap(gamma: np.ndarray) -> np.ndarray:
    """First row of the circulant companion: gamma_l + gamma_{n-l}."""
    hat = gamma.copy()
    if gamma.size > 1:
        hat[1:] = gamma[1:] + gamma[:0:-1]
    return hat


@dataclass(frozen=True)
class GramSequence:
    """Coefficients gamma_0..gamma_{n-1} and their circulant wrap, which is
    derived from them."""

    grid: SamplingGrid
    gamma: np.ndarray
    gamma_hat: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=float)
        n = self.grid.n
        if gamma.shape != (n,):
            raise ValueError(f"gamma must have shape ({n},), got {gamma.shape}")
        if not np.all(np.isfinite(gamma)):
            raise ValueError("coefficients must be finite")
        hat = _wrap(gamma)
        for a in (gamma, hat):
            a.flags.writeable = False
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_hat", hat)


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------
def gamma_sequence(model: SpectralModel, grid: SamplingGrid) -> GramSequence:
    """Build the Gram coefficient sequence for a model on a grid from the
    closed form of the model's family."""
    if model.power == 0.0:
        return GramSequence(grid=grid, gamma=np.zeros(grid.n))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            gamma = model.family.gamma(model.power, model.scale, grid.h, grid.n)
        finite = bool(np.all(np.isfinite(gamma)))
    except (FloatingPointError, OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise NumericalError(
            f"the {model.kind.value} closed form at power {model.power:g}, "
            f"{model.family.scale_name} {model.scale:g} and step h = {grid.h:g} gives a "
            "non-finite Gram coefficient"
        )
    return GramSequence(grid=grid, gamma=gamma)


def _toeplitz_view(row: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix A[i, j] = row[|i - j|] as a read-only
    view, without an n x n copy: row i is the window of (row_(n-1), ...,
    row_1, row_0, ..., row_(n-1)) that starts at offset n-1-i."""
    return sliding_window_view(np.concatenate((row[:0:-1], row)), row.size)[::-1]


def toeplitz_matrix(gs: GramSequence) -> np.ndarray:
    """Dense symmetric Toeplitz matrix A(i, j) = gamma_{|i-j|}."""
    return _toeplitz_view(gs.gamma).copy()
