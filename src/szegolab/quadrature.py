"""Adaptive 16-point Gauss-Legendre quadrature, vectorised over panels: the
one adaptive rule of the package, used by the spectral functionals
(``models``) and the Gram-coefficient reference (``gram``).

The rule's nodes and weights are a fixed table, as such rules are
classically kept (Golub & Welsch, Math. Comp. 23, 1969): the shortest
round-trip decimals of ``numpy.polynomial.legendre.leggauss(16)``, equal to
it bit for bit (the tests check that), so no process imports
``numpy.polynomial`` to build them."""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergedQuadrature

__all__ = ["adaptive_gauss_legendre"]

_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
# a priori rounding bound gamma_k = ku / (1 - ku) of one accepted panel: its
# two 16-term dot products and their sum, k = 17
_KU = 17 * np.finfo(float).eps / 2.0
_GAMMA = _KU / (1.0 - _KU)


def _panel_sums(fun, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 16-point rule on every panel [lo_i, hi_i] from one call of ``fun``
    on a (panels, 16) array of nodes."""
    half = 0.5 * (hi - lo)
    t = half[:, None] * (_NODES + 1.0) + lo[:, None]
    return half * (fun(t) @ _WEIGHTS)


def adaptive_gauss_legendre(
    fun,
    cuts,
    eps_abs: float,
    max_panels: int,
    eps_rel: float = 0.0,
) -> tuple[float, float]:
    """Integrate ``fun`` over [cuts[0], cuts[-1]] with the panels between
    consecutive cuts as the starting partition; return (value, err_est).

    ``fun`` maps an array of nodes to an array of integrand values of the same
    shape.  Every unfinished panel is bisected at once.  A panel is accepted
    when its two halves change the coarse value by at most its length share
    of the budget max(eps_abs, eps_rel * |coarse total|), or by no more than
    their rounding bound, or when it is too short to bisect.  The accepted
    panels are added with a correctly rounded sum, so ``err_est`` is the sum
    of the accepted changes plus the a priori rounding bound
    gamma_17 * sum |half-panel value| of the panel sums.  Raises
    NonConvergedQuadrature when finishing the next level would need more than
    ``max_panels`` panels.
    """
    cuts = np.asarray(cuts, dtype=float)
    a, b = float(cuts[0]), float(cuts[-1])
    lo, hi = cuts[:-1], cuts[1:]
    coarse = _panel_sums(fun, lo, hi)
    budget = max(eps_abs, eps_rel * abs(float(np.sum(coarse)))) / (b - a)
    used = lo.size
    accepted = []
    change = mass = 0.0
    while lo.size:
        if used + 2 * lo.size > max_panels:
            raise NonConvergedQuadrature(
                f"quadrature budget of {max_panels} panels exhausted on [{a:g}, {b:g}] "
                f"before reaching {budget * (b - a):.1e} absolute accuracy"
            )
        mid = 0.5 * (lo + hi)
        left = _panel_sums(fun, lo, mid)
        right = _panel_sums(fun, mid, hi)
        used += 2 * lo.size
        gap = np.abs(left + right - coarse)
        width = hi - lo
        size = np.abs(left) + np.abs(right)
        done = (gap <= np.maximum(budget * width, _GAMMA * size)) | (
            width <= 1e-15 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        )
        accepted.append(left[done] + right[done])
        change += float(np.sum(gap[done]))
        mass += float(np.sum(size[done]))
        keep = ~done
        lo, mid, hi = lo[keep], mid[keep], hi[keep]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        coarse = np.concatenate((left[keep], right[keep]))
    value = math.fsum(np.concatenate(accepted).tolist())
    return value, change + _GAMMA * mass
