"""Monte-Carlo validation of the analytic Gram pipeline.

Samples the stationary Gaussian input X on a refined grid (``refine``
sub-steps per sampling cell), forms the per-cell integral increments

    inc_i ~ integral_{t_i}^{t_{i+1}} X(s) ds        (trapezoid rule)

and optionally the channel observations inc_i + sqrt(h) * Z_i (independent
Gaussian noise of variance h per cell, matching integrated white noise).  The
empirical normalized covariances (n/T) * E[inc_j * inc_{j+l}] must then match
the analytic gamma_l coefficients within Monte-Carlo error — an end-to-end
check that catches sign and normalization mistakes the analytic code paths
could reproduce consistently on both sides.

Randomness: each path draws from its own counter-based substream keyed by
(seed, path index), so serial and parallel generation produce bit-identical
batches and a fixed seed reproduces the batch exactly, on any platform.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import FactorizationFailure
from .gram import SamplingGrid
from .models import SpectralModel

__all__ = [
    "PathBatch",
    "sample_paths",
    "empirical_gram",
    "noise_variance_ratio",
    "write_batch",
    "read_batch",
    "BATCH_MAGIC",
    "BATCH_VERSION",
]

BATCH_MAGIC = b"SZGL"
BATCH_VERSION = 1
_HEADER = struct.Struct("<4sIQIIQ")  # magic, version, N, n, refine, seed — 32 bytes
_SEED_MAX = 2**64


@dataclass(frozen=True)
class PathBatch:
    """A batch of simulated input paths reduced to per-cell increments.

    ``increments`` is the N x n table of integrated-input approximations;
    ``noisy`` (optional) adds the per-cell channel noise.  ``generator``
    records the random source and library version behind the seed;
    ``jitter`` records any diagonal regularization applied during the
    covariance factorization (0.0 when none was needed).  ``values``
    optionally retains the raw refined-grid samples for order-of-accuracy
    studies.
    """

    model: SpectralModel
    grid: SamplingGrid
    refine: int
    paths: int
    seed: int
    increments: np.ndarray
    noisy: np.ndarray | None
    generator: str
    jitter: float = 0.0
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.refine, (int, np.integer)) or self.refine < 4:
            raise ValueError(f"refine must be an integer >= 4, got {self.refine!r}")
        if not isinstance(self.paths, (int, np.integer)) or self.paths < 1:
            raise ValueError(f"paths must be an integer >= 1, got {self.paths!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < _SEED_MAX:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        inc = np.asarray(self.increments, dtype=float)
        shape = (self.paths, self.grid.n)
        if inc.shape != shape:
            raise ValueError(f"increments must have shape {shape}, got {inc.shape}")
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments must be finite")
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)
        if self.noisy is not None:
            noi = np.asarray(self.noisy, dtype=float)
            if noi.shape != shape:
                raise ValueError(f"noisy table must have shape {shape}, got {noi.shape}")
            if not np.all(np.isfinite(noi)):
                raise ValueError("noisy table must be finite")
            noi.flags.writeable = False
            object.__setattr__(self, "noisy", noi)
        if self.values is not None:
            val = np.asarray(self.values, dtype=float)
            val.flags.writeable = False
            object.__setattr__(self, "values", val)


def _path_normals(seed: int, paths: int, count: int) -> np.ndarray:
    """paths x count standard normals; row i comes from the counter-based
    substream keyed by (seed, i), independent of generation order."""
    out = np.empty((paths, count))
    for i in range(paths):
        key = np.array([seed, i], dtype=np.uint64)
        out[i] = np.random.Generator(np.random.Philox(key=key)).standard_normal(count)
    return out


def _ar1_paths(model: SpectralModel, z: np.ndarray, delta: float) -> np.ndarray:
    """Exact stationary sampling of a Markov kernel (the exponential
    covariance): the restriction to any uniform grid is the AR(1) recursion
    x_j = rho x_{j-1} + sqrt(P (1 - rho^2)) z_j with rho = exp(-alpha delta),
    the family record's AR(1) step, started from x_0 = sqrt(P) z_0.

    ``z`` is (paths, m); the result is a C-contiguous (paths, m) array.  The
    recursion runs over time steps on a C-ordered, time-major (m, paths)
    buffer that starts out holding the innovations, so each step is one
    contiguous vector operation across all paths.  Every value is rounded as
    in the scalar recursion ``rho * x_prev + innovation``, so a path does not
    depend on how many other paths share the batch.
    """
    power = model.power
    rho = model.family.ar1_step(model.scale, delta)
    xt = np.multiply(z.T, math.sqrt(power * (1.0 - rho * rho)), order="C")
    xt[0] = math.sqrt(power) * z[:, 0]
    for j in range(1, xt.shape[0]):
        xt[j] += rho * xt[j - 1]
    return np.ascontiguousarray(xt.T)


def _factor_paths(
    model: SpectralModel, z: np.ndarray, delta: float
) -> tuple[np.ndarray, float]:
    """Sample via a dense Cholesky factor of the stationary covariance on the
    refined grid, regularizing once with a recorded diagonal jitter if the
    matrix is indefinite at working precision."""
    m = z.shape[1]
    first_col = np.asarray(model.acf(delta * np.arange(m)), dtype=float)
    cov = scipy.linalg.toeplitz(first_col)
    jitter_unit = 1e-12 * model.power
    for jitter in (0.0, jitter_unit):
        try:
            chol = scipy.linalg.cholesky(
                cov + jitter * np.eye(m) if jitter else cov, lower=True, check_finite=False
            )
            return z @ chol.T, jitter
        except scipy.linalg.LinAlgError:
            continue
    raise FactorizationFailure(
        f"covariance on the refined grid (m={m}, delta={delta:g}) is numerically "
        f"indefinite even with diagonal jitter {jitter_unit:g}; reduce refine"
    )


def sample_paths(
    model: SpectralModel,
    grid: SamplingGrid,
    refine: int = 8,
    paths: int = 1000,
    seed: int = 42,
    include_noise: bool = True,
    keep_values: bool = False,
) -> PathBatch:
    """Simulate ``paths`` independent stationary inputs and reduce them to
    per-cell trapezoid increments (plus noisy observations when requested).

    A model whose family record has an AR(1) step (the exponential
    covariance) uses that exact one-step autoregression (identical in
    distribution to the dense factorization); other models factor the
    refined-grid covariance densely.  Deterministic given
    (seed, arguments): each path consumes its own substream, the first
    n*refine+1 draws for the path and the next n draws for its channel noise,
    so the increment table does not depend on ``include_noise``.
    """
    if not isinstance(refine, (int, np.integer)) or isinstance(refine, bool) or refine < 4:
        raise ValueError(f"refine must be an integer >= 4, got {refine!r}")
    if not isinstance(paths, (int, np.integer)) or isinstance(paths, bool) or paths < 1:
        raise ValueError(f"paths must be an integer >= 1, got {paths!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    refine, paths, seed = int(refine), int(paths), int(seed)

    n = grid.n
    m = n * refine + 1
    delta = grid.h / refine
    n_noise = n if include_noise else 0
    z = _path_normals(seed, paths, m + n_noise)

    jitter = 0.0
    if model.power == 0.0:
        x = np.zeros((paths, m))
        increments = np.zeros((paths, n))
    else:
        if model.family.ar1_step is not None:
            x = _ar1_paths(model, z[:, :m], delta)
        else:
            x, jitter = _factor_paths(model, z[:, :m], delta)
        cell_areas = 0.5 * delta * (x[:, :-1] + x[:, 1:])
        increments = cell_areas.reshape(paths, n, refine).sum(axis=2)

    noisy = None
    if include_noise:
        noisy = increments + math.sqrt(grid.h) * z[:, m:]

    return PathBatch(
        model=model,
        grid=grid,
        refine=refine,
        paths=paths,
        seed=seed,
        increments=increments,
        noisy=noisy,
        generator=f"numpy.random.Philox (numpy {np.__version__})",
        jitter=jitter,
        values=x if keep_values else None,
    )


def empirical_gram(batch: PathBatch, lags=None) -> tuple[np.ndarray, np.ndarray]:
    """Empirical normalized covariances and their standard errors.

    gammaTilde_l = (n/T) * mean over paths and valid offsets of
    inc_j * inc_{j+l}; the standard error comes from the variance of the
    per-path statistic, which is the honest sampling unit (offsets within one
    path are correlated).  Requires at least 100 paths.
    """
    if batch.paths < 100:
        raise ValueError(f"empirical covariances need >= 100 paths, got {batch.paths}")
    n = batch.grid.n
    if lags is None:
        lags = range(n)
    lags = [int(l) for l in lags]
    for l in lags:
        if not 0 <= l < n:
            raise ValueError(f"lag must be in [0, {n}), got {l}")
    scale = n / batch.grid.T
    inc = batch.increments
    gamma_tilde = np.empty(len(lags))
    stderr = np.empty(len(lags))
    root_paths = math.sqrt(batch.paths)
    for pos, l in enumerate(lags):
        per_path = np.mean(inc[:, : n - l] * inc[:, l:], axis=1)
        gamma_tilde[pos] = scale * float(np.mean(per_path))
        stderr[pos] = scale * float(np.std(per_path, ddof=1)) / root_paths
    return gamma_tilde, stderr


def noise_variance_ratio(batch: PathBatch) -> float:
    """Sample variance of the added channel noise divided by its nominal
    per-cell variance h; should sit near 1."""
    if batch.noisy is None:
        raise ValueError("batch has no noisy table; sample with include_noise=True")
    noise = batch.noisy - batch.increments
    return float(np.var(noise, ddof=1)) / batch.grid.h


def write_batch(batch: PathBatch, path) -> None:
    """Dump the increment table as a flat binary file: a 32-byte header
    (magic, version, N, n, refine, seed; little-endian) followed by the
    row-major little-endian float64 table."""
    header = _HEADER.pack(
        BATCH_MAGIC, BATCH_VERSION, batch.paths, batch.grid.n, batch.refine, batch.seed
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(batch.increments, dtype="<f8").tobytes())


def read_batch(path) -> tuple[dict, np.ndarray]:
    """Read a dump written by ``write_batch``; returns (header fields, table)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"truncated header: expected {_HEADER.size} bytes, got {len(raw)}")
        magic, version, paths, n, refine, seed = _HEADER.unpack(raw)
        if magic != BATCH_MAGIC:
            raise ValueError(f"bad magic {magic!r}; not an increment dump")
        if version != BATCH_VERSION:
            raise ValueError(f"unsupported dump version {version}")
        payload = fh.read()
    expected = paths * n * 8
    if len(payload) != expected:
        raise ValueError(f"truncated table: expected {expected} bytes, got {len(payload)}")
    table = np.frombuffer(payload, dtype="<f8").astype(float).reshape(paths, n)
    header = {"version": version, "paths": paths, "n": n, "refine": refine, "seed": seed}
    return header, table
