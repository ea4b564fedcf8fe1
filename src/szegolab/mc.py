"""Monte-Carlo validation of the analytic Gram pipeline.

Samples the per-cell trapezoid increments of the stationary Gaussian input
X on a grid refined ``refine`` times,

    inc_i ~ integral_{t_i}^{t_{i+1}} X(s) ds        (trapezoid rule)

and the channel observations inc_i + sqrt(h) * Z_i (independent
Gaussian noise of variance h per cell, matching integrated white noise).  The
empirical normalized covariances (n/T) * E[inc_j * inc_{j+l}] must then match
the analytic gamma_l coefficients within Monte-Carlo error — an end-to-end
check that catches sign and normalization mistakes the analytic code paths
could reproduce consistently on both sides.

Sampling is exact in law: the increments' covariance B' Sigma B is the n x n
Toeplitz matrix of the cell covariance c (``_cell_covariance``), summed from
the acf alone, so it stays independent of the closed-form gamma.
``_route`` draws from its circulant embedding (Wood & Chan 1994; Dietrich &
Newsam 1997) at the first size N = 2n * 2^j that is semidefinite up to
rounding, each path's increments the first n values of C^(1/2) w for the
white noise w whose half spectrum is N + 2 normals (O(N log N) per path).
The sizes double while the next costs less per path than the eigen-factor
(N log2 N <= n^2); past them each path's increments are its rank normals
times the clipped factor (V Lambda^(1/2))' of the n x n matrix, after one
``eigh`` (``_eigen_factor``).  ``_route`` also sets the memory shape that
the sampler and the memory bound (``_validation_bytes``) read.

Paths are drawn in blocks of rows of about 2 MiB (``_sample_blocks``) on
one thread per usable CPU, each worker reusing its tables for all its
blocks, and each block is handed to a sink on the thread that drew it.
``sample_paths`` copies the blocks into the two tables of a ``PathBatch``.
The command line never builds those tables: its sink reduces each block to
per-path statistics by the same per-row reducers that ``empirical_gram``
and ``noise_variance_ratio`` run over a batch's tables (in blocks of about
``_REDUCE_VALUES`` values, whose size changes no estimate), and writes the
block's increment rows into the dump file.  ``_batch_writer`` is the one
writer of that file format, for the streamed dump and ``write_batch`` alike.

Randomness: each block of R rows draws its normals by one call from its own
stream, ``PCG64DXSM`` seeded by ``SeedSequence((seed, block index))``
(O'Neill 2014).  R depends only on the draws per path, and a path's values
only on its own draws (the factor takes one row-vector product per path),
so the batch is the same for any number of threads, a larger batch starts
with a smaller one, and a seed reproduces it bit for bit: on any platform
on the embedding, on one LAPACK build (which fixes ``eigh``) on the factor.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure
from .gram import SamplingGrid, _toeplitz_view
from .models import SpectralModel, _integer

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
BATCH_VERSION = 6
# Every version so far lays the file out the same way; versions 1 to 5 name
# earlier samplers of the exponential model (2 to 5 also of the others).
_READABLE_VERSIONS = (1, 2, 3, 4, 5, 6)
_HEADER = struct.Struct("<4sIQIIQ")  # magic, version, N, n, refine, seed — 32 bytes
_EPS = float(np.finfo(float).eps)
# An eigenvalue above -_CLIP_RTOL * max(lambda) is rounding, not
# indefiniteness: an FFT of length N computes each eigenvalue to within about
# eps * log2(N) * sum|c_k|, sum|c_k| = max(lambda) for a nonnegative c, and
# log2(N) < 64 for every N that fits in memory; ``eigh`` does better.
_CLIP_RTOL = 64 * _EPS
# The sampler draws, transforms and reduces the paths in blocks of rows that
# hold about this many float64 values each (2 MiB), so its working tables do
# not grow with the number of paths and a block's tables stay in cache.  Each
# block draws from its own stream, so changing this value changes the batch.
_BLOCK_VALUES = 2**18
# Values per block of rows when ``empirical_gram`` and ``noise_variance_ratio``
# reduce a batch's tables; it sizes their scratch and changes no value.
_REDUCE_VALUES = 2**15
# acf values per tile of ``_cell_covariance``, so that its memory does not
# grow with refine; past 2 refine + 1 it also orders each c_k's sum.
_TILE_VALUES = 2**12


@dataclass(frozen=True)
class PathBatch:
    """A batch of simulated input paths reduced to per-cell increments.

    ``increments`` is the N x n table of integrated-input approximations;
    ``noisy`` adds the per-cell channel noise.  ``generator`` records the
    random source, its seeding by (seed, row block), the batch version and
    the library version behind the seed.  ``jitter`` is always 0.0: the
    sampler is exact, so no diagonal regularization is added to the
    covariance.  ``covariance_error``, which ``sample_paths`` always
    records, is the largest eigenvalue the route clipped to zero, in
    magnitude: a bound on the spectral norm of the drawn covariance's
    departure from B' Sigma B.
    """

    model: SpectralModel
    grid: SamplingGrid
    refine: int
    paths: int
    seed: int
    increments: np.ndarray
    noisy: np.ndarray
    generator: str
    jitter: float = 0.0
    covariance_error: float | None = None

    def __post_init__(self) -> None:
        _sampling_args(self.refine, self.seed)
        _integer("paths", self.paths, 1)
        shape = (self.paths, self.grid.n)
        for name in ("increments", "noisy"):
            table = np.asarray(getattr(self, name), dtype=float)
            if table.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
            # NaN propagates through max and min, so these two reductions
            # check finiteness without a table-sized mask.
            if not (math.isfinite(float(np.max(table))) and math.isfinite(float(np.min(table)))):
                raise ValueError(f"{name} must be finite")
            # freeze a view, so the caller's own array stays writeable
            table = table.view()
            table.flags.writeable = False
            object.__setattr__(self, name, table)


def _block_normals(seed: int, block: int, out: np.ndarray) -> np.ndarray:
    """``out`` filled with standard normals for row block ``block`` by one
    call from the stream seeded by (seed, block)."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence((seed, block)))
    return np.random.Generator(bits).standard_normal(out=out)


def _cell_covariance(model: SpectralModel, grid: SamplingGrid, refine: int, count: int):
    """c_0, ..., c_(count-1): the covariance of two trapezoid cell increments
    k cells apart, c_k = sum_(|d| <= r) W_d R((k r + d) delta), r = refine,
    delta = h/r, W = w * w the autocorrelation of the trapezoid weights w =
    delta (1/2, 1, ..., 1, 1/2): delta^2 (r - |d|), but delta^2 (r - 1/2) at
    d = 0 and delta^2 / 4 at |d| = r.  The acf is taken in tiles of at most
    ``_TILE_VALUES`` values, whole rows of 2r + 1 while they fit."""
    r, delta = refine, grid.h / refine
    out = np.zeros(count)
    span = min(2 * r + 1, _TILE_VALUES)
    rows = max(1, _TILE_VALUES // span)
    for low in range(-r, r + 1, span):
        d = np.arange(low, min(low + span, r + 1))
        weights = (np.maximum(r - np.abs(d), 0.25) - 0.5 * (d == 0)) * (delta * delta)
        for first in range(0, count, rows):
            k = np.arange(first, min(first + rows, count))
            terms = model.acf(delta * (r * k[:, None] + d))
            terms *= weights
            out[k] += np.sum(terms, axis=1)
    return out


def _circulant_eigs(c: np.ndarray, size: int) -> np.ndarray:
    """Eigenvalues (rfft order) of the symmetric circulant of the given size
    whose first row is c_0, ..., c_(size/2), wrapped."""
    half = c[: size // 2 + 1]
    return np.fft.rfft(np.concatenate((half, half[-2:0:-1]))).real


def _half_spectrum_scale(roots: np.ndarray) -> np.ndarray:
    """Factors that turn W + 2 standard normals, read as W/2 + 1 complex
    values, into the half spectrum of C^(1/2) w for white noise w of length
    W = 2(len(roots) - 1), C the circulant with eigenvalues ``roots**2``:
    each bin's root times the deviation of the parts of w's rfft, which are
    independent, of variance W at DC and Nyquist (real; irfft ignores their
    imaginary parts) and W/2 between them."""
    width = 2 * (roots.size - 1)
    scale = np.repeat(roots * math.sqrt(width / 2), 2)
    scale[[0, -2]] = roots[[0, -1]] * math.sqrt(width)
    return scale


def _embedded_paths(scale: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` gets C^(1/2) w (``_half_spectrum_scale``) for each row of
    ``z``, whose first W + 2 values (W = out.shape[1]) are standard normals.
    Each row of ``scale`` holds that function's factors and then those for
    the rest of a row; they scale ``z`` in place, len(scale) rows at a time:
    numpy needs no iterator buffer for two contiguous tables of one shape."""
    for start in range(0, len(z), len(scale)):
        group = z[start : start + len(scale)]
        group *= scale[: len(group)]
    width = out.shape[1]
    return np.fft.irfft(z[:, : width + 2].view(complex), n=width, axis=1, out=out)


@dataclass(frozen=True)
class _Route:
    """The map from a path's ``draws`` normals, ahead of its n noise
    normals, to ``width`` values, the first n its increments: on the
    embedding of size N, ``factors`` are the N + 2 half-spectrum factors and
    width = N; on the eigen-factor (size 0), the rank x n factor, and width
    = 2n, room for the noise.  ``error`` is the batch's
    ``covariance_error``.  An unbuilt route (``_route`` with ``fits``) has
    neither, and is priced at rank n."""

    n: int
    size: int = 0
    factors: np.ndarray | None = None
    error: float | None = None

    @property
    def draws(self) -> int:
        if self.size:
            return self.size + 2
        return self.n if self.factors is None else len(self.factors)

    @property
    def width(self) -> int:
        return self.size or 2 * self.n


def _eigen_factor(c: np.ndarray) -> _Route:
    """The route of (V Lambda^(1/2))' over the eigenvalues of the Toeplitz
    matrix of c above ``_CLIP_RTOL`` * max(lambda).  Raises
    ``FactorizationFailure`` at an eigenvalue below minus that."""
    n = c.size
    # eigh copies the view into its own workspace
    lam, vectors = np.linalg.eigh(_toeplitz_view(c))
    low, top = float(lam[0]), float(lam[-1])
    if low < -_CLIP_RTOL * top:
        raise FactorizationFailure(f"the cell covariance of n={n} cells is indefinite: "
                                   f"smallest eigenvalue {low:g} against largest {top:g}")
    first = int(np.searchsorted(lam, _CLIP_RTOL * top, side="right"))
    factors = np.empty((n - first, n))
    np.multiply(vectors[:, first:].T, np.sqrt(lam[first:])[:, None], out=factors)
    return _Route(n, 0, factors, float(np.max(np.abs(lam[:first]), initial=0.0)))


def _route(model: SpectralModel, grid: SamplingGrid, refine: int, fits=None) -> _Route:
    """The built route for paths of ``model`` on ``grid`` refined ``refine``
    times: the embedding of the cell covariance at the first semidefinite
    size N = 2n * 2^j, doubled while N log2 N <= n^2, or else the
    eigen-factor.  ``fits`` sees each route before it is built: a refused
    size ends the search, and the smallest size or the factor, once
    refused, is returned unbuilt.  Raises as ``_eigen_factor`` does."""
    n, size = grid.n, 2 * grid.n
    while fits is None or fits(_Route(n, size)):
        c = _cell_covariance(model, grid, refine, size // 2 + 1)
        lam = _circulant_eigs(c, size)
        if float(lam.min()) >= -_CLIP_RTOL * float(lam.max()):
            roots = np.sqrt(np.maximum(lam, 0.0))
            return _Route(n, size, _half_spectrum_scale(roots), max(0.0, -float(lam.min())))
        size *= 2
        if size * math.log2(size) > n * n:
            break
    if size == 2 * n:
        return _Route(n, size)
    if fits is not None and not fits(_Route(n)):
        return _Route(n)
    return _eigen_factor(c[:n])


def _block_rows(paths: int, count: int, values: int | None = None) -> int:
    """Paths per block of about ``values`` values (the sampler's
    ``_BLOCK_VALUES`` when not given) when each path holds ``count``."""
    if values is None:
        values = _BLOCK_VALUES
    return min(paths, max(1, values // count))


def _row_blocks(paths: int, rows: int) -> list[slice]:
    """Slices of ``rows`` rows that cover ``paths`` rows in order; the last
    one may be shorter."""
    return [slice(start, min(start + rows, paths)) for start in range(0, paths, rows)]


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(paths: int, rows: int) -> int:
    """Threads that the sampler runs for ``paths`` paths in blocks of
    ``rows``: one per usable CPU, and no more than there are blocks."""
    return min(_usable_cpus(), -(-paths // rows))


def _workspace(rows: int, count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """One sampler worker's tables: room for ``rows`` rows of ``count``
    normals, and later of ``width`` values (flat), and the ``width`` values
    per row of their transform."""
    return np.empty(rows * max(count, width)), np.empty((rows, width))


def _run_blocks(start, blocks: list[slice], workers: int) -> None:
    """Split the blocks into ``workers`` strided shares, the first run by
    the calling thread and each other by a new one; a share calls
    ``fill = start()`` once, then ``fill(block)`` for each of its blocks,
    under the calling thread's numpy error state (numpy keeps one per
    thread).  All threads are joined before this returns or raises, and the
    first exception any share raised is then re-raised; a share stops at its
    next block once any share has failed."""
    errors: list[BaseException] = []
    state = np.geterr()

    def share(first: int) -> None:
        try:
            with np.errstate(**state):
                fill = start()
                for block in blocks[first::workers]:
                    if errors:
                        return
                    fill(block)
        except BaseException as exc:  # re-raised below, after the join
            errors.append(exc)

    threads = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=share, args=(first,))
            thread.start()
            threads.append(thread)
        share(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _validation_bytes(route: _Route, n: int, paths: int, lags: int) -> int:
    """Upper bound on the bytes held while ``_validation_estimates`` runs
    ``paths`` paths of n cells at ``lags`` lags on ``route``.

    Each sampler thread (``_workers``) holds one workspace of a block's
    rows (``_block_rows``, ``_workspace``) and is allowed numpy's iterator
    buffers, which the sampler path does not need (at most three of
    ``np.getbufsize()`` values), and its headers and generator state, as
    one more.  Beside them the run holds lags + 2 values per path, and the
    route's set-up: fewer than eight tiles of ``_cell_covariance``, and six
    vectors of N + 2 + n values for the embedding of size N (c, its row,
    spectrum, roots, factors and their tiled copy); for the eigen-factor,
    those of the search's largest N, at most n^2 + 24n values (N = 2n, or
    N log2 N <= n^2, so N >= 128), and 4n^2 + 16n while ``eigh`` runs (the
    matrix's copy, the eigenvectors and LAPACK's workspace of 2n^2 + 6n
    values and 5n integers), which the factor then replaces.
    """
    count = route.draws + n
    rows = _block_rows(paths, count)
    per_thread = rows * (max(count, route.width) + route.width) + 4 * np.getbufsize()
    setup = 6 * (route.size + 2 + n) if route.size else 5 * n * n + 40 * n
    setup += 8 * _TILE_VALUES
    return 8 * (_workers(paths, rows) * per_thread + setup + (lags + 2) * paths)


def _seed(seed) -> int:
    """The sampler's seed, checked: a 64-bit unsigned integer."""
    return _integer("seed", seed, 0, 2**64 - 1)


def _sampling_args(refine, seed) -> tuple[int, int]:
    """The sampler's refine and seed, checked; callers check paths themselves."""
    return _integer("refine", refine, 4), _seed(seed)


def _sample_blocks(route: _Route, grid: SamplingGrid, paths: int, seed: int, sink) -> None:
    """Draw ``paths`` paths on ``route`` in blocks of rows and pass each
    block to ``sink(rows, increments, noisy, scratch)`` on the thread that
    drew it, where ``rows`` is the block's slice of path indices and the two
    arrays hold its rows of the increment and noisy tables.  The arrays are
    contiguous views into the workspace (``_workspace``) that each thread
    allocates once, valid only during the call, which is why
    ``sample_paths`` copies them; ``scratch`` is the workspace's transform,
    dead by then, as width float64 values per row.

    Block b holds the paths [b R, (b + 1) R), R = max(1, _BLOCK_VALUES //
    count) for count = draws + n normals per path, drawn by one call from
    the stream seeded by (seed, b).  ``sink`` is called from several
    threads at once, each time for other rows; an exception in any block is
    re-raised here once every thread has finished.
    """
    n, draws, width = grid.n, route.draws, route.width
    count = draws + n
    rows = _block_rows(paths, count)
    if route.size:
        # a row's factors, the route's and then the noise's sqrt(h),
        # repeated down rows of about 4096 values (``_embedded_paths``)
        scale = np.concatenate((route.factors, np.full(n, math.sqrt(grid.h))))
        scale = np.tile(scale, (max(1, 4096 // count), 1))

        def transform(z: np.ndarray, x: np.ndarray) -> None:
            _embedded_paths(scale, z, x)
            x[:, n : 2 * n] = z[:, draws:]
    else:
        def transform(z: np.ndarray, x: np.ndarray) -> None:
            np.matmul(z[:, None, :draws], route.factors, out=x[:, None, :n])
            np.multiply(z[:, draws:], math.sqrt(grid.h), out=x[:, n:])

    def start():
        normals, values = _workspace(rows, count, width)

        def fill(block: slice) -> None:
            size = block.stop - block.start
            z = normals[: size * count].reshape(size, count)
            z = _block_normals(seed, block.start // rows, z)
            x = values[:size]
            transform(z, x)
            increments, noisy = normals[: 2 * size * n].reshape(2, size, n)
            increments[...] = x[:, :n]
            noisy[...] = x[:, n : 2 * n]
            noisy += increments
            sink(block, increments, noisy, values.reshape(-1))

        return fill

    _run_blocks(start, _row_blocks(paths, rows), _workers(paths, rows))


def sample_paths(
    model: SpectralModel,
    grid: SamplingGrid,
    refine: int = 8,
    paths: int = 1000,
    seed: int = 42,
) -> PathBatch:
    """Simulate ``paths`` independent stationary inputs and reduce them to
    per-cell trapezoid increments and their noisy channel observations.

    Exact in law for the trapezoid rule on the refined grid, up to
    ``covariance_error``, on the route that ``_route`` picks; raises
    ``FactorizationFailure`` when the cell covariance is indefinite beyond
    rounding.  Paths are drawn in blocks (``_sample_blocks``), so the memory
    beyond the two result tables does not grow with ``paths``, and each
    path depends only on (seed, path index, draws per path).
    """
    refine, seed = _sampling_args(refine, seed)
    paths = _integer("paths", paths, 1)
    route = _route(model, grid, refine)
    increments = np.empty((paths, grid.n))
    noisy = np.empty((paths, grid.n))

    def store(rows: slice, increments_block: np.ndarray, noisy_block: np.ndarray, _) -> None:
        increments[rows] = increments_block
        noisy[rows] = noisy_block

    _sample_blocks(route, grid, paths, seed, store)
    return PathBatch(
        model=model,
        grid=grid,
        refine=refine,
        paths=paths,
        seed=seed,
        increments=increments,
        noisy=noisy,
        generator=f"numpy.random.PCG64DXSM seeded by (seed, row block), batch "
        f"v{BATCH_VERSION} (numpy {np.__version__})",
        covariance_error=route.error,
    )


# Per-path reducers, shared by the table route (empirical_gram,
# noise_variance_ratio) and the streamed route (_validation_estimates): each
# reduces one block of rows into its columns of a per-path vector, every row
# on its own, so the estimates do not depend on how the rows are blocked,
# and forms its temporaries in ``scratch`` (float64 values at least as many
# as the block's, twice as many for ``_noise_moments``), by operations that
# need no iterator buffer: copies, or ones on contiguous tables of one shape.
def _gram_lags(paths: int, n: int, lags) -> list[int]:
    """The requested lags as integers, checked against the path count and n."""
    _integer("paths for empirical covariances", paths, 100)
    return [_integer("lag", l, 0, n - 1) for l in lags]


def _lag_means(
    increments: np.ndarray, lags: list[int], out: np.ndarray, scratch: np.ndarray
) -> None:
    """Row ``pos`` of ``out`` gets each path's mean of inc_j * inc_{j+l} over
    its valid offsets, for l = lags[pos], summed as ``np.mean`` sums them.
    The products run along the flat table, so a row's last l pair it with
    the next row; they are never summed."""
    paths, n = increments.shape
    flat = increments.reshape(-1)
    products = scratch[: flat.size].reshape(paths, n)
    for row, l in zip(out, lags):
        np.multiply(flat[: flat.size - l], flat[l:], out=products.reshape(-1)[: flat.size - l])
        np.add.reduce(products[:, : n - l], axis=1, out=row)
        row /= n - l


def _noise_moments(
    increments: np.ndarray, noisy: np.ndarray, shift: float, out: np.ndarray, scratch: np.ndarray
) -> None:
    """Each path's sum of noise - shift (``out[0]``) and its sum of squares
    about that path's mean (``out[1]``), where the noise is noisy -
    increments.  The centring subtracts the path means, copied across a
    table beside the noise, by way of ``out[1]``."""
    noise, means = scratch[: 2 * noisy.size].reshape(2, *noisy.shape)
    np.subtract(noisy, increments, out=noise)
    noise -= shift
    np.sum(noise, axis=1, out=out[0])
    np.divide(out[0], noise.shape[1], out=out[1])
    means[...] = out[1][:, None]
    noise -= means
    noise *= noise
    np.sum(noise, axis=1, out=out[1])


def _gram_estimates(lag_means: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Estimate and standard error at each lag from its per-path means."""
    root_paths = math.sqrt(lag_means.shape[1])
    gamma_tilde = np.array([scale * float(np.mean(row)) for row in lag_means])
    stderr = np.array([scale * float(np.std(row, ddof=1)) / root_paths for row in lag_means])
    return gamma_tilde, stderr


def _pooled_variance(moments: np.ndarray, n: int) -> float:
    """Sample variance of all noise values from each path's sum and centred
    sum of squares of n values (Chan, Golub & LeVeque 1983): the paths'
    centred sums of squares plus n times the squared deviations of their
    means from the overall mean, each sum added with ``math.fsum``."""
    sums, squares = moments
    size = sums.size * n
    if size < 2:
        raise ValueError(f"a sample variance needs >= 2 noise values, got {size}")
    deviation = sums / n - math.fsum(sums) / size
    deviation *= deviation
    return (math.fsum(squares) + n * math.fsum(deviation)) / (size - 1)


def empirical_gram(batch: PathBatch, lags) -> tuple[np.ndarray, np.ndarray]:
    """Empirical normalized covariances at the given lags and their standard
    errors.

    gammaTilde_l = (n/T) * mean over paths and valid offsets of
    inc_j * inc_{j+l}; the standard error comes from the variance of the
    per-path statistic, which is the honest sampling unit (offsets within one
    path are correlated).  The per-path statistics are reduced one block of
    rows at a time, each row on its own, so only one block of lag products
    (about ``_REDUCE_VALUES`` values) is held.  Requires at least 100 paths.
    """
    n = batch.grid.n
    lags = _gram_lags(batch.paths, n, lags)
    lag_means = np.empty((len(lags), batch.paths))
    scratch = np.empty(_block_rows(batch.paths, n, _REDUCE_VALUES) * n)
    for rows in _row_blocks(batch.paths, scratch.size // n):
        _lag_means(batch.increments[rows], lags, lag_means[:, rows], scratch)
    return _gram_estimates(lag_means, n / batch.grid.T)


def noise_variance_ratio(batch: PathBatch) -> float:
    """Sample variance of the added channel noise divided by its nominal
    per-cell variance h; should sit near 1.

    The noise, noisy - increments, is formed one block of rows at a time
    (about ``_REDUCE_VALUES`` values with its centring table) and reduced to
    each path's sum and centred sum of squares, which are pooled as in
    ``_pooled_variance``.  The noise is first shifted by its first value,
    so a large common offset does not swamp the path sums.  Requires at
    least two noise values.
    """
    n = batch.grid.n
    shift = float(batch.noisy[0, 0] - batch.increments[0, 0])
    moments = np.empty((2, batch.paths))
    scratch = np.empty(_block_rows(batch.paths, 2 * n, _REDUCE_VALUES) * 2 * n)
    for rows in _row_blocks(batch.paths, scratch.size // (2 * n)):
        _noise_moments(batch.increments[rows], batch.noisy[rows], shift, moments[:, rows], scratch)
    return _pooled_variance(moments, n) / batch.grid.h


def _validation_estimates(
    route: _Route, grid: SamplingGrid, refine: int, paths: int, seed: int, lags: list[int],
    dump=None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """``empirical_gram`` and ``noise_variance_ratio`` of the batch that
    ``sample_paths`` would draw with these arguments, computed without its
    tables: each block is reduced by the same per-path reducers on the
    thread that drew it, in the sampler's scratch, so only the sampler's
    workspaces and lags + 2 per-path vectors are held.  The channel noise is
    centred by construction, so it is not shifted.  ``route`` is the one
    ``_route`` builds for the model, ``grid`` and ``refine``, and the caller
    has checked the other arguments (``_sampling_args``, ``_gram_lags``).

    With ``dump``, ``_batch_writer`` writes the file ``write_batch`` would
    write to that path, each block's rows as they are drawn.
    """
    n = grid.n
    lag_means = np.empty((len(lags), paths))
    moments = np.empty((2, paths))

    def reduce(rows: slice, increments: np.ndarray, noisy: np.ndarray, scratch) -> None:
        _lag_means(increments, lags, lag_means[:, rows], scratch)
        _noise_moments(increments, noisy, 0.0, moments[:, rows], scratch)
        if write is not None:
            write(rows.start, increments)

    writer = contextlib.nullcontext() if dump is None else _batch_writer(dump, paths, n, refine, seed)
    with writer as write:
        _sample_blocks(route, grid, paths, seed, reduce)
    gamma_tilde, stderr = _gram_estimates(lag_means, n / grid.T)
    return gamma_tilde, stderr, _pooled_variance(moments, n) / grid.h


@contextlib.contextmanager
def _batch_writer(path, paths: int, n: int, refine: int, seed: int):
    """Open the batch file at ``path``, write its 32-byte header (magic,
    version, N, n, refine, seed; little-endian) and yield ``write(start,
    rows)``, which writes a block of the increment table's rows, row-major
    little-endian float64 (copied only on a big-endian host), at the offset
    of row ``start`` under a lock.  The file is removed if anything raises
    before the block ends."""
    lock = threading.Lock()
    fh = open(path, "wb")

    def write(start: int, rows: np.ndarray) -> None:
        with lock:
            fh.seek(_HEADER.size + start * n * 8)
            fh.write(np.ascontiguousarray(rows, dtype="<f8").data)

    try:
        with fh:
            fh.write(_HEADER.pack(BATCH_MAGIC, BATCH_VERSION, paths, n, refine, seed))
            yield write
    except BaseException:
        os.remove(path)
        raise


def write_batch(batch: PathBatch, path) -> None:
    """Dump the increment table as a flat binary file: the 32-byte header
    and the table (``_batch_writer``), or no file if a write fails."""
    with _batch_writer(path, batch.paths, batch.grid.n, batch.refine, batch.seed) as write:
        write(0, batch.increments)


def read_batch(path) -> tuple[dict, np.ndarray]:
    """Read a dump written by ``write_batch``; returns (header fields, table).

    Versions 1 to 6 share the layout and are all read.  The file size is
    checked against the header before the table is allocated, and the
    payload is read straight into it; it is converted only on a big-endian
    host."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"truncated header: expected {_HEADER.size} bytes, got {len(raw)}")
        magic, version, paths, n, refine, seed = _HEADER.unpack(raw)
        if magic != BATCH_MAGIC:
            raise ValueError(f"bad magic {magic!r}; not an increment dump")
        if version not in _READABLE_VERSIONS:
            raise ValueError(f"unsupported dump version {version}")
        expected = paths * n * 8
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size == expected:
            table = np.empty((paths, n), dtype="<f8")
            size = fh.readinto(table.data)
        if size != expected:
            raise ValueError(f"truncated table: expected {expected} bytes, got {size}")
    header = {"version": version, "paths": paths, "n": n, "refine": refine, "seed": seed}
    return header, table.astype(float, copy=False)
