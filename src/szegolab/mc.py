"""Monte-Carlo validation of the analytic Gram pipeline.

Samples the stationary Gaussian input X on a refined grid (``refine``
sub-steps per sampling cell), forms the per-cell integral increments

    inc_i ~ integral_{t_i}^{t_{i+1}} X(s) ds        (trapezoid rule)

and the channel observations inc_i + sqrt(h) * Z_i (independent
Gaussian noise of variance h per cell, matching integrated white noise).  The
empirical normalized covariances (n/T) * E[inc_j * inc_{j+l}] must then match
the analytic gamma_l coefficients within Monte-Carlo error — an end-to-end
check that catches sign and normalization mistakes the analytic code paths
could reproduce consistently on both sides.

Sampling is exact in law for the trapezoid rule on the refined grid, by
circulant embedding (Wood & Chan 1994; Dietrich & Newsam 1997) one lattice
up: the refined-grid autocovariance is embedded in a symmetric circulant of
size M = 2(m - 1), doubled while indefinite, whose spectrum is folded onto
the W = M/refine cells (``_folded_roots``); each path's increments are the
first n values of C_y^(1/2) w for white noise w of length W, whose half
spectrum is drawn directly from W + 2 normals (``_half_spectrum_scale``),
at O(W log W) cost and O(W) memory per path.  A convex decreasing acf (the
exponential model's) gives a semidefinite embedding at the smallest size.
``_route`` alone runs the embedding's eigenvalue search and sets the memory
shape, which the sampler and the memory bound (``_validation_bytes``) read.

Paths are drawn in blocks of rows by one loop (``_sample_blocks``), so each
working table stays near 2 MiB whatever the path count.  The blocks run on
one thread per usable CPU (at most one per block), the calling thread
included, and each worker allocates its tables once, for all its blocks:
normals, which then hold the block's increment and noisy rows, and their
inverse transform.  The loop hands those rows to a sink on the thread that
drew them, with the dead transform as scratch.  ``sample_paths`` copies the
blocks into the two n-column result tables of a ``PathBatch``, the only
arrays that grow with the path count there.  The command line never builds
those tables: its sink reduces each block at once to per-path statistics
(lag means, noise sums and centred sums of squares) with the same per-row
reducers that ``empirical_gram`` and ``noise_variance_ratio`` run over a
batch's tables, so the estimates are the same either way, and writes the
block's increment rows into the dump file.  Over a batch's tables the two
run in blocks of their own, of about ``_REDUCE_VALUES`` values (256 KiB of
scratch), not the sampler's 2 MiB: a reducer block only bounds the scratch,
so its size fixes no stream and, since every row is reduced on its own,
changes no estimate.

Randomness: each block of R rows draws all its normals by one call from its
own stream, ``PCG64DXSM`` seeded by ``SeedSequence((seed, block index))``
(O'Neill 2014), and writes only its own rows.  R depends only on the number
of draws per path, so each path's draws depend only on (seed, path index,
draws per path): the batch is bit-identical for any number of threads, a
larger batch starts with a smaller one, and a fixed seed reproduces it
exactly, on any platform.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure
from .gram import SamplingGrid
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
BATCH_VERSION = 5
# Every version so far lays the file out the same way; versions 1 to 4 name
# earlier samplers of the exponential model (2 to 4 also of the others).
_READABLE_VERSIONS = (1, 2, 3, 4, 5)
_HEADER = struct.Struct("<4sIQIIQ")  # magic, version, N, n, refine, seed — 32 bytes
_EPS = float(np.finfo(float).eps)
# An embedding eigenvalue above -_CLIP_RTOL * max(lambda) is rounding, not
# indefiniteness: an FFT of length M computes each eigenvalue to within about
# eps * log2(M) * sum|c_k|, sum|c_k| = max(lambda) for a nonnegative acf, and
# log2(M) < 64 for every M that fits in memory.
_CLIP_RTOL = 64 * _EPS
# The sampler draws, transforms and reduces the paths in blocks of rows that
# hold about this many float64 values each (2 MiB), so its working tables do
# not grow with the number of paths and a block's tables stay in cache.  Each
# block draws from its own stream, so changing this value changes the batch.
_BLOCK_VALUES = 2**18
# Values per block of rows when ``empirical_gram`` and ``noise_variance_ratio``
# reduce a batch's tables; it sizes their scratch and changes no value.
_REDUCE_VALUES = 2**15


@dataclass(frozen=True)
class PathBatch:
    """A batch of simulated input paths reduced to per-cell increments.

    ``increments`` is the N x n table of integrated-input approximations;
    ``noisy`` adds the per-cell channel noise.  ``generator`` records the
    random source, its seeding by (seed, row block), the batch version and
    the library version behind the seed.  ``jitter`` is always 0.0: the
    sampler is exact, so no diagonal regularization is added to the
    covariance.  ``min_embedding_eig`` is the smallest eigenvalue of the
    refined-grid circulant embedding before clipping and folding, which
    ``sample_paths`` always records.
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
    min_embedding_eig: float | None = None

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


def _embedding_sizes(model: SpectralModel, m: int, delta: float):
    """Circulant sizes the embedding tries in turn: M = 2(m - 1), doubled
    until the acf at the embedding's largest lag M/2 falls to eps * P.  Past
    that size the embedded acf is zero to working precision, so padding
    further cannot make an indefinite embedding definite."""
    size = 2 * (m - 1)
    while abs(model.acf(delta * (size // 2))) > _EPS * model.power:
        yield size
        size *= 2
    yield size


def _embedding_eigs(model: SpectralModel, size: int, delta: float) -> np.ndarray:
    """Eigenvalues (rfft order) of the symmetric circulant of the given size
    whose first row is the acf at lags 0, delta, ..., (size/2) delta, wrapped."""
    acf = model.acf(delta * np.arange(size // 2 + 1))
    return np.fft.rfft(np.concatenate((acf, acf[-2:0:-1]))).real


def _semidefinite(lam: np.ndarray) -> bool:
    """Whether every eigenvalue is nonnegative up to the FFT's rounding."""
    return float(lam.min()) >= -_CLIP_RTOL * float(lam.max())


def _folded_roots(lam: np.ndarray, refine: int, delta: float) -> np.ndarray:
    """Square roots of the eigenvalues (rfft order) of the circulant of the
    embedded process's cell increments.

    The process embedded in M points with eigenvalues lam (clipped at zero)
    filtered by g = delta (1/2, 1, ..., 1, 1/2) (r + 1 taps, r = ``refine``)
    and taken at every r-th point gives the increments of its M/r cells,
    circulant with eigenvalues lam_y[k] = (1/r) sum_(q<r) |G[k + qM/r]|^2
    lam[k + qM/r] >= 0, G the length-M DFT of g.  The first n increments
    touch only the first m points, whose covariance is the refined Toeplitz
    Sigma, so they have exactly the trapezoid covariance B' Sigma B."""
    size = 2 * (lam.size - 1)
    cell = np.full(refine + 1, delta)
    cell[0] = cell[-1] = 0.5 * delta
    weighted = np.abs(np.fft.rfft(cell, n=size))
    weighted *= weighted
    weighted *= np.maximum(lam, 0.0)
    full = np.concatenate((weighted, weighted[-2:0:-1]))
    folded = full.reshape(refine, -1).mean(axis=0)[: size // (2 * refine) + 1]
    return np.sqrt(folded)


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
    """The circulant embedding of size ``size`` that draws a batch's paths
    on a grid refined ``refine`` times: ``width`` = M/refine values per
    path, from width + 2 normals ahead of its n channel-noise normals.
    ``roots`` are the folded spectrum's square roots scaled for those
    normals (``_half_spectrum_scale``) and ``min_eig`` the smallest
    embedding eigenvalue before clipping; an unbuilt route (``_route`` with
    ``fits``) has neither."""

    size: int
    refine: int
    roots: np.ndarray | None = None
    min_eig: float | None = None

    @property
    def width(self) -> int:
        return self.size // self.refine


def _route(model: SpectralModel, grid: SamplingGrid, refine: int, fits=None) -> _Route:
    """The built route for paths of ``model`` on ``grid`` refined ``refine``
    times: the smallest circulant embedding of size M that is semidefinite
    up to rounding, folded onto the cells.

    ``fits`` sees each candidate size before its FFT runs, and the first
    one it refuses is returned unbuilt.  Raises ``FactorizationFailure``
    when no embedding within the padding stop is positive semidefinite.
    """
    m, delta = grid.n * refine + 1, grid.h / refine
    for size in _embedding_sizes(model, m, delta):
        shape = _Route(size, refine)
        if fits is not None and not fits(shape):
            return shape
        lam = _embedding_eigs(model, size, delta)
        if _semidefinite(lam):
            roots = _half_spectrum_scale(_folded_roots(lam, refine, delta))
            return _Route(size, refine, roots, float(lam.min()))
    raise FactorizationFailure(
        f"circulant embedding of the covariance on the refined grid (m={m}, "
        f"delta={delta:g}) is indefinite at size {size} (smallest eigenvalue "
        f"{float(lam.min()):g}), where the covariance has decayed below rounding"
    )


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
    """One sampler worker's tables: ``rows`` rows of ``count`` normals, and
    the ``width`` values per row of their inverse transform."""
    return np.empty((rows, count)), np.empty((rows, width))


def _run_blocks(start, blocks: list[slice], workers: int) -> None:
    """Split the blocks into ``workers`` strided shares, the first run by
    the calling thread and each other by a new one; a share calls
    ``fill = start()`` once, then ``fill(block)`` for each of its blocks.
    All threads are joined before this returns or raises, and the first
    exception any share raised is then re-raised; a share stops at its next
    block once any share has failed."""
    errors: list[BaseException] = []

    def share(first: int) -> None:
        try:
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
    ``paths`` paths of n cells at ``lags`` lags on ``route``: the sampler
    blocks on each thread, the per-path vectors, and the route's setup.

    Each of the sampler's threads reuses one workspace of a block's rows:
    normals, width + 2 + n values per path, and their inverse transform,
    width values per path.  Once a block is transformed, its noise is
    copied beside its increments in the transform and both, contiguous,
    into the dead normals (2n values per path; width >= 2n), and the
    reducers form their temporaries in the dead transform.  Each
    thread is also allowed the buffers of numpy's iterator, which no
    operation on the sampler path needs (at most three of
    ``np.getbufsize()`` float64 values, or one of complex values), and holds
    the block's array headers and generator state, counted as one more.
    The block size and the thread count are the sampler's own
    (``_block_rows``, ``_workers``).  Beside the blocks the run holds lags +
    2 vectors of one value per path (the lag means, the noise sums and the
    noise's centred sums of squares), and the route's setup, the search's
    four vectors of M values and the fold's two, is counted beside them too.
    """
    rows = _block_rows(paths, route.width + 2 + n)
    per_thread = rows * (2 * route.width + n + 2) + 4 * np.getbufsize()
    return 8 * (_workers(paths, rows) * per_thread + 6 * route.size + (lags + 2) * paths)


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
    ``sample_paths`` copies them; ``scratch`` is the workspace's inverse
    transform, dead by then, as width float64 values per row.

    Block b holds the paths [b R, (b + 1) R), R = max(1, _BLOCK_VALUES //
    count) for count = width + 2 + n normals per path, and draws them by one
    call from the stream seeded by (seed, b).  R depends on count alone, so
    each path's draws depend only on (seed, path index, count).

    The blocks run on one thread per usable CPU, at most one per block, so
    ``sink`` is called from several threads at once, each time for other
    rows.  An exception raised in any block, the sink's included, is
    re-raised here once every thread has finished.
    """
    n, width = grid.n, route.width
    count = width + 2 + n
    rows = _block_rows(paths, count)
    # a row's factors, the route's roots and then the noise's sqrt(h),
    # repeated down rows of about 4096 values (``_embedded_paths``)
    scale = np.concatenate((route.roots, np.full(n, math.sqrt(grid.h))))
    scale = np.tile(scale, (max(1, 4096 // count), 1))

    def start():
        normals, transform = _workspace(rows, count, width)
        tables = normals.reshape(-1)

        def fill(block: slice) -> None:
            size = block.stop - block.start
            z = _block_normals(seed, block.start // rows, normals[:size])
            x = _embedded_paths(scale, z, transform[:size])
            x[:, n : 2 * n] = z[:, width + 2 :]
            increments, noisy = tables[: 2 * size * n].reshape(2, size, n)
            increments[...] = x[:, :n]
            noisy[...] = x[:, n : 2 * n]
            noisy += increments
            sink(block, increments, noisy, transform.reshape(-1))

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

    Exact in law for the trapezoid rule on the refined grid of m =
    n*refine + 1 points: the circulant embedding of the refined grid, of
    size M (2(m - 1), or a power-of-two multiple of it when padding was
    needed; ``min_embedding_eig`` records its smallest eigenvalue), is
    folded onto the cells (``_folded_roots``), so each path's n increments
    come from M/refine + 2 draws.  Raises ``FactorizationFailure`` when no
    embedding within the padding stop is positive semidefinite.  Paths are
    drawn in blocks of about ``_BLOCK_VALUES`` values (``_sample_blocks``),
    and each block is copied into the two result tables, so the working
    memory beyond them does not grow with ``paths``.  Deterministic given
    (seed, arguments): each path's row of its block's draws holds the
    path's draws first and the next n draws for its channel noise, and
    depends only on (seed, path index, draws per path), so the tables do
    not depend on the number of threads, and a larger batch starts with a
    smaller one.
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
        min_embedding_eig=route.min_eig,
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
    model: SpectralModel, grid: SamplingGrid, refine: int, paths: int, seed: int, lags, dump=None,
    route: _Route | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """``empirical_gram`` and ``noise_variance_ratio`` of the batch that
    ``sample_paths`` would draw with these arguments, computed without its
    tables: each block is reduced by the same per-path reducers on the
    thread that drew it, in the sampler's scratch, so only the sampler's
    workspaces and lags + 2 per-path vectors are held.  The channel noise is
    centred by construction, so it is not shifted.

    With ``dump``, the file ``write_batch`` would write is written to that
    path, each block's increment rows at their offset in it; the file is
    opened before any path is drawn, and removed again if the run fails.
    ``route`` is the one ``_route`` builds for these arguments, built here
    when not given.
    """
    refine, seed = _sampling_args(refine, seed)
    n = grid.n
    lags = _gram_lags(paths, n, lags)
    paths = int(paths)
    if route is None:
        route = _route(model, grid, refine)
    lag_means = np.empty((len(lags), paths))
    moments = np.empty((2, paths))
    fh = None
    lock = threading.Lock()

    def reduce(rows: slice, increments: np.ndarray, noisy: np.ndarray, scratch) -> None:
        _lag_means(increments, lags, lag_means[:, rows], scratch)
        _noise_moments(increments, noisy, 0.0, moments[:, rows], scratch)
        if fh is not None:
            data = np.ascontiguousarray(increments, dtype="<f8").data
            with lock:
                fh.seek(_HEADER.size + rows.start * n * 8)
                fh.write(data)

    if dump is None:
        _sample_blocks(route, grid, paths, seed, reduce)
    else:
        fh = open(dump, "wb")
        try:
            with fh:
                fh.write(_HEADER.pack(BATCH_MAGIC, BATCH_VERSION, paths, n, refine, seed))
                _sample_blocks(route, grid, paths, seed, reduce)
        except BaseException:
            os.remove(dump)
            raise
    gamma_tilde, stderr = _gram_estimates(lag_means, n / grid.T)
    return gamma_tilde, stderr, _pooled_variance(moments, n) / grid.h


def write_batch(batch: PathBatch, path) -> None:
    """Dump the increment table as a flat binary file: a 32-byte header
    (magic, version, N, n, refine, seed; little-endian) followed by the
    row-major little-endian float64 table, written from the table's own
    buffer (a copy is made only on a big-endian host)."""
    header = _HEADER.pack(
        BATCH_MAGIC, BATCH_VERSION, batch.paths, batch.grid.n, batch.refine, batch.seed
    )
    table = np.ascontiguousarray(batch.increments, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table.data)


def read_batch(path) -> tuple[dict, np.ndarray]:
    """Read a dump written by ``write_batch``; returns (header fields, table).

    Versions 1 to 5 share the layout and are all read.  The file size is
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
