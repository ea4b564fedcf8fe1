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

Sampling is exact in law for the trapezoid rule on the refined grid.  A
family with an AR(1) step (the exponential covariance) is Markov, so each
cell's end value and trapezoid increment are drawn together from two normals
by the exact cell transition (``_cell_transition``; Gillespie 1996), which
reproduces the refined AR(1) path reduced by the trapezoid rule at a cost
that does not grow with ``refine``.  Every other family is sampled by
circulant embedding (Wood & Chan 1994; Dietrich & Newsam 1997) one lattice
up: the refined-grid autocovariance is embedded in a symmetric circulant of
size M = 2(m - 1), doubled while indefinite, whose spectrum is folded onto
the M/refine cells (``_folded_roots``); each path's increments are the first
n values of C_y^(1/2) w for M/refine standard normals w, at O((M/refine)
log M) cost and O(M/refine) memory per path.

Paths are drawn in blocks of rows by one loop (``_sample_blocks``), so each
working table stays near 2 MiB whatever the path count.  The blocks run on
one thread per usable CPU (at most one per block), the calling thread
included, and each thread holds one block's tables at a time: two on either
route.  The loop hands each block to a sink on the thread that drew it.
``sample_paths`` copies the blocks into the two n-column result tables of a
``PathBatch``, the only arrays that grow with the path count there.  The
command line never builds those tables: its sink reduces each block at once
to per-path statistics (lag means, noise sums and centred sums of squares)
with the same per-row reducers that ``empirical_gram`` and
``noise_variance_ratio`` run over a batch's tables, so both routes give the
same estimates, and writes the block's increment rows into the dump file.

Randomness: each block of R rows draws all its normals by one call from its
own counter-based stream, ``Philox`` keyed by (seed, block index) (Salmon et
al. 2011), and writes only its own rows.  R depends only on the number of
draws per path, so each path's draws depend only on (seed, path index, draws
per path): the batch is bit-identical for any number of threads, a larger
batch starts with a smaller one, and a fixed seed reproduces it exactly, on
any platform.
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
BATCH_VERSION = 3
# Every version so far lays the file out the same way; versions 1 and 2 name
# the samplers before the cell transition and before the folded embedding.
_READABLE_VERSIONS = (1, 2, 3)
_HEADER = struct.Struct("<4sIQIIQ")  # magic, version, N, n, refine, seed — 32 bytes
_SEED_MAX = 2**64
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


@dataclass(frozen=True)
class PathBatch:
    """A batch of simulated input paths reduced to per-cell increments.

    ``increments`` is the N x n table of integrated-input approximations;
    ``noisy`` adds the per-cell channel noise.  ``generator`` records the
    random source, its keying by (seed, row block), the batch version and
    the library version behind the seed.  ``jitter`` is always 0.0: both
    sampling routes are exact, so no diagonal regularization is added to the
    covariance.  ``min_embedding_eig`` is the smallest eigenvalue of the
    refined-grid circulant embedding before clipping and folding (None on
    the cell-transition route).
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
        if not isinstance(self.refine, (int, np.integer)) or self.refine < 4:
            raise ValueError(f"refine must be an integer >= 4, got {self.refine!r}")
        if not isinstance(self.paths, (int, np.integer)) or self.paths < 1:
            raise ValueError(f"paths must be an integer >= 1, got {self.paths!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < _SEED_MAX:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
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


def _block_normals(seed: int, block: int, rows: int, count: int) -> np.ndarray:
    """rows x count standard normals for row block ``block``, drawn by one
    call from the counter-based stream keyed by (seed, block)."""
    bits = np.random.Philox(key=np.array([seed, block], dtype=np.uint64))
    return np.random.Generator(bits).standard_normal((rows, count))


def _cell_transition(model: SpectralModel, h: float, refine: int) -> tuple[float, ...]:
    """Exact one-cell transition of a Markov kernel (the exponential
    covariance) reduced by the trapezoid rule: (start, decay, drift, l11,
    l21, l22), where a path starts at x_0 = start z_0, start = sqrt(P).

    On the refined grid of ``refine`` = r steps of length delta = h / r the
    kernel is the AR(1) recursion x_k = rho x_{k-1} + s e_k, with rho the
    family record's AR(1) step and s^2 = P (1 - rho^2).  Given the cell's
    start value x_0, its end value and trapezoid increment are

        x_r = rho^r x_0 + s sum_i a_i e_i,             a_i = rho^(r-i)
        inc = delta c_0 x_0 + s delta sum_i b_i e_i,  b_i = sum_(k>=i) w_k rho^(k-i)

    with c_0 = sum_k w_k rho^k and trapezoid weights w_0 = w_r = 1/2, w_k = 1
    otherwise (Gillespie 1996 gives the unreduced pair).  The two sums are
    drawn from two normals (u, v) by the Cholesky factor of their covariance
    s^2 [[a.a, delta a.b], [delta a.b, delta^2 b.b]]:

        x_r = decay x_0 + l11 u,    inc = drift x_0 + l21 u + l22 v.

    The powers rho^0, ..., rho^r are formed ``_BLOCK_VALUES`` at a time, so
    the transition holds at most four tables of that many values whatever
    ``refine``.  Raises ``FactorizationFailure`` when the Schur complement is
    not positive.
    """
    delta = h / refine
    rho = model.family.ar1_step(model.scale, delta)
    s = math.sqrt(model.power * (1.0 - rho * rho))
    # a and b indexed by e = r - i, the steps left in the cell after e_i:
    # a_e = rho^e and b_e = rho^0 + ... + rho^(e-1) + rho^e / 2, whose
    # running sum ``prefix`` carries from one chunk of powers to the next
    aa = ab = bb = prefix = 0.0
    totals = []
    for start in range(0, refine + 1, _BLOCK_VALUES):
        powers = rho ** np.arange(start, min(start + _BLOCK_VALUES, refine + 1), dtype=float)
        totals.append(math.fsum(powers))
        a = powers[: refine - start]
        if a.size == 0:
            break
        b = np.cumsum(np.concatenate(([prefix], a[:-1])))
        prefix = float(b[-1] + a[-1])
        b += 0.5 * a
        aa, ab, bb = aa + float(a @ a), ab + float(a @ b), bb + float(b @ b)
    decay = float(powers[-1])
    c0 = math.fsum(totals) - 0.5 * (1.0 + decay)
    schur = bb - ab * ab / aa
    if not schur > 0.0:
        raise FactorizationFailure(
            f"cell transition covariance is not positive definite (refine={refine}, "
            f"rho={rho!r}, Schur complement {schur:g})"
        )
    root = math.sqrt(aa)
    l11, l21, l22 = s * root, s * delta * ab / root, s * delta * math.sqrt(schur)
    return math.sqrt(model.power), decay, delta * c0, l11, l21, l22


def _transition_increments(transition: tuple[float, ...], z: np.ndarray) -> np.ndarray:
    """Trapezoid increments of paths drawn by the exact cell transition.

    ``z`` is (paths, 2n + 1) and is overwritten: column 0 starts each path at
    x_0 = start z_0, and columns 2j + 1 and 2j + 2 hold the v and u of
    cell j.  The increments are formed for all cells at once from the pairs;
    then the even columns run through the recursion x_(j+1) = decay x_j +
    l11 u_j in place, one vector step across all paths per cell, and the
    drift terms of the cell-start values x_0, ..., x_(n-1) are added.  Every
    value is rounded the same way whatever the number of rows, so a path
    does not depend on how many other paths share the block.
    """
    start, decay, drift, l11, l21, l22 = transition
    chain, v = z[:, ::2], z[:, 1::2]  # x_0, u_0, ..., u_(n-1); v_0, ..., v_(n-1)
    u = chain[:, 1:]
    increments = np.multiply(u, l21)
    v *= l22
    increments += v
    u *= l11
    chain[:, 0] *= start
    columns = iter(chain.T)
    prev = next(columns)
    step = np.empty(z.shape[0])
    for col in columns:
        np.multiply(prev, decay, out=step)
        col += step
        prev = col
    starts = chain[:, :-1]
    starts *= drift
    increments += starts
    return increments


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


def _embedding_spectrum(model: SpectralModel, m: int, delta: float) -> np.ndarray:
    """Eigenvalues (rfft order) of the smallest circulant embedding of the
    acf on m refined-grid points that is positive semidefinite up to
    rounding."""
    for size in _embedding_sizes(model, m, delta):
        lam = _embedding_eigs(model, size, delta)
        if _semidefinite(lam):
            return lam
    raise FactorizationFailure(
        f"circulant embedding of the covariance on the refined grid (m={m}, "
        f"delta={delta:g}) is indefinite at size {size} (smallest eigenvalue "
        f"{float(lam.min()):g}), where the covariance has decayed below rounding"
    )


def _folded_roots(lam: np.ndarray, refine: int, delta: float) -> tuple[np.ndarray, float]:
    """Square roots of the eigenvalues (rfft order) of the circulant of the
    embedded process's cell increments, and min(lam) before clipping.

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
    return np.sqrt(folded), float(lam.min())


def _embedded_paths(roots: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """First m values of C^(1/2) w for each row w of ``w``, where C is the
    circulant with eigenvalues ``roots**2``; rows of independent standard
    normals give rows with covariance C[:m, :m].

    ``w`` is overwritten by the inverse transform, and the result is a view
    of it, so a block holds only the normals and their half spectrum."""
    spectrum = np.fft.rfft(w, axis=1)
    spectrum *= roots
    return np.fft.irfft(spectrum, n=w.shape[1], axis=1, out=w)[:, :m]


def _block_rows(paths: int, count: int) -> int:
    """Paths per block when each path holds ``count`` values."""
    return min(paths, max(1, _BLOCK_VALUES // count))


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


def _run_blocks(fill, blocks: list[slice], workers: int) -> None:
    """Call ``fill(block)`` for every block, split into ``workers`` strided
    shares; the calling thread runs the first share and one new thread runs
    each other share.  Every started thread is joined before this returns
    or raises, and the first exception any share raised is then re-raised; a
    share stops at its next block once any share has failed."""
    errors: list[BaseException] = []

    def share(first: int) -> None:
        for block in blocks[first::workers]:
            if errors:
                return
            try:
                fill(block)
            except BaseException as exc:  # re-raised below, after the join
                errors.append(exc)
                return

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


def _validation_bytes(
    model: SpectralModel, grid: SamplingGrid, refine: int, paths: int, lags: int, limit: int
) -> tuple[int, tuple[np.ndarray, float] | None]:
    """Upper bound on the bytes held while ``_validation_estimates`` runs
    ``paths`` paths at ``lags`` lags: the sampler blocks on each thread, the
    per-path vectors, and the cell transition or the embedding's eigenvalue
    search.

    Each of the sampler's threads holds one block at a time: its normals,
    width + n values per path, and beside them at most one second table.
    On the cell-transition route the width is 2n + 1, whatever ``refine``,
    the recursion overwrites the normals, and the second table is the
    block's increments with either the step vector or one reduction
    temporary (noise values or lag products, n per path).  On the embedding
    route the width is M/refine for the embedding size M the sampler picks,
    found by the same search, the inverse transform overwrites the normals,
    and the second table is the half spectrum, width + 2 values per path,
    which also covers the reduction temporaries (width >= 2n).  Each thread
    also fills the buffers of numpy's iterator for an operation on strided or
    mixed-type operands (at most three of ``np.getbufsize()`` float64
    values, or one of complex values) and holds the block's array headers
    and generator state, which are counted as one more such buffer.  The
    block size and the thread count are the sampler's own (``_block_rows``,
    ``_workers``).

    Beside the blocks the run holds lags + 2 vectors of one value per path
    (the lag means, the noise sums and the noise's centred sums of squares),
    and before the blocks, on the cell-transition route, four tables of
    min(refine + 1, ``_BLOCK_VALUES``) values for the transition's sums
    (``_cell_transition``) or, on the embedding route, four vectors of M
    values for the eigenvalue search, which stops at the first size whose
    bound exceeds ``limit``, before its FFT, and two more for the fold's
    full spectrum and filter response.  Both are counted beside the blocks.

    Returns the bound and what ``_folded_roots`` returns for the definite
    embedding the search found, for the sampler to take (None on the
    cell-transition route, or when the search stopped at the limit).
    """
    n = grid.n
    m = n * refine + 1

    def bound(width: int, second: int, setup: int) -> int:
        rows = _block_rows(paths, width + n)
        per_thread = rows * (width + n + second) + 4 * np.getbufsize()
        return 8 * (_workers(paths, rows) * per_thread + setup + (lags + 2) * paths)

    if model.family.ar1_step is not None:
        return bound(2 * n + 1, 2 * n + 1, 4 * min(refine + 1, _BLOCK_VALUES)), None
    delta = grid.h / refine
    for size in _embedding_sizes(model, m, delta):
        estimate = bound(size // refine, size // refine + 2, 6 * size)
        if estimate > limit:
            break
        lam = _embedding_eigs(model, size, delta)
        if _semidefinite(lam):
            return estimate, _folded_roots(lam, refine, delta)
    return estimate, None


def _sampling_args(refine, paths, seed) -> tuple[int, int, int]:
    """The sampler's integer arguments, checked."""
    if not isinstance(refine, (int, np.integer)) or isinstance(refine, bool) or refine < 4:
        raise ValueError(f"refine must be an integer >= 4, got {refine!r}")
    if not isinstance(paths, (int, np.integer)) or isinstance(paths, bool) or paths < 1:
        raise ValueError(f"paths must be an integer >= 1, got {paths!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(refine), int(paths), int(seed)


def _sample_blocks(
    model: SpectralModel, grid: SamplingGrid, refine: int, paths: int, seed: int, sink,
    embedding: tuple[np.ndarray, float] | None = None,
) -> float | None:
    """Draw ``paths`` paths in blocks of rows and pass each block to
    ``sink(rows, increments, noisy)`` on the thread that drew it, where
    ``rows`` is the block's slice of path indices and the two arrays hold its
    rows of the increment and noisy tables; returns the smallest embedding
    eigenvalue before clipping (None on the cell-transition route).  On the
    embedding route ``embedding`` may hand in what ``_folded_roots``
    returns for these arguments, as ``_validation_bytes`` found it, so the
    search is not run again.

    Block b holds the paths [b R, (b + 1) R), R = max(1, _BLOCK_VALUES //
    count) for count normals per path, and draws them by one call from the
    stream keyed by (seed, b).  R depends on count alone, so each path's
    draws depend only on (seed, path index, count).

    The blocks run on one thread per usable CPU, at most one per block, so
    ``sink`` is called from several threads at once, each time for other
    rows.  An exception raised in any block, the sink's included, is
    re-raised here once every thread has finished.
    """
    n = grid.n
    if model.family.ar1_step is not None:
        transition = _cell_transition(model, grid.h, refine)
        roots, min_eig, width = None, None, 2 * n + 1
    else:
        if embedding is None:
            delta = grid.h / refine
            lam = _embedding_spectrum(model, n * refine + 1, delta)
            embedding = _folded_roots(lam, refine, delta)
        roots, min_eig = embedding
        width = 2 * (roots.size - 1)
    count = width + n
    noise_scale = math.sqrt(grid.h)
    rows = _block_rows(paths, count)

    def fill(block: slice) -> None:
        z = _block_normals(seed, block.start // rows, block.stop - block.start, count)
        if roots is None:
            increments = _transition_increments(transition, z[:, :width])
        else:
            increments = _embedded_paths(roots, z[:, :width], n)
        noisy = z[:, width:]
        noisy *= noise_scale
        noisy += increments
        sink(block, increments, noisy)

    _run_blocks(fill, _row_blocks(paths, rows), _workers(paths, rows))
    return min_eig


def sample_paths(
    model: SpectralModel,
    grid: SamplingGrid,
    refine: int = 8,
    paths: int = 1000,
    seed: int = 42,
) -> PathBatch:
    """Simulate ``paths`` independent stationary inputs and reduce them to
    per-cell trapezoid increments and their noisy channel observations.

    Both routes are exact in law for the trapezoid rule on the refined grid
    of m = n*refine + 1 points.  A model whose family record has an AR(1)
    step (the exponential covariance) draws each cell's end value and
    increment at once by the exact cell transition (``_cell_transition``):
    2n + 1 draws per path, whatever ``refine``.  Other models use circulant
    embedding of the refined grid, of size M (2(m - 1), or a power-of-two
    multiple of it when padding was needed; ``min_embedding_eig`` records
    its smallest eigenvalue), folded onto the cells (``_folded_roots``), so
    each path's n increments come from M/refine draws.  Raises
    ``FactorizationFailure`` when no embedding within the padding stop is
    positive semidefinite.  Paths are drawn in blocks of about
    ``_BLOCK_VALUES`` values (``_sample_blocks``), and each block is copied
    into the two result tables, so the working memory beyond them does not
    grow with ``paths``.  Deterministic given (seed, arguments): each path's
    row of its block's draws holds the path's draws first and the next n
    draws for its channel noise, and depends only on (seed, path index,
    draws per path), so the tables do not depend on the number of threads,
    and a larger batch starts with a smaller one.
    """
    refine, paths, seed = _sampling_args(refine, paths, seed)
    increments = np.empty((paths, grid.n))
    noisy = np.empty((paths, grid.n))

    def store(rows: slice, increments_block: np.ndarray, noisy_block: np.ndarray) -> None:
        increments[rows] = increments_block
        noisy[rows] = noisy_block

    min_eig = _sample_blocks(model, grid, refine, paths, seed, store)
    return PathBatch(
        model=model,
        grid=grid,
        refine=refine,
        paths=paths,
        seed=seed,
        increments=increments,
        noisy=noisy,
        generator=f"numpy.random.Philox keyed (seed, row block), batch v{BATCH_VERSION} "
        f"(numpy {np.__version__})",
        min_embedding_eig=min_eig,
    )


# Per-path reducers, shared by the table route (empirical_gram,
# noise_variance_ratio) and the streamed route (_validation_estimates): each
# reduces one block of rows into its columns of a per-path vector, every row
# on its own, so the estimates do not depend on how the rows are blocked.
def _gram_lags(paths: int, n: int, lags) -> list[int]:
    """The requested lags as integers, checked against the path count and n."""
    if paths < 100:
        raise ValueError(f"empirical covariances need >= 100 paths, got {paths}")
    lags = [int(l) for l in lags]
    for l in lags:
        if not 0 <= l < n:
            raise ValueError(f"lag must be in [0, {n}), got {l}")
    return lags


def _lag_means(increments: np.ndarray, lags: list[int], out: np.ndarray) -> None:
    """Row ``pos`` of ``out`` gets each path's mean of inc_j * inc_{j+l} over
    its valid offsets, for l = lags[pos]."""
    n = increments.shape[1]
    for row, l in zip(out, lags):
        np.mean(increments[:, : n - l] * increments[:, l:], axis=1, out=row)


def _noise_moments(
    increments: np.ndarray, noisy: np.ndarray, shift: float, out: np.ndarray
) -> None:
    """Each path's sum of noise - shift (``out[0]``) and its sum of squares
    about that path's mean (``out[1]``), where the noise is noisy -
    increments."""
    noise = noisy - increments
    noise -= shift
    np.sum(noise, axis=1, out=out[0])
    noise -= (out[0] / noise.shape[1])[:, None]
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
    is held.  Requires at least 100 paths.
    """
    n = batch.grid.n
    lags = _gram_lags(batch.paths, n, lags)
    lag_means = np.empty((len(lags), batch.paths))
    for rows in _row_blocks(batch.paths, _block_rows(batch.paths, n)):
        _lag_means(batch.increments[rows], lags, lag_means[:, rows])
    return _gram_estimates(lag_means, n / batch.grid.T)


def noise_variance_ratio(batch: PathBatch) -> float:
    """Sample variance of the added channel noise divided by its nominal
    per-cell variance h; should sit near 1.

    The noise, noisy - increments, is formed one block of rows at a time
    and reduced to each path's sum and centred sum of squares, which are
    pooled as in ``_pooled_variance``.  The noise is first shifted by its
    first value, so a large common offset does not swamp the path sums.
    Requires at least two noise values.
    """
    n = batch.grid.n
    shift = float(batch.noisy[0, 0] - batch.increments[0, 0])
    moments = np.empty((2, batch.paths))
    for rows in _row_blocks(batch.paths, _block_rows(batch.paths, n)):
        _noise_moments(batch.increments[rows], batch.noisy[rows], shift, moments[:, rows])
    return _pooled_variance(moments, n) / batch.grid.h


def _validation_estimates(
    model: SpectralModel, grid: SamplingGrid, refine: int, paths: int, seed: int, lags, dump=None,
    embedding: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """``empirical_gram`` and ``noise_variance_ratio`` of the batch that
    ``sample_paths`` would draw with these arguments, computed without its
    tables: each block is reduced by the same per-path reducers on the
    thread that drew it, so only the sampler's blocks and lags + 2 per-path
    vectors are held.  The channel noise is centred by construction, so it
    is not shifted.

    With ``dump``, the file ``write_batch`` would write is written to that
    path, each block's increment rows at their offset in it; the file is
    opened before any path is drawn, and removed again if the run fails.
    ``embedding`` is handed to the sampler (``_sample_blocks``).
    """
    refine, paths, seed = _sampling_args(refine, paths, seed)
    n = grid.n
    lags = _gram_lags(paths, n, lags)
    lag_means = np.empty((len(lags), paths))
    moments = np.empty((2, paths))
    fh = None
    lock = threading.Lock()

    def reduce(rows: slice, increments: np.ndarray, noisy: np.ndarray) -> None:
        _lag_means(increments, lags, lag_means[:, rows])
        _noise_moments(increments, noisy, 0.0, moments[:, rows])
        if fh is not None:
            data = np.ascontiguousarray(increments, dtype="<f8").data
            with lock:
                fh.seek(_HEADER.size + rows.start * n * 8)
                fh.write(data)

    if dump is None:
        _sample_blocks(model, grid, refine, paths, seed, reduce, embedding)
    else:
        fh = open(dump, "wb")
        try:
            with fh:
                fh.write(_HEADER.pack(BATCH_MAGIC, BATCH_VERSION, paths, n, refine, seed))
                _sample_blocks(model, grid, refine, paths, seed, reduce, embedding)
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

    Versions 1 and 2 share the layout and are both read.  The file size is
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
