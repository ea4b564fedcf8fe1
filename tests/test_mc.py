"""Monte-Carlo layer: counter-based reproducibility, sampler correctness
(the exact cell transition and the circulant embedding against the dense
covariance of the refined grid), trapezoid accuracy order, agreement with the
analytic covariances, and the binary increment dump.

Statistical assertions run at fixed seeds, so every "within k standard errors"
check is deterministic in practice.  The refined-grid AR(1) recursion that
the exponential model's sampler once ran lives here as the slow reference
(``_ar1_reference``).
"""

import dataclasses
import hashlib
import itertools
import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from szegolab import (
    FactorizationFailure,
    ModelKind,
    PathBatch,
    SamplingGrid,
    SpectralModel,
    empirical_gram,
    gamma_sequence,
    noise_variance_ratio,
    read_batch,
    sample_paths,
    write_batch,
)
from szegolab import mc, models
from szegolab.mc import (
    BATCH_MAGIC,
    BATCH_VERSION,
    _HEADER,
    _block_normals,
    _embedded_paths,
    _embedding_spectrum,
)

_KINDS = {
    "ou": SpectralModel.ornstein_uhlenbeck(1.0, 1.0),
    "gauss": SpectralModel.gaussian_kernel(1.1, 0.9),
    "tri": SpectralModel.triangular(1.1, 0.9),
}


def _trapezoid_weights(h: float, refine: int) -> np.ndarray:
    delta = h / refine
    w = np.full(refine + 1, delta)
    w[0] = w[-1] = 0.5 * delta
    return w


def _ar1_reference(model: SpectralModel, z: np.ndarray, delta: float) -> np.ndarray:
    """Stationary exponential-model paths on a grid of step delta from the
    (paths, m) normals ``z``, by the AR(1) recursion x_j = rho x_(j-1) +
    sqrt(P (1 - rho^2)) z_j started from x_0 = sqrt(P) z_0, one time step at
    a time: the slow reference for the sampler's cell transition."""
    rho = model.family.ar1_step(model.scale, delta)
    x = np.empty_like(z)
    x[:, 0] = math.sqrt(model.power) * z[:, 0]
    scale = math.sqrt(model.power * (1.0 - rho * rho))
    for j in range(1, z.shape[1]):
        x[:, j] = rho * x[:, j - 1] + scale * z[:, j]
    return x


def _width(model: SpectralModel, grid: SamplingGrid, refine: int) -> int:
    """Draws per path ahead of the channel noise: 2n + 1 on the
    cell-transition route, M/refine for the embedding size M on the other."""
    if model.family.ar1_step is not None:
        return 2 * grid.n + 1
    lam = _embedding_spectrum(model, grid.n * refine + 1, grid.h / refine)
    return 2 * (lam.size - 1) // refine


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------
def test_batch_validation(ou11):
    grid = SamplingGrid(T=1.0, n=4)
    ok = dict(
        model=ou11,
        grid=grid,
        refine=4,
        paths=2,
        seed=0,
        increments=np.zeros((2, 4)),
        noisy=np.zeros((2, 4)),
        generator="test",
    )
    PathBatch(**ok)  # sanity: the baseline is accepted
    for key, bad in [
        ("refine", 3),
        ("refine", 4.0),
        ("paths", 0),
        ("seed", -1),
        ("seed", 2**64),
        ("increments", np.zeros((2, 5))),
        ("increments", np.full((2, 4), np.nan)),
        ("increments", np.array([[0.0, 0.0, 0.0, 0.0], [0.0, -np.inf, 0.0, 0.0]])),
        ("noisy", None),
        ("noisy", np.zeros((3, 4))),
        ("noisy", np.full((2, 4), np.inf)),
        ("noisy", np.array([[0.0, 0.0, np.nan, 0.0], [0.0, 0.0, 0.0, 0.0]])),
    ]:
        with pytest.raises(ValueError):
            PathBatch(**{**ok, key: bad})


def test_sample_paths_argument_validation(ou11):
    grid = SamplingGrid(T=1.0, n=4)
    for kwargs in [
        dict(refine=3),
        dict(refine=True),
        dict(paths=0),
        dict(paths=True),
        dict(seed=-1),
        dict(seed=2**64),
        dict(seed=True),
    ]:
        with pytest.raises(ValueError):
            sample_paths(ou11, grid, **kwargs)


def test_batch_arrays_read_only(ou11):
    batch = sample_paths(ou11, SamplingGrid(T=1.0, n=4), paths=3, seed=1)
    with pytest.raises(ValueError):
        batch.increments[0, 0] = 1.0
    with pytest.raises(ValueError):
        batch.noisy[0, 0] = 1.0


def test_batch_freezes_a_view_not_the_callers_tables(ou11):
    increments, noisy = np.zeros((2, 4)), np.ones((2, 4))
    batch = PathBatch(model=ou11, grid=SamplingGrid(T=1.0, n=4), refine=4, paths=2, seed=0,
                      increments=increments, noisy=noisy, generator="test")
    assert increments.flags.writeable and noisy.flags.writeable
    increments[0, 0] = 2.0  # still the caller's to write
    assert not batch.increments.flags.writeable and not batch.noisy.flags.writeable
    with pytest.raises(ValueError):
        batch.increments[0, 1] = 1.0
    with pytest.raises(ValueError):
        batch.noisy[0, 1] = 1.0


@pytest.mark.parametrize("kind", _KINDS)
def test_zero_power_paths_are_exactly_zero(kind):
    model = dataclasses.replace(_KINDS[kind], power=0.0)
    batch = sample_paths(model, SamplingGrid(T=2.0, n=8), paths=5, seed=3)
    assert np.all(batch.increments == 0.0)
    # the channel noise is still drawn, so the noisy table is pure noise
    assert np.all(batch.noisy != 0.0)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------
def test_seed_determinism_bitwise(ou11):
    grid = SamplingGrid(T=2.0, n=10)
    a = sample_paths(ou11, grid, refine=4, paths=7, seed=123)
    b = sample_paths(ou11, grid, refine=4, paths=7, seed=123)
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.noisy, b.noisy)
    c = sample_paths(ou11, grid, refine=4, paths=7, seed=124)
    assert not np.array_equal(a.increments, c.increments)


@pytest.mark.parametrize("kind", _KINDS)
def test_each_path_has_its_own_substream(kind):
    # growing the batch must not disturb the paths already drawn
    grid = SamplingGrid(T=2.0, n=10)
    small = sample_paths(_KINDS[kind], grid, refine=4, paths=3, seed=9)
    large = sample_paths(_KINDS[kind], grid, refine=4, paths=8, seed=9)
    assert np.array_equal(large.increments[:3], small.increments)
    assert np.array_equal(large.noisy[:3], small.noisy)


@pytest.mark.parametrize("kind", _KINDS)
def test_channel_noise_follows_the_path_draws(kind):
    # each path's row of draws holds the path's draws first and its n noise
    # draws after them, so the noise never shifts the draws behind the
    # increments
    model, grid, refine = _KINDS[kind], SamplingGrid(T=2.0, n=10), 4
    batch = sample_paths(model, grid, refine=refine, paths=5, seed=77)
    width = _width(model, grid, refine)
    z = _block_normals(77, 0, 5, width + grid.n)
    assert np.array_equal(batch.noisy, batch.increments + math.sqrt(grid.h) * z[:, width:])


@pytest.mark.parametrize("seed", [21, 2**64 - 1])
@pytest.mark.parametrize("kind", _KINDS)
def test_each_row_block_draws_from_the_stream_keyed_by_its_index(kind, seed, monkeypatch):
    # with 200-value blocks, block b holds the rows [b R, (b + 1) R), R =
    # max(1, 200 // count), and draws them by one standard_normal((rows,
    # count)) call of a fresh Philox keyed by (seed, b); the last block is cut
    # at the path count
    model, grid, refine, paths = _KINDS[kind], SamplingGrid(T=2.0, n=10), 4, 14
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 200)
    batch = sample_paths(model, grid, refine=refine, paths=paths, seed=seed)
    width = _width(model, grid, refine)
    count = width + grid.n
    rows = max(1, 200 // count)
    for block, start in enumerate(range(0, paths, rows)):
        stop = min(start + rows, paths)
        bits = np.random.Philox(key=np.array([seed, block], dtype=np.uint64))
        z = np.random.Generator(bits).standard_normal((stop - start, count))
        noise = math.sqrt(grid.h) * z[:, width:]
        assert np.array_equal(batch.noisy[start:stop], batch.increments[start:stop] + noise)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("block_values, paths", [(200, 12), (mc._BLOCK_VALUES, 5000)])
def test_worker_count_does_not_change_the_batch(kind, block_values, paths, monkeypatch):
    # one path per 200-value block, and at least three blocks of many paths
    # at the default (the exponential model's 3n + 1 = 121 draws per path
    # put 2166 paths in a block); three workers can outnumber the CPUs, and
    # a short switch interval interleaves them often
    grid, args = SamplingGrid(T=4.0, n=40), dict(refine=8, paths=paths, seed=5)
    monkeypatch.setattr(mc, "_BLOCK_VALUES", block_values)
    run_blocks, seen = mc._run_blocks, []

    def recording(fill, starts, workers):
        seen.append(workers)
        run_blocks(fill, starts, workers)

    monkeypatch.setattr(mc, "_run_blocks", recording)
    batches = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(mc, "_usable_cpus", lambda: workers)
            batches.append(sample_paths(_KINDS[kind], grid, **args))
    finally:
        sys.setswitchinterval(interval)
    assert seen == [1, 2, 3]
    for batch in batches[1:]:
        for name in ("increments", "noisy"):
            assert np.array_equal(getattr(batch, name), getattr(batches[0], name))


def test_a_failing_block_is_raised_once_every_thread_has_ended(monkeypatch):
    calls, embedded = itertools.count(), _embedded_paths

    def failing_second_call(roots, w, m):
        if next(calls) == 1:
            raise RuntimeError("block failed")
        return embedded(roots, w, m)

    monkeypatch.setattr(mc, "_embedded_paths", failing_second_call)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 200)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed"):
        sample_paths(_KINDS["gauss"], SamplingGrid(T=2.0, n=10), refine=4, paths=12, seed=1)
    assert threading.active_count() == before


def test_generator_metadata_names_counter_based_source(ou11):
    batch = sample_paths(ou11, SamplingGrid(T=1.0, n=4), paths=2, seed=0)
    assert "Philox" in batch.generator


def test_exponential_sampler_stream_is_pinned(ou11):
    # Frozen digests of the exponential-model batch: a change in the last bit
    # of any sample must come with a new BATCH_VERSION and generator tag.
    batch = sample_paths(ou11, SamplingGrid(T=10, n=100), refine=8, paths=64, seed=42)
    digest = {
        name: hashlib.sha256(getattr(batch, name).tobytes()).hexdigest()
        for name in ("increments", "noisy")
    }
    assert digest == {
        "increments": "ed11828fd86807e63f7fcea25a42249f4dcd24aab1e89e0ea89bd839fdbaa22b",
        "noisy": "8177e259121d877ff5aa0c0ee16931e3bde8fa135a2d35d9dc73e2775c6b2a55",
    }
    assert BATCH_VERSION == 3
    assert batch.generator.startswith("numpy.random.Philox keyed (seed, row block), batch v3 ")


def test_embedding_sampler_stream_is_pinned():
    # Frozen digests of a Gaussian-kernel batch, drawn by the folded
    # circulant embedding: a change in the last bit of any sample must come
    # with a new BATCH_VERSION and generator tag.
    batch = sample_paths(_KINDS["gauss"], SamplingGrid(T=10, n=100), refine=8, paths=64, seed=42)
    digest = {
        name: hashlib.sha256(getattr(batch, name).tobytes()).hexdigest()
        for name in ("increments", "noisy")
    }
    assert digest == {
        "increments": "da909c457f877be362d060a7bb6849b55ff873dce20403faa50f08a3f3c98048",
        "noisy": "627d1281dd959bf36f2292e5d587ae88c31bb433028af684841d9deb539abd01",
    }


def test_cell_transition_matches_the_scalar_recursion_bitwise():
    # each row is stepped on its own, in the order of the scalar recursion
    model, n = SpectralModel.ornstein_uhlenbeck(2.5, 0.7), 20
    transition = mc._cell_transition(model, 0.24, 8)
    start, decay, drift, l11, l21, l22 = transition
    assert start == math.sqrt(model.power)
    z = np.random.default_rng(0).standard_normal((5, 2 * n + 1))
    expected = np.empty((5, n))
    for i, row in enumerate(z.tolist()):
        x = start * row[0]
        for j in range(n):
            v, u = row[2 * j + 1], row[2 * j + 2]
            expected[i, j] = (l21 * u + l22 * v) + drift * x
            x = l11 * u + decay * x
    increments = mc._transition_increments(transition, z)
    assert increments.flags.c_contiguous
    assert np.array_equal(increments, expected)


# ---------------------------------------------------------------------------
# sampler correctness on the refined grid
# ---------------------------------------------------------------------------
def test_exponential_model_one_step_regression(ou11):
    # the reference recursion recovers its AR(1) step and the stationary variance
    grid = SamplingGrid(T=4.0, n=20)
    delta = grid.h / 8
    z = np.random.default_rng(5).standard_normal((200, grid.n * 8 + 1))
    x = _ar1_reference(ou11, z, delta)
    rho_hat = float(np.sum(x[:, 1:] * x[:, :-1]) / np.sum(x[:, :-1] ** 2))
    assert rho_hat == pytest.approx(math.exp(-delta), abs=5e-3)
    assert float(np.var(x)) == pytest.approx(ou11.power, abs=5e-2)


@pytest.mark.parametrize(
    "model",
    [SpectralModel.gaussian_kernel(1.0, 0.7), SpectralModel.triangular(1.0, 0.7)],
    ids=lambda model: model.kind.value,
)
def test_embedding_route_matches_analytic_covariances(model):
    grid = SamplingGrid(T=4.0, n=20)
    batch = sample_paths(model, grid, refine=8, paths=400, seed=7)
    assert batch.jitter == 0.0
    assert batch.min_embedding_eig > -1e-12 * model.power
    gamma = gamma_sequence(model, grid).gamma
    tilde, se = empirical_gram(batch, lags=(0, 1, 2))
    for l in (0, 1, 2):
        assert abs(tilde[l] - gamma[l]) <= 4.0 * se[l]


def test_trapezoid_variance_error_is_second_order(ou11):
    # Deterministic order check: the variance of the per-cell trapezoid
    # increment is w' Sigma w, whose gap from the exact normalized covariance
    # gamma_0 must shrink by ~4x per refinement doubling.
    h = 0.2
    gamma0 = 2.0 * (h + math.expm1(-h)) / h
    gaps = []
    for refine in (4, 8, 16, 32):
        w = _trapezoid_weights(h, refine)
        tau = (h / refine) * np.arange(refine + 1)
        sigma = ou11.acf(np.abs(tau[:, None] - tau[None, :]))
        gaps.append(abs(float(w @ sigma @ w) / h - gamma0))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.8 <= coarse / fine <= 4.2


def test_nested_refinement_shift(ou11):
    # Subsample refined-grid paths of the reference recursion at coarser
    # trapezoid resolutions: the induced shift in the lag-0 estimate is
    # negative (coarser rules undershoot here) and shrinks as the resolution
    # rises.  At full resolution the reference agrees with the sampler's
    # batch, whose cell transition draws the same law.
    grid, refine, paths = SamplingGrid(T=10.0, n=50), 16, 2000
    batch = sample_paths(ou11, grid, refine=refine, paths=paths, seed=11)
    z = np.random.default_rng(11).standard_normal((paths, grid.n * refine + 1))
    values = _ar1_reference(ou11, z, grid.h / refine)
    scale = grid.n / grid.T

    def per_path_gamma0(stride: int) -> np.ndarray:
        x = values[:, ::stride]
        delta = grid.h / (refine // stride)
        cells = 0.5 * delta * (x[:, :-1] + x[:, 1:])
        inc = cells.reshape(paths, grid.n, -1).sum(axis=2)
        return scale * np.mean(inc * inc, axis=1)

    def gamma0_at(stride: int) -> float:
        return float(np.mean(per_path_gamma0(stride)))

    reference = gamma0_at(1)
    (sampled,), (sampled_se,) = empirical_gram(batch, (0,))
    reference_se = float(np.std(per_path_gamma0(1), ddof=1)) / math.sqrt(paths)
    assert abs(sampled - reference) <= 4.0 * math.hypot(sampled_se, reference_se)
    d8 = gamma0_at(2) - reference
    d4 = gamma0_at(4) - reference
    assert d4 < 0.0 and d8 < 0.0
    assert abs(d4) > abs(d8)
    assert 2.5 <= d4 / d8 <= 6.5  # ~5 in expectation for an O(delta^2) rule


# ---------------------------------------------------------------------------
# empirical covariances and noise
# ---------------------------------------------------------------------------
def test_empirical_gram_matches_analytic_within_three_se(mc_batch):
    gamma = gamma_sequence(mc_batch.model, mc_batch.grid).gamma
    lags = (0, 1, 2, 5)
    tilde, se = empirical_gram(mc_batch, lags=lags)
    assert np.all(se > 0.0)
    for pos, l in enumerate(lags):
        assert abs(tilde[pos] - gamma[l]) <= 3.0 * se[pos]


def test_noise_variance_ratio_near_one(mc_batch):
    assert 0.9 <= noise_variance_ratio(mc_batch) <= 1.1


def test_noise_variance_ratio_reads_the_noise_column(ou11):
    # dyadic tables, so noisy - increments gives the noise back exactly
    grid = SamplingGrid(T=2.0, n=4)
    increments = np.array([[1.0, -0.5, 0.25, 2.0], [0.0, 1.5, -1.0, 0.5]])
    noise = np.array([[0.125, -0.375, 0.25, 0.0], [0.5, -0.125, -0.25, 0.625]])
    batch = PathBatch(model=ou11, grid=grid, refine=4, paths=2, seed=0,
                      increments=increments, noisy=increments + noise, generator="test")
    assert noise_variance_ratio(batch) == float(np.var(noise, ddof=1)) / grid.h


@pytest.fixture(scope="module")
def ragged_batch():
    # 10 001 paths of n = 100 cells: three full blocks of rows and a shorter last one
    batch = sample_paths(_KINDS["ou"], SamplingGrid(T=10.0, n=100), paths=10_001, seed=3)
    rows = mc._block_rows(batch.paths, batch.grid.n)
    assert batch.paths // rows == 3 and batch.paths % rows > 0
    return batch


def test_streamed_empirical_gram_equals_the_one_shot_formula(ragged_batch):
    inc, n, lags = ragged_batch.increments, ragged_batch.grid.n, (0, 1, 2, 5, 99)
    scale = n / ragged_batch.grid.T
    tilde, se = empirical_gram(ragged_batch, lags)
    for pos, l in enumerate(lags):
        per_path = np.mean(inc[:, : n - l] * inc[:, l:], axis=1)
        assert tilde[pos] == scale * float(np.mean(per_path))
        assert se[pos] == scale * float(np.std(per_path, ddof=1)) / math.sqrt(ragged_batch.paths)


def test_streamed_noise_variance_ratio_matches_the_one_shot_variance(ragged_batch):
    noise = ragged_batch.noisy - ragged_batch.increments
    expected = float(np.var(noise, ddof=1)) / ragged_batch.grid.h
    assert noise_variance_ratio(ragged_batch) == pytest.approx(expected, rel=1e-15, abs=0.0)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 8)).filter(lambda s: s[0] * s[1] >= 2),
    T=st.sampled_from([0.01, 1.0, 10.0, 1000.0]),
    offset=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
    data=st.data(),
)
def test_noise_variance_ratio_matches_the_sample_variance(ou11, shape, T, offset, data):
    # the noise is (z + offset) * sqrt(h); two anchor values keep its spread
    # at least 2 sqrt(h), so the reference variance itself is accurate
    paths, n = shape
    grid = SamplingGrid(T=T, n=n)

    def table(bound):
        values = st.floats(-bound, bound)
        return np.array(data.draw(st.lists(values, min_size=paths * n, max_size=paths * n)))

    z = table(4.0)
    z[:2] = (-1.0, 1.0)
    noise = (z + offset).reshape(paths, n) * math.sqrt(grid.h)
    increments = table(10.0).reshape(paths, n)
    batch = PathBatch(model=ou11, grid=grid, refine=4, paths=paths, seed=0,
                      increments=increments, noisy=increments + noise, generator="test")
    expected = float(np.var(batch.noisy - batch.increments, ddof=1)) / grid.h
    assert noise_variance_ratio(batch) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_noise_variance_ratio_needs_two_values(ou11):
    grid = SamplingGrid(T=1.0, n=1)
    batch = PathBatch(model=ou11, grid=grid, refine=4, paths=1, seed=0,
                      increments=np.zeros((1, 1)), noisy=np.ones((1, 1)), generator="test")
    with pytest.raises(ValueError, match="2 noise values"):
        noise_variance_ratio(batch)


def test_empirical_gram_requires_enough_paths(ou11):
    batch = sample_paths(ou11, SamplingGrid(T=1.0, n=4), paths=99, seed=0)
    with pytest.raises(ValueError):
        empirical_gram(batch, lags=(0,))


def test_empirical_gram_rejects_bad_lags(ou11):
    batch = sample_paths(ou11, SamplingGrid(T=1.0, n=4), paths=100, seed=0)
    with pytest.raises(ValueError):
        empirical_gram(batch, lags=(4,))
    with pytest.raises(ValueError):
        empirical_gram(batch, lags=(-1,))


def test_empirical_gram_returns_each_requested_lag(ou11):
    # one entry per lag, in the order asked, each its own single-lag estimate
    batch = sample_paths(ou11, SamplingGrid(T=1.0, n=4), paths=100, seed=0)
    tilde, se = empirical_gram(batch, lags=range(4))
    assert tilde.shape == se.shape == (4,)
    picked, picked_se = empirical_gram(batch, lags=(3, 1))
    assert np.array_equal(picked, tilde[[3, 1]])
    assert np.array_equal(picked_se, se[[3, 1]])


# ---------------------------------------------------------------------------
# the streamed route of mc-validate against the table route
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "kind, T, n",
    [("ou", 10.0, 100), ("gauss", 10.0, 100), ("tri", 10.0, 100), ("gauss", 1.0, 20)],
    ids=["ou", "gauss", "tri", "gauss-padded"],
)
def test_streamed_estimates_equal_the_table_route(kind, T, n, workers, tmp_path, monkeypatch):
    # 1001 paths leave a shorter last block of rows on every route
    model, grid, paths, seed, lags = _KINDS[kind], SamplingGrid(T=T, n=n), 1001, 7, (0, 1, 2, 5)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: workers)
    batch = sample_paths(model, grid, refine=8, paths=paths, seed=seed)
    assert paths % mc._block_rows(paths, _width(model, grid, 8) + n) > 0
    tilde, se = empirical_gram(batch, lags)
    ratio = noise_variance_ratio(batch)
    write_batch(batch, tmp_path / "table.szgl")

    dump = tmp_path / "streamed.szgl"
    s_tilde, s_se, s_ratio = mc._validation_estimates(model, grid, 8, paths, seed, lags, dump=dump)
    assert np.array_equal(s_tilde, tilde) and np.array_equal(s_se, se)
    assert s_ratio == pytest.approx(ratio, rel=1e-15, abs=0.0)
    assert dump.read_bytes() == (tmp_path / "table.szgl").read_bytes()


def test_streamed_blocks_on_more_threads_than_cpus_land_in_their_rows(tmp_path, monkeypatch):
    # one path per 200-value block on three workers, interleaved often: a
    # block reduced into the wrong columns or written at the wrong offset
    # would change the estimates or the dump
    model, grid, paths, seed = _KINDS["gauss"], SamplingGrid(T=4.0, n=10), 101, 3
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 200)  # the blocking keys the streams
    batch = sample_paths(model, grid, refine=4, paths=paths, seed=seed)
    write_batch(batch, tmp_path / "table.szgl")
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
    dump = tmp_path / "streamed.szgl"
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        tilde, se, ratio = mc._validation_estimates(model, grid, 4, paths, seed, (0, 3), dump=dump)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    expected = empirical_gram(batch, (0, 3))
    assert np.array_equal(tilde, expected[0]) and np.array_equal(se, expected[1])
    assert ratio == pytest.approx(noise_variance_ratio(batch), rel=1e-15, abs=0.0)
    assert dump.read_bytes() == (tmp_path / "table.szgl").read_bytes()


def test_streamed_run_that_fails_part_way_leaves_no_dump(tmp_path, monkeypatch):
    calls, moments = itertools.count(), mc._noise_moments

    def failing_third_block(*args):
        if next(calls) == 2:
            raise RuntimeError("block failed")
        moments(*args)

    monkeypatch.setattr(mc, "_noise_moments", failing_third_block)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    dump = tmp_path / "partial.szgl"
    with pytest.raises(RuntimeError, match="block failed"):
        mc._validation_estimates(_KINDS["ou"], SamplingGrid(T=10.0, n=100), 8, 2000, 1, (0,),
                                 dump=dump)
    assert not dump.exists()
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# circulant embedding against the dense covariance
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "model, T, padding",
    [
        (SpectralModel.gaussian_kernel(1.1, 0.9), 10.0, 1),
        (SpectralModel.gaussian_kernel(1.1, 0.9), 4.0, 2),
        (SpectralModel.gaussian_kernel(1.0, 1.0), 1.0, 8),
        (SpectralModel.triangular(1.1, 0.9), 4.0, 1),
        (SpectralModel.triangular(1.0, 2.0), 1.0, 1),
    ],
    ids=["gauss", "gauss-padded-2", "gauss-padded-8", "tri", "tri-wide"],
)
def test_embedding_reproduces_the_dense_covariance(model, T, padding):
    # Push the identity through the sampler's linear map: its rows are the
    # columns of C^(1/2) restricted to the first m points, so their Gram
    # matrix is the covariance the paths have.  It must be the dense
    # Toeplitz covariance of the refined grid.
    n, refine = 20, 4
    m, delta = n * refine + 1, T / (n * refine)
    lam = _embedding_spectrum(model, m, delta)
    size = 2 * (lam.size - 1)
    assert size == 2 * (m - 1) * padding
    x = _embedded_paths(np.sqrt(np.maximum(lam, 0.0)), np.eye(size), m)
    dense = scipy.linalg.toeplitz(model.acf(delta * np.arange(m)))
    assert np.max(np.abs(x.T @ x - dense)) <= 1e-12 * model.power


def _route_tables(model, grid, refine, monkeypatch):
    """Push the identity through the sampler: with one path per draw and
    the identity as the block's normals, row k of each table is the column
    of the route's linear map for draw k, so a table's Gram matrix is the
    covariance the route gives it."""
    count = _width(model, grid, refine) + grid.n
    monkeypatch.setattr(mc, "_block_normals", lambda seed, block, rows, count: np.eye(rows, count))
    batch = sample_paths(model, grid, refine=refine, paths=count, seed=0)
    return batch.increments, batch.noisy


def _trapezoid_covariance(model, grid, refine):
    """B' Sigma B: Sigma the covariance of the m = n refine + 1 refined-grid
    values, B the n columns of trapezoid weights."""
    n, m, delta = grid.n, grid.n * refine + 1, grid.h / refine
    sigma = scipy.linalg.toeplitz(model.acf(delta * np.arange(m)))
    weights, w = np.zeros((m, n)), _trapezoid_weights(grid.h, refine)
    for j in range(n):
        weights[j * refine : (j + 1) * refine + 1, j] = w
    return weights.T @ sigma @ weights


@pytest.mark.parametrize("power", [1.3, 0.0])
@pytest.mark.parametrize("alpha_delta", [1e-8, 0.05, 40.0], ids=["rho-near-1", "rho-mid", "rho-near-0"])
@pytest.mark.parametrize("refine", [4, 8, 64])
def test_cell_transition_reproduces_the_trapezoid_covariance(refine, alpha_delta, power, monkeypatch):
    # the increments must have the covariance B' Sigma B of the refined AR(1)
    # path reduced by the trapezoid rule, and the noisy values that plus h I;
    # at power 0 the bound is 0, so the increments must be exactly zero
    model, n = SpectralModel.ornstein_uhlenbeck(power, 0.7), 10
    grid = SamplingGrid(T=n * refine * alpha_delta / model.scale, n=n)
    increments, noisy = _route_tables(model, grid, refine, monkeypatch)
    expected = _trapezoid_covariance(model, grid, refine)
    for table, want in ((increments, expected), (noisy, expected + grid.h * np.eye(n))):
        assert np.max(np.abs(table.T @ table - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "model, T, n, refine, padding",
    [
        (SpectralModel.gaussian_kernel(1.1, 0.9), 10.0, 20, 4, 1),
        (SpectralModel.gaussian_kernel(1.1, 0.9), 4.0, 20, 5, 2),
        (SpectralModel.gaussian_kernel(1.0, 1.0), 1.0, 20, 8, 8),
        (SpectralModel.gaussian_kernel(1.1, 0.9), 1.0, 1, 4, 8),
        (SpectralModel.triangular(1.1, 0.7), 4.0, 10, 64, 1),
        (SpectralModel.triangular(1.0, 2.0), 1.0, 20, 5, 1),
        (SpectralModel.triangular(1.0, 1e6), 4.0, 10, 4, 1),
        (SpectralModel.triangular(1.0, 0.7), 2.0, 1, 8, 1),
    ],
    ids=["gauss", "gauss-padded-2", "gauss-padded-8", "gauss-n1", "tri-refine-64", "tri-wide",
         "tri-support-1e6", "tri-n1"],
)
def test_folded_embedding_reproduces_the_trapezoid_covariance(model, T, n, refine, padding,
                                                               monkeypatch):
    # the refined spectrum folded onto the cells must give the increments the
    # covariance B' Sigma B of the refined path reduced by the trapezoid
    # rule, padded embeddings and a refine that is not a power of two
    # included, and the noisy values that plus h I
    grid = SamplingGrid(T=T, n=n)
    m = n * refine + 1
    assert 2 * (_embedding_spectrum(model, m, grid.h / refine).size - 1) == 2 * (m - 1) * padding
    increments, noisy = _route_tables(model, grid, refine, monkeypatch)
    expected = _trapezoid_covariance(model, grid, refine)
    for table, want in ((increments, expected), (noisy, expected + grid.h * np.eye(n))):
        assert np.max(np.abs(table.T @ table - want)) <= 1e-13 * np.max(np.abs(want))


def test_validation_bytes_of_the_cell_route_stop_growing_with_refine():
    # only the transition's chunk of powers grows with refine, up to four
    # tables of _BLOCK_VALUES values, so a huge refine is not refused
    model, grid = _KINDS["ou"], SamplingGrid(T=10.0, n=100)
    sizes = {refine: mc._validation_bytes(model, grid, refine, 10_000, 4, 2**31)
             for refine in (4, 2**18, 2**20, 10**8)}
    assert {embedding for _, embedding in sizes.values()} == {None}
    assert sizes[2**18] == sizes[2**20] == sizes[10**8]
    assert sizes[10**8][0] - sizes[4][0] < 4 * 8 * mc._BLOCK_VALUES


def test_chunked_cell_transition_matches_one_chunk(monkeypatch):
    # more than one chunk of powers changes only the rounding of the sums
    model, h = SpectralModel.ornstein_uhlenbeck(1.2, 0.8), 0.3
    whole = mc._cell_transition(model, h, 65)
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 7)
    chunked = mc._cell_transition(model, h, 65)
    np.testing.assert_allclose(chunked, whole, rtol=1e-14, atol=0)


def test_indefinite_kernel_fails_at_the_padding_stop(monkeypatch):
    # A box-shaped autocovariance is not positive definite: its spectrum is
    # a sinc, which changes sign.  This one is a box of radius 0.5 on a
    # lower box of radius s = 3.  Padding doubles M from 2(m - 1) = 32 while
    # the acf at lag M/2 is nonzero (lags 1 and 2 lie inside radius 3) and
    # stops at M = 128, where lag 4 lies outside it.
    family = models._FAMILIES[ModelKind.GAUSSIAN_KERNEL]
    boxes = dataclasses.replace(family, acf=lambda p, s, t: p * ((t < 0.5) + 0.1 * (t < s)))
    monkeypatch.setitem(models._FAMILIES, ModelKind.GAUSSIAN_KERNEL, boxes)
    model = SpectralModel.gaussian_kernel(1.0, 3.0)
    with pytest.raises(FactorizationFailure, match="indefinite at size 128"):
        sample_paths(model, SamplingGrid(T=1.0, n=4), refine=4, paths=2, seed=0)


# ---------------------------------------------------------------------------
# binary dump
# ---------------------------------------------------------------------------
def test_write_read_round_trip(ou11, tmp_path):
    batch = sample_paths(ou11, SamplingGrid(T=3.0, n=12), refine=8, paths=150, seed=9)
    path = tmp_path / "batch.szgl"
    write_batch(batch, path)
    assert path.stat().st_size == _HEADER.size + batch.paths * 12 * 8
    header, table = read_batch(path)
    assert header == {"version": BATCH_VERSION, "paths": 150, "n": 12, "refine": 8, "seed": 9}
    assert np.array_equal(table, batch.increments)


def test_read_batch_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.szgl"
    path.write_bytes(_HEADER.pack(b"NOPE", BATCH_VERSION, 1, 1, 4, 0) + b"\x00" * 8)
    with pytest.raises(ValueError, match="magic"):
        read_batch(path)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_read_batch_reads_the_versions_that_share_the_layout(version, tmp_path):
    # versions 1 to 3 differ only in the sampler behind the table
    path = tmp_path / "batch.szgl"
    table = np.arange(6.0).reshape(2, 3)
    path.write_bytes(_HEADER.pack(BATCH_MAGIC, version, 2, 3, 8, 5) + table.astype("<f8").tobytes())
    if version == 4:
        with pytest.raises(ValueError, match="unsupported dump version 4"):
            read_batch(path)
        return
    header, read = read_batch(path)
    assert header == {"version": version, "paths": 2, "n": 3, "refine": 8, "seed": 5}
    assert np.array_equal(read, table)


def test_read_batch_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.szgl"
    path.write_bytes(_HEADER.pack(BATCH_MAGIC, 99, 1, 1, 4, 0) + b"\x00" * 8)
    with pytest.raises(ValueError, match="version"):
        read_batch(path)


def test_read_batch_rejects_truncation(ou11, tmp_path):
    batch = sample_paths(ou11, SamplingGrid(T=1.0, n=4), paths=2, seed=0)
    path = tmp_path / "trunc.szgl"
    write_batch(batch, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="truncated"):
        read_batch(path)
    path.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated"):
        read_batch(path)
