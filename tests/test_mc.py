"""Monte-Carlo layer: counter-based reproducibility, sampler correctness,
trapezoid accuracy order, agreement with the analytic covariances, and the
binary increment dump.

Statistical assertions run at fixed seeds, so every "within k standard errors"
check is deterministic in practice; the nested-refinement shift oracle (seed
11) was frozen from an independent run of the same construction.
"""

import hashlib
import math

import numpy as np
import pytest
import scipy.linalg

from szegolab import (
    FactorizationFailure,
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
from szegolab.mc import BATCH_MAGIC, BATCH_VERSION, _HEADER, _ar1_paths


def _trapezoid_weights(h: float, refine: int) -> np.ndarray:
    delta = h / refine
    w = np.full(refine + 1, delta)
    w[0] = w[-1] = 0.5 * delta
    return w


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
        noisy=None,
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
        ("noisy", np.zeros((3, 4))),
        ("noisy", np.full((2, 4), np.inf)),
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


def test_zero_power_paths_are_exactly_zero():
    model = SpectralModel.ornstein_uhlenbeck(0.0, 1.0)
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


def test_each_path_has_its_own_substream(ou11):
    # growing the batch must not disturb the paths already drawn
    grid = SamplingGrid(T=2.0, n=10)
    small = sample_paths(ou11, grid, refine=4, paths=3, seed=9)
    large = sample_paths(ou11, grid, refine=4, paths=8, seed=9)
    assert np.array_equal(large.increments[:3], small.increments)


def test_increments_do_not_depend_on_noise_flag(ou11):
    grid = SamplingGrid(T=2.0, n=10)
    with_noise = sample_paths(ou11, grid, paths=5, seed=77, include_noise=True)
    without = sample_paths(ou11, grid, paths=5, seed=77, include_noise=False)
    assert np.array_equal(with_noise.increments, without.increments)
    assert without.noisy is None


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
        "increments": "cd17d4d4e62763b4f9b0498a3afda23dedf6a7934b5019af5e6dd9fd86ad7c74",
        "noisy": "f3058cf0b5879356c5310c75f808698a2e9a9a1e0406682297ee3f499b32947d",
    }
    assert BATCH_VERSION == 1


def test_ar1_paths_match_scalar_recursion_bitwise():
    model = SpectralModel.ornstein_uhlenbeck(2.5, 0.7)
    delta = 0.03
    z = np.random.default_rng(0).standard_normal((5, 40))
    rho = math.exp(-model.scale * delta)
    scale = math.sqrt(model.power * (1.0 - rho * rho))
    expected = np.empty_like(z)
    for i, row in enumerate(z.tolist()):
        x = math.sqrt(model.power) * row[0]
        expected[i, 0] = x
        for j in range(1, len(row)):
            x = rho * x + scale * row[j]
            expected[i, j] = x
    x = _ar1_paths(model, z, delta)
    assert x.shape == z.shape and x.flags.c_contiguous
    assert np.array_equal(x, expected)


# ---------------------------------------------------------------------------
# sampler correctness on the refined grid
# ---------------------------------------------------------------------------
def test_exponential_model_one_step_regression(ou11):
    grid = SamplingGrid(T=4.0, n=20)
    batch = sample_paths(ou11, grid, refine=8, paths=200, seed=5, keep_values=True)
    x = batch.values
    delta = grid.h / batch.refine
    rho_hat = float(np.sum(x[:, 1:] * x[:, :-1]) / np.sum(x[:, :-1] ** 2))
    assert rho_hat == pytest.approx(math.exp(-delta), abs=5e-3)
    assert float(np.var(x)) == pytest.approx(ou11.power, abs=5e-2)


def test_dense_route_matches_analytic_covariances():
    model = SpectralModel.gaussian_kernel(1.0, 0.7)
    grid = SamplingGrid(T=4.0, n=20)
    batch = sample_paths(model, grid, refine=8, paths=400, seed=7)
    assert batch.jitter in (0.0, 1e-12 * model.power)
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
    # Subsample one batch's refined paths at coarser trapezoid resolutions:
    # the induced shift in the lag-0 estimate is negative (coarser rules
    # undershoot here) and shrinks as the resolution rises.
    grid = SamplingGrid(T=10.0, n=50)
    batch = sample_paths(ou11, grid, refine=16, paths=2000, seed=11, keep_values=True)
    scale = grid.n / grid.T

    def gamma0_at(stride: int) -> float:
        x = batch.values[:, ::stride]
        delta = grid.h / (batch.refine // stride)
        cells = 0.5 * delta * (x[:, :-1] + x[:, 1:])
        inc = cells.reshape(batch.paths, grid.n, -1).sum(axis=2)
        return scale * float(np.mean(inc * inc))

    reference = gamma0_at(1)
    assert reference == pytest.approx(scale * float(np.mean(batch.increments**2)), rel=1e-15)
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


def test_noise_variance_ratio_requires_noisy_table(ou11):
    batch = sample_paths(ou11, SamplingGrid(T=1.0, n=4), paths=2, seed=0, include_noise=False)
    with pytest.raises(ValueError):
        noise_variance_ratio(batch)


def test_empirical_gram_requires_enough_paths(ou11):
    batch = sample_paths(ou11, SamplingGrid(T=1.0, n=4), paths=99, seed=0)
    with pytest.raises(ValueError):
        empirical_gram(batch)


def test_empirical_gram_rejects_bad_lags(ou11):
    batch = sample_paths(ou11, SamplingGrid(T=1.0, n=4), paths=100, seed=0)
    with pytest.raises(ValueError):
        empirical_gram(batch, lags=(4,))
    with pytest.raises(ValueError):
        empirical_gram(batch, lags=(-1,))


def test_empirical_gram_default_covers_all_lags(ou11):
    batch = sample_paths(ou11, SamplingGrid(T=1.0, n=4), paths=100, seed=0)
    tilde, se = empirical_gram(batch)
    assert tilde.shape == se.shape == (4,)


# ---------------------------------------------------------------------------
# factorization fallback
# ---------------------------------------------------------------------------
def test_factorization_jitter_is_recorded(monkeypatch):
    model = SpectralModel.gaussian_kernel(2.0, 0.5)
    real = scipy.linalg.cholesky
    calls = {"count": 0}

    def flaky(a, **kwargs):
        calls["count"] += 1
        if calls["count"] == 1:
            raise scipy.linalg.LinAlgError("forced indefinite")
        return real(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", flaky)
    batch = sample_paths(model, SamplingGrid(T=1.0, n=4), refine=4, paths=2, seed=0)
    assert batch.jitter == 1e-12 * model.power


def test_factorization_failure_after_jitter(monkeypatch):
    def broken(a, **kwargs):
        raise scipy.linalg.LinAlgError("forced indefinite")

    monkeypatch.setattr(scipy.linalg, "cholesky", broken)
    with pytest.raises(FactorizationFailure):
        sample_paths(
            SpectralModel.gaussian_kernel(1.0, 0.5), SamplingGrid(T=1.0, n=4), paths=2, seed=0
        )


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
