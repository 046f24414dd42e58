import numpy as np
import pytest

from fpt.errors import InsufficientData, InvalidInput
from fpt.preprocess import (
    InstanceStats,
    PatchConfig,
    normalize_windows,
    patchify,
    patchify_windows,
    revin_denormalize,
    revin_normalize,
)
from fpt.rng import seeded_rng


def test_constant_window():
    out, stats = revin_normalize([5.0, 5.0, 5.0], eps=1e-5)
    assert np.allclose(out, 0.0)
    assert stats.mean == 5.0 and stats.std == 0.0


def test_already_standardized_eps_zero():
    out, _ = revin_normalize([-1.0, 1.0], eps=0.0)
    assert np.allclose(out, [-1.0, 1.0], atol=1e-15)


def test_output_statistics():
    x = seeded_rng(0).normal(256, loc=3.0, scale=2.0)
    out, stats = revin_normalize(x, eps=1e-5)
    assert abs(out.mean()) < 1e-10
    var = x.var()
    assert out.var() == pytest.approx(var / (var + 1e-5), rel=1e-9)
    assert stats.std_eff == pytest.approx(np.sqrt(var + 1e-5))


def test_round_trip_thousand_windows():
    rng = seeded_rng(1)
    for i in range(1000):
        if i % 50 == 0:
            x = np.full(16, float(i)) + rng.normal(16, scale=1e-8)  # near-constant
        else:
            x = rng.normal(16, loc=rng.uniform((), -5, 5), scale=rng.uniform((), 0.01, 10))
        out, stats = revin_normalize(x, eps=1e-5)
        back = revin_denormalize(out, stats)
        assert np.abs(back - x).max() < 1e-10


def test_denormalize_examples():
    stats = InstanceStats(mean=3.0, std=2.0, eps=0.0)  # std_eff = 2
    assert np.allclose(revin_denormalize([0.0, 0.0], stats), [3.0, 3.0])
    ident = InstanceStats(mean=0.0, std=1.0, eps=0.0)
    assert np.allclose(revin_denormalize([1.0], ident), [1.0])


def test_non_finite_rejected():
    with pytest.raises(InvalidInput):
        revin_normalize([1.0, np.inf], eps=1e-5)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -1.0])
def test_bad_eps_is_named(eps):
    """A bad eps is reported as one, not as windows whose variance overflows."""
    for call in (lambda: revin_normalize(np.arange(8.0), eps),
                 lambda: normalize_windows(np.ones((2, 8)), eps)):
        with pytest.raises(InvalidInput, match="^eps must be a finite number >= 0"):
            call()


def test_patchify_disjoint():
    x = np.arange(16.0)
    patches = patchify(x, PatchConfig(4, 4))
    assert patches.shape == (4, 4)
    assert np.array_equal(patches.ravel(), x)


def test_patchify_overlapping_count():
    patches = patchify(np.arange(96.0), PatchConfig(16, 8))
    assert patches.shape == (11, 16)


def test_patchify_too_short():
    with pytest.raises(InsufficientData):
        patchify(np.arange(10.0), PatchConfig(16, 8))


def test_patchify_partition_prefix():
    x = seeded_rng(2).normal(37)
    cfg = PatchConfig(5, 5)
    patches = patchify(x, cfg)
    n = patches.shape[0]
    assert np.array_equal(patches.ravel(), x[: n * 5])


def test_patch_count_formula_against_enumeration():
    rng = seeded_rng(3)
    for _ in range(200):
        length = 2 + rng.integers(199)
        p = 1 + rng.integers(length)
        s = 1 + rng.integers(12)
        if length < p:
            continue
        count = 0
        start = 0
        while start + p <= length:
            count += 1
            start += s
        cfg = PatchConfig(p, s)
        assert cfg.n_patches(length) == count
        assert patchify(np.zeros(length), cfg).shape == (count, p)


def test_vectorized_consistency():
    rng = seeded_rng(4)
    windows = rng.normal((20, 48))
    cfg = PatchConfig(8, 4)
    norm, means, stds = normalize_windows(windows, 1e-5)
    toks = patchify_windows(norm, cfg)
    for i in range(20):
        ref, stats = revin_normalize(windows[i], 1e-5)
        assert np.allclose(norm[i], ref, atol=1e-12)
        assert means[i] == pytest.approx(stats.mean)
        assert stds[i] == pytest.approx(stats.std_eff)
        assert np.allclose(toks[i], patchify(ref, cfg), atol=1e-12)
