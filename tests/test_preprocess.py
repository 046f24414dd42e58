import numpy as np
import pytest

from fpt.errors import InsufficientData, InvalidInput
from fpt.preprocess import PatchConfig, denormalize, normalize_windows, patchify_windows
from fpt.rng import seeded_rng


def test_constant_window():
    out, means, _ = normalize_windows(np.array([[5.0, 5.0, 5.0]]), 1e-5)
    assert np.allclose(out, 0.0)
    assert means[0] == 5.0


def test_already_standardized_eps_zero():
    out, _, _ = normalize_windows(np.array([[-1.0, 1.0]]), 0.0)
    assert np.allclose(out[0], [-1.0, 1.0], atol=1e-15)


def test_output_statistics():
    x = seeded_rng(0).normal(256, loc=3.0, scale=2.0)
    out, _, stds = normalize_windows(x[None], 1e-5)
    assert abs(out.mean()) < 1e-10
    var = x.var()
    assert out.var() == pytest.approx(var / (var + 1e-5), rel=1e-9)
    assert stds[0] == pytest.approx(np.sqrt(var + 1e-5))


def test_round_trip_thousand_windows():
    rng = seeded_rng(1)
    rows = []
    for i in range(1000):
        if i % 50 == 0:
            x = np.full(16, float(i)) + rng.normal(16, scale=1e-8)  # near-constant
        else:
            x = rng.normal(16, loc=rng.uniform((), -5, 5), scale=rng.uniform((), 0.01, 10))
        rows.append(x)
    x = np.stack(rows)
    out, means, stds = normalize_windows(x, 1e-5)
    assert np.abs(denormalize(out, stds, means) - x).max() < 1e-10


def test_denormalize_examples():
    scale, mean = np.array([2.0]), np.array([3.0])
    assert np.allclose(denormalize(np.zeros((1, 2)), scale, mean), [[3.0, 3.0]])
    assert np.allclose(denormalize(np.ones((1, 1)), np.ones(1), np.zeros(1)), [[1.0]])


def test_non_finite_rejected():
    """A window holding inf or NaN is named as one, not as a window whose
    variance overflows; finite values of about 1e160 are that overflow."""
    for value in (np.inf, np.nan):
        with pytest.raises(InvalidInput, match="^1 of 1 windows hold a non-finite value"):
            normalize_windows(np.array([[1.0, value]]), 1e-5)
    with pytest.raises(InvalidInput, match="^1 of 1 windows have a variance that overflows"):
        normalize_windows(np.array([[1e160, -1e160]]), 1e-5)


def test_empty_window_rejected():
    with pytest.raises(InvalidInput, match=r"length >= 1\) array, got \(2, 0\)"):
        normalize_windows(np.zeros((2, 0)), 1e-5)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -1.0])
def test_bad_eps_is_named(eps):
    """A bad eps is reported as one, not as windows whose variance overflows."""
    with pytest.raises(InvalidInput, match="^eps must be a finite number >= 0"):
        normalize_windows(np.ones((2, 8)), eps)


def test_patchify_disjoint():
    x = np.arange(16.0)
    patches = patchify_windows(x[None], PatchConfig(4, 4))[0]
    assert patches.shape == (4, 4)
    assert np.array_equal(patches.ravel(), x)


def test_patchify_overlapping_count():
    patches = patchify_windows(np.arange(96.0)[None], PatchConfig(16, 8))[0]
    assert patches.shape == (11, 16)


def test_patchify_too_short():
    with pytest.raises(InsufficientData):
        patchify_windows(np.arange(10.0)[None], PatchConfig(16, 8))


def test_patchify_partition_prefix():
    x = seeded_rng(2).normal(37)
    cfg = PatchConfig(5, 5)
    patches = patchify_windows(x[None], cfg)[0]
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
        assert patchify_windows(np.zeros((1, length)), cfg).shape == (1, count, p)
