"""Input-side blocks: per-window instance normalization and patch tokenization.

Normalization captures each window's mean/variance so model outputs can be
mapped back to the original scale; patching slices a window into (possibly
overlapping) fixed-length segments used as tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidInput
from .numerics import check_int, is_number


@dataclass(frozen=True)
class PatchConfig:
    patch_len: int
    stride: int

    def __post_init__(self):
        check_int(self.patch_len, "patch_len", 1)
        check_int(self.stride, "stride", 1)

    def n_patches(self, length: int) -> int:
        if length < self.patch_len:
            raise InsufficientData(
                f"window length {length} shorter than patch length {self.patch_len}"
            )
        return (length - self.patch_len) // self.stride + 1


def denormalize(y, scale, mean) -> np.ndarray:
    """``y * scale + mean`` in float64, one scale and mean per row of ``y``
    broadcast over its last axis; a factor given as None is left out."""
    out = np.asarray(y, dtype=np.float64)
    if scale is not None:
        out = out * np.asarray(scale)[..., None]
    return out if mean is None else out + np.asarray(mean)[..., None]


def normalize_windows(windows: np.ndarray, eps: float):
    """Standardize each row of a (batch, length) array by its own mean and
    variance; rows with zero variance and eps=0 map to all-zeros.

    Returns (normalized, means, std_effs) with per-row statistics.  An
    ``eps`` that is not a finite number >= 0, a row that holds a non-finite
    value and a row whose variance overflows float64 raise ``InvalidInput``.
    """
    if not (is_number(eps) and eps >= 0):
        raise InvalidInput(f"eps must be a finite number >= 0, got {eps!r}")
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] < 1:
        raise InvalidInput(f"normalize_windows expects a (batch, length >= 1) array, got {w.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        means = w.mean(axis=1)
        stds = np.sqrt(w.var(axis=1) + eps)
    bad = ~np.isfinite(stds)
    if bad.any():
        held = np.count_nonzero(~np.isfinite(w[bad]).all(axis=1))
        if held:
            raise InvalidInput(f"{held} of {len(w)} windows hold a non-finite value")
        raise InvalidInput(
            f"{np.count_nonzero(bad)} of {len(w)} windows have a variance that overflows float64"
        )
    safe = np.where(stds == 0.0, 1.0, stds)
    out = (w - means[:, None]) / safe[:, None]
    out[stds == 0.0] = 0.0
    return out, means, stds


def patchify_windows(windows: np.ndarray, cfg: PatchConfig) -> np.ndarray:
    """Slice each row into patch tokens: (batch, L) -> (batch, n_patches, P)."""
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 2:
        raise InvalidInput("patchify_windows expects a (batch, length) array")
    n = cfg.n_patches(w.shape[1])
    idx = np.arange(n)[:, None] * cfg.stride + np.arange(cfg.patch_len)[None, :]
    return w[:, idx]
