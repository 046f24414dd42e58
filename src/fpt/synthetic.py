"""Procedural series generators for fixtures and synthetic pretraining.

The donor corpus is a family of random sinusoid mixtures; it exists so the
freeze/transfer machinery can be exercised end to end without shipping any
real pretrained weights.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .rng import RandomStream


def sinusoid(length: int, period: float, amplitude: float = 1.0, phase: float = 0.0) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    return amplitude * np.sin(2.0 * np.pi * t / period + phase)


def square_wave(length: int, period: float, amplitude: float = 1.0, phase: float = 0.0) -> np.ndarray:
    return amplitude * np.sign(sinusoid(length, period, 1.0, phase) + 1e-12)


_MIXTURE_COMPONENTS = 3
_MIXTURE_PERIODS = (8.0, 64.0)  # the range a component's period is drawn from


def sine_mixture(length: int, rng: RandomStream, noise: float = 0.0) -> np.ndarray:
    """Sum of three random-period sinusoids plus optional white noise."""
    out = np.zeros(length, dtype=np.float64)
    for _ in range(_MIXTURE_COMPONENTS):
        period = rng.uniform((), *_MIXTURE_PERIODS)
        amp = rng.uniform((), 0.4, 1.2)
        phase = rng.uniform((), 0.0, 2.0 * np.pi)
        out += sinusoid(length, period, amp, phase)
    if noise > 0:
        out += rng.normal(length, scale=noise)
    return out


def donor_values(length: int, n_channels: int, rng: RandomStream, noise: float) -> np.ndarray:
    """(T, C) corpus of independent random sinusoid mixtures."""
    cols = [sine_mixture(length, rng.child(c), noise=noise) for c in range(n_channels)]
    return np.stack(cols, axis=1)


_CLASSIFICATION_NOISE = 0.05  # std of the gaussian noise on every class series


def classification_values(
    n_series: int, length: int, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating sine/square series: (length, n_series) values, labels per series.

    Classes alternate so contiguous sample splits stay balanced.
    """
    cols = []
    labels = []
    for i in range(n_series):
        r = rng.child(i)
        period = r.uniform((), 12.0, 32.0)
        phase = r.uniform((), 0.0, 2.0 * np.pi)
        base = sinusoid(length, period, 1.0, phase) if i % 2 == 0 else square_wave(
            length, period, 1.0, phase
        )
        cols.append(base + r.normal(length, scale=_CLASSIFICATION_NOISE))
        labels.append(i % 2)
    return np.stack(cols, axis=1), np.array(labels, dtype=np.int64)


def inject_spikes(
    values: np.ndarray,
    n_spikes: int,
    magnitude_sigmas: float,
    region: tuple[int, int],
    rng: RandomStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Add point spikes of +/- k*sigma inside [lo, hi); returns (values, labels)."""
    v = np.asarray(values, dtype=np.float64).copy()
    if v.ndim == 1:
        v = v[:, None]
    lo, hi = region
    sigma = float(v.std())
    labels = np.zeros(v.shape[0], dtype=np.int64)
    if not 0 <= n_spikes <= hi - lo:
        raise InvalidInput(f"n_spikes must be in [0, {hi - lo}], got {n_spikes}")
    picks = lo + rng.permutation(hi - lo)[:n_spikes]
    signs = np.where(rng.uniform(n_spikes) < 0.5, -1.0, 1.0)
    for j, t in enumerate(sorted(int(p) for p in picks)):
        v[t, :] += signs[j] * magnitude_sigmas * sigma
        labels[t] = 1
    return v, labels


def write_series_csv(path, values: np.ndarray, labels: np.ndarray | None = None) -> None:
    """CSV with columns c0..c{C-1} (+ optional per-timestep label column)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        header = [f"c{i}" for i in range(v.shape[1])]
        if labels is not None:
            header.append("label")
        w.writerow(header)
        for t in range(v.shape[0]):
            row = [repr(float(x)) for x in v[t]]
            if labels is not None:
                row.append(str(int(labels[t])))
            w.writerow(row)


def write_manifest(path, entries: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
