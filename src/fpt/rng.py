"""Deterministic, counter-based random streams.

The generator is SplitMix64 used in counter mode: draw ``i`` (1-based) of a
stream with key ``s`` is ``mix64(s + i * 0x9E3779B97F4A7C15)`` where ``mix64``
is the standard SplitMix64 finalizer (Steele, Lea & Flood 2014).  The stream
position depends only on how many values have been drawn, never on how the
draws were batched, so any call pattern that consumes the same number of
values produces the same bits on every platform and every run.

Gaussians are produced from consecutive uniform pairs via Box-Muller.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 arrays (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _words(key, lo: int, n: int) -> np.ndarray:
    """Draws ``lo .. lo + n - 1`` of the stream keyed ``key``, along a new
    last axis when ``key`` is a uint64 array of keys."""
    idx = np.arange(lo, lo + n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(np.asarray(key)[..., None] + idx * _GOLDEN)


def _child_key(key, index):
    """Key of ``child(index)`` of the stream keyed ``key``; broadcasts over
    uint64 arrays of keys and indices."""
    with np.errstate(over="ignore"):
        return _mix64(key ^ _mix64(index + _GOLDEN))


class RandomStream:
    """Seeded deterministic stream of uniforms, gaussians and permutations."""

    def __init__(self, seed: int):
        self._key = np.uint64(int(seed) & _MASK64)
        self._count = 0

    @property
    def seed(self) -> int:
        return int(self._key)

    def _raw(self, n: int) -> np.ndarray:
        """Next ``n`` uint64 words of the stream."""
        if n < 0:
            raise InvalidInput(f"draw count must be nonnegative, got {n}")
        lo = self._count + 1
        self._count += n
        return _words(self._key, lo, n)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform float64 draws in [low, high); 53-bit mantissa resolution."""
        shape = _as_shape(shape)
        n = int(np.prod(shape)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        out = low + (high - low) * u
        return out.reshape(shape) if shape else float(out[0])

    def normal(self, shape=(), loc: float = 0.0, scale: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller on consecutive uniform pairs."""
        shape = _as_shape(shape)
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        words = self._raw(2 * pairs)
        # u1 in (0, 1] so log(u1) is finite; u2 in [0, 1)
        u1 = ((words[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (words[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        out = loc + scale * z
        return out.reshape(shape) if shape else float(out[0])

    def integers(self, n: int, size=()) -> np.ndarray:
        """Uniform integers in [0, n). Requires n < 2**53."""
        if not 0 < n < 2**53:
            raise InvalidInput(f"integer range must be in (0, 2**53), got {n}")
        u = self.uniform(_as_shape(size) or (1,))
        out = np.floor(np.asarray(u) * n).astype(np.int64)
        return out.reshape(_as_shape(size)) if _as_shape(size) else int(out[0])

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n) via argsort of raw keys."""
        return np.argsort(self._raw(n), kind="stable")

    def child(self, index: int) -> "RandomStream":
        """Independent stream derived from (this key, index).

        The child key is ``mix64(key ^ mix64(index + GOLDEN))``, which lands
        child streams on orbits disjoint from the parent's counter walk.
        """
        return RandomStream(int(_child_key(self._key, np.uint64(int(index) & _MASK64))))

    def child_permutations(self, rows: int, cols: int, n: int) -> np.ndarray:
        """(rows, cols, n) array whose ``[i, j]`` row is
        ``self.child(i).child(j).permutation(n)``, drawn in one pass."""
        keys = _child_key(
            _child_key(self._key, np.arange(rows, dtype=np.uint64))[:, None],
            np.arange(cols, dtype=np.uint64),
        )
        return np.argsort(_words(keys, 1, n), axis=-1, kind="stable")


def _as_shape(shape) -> tuple:
    if shape == () or shape is None:
        return ()
    dims = (shape,) if isinstance(shape, int) else tuple(int(s) for s in shape)
    if min(dims, default=0) < 0:
        raise InvalidInput(f"a draw's shape must have no negative dimension, got {shape!r}")
    return dims


def seeded_rng(seed: int) -> RandomStream:
    """Deterministic stream factory; same seed yields bit-identical draws."""
    return RandomStream(seed)
