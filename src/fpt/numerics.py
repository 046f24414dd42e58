"""Dense linear algebra and differentiation oracles.

The checked routines (``softmax_rows``, ``sym_eig``, ``spectral_norm``,
``finite_diff_grad``) compute in float64.  The unchecked
kernels ``softmax`` and ``layer_norm_last`` compute in their input's
dtype; inside the backbone that is the weight store's.  All take immutable
inputs and hold no shared state, so they are safe to call concurrently.
The eigensolver is LAPACK ``eigh`` behind one checked wrapper; like every
BLAS-backed product here, its results repeat bit for bit on the same
machine, numpy build and BLAS kernel, not across them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput, NumericalFailure, ShapeError


def check_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def is_number(value) -> bool:
    """A finite float or an integer within float range, bools excluded: JSON
    parsers accept ``NaN`` and ``Infinity``, which no input number can mean."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def check_int(value, name: str, low: int) -> None:
    """Raise ``InvalidInput`` unless ``value`` is a Python or numpy integer
    (not a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidInput(f"{name} must be >= {low}")


def check_rank(m, d: int) -> None:
    """Raise ``InvalidInput`` unless ``m`` is an integer rank in [1, d]."""
    if isinstance(m, bool) or not (isinstance(m, (int, np.integer)) and 1 <= m <= d):
        raise InvalidInput(f"rank m={m} must be an integer in [1, {d}]")


def softmax(z: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction; no input checks.  The
    attention's key-major scores reduce along axis 0, in whole slabs."""
    e = z - z.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction; rows sum to 1.

    Shift invariance makes inputs of any magnitude (up to float range)
    safe: softmax(r + c) == softmax(r).
    """
    return softmax(check_matrix(m, "softmax input"), -1)


def layer_norm_last(x: np.ndarray, gamma, beta, eps: float):
    """LayerNorm over the last axis; no input checks.

    Returns (gamma * xhat + beta, (xhat, 1 / sqrt(var + eps), gamma)); the
    second item is what the backbone's backward pass reads.
    """
    d = x.shape[-1]  # add.reduce / d is np.mean without its Python wrapper
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    y = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(y, axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, (xhat, inv, gamma)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues descending.

    ``eigenvectors`` holds unit-norm column vectors aligned with
    ``eigenvalues``; each column's largest-magnitude entry is positive
    (ties broken by first index) so decompositions are reproducible.  For a
    stack of matrices both arrays carry the stack's leading axes.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(s) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, or of a stack of them.

    ``s`` is one (d, d) matrix or a (..., d, d) stack.  Each matrix must be
    finite and symmetric within 1e-10 of max(1, its largest entry); it is
    symmetrised once and handed to LAPACK (``np.linalg.eigh``), and the
    result is put in the EigenDecomposition order and sign convention
    matrix by matrix.  A LAPACK convergence failure raises NumericalFailure.
    """
    a = np.asarray(s, dtype=np.float64)
    if a.ndim <= 2:
        a = check_matrix(a, "sym_eig input")
    elif min(a.shape) < 1:
        raise ShapeError(f"sym_eig input must have positive dimensions, got {a.shape}")
    elif not np.all(np.isfinite(a)):
        raise InvalidInput("sym_eig input contains non-finite entries")
    if a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"sym_eig needs a square matrix, got {a.shape}")
    at = a.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if np.any(np.abs(a - at).max(axis=(-2, -1)) > 1e-10 * scale):
        raise InvalidInput("sym_eig input is not symmetric within tolerance")
    try:
        vals, vecs = np.linalg.eigh((a + at) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigh did not converge: {exc}") from None
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]  # LAPACK sorts ascending
    peak = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=-2)[..., None, :], axis=-2)
    return EigenDecomposition(eigenvalues=vals, eigenvectors=np.where(peak < 0.0, -vecs, vecs))


def spectral_norm(m) -> float:
    """Largest singular value, computed as sqrt(lambda_max) of the Gram matrix."""
    a = check_matrix(m, "spectral_norm input")
    gram = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    lam = sym_eig(gram).eigenvalues[0]
    return float(np.sqrt(max(lam, 0.0)))


def finite_diff_grad(f: Callable, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference derivative of ``f`` at the array ``x``: the
    gradient, shaped like ``x``, of a scalar ``f``, and the Jacobian, shaped
    ``f(x).shape + x.shape``, of an array-valued one."""
    if not (is_number(h) and h > 0):
        raise InvalidInput(f"finite difference step must be finite and positive, got {h!r}")
    x0 = np.ascontiguousarray(x, dtype=np.float64).copy()
    if x0.size == 0:
        raise InvalidInput("finite differences need at least one coordinate")
    flat = x0.ravel()
    cols = []
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = np.asarray(f(x0), dtype=np.float64)
        flat[i] = orig - h
        fm = np.asarray(f(x0), dtype=np.float64)
        flat[i] = orig
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise NumericalFailure(f"non-finite function value near coordinate {i}")
        cols.append((fp - fm) / (2.0 * h))
    return np.stack(cols, axis=-1).reshape(cols[0].shape + x0.shape)
