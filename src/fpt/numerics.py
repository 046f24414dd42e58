"""Dense linear algebra and differentiation oracles.

All routines compute in float64, take immutable inputs, and hold no shared
state, so they are safe to call concurrently.  The eigensolver is LAPACK
``eigh`` behind one checked wrapper; like every BLAS-backed product here,
its results repeat bit for bit on the same machine, numpy build and BLAS
kernel, not across them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput, NumericalFailure, ShapeError
from .rng import RandomStream, seeded_rng  # noqa: F401  (re-exported)


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


def softmax_last(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction; no input checks."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction; rows sum to 1.

    Shift invariance makes inputs of any magnitude (up to float range)
    safe: softmax(r + c) == softmax(r).
    """
    return softmax_last(check_matrix(m, "softmax input"))


def layer_norm_last(x: np.ndarray, gamma, beta, eps: float):
    """LayerNorm over the last axis; no input checks.

    Returns (gamma * xhat + beta, (xhat, 1 / sqrt(var + eps), gamma)); the
    second item is what the backbone's backward pass reads.
    """
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layer_norm(v, gamma, beta, eps: float) -> np.ndarray:
    """gamma * (v - mean(v)) / sqrt(var(v) + eps) + beta over one vector."""
    x = np.asarray(v, dtype=np.float64)
    g = np.asarray(gamma, dtype=np.float64)
    b = np.asarray(beta, dtype=np.float64)
    if x.ndim != 1 or g.shape != x.shape or b.shape != x.shape:
        raise ShapeError(
            f"layer_norm needs equal-length vectors, got {x.shape}, {g.shape}, {b.shape}"
        )
    if eps < 0:
        raise InvalidInput("eps must be nonnegative")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("layer_norm input contains non-finite entries")
    if x.var() + eps == 0.0:
        raise InvalidInput("zero variance with eps=0 makes layer_norm undefined")
    return layer_norm_last(x, g, b, eps)[0]


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
    """Central-difference gradient of a scalar function of a vector."""
    if h <= 0:
        raise InvalidInput("finite difference step must be positive")
    x0 = np.ascontiguousarray(x, dtype=np.float64).copy()
    flat = x0.ravel()
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x0))
        flat[i] = orig - h
        fm = float(f(x0))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalFailure(f"non-finite function value near coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(x0.shape)
