"""Deterministic dense linear algebra and differentiation oracles.

All routines compute in float64, take immutable inputs, and hold no shared
state, so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput, NumericalFailure, ShapeError
from .rng import RandomStream, seeded_rng  # noqa: F401  (re-exported)

_JACOBI_SWEEP_CAP = 100
_JACOBI_OFF_TOL = 1e-12


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
    (ties broken by first index) so decompositions are reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(s) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps stop when the off-diagonal Frobenius norm falls below
    1e-12 relative to the input scale; more than 100 sweeps raises
    NumericalFailure.
    """
    a = check_matrix(s, "sym_eig input")
    n, m = a.shape
    if n != m:
        raise InvalidInput(f"sym_eig needs a square matrix, got {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise InvalidInput("sym_eig input is not symmetric within tolerance")
    d = (a + a.T) / 2.0  # kill round-off asymmetry
    v = np.eye(n)
    fro = max(1.0, float(np.linalg.norm(d)))
    threshold = _JACOBI_OFF_TOL * fro
    offdiag = ~np.eye(n, dtype=bool)

    for _ in range(_JACOBI_SWEEP_CAP + 1):
        off = float(np.sqrt(np.sum(np.square(d[offdiag]))))
        if off <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = d[p, q]
                if apq == 0.0:
                    continue
                gap = d[q, q] - d[p, p]
                if abs(gap) > 1e8 * abs(apq):
                    t = apq / gap  # asymptotic small-angle branch, avoids overflow
                else:
                    tau = gap / (2.0 * apq)
                    if tau >= 0.0:
                        t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                    else:
                        t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                dp, dq = d[:, p].copy(), d[:, q].copy()
                d[:, p] = c * dp - sn * dq
                d[:, q] = sn * dp + c * dq
                rp, rq = d[p, :].copy(), d[q, :].copy()
                d[p, :] = c * rp - sn * rq
                d[q, :] = sn * rp + c * rq
                d[p, q] = 0.0
                d[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - sn * vq
                v[:, q] = sn * vp + c * vq
    else:
        raise NumericalFailure(
            f"Jacobi sweeps did not converge within {_JACOBI_SWEEP_CAP} passes"
        )

    vals = np.diag(d).copy()
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order]
    for j in range(n):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def spectral_norm(m) -> float:
    """Largest singular value, computed as sqrt(lambda_max) of the Gram matrix."""
    a = check_matrix(m, "spectral_norm input")
    gram = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    gram = (gram + gram.T) / 2.0
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
