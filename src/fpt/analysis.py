"""Quantitative probes of the attention mechanism.

Implements the claims the package treats as checkable: the closed-form
rank-m attention matrix built from top eigenpairs and its objective value,
a spectral-norm bound on the self-attention Jacobian audited against finite
differences, the concentration of attention outputs around the token mean,
an SGD conditioning/rate experiment for the linear readout, the solvable
one-dimensional maximum-entropy dual, and token-similarity profiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure, RankDeficient, ShapeError
from .numerics import (
    EigenDecomposition,
    check_int,
    check_matrix,
    check_rank,
    finite_diff_grad,
    is_number,
    softmax,
    softmax_rows,
    spectral_norm,
    sym_eig,
)
from .rng import RandomStream, seeded_rng

@dataclass(frozen=True)
class PcaAttentionSolution:
    a_star: np.ndarray
    rank: int
    objective: float
    eigen: EigenDecomposition


@dataclass(frozen=True)
class JacobianBoundResult:
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class ConvergenceResult:
    slope: float
    points: tuple[tuple[int, float], ...]  # (n, mean sup-norm error)


@dataclass(frozen=True)
class SgdRateResult:
    steps: int
    sigma_min: float
    suboptimality: float


def _centered(x) -> np.ndarray:
    x = check_matrix(x, "token matrix")
    return x - x.mean(axis=0, keepdims=True)


def _square(a, d: int) -> np.ndarray:
    """``a`` checked as the d x d attention matrix over d-column patterns."""
    a = check_matrix(a, "attention matrix")
    if a.shape != (d, d):
        raise ShapeError(f"attention matrix must be {d}x{d}, got {a.shape}")
    return a


def attention_objective(x, a) -> float:
    """sum_i || x_i - (X^T X) A x_i ||^2 over column-centered patterns.

    Cross-checked internally against the trace form
    tr((I - X^T X A)^T (I - X^T X A) X^T X), which is the same quantity
    computed through a different pipeline.
    """
    xc = _centered(x)
    d = xc.shape[1]
    a = _square(a, d)
    s = xc.T @ xc
    residual = xc - xc @ a.T @ s
    value = float(np.sum(residual * residual))
    m = np.eye(d) - s @ a
    trace_form = float(np.trace(m.T @ m @ s))
    if abs(value - trace_form) > 1e-8 * max(1.0, abs(value)):
        raise NumericalFailure(
            f"objective cross-check failed: {value} vs {trace_form}"
        )
    return value


def optimal_pca_attention(x, m: int) -> PcaAttentionSolution:
    """Closed-form rank-m minimizer of the attention objective.

    A* = sum_{i<=m} v_i v_i^T / lambda_i over the top eigenpairs of X^T X;
    its objective equals the discarded eigenvalue tail sum_{k>m} lambda_k.
    """
    xc = _centered(x)
    d = xc.shape[1]
    check_rank(m, d)
    eigen = sym_eig(xc.T @ xc)
    lam = eigen.eigenvalues
    if lam[m - 1] <= 1e-10:
        raise RankDeficient(
            f"eigenvalue {m} of the Gram matrix is {lam[m - 1]:.3e}; rank too low"
        )
    vecs = eigen.eigenvectors[:, :m]
    a_star = (vecs / lam[:m]) @ vecs.T
    objective = attention_objective(x, a_star)
    return PcaAttentionSolution(a_star=a_star, rank=m, objective=objective, eigen=eigen)


def bruteforce_rank_m_objective(
    x,
    m: int,
    rng: RandomStream,
    restarts: int = 10,
    steps: int = 5000,
    init_lr: float = 1e-2,
) -> float:
    """Best objective found by gradient descent over factored A = U V^T.

    The oracle side of the closed-form solution: restarts random (U, V)
    pairs and follows the exact gradient with a backtracking step size;
    never touches the eigendecomposition path.
    """
    xc = _centered(x)
    d = xc.shape[1]
    check_rank(m, d)
    check_int(restarts, "restarts", 1)
    check_int(steps, "steps", 0)
    if not (math.isfinite(init_lr) and init_lr > 0):
        raise InvalidInput(f"init_lr must be finite and > 0, got {init_lr}")
    s = xc.T @ xc
    eye = np.eye(d)
    s2 = -2.0 * s

    u = rng.normal((restarts, d, m), scale=0.3)
    v = rng.normal((restarts, d, m), scale=0.3)
    uv = np.concatenate([u, v], axis=2)  # U | V per restart
    u, v, vt = uv[..., :m], uv[..., m:], uv[..., m:].swapaxes(1, 2)  # follow uv's copyto
    lr = np.full(restarts, init_lr)

    def objective(uv):
        # ||X (I - A^T S)||_F^2 = sum(M * (S M)) with M = I - V U^T S: all d x d
        mm = eye - uv[..., m:] @ uv[..., :m].swapaxes(-1, -2) @ s
        return np.add.reduce(mm * (s @ mm), axis=(-2, -1))

    # Each pass stacks two tries of the 40-try halving, lr and lr/2 (exact),
    # and the first that does not raise the objective wins; else on at lr/4.
    halves = np.array([[1.0], [0.5]])
    g, cand = np.empty_like(uv), np.empty((2,) + uv.shape)
    step, accept = np.empty((2, restarts)), np.empty((2, restarts), dtype=bool)
    pending = np.empty(restarts, dtype=bool)
    step4, acc4 = step[..., None, None], accept[..., None, None]
    obj = objective(uv)
    for _ in range(steps):
        g_a = s2 @ (eye - s @ u @ vt) @ s
        np.matmul(g_a, v, out=g[..., :m])
        np.matmul(g_a.swapaxes(1, 2), u, out=g[..., m:])
        pending.fill(True)
        for _ in range(20):
            np.multiply(lr, halves, out=step)
            np.subtract(uv, np.multiply(step4, g, out=cand), out=cand)
            cand_obj = objective(cand)
            np.less_equal(cand_obj, obj, out=accept)
            np.logical_and(accept, pending, out=accept)
            np.greater(accept[1], accept[0], out=accept[1])  # try 2 only where try 1 failed
            for k in range(2):
                np.copyto(uv, cand[k], where=acc4[k])
                np.copyto(obj, cand_obj[k], where=accept[k])
                np.logical_xor(pending, accept[k], out=pending)
                np.multiply(lr, 0.5, out=lr, where=pending)
            if not pending.any():
                break
        np.multiply(lr, 1.2, out=lr, where=np.logical_not(pending, out=pending))
        np.minimum(np.maximum(lr, 1e-12, out=lr), 10.0 * init_lr, out=lr)
    return float(obj.min())


def attention_map(x, a) -> np.ndarray:
    """softmax(X A X^T) X, the row-attention transform of the patterns."""
    x = check_matrix(x, "pattern matrix")
    a = _square(a, x.shape[1])
    return softmax_rows(x @ a @ x.T) @ x


def scale_to_spectral_norm(a, target: float) -> np.ndarray:
    """Rescale a matrix so its spectral norm is at most ``target``, a finite
    number >= 0."""
    if not (math.isfinite(target) and target >= 0):
        raise InvalidInput(f"target spectral norm must be finite and >= 0, got {target}")
    a = check_matrix(a, "matrix")
    norm = spectral_norm(a)
    if norm <= target or norm == 0.0:
        return a
    return a * (target / norm)


_JACOBIAN_FD_STEP = 1e-6  # central-difference step of the exact Jacobian


def jacobian_bound_check(x, a) -> JacobianBoundResult:
    """Audit the spectral-norm bound on the Jacobian of softmax(XAX^T)X.

    The left side is the spectral norm of the exact (N*D x N*D) Jacobian
    computed by central differences; the right side is the analytic bound
    |A|_2 sum_i (P_ii + 1/2) |x_i - X^T P_i|^2
      + N + |A|_2 sum_{i != j} P_ij |x_j - X^T P_i|^2
      + (|A|_2 / 2) sum_i |x_i|^2
    with P the attention row-softmax matrix.  The additive N term is part
    of the bound; the quadratic sums run over all N patterns.
    """
    x = check_matrix(x, "pattern matrix")
    n, d = x.shape
    if n * d > 512:
        raise InvalidInput(f"N*D = {n * d} exceeds the finite-difference cap of 512")
    a = _square(a, d)

    jac = finite_diff_grad(lambda z: attention_map(z, a), x, _JACOBIAN_FD_STEP)
    lhs = spectral_norm(jac.reshape(n * d, n * d))

    p = softmax_rows(x @ a @ x.T)
    xbar = p @ x  # row i: sum_j P_ij x_j
    a2 = spectral_norm(a)
    diff = x[None, :, :] - xbar[:, None, :]  # diff[i, j] = x_j - X^T P_i
    d2 = np.sum(diff * diff, axis=2)  # (N, N)
    own = np.diag(d2)  # |x_i - X^T P_i|^2
    term_own = a2 * float(np.sum((np.diag(p) + 0.5) * own))
    cross = float(np.sum(p * d2) - np.sum(np.diag(p) * own))
    delta = n + a2 * cross + 0.5 * a2 * float(np.sum(x * x))
    rhs = term_own + delta
    return JacobianBoundResult(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs))


def attention_mean_convergence(
    mu,
    sigma: float,
    wq,
    wk,
    wv,
    n_grid,
    trials: int,
    rng: RandomStream,
) -> ConvergenceResult:
    """Monte Carlo rate at which one query's attention output approaches
    the token-mean value.

    For each n, draws n tokens ~ N(mu, (sigma^2/d) I), attends the first
    token over all of them with logits x_0 W_q W_k^T x_i / sqrt(d), and
    records the sup-norm distance between the value-mixed output and
    mu W_v, averaged over trials.  Returns the least-squares slope of
    log(error) against log(n).  sigma must be finite and >= 0; sigma 0 is
    the zero-variance control, whose errors are rounding noise.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidInput(f"sigma must be finite and >= 0, got {sigma}")
    mu = np.asarray(mu, dtype=np.float64).ravel()
    d = mu.size
    wq, wk, wv = (check_matrix(w, name) for w, name in ((wq, "wq"), (wk, "wk"), (wv, "wv")))
    if not wq.shape[0] == wk.shape[0] == wv.shape[0] == d or wq.shape != wk.shape:
        shapes = f"{wq.shape}, {wk.shape} and {wv.shape}"
        raise ShapeError(f"wq, wk and wv need {d} rows, and wq the shape of wk; got {shapes}")
    for n in n_grid:
        check_int(n, "n_grid size", 1)
    check_int(trials, "trials", 1)
    ns = sorted(int(n) for n in n_grid)
    if len(ns) < 3 or ns[-1] < 10 * ns[0]:
        raise InvalidInput("n_grid needs >= 3 sizes spanning at least one decade")
    a = wq @ wk.T
    target = mu @ wv
    points = []
    for n in ns:
        tokens = mu[None, None, :] + rng.normal((trials, n, d), scale=sigma / math.sqrt(d))
        q = tokens[:, 0, :]
        logits = np.einsum("td,de,tne->tn", q, a, tokens) / math.sqrt(d)
        w = softmax(logits, -1)
        out = np.einsum("tn,tnd->td", w, tokens) @ wv
        err = float(np.mean(np.abs(out - target).max(axis=1)))
        points.append((n, err))
    logs = np.log(np.maximum([e for _, e in points], 1e-300))
    slope = float(np.polyfit(np.log([n for n, _ in points]), logs, 1)[0])
    return ConvergenceResult(slope=slope, points=tuple(points))


# sgd_conditioning_check: the step budget, the steps between suboptimality
# checks, the number of trailing iterates averaged, and the consecutive
# sub-eps checks that confirm a hit
_SGD_MAX_STEPS = 5_000_000
_SGD_CHECK_EVERY = 25
_SGD_AVG_WINDOW = 25
_SGD_CONFIRM_CHECKS = 4


def sgd_conditioning_check(g, y, eps: float, rng: RandomStream) -> SgdRateResult:
    """Steps for tail-averaged SGD with step sizes 1/(sigma_min * t) to
    bring the least-squares readout within eps of the closed-form optimum.

    sigma_min is the smallest eigenvalue of (1/N) G^T G (the strong
    convexity constant); the suboptimality is measured on the full
    objective (1/2N) ||G W - Y||_F^2 at the mean of the last
    ``_SGD_AVG_WINDOW`` iterates, every ``_SGD_CHECK_EVERY`` steps.  A
    fixed window keeps the measured step count on the 1/(sigma * t) noise
    rate of the schedule; averaging the whole
    history instead converges at a sigma-independent rate on quadratics
    and would hide the conditioning effect being measured.  The reported
    step count is the first checkpoint that begins ``_SGD_CONFIRM_CHECKS``
    consecutive sub-eps evaluations, so a single lucky fluctuation does
    not end the run early.  The schedule
    carries a stability offset, eta_t = 1/(sigma (t + t0)) with
    t0 = ceil(max_i ||g_i||^2 / sigma), so the first steps stay below the
    per-sample curvature; the offset preserves the 1/(sigma t)
    asymptotics.
    """
    g = check_matrix(g, "feature matrix")
    y = check_matrix(y, "target matrix")
    n, d = g.shape
    if y.shape[0] != n:
        raise InvalidInput(f"targets must have {n} rows, got {y.shape[0]}")
    if not (is_number(eps) and eps > 0):
        raise InvalidInput(f"eps must be positive, got {eps}")
    eigen = sym_eig((g.T @ g) / n)
    sigma = float(eigen.eigenvalues[-1])
    if sigma <= 1e-12:
        raise RankDeficient(f"feature covariance is singular (sigma_min={sigma:.3e})")
    # closed-form optimum through the eigenbasis of the covariance
    vecs, lam = eigen.eigenvectors, eigen.eigenvalues
    w_star = vecs @ ((vecs.T @ (g.T @ y / n)) / lam[:, None])

    def objective(w):
        r = g @ w - y
        return float(np.sum(r * r) / (2.0 * n))

    f_star = objective(w_star)
    w = np.zeros((d, y.shape[1]))
    window = np.zeros((_SGD_AVG_WINDOW,) + w.shape)
    win_sum = np.zeros_like(w)
    first_hit, first_gap = None, None
    t = 0
    t0 = int(math.ceil(float(np.max(np.sum(g * g, axis=1))) / sigma))
    idx_buffer: np.ndarray | None = None
    buf_pos = 0
    while t < _SGD_MAX_STEPS:
        if idx_buffer is None or buf_pos >= idx_buffer.size:
            idx_buffer = rng.integers(n, size=8192)
            buf_pos = 0
        i = int(idx_buffer[buf_pos])
        buf_pos += 1
        t += 1
        gi = g[i]
        resid = gi @ w - y[i]
        w = w - (1.0 / (sigma * (t + t0))) * np.outer(gi, resid)
        slot = (t - 1) % _SGD_AVG_WINDOW
        win_sum += w - window[slot]
        window[slot] = w
        if t % _SGD_CHECK_EVERY == 0 and t >= _SGD_AVG_WINDOW:
            gap = objective(win_sum / _SGD_AVG_WINDOW) - f_star
            if gap <= eps:
                if first_hit is None:
                    first_hit, first_gap = t, gap
                if t - first_hit >= (_SGD_CONFIRM_CHECKS - 1) * _SGD_CHECK_EVERY:
                    return SgdRateResult(
                        steps=first_hit, sigma_min=sigma, suboptimality=first_gap
                    )
            else:
                first_hit, first_gap = None, None
    raise NumericalFailure(
        f"SGD did not reach eps={eps} within {_SGD_MAX_STEPS} steps (sigma_min={sigma:.3e})"
    )


# conditioned_least_squares_problem: samples, features, target columns, the
# scale of the true weights, the target noise and the strong eigenvalue
_LSQ_N, _LSQ_D, _LSQ_T_DIM = 256, 8, 2
_LSQ_W_SCALE, _LSQ_NOISE, _LSQ_STRONG = 0.005, 0.5, 4.0


def conditioned_least_squares_problem(sigma: float, rng: RandomStream):
    """Random (256 x 8) feature / (256 x 2) target pair whose covariance
    spectrum is (4, ..., 4, sigma).

    The strong eigenvalues sit away from sigma so every conditioning level
    mixes on the same timescale pattern, and the weak signal keeps the
    measurement on the schedule's noise floor rather than the burn-in.
    sigma must be finite and > 0.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise InvalidInput(f"sigma must be finite and > 0, got {sigma}")
    raw = rng.normal((_LSQ_N, _LSQ_D))
    q, _ = np.linalg.qr(raw)
    spectrum = np.full(_LSQ_D, _LSQ_STRONG)
    spectrum[-1] = sigma
    g = np.sqrt(_LSQ_N) * q * np.sqrt(spectrum)[None, :]
    w_true = rng.normal((_LSQ_D, _LSQ_T_DIM), scale=_LSQ_W_SCALE)
    y = g @ w_true + rng.normal((_LSQ_N, _LSQ_T_DIM), scale=_LSQ_NOISE)
    return g, y


_SGD_REPLICATES = 3  # independent SGD runs per conditioning level


def sgd_rate_experiment(sigmas, eps: float, seed: int) -> list[dict]:
    """Median steps-to-eps per conditioning level, over SGD replicates.

    Each sigma gets one problem instance (same seed across sigmas) and
    ``_SGD_REPLICATES`` independent sample streams; the median step count
    damps crossing-time jitter so the 1/sigma scaling is visible.
    """
    check_int(seed, "seed", 0)
    rows = []  # every sigma is checked, by building its problem, before the first SGD run
    problems = [conditioned_least_squares_problem(sigma, seeded_rng(seed)) for sigma in sigmas]
    for sigma, (g, y) in zip(sigmas, problems):
        counts = []
        sigma_min = None
        for r in range(_SGD_REPLICATES):
            res = sgd_conditioning_check(g, y, eps, seeded_rng(seed + 1).child(r))
            counts.append(res.steps)
            sigma_min = res.sigma_min
        rows.append(
            {
                "sigma": float(sigma),
                "sigma_min": sigma_min,
                "steps": int(np.median(counts)),
                "replicates": counts,
            }
        )
    return rows


_MAXENT_TOL = 1e-10  # width of the final bisection bracket


def maxent_dual_solve(q: float, g: float) -> float:
    """Minimize log(1 + q e^lambda) - lambda g by bisection on the derivative.

    The derivative q e^l / (1 + q e^l) - g crosses zero exactly once; the
    minimizer in closed form is ln(g / (q (1 - g))), which the bisection
    reproduces to within ``_MAXENT_TOL``.
    """
    if not (is_number(q) and 0.0 < q < 1.0):
        raise InvalidInput("q must be in (0, 1)")
    if not (is_number(g) and 0.0 < g < 1.0):
        raise InvalidInput("g must be in (0, 1): the dual is unbounded or degenerate")

    def deriv(lam: float) -> float:
        with np.errstate(over="ignore"):
            e = np.exp(-lam) / q
        return float(1.0 / (1.0 + e)) - g

    lo, hi = -1.0, 1.0
    while deriv(lo) > 0.0:
        lo = 2.0 * lo - 1.0
        if lo < -1e6:
            raise NumericalFailure("bisection failed to bracket from below")
    while deriv(hi) < 0.0:
        hi = 2.0 * hi + 1.0
        if hi > 1e6:
            raise NumericalFailure("bisection failed to bracket from above")
    while hi - lo > _MAXENT_TOL:
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def batch_layer_similarity(trace_batch) -> list[float]:
    """Per-layer mean cosine similarity over distinct token pairs, averaged
    over a batch.

    trace_batch holds (B, n, d) arrays as produced by a batched forward.  A
    zero-norm token scores 0 against every other.
    """
    means = []
    for layer in trace_batch:
        x = np.asarray(layer, dtype=np.float64)
        if x.ndim != 3 or x.shape[0] < 1 or x.shape[1] < 2:
            raise InvalidInput("each layer needs (B>=1, n>=2, d) token outputs")
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        xn = np.where(norms == 0.0, 0.0, x / np.where(norms == 0.0, 1.0, norms))
        sims = np.clip(xn @ xn.swapaxes(-1, -2), -1.0, 1.0)
        iu = np.triu_indices(x.shape[1], k=1)
        means.append(float(sims[:, iu[0], iu[1]].mean()))
    return means
