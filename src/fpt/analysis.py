"""Quantitative probes of the attention mechanism.

Implements the claims the package treats as checkable: the closed-form
rank-m attention matrix built from top eigenpairs and its objective value,
a spectral-norm bound on the self-attention Jacobian audited against finite
differences, the concentration of attention outputs around the token mean,
an SGD conditioning/rate experiment for the linear readout, the solvable
one-dimensional maximum-entropy dual, and token-similarity profiling with
weight-mixing sweeps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .backbone import (
    BackboneConfig,
    FreezeMask,
    ParameterStore,
    forward,
    init_random,
    mix_weights,
)
from .errors import InvalidInput, NumericalFailure, RankDeficient
from .numerics import (
    EigenDecomposition,
    check_matrix,
    softmax_last,
    softmax_rows,
    spectral_norm,
    sym_eig,
)
from .rng import RandomStream

SIMILARITY_BINS = 20


@dataclass(frozen=True)
class TokenSimilarityProfile:
    """Per-layer mean pairwise cosine similarity and its histogram."""

    means: tuple[float, ...]
    histograms: np.ndarray  # (n_layers+1, SIMILARITY_BINS) pair counts
    bin_edges: np.ndarray


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


def token_similarity(trace) -> TokenSimilarityProfile:
    """Mean cosine similarity over distinct token pairs, layer by layer.

    Zero-norm tokens contribute similarity 0 (with a warning).  Histogram
    counts per layer sum to n_tokens * (n_tokens - 1) / 2.
    """
    edges = np.linspace(-1.0, 1.0, SIMILARITY_BINS + 1)
    means = []
    hists = []
    for li, layer in enumerate(trace):
        x = np.asarray(layer, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise InvalidInput(f"layer {li} needs at least two token vectors")
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            warnings.warn(f"layer {li} has zero-norm tokens; their similarity counts as 0")
        xn = np.where(norms == 0.0, 0.0, x / np.where(norms == 0.0, 1.0, norms))
        sims = np.clip(xn @ xn.T, -1.0, 1.0)
        iu = np.triu_indices(x.shape[0], k=1)
        vals = sims[iu]
        means.append(float(vals.mean()))
        hists.append(np.histogram(vals, bins=edges)[0])
    return TokenSimilarityProfile(
        means=tuple(means), histograms=np.stack(hists), bin_edges=edges
    )


def _centered(x) -> np.ndarray:
    x = check_matrix(x, "token matrix")
    return x - x.mean(axis=0, keepdims=True)


def attention_objective(x, a) -> float:
    """sum_i || x_i - (X^T X) A x_i ||^2 over column-centered patterns.

    Cross-checked internally against the trace form
    tr((I - X^T X A)^T (I - X^T X A) X^T X), which is the same quantity
    computed through a different pipeline.
    """
    a = check_matrix(a, "attention matrix")
    xc = _centered(x)
    d = xc.shape[1]
    if a.shape != (d, d):
        raise InvalidInput(f"attention matrix must be {d}x{d}, got {a.shape}")
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


def attention_objective_quadratic_trace(x, a) -> float:
    """The literal trace form tr((I - X^T X A)^2 X^T X).

    Agrees with attention_objective when X^T X A is symmetric (in
    particular at the closed-form optimum); for arbitrary nonsymmetric A
    the squared factor differs from the Gram form.
    """
    a = check_matrix(a, "attention matrix")
    xc = _centered(x)
    s = xc.T @ xc
    m = np.eye(s.shape[0]) - s @ a
    return float(np.trace(m @ m @ s))


def optimal_pca_attention(x, m: int) -> PcaAttentionSolution:
    """Closed-form rank-m minimizer of the attention objective.

    A* = sum_{i<=m} v_i v_i^T / lambda_i over the top eigenpairs of X^T X;
    its objective equals the discarded eigenvalue tail sum_{k>m} lambda_k.
    """
    xc = _centered(x)
    d = xc.shape[1]
    if not 1 <= m <= d:
        raise InvalidInput(f"rank m={m} must be in [1, {d}]")
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
    n, d = xc.shape
    if not 1 <= m <= d:
        raise InvalidInput(f"rank m={m} must be in [1, {d}]")
    s = xc.T @ xc
    eye = np.eye(d)

    u = rng.normal((restarts, d, m), scale=0.3)
    v = rng.normal((restarts, d, m), scale=0.3)
    lr = np.full(restarts, init_lr)

    def objective(uu, vv):
        a = uu @ vv.swapaxes(1, 2)
        residual = xc[None] - np.einsum("ni,rji,jk->rnk", xc, a, s)
        return np.sum(residual * residual, axis=(1, 2))

    obj = objective(u, v)
    for _ in range(steps):
        a = u @ v.swapaxes(1, 2)
        r_mat = eye[None] - np.einsum("ij,rjk->rik", s, a)
        g_a = -2.0 * np.einsum("ij,rjk,kl->ril", s, r_mat, s)
        g_u = g_a @ v
        g_v = g_a.swapaxes(1, 2) @ u
        pending = np.ones(restarts, dtype=bool)
        for _ in range(40):
            cand_u = u - lr[:, None, None] * g_u
            cand_v = v - lr[:, None, None] * g_v
            cand_obj = objective(cand_u, cand_v)
            accept = pending & (cand_obj <= obj)
            u[accept] = cand_u[accept]
            v[accept] = cand_v[accept]
            obj[accept] = cand_obj[accept]
            pending &= ~accept
            if not pending.any():
                break
            lr[pending] *= 0.5
        lr[~pending] *= 1.2
        np.clip(lr, 1e-12, 10.0 * init_lr, out=lr)
    return float(obj.min())


def attention_map(x, a) -> np.ndarray:
    """softmax(X A X^T) X, the row-attention transform of the patterns."""
    x = check_matrix(x, "pattern matrix")
    a = check_matrix(a, "attention matrix")
    return softmax_rows(x @ a @ x.T) @ x


def scale_to_spectral_norm(a, target: float) -> np.ndarray:
    """Rescale a matrix so its spectral norm is at most ``target``."""
    a = check_matrix(a, "matrix")
    norm = spectral_norm(a)
    if norm <= target or norm == 0.0:
        return a
    return a * (target / norm)


def jacobian_bound_check(x, a, h: float = 1e-6) -> JacobianBoundResult:
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
    a = check_matrix(a, "attention matrix")
    n, d = x.shape
    if n * d > 512:
        raise InvalidInput(f"N*D = {n * d} exceeds the finite-difference cap of 512")
    if a.shape != (d, d):
        raise InvalidInput(f"attention matrix must be {d}x{d}, got {a.shape}")

    size = n * d
    jac = np.empty((size, size))
    base = x.astype(np.float64).copy()
    flat = base.ravel()
    for col in range(size):
        orig = flat[col]
        flat[col] = orig + h
        fp = attention_map(base, a)
        flat[col] = orig - h
        fm = attention_map(base, a)
        flat[col] = orig
        jac[:, col] = ((fp - fm) / (2.0 * h)).ravel()
    lhs = spectral_norm(jac)

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
    log(error) against log(n).
    """
    mu = np.asarray(mu, dtype=np.float64).ravel()
    d = mu.size
    wq = check_matrix(wq, "wq")
    wk = check_matrix(wk, "wk")
    wv = check_matrix(wv, "wv")
    ns = sorted(int(n) for n in n_grid)
    if len(ns) < 3 or ns[0] < 1 or ns[-1] < 10 * ns[0]:
        raise InvalidInput("n_grid needs >= 3 sizes spanning at least one decade")
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    a = wq @ wk.T
    target = mu @ wv
    points = []
    for n in ns:
        tokens = mu[None, None, :] + rng.normal((trials, n, d), scale=sigma / math.sqrt(d))
        q = tokens[:, 0, :]
        logits = np.einsum("td,de,tne->tn", q, a, tokens) / math.sqrt(d)
        w = softmax_last(logits)
        out = np.einsum("tn,tnd->td", w, tokens) @ wv
        err = float(np.mean(np.abs(out - target).max(axis=1)))
        points.append((n, err))
    logs = np.log(np.maximum([e for _, e in points], 1e-300))
    slope = float(np.polyfit(np.log([n for n, _ in points]), logs, 1)[0])
    return ConvergenceResult(slope=slope, points=tuple(points))


def sgd_conditioning_check(
    g,
    y,
    eps: float,
    rng: RandomStream,
    max_steps: int = 5_000_000,
    check_every: int = 25,
    avg_window: int = 25,
    confirm_checks: int = 4,
) -> SgdRateResult:
    """Steps for tail-averaged SGD with step sizes 1/(sigma_min * t) to
    bring the least-squares readout within eps of the closed-form optimum.

    sigma_min is the smallest eigenvalue of (1/N) G^T G (the strong
    convexity constant); the suboptimality is measured on the full
    objective (1/2N) ||G W - Y||_F^2 at the mean of the last
    ``avg_window`` iterates.  A fixed window keeps the measured step count
    on the 1/(sigma * t) noise rate of the schedule; averaging the whole
    history instead converges at a sigma-independent rate on quadratics
    and would hide the conditioning effect being measured.  The reported
    step count is the first checkpoint that begins ``confirm_checks``
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
    if avg_window < 1 or check_every < 1:
        raise InvalidInput("avg_window and check_every must be >= 1")
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
    window = np.zeros((avg_window,) + w.shape)
    win_sum = np.zeros_like(w)
    first_hit, first_gap = None, None
    t = 0
    t0 = int(math.ceil(float(np.max(np.sum(g * g, axis=1))) / sigma))
    idx_buffer: np.ndarray | None = None
    buf_pos = 0
    while t < max_steps:
        if idx_buffer is None or buf_pos >= idx_buffer.size:
            idx_buffer = rng.integers(n, size=8192)
            buf_pos = 0
        i = int(idx_buffer[buf_pos])
        buf_pos += 1
        t += 1
        gi = g[i]
        resid = gi @ w - y[i]
        w = w - (1.0 / (sigma * (t + t0))) * np.outer(gi, resid)
        slot = (t - 1) % avg_window
        win_sum += w - window[slot]
        window[slot] = w
        if t % check_every == 0 and t >= avg_window:
            gap = objective(win_sum / avg_window) - f_star
            if gap <= eps:
                if first_hit is None:
                    first_hit, first_gap = t, gap
                if t - first_hit >= (confirm_checks - 1) * check_every:
                    return SgdRateResult(
                        steps=first_hit, sigma_min=sigma, suboptimality=first_gap
                    )
            else:
                first_hit, first_gap = None, None
    raise NumericalFailure(
        f"SGD did not reach eps={eps} within {max_steps} steps (sigma_min={sigma:.3e})"
    )


def conditioned_least_squares_problem(
    sigma: float,
    rng: RandomStream,
    n: int = 256,
    d: int = 8,
    t_dim: int = 2,
    w_scale: float = 0.005,
    noise: float = 0.5,
    strong: float = 4.0,
):
    """Random feature/target pair whose covariance spectrum is
    (strong, ..., strong, sigma).

    The strong eigenvalues sit away from sigma so every conditioning level
    mixes on the same timescale pattern, and the weak signal keeps the
    measurement on the schedule's noise floor rather than the burn-in.
    """
    raw = rng.normal((n, d))
    q, _ = np.linalg.qr(raw)
    spectrum = np.full(d, strong)
    spectrum[-1] = sigma
    g = np.sqrt(n) * q * np.sqrt(spectrum)[None, :]
    w_true = rng.normal((d, t_dim), scale=w_scale)
    y = g @ w_true + rng.normal((n, t_dim), scale=noise)
    return g, y


def sgd_rate_experiment(
    sigmas,
    eps: float,
    seed: int,
    replicates: int = 3,
) -> list[dict]:
    """Median steps-to-eps per conditioning level, over SGD replicates.

    Each sigma gets one problem instance (same seed across sigmas) and
    ``replicates`` independent sample streams; the median step count damps
    crossing-time jitter so the 1/sigma scaling is visible.
    """
    from .rng import seeded_rng

    rows = []
    for sigma in sigmas:
        g, y = conditioned_least_squares_problem(sigma, seeded_rng(seed))
        counts = []
        sigma_min = None
        for r in range(replicates):
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


def maxent_dual_solve(q: float, g: float, tol: float = 1e-10) -> float:
    """Minimize log(1 + q e^lambda) - lambda g by bisection on the derivative.

    The derivative q e^l / (1 + q e^l) - g crosses zero exactly once; the
    minimizer in closed form is ln(g / (q (1 - g))), which the bisection
    reproduces to the requested tolerance.
    """
    if not 0.0 < q < 1.0:
        raise InvalidInput("q must be in (0, 1)")
    if not 0.0 < g < 1.0:
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def batch_layer_similarity(trace_batch) -> list[float]:
    """Per-layer mean pairwise token cosine similarity, averaged over a batch.

    trace_batch holds (B, n, d) arrays as produced by a batched forward.
    """
    means = []
    for layer in trace_batch:
        x = np.asarray(layer, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] < 2:
            raise InvalidInput("each layer needs (B, n>=2, d) token outputs")
        norms = np.linalg.norm(x, axis=2, keepdims=True)
        xn = np.where(norms == 0.0, 0.0, x / np.where(norms == 0.0, 1.0, norms))
        sims = np.clip(xn @ xn.swapaxes(1, 2), -1.0, 1.0)
        iu = np.triu_indices(x.shape[1], k=1)
        means.append(float(sims[:, iu[0], iu[1]].mean()))
    return means


def mixed_weights_similarity_sweep(
    pretrained: ParameterStore,
    cfg: BackboneConfig,
    dataset,
    wspec,
    patch,
    ratios,
    rng: RandomStream,
    finetune_steps: int = 50,
    learning_rate: float = 1e-3,
    batch_size: int = 64,
    eval_batch: int = 16,
    revin_eps: float = 1e-5,
    mode: str = "replace",
) -> list[dict]:
    """Mix pretrained frozen blocks with random weights at several ratios;
    after a brief fine-tune of the trainable group, record each layer's
    token similarity on a fixed eval batch and the test MSE.
    """
    from .tasks import (  # runner plumbing; imported here to keep layering one-way
        AblationSetup,
        TrainConfig,
        _derive_config,
        _fit,
        _forecast_samples,
        _predict_denorm,
    )

    ratios = [float(r) for r in ratios]
    if any(not 0.0 <= r <= 1.0 for r in ratios):
        raise InvalidInput("ratios must lie in [0, 1]")
    derived_cfg = _derive_config(cfg, patch, wspec.lookback, wspec.horizon)
    random_store = init_random(derived_cfg, rng.child(1))
    train = _forecast_samples(dataset, wspec, patch, revin_eps, "train")
    test = _forecast_samples(dataset, wspec, patch, revin_eps, "test")
    probe = test.tokens[: min(eval_batch, test.count)]
    tcfg = TrainConfig(
        epochs=1_000_000, batch_size=batch_size, learning_rate=learning_rate, seed=rng.seed
    )
    rows = []
    for i, ratio in enumerate(ratios):
        mixed = mix_weights(pretrained, random_store, ratio, rng.child(10 + i), mode=mode)
        setup = AblationSetup(mixed, FreezeMask.default_fpt(mixed), derived_cfg)
        store, _ = _fit(setup, train, None, tcfg, "mse", rng.child(100 + i), max_steps=finetune_steps)
        _, trace = forward(store, derived_cfg, probe)
        sims = batch_layer_similarity(trace)
        preds = _predict_denorm(store, derived_cfg, test)
        err = preds - test.targets
        rows.append(
            {
                "ratio": ratio,
                "similarity": sims,
                "mse": float(np.mean(err * err)),
            }
        )
    return rows

