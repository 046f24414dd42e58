"""Acceptance gate: one test per release criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import math
import time

import numpy as np
import pytest

from fpt.analysis import (
    attention_mean_convergence,
    bruteforce_rank_m_objective,
    jacobian_bound_check,
    maxent_dual_solve,
    optimal_pca_attention,
    scale_to_spectral_norm,
    sgd_rate_experiment,
)
from fpt.backbone import (
    AdamState,
    BackboneConfig,
    Batch,
    FreezeMask,
    adam_step,
    init_random,
    loss_and_grads,
)
from fpt.data import TimeSeriesDataset, WindowSpec, mask_count, window_masks
from fpt.metrics import mae, mape, mase, mse, nd, owa, prf1, smape
from fpt.preprocess import PatchConfig, denormalize, normalize_windows, patchify_windows
from fpt.rng import seeded_rng
from fpt.synthetic import sine_mixture, sinusoid
from fpt.tasks import TrainConfig, run_ablation_suite, run_forecast, run_zero_shot, synthetic_pretrain


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d} ({label}): {detail}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def test_c01_gradient_correctness():
    """Analytic gradients of every tensor match central differences to 1e-4."""
    start = time.monotonic()
    cfg = BackboneConfig(
        n_layers=2, d_model=8, n_heads=2, d_ff=16, max_tokens=8,
        patch_len=4, head_in=3 * 8, head_out=5,
    )
    store = init_random(cfg, seeded_rng(11), dtype=np.float64)
    rng = seeded_rng(99)
    batch = Batch(
        tokens=rng.normal((2, 3, 4)),
        targets=rng.normal((2, 5)),
        out_scale=np.abs(rng.normal(2)) + 0.5,
        out_mean=rng.normal(2),
    )
    _, grads = loss_and_grads(store, cfg, batch)
    h = 1e-5
    worst = 0.0
    for name, arr in store.items():
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_and_grads(store, cfg, batch, wanted=frozenset())
            flat[i] = orig - h
            down, _ = loss_and_grads(store, cfg, batch, wanted=frozenset())
            flat[i] = orig
            fd = (up - down) / (2 * h)
            rel = abs(grads[name].ravel()[i] - fd) / max(abs(fd), 1e-6)
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    _report(
        1,
        "gradient correctness",
        worst <= 1e-4 and elapsed < 30,
        f"max relative error {worst:.3e} (tol 1e-4), {elapsed:.1f}s (< 30s)",
    )


def test_c02_freeze_contract():
    """100 steps under the default mask leave attention/FFN bit-identical."""
    cfg = BackboneConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=32, max_tokens=8,
        patch_len=4, head_in=3 * 16, head_out=4,
    )
    store = init_random(cfg, seeded_rng(21))
    mask = FreezeMask.default_fpt(store)
    initial = {k: v.copy() for k, v in store.items()}
    state = AdamState(lr=1e-3)
    rng = seeded_rng(22)
    for _ in range(100):
        batch = Batch(tokens=rng.normal((4, 3, 4)), targets=rng.normal((4, 4)))
        _, grads = loss_and_grads(store, cfg, batch, wanted=mask.trainable)
        store = adam_step(store, grads, state, mask.trainable)
    frozen_ok = all(
        np.array_equal(store[n], initial[n])
        for n in store
        if ".attn." in n or ".mlp." in n
    )
    trained_ok = all(
        not np.array_equal(store[n], initial[n])
        for n in store
        if not (".attn." in n or ".mlp." in n)
    )
    _report(
        2,
        "freeze contract",
        frozen_ok and trained_ok,
        f"frozen bit-identical: {frozen_ok}, trainable changed: {trained_ok} (100 steps)",
    )


def test_c03_pca_attention_optimality_suite():
    """Closed-form rank-m attention equals the eigen tail and beats brute force."""
    start = time.monotonic()
    rng = seeded_rng(31)
    worst_tail = 0.0
    worst_margin = -math.inf
    for trial in range(100):
        trial_rng = rng.child(trial)
        d = 2 + trial_rng.integers(5)  # D in [2, 6]
        n = d + 1 + trial_rng.integers(16 - d)  # N in [D+1, 16]
        x = trial_rng.normal((n, d))
        m = 1 + trial_rng.integers(d)
        sol = optimal_pca_attention(x, m)
        lam = sol.eigen.eigenvalues
        tail = float(lam[m:].sum())
        scale = max(1.0, float(lam.sum()))
        worst_tail = max(worst_tail, abs(sol.objective - tail) / scale)
        bf = bruteforce_rank_m_objective(x, m, trial_rng, restarts=10, steps=1500)
        worst_margin = max(worst_margin, sol.objective - bf)
    elapsed = time.monotonic() - start
    _report(
        3,
        "closed-form attention optimality",
        worst_tail <= 1e-6 and worst_margin <= 1e-4 and elapsed < 120,
        f"max |obj-tail|/tr = {worst_tail:.2e} (tol 1e-6), "
        f"max obj-bruteforce = {worst_margin:.2e} (tol 1e-4), {elapsed:.1f}s (< 2 min)",
    )


def test_c04_jacobian_bound_audit():
    """Finite-difference Jacobian norm never exceeds the analytic bound."""
    start = time.monotonic()
    rng = seeded_rng(41)
    held = 0
    for trial in range(50):
        trial_rng = rng.child(trial)
        d = 2 + trial_rng.integers(3)  # D in [2, 4]
        n = 2 + trial_rng.integers(5)  # N in [2, 6]
        x = trial_rng.normal((n, d))
        a = scale_to_spectral_norm(trial_rng.normal((d, d)), 1.0)
        held += int(jacobian_bound_check(x, a).holds)
    elapsed = time.monotonic() - start
    _report(
        4,
        "attention Jacobian bound",
        held == 50 and elapsed < 120,
        f"holds {held}/50, {elapsed:.1f}s (< 2 min)",
    )


def test_c05_attention_mean_concentration_rate():
    """Output-to-mean error decays like n^(-1/2); zero variance is exact."""
    rng = seeded_rng(51)
    d = 8
    mu = rng.normal(d)
    mu /= np.linalg.norm(mu)
    wq = rng.normal((d, d), scale=1 / math.sqrt(d))
    wk = rng.normal((d, d), scale=1 / math.sqrt(d))
    wv = rng.normal((d, d), scale=1 / math.sqrt(d))
    res = attention_mean_convergence(mu, 0.1, wq, wk, wv, [16, 64, 256, 1024], 200, rng)
    control = attention_mean_convergence(
        mu, 0.0, wq, wk, wv, [16, 64, 256, 1024], 5, seeded_rng(52)
    )
    control_err = max(e for _, e in control.points)
    ok = -0.7 <= res.slope <= -0.3 and control_err <= 1e-10
    _report(
        5,
        "attention concentration rate",
        ok,
        f"slope {res.slope:.3f} in [-0.7, -0.3], sigma=0 error {control_err:.2e} (tol 1e-10)",
    )


def test_c06_sgd_conditioning_rate():
    """Steps-to-eps scale inversely with the smallest covariance eigenvalue."""
    rows = sgd_rate_experiment([1.0, 0.1, 0.01], 1e-3, seed=0)
    steps = {row["sigma"]: row["steps"] for row in rows}
    r1 = steps[0.1] / steps[1.0]
    r2 = steps[0.01] / steps[1.0]
    ok = 10 / 3 <= r1 <= 30 and 100 / 3 <= r2 <= 300
    _report(
        6,
        "SGD conditioning rate",
        ok,
        f"steps {steps}; ratios {r1:.2f} (predicted 10, x3 band) and {r2:.2f} (predicted 100, x3 band)",
    )


def test_c07_maxent_dual_closed_form():
    """Bisection matches ln(g / (q (1-g))) to 1e-9 on a 100-point grid."""
    worst = 0.0
    for qi in range(10):
        for gi in range(10):
            q = 0.05 + 0.1 * qi
            g = 0.05 + 0.1 * gi
            expect = math.log(g / (q * (1.0 - g)))
            worst = max(worst, abs(maxent_dual_solve(q, g) - expect))
    ln2_err = abs(maxent_dual_solve(0.5, 0.5) - math.log(2.0))
    ok = worst <= 1e-9 and ln2_err <= 1e-9
    _report(
        7,
        "max-entropy dual",
        ok,
        f"max |bisection-closed form| = {worst:.2e} over 100 grid points (tol 1e-9), "
        f"ln2 error {ln2_err:.2e}",
    )


def test_c08_revin_patching_masks():
    """Normalization round trip, patch-count formula, and exact mask counts."""
    rng = seeded_rng(81)
    worst_rt = 0.0
    for i in range(1000):
        if i % 50 == 0:
            x = np.full(24, float(i)) + rng.normal(24, scale=1e-8)
        else:
            x = rng.normal(24, loc=rng.uniform((), -5, 5), scale=rng.uniform((), 0.01, 10))
        out, mu, sd = normalize_windows(x[None], 1e-5)
        worst_rt = max(worst_rt, float(np.abs(denormalize(out, sd, mu)[0] - x).max()))

    counts_ok = True
    checked = 0
    while checked < 200:
        length = 2 + rng.integers(240)
        p = 1 + rng.integers(length)
        s = 1 + rng.integers(10)
        if length < p:
            continue
        checked += 1
        brute = sum(1 for start in range(0, length, s) if start + p <= length)
        tokens = patchify_windows(np.zeros((1, length)), PatchConfig(p, s))
        counts_ok &= tokens.shape == (1, brute, p)

    mask_counts = []
    for ratio in (0.125, 0.25, 0.375, 0.5):
        mask = window_masks(1, 1, 96, mask_count(ratio, 96), seeded_rng(82))
        mask_counts.append(int((mask == 0).sum()))
    masks_ok = mask_counts == [12, 24, 36, 48]
    ok = worst_rt < 1e-10 and counts_ok and masks_ok
    _report(
        8,
        "revin + patching + masks",
        ok,
        f"round-trip max err {worst_rt:.2e} (tol 1e-10) over 1000 windows, "
        f"200 patch counts exact: {counts_ok}, 96-length mask counts {mask_counts}",
    )


def _sine_fixture() -> TimeSeriesDataset:
    return TimeSeriesDataset(name="sine24", values=sinusoid(3000, 24.0)[:, None])


_E2E_WSPEC = WindowSpec(lookback=96, horizon=24, stride=1)
_E2E_PATCH = PatchConfig(16, 8)


def _e2e_backbone() -> BackboneConfig:
    return BackboneConfig(
        n_layers=2, d_model=64, n_heads=4, d_ff=128, max_tokens=64,
        patch_len=16, head_in=1, head_out=1,
    )


def _e2e_tcfg() -> TrainConfig:
    return TrainConfig(epochs=5, batch_size=64, learning_rate=1e-3, early_stop_patience=3,
                       seed=7, ablation="no_pretrain")


def test_c09_end_to_end_forecasting():
    """Noiseless period-24 sinusoid: low test MSE, beats repeat-last, deterministic."""
    start = time.monotonic()
    r1, _ = run_forecast(
        _sine_fixture(), _E2E_WSPEC, _e2e_backbone(), _e2e_tcfg(), _E2E_PATCH, None, 1e-5
    )
    r2, _ = run_forecast(
        _sine_fixture(), _E2E_WSPEC, _e2e_backbone(), _e2e_tcfg(), _E2E_PATCH, None, 1e-5
    )
    elapsed = time.monotonic() - start
    mse_value = r1.metric("MSE", "O=24")
    baseline = r1.metadata["baseline"]["MSE"]
    ok = (
        mse_value < 0.05
        and mse_value < baseline
        and r1.to_json() == r2.to_json()
        and elapsed < 300
    )
    _report(
        9,
        "end-to-end forecasting",
        ok,
        f"MSE {mse_value:.2e} (< 0.05), repeat-last baseline {baseline:.3f}, "
        f"deterministic: {r1.to_json() == r2.to_json()}, {elapsed:.0f}s (< 5 min)",
    )


def test_c10_ablation_plumbing():
    """Five-arm ablation completes; frozen-random underperforms frozen-donor."""
    wspec = WindowSpec(lookback=96, horizon=24, stride=2)
    patch = PatchConfig(16, 8)
    base = BackboneConfig(
        n_layers=2, d_model=32, n_heads=4, d_ff=64, max_tokens=64,
        patch_len=16, head_in=1, head_out=1,
    )
    tcfg = TrainConfig(
        epochs=6, batch_size=64, learning_rate=1e-3, early_stop_patience=3, seed=11,
        ablation="no_pretrain",
    )
    donor = synthetic_pretrain(
        base, wspec, patch, tcfg, revin_eps=1e-5, length=2048, n_channels=3, noise=0.05
    )
    fixture = TimeSeriesDataset(
        name="transfer-fixture", values=sine_mixture(600, seeded_rng(511), noise=0.15)[:, None]
    )
    report = run_ablation_suite(
        lambda tcfg: run_forecast(fixture, wspec, base, tcfg, patch, donor, revin_eps=1e-5), tcfg
    )
    values = {r["scope"]: r["metrics"] for r in report.rows if r["scope"] != "avg"}
    all_arms = set(values) == {"fpt", "no_freeze", "no_pretrain", "no_pretrain_freeze", "gpt0"}
    finite = all(np.isfinite(list(m.values())).all() for m in values.values())
    step0 = report.metadata["step0_divergence_fpt_vs_no_freeze"]
    direction = values["no_pretrain_freeze"]["MSE"] > values["fpt"]["MSE"]
    ok = all_arms and finite and step0 == 0.0 and direction
    _report(
        10,
        "ablation plumbing",
        ok,
        f"arms complete: {all_arms}, finite: {finite}, step-0 divergence {step0}, "
        f"frozen-random {values['no_pretrain_freeze']['MSE']:.4f} > "
        f"frozen-donor {values['fpt']['MSE']:.4f}: {direction}",
    )


def test_c11_metric_oracles():
    """Every metric matches a straight-loop reference to 1e-12."""
    rng = seeded_rng(111)
    worst = 0.0
    for _ in range(1000):
        n = 2 + rng.integers(30)
        y = rng.normal(n, loc=3.0)
        yh = rng.normal(n, loc=3.0)
        ref_mse = sum((a - b) ** 2 for a, b in zip(y, yh)) / n
        ref_mae = sum(abs(a - b) for a, b in zip(y, yh)) / n
        ref_smape = 200.0 / n * sum(
            0.0 if abs(a) + abs(b) == 0 else abs(a - b) / (abs(a) + abs(b))
            for a, b in zip(y, yh)
        )
        insample = rng.normal(n + 5, loc=3.0)
        m = 1 + rng.integers(3)
        scale = sum(
            abs(insample[t] - insample[t - m]) for t in range(m, len(insample))
        ) / (len(insample) - m)
        ref_mase = ref_mae / scale
        ref_mape = 100.0 / n * sum(abs(a - b) / abs(a) for a, b in zip(y, yh))
        ref_nd = sum(abs(a - b) for a, b in zip(y, yh)) / sum(abs(a) for a in y)
        worst = max(
            worst,
            abs(mse(y, yh) - ref_mse),
            abs(mae(y, yh) - ref_mae),
            abs(smape(y, yh) - ref_smape),
            abs(mase(y, yh, insample, m) - ref_mase),
            abs(mape(y, yh) - ref_mape),
            abs(nd(y, yh) - ref_nd),
        )
        pred = (rng.uniform(n) < 0.3).astype(int)
        truth = (rng.uniform(n) < 0.3).astype(int)
        tp = int(((pred == 1) & (truth == 1)).sum())
        fp = int(((pred == 1) & (truth == 0)).sum())
        fn = int(((pred == 0) & (truth == 1)).sum())
        if truth.sum() > 0 and tp + fp > 0:
            p_ref = tp / (tp + fp)
            r_ref = tp / (tp + fn)
            f_ref = 0.0 if p_ref + r_ref == 0 else 2 * p_ref * r_ref / (p_ref + r_ref)
            p, r, f1 = prf1(pred, truth, point_adjust=False)
            worst = max(worst, abs(p - p_ref), abs(r - r_ref), abs(f1 - f_ref))
    sym = abs(smape([1.0, 2.0], [3.0, 0.5]) - smape([3.0, 0.5], [1.0, 2.0]))
    convention = abs(smape([1.0], [3.0]) - 100.0)
    owa_ok = owa(10.0, 1.0, 20.0, 2.0) == 0.5
    ok = worst <= 1e-12 and sym <= 1e-12 and convention <= 1e-12 and owa_ok
    _report(
        11,
        "metric oracles",
        ok,
        f"max |metric-loop reference| = {worst:.2e} over 1000 draws (tol 1e-12), "
        f"sMAPE symmetric and y=[1],yhat=[3] -> 100: {convention <= 1e-12}",
    )


def test_c12_zero_shot_contract():
    """source==target equals plain forecasting; evaluation touches no weights."""
    wspec = WindowSpec(lookback=48, horizon=12, stride=2)
    patch = PatchConfig(8, 4)
    base = BackboneConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=32, max_tokens=32,
        patch_len=8, head_in=1, head_out=1,
    )
    tcfg = TrainConfig(
        epochs=4, batch_size=64, learning_rate=1e-3, early_stop_patience=3, seed=3,
        ablation="no_pretrain",
    )
    ds = TimeSeriesDataset(name="sine", values=sinusoid(800, 24.0)[:, None])
    forecast, _ = run_forecast(ds, wspec, base, tcfg, patch, weights=None, revin_eps=1e-5)
    zero, _ = run_zero_shot(
        ds, ds, wspec, base, tcfg, patch, metric="smape", weights=None, revin_eps=1e-5
    )
    equal = (
        zero.metric("MSE", "O=12") == forecast.metric("MSE", "O=12")
        and zero.metric("MAE", "O=12") == forecast.metric("MAE", "O=12")
    )
    hash_ok = zero.metadata["param_hash_before"] == zero.metadata["param_hash_after"]
    _report(
        12,
        "zero-shot contract",
        equal and hash_ok,
        f"metrics identical to run_forecast: {equal}, parameter hash unchanged: {hash_ok}",
    )
