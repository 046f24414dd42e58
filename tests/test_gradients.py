"""Finite-difference audits of the hand-written backward pass."""

import numpy as np

from conftest import tiny_backbone
from fpt.backbone import Batch, init_random, loss_and_grads
from fpt.rng import seeded_rng


def _fd_check(cfg, batch, h=1e-5, tol=1e-4, seed=11):
    store = init_random(cfg, seeded_rng(seed), dtype=np.float64)
    _, grads = loss_and_grads(store, cfg, batch)
    worst = {}
    for name, arr in store.items():
        flat = arr.ravel()
        fd = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_and_grads(store, cfg, batch, wanted=frozenset())
            flat[i] = orig - h
            down, _ = loss_and_grads(store, cfg, batch, wanted=frozenset())
            flat[i] = orig
            fd[i] = (up - down) / (2 * h)
        analytic = grads[name].ravel()
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
        worst[name] = float(rel.max())
    bad = {k: v for k, v in worst.items() if v > tol}
    assert not bad, f"gradient mismatches: {bad}"
    return worst


def test_mse_with_denormalization_all_tensors():
    cfg = tiny_backbone(
        n_layers=2, d_model=8, n_heads=2, d_ff=12, max_tokens=6,
        patch_len=4, head_in=3 * 8, head_out=5,
    )
    rng = seeded_rng(100)
    batch = Batch(
        tokens=rng.normal((2, 3, 4)),
        targets=rng.normal((2, 5)),
        out_scale=np.abs(rng.normal(2)) + 0.5,
        out_mean=rng.normal(2),
    )
    _fd_check(cfg, batch)


def test_masked_mse():
    cfg = tiny_backbone(
        n_layers=1, d_model=8, n_heads=2, d_ff=12, max_tokens=6,
        patch_len=4, head_in=2 * 8, head_out=6,
    )
    rng = seeded_rng(101)
    mask = (rng.uniform((2, 6)) > 0.4).astype(np.float64)
    mask[0, 0] = 1.0  # keep at least one scored coordinate
    batch = Batch(
        tokens=rng.normal((2, 2, 4)),
        targets=rng.normal((2, 6)),
        out_scale=np.abs(rng.normal(2)) + 0.5,
        out_mean=rng.normal(2),
        mask=mask,
    )
    _fd_check(cfg, batch)


def test_cross_entropy_with_pooled_head():
    cfg = tiny_backbone(
        n_layers=1, d_model=8, n_heads=2, d_ff=12, max_tokens=6,
        patch_len=4, head_in=8, head_out=3, head_mode="pool",
    )
    rng = seeded_rng(102)
    batch = Batch(
        tokens=rng.normal((4, 3, 4)),
        labels=np.array([0, 2, 1, 2]),
    )
    _fd_check(cfg, batch)


def test_causal_attention_gradients():
    cfg = tiny_backbone(
        n_layers=1, d_model=8, n_heads=2, d_ff=12, max_tokens=6,
        patch_len=4, head_in=3 * 8, head_out=2, causal=True,
    )
    rng = seeded_rng(103)
    batch = Batch(tokens=rng.normal((2, 3, 4)), targets=rng.normal((2, 2)))
    _fd_check(cfg, batch)


def test_zero_block_model_gradients():
    cfg = tiny_backbone(
        n_layers=0, d_model=8, n_heads=2, d_ff=12, max_tokens=6,
        patch_len=4, head_in=3 * 8, head_out=4,
    )
    rng = seeded_rng(104)
    batch = Batch(tokens=rng.normal((2, 3, 4)), targets=rng.normal((2, 4)))
    _fd_check(cfg, batch)


def test_wanted_subset_matches_full():
    cfg = tiny_backbone(
        n_layers=1, d_model=8, n_heads=2, d_ff=12, max_tokens=6,
        patch_len=4, head_in=2 * 8, head_out=3,
    )
    rng = seeded_rng(105)
    store = init_random(cfg, seeded_rng(7), dtype=np.float64)
    batch = Batch(tokens=rng.normal((2, 2, 4)), targets=rng.normal((2, 3)))
    full_loss, full = loss_and_grads(store, cfg, batch)
    subset = frozenset({"input_embedding.w", "blocks.0.attn.wq", "output_head.b"})
    part_loss, part = loss_and_grads(store, cfg, batch, wanted=subset)
    assert part_loss == full_loss
    assert set(part) == set(subset)
    for name in subset:
        assert np.array_equal(part[name], full[name])
