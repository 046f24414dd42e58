import json

import numpy as np
import pytest

from conftest import tiny_backbone
from fpt.backbone import (
    AdamState,
    BackboneConfig,
    Batch,
    FreezeMask,
    backward_and_step,
    expected_shapes,
    forward,
    init_random,
    load_weights,
    loss_and_grads,
    mix_weights,
    param_hash,
    predict,
    save_weights,
)
from fpt.errors import FormatError, InvalidInput, ShapeError
from fpt.rng import seeded_rng


def test_init_shapes_and_conventions():
    cfg = BackboneConfig(
        n_layers=3, d_model=64, n_heads=4, d_ff=128, max_tokens=32,
        patch_len=16, head_in=64 * 5, head_out=24,
    )
    store = init_random(cfg, seeded_rng(0))
    want = expected_shapes(cfg)
    assert set(store) == set(want)
    for name, shape in want.items():
        assert store[name].shape == shape
        assert store[name].dtype == np.float32
    assert np.all(store["blocks.0.ln1.gamma"] == 1.0)
    assert np.all(store["blocks.1.ln2.beta"] == 0.0)
    assert np.all(store["blocks.0.attn.bq"] == 0.0)
    weights = store["blocks.0.attn.wq"]
    assert abs(float(weights.std()) - 0.02) < 0.005


def test_init_deterministic():
    cfg = tiny_backbone()
    a = init_random(cfg, seeded_rng(5))
    b = init_random(cfg, seeded_rng(5))
    assert param_hash(a) == param_hash(b)
    c = init_random(cfg, seeded_rng(6))
    assert param_hash(a) != param_hash(c)


class TestWeightContainer:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(1))
        save_weights(store, tmp_path / "model")
        again = load_weights(tmp_path / "model", cfg)
        assert param_hash(store) == param_hash(again)

    def test_manifest_lists_each_tensor_once_with_correct_blob(self, tmp_path):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(2))
        save_weights(store, tmp_path / "model")
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        names = [e["name"] for e in manifest["tensors"]]
        assert len(names) == len(set(names)) == len(expected_shapes(cfg))
        blob_len = (tmp_path / "model" / "weights.bin").stat().st_size
        assert blob_len == sum(4 * int(np.prod(e["shape"])) for e in manifest["tensors"])
        assert manifest["format_version"] == 1

    def test_missing_tensor_named(self, tmp_path):
        cfg = tiny_backbone()
        save_weights(init_random(cfg, seeded_rng(3)), tmp_path / "model")
        mpath = tmp_path / "model" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["tensors"] = [e for e in manifest["tensors"] if e["name"] != "pos_embedding"]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="pos_embedding"):
            load_weights(tmp_path / "model", cfg)

    def test_shape_mismatch_reports_both(self, tmp_path):
        cfg = tiny_backbone()
        save_weights(init_random(cfg, seeded_rng(4)), tmp_path / "model")
        other = tiny_backbone(d_ff=64)
        with pytest.raises(ShapeError, match=r"32.*64|64.*32"):
            load_weights(tmp_path / "model", other)


class TestMixWeights:
    def test_ratio_zero_identity(self):
        cfg = tiny_backbone()
        pre = init_random(cfg, seeded_rng(1))
        rnd = init_random(cfg, seeded_rng(2))
        mixed = mix_weights(pre, rnd, 0.0, seeded_rng(3))
        assert param_hash(mixed) == param_hash(pre)

    def test_ratio_one_frozen_equals_random(self):
        cfg = tiny_backbone()
        pre = init_random(cfg, seeded_rng(1))
        rnd = init_random(cfg, seeded_rng(2))
        mixed = mix_weights(pre, rnd, 1.0, seeded_rng(3))
        for name in pre:
            if ".attn." in name or ".mlp." in name:
                assert np.array_equal(mixed[name], rnd[name]), name
            else:
                assert np.array_equal(mixed[name], pre[name]), name

    def test_half_ratio_bernoulli_count(self):
        cfg = BackboneConfig(
            n_layers=4, d_model=160, n_heads=4, d_ff=640, max_tokens=8,
            patch_len=4, head_in=160, head_out=4, head_mode="pool",
        )
        pre = init_random(cfg, seeded_rng(1))
        rnd = init_random(cfg, seeded_rng(2))
        mixed = mix_weights(pre, rnd, 0.5, seeded_rng(3))
        replaced = total = 0
        for name in pre:
            if ".attn.w" in name or ".mlp.w" in name:
                replaced += int((mixed[name] == rnd[name]).sum())
                total += mixed[name].size
        assert total >= 1_000_000
        assert abs(replaced / total - 0.5) < 0.01

    def test_trainable_group_never_mixed(self):
        cfg = tiny_backbone()
        pre = init_random(cfg, seeded_rng(1))
        rnd = init_random(cfg, seeded_rng(2))
        for ratio in (0.3, 1.0):
            mixed = mix_weights(pre, rnd, ratio, seeded_rng(4))
            for name in ("input_embedding.w", "pos_embedding", "ln_f.gamma", "output_head.w"):
                assert np.array_equal(mixed[name], pre[name])

    def test_interpolation_mode(self):
        cfg = tiny_backbone()
        pre = init_random(cfg, seeded_rng(1))
        rnd = init_random(cfg, seeded_rng(2))
        mixed = mix_weights(pre, rnd, 0.25, seeded_rng(3), mode="interpolate")
        name = "blocks.0.attn.wq"
        expect = 0.75 * pre[name].astype(np.float64) + 0.25 * rnd[name].astype(np.float64)
        assert np.allclose(mixed[name], expect.astype(np.float32))


class TestForward:
    def test_single_token_zero_weights_path(self):
        cfg = tiny_backbone(n_layers=2)
        store = init_random(cfg, seeded_rng(1))
        for name in store:
            if name == "pos_embedding" or name.endswith("gamma"):
                continue
            store[name] = np.zeros_like(store[name])
        tokens = np.zeros((1, cfg.patch_len))
        out, trace = forward(store, cfg, tokens)
        row = store["pos_embedding"][0].astype(np.float64)
        mu, var = row.mean(), row.var()
        expect = (row - mu) / np.sqrt(var + 1e-5)
        assert np.allclose(out[0], expect, atol=1e-12)
        assert len(trace) == cfg.n_layers + 1

    def test_output_shape(self):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(2))
        tokens = seeded_rng(3).normal((4, 5, cfg.patch_len))
        out, trace = forward(store, cfg, tokens)
        assert out.shape == (4, 5, cfg.d_model)
        assert all(t.shape == (4, 5, cfg.d_model) for t in trace)

    def test_token_overflow(self):
        cfg = tiny_backbone(max_tokens=4)
        store = init_random(cfg, seeded_rng(2))
        with pytest.raises(InvalidInput):
            forward(store, cfg, np.zeros((5, cfg.patch_len)))

    def test_permutation_equivariance(self):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(4))
        store["pos_embedding"] = np.zeros_like(store["pos_embedding"])
        tokens = seeded_rng(5).normal((6, cfg.patch_len))
        out, _ = forward(store, cfg, tokens)
        perm = seeded_rng(6).permutation(6)
        out_perm, _ = forward(store, cfg, tokens[perm])
        assert np.abs(out_perm - out[perm]).max() <= 1e-12

    def test_causal_masking_changes_output(self):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(4))
        tokens = seeded_rng(5).normal((6, cfg.patch_len))
        out, _ = forward(store, cfg, tokens)
        out_causal, _ = forward(store, tiny_backbone(causal=True), tokens)
        assert np.abs(out - out_causal).max() > 1e-8

    def test_pca_attention_full_rank_matches_centering(self):
        cfg = tiny_backbone(n_layers=1)
        store = init_random(cfg, seeded_rng(7))
        tokens = seeded_rng(8).normal((1, 6, cfg.patch_len))
        out_pca, trace_pca = forward(store, cfg, tokens, mode="pca", pca_m=cfg.d_model)

        # reference: attention sublayer replaced by identity-on-span (token centering)
        p = {k: v.astype(np.float64) for k, v in store.items()}
        x = tokens[0] @ p["input_embedding.w"] + p["input_embedding.b"] + p["pos_embedding"][:6]

        def ln(v, g, b):
            mu = v.mean(-1, keepdims=True)
            var = ((v - mu) ** 2).mean(-1, keepdims=True)
            return g * (v - mu) / np.sqrt(var + 1e-5) + b

        a1 = ln(x, p["blocks.0.ln1.gamma"], p["blocks.0.ln1.beta"])
        h = x + (a1 - a1.mean(axis=0, keepdims=True))
        a2 = ln(h, p["blocks.0.ln2.gamma"], p["blocks.0.ln2.beta"])
        u = a2 @ p["blocks.0.mlp.w1"] + p["blocks.0.mlp.b1"]
        gelu = 0.5 * u * (1 + np.tanh(np.sqrt(2 / np.pi) * (u + 0.044715 * u**3)))
        h = h + gelu @ p["blocks.0.mlp.w2"] + p["blocks.0.mlp.b2"]
        expect = ln(h, p["ln_f.gamma"], p["ln_f.beta"])
        assert np.abs(out_pca[0] - expect).max() <= 1e-8

    def test_batch_trace_matches_rows_alone(self):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(4))
        tokens = seeded_rng(5).normal((5, 6, cfg.patch_len))
        for mode, pca_m in (("softmax", None), ("pca", 2)):
            out, trace = forward(store, cfg, tokens, mode=mode, pca_m=pca_m)
            for i in range(tokens.shape[0]):
                row_out, row_trace = forward(store, cfg, tokens[i], mode=mode, pca_m=pca_m)
                assert np.abs(row_out - out[i]).max() <= 1e-12
                for layer, row_layer in zip(trace, row_trace):
                    assert np.abs(row_layer - layer[i]).max() <= 1e-12

    def test_bad_token_width_is_shape_error(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=2)
        store = init_random(cfg, seeded_rng(2))
        bad = np.zeros((2, 3, cfg.patch_len + 1))
        with pytest.raises(ShapeError):
            loss_and_grads(store, cfg, Batch(tokens=bad, targets=np.zeros((2, 2))), "mse")
        with pytest.raises(ShapeError):
            predict(store, cfg, bad)

    def test_pca_mode_needs_rank(self):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(7))
        with pytest.raises(InvalidInput):
            forward(store, cfg, np.zeros((3, cfg.patch_len)), mode="pca")

    def test_pca_mode_rejects_nan_tokens(self):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(7))
        tokens = seeded_rng(8).normal((2, 3, cfg.patch_len))
        tokens[1, 0, 0] = np.nan
        with pytest.raises(InvalidInput):
            forward(store, cfg, tokens, mode="pca", pca_m=2)


class TestTrainingStep:
    def _batch(self, cfg, n_tokens=3, batch=4, seed=20):
        rng = seeded_rng(seed)
        return Batch(
            tokens=rng.normal((batch, n_tokens, cfg.patch_len)),
            targets=rng.normal((batch, cfg.head_out)),
        )

    def test_frozen_tensors_bit_identical_after_steps(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=5)
        store = init_random(cfg, seeded_rng(1))
        mask = FreezeMask.default_fpt(store)
        state = AdamState(lr=1e-3)
        initial = {k: v.copy() for k, v in store.items()}
        for step in range(10):
            _, store = backward_and_step(
                store, cfg, self._batch(cfg, seed=30 + step), "mse", state, mask
            )
        for name in store:
            if ".attn." in name or ".mlp." in name:
                assert np.array_equal(store[name], initial[name]), name
            else:
                assert not np.array_equal(store[name], initial[name]), name

    def test_zero_learning_rate_keeps_store(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=5)
        store = init_random(cfg, seeded_rng(2))
        mask = FreezeMask.all_trainable(store)
        before = param_hash(store)
        _, after = backward_and_step(
            store, cfg, self._batch(cfg), "mse", AdamState(lr=0.0), mask
        )
        assert param_hash(after) == before

    def test_default_mask_contents(self):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(3))
        mask = FreezeMask.default_fpt(store)
        assert "input_embedding.w" in mask.trainable
        assert "pos_embedding" in mask.trainable
        assert "ln_f.gamma" in mask.trainable
        assert "blocks.0.ln1.beta" in mask.trainable
        assert "output_head.b" in mask.trainable
        assert "blocks.0.attn.wq" not in mask.trainable
        assert "blocks.1.mlp.w2" not in mask.trainable
        frozen = mask.frozen_names(store)
        assert all(".attn." in n or ".mlp." in n for n in frozen)

    def test_dropout_deterministic_per_stream(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=5, dropout=0.2)
        store = init_random(cfg, seeded_rng(4))
        mask = FreezeMask.all_trainable(store)
        batch = self._batch(cfg)
        l1, s1 = backward_and_step(
            store, cfg, batch, "mse", AdamState(lr=1e-3), mask, dropout_rng=seeded_rng(9)
        )
        l2, s2 = backward_and_step(
            store, cfg, batch, "mse", AdamState(lr=1e-3), mask, dropout_rng=seeded_rng(9)
        )
        assert l1 == l2 and param_hash(s1) == param_hash(s2)
        l3, _ = backward_and_step(
            store, cfg, batch, "mse", AdamState(lr=1e-3), mask, dropout_rng=seeded_rng(10)
        )
        assert l3 != l1

    def test_training_and_inference_run_the_same_block(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=5)
        rng = seeded_rng(7)
        store = init_random(cfg, seeded_rng(6))
        for name, arr in store.items():  # nonzero biases so every addition is exercised
            store[name] = (arr + rng.normal(arr.shape, scale=0.1)).astype(arr.dtype)
        tokens = rng.normal((4, 3, cfg.patch_len))
        value, _ = loss_and_grads(
            store, cfg, Batch(tokens=tokens, targets=np.zeros((4, 5))), "mse"
        )
        assert value == float(np.mean(predict(store, cfg, tokens) ** 2))

    def test_predict_shape(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=5)
        store = init_random(cfg, seeded_rng(5))
        out = predict(store, cfg, seeded_rng(6).normal((7, 3, cfg.patch_len)))
        assert out.shape == (7, 5)
