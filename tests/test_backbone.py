import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import tiny_backbone
from fpt import backbone
from fpt.backbone import (
    _GELU_C,
    _GELU_K,
    AdamState,
    BackboneConfig,
    Batch,
    FreezeMask,
    _blocks,
    _colsum,
    _compute_store,
    _gelu,
    _gelu_bwd,
    _head_fwd,
    _heads,
    _ln_bwd,
    _mm,
    _scaled_dout,
    _set_grad,
    _wgrad,
    adam_step,
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
from fpt.errors import FormatError, InvalidInput, NumericalFailure, ShapeError
from fpt.numerics import finite_diff_grad, layer_norm_last, softmax, softmax_rows
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


def test_the_weight_cap_counts_the_expected_shapes():
    """A config of exactly ``_MAX_WEIGHTS`` weights, as ``expected_shapes``
    counts them, is accepted, and one weight more is refused before any
    tensor is drawn."""
    head = 2  # the weights of tiny_backbone's 1x1 head: w and b
    rest = sum(math.prod(s) for s in expected_shapes(tiny_backbone()).values()) - head
    at_cap = tiny_backbone(head_in=backbone._MAX_WEIGHTS - rest - 1)
    assert sum(math.prod(s) for s in expected_shapes(at_cap).values()) == backbone._MAX_WEIGHTS
    with pytest.raises(InvalidInput, match="weights"):
        tiny_backbone(head_in=at_cap.head_in + 1)
    with pytest.raises(InvalidInput, match="weights"):  # 4 d**2 would wrap to 0 in int32
        tiny_backbone(d_model=np.int32(2**16))


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("offset", None),
            ("offset", "0"),
            ("offset", -4),
            ("offset", True),
            ("offset", 1.5),
            ("shape", None),
            ("shape", "16"),
            ("shape", [16.0]),
            ("shape", [-16]),
        ],
    )
    def test_bad_entry_field_is_format_error(self, tmp_path, field, value):
        cfg = tiny_backbone()
        save_weights(init_random(cfg, seeded_rng(3)), tmp_path / "model")
        mpath = tmp_path / "model" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        entry = next(e for e in manifest["tensors"] if e["name"] == "ln_f.beta")
        if value is None:
            del entry[field]
        else:
            entry[field] = value
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=f"ln_f.beta: {field}"):
            load_weights(tmp_path / "model", cfg)

    @pytest.mark.parametrize(
        "corruption, message",
        [
            ("overlap", "ln_f.gamma: offset .* overlaps tensor 'ln_f.beta'"),
            ("trailing", "weights.bin holds .* bytes but its tensors cover"),
            ("[]", "weight manifest must be a JSON object, got list"),
            ("3", "weight manifest must be a JSON object, got int"),
            ('"x"', "weight manifest must be a JSON object, got str"),
        ],
    )
    def test_bad_layout_is_format_error(self, tmp_path, corruption, message):
        cfg = tiny_backbone()
        save_weights(init_random(cfg, seeded_rng(3)), tmp_path / "model")
        if corruption not in ("overlap", "trailing"):  # the whole manifest replaced
            (tmp_path / "model" / "manifest.json").write_text(corruption)
        elif corruption == "overlap":
            mpath = tmp_path / "model" / "manifest.json"
            manifest = json.loads(mpath.read_text())
            entries = {e["name"]: e for e in manifest["tensors"]}
            entries["ln_f.gamma"]["offset"] = entries["ln_f.beta"]["offset"]
            mpath.write_text(json.dumps(manifest))
        else:
            bpath = tmp_path / "model" / "weights.bin"
            bpath.write_bytes(bpath.read_bytes() + bytes(4))
        with pytest.raises(FormatError, match=message):
            load_weights(tmp_path / "model", cfg)

    def test_non_finite_value_is_numerical_failure(self, tmp_path):
        cfg = tiny_backbone()
        save_weights(init_random(cfg, seeded_rng(3)), tmp_path / "model")
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        entry = next(e for e in manifest["tensors"] if e["name"] == "blocks.1.mlp.w2")
        bpath = tmp_path / "model" / "weights.bin"
        for bad in (np.nan, np.inf):
            blob = bytearray(bpath.read_bytes())
            at = entry["offset"] + 4 * 5
            blob[at : at + 4] = np.array([bad], dtype="<f4").tobytes()
            bpath.write_bytes(bytes(blob))
            with pytest.raises(NumericalFailure, match="blocks.1.mlp.w2"):
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
        mixed = mix_weights(pre, rnd, 0.0, seeded_rng(3), "replace")
        assert param_hash(mixed) == param_hash(pre)

    def test_ratio_one_frozen_equals_random(self):
        cfg = tiny_backbone()
        pre = init_random(cfg, seeded_rng(1))
        rnd = init_random(cfg, seeded_rng(2))
        mixed = mix_weights(pre, rnd, 1.0, seeded_rng(3), "replace")
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
        mixed = mix_weights(pre, rnd, 0.5, seeded_rng(3), "replace")
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
            mixed = mix_weights(pre, rnd, ratio, seeded_rng(4), "replace")
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


# A float32 store computes in float32: 32 ulps at 1.0 on the O(1)
# final-LayerNorm outputs, where 2e-7 to 5e-7 is typical
_F32_TOL = 32 * np.finfo(np.float32).eps


class TestForward:
    def test_single_token_zero_weights_path(self):
        cfg = tiny_backbone(n_layers=2)
        store = init_random(cfg, seeded_rng(1))
        for name in store:
            if name == "pos_embedding" or name.endswith("gamma"):
                continue
            store[name] = np.zeros_like(store[name])
        tokens = np.zeros((1, 1, cfg.patch_len))
        out, trace = forward(store, cfg, tokens)
        row = store["pos_embedding"][0].astype(np.float64)
        mu, var = row.mean(), row.var()
        expect = (row - mu) / np.sqrt(var + 1e-5)
        assert np.allclose(out[0, 0], expect, atol=1e-12)
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
            forward(store, cfg, np.zeros((1, 5, cfg.patch_len)))

    @staticmethod
    def _permutation_gap(dtype):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(4), dtype=dtype)
        store["pos_embedding"] = np.zeros_like(store["pos_embedding"])
        tokens = seeded_rng(5).normal((1, 6, cfg.patch_len))
        out, _ = forward(store, cfg, tokens)
        perm = seeded_rng(6).permutation(6)
        out_perm, _ = forward(store, cfg, tokens[:, perm])
        return np.abs(out_perm - out[:, perm]).max()

    def test_permutation_equivariance(self):
        assert self._permutation_gap(np.float64) <= 1e-12

    def test_permutation_equivariance_float32(self):
        assert self._permutation_gap(np.float32) <= _F32_TOL

    def test_causal_masking_changes_output(self):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(4))
        tokens = seeded_rng(5).normal((1, 6, cfg.patch_len))
        out, _ = forward(store, cfg, tokens)
        out_causal, _ = forward(store, tiny_backbone(causal=True), tokens)
        assert np.abs(out - out_causal).max() > 1e-8

    @staticmethod
    def _pca_centering_gap(dtype):
        cfg = tiny_backbone(n_layers=1)
        store = init_random(cfg, seeded_rng(7), dtype=dtype)
        tokens = seeded_rng(8).normal((1, 6, cfg.patch_len))
        out_pca, trace_pca = forward(store, cfg, tokens, pca_m=cfg.d_model)

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
        return np.abs(out_pca[0] - expect).max()

    def test_pca_attention_full_rank_matches_centering(self):
        assert self._pca_centering_gap(np.float64) <= 1e-8

    def test_pca_attention_full_rank_matches_centering_float32(self):
        assert self._pca_centering_gap(np.float32) <= _F32_TOL

    def test_batch_trace_matches_rows_alone(self):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(4))
        tokens = seeded_rng(5).normal((5, 6, cfg.patch_len))
        for pca_m in (None, 2):
            out, trace = forward(store, cfg, tokens, pca_m)
            for i in range(tokens.shape[0]):
                row = slice(i, i + 1)
                row_out, row_trace = forward(store, cfg, tokens[row], pca_m)
                assert np.abs(row_out - out[row]).max() <= 1e-12
                for layer, row_layer in zip(trace, row_trace):
                    assert np.abs(row_layer - layer[row]).max() <= 1e-12

    def test_bad_token_width_is_shape_error(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=2)
        store = init_random(cfg, seeded_rng(2))
        bad = np.zeros((2, 3, cfg.patch_len + 1))
        with pytest.raises(ShapeError):
            loss_and_grads(store, cfg, Batch(tokens=bad, targets=np.zeros((2, 2))))
        with pytest.raises(ShapeError):
            predict(store, cfg, bad)

    def test_unbatched_tokens_are_shape_error(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=2)
        store = init_random(cfg, seeded_rng(2))
        sample = np.zeros((3, cfg.patch_len))
        with pytest.raises(ShapeError, match=r"tokens must be \(B, n, 8\), got \(3, 8\)"):
            forward(store, cfg, sample)
        with pytest.raises(ShapeError):
            predict(store, cfg, sample)
        with pytest.raises(ShapeError):
            loss_and_grads(store, cfg, Batch(tokens=sample, targets=np.zeros((1, 2))))
        assert predict(store, cfg, sample[None]).shape == (1, 2)

    def test_pca_mode_rejects_nan_tokens(self):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(7))
        tokens = seeded_rng(8).normal((2, 3, cfg.patch_len))
        tokens[1, 0, 0] = np.nan
        with pytest.raises(InvalidInput):
            forward(store, cfg, tokens, pca_m=2)


class TestKernels:
    def test_gelu_matches_pow_reference(self):
        u = np.linspace(-10.0, 10.0, 40001)
        t_ref = np.tanh(_GELU_K * (u + _GELU_C * u**3))
        g, t = _gelu(u)
        np.testing.assert_allclose(t, t_ref, rtol=1e-14, atol=0.0)
        # 0.5 * u * (1 + t) cancels in the negative tail, where one ulp of t
        # is large against 1 + t: allow an absolute floor of a few ulps of 1.0
        np.testing.assert_allclose(g, 0.5 * u * (1.0 + t_ref), rtol=1e-14, atol=1e-15)

    def test_gemm_helpers_match_batched_products(self):
        rng = seeded_rng(11)
        a, b, w = rng.normal((7, 5, 6)), rng.normal((7, 5, 3)), rng.normal((6, 4))
        assert np.abs(_wgrad(a, b) - np.einsum("bnd,bne->de", a, b)).max() <= 1e-12
        assert np.abs(_mm(a, w) - np.einsum("bnk,ke->bne", a, w)).max() <= 1e-12
        assert np.abs(_mm(b, w[:, :3].T) - np.einsum("bnk,ek->bne", b, w[:, :3])).max() <= 1e-12

    def test_predict_equals_its_row_chunks(self):
        cfg = tiny_backbone(head_in=4 * 16, head_out=3)
        store = init_random(cfg, seeded_rng(12))
        tokens = seeded_rng(13).normal((700, 4, cfg.patch_len))
        whole = predict(store, cfg, tokens)
        chunks = [predict(store, cfg, tokens[lo : lo + 128]) for lo in range(0, 700, 128)]
        assert np.abs(whole - np.concatenate(chunks)).max() <= 1e-12

    def test_predict_memory_is_bounded_by_its_chunks(self):
        """At the c09 shape, one predict call on 2,000 windows peaks within
        2x of a 128-window call and equals the 128-row calls concatenated."""
        cfg = BackboneConfig(
            n_layers=2, d_model=64, n_heads=4, d_ff=128, max_tokens=64,
            patch_len=16, head_in=11 * 64, head_out=24,
        )
        store = init_random(cfg, seeded_rng(46))
        tokens = seeded_rng(47).normal((2000, 11, 16))

        def traced(rows):
            tracemalloc.start()
            try:
                return predict(store, cfg, rows), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole, peak = traced(tokens)
        _, chunk_peak = traced(tokens[:128])
        assert peak <= 2 * chunk_peak, (peak, chunk_peak)
        chunks = [predict(store, cfg, tokens[lo : lo + 128]) for lo in range(0, 2000, 128)]
        assert np.array_equal(whole, np.concatenate(chunks))


# Plain-expression references for the in-place step kernels: each kernel must
# match its expression bit for bit, so the trained weights do not move.


def _ref_gelu(u):
    t = np.tanh(_GELU_K * (u + _GELU_C * (u * u * u)))
    return 0.5 * u * (1.0 + t), t


def _ref_gelu_bwd(dg, u, t):
    dt = _GELU_K * (1.0 + 3.0 * _GELU_C * u * u) * (1.0 - t * t)
    return dg * (0.5 * (1.0 + t) + 0.5 * u * dt)


def _ref_layer_norm(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def _ref_ln_bwd(dy, cache):
    xhat, inv, gamma = cache
    dgamma = _colsum(dy * xhat)
    dbeta = _colsum(dy)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dgamma, dbeta


def _ref_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _ref_adam(store, grads, state, trainable, lr):
    """The per-tensor Adam loop; ``state`` is {"t": int, "m": {}, "v": {}}."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    state["t"] += 1
    t = state["t"]
    out = {}
    for name, arr in store.items():
        if name not in trainable:
            out[name] = arr
            continue
        g = grads.get(name)
        g = np.zeros(arr.shape) if g is None else np.asarray(g, dtype=np.float64)
        m = state["m"].get(name, np.zeros(arr.shape))
        v = state["v"].get(name, np.zeros(arr.shape))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state["m"][name], state["v"][name] = m, v
        mhat = m / (1.0 - b1**t)
        vhat = v / (1.0 - b2**t)
        updated = arr.astype(np.float64) - lr * mhat / (np.sqrt(vhat) + eps)
        out[name] = updated.astype(arr.dtype)
    return out


# (B, tokens, d_model) and (B, tokens, d_ff) of the c09 forecasting config,
# and a tiny shape.
_KERNEL_SHAPES = [(64, 11, 64), (64, 11, 128), (2, 3, 5)]


def _train_step(store, cfg, batch, state, mask, dropout_rng=None):
    """One training step as ``tasks._fit`` runs it: (loss, new store)."""
    value, grads = loss_and_grads(
        store, cfg, batch, wanted=mask.trainable, dropout_rng=dropout_rng
    )
    return value, adam_step(store, grads, state, mask.trainable)


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


class TestBitwiseKernels:
    @pytest.mark.parametrize("shape", _KERNEL_SHAPES)
    def test_gelu_and_its_backward(self, shape):
        rng = seeded_rng(40)
        u, dg = rng.normal(shape, scale=3.0), rng.normal(shape)
        u_before = u.copy()
        g, t = _gelu(u)
        assert _same((g, t), _ref_gelu(u))
        assert np.array_equal(_gelu_bwd(dg, u, t), _ref_gelu_bwd(dg, u, t))
        assert np.array_equal(u, u_before)

    @pytest.mark.parametrize("shape", _KERNEL_SHAPES)
    def test_layer_norm_and_its_backward(self, shape):
        rng = seeded_rng(41)
        x, dy = rng.normal(shape, scale=2.0) + 0.5, rng.normal(shape)
        gamma, beta = rng.normal(shape[-1:]) + 1.0, rng.normal(shape[-1:])
        y, cache = layer_norm_last(x, gamma, beta, 1e-5)
        y_ref, cache_ref = _ref_layer_norm(x, gamma, beta, 1e-5)
        assert np.array_equal(y, y_ref) and _same(cache, cache_ref)
        dy_before = dy.copy()
        grads = {}
        dx = _ln_bwd(dy, cache, grads, None, "")
        assert _same((dx, grads["gamma"], grads["beta"]), _ref_ln_bwd(dy, cache_ref))
        assert np.array_equal(dy, dy_before)

    @pytest.mark.parametrize("shape", [(64, 4, 11, 11), (2, 3, 5)])
    def test_softmax(self, shape):
        z = seeded_rng(42).normal(shape, scale=4.0)
        z_before = z.copy()
        assert np.array_equal(softmax(z, -1), _ref_softmax(z))
        assert np.array_equal(z, z_before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_axis_zero_softmax_is_the_moved_axis_row_softmax(self, dtype):
        """The attention's key-major softmax against the row softmax of the
        same scores: the max it subtracts is exact, so only the order of the
        denominator's sum differs."""
        z = seeded_rng(46).normal((11, 64, 4, 11), scale=4.0).astype(dtype)
        z[3, 5] += 1e4  # overflows exp unless the max along axis 0 is subtracted
        got = softmax(z, 0)
        ref = np.moveaxis(softmax(np.ascontiguousarray(np.moveaxis(z, 0, -1)), -1), -1, 0)
        assert got.dtype == dtype
        np.testing.assert_array_max_ulp(got, ref, maxulp=4)
        assert np.all(got[3, 5] == 1.0) and np.all(np.delete(got, 3, axis=0)[:, 5] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_matches_the_per_tensor_loop(self, dtype):
        cfg = tiny_backbone(head_in=3 * 16, head_out=5)
        store = init_random(cfg, seeded_rng(43), dtype=dtype)
        trainable = FreezeMask.default_fpt(store).trainable
        rng = seeded_rng(44)
        state, ref_state = AdamState(lr=1e-2), {"t": 0, "m": {}, "v": {}}
        ref, beta0 = store, store["ln_f.beta"]
        for _ in range(5):
            grads = {
                n: rng.normal(a.shape) for n, a in store.items() if n != "ln_f.beta"
            }
            grads_before = {n: g.copy() for n, g in grads.items()}
            new = adam_step(store, grads, state, trainable)
            ref = _ref_adam(ref, grads, ref_state, trainable, 1e-2)
            assert all(_same((new[n],), (ref[n],)) and new[n].dtype == dtype for n in ref)
            assert all(new[n] is store[n] for n in store if n not in trainable)
            assert _same(grads.values(), grads_before.values())
            store = new
        assert np.array_equal(store["ln_f.beta"], beta0)  # trainable, but never given a gradient
        flat = [n for n in store if n in trainable]
        assert np.array_equal(state.m, np.concatenate([ref_state["m"][n].ravel() for n in flat]))
        assert np.array_equal(state.v, np.concatenate([ref_state["v"][n].ravel() for n in flat]))
        frozen = adam_step(store, grads, state, frozenset())
        assert state.t == 6 and all(frozen[n] is store[n] for n in store)

    def test_adam_overflow_raises(self):
        """An overflowing g * g leaves v infinite and the step 0; without
        numpy raising on overflow, Adam itself reports it."""
        store = init_random(tiny_backbone(head_in=3 * 16, head_out=5), seeded_rng(45))
        grads = {n: np.full(a.shape, 1e200) for n, a in store.items()}
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure, match="Adam step 1"):
            adam_step(store, grads, AdamState(lr=1e-3), FreezeMask.all_trainable(store).trainable)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_steps_write_into_no_store_or_batch(self, dtype, dropout):
        """In-place kernels touch only their own buffers: not the input store,
        not the caller's float64 tokens, not a store an earlier step returned
        (the early-stopping fit keeps its best store by reference)."""
        cfg = BackboneConfig(
            n_layers=2, d_model=64, n_heads=4, d_ff=128, max_tokens=64,
            patch_len=16, head_in=11 * 64, head_out=24, dropout=dropout,
        )
        rng = seeded_rng(45)
        store = init_random(cfg, rng.child(1), dtype=dtype)
        batch = Batch(tokens=rng.normal((64, 11, 16)), targets=rng.normal((64, 24)))
        tokens_before = batch.tokens.copy()
        mask, state = FreezeMask.all_trainable(store), AdamState(lr=1e-3)
        hashes = [param_hash(store)]
        stores = [store]
        for step in range(3):
            _, store = _train_step(
                store, cfg, batch, state, mask, dropout_rng=seeded_rng(50 + step)
            )
            stores.append(store)
            hashes.append(param_hash(store))
        assert [param_hash(s) for s in stores] == hashes
        assert len(set(hashes)) == len(hashes)
        assert np.array_equal(batch.tokens, tokens_before)


# The backward pass as it was before it freed its tape: every block cache
# lives until the pass returns.  Freeing buffers earlier must not move a bit.


def _ref_attn_bwd(dout, cache, p, prefix, cfg, grads, wanted):
    x, qkv, wqkv, probs, ctx, scale = cache
    _set_grad(grads, wanted, prefix + "attn.wo", lambda: _wgrad(ctx, dout))
    _set_grad(grads, wanted, prefix + "attn.bo", lambda: _colsum(dout))
    dctx = _heads(_mm(dout, p[prefix + "attn.wo"].T), cfg)[0]
    qh, kh, vh = _heads(qkv, cfg)
    dqkv = np.empty_like(qkv)
    dqh, dkh, dvh = _heads(dqkv, cfg)
    dprobs = np.empty_like(probs)
    np.matmul(vh, dctx.swapaxes(-1, -2), out=dprobs.transpose(1, 2, 0, 3))
    np.matmul(probs.transpose(1, 2, 0, 3), dctx, out=dvh)
    dz = probs * (dprobs - (dprobs * probs).sum(axis=0)) * scale
    np.matmul(dz.transpose(1, 2, 3, 0), kh, out=dqh)
    np.matmul(dz.transpose(1, 2, 0, 3), qh, out=dkh)
    dw, db, d = _wgrad(x, dqkv), _colsum(dqkv), cfg.d_model
    for i, s in enumerate("qkv"):
        _set_grad(grads, wanted, prefix + "attn.w" + s, lambda i=i: dw[:, i * d : (i + 1) * d])
        _set_grad(grads, wanted, prefix + "attn.b" + s, lambda i=i: db[i * d : (i + 1) * d])
    return _mm(dqkv, wqkv.T)


def _ref_loss_and_grads(store, cfg, batch, wanted=None, dropout_rng=None):
    p = _compute_store(store)
    y, _, (x, emb_mask, caches, lnf_cache) = _blocks(
        p, cfg, batch.tokens, dropout_rng=dropout_rng, keep=True
    )
    out, flat = _head_fwd(y, p, cfg)
    value, dout, k = _scaled_dout(out, batch)
    grads = {}
    _set_grad(grads, wanted, "output_head.w", lambda: flat.T @ dout)
    _set_grad(grads, wanted, "output_head.b", lambda: _colsum(dout))
    dflat = dout @ p["output_head.w"].T
    if cfg.head_mode == "flatten":
        dy = dflat.reshape(y.shape)
    else:
        dy = np.repeat(dflat[:, None, :], y.shape[1], axis=1) / y.shape[1]
    dh = _ln_bwd(dy, lnf_cache, grads, wanted, "ln_f.")
    for i in reversed(range(cfg.n_layers)):
        prefix = f"blocks.{i}."
        ln1_cache, attn_cache, attn_mask, ln2_cache, a2, u, g, tanh_cache, mlp_mask = caches[i]
        dmlp_out = dh if mlp_mask is None else dh * mlp_mask
        _set_grad(grads, wanted, prefix + "mlp.w2", lambda: _wgrad(g, dmlp_out))
        _set_grad(grads, wanted, prefix + "mlp.b2", lambda: _colsum(dmlp_out))
        dg = _mm(dmlp_out, p[prefix + "mlp.w2"].T)
        du = _gelu_bwd(dg, u, tanh_cache)
        _set_grad(grads, wanted, prefix + "mlp.w1", lambda: _wgrad(a2, du))
        _set_grad(grads, wanted, prefix + "mlp.b1", lambda: _colsum(du))
        da2 = _mm(du, p[prefix + "mlp.w1"].T)
        dh_ln2 = _ln_bwd(da2, ln2_cache, grads, wanted, prefix + "ln2.")
        dh += dh_ln2
        dattn_out = dh if attn_mask is None else dh * attn_mask
        da1 = _ref_attn_bwd(dattn_out, attn_cache, p, prefix, cfg, grads, wanted)
        dh_ln1 = _ln_bwd(da1, ln1_cache, grads, wanted, prefix + "ln1.")
        dh += dh_ln1
    if emb_mask is not None:
        dh = dh * emb_mask
    _set_grad(grads, wanted, "input_embedding.w", lambda: _wgrad(x, dh))
    _set_grad(grads, wanted, "input_embedding.b", lambda: _colsum(dh))

    def dpos():
        g_full = np.zeros_like(p["pos_embedding"])
        g_full[: x.shape[1]] = dh.sum(axis=0)
        return g_full

    _set_grad(grads, wanted, "pos_embedding", dpos)
    return value, {n: np.ldexp(g, k, dtype=np.float64) for n, g in grads.items()}


def _c09_step_inputs(dtype=np.float32, **over):
    """Config, store and one B=64 batch at the c09 forecasting shape."""
    cfg = BackboneConfig(
        n_layers=2, d_model=64, n_heads=4, d_ff=128, max_tokens=64,
        patch_len=16, head_in=11 * 64, head_out=24, **over,
    )
    rng = seeded_rng(60)
    store = init_random(cfg, rng.child(1), dtype=dtype)
    batch = Batch(tokens=rng.normal((64, 11, 16)), targets=rng.normal((64, 24)))
    return cfg, store, batch


class TestBackwardTape:
    def test_backward_peak_is_the_forward_tape(self):
        """The backward pass frees each block's tape as it reads it, so one
        step peaks within 1.15x of the forward tape alone; holding every
        cache to the end peaked about 1.6x above it."""
        cfg, store, batch = _c09_step_inputs()

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        forward_peak = peak(lambda: _blocks(_compute_store(store), cfg, batch.tokens, keep=True))
        step_peak = peak(lambda: loss_and_grads(store, cfg, batch))
        assert step_peak <= 1.15 * forward_peak, (step_peak, forward_peak)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("freeze", ["all", "fpt"])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_gradients_match_the_tape_holding_loop(self, dtype, freeze, dropout):
        cfg, store, batch = _c09_step_inputs(dtype, dropout=dropout)
        mask = FreezeMask.all_trainable(store) if freeze == "all" else FreezeMask.default_fpt(store)
        value, grads = loss_and_grads(
            store, cfg, batch, mask.trainable, dropout_rng=seeded_rng(61)
        )
        ref_value, ref_grads = _ref_loss_and_grads(
            store, cfg, batch, mask.trainable, dropout_rng=seeded_rng(61)
        )
        assert value == ref_value
        assert sorted(grads) == sorted(ref_grads) == sorted(mask.trainable)
        assert all(np.array_equal(grads[n], ref_grads[n]) for n in grads)


def _arrays(obj):
    """Every array in a nest of tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


class TestComputeDtype:
    """A float32 store runs forward and backward in float32; only the loss
    and the gradients it returns are float64."""

    def test_tape_is_in_the_store_dtype(self):
        cfg, store, batch = _c09_step_inputs(dropout=0.1, causal=True)
        _, _, tape = _blocks(
            _compute_store(store), cfg, batch.tokens, dropout_rng=seeded_rng(1), keep=True
        )
        dtypes = [a.dtype for a in _arrays(tape)]
        assert len(dtypes) > 20 and set(dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("pca_m", [None, 4], ids=["softmax-None", "pca-4"])
    def test_forward_trace_is_in_the_store_dtype(self, pca_m):
        cfg = tiny_backbone()
        store = init_random(cfg, seeded_rng(2))
        out, trace = forward(store, cfg, seeded_rng(3).normal((4, 6, cfg.patch_len)), pca_m)
        assert [a.dtype for a in (out, *trace)] == [np.float32] * (cfg.n_layers + 2)

    def test_predict_is_in_the_store_dtype(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=5)
        store = init_random(cfg, seeded_rng(5))
        assert predict(store, cfg, seeded_rng(6).normal((7, 3, cfg.patch_len))).dtype == np.float32

    def test_every_gemm_operand_is_in_the_store_dtype(self, monkeypatch):
        """``out_scale`` and ``out_mean`` are float64; none of it may reach
        the GEMMs, which would run in mixed dtypes."""
        cfg, store, batch = _c09_step_inputs(dropout=0.1)
        rng = seeded_rng(62)
        batch.out_scale, batch.out_mean = rng.uniform(64, 0.5, 2.0), rng.normal(64)
        seen = []
        for name in ("_mm", "_wgrad"):
            real = getattr(backbone, name)

            def spy(*args, real=real, name=name):
                seen.append((name, [a.dtype for a in args if a is not None]))
                return real(*args)

            monkeypatch.setattr(backbone, name, spy)
        _, grads = loss_and_grads(store, cfg, batch, dropout_rng=seeded_rng(61))
        assert {name for name, _ in seen} == {"_mm", "_wgrad"}
        assert all(dt == np.float32 for _, dts in seen for dt in dts), seen
        assert sorted(grads) == sorted(store)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}


def _perturbed_f64_store(cfg, rng, scale):
    """A float64 store with every tensor, biases and gains too, moved off its
    initial value, so every term of the pass is exercised."""
    store = init_random(cfg, rng.child(1), dtype=np.float64)
    return {name: arr + rng.normal(arr.shape, scale=scale) for name, arr in store.items()}


def _ref_attention(x, p, prefix, cfg):
    """softmax(q k^T / sqrt(d_head)) v for each (sample, head) in turn, with
    ``softmax_rows``, then the output projection; causal masks key > query."""
    q, k, v = (x @ p[prefix + "attn.w" + s] + p[prefix + "attn.b" + s] for s in "qkv")
    b, n, d = x.shape
    dh = d // cfg.n_heads
    masked = np.triu(np.ones((n, n), dtype=bool), k=1) if cfg.causal else np.zeros((n, n), bool)
    ctx = np.empty_like(x)
    for i in range(b):
        for h in range(cfg.n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = q[i, :, cols] @ k[i, :, cols].T / math.sqrt(dh)
            ctx[i, :, cols] = softmax_rows(np.where(masked, -1e30, scores)) @ v[i, :, cols]
    return ctx @ p[prefix + "attn.wo"] + p[prefix + "attn.bo"]


class TestAttentionReference:
    """The fused-QKV, key-major attention against the textbook formula."""

    # config overrides, batch size, tokens: a tiny shape and the c09 one
    _SHAPES = {
        "tiny": (dict(d_model=16, n_heads=2), 3, 5),
        "c09": (dict(d_model=64, n_heads=4, d_ff=128, max_tokens=64, patch_len=16), 64, 11),
    }

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("shape", ["tiny", "c09"])
    def test_forward_sublayer_matches_the_per_head_loop(self, monkeypatch, shape, causal):
        over, b, n = self._SHAPES[shape]
        cfg = tiny_backbone(causal=causal, **over)
        rng = seeded_rng(70)
        store = _perturbed_f64_store(cfg, rng, 0.2)
        seen, real = [], backbone._attn_fwd

        def spy(x, p, prefix, cfg):
            out, cache = real(x, p, prefix, cfg)
            seen.append((x.copy(), prefix, out.copy()))  # the block adds into out
            return out, cache

        monkeypatch.setattr(backbone, "_attn_fwd", spy)
        forward(store, cfg, rng.normal((b, n, cfg.patch_len)))
        assert [prefix for _, prefix, _ in seen] == ["blocks.0.", "blocks.1."]
        for x, prefix, out in seen:
            np.testing.assert_allclose(out, _ref_attention(x, store, prefix, cfg), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("causal", [False, True])
    def test_fused_qkv_gradients_match_finite_differences(self, causal):
        cfg = tiny_backbone(
            n_layers=1, d_model=8, n_heads=2, d_ff=12, max_tokens=6,
            patch_len=4, head_in=3 * 8, head_out=5, causal=causal,
        )
        rng = seeded_rng(71)
        store = _perturbed_f64_store(cfg, rng, 0.3)
        batch = Batch(tokens=rng.normal((2, 3, 4)), targets=rng.normal((2, 5)))
        _, grads = loss_and_grads(store, cfg, batch)
        for name in (f"blocks.0.attn.{t}{s}" for t in "wb" for s in "qkv"):

            def loss(a, name=name):
                return loss_and_grads({**store, name: a}, cfg, batch, wanted=frozenset())[0]

            fd = finite_diff_grad(loss, store[name], 1e-5)
            np.testing.assert_allclose(grads[name], fd, rtol=1e-5, atol=1e-9, err_msg=name)


# One malformed field per row, on a pool head with head_out 3 and B=4.
_MALFORMED_BATCHES = {
    "labels -1": ({"labels": [0, 1, 2, -1]}, InvalidInput),
    "labels 0.7": ({"labels": [0, 1, 2, 0.7]}, InvalidInput),
    "labels == head_out": ({"labels": [0, 1, 2, 3]}, InvalidInput),
    "labels (B, 1)": ({"labels": [[0], [1], [2], [0]]}, ShapeError),
    "targets with 3 rows": ({"targets": np.zeros((3, 3))}, ShapeError),
    "targets with 5 columns": ({"targets": np.zeros((4, 5))}, ShapeError),
    "mask (B, 2)": ({"targets": np.zeros((4, 3)), "mask": np.ones((4, 2))}, ShapeError),
    "out_scale (B, 1)": ({"targets": np.zeros((4, 3)), "out_scale": np.ones((4, 1))}, ShapeError),
    "out_mean (B, 1)": ({"targets": np.zeros((4, 3)), "out_mean": np.zeros((4, 1))}, ShapeError),
}


@pytest.mark.parametrize(
    "fields, error", _MALFORMED_BATCHES.values(), ids=list(_MALFORMED_BATCHES)
)
def test_malformed_batch_fields_raise_typed_errors(fields, error):
    cfg = tiny_backbone(head_mode="pool", head_in=16, head_out=3)
    store = init_random(cfg, seeded_rng(80))
    fields = {name: np.asarray(a) for name, a in fields.items()}
    batch = Batch(tokens=seeded_rng(81).normal((4, 3, cfg.patch_len)), **fields)
    with pytest.raises(error):
        loss_and_grads(store, cfg, batch)


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
            _, store = _train_step(store, cfg, self._batch(cfg, seed=30 + step), state, mask)
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
        _, after = _train_step(store, cfg, self._batch(cfg), AdamState(lr=0.0), mask)
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
        frozen = set(store) - mask.trainable
        assert all(".attn." in n or ".mlp." in n for n in frozen)

    def test_dropout_deterministic_per_stream(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=5, dropout=0.2)
        store = init_random(cfg, seeded_rng(4))
        mask = FreezeMask.all_trainable(store)
        batch = self._batch(cfg)
        l1, s1 = _train_step(
            store, cfg, batch, AdamState(lr=1e-3), mask, dropout_rng=seeded_rng(9)
        )
        l2, s2 = _train_step(
            store, cfg, batch, AdamState(lr=1e-3), mask, dropout_rng=seeded_rng(9)
        )
        assert l1 == l2 and param_hash(s1) == param_hash(s2)
        l3, _ = _train_step(
            store, cfg, batch, AdamState(lr=1e-3), mask, dropout_rng=seeded_rng(10)
        )
        assert l3 != l1

    def test_training_and_inference_run_the_same_block(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=5)
        rng = seeded_rng(7)
        store = init_random(cfg, seeded_rng(6))
        for name, arr in store.items():  # nonzero biases so every addition is exercised
            store[name] = (arr + rng.normal(arr.shape, scale=0.1)).astype(arr.dtype)
        tokens = rng.normal((4, 3, cfg.patch_len))
        value, _ = loss_and_grads(store, cfg, Batch(tokens=tokens, targets=np.zeros((4, 5))))
        assert value == float(np.mean(predict(store, cfg, tokens).astype(np.float64) ** 2))

    def test_predict_shape(self):
        cfg = tiny_backbone(head_in=3 * 16, head_out=5)
        store = init_random(cfg, seeded_rng(5))
        out = predict(store, cfg, seeded_rng(6).normal((7, 3, cfg.patch_len)))
        assert out.shape == (7, 5)
