"""Transformer backbone with per-tensor freezing and exact gradients.

Pre-LayerNorm blocks (LN -> multi-head self-attention -> residual,
LN -> GELU feed-forward -> residual) with a final LayerNorm, a linear
patch-embedding in front and a linear task head behind.  The forward pass
records every layer's token outputs; the backward pass is hand-written
reverse mode and matches central finite differences to ~1e-4 relative in
float64, which the test suite checks tensor by tensor.

One pass (``_blocks``) runs embedding -> blocks -> final LayerNorm for
``forward``, ``predict`` and ``loss_and_grads`` alike, so the block that is
audited is the block that is trained.  It keeps the per-layer caches of the
backward pass only when gradients are wanted, and draws dropout masks only
from the stream ``loss_and_grads`` is given.

Attention can be swapped for a principal-component projection of the
layer's (token-centered) inputs, preserving all shapes, to probe what the
frozen attention blocks contribute; this path is forward-only.

Weight container format: a directory holding ``manifest.json`` and
``weights.bin``; the manifest lists {name, dtype:"f32", shape, offset}
per tensor, offsets index into the blob, little-endian IEEE-754 float32,
row-major, no padding.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    FormatError,
    InvalidInput,
    IoError,
    NumericalFailure,
    ShapeError,
)
from .numerics import layer_norm_last, softmax_last, sym_eig
from .rng import RandomStream

LN_EPS = 1e-5
INIT_STD = 0.02
_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
_NEG_INF = -1e30


@dataclass(frozen=True)
class BackboneConfig:
    """Model shape: depth, width, heads, feed-forward size and head wiring.

    ``patch_len`` is the input token length, ``head_in``/``head_out`` size
    the output layer, and ``head_mode`` selects whether the head reads the
    flattened token matrix ("flatten") or the mean-pooled tokens ("pool").
    """

    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    max_tokens: int
    patch_len: int
    head_in: int
    head_out: int
    head_mode: str = "flatten"
    dropout: float = 0.0
    causal: bool = False

    def __post_init__(self):
        if self.n_layers < 0:
            raise InvalidInput("n_layers must be >= 0")
        for nm in ("d_model", "n_heads", "d_ff", "max_tokens", "patch_len", "head_in", "head_out"):
            if getattr(self, nm) < 1:
                raise InvalidInput(f"{nm} must be positive")
        if self.d_model % self.n_heads != 0:
            raise InvalidInput("n_heads must divide d_model")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidInput("dropout must be in [0, 1)")
        if self.head_mode not in ("flatten", "pool"):
            raise InvalidInput("head_mode must be 'flatten' or 'pool'")
        if self.head_mode == "pool" and self.head_in != self.d_model:
            raise InvalidInput("pool head requires head_in == d_model")


class ParameterStore(dict):
    """Named tensors of the backbone."""


def expected_shapes(cfg: BackboneConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor names and shapes for a configuration."""
    d, f = cfg.d_model, cfg.d_ff
    shapes: dict[str, tuple[int, ...]] = {
        "input_embedding.w": (cfg.patch_len, d),
        "input_embedding.b": (d,),
        "pos_embedding": (cfg.max_tokens, d),
    }
    for i in range(cfg.n_layers):
        p = f"blocks.{i}."
        shapes[p + "ln1.gamma"] = (d,)
        shapes[p + "ln1.beta"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + f"attn.{w}"] = (d, d)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[p + f"attn.{b}"] = (d,)
        shapes[p + "ln2.gamma"] = (d,)
        shapes[p + "ln2.beta"] = (d,)
        shapes[p + "mlp.w1"] = (d, f)
        shapes[p + "mlp.b1"] = (f,)
        shapes[p + "mlp.w2"] = (f, d)
        shapes[p + "mlp.b2"] = (d,)
    shapes["ln_f.gamma"] = (d,)
    shapes["ln_f.beta"] = (d,)
    shapes["output_head.w"] = (cfg.head_in, cfg.head_out)
    shapes["output_head.b"] = (cfg.head_out,)
    return shapes


def validate_store(store: ParameterStore, cfg: BackboneConfig) -> None:
    want = expected_shapes(cfg)
    missing = sorted(set(want) - set(store))
    if missing:
        raise FormatError(f"missing tensors: {missing}")
    extra = sorted(set(store) - set(want))
    if extra:
        raise FormatError(f"unexpected tensors: {extra}")
    for name, shape in want.items():
        if tuple(store[name].shape) != shape:
            raise ShapeError(f"{name}: store has {tuple(store[name].shape)}, config wants {shape}")


def _is_frozen_name(name: str) -> bool:
    return ".attn." in name or ".mlp." in name


@dataclass(frozen=True)
class FreezeMask:
    """The set of tensor names the optimizer may update."""

    trainable: frozenset[str]

    @staticmethod
    def default_fpt(store: ParameterStore) -> "FreezeMask":
        """Embeddings, every layer norm and the head train; attention and
        feed-forward blocks stay frozen."""
        return FreezeMask(frozenset(n for n in store if not _is_frozen_name(n)))

    @staticmethod
    def all_trainable(store: ParameterStore) -> "FreezeMask":
        return FreezeMask(frozenset(store))

    def frozen_names(self, store: ParameterStore) -> frozenset[str]:
        return frozenset(store) - self.trainable


def init_random(
    cfg: BackboneConfig, rng: RandomStream, dtype=np.float32
) -> ParameterStore:
    """Fresh store: weights ~ N(0, 0.02^2), LN gamma 1 / beta 0, biases 0.

    Tensors are drawn in sorted-name order so a seed fully determines the
    store.
    """
    store = ParameterStore()
    for name, shape in sorted(expected_shapes(cfg).items()):
        if name.endswith(("gamma",)):
            arr = np.ones(shape, dtype=np.float64)
        elif name.endswith(("beta", ".b", "b1", "b2", "bq", "bk", "bv", "bo")):
            arr = np.zeros(shape, dtype=np.float64)
        else:
            arr = rng.normal(shape, scale=INIT_STD)
        store[name] = arr.astype(dtype)
    return store


def param_hash(store: ParameterStore) -> str:
    """SHA-256 over (name, raw bytes) in sorted order."""
    h = hashlib.sha256()
    for name in sorted(store):
        h.update(name.encode())
        h.update(store[name].tobytes())
    return h.hexdigest()


def save_weights(store: ParameterStore, path) -> None:
    """Write the weight container (directory with manifest.json, weights.bin)."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
        entries = []
        blob = bytearray()
        for name in sorted(store):
            arr = np.ascontiguousarray(store[name], dtype="<f4")
            entries.append(
                {
                    "name": name,
                    "dtype": "f32",
                    "shape": list(arr.shape),
                    "offset": len(blob),
                }
            )
            blob.extend(arr.tobytes())
        manifest = {"format_version": 1, "tensors": entries}
        with open(path / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        with open(path / "weights.bin", "wb") as fh:
            fh.write(bytes(blob))
    except OSError as exc:
        raise IoError(f"cannot write weight container at {path}: {exc}") from None


def load_weights(path, cfg: BackboneConfig) -> ParameterStore:
    """Bitwise load of an f32 weight container, validated against cfg."""
    path = Path(path)
    try:
        with open(path / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        blob = (path / "weights.bin").read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read weight container at {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"weight manifest is not valid JSON: {exc}") from None
    if manifest.get("format_version") != 1:
        raise FormatError(f"unsupported container version {manifest.get('format_version')!r}")
    want = expected_shapes(cfg)
    entries = {e["name"]: e for e in manifest.get("tensors", [])}
    for name in want:
        if name not in entries:
            raise FormatError(f"weight container is missing tensor {name!r}")
    for name in entries:
        if name not in want:
            raise FormatError(f"weight container has unexpected tensor {name!r}")
    store = ParameterStore()
    for name, entry in entries.items():
        if entry.get("dtype") != "f32":
            raise FormatError(f"{name}: unsupported dtype {entry.get('dtype')!r}")
        shape = tuple(entry["shape"])
        if shape != want[name]:
            raise ShapeError(f"{name}: file has {shape}, config wants {want[name]}")
        count = int(np.prod(shape)) if shape else 1
        start = int(entry["offset"])
        end = start + 4 * count
        if end > len(blob):
            raise FormatError(f"{name}: blob too short ({end} > {len(blob)})")
        arr = np.frombuffer(blob[start:end], dtype="<f4").reshape(shape)
        store[name] = np.ascontiguousarray(arr, dtype=np.float32)
    return store


def mix_weights(
    pretrained: ParameterStore,
    random_store: ParameterStore,
    ratio: float,
    rng: RandomStream,
    mode: str = "replace",
) -> ParameterStore:
    """Perturb the frozen-group tensors with entries from a random store.

    mode="replace": each frozen-group scalar is independently swapped for
    the random store's entry with probability ``ratio``.
    mode="interpolate": frozen-group tensors become
    (1-ratio)*pretrained + ratio*random.
    Trainable-group tensors always come from ``pretrained`` unchanged.
    """
    if not 0.0 <= ratio <= 1.0:
        raise InvalidInput("ratio must be in [0, 1]")
    if mode not in ("replace", "interpolate"):
        raise InvalidInput("mode must be 'replace' or 'interpolate'")
    if set(pretrained) != set(random_store):
        raise ShapeError("stores hold different tensor names")
    out = ParameterStore()
    for name in sorted(pretrained):
        a, b = pretrained[name], random_store[name]
        if a.shape != b.shape:
            raise ShapeError(f"{name}: {a.shape} vs {b.shape}")
        if not _is_frozen_name(name):
            out[name] = a
            continue
        if mode == "replace":
            take = rng.uniform(a.shape) < ratio
            out[name] = np.where(take, b, a).astype(a.dtype)
        else:
            mixed = (1.0 - ratio) * a.astype(np.float64) + ratio * b.astype(np.float64)
            out[name] = mixed.astype(a.dtype)
    return out


# ---------------------------------------------------------------------------
# forward / backward


@dataclass
class Batch:
    """One training/eval batch.

    tokens: (B, n_tokens, patch_len).  For regression losses ``targets``
    is (B, head_out) and optional per-sample ``out_scale``/``out_mean``
    map the head output back to original units before the loss; ``mask``
    (1 = scored) restricts the loss to chosen output coordinates.  For
    cross-entropy, ``labels`` holds integer classes.
    """

    tokens: np.ndarray
    targets: np.ndarray | None = None
    labels: np.ndarray | None = None
    out_scale: np.ndarray | None = None
    out_mean: np.ndarray | None = None
    mask: np.ndarray | None = None


def _gelu(u):
    t = np.tanh(_GELU_K * (u + _GELU_C * u**3))
    return 0.5 * u * (1.0 + t), t


def _gelu_bwd(dg, u, t):
    dt = _GELU_K * (1.0 + 3.0 * _GELU_C * u * u) * (1.0 - t * t)
    return dg * (0.5 * (1.0 + t) + 0.5 * u * dt)


def _ln_bwd(dy, cache):
    xhat, inv, gamma = cache
    axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dbeta


def _split_heads(x, n_heads):
    b, n, d = x.shape
    return x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


def _attn_fwd(x, p, prefix, cfg):
    wq, wk, wv, wo = (p[prefix + "attn.w" + s] for s in "qkvo")
    bq, bk, bv, bo = (p[prefix + "attn.b" + s] for s in "qkvo")
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    qh, kh, vh = (_split_heads(a, cfg.n_heads) for a in (q, k, v))
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
    z = (qh @ kh.swapaxes(-1, -2)) * scale
    if cfg.causal:
        n = z.shape[-1]
        z = z + np.triu(np.full((n, n), _NEG_INF), k=1)
    probs = softmax_last(z)
    ctx = _merge_heads(probs @ vh)
    out = ctx @ wo + bo
    cache = (x, qh, kh, vh, probs, ctx, scale)
    return out, cache


def _attn_bwd(dout, cache, p, prefix, cfg, grads, wanted):
    x, qh, kh, vh, probs, ctx, scale = cache
    wq, wk, wv, wo = (p[prefix + "attn.w" + s] for s in "qkvo")
    _accum(grads, wanted, prefix + "attn.wo", lambda: np.einsum("bnd,bne->de", ctx, dout))
    _accum(grads, wanted, prefix + "attn.bo", lambda: dout.sum(axis=(0, 1)))
    dctx = _split_heads(dout @ wo.T, cfg.n_heads)
    dprobs = dctx @ vh.swapaxes(-1, -2)
    dvh = probs.swapaxes(-1, -2) @ dctx
    dz = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dqh = (dz @ kh) * scale
    dkh = (dz.swapaxes(-1, -2) @ qh) * scale
    dq, dk, dv = (_merge_heads(a) for a in (dqh, dkh, dvh))
    for nm, dmat in (("q", dq), ("k", dk), ("v", dv)):
        _accum(grads, wanted, prefix + "attn.w" + nm, lambda dm=dmat: np.einsum("bnd,bne->de", x, dm))
        _accum(grads, wanted, prefix + "attn.b" + nm, lambda dm=dmat: dm.sum(axis=(0, 1)))
    return dq @ wq.T + dk @ wk.T + dv @ wv.T


def _accum(grads, wanted, name, fn):
    if wanted is None or name in wanted:
        grads[name] = grads.get(name, 0.0) + fn()


def _pca_attention_out(x, m):
    """Project token-centered inputs onto their top-m principal components."""
    d = x.shape[-1]
    if not 1 <= m <= d:
        raise InvalidInput(f"pca rank m={m} must be in [1, {d}]")
    xc = x - x.mean(axis=1, keepdims=True)
    vecs = sym_eig(xc.swapaxes(-1, -2) @ xc).eigenvectors[..., :m]
    return xc @ vecs @ vecs.swapaxes(-1, -2)


def _f64(store: ParameterStore) -> ParameterStore:
    """The store in float64; tensors already in float64 are not copied."""
    return ParameterStore({k: v.astype(np.float64, copy=False) for k, v in store.items()})


def _block(h, p, prefix, cfg, pca_m, dropout, keep):
    """One pre-LN block; returns (h, cache), cache None unless ``keep``."""
    a1, ln1_cache = layer_norm_last(h, p[prefix + "ln1.gamma"], p[prefix + "ln1.beta"], LN_EPS)
    if pca_m is None:
        attn_out, attn_cache = _attn_fwd(a1, p, prefix, cfg)
    else:
        attn_out, attn_cache = _pca_attention_out(a1, pca_m), None
    attn_out, attn_mask = dropout(attn_out)
    h = h + attn_out
    if not keep:  # free the attention buffers before the MLP; bounds eval-chunk peak memory
        ln1_cache = attn_cache = None
    a2, ln2_cache = layer_norm_last(h, p[prefix + "ln2.gamma"], p[prefix + "ln2.beta"], LN_EPS)
    u = a2 @ p[prefix + "mlp.w1"] + p[prefix + "mlp.b1"]
    g, tanh_cache = _gelu(u)
    mlp_out, mlp_mask = dropout(g @ p[prefix + "mlp.w2"] + p[prefix + "mlp.b2"])
    h = h + mlp_out
    if not keep:
        return h, None
    return h, (ln1_cache, attn_cache, attn_mask, ln2_cache, a2, u, g, tanh_cache, mlp_mask)


def _blocks(p, cfg: BackboneConfig, tokens, pca_m=None, dropout_rng=None, keep=False):
    """Embedding -> blocks -> final LayerNorm on the float64 store ``p``.

    Tokens are (B, n, patch_len) or one (n, patch_len) sample.  Returns
    (y, trace, tape): the final-LN output (B, n, d_model), every layer's
    token outputs starting with the embedding, and -- only when ``keep`` --
    the (tokens, embedding dropout mask, block caches, final-LN cache) tape
    of the backward pass.  ``pca_m`` swaps attention for its rank-``pca_m``
    PCA projection; dropout fires only when ``dropout_rng`` is given.
    """
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or x.shape[-1] != cfg.patch_len:
        raise ShapeError(f"tokens must be (..., n, {cfg.patch_len}), got {x.shape}")
    n = x.shape[1]
    if n > cfg.max_tokens:
        raise InvalidInput(f"{n} tokens exceed max_tokens={cfg.max_tokens}")
    drop_p = cfg.dropout if dropout_rng is not None else 0.0

    def dropout(a):
        if drop_p == 0.0:
            return a, None
        mask = (dropout_rng.uniform(a.shape) >= drop_p).astype(np.float64) / (1.0 - drop_p)
        return a * mask, mask

    emb = x @ p["input_embedding.w"] + p["input_embedding.b"] + p["pos_embedding"][:n]
    h, emb_mask = dropout(emb)
    trace, caches = [h], []
    for i in range(cfg.n_layers):
        h, cache = _block(h, p, f"blocks.{i}.", cfg, pca_m, dropout, keep)
        trace.append(h)
        caches.append(cache)
    y, lnf_cache = layer_norm_last(h, p["ln_f.gamma"], p["ln_f.beta"], LN_EPS)
    return y, trace, (x, emb_mask, caches, lnf_cache) if keep else None


def forward(
    store: ParameterStore,
    cfg: BackboneConfig,
    tokens,
    mode: str = "softmax",
    pca_m: int | None = None,
):
    """Run the backbone; returns (head_input, trace).

    ``head_input`` is the final-LayerNorm output, shape (..., n_tokens,
    d_model); ``trace`` lists every layer's token outputs starting with the
    embedding output (n_layers + 1 entries).  mode="pca" replaces each
    attention sublayer's output with the rank-``pca_m`` principal-component
    projection of its (token-centered) inputs.
    """
    if mode not in ("softmax", "pca"):
        raise InvalidInput("mode must be 'softmax' or 'pca'")
    if mode == "pca" and pca_m is None:
        raise InvalidInput("mode='pca' needs pca_m")
    y, trace, _ = _blocks(_f64(store), cfg, tokens, pca_m=pca_m if mode == "pca" else None)
    if np.ndim(tokens) == 2:
        return y[0], [t[0] for t in trace]
    return y, trace


def _head_fwd(y, p, cfg):
    if cfg.head_mode == "flatten":
        b, n, d = y.shape
        flat = y.reshape(b, n * d)
    else:
        flat = y.mean(axis=1)
    return flat @ p["output_head.w"] + p["output_head.b"], flat


def predict(store: ParameterStore, cfg: BackboneConfig, tokens) -> np.ndarray:
    """Forward plus the output head; returns (B, head_out)."""
    p = _f64(store)
    y, _ = forward(p, cfg, tokens)
    return _head_fwd(y[None] if y.ndim == 2 else y, p, cfg)[0]


def _loss_and_dout(out, batch: Batch, loss: str):
    if loss == "cross_entropy":
        if batch.labels is None:
            raise InvalidInput("cross_entropy needs integer labels")
        labels = np.asarray(batch.labels, dtype=np.int64)
        b = out.shape[0]
        probs = softmax_last(out)
        eps = 1e-300
        value = float(-np.mean(np.log(probs[np.arange(b), labels] + eps)))
        dout = probs.copy()
        dout[np.arange(b), labels] -= 1.0
        return value, dout / b
    if batch.targets is None:
        raise InvalidInput(f"loss {loss!r} needs targets")
    targets = np.asarray(batch.targets, dtype=np.float64)
    pred = out
    if batch.out_scale is not None:
        pred = pred * batch.out_scale[:, None]
    if batch.out_mean is not None:
        pred = pred + batch.out_mean[:, None]
    diff = pred - targets
    if loss == "mse":
        value = float(np.mean(diff * diff))
        dpred = 2.0 * diff / diff.size
    elif loss == "masked_mse":
        if batch.mask is None:
            raise InvalidInput("masked_mse needs a mask")
        mask = np.asarray(batch.mask, dtype=np.float64)
        total = mask.sum()
        if total < 1:
            raise InvalidInput("masked_mse needs at least one scored coordinate")
        value = float(np.sum(mask * diff * diff) / total)
        dpred = 2.0 * mask * diff / total
    else:
        raise InvalidInput(f"unknown loss {loss!r}")
    dout = dpred
    if batch.out_scale is not None:
        dout = dout * batch.out_scale[:, None]
    return value, dout


def loss_and_grads(
    store: ParameterStore,
    cfg: BackboneConfig,
    batch: Batch,
    loss: str,
    wanted: frozenset[str] | None = None,
    dropout_rng: RandomStream | None = None,
):
    """Forward, loss and reverse-mode gradients in float64.

    ``wanted`` restricts which parameter gradients are materialized (None
    computes every tensor's gradient).  Dropout fires only when a stream is
    supplied and cfg.dropout > 0, with masks drawn deterministically.
    """
    p = _f64(store)
    y, _, (x, emb_mask, caches, lnf_cache) = _blocks(
        p, cfg, batch.tokens, dropout_rng=dropout_rng, keep=True
    )
    out, flat = _head_fwd(y, p, cfg)

    value, dout = _loss_and_dout(out, batch, loss)
    if not np.isfinite(value):
        raise NumericalFailure(f"non-finite loss value {value!r} (loss={loss})")

    grads: dict[str, np.ndarray] = {}
    _accum(grads, wanted, "output_head.w", lambda: flat.T @ dout)
    _accum(grads, wanted, "output_head.b", lambda: dout.sum(axis=0))
    dflat = dout @ p["output_head.w"].T
    if cfg.head_mode == "flatten":
        dy = dflat.reshape(y.shape)
    else:
        dy = np.repeat(dflat[:, None, :], y.shape[1], axis=1) / y.shape[1]
    dh, dgamma, dbeta = _ln_bwd(dy, lnf_cache)
    _accum(grads, wanted, "ln_f.gamma", lambda: dgamma)
    _accum(grads, wanted, "ln_f.beta", lambda: dbeta)

    for i in reversed(range(cfg.n_layers)):
        prefix = f"blocks.{i}."
        ln1_cache, attn_cache, attn_mask, ln2_cache, a2, u, g, tanh_cache, mlp_mask = caches[i]
        dmlp_out = dh if mlp_mask is None else dh * mlp_mask
        _accum(grads, wanted, prefix + "mlp.w2", lambda: np.einsum("bnf,bnd->fd", g, dmlp_out))
        _accum(grads, wanted, prefix + "mlp.b2", lambda: dmlp_out.sum(axis=(0, 1)))
        dg = dmlp_out @ p[prefix + "mlp.w2"].T
        du = _gelu_bwd(dg, u, tanh_cache)
        _accum(grads, wanted, prefix + "mlp.w1", lambda: np.einsum("bnd,bnf->df", a2, du))
        _accum(grads, wanted, prefix + "mlp.b1", lambda: du.sum(axis=(0, 1)))
        da2 = du @ p[prefix + "mlp.w1"].T
        dh_ln2, dgamma, dbeta = _ln_bwd(da2, ln2_cache)
        _accum(grads, wanted, prefix + "ln2.gamma", lambda: dgamma)
        _accum(grads, wanted, prefix + "ln2.beta", lambda: dbeta)
        dh = dh + dh_ln2
        dattn_out = dh if attn_mask is None else dh * attn_mask
        da1 = _attn_bwd(dattn_out, attn_cache, p, prefix, cfg, grads, wanted)
        dh_ln1, dgamma, dbeta = _ln_bwd(da1, ln1_cache)
        _accum(grads, wanted, prefix + "ln1.gamma", lambda: dgamma)
        _accum(grads, wanted, prefix + "ln1.beta", lambda: dbeta)
        dh = dh + dh_ln1

    if emb_mask is not None:
        dh = dh * emb_mask
    _accum(grads, wanted, "input_embedding.w", lambda: np.einsum("bnp,bnd->pd", x, dh))
    _accum(grads, wanted, "input_embedding.b", lambda: dh.sum(axis=(0, 1)))

    def dpos():
        g_full = np.zeros_like(p["pos_embedding"])
        g_full[: x.shape[1]] = dh.sum(axis=0)
        return g_full

    _accum(grads, wanted, "pos_embedding", dpos)
    return value, grads


@dataclass
class AdamState:
    """Adam optimizer state (beta1=0.9, beta2=0.999, eps=1e-8)."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(
    store: ParameterStore,
    grads: dict[str, np.ndarray],
    state: AdamState,
    trainable: frozenset[str],
) -> ParameterStore:
    """One Adam update on the trainable set; frozen tensors are shared as-is."""
    state.t += 1
    t = state.t
    out = ParameterStore()
    for name, arr in store.items():
        if name not in trainable:
            out[name] = arr
            continue
        g = grads.get(name)
        g = np.zeros(arr.shape) if g is None else np.asarray(g, dtype=np.float64)
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros(arr.shape, dtype=np.float64)
            v = np.zeros(arr.shape, dtype=np.float64)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        mhat = m / (1.0 - state.beta1**t)
        vhat = v / (1.0 - state.beta2**t)
        updated = arr.astype(np.float64) - state.lr * mhat / (np.sqrt(vhat) + state.eps)
        out[name] = updated.astype(arr.dtype)
    return out


def backward_and_step(
    store: ParameterStore,
    cfg: BackboneConfig,
    batch: Batch,
    loss: str,
    state: AdamState,
    freeze: FreezeMask,
    dropout_rng: RandomStream | None = None,
) -> tuple[float, ParameterStore]:
    """Gradient step on the trainable tensors; frozen tensors pass through
    bit-identical."""
    value, grads = loss_and_grads(
        store, cfg, batch, loss, wanted=freeze.trainable, dropout_rng=dropout_rng
    )
    return value, adam_step(store, grads, state, freeze.trainable)


def gpt0_config(cfg: BackboneConfig) -> BackboneConfig:
    """The zero-block variant: embedding straight into the head."""
    return replace(cfg, n_layers=0)
