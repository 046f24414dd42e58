"""Transformer backbone with per-tensor freezing and exact gradients.

Pre-LayerNorm blocks (LN -> multi-head self-attention -> residual,
LN -> GELU feed-forward -> residual) with a final LayerNorm, a linear
patch-embedding in front and a linear task head behind.  The forward pass
records every layer's token outputs; the backward pass is hand-written
reverse mode and matches central finite differences to ~1e-4 relative in
float64, which the test suite checks tensor by tensor.

The pass computes in the store's own dtype (its common dtype when tensors
differ): tokens, dropout masks, every buffer of the backward tape and the
backward pass itself.  A float32 store, the default, moves half the bytes
of a float64 one; a float64 store computes in float64 throughout.  The loss
and its gradient on the head output are taken in float64, and that gradient
enters the backward pass scaled by a power of two (loss scaling), so
targets far outside float32's range still train; the weight gradients come
back unscaled in float64.

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInput, IoError, NumericalFailure, ShapeError
from .numerics import check_int, check_rank, is_number, layer_norm_last, softmax, sym_eig
from .preprocess import denormalize
from .rng import RandomStream

LN_EPS = 1e-5
_MAX_WEIGHTS = 2**24  # 64 MiB of float32: a lab model, refused before anything is allocated
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
        check_int(self.n_layers, "n_layers", 0)
        for nm in ("d_model", "n_heads", "d_ff", "max_tokens", "patch_len", "head_in", "head_out"):
            check_int(getattr(self, nm), nm, 1)
        if self.d_model % self.n_heads != 0:
            raise InvalidInput("n_heads must divide d_model")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidInput("dropout must be in [0, 1)")
        if self.head_mode not in ("flatten", "pool"):
            raise InvalidInput("head_mode must be 'flatten' or 'pool'")
        if self.head_mode == "pool" and self.head_in != self.d_model:
            raise InvalidInput("pool head requires head_in == d_model")
        d, f = int(self.d_model), int(self.d_ff)  # Python ints, which cannot wrap
        block = 4 * d * d + 2 * d * f + 9 * d + f  # expected_shapes' sizes, summed
        n = (int(self.patch_len) + int(self.max_tokens) + 3) * d + int(self.n_layers) * block
        if n + (int(self.head_in) + 1) * int(self.head_out) > _MAX_WEIGHTS:
            raise InvalidInput(f"the model holds more than {_MAX_WEIGHTS} weights")


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


def _check_store(store) -> None:
    """A weight store is a dict of string names to numeric arrays; anything
    else raises ``FormatError``."""
    if not isinstance(store, dict) or not all(isinstance(name, str) for name in store):
        raise FormatError("a weight store maps string names to tensors")
    for name, arr in store.items():
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "iuf"):
            raise FormatError(f"{name}: a tensor must be a numeric array, got {arr!r:.40}")


def validate_store(store: dict, cfg: BackboneConfig) -> None:
    _check_store(store)
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
    def default_fpt(store: dict) -> "FreezeMask":
        """Embeddings, every layer norm and the head train; attention and
        feed-forward blocks stay frozen."""
        return FreezeMask(frozenset(n for n in store if not _is_frozen_name(n)))

    @staticmethod
    def all_trainable(store: dict) -> "FreezeMask":
        return FreezeMask(frozenset(store))


def init_random(cfg: BackboneConfig, rng: RandomStream, dtype=np.float32) -> dict:
    """Fresh store: weights ~ N(0, 0.02^2), LN gamma 1 / beta 0, biases 0.

    Tensors are drawn in sorted-name order so a seed fully determines the
    store.
    """
    store = {}
    for name, shape in sorted(expected_shapes(cfg).items()):
        if name.endswith(("gamma",)):
            arr = np.ones(shape, dtype=np.float64)
        elif name.endswith(("beta", ".b", "b1", "b2", "bq", "bk", "bv", "bo")):
            arr = np.zeros(shape, dtype=np.float64)
        else:
            arr = rng.normal(shape, scale=INIT_STD)
        store[name] = arr.astype(dtype)
    return store


def param_hash(store: dict) -> str:
    """SHA-256 over (name, raw bytes) in sorted order."""
    _check_store(store)
    h = hashlib.sha256()
    for name in sorted(store):
        h.update(name.encode())
        h.update(store[name].tobytes())
    return h.hexdigest()


def save_weights(store: dict, path) -> None:
    """Write the weight container (directory with manifest.json, weights.bin);
    the store is checked first, so ``load_weights`` accepts every one written."""
    _check_store(store)
    entries, blob = [], bytearray()
    for name in sorted(store):
        arr = store[name]
        with np.errstate(over="ignore"):  # an overflow to inf is refused below
            arr = np.ascontiguousarray(arr, dtype="<f4")
        if not np.isfinite(arr).all():
            raise NumericalFailure(f"{name}: holds values that are not finite as float32")
        entries.append({"name": name, "dtype": "f32", "shape": list(arr.shape), "offset": len(blob)})
        blob.extend(arr.tobytes())
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
        with open(path / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump({"format_version": 1, "tensors": entries}, fh, indent=2)
        with open(path / "weights.bin", "wb") as fh:
            fh.write(bytes(blob))
    except OSError as exc:
        raise IoError(f"cannot write weight container at {path}: {exc}") from None


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def load_weights(path, cfg: BackboneConfig) -> dict:
    """Bitwise load of an f32 weight container, validated against cfg.

    Malformed manifests raise ``FormatError`` (or ``ShapeError`` for a shape
    that disagrees with cfg), as do tensors whose byte ranges overlap and a
    blob holding bytes no tensor covers; non-finite tensor values raise
    ``NumericalFailure``.
    """
    path = Path(path)
    try:
        with open(path / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        blob = (path / "weights.bin").read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read weight container at {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"weight manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"weight manifest must be a JSON object, got {type(manifest).__name__}")
    if manifest.get("format_version") != 1:
        raise FormatError(f"unsupported container version {manifest.get('format_version')!r}")
    want = expected_shapes(cfg)
    tensors = manifest.get("tensors", [])
    if not isinstance(tensors, list) or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str) for e in tensors
    ):
        raise FormatError("weight manifest 'tensors' must be a list of objects with a string name")
    entries = {e["name"]: e for e in tensors}
    for name in want:
        if name not in entries:
            raise FormatError(f"weight container is missing tensor {name!r}")
    for name in entries:
        if name not in want:
            raise FormatError(f"weight container has unexpected tensor {name!r}")
    spans = {}
    for name, entry in entries.items():
        if entry.get("dtype") != "f32":
            raise FormatError(f"{name}: unsupported dtype {entry.get('dtype')!r}")
        shape, start = entry.get("shape"), entry.get("offset")
        if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
            raise FormatError(f"{name}: shape must be a list of non-negative ints, got {shape!r}")
        if not _is_count(start):
            raise FormatError(f"{name}: offset must be a non-negative integer, got {start!r}")
        shape = tuple(shape)
        if shape != want[name]:
            raise ShapeError(f"{name}: file has {shape}, config wants {want[name]}")
        count = int(np.prod(shape)) if shape else 1
        end = start + 4 * count
        if end > len(blob):
            raise FormatError(f"{name}: blob too short ({end} > {len(blob)})")
        spans[name] = (start, end, shape)
    ranges = sorted((start, end, name) for name, (start, end, _) in spans.items())
    for (_, prev_end, prev), (start, _, name) in zip(ranges, ranges[1:]):
        if start < prev_end:
            raise FormatError(f"{name}: offset {start} overlaps tensor {prev!r}")
    covered = sum(end - start for start, end, _ in ranges)
    if covered != len(blob):
        raise FormatError(f"weights.bin holds {len(blob)} bytes but its tensors cover {covered}")
    # values are read only once the layout holds, so a misplaced tensor is
    # reported as a format error rather than as the garbage it would decode to
    store = {}
    for name, (start, end, shape) in spans.items():
        arr = np.frombuffer(blob[start:end], dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise NumericalFailure(f"{name}: weight container holds non-finite values")
        store[name] = np.ascontiguousarray(arr, dtype=np.float32)
    return store


def mix_weights(
    pretrained: dict, random_store: dict, ratio: float, rng: RandomStream, mode: str
) -> dict:
    """Perturb the frozen-group tensors with entries from a random store.

    mode="replace": each frozen-group scalar is independently swapped for
    the random store's entry with probability ``ratio``.
    mode="interpolate": frozen-group tensors become
    (1-ratio)*pretrained + ratio*random.
    Trainable-group tensors always come from ``pretrained`` unchanged.
    """
    if not (is_number(ratio) and 0.0 <= ratio <= 1.0):
        raise InvalidInput("ratio must be in [0, 1]")
    if mode not in ("replace", "interpolate"):
        raise InvalidInput("mode must be 'replace' or 'interpolate'")
    if set(pretrained) != set(random_store):
        raise ShapeError("stores hold different tensor names")
    out = {}
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
    """Model-ready rows: the one record of a training, evaluation or
    minibatch split.

    tokens: (B, n_tokens, patch_len), always batched.  The fields choose
    the loss: cross-entropy when ``labels`` (integer classes) is set, else
    the MSE on ``targets`` (B, head_out), restricted to the coordinates
    ``mask`` scores (1 = scored) when it is set.  Optional per-sample
    ``out_scale``/``out_mean`` map the head output back to original units
    before a regression loss.  ``last`` is each row's last raw input value,
    the forecast of the repeat-last baselines; the loss never reads it.
    """

    tokens: np.ndarray
    targets: np.ndarray | None = None
    labels: np.ndarray | None = None
    out_scale: np.ndarray | None = None
    out_mean: np.ndarray | None = None
    mask: np.ndarray | None = None
    last: np.ndarray | None = None

    def rows(self, idx) -> "Batch":
        """The rows ``idx`` selects, in every field that is set."""
        return Batch(**{k: None if a is None else a[idx] for k, a in vars(self).items()})


# The step kernels below write into buffers they own, with the operands and
# order of the plain expression in their docstring, so the bits match it.
def _gelu(u):
    """``t = tanh(K * (u + C * (u * u * u)))``, ``0.5 * u * (1 + t)``."""
    s = u * u
    s *= u
    s *= _GELU_C
    s += u
    s *= _GELU_K
    t = np.tanh(s)
    g = u * 0.5
    g *= np.add(t, 1.0, out=s)
    return g, t


def _gelu_bwd(dg, u, t):
    """``dg * (0.5 * (1 + t) + 0.5 * u * (K * (1 + 3C * u * u) * (1 - t * t)))``."""
    dt = u * (3.0 * _GELU_C)
    dt *= u
    dt += 1.0
    dt *= _GELU_K
    s = t * t
    dt *= np.subtract(1.0, s, out=s)
    dt *= np.multiply(u, 0.5, out=s)
    dt += np.multiply(np.add(t, 1.0, out=s), 0.5, out=s)
    dt *= dg
    return dt


def _ln_bwd(dy, cache, grads, wanted, prefix):
    """``dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))`` with
    ``dxhat = dy * gamma``; the gradients of ``prefix + "gamma"`` and
    ``prefix + "beta"`` are set through ``_set_grad``.  It writes into no
    array it hands on."""
    xhat, inv, gamma = cache
    d = dy.shape[-1]
    _set_grad(grads, wanted, prefix + "gamma", _colsum, dy * xhat)
    _set_grad(grads, wanted, prefix + "beta", _colsum, dy)
    dx = dy * gamma
    m1 = np.add.reduce(dx, axis=-1, keepdims=True) / d  # np.mean's own steps
    m2 = np.add.reduce(dx * xhat, axis=-1, keepdims=True) / d
    dx -= m1
    dx -= xhat * m2
    dx *= inv
    return dx


def _mm(a, w, b=None):
    """``a @ w`` (``+ b``, added in place) for a (..., k) stack and a (k, e)
    weight as one (rows, k) GEMM.

    numpy runs a stacked ``@`` as one small GEMM per leading index; folding
    the leading axes into the row axis hands BLAS a single large product.
    """
    out = (a.reshape(-1, a.shape[-1]) @ w).reshape(*a.shape[:-1], w.shape[-1])
    if b is not None:
        out += b
    return out


def _wgrad(a, b):
    """Weight gradient ``einsum("...d,...e->de", a, b)`` as one GEMM over the
    flattened rows."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _colsum(a):
    """Column sum over every row of a (..., e) stack as one GEMV,
    ``ones @ rows``: a bias, gamma or beta gradient.  Row sums stay numpy
    reductions, so a row's result never depends on the rows beside it."""
    rows = a.reshape(-1, a.shape[-1])
    return np.ones(len(rows), rows.dtype) @ rows


def _heads(a, cfg):
    """The (k, B, n_heads, n, d_head) view of a (B, n, k * d_model) array:
    its k head-split tensors, read or written in place without a copy."""
    b, n, e = a.shape
    dh = cfg.d_model // cfg.n_heads
    return a.reshape(b, n, e // cfg.d_model, cfg.n_heads, dh).transpose(2, 0, 3, 1, 4)


def _attn_fwd(x, p, prefix, cfg):
    """Attention from one fused QKV GEMM.  The scores are key-major,
    ``zk[key, b, head, query]``, so the softmax reduces over whole slabs."""
    wqkv = np.concatenate([p[prefix + "attn.w" + s] for s in "qkv"], axis=1)
    qkv = _mm(x, wqkv, np.concatenate([p[prefix + "attn.b" + s] for s in "qkv"]))
    qh, kh, vh = _heads(qkv, cfg)
    b, n, d = x.shape
    zk = np.empty((n, b, cfg.n_heads, n), x.dtype)
    np.matmul(kh, qh.swapaxes(-1, -2), out=zk.transpose(1, 2, 0, 3))
    scale = 1.0 / math.sqrt(d // cfg.n_heads)
    zk *= scale
    if cfg.causal:  # key > query is masked
        zk += np.tril(np.full((n, n), _NEG_INF, dtype=zk.dtype), k=-1)[:, None, None, :]
    probs = softmax(zk, 0)
    ctx = np.empty_like(x)
    np.matmul(probs.transpose(1, 2, 3, 0), vh, out=_heads(ctx, cfg)[0])
    out = _mm(ctx, p[prefix + "attn.wo"], p[prefix + "attn.bo"])
    return out, (x, qkv, wqkv, probs, ctx, scale)


def _attn_bwd(dout, cache, p, prefix, cfg, grads, wanted):
    x, qkv, wqkv, probs, ctx, scale = cache
    _set_grad(grads, wanted, prefix + "attn.wo", _wgrad, ctx, dout)
    _set_grad(grads, wanted, prefix + "attn.bo", _colsum, dout)
    del ctx
    dctx = _heads(_mm(dout, p[prefix + "attn.wo"].T), cfg)[0]
    qh, kh, vh = _heads(qkv, cfg)
    dqkv = np.empty_like(qkv)
    dqh, dkh, dvh = _heads(dqkv, cfg)
    dprobs = np.empty_like(probs)
    np.matmul(vh, dctx.swapaxes(-1, -2), out=dprobs.transpose(1, 2, 0, 3))
    np.matmul(probs.transpose(1, 2, 0, 3), dctx, out=dvh)
    del dctx
    dprobs -= (dprobs * probs).sum(axis=0)
    dz = np.multiply(dprobs, probs, out=dprobs)  # probs * (dprobs - sum_keys(dprobs * probs))
    del probs
    dz *= scale
    np.matmul(dz.transpose(1, 2, 3, 0), kh, out=dqh)
    np.matmul(dz.transpose(1, 2, 0, 3), qh, out=dkh)
    del dprobs, dz, qkv, qh, kh, vh
    # one GEMM and one column sum for q, k and v together; none under the fpt freeze
    _set_grad(grads, wanted, tuple(prefix + "attn.w" + s for s in "qkv"), _wgrad, x, dqkv)
    _set_grad(grads, wanted, tuple(prefix + "attn.b" + s for s in "qkv"), _colsum, dqkv)
    return _mm(dqkv, wqkv.T)


def _set_grad(grads, wanted, names, fn, *operands):
    """Set the gradient ``names`` to ``fn(*operands)``, unless none of them
    is wanted (None wants every name).  ``names`` is one name or a tuple of
    names that split the last axis of the result evenly, as a fused product
    does.

    ``grads`` is a dict, set at once, or a sink that defers the product
    (``fpt.worker``): the ``_RowGrads`` of a two-process step, which copies
    this process's rows of the operands and runs ``fn`` over the whole
    batch's rows once both processes have, or the ``_Operands`` of
    ``_split_is_exact``.
    """
    names = (names,) if isinstance(names, str) else names
    if wanted is not None and wanted.isdisjoint(names):
        return
    if isinstance(grads, dict):
        _keep(grads, wanted, names, fn(*operands))
    else:
        grads.defer(names, fn, operands)


def _keep(grads, wanted, names, g):
    """Store the wanted parts of the gradient ``g`` of ``names`` (see ``_set_grad``)."""
    width = g.shape[-1] // len(names)
    for i, name in enumerate(names):
        if wanted is None or name in wanted:
            grads[name] = g[..., i * width : (i + 1) * width]


def _pca_attention_out(x, m):
    """Project token-centered inputs onto their top-m principal components.

    The eigensolver works in float64; its components are cast back to
    ``x.dtype``, so the projection stays in the dtype of the pass.
    """
    check_rank(m, x.shape[-1])
    xc = x - x.mean(axis=1, keepdims=True)
    vecs = sym_eig(xc.swapaxes(-1, -2) @ xc).eigenvectors[..., :m].astype(x.dtype, copy=False)
    return xc @ vecs @ vecs.swapaxes(-1, -2)


def _compute_store(store: dict) -> dict:
    """The store in its common dtype, the dtype the pass computes in;
    tensors already in it are not copied."""
    dtype = np.result_type(*store.values())
    return {k: v.astype(dtype, copy=False) for k, v in store.items()}


def _block(h, p, prefix, cfg, pca_m, dropout, keep):
    """One pre-LN block; returns (h, cache), cache None unless ``keep``."""
    a1, ln1_cache = layer_norm_last(h, p[prefix + "ln1.gamma"], p[prefix + "ln1.beta"], LN_EPS)
    if pca_m is None:
        attn_out, attn_cache = _attn_fwd(a1, p, prefix, cfg)
    else:
        attn_out, attn_cache = _pca_attention_out(a1, pca_m), None
    attn_out, attn_mask = dropout(attn_out)
    h = np.add(attn_out, h, out=attn_out)  # a new h; the trace keeps the old one
    if not keep:  # free the attention buffers before the MLP; bounds eval-chunk peak memory
        ln1_cache = attn_cache = None
    a2, ln2_cache = layer_norm_last(h, p[prefix + "ln2.gamma"], p[prefix + "ln2.beta"], LN_EPS)
    u = _mm(a2, p[prefix + "mlp.w1"], p[prefix + "mlp.b1"])
    if not keep:  # and each MLP buffer once read: the GELU's own buffers peak eval memory
        a2 = ln2_cache = None
    g, tanh_cache = _gelu(u)
    if not keep:
        u = tanh_cache = None
    mlp_out, mlp_mask = dropout(_mm(g, p[prefix + "mlp.w2"], p[prefix + "mlp.b2"]))
    h = np.add(mlp_out, h, out=mlp_out)
    if not keep:
        return h, None
    return h, (ln1_cache, attn_cache, attn_mask, ln2_cache, a2, u, g, tanh_cache, mlp_mask)


def _block_bwd(dh, cache, p, prefix, cfg, grads, wanted):
    """Backward of one ``_block`` from the gradient ``dh`` of its output;
    returns the gradient of its input.  It writes into no array it hands to
    ``_set_grad``, so a sink may keep them to the end of the pass (as the
    probe ``fpt.worker._split_is_exact`` does).

    ``cache`` is the block's tape, popped by the caller, so this frame holds
    the only reference to it and every buffer goes right after its last read.
    """
    ln1_cache, attn_cache, attn_mask, ln2_cache, a2, u, g, tanh_cache, mlp_mask = cache
    del cache
    dmlp_out = dh if mlp_mask is None else dh * mlp_mask
    _set_grad(grads, wanted, prefix + "mlp.w2", _wgrad, g, dmlp_out)
    del g, mlp_mask
    _set_grad(grads, wanted, prefix + "mlp.b2", _colsum, dmlp_out)
    dg = _mm(dmlp_out, p[prefix + "mlp.w2"].T)
    del dmlp_out
    du = _gelu_bwd(dg, u, tanh_cache)
    del u, tanh_cache, dg
    _set_grad(grads, wanted, prefix + "mlp.w1", _wgrad, a2, du)
    _set_grad(grads, wanted, prefix + "mlp.b1", _colsum, du)
    da2 = _mm(du, p[prefix + "mlp.w1"].T)
    del a2, du
    dh_ln2 = _ln_bwd(da2, ln2_cache, grads, wanted, prefix + "ln2.")
    del da2, ln2_cache
    dh = np.add(dh_ln2, dh, out=dh_ln2)  # dh itself may be an operand
    del dh_ln2
    dattn_out = dh if attn_mask is None else dh * attn_mask
    del attn_mask
    da1 = _attn_bwd(dattn_out, attn_cache, p, prefix, cfg, grads, wanted)
    del dattn_out, attn_cache
    dh_ln1 = _ln_bwd(da1, ln1_cache, grads, wanted, prefix + "ln1.")
    del da1, ln1_cache
    return np.add(dh_ln1, dh, out=dh_ln1)


def _blocks(p, cfg: BackboneConfig, tokens, pca_m=None, dropout_rng=None, keep=False):
    """Embedding -> blocks -> final LayerNorm on the store ``p``, which
    ``_compute_store`` has cast to one dtype; tokens, dropout masks and every
    buffer are in that dtype.

    Tokens are (B, n, patch_len).  Returns (y, trace, tape): the final-LN
    output (B, n, d_model), then either every layer's token outputs starting
    with the embedding (tape None) or, when ``keep``, the [tokens, embedding
    dropout mask, block caches, final-LN cache] tape of the backward pass
    (trace None), a list ``_backbone_bwd`` empties as it reads it.  ``pca_m`` swaps attention for its rank-``pca_m`` PCA
    projection; dropout fires only when ``dropout_rng`` is given.
    """
    x = np.asarray(tokens, dtype=p["input_embedding.w"].dtype)
    if x.ndim != 3 or x.shape[-1] != cfg.patch_len:
        raise ShapeError(f"tokens must be (B, n, {cfg.patch_len}), got {x.shape}")
    n = x.shape[1]
    if n > cfg.max_tokens:
        raise InvalidInput(f"{n} tokens exceed max_tokens={cfg.max_tokens}")
    drop_p = cfg.dropout if dropout_rng is not None else 0.0

    def dropout(a):
        if drop_p == 0.0:
            return a, None
        mask = (dropout_rng.uniform(a.shape) >= drop_p).astype(a.dtype) / (1.0 - drop_p)
        a *= mask  # every dropped array is a fresh buffer of this pass
        return a, mask

    emb = _mm(x, p["input_embedding.w"], p["input_embedding.b"])
    emb += p["pos_embedding"][:n]
    h, emb_mask = dropout(emb)
    trace, caches = (None, []) if keep else ([h], None)
    for i in range(cfg.n_layers):
        h, cache = _block(h, p, f"blocks.{i}.", cfg, pca_m, dropout, keep)
        if keep:
            caches.append(cache)
        else:
            trace.append(h)
    y, lnf_cache = layer_norm_last(h, p["ln_f.gamma"], p["ln_f.beta"], LN_EPS)
    return y, trace, [x, emb_mask, caches, lnf_cache] if keep else None


def forward(store: dict, cfg: BackboneConfig, tokens, pca_m: int | None = None):
    """Run the backbone; returns (head_input, trace).

    ``head_input`` is the final-LayerNorm output, shape (B, n_tokens,
    d_model); ``trace`` lists every layer's token outputs starting with the
    embedding output (n_layers + 1 entries).  A rank ``pca_m`` replaces each
    attention sublayer's output with the rank-``pca_m`` principal-component
    projection of its (token-centered) inputs; None keeps softmax attention.
    The outputs are in the store's dtype.
    """
    validate_store(store, cfg)
    y, trace, _ = _blocks(_compute_store(store), cfg, tokens, pca_m=pca_m)
    return y, trace


def _head_fwd(y, p, cfg):
    if cfg.head_mode == "flatten":
        b, n, d = y.shape
        if n * d != cfg.head_in:
            raise ShapeError(
                f"a flatten head reads head_in={cfg.head_in} values, got {n} tokens of {d}"
            )
        flat = y.reshape(b, n * d)
    else:
        flat = y.mean(axis=1)
    return _mm(flat, p["output_head.w"], p["output_head.b"]), flat


# Windows per ``forward`` call in ``predict``.  Each chunk runs the backbone
# as (chunk * n_tokens)-row GEMMs; larger chunks raise peak memory without
# running faster.
_EVAL_CHUNK = 128


def predict(store: dict, cfg: BackboneConfig, tokens) -> np.ndarray:
    """Forward plus the output head; returns (B, head_out) in the store's
    dtype.

    Runs ``_EVAL_CHUNK`` windows per forward pass, so peak memory does not
    grow with B.
    """
    validate_store(store, cfg)
    p = _compute_store(store)
    x = np.atleast_1d(tokens)
    chunks = range(0, max(len(x), 1), _EVAL_CHUNK)  # an empty batch still has a shape
    return np.concatenate(
        [_head_fwd(forward(p, cfg, x[lo : lo + _EVAL_CHUNK])[0], p, cfg)[0] for lo in chunks]
    )


def _loss_field_rows(head_out: int) -> dict[str, tuple[int, ...]]:
    """The row shape of each ``Batch`` field the loss reads, for a head of
    ``head_out`` outputs."""
    return {"targets": (head_out,), "mask": (head_out,), "labels": (), "out_scale": (), "out_mean": ()}


def _loss_and_dout(out, batch: Batch):
    """The loss value and its gradient ``dout`` with respect to the head
    output ``out``, both in float64 whatever the dtype of ``out``; the
    batch's fields choose the loss (see ``Batch``).  A field that disagrees
    with ``out`` in shape raises ``ShapeError``; labels that are not integers
    in [0, head_out) raise ``InvalidInput``."""
    out = np.asarray(out, dtype=np.float64)
    b, e = out.shape
    for name, row in _loss_field_rows(e).items():
        got, shape = getattr(batch, name), (b, *row)
        if got is not None and np.shape(got) != shape:
            raise ShapeError(f"batch {name} must be {shape} to match the head, got {np.shape(got)}")
    if batch.labels is not None:
        labels = np.asarray(batch.labels)
        if labels.dtype.kind not in "iu" or not np.all((labels >= 0) & (labels < e)):
            raise InvalidInput(f"labels must be integers in [0, {e})")
        probs = softmax(out, -1)
        eps = 1e-300
        value = float(-np.mean(np.log(probs[np.arange(b), labels] + eps)))
        dout = probs.copy()
        dout[np.arange(b), labels] -= 1.0
        return value, dout / b
    if batch.targets is None:
        raise InvalidInput("the loss needs targets or labels")
    targets = np.asarray(batch.targets, dtype=np.float64)
    diff = denormalize(out, batch.out_scale, batch.out_mean) - targets
    if batch.mask is None:
        value = float(np.mean(diff * diff))
        dpred = 2.0 * diff / diff.size
    else:
        mask = np.asarray(batch.mask, dtype=np.float64)
        total = mask.sum()
        if total < 1:
            raise InvalidInput("a masked loss needs at least one scored coordinate")
        value = float(np.sum(mask * diff * diff) / total)
        dpred = 2.0 * mask * diff / total
    return value, denormalize(dpred, batch.out_scale, None)  # d pred / d out is the scale


def _scaled_dout(out, batch: Batch):
    """(value, dout, k): the float64 loss of ``_loss_and_dout`` and its
    ``dout`` times 2**-k in the dtype of ``out``, with k from ``np.frexp``
    so that max|dout| lands in [0.5, 1).

    The backward pass is linear in ``dout``, so scaling the weight gradients
    by 2**k undoes this exactly unless a value underflows; a float32 pass
    then trains on losses whose gradient overflows float32.
    """
    value, dout = _loss_and_dout(out, batch)
    if not np.isfinite(value):
        raise NumericalFailure(f"non-finite loss value {value!r}")
    k = int(np.frexp(np.abs(dout).max(initial=0.0))[1])
    return value, np.ldexp(dout, -k).astype(out.dtype, copy=False), k


# The worker process of the two-process fit in progress, which
# ``fpt.worker.fit_on_two_cores`` sets for the fit; None otherwise.
_WORKER = None


def loss_and_grads(
    store: dict,
    cfg: BackboneConfig,
    batch: Batch,
    wanted: frozenset[str] | None = None,
    dropout_rng: RandomStream | None = None,
):
    """Forward, loss and reverse-mode gradients; returns (value, grads).

    The forward and backward passes run in the store's dtype and the loss in
    float64 (``_scaled_dout``); the gradients are float64.  ``wanted``
    restricts which parameter gradients are materialized (None computes
    every tensor's gradient).  Dropout fires only when a stream is
    supplied and cfg.dropout > 0, with masks drawn deterministically.  The
    backward pass frees the tape as it reads it: each block's cache is
    popped as that block's backward starts and every buffer is dropped after
    its last read, so live memory falls through the pass instead of rising.

    Inside ``fpt.worker.fit_on_two_cores`` a step of the fit's config and
    trainable set hands over to its worker (``_Worker.step``), which runs the
    rows [ceil(B/2), B) to the final LayerNorm and back in a second process.
    Each weight gradient is still one GEMM or sum over all B rows, so every
    bit of the result is the one this pass computes alone.
    """
    validate_store(store, cfg)
    p = _compute_store(store)
    if _WORKER is not None and _WORKER.fits(p, cfg, batch, wanted):
        return _WORKER.step(p, batch, dropout_rng)
    y, _, tape = _blocks(p, cfg, batch.tokens, dropout_rng=dropout_rng, keep=True)
    value, head, dy, k = _head_and_loss(y, p, cfg, batch, wanted)
    del y
    grads: dict[str, np.ndarray] = {}
    _backbone_bwd(dy, tape, p, cfg, grads, wanted)
    return value, _unscaled({**head, **grads}, k)


def _head_and_loss(y, p, cfg: BackboneConfig, batch: Batch, wanted):
    """The head, the loss and their backward pass on the final LayerNorm's
    output ``y``; returns (value, the head's gradients, dy, k), where ``dy``
    is the gradient of ``y`` and both are scaled by 2**-k (``_scaled_dout``)."""
    out, flat = _head_fwd(y, p, cfg)
    value, dout, k = _scaled_dout(out, batch)
    del out
    head: dict[str, np.ndarray] = {}
    _set_grad(head, wanted, "output_head.w", _wgrad, flat, dout)
    _set_grad(head, wanted, "output_head.b", _colsum, dout)
    dflat = _mm(dout, p["output_head.w"].T)
    del dout, flat
    if cfg.head_mode == "flatten":
        return value, head, dflat.reshape(y.shape), k
    return value, head, np.repeat(dflat[:, None, :], y.shape[1], axis=1) / y.shape[1], k


def _unscaled(grads: dict, k: int) -> dict:
    """The gradients times 2**k, in float64 (see ``_scaled_dout``)."""
    return {n: np.ldexp(g, k, dtype=np.float64) for n, g in grads.items()}


def _backbone_bwd(dy, tape, p, cfg: BackboneConfig, grads, wanted) -> None:
    """The backward pass from ``dy``, the gradient of the final LayerNorm's
    output, down to the embedding, over the rows of the ``_blocks`` tape
    ``tape``, which it empties; sets every gradient below the head through
    ``_set_grad``."""
    x, emb_mask, caches, lnf_cache = tape
    tape.clear()
    dh = _ln_bwd(dy, lnf_cache, grads, wanted, "ln_f.")
    del dy, lnf_cache
    for i in reversed(range(cfg.n_layers)):
        dh = _block_bwd(dh, caches.pop(), p, f"blocks.{i}.", cfg, grads, wanted)
    if emb_mask is not None:
        dh = dh * emb_mask
    _set_grad(grads, wanted, "input_embedding.w", _wgrad, x, dh)
    _set_grad(grads, wanted, "input_embedding.b", _colsum, dh)
    table = p["pos_embedding"]

    def dpos(dh):
        g_full = np.zeros_like(table)
        g_full[: dh.shape[1]] = dh.sum(axis=0)
        return g_full

    _set_grad(grads, wanted, "pos_embedding", dpos, dh)


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam optimizer state; beta1, beta2 and eps are the ``_ADAM_*`` constants,
    and the learning rate ``lr`` is a finite number >= 0.

    ``m`` and ``v`` are float64 vectors over the trainable tensors, flattened
    and concatenated in store order; None before the first step.
    """

    lr: float
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        if not (is_number(self.lr) and self.lr >= 0):
            raise InvalidInput(f"lr must be a finite number >= 0, got {self.lr!r}")


def adam_step(
    store: dict,
    grads: dict[str, np.ndarray],
    state: AdamState,
    trainable: frozenset[str],
) -> dict:
    """One Adam update on the trainable set; frozen tensors are shared as-is.

    One pass over the trainable tensors, flattened in store order, runs
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and ``w - lr*mhat /
    (sqrt(vhat) + eps)`` element by element; a tensor missing from ``grads``
    has a zero gradient.  The new trainable tensors view one fresh buffer.
    Raises ``ShapeError`` when a gradient's size is not its tensor's, and
    ``NumericalFailure`` when ``v`` or a weight is left non-finite.
    """
    state.t += 1
    names = [n for n in store if n in trainable]
    if not names:
        return dict(store)
    w = np.concatenate([store[n].ravel() for n in names], dtype=np.float64)
    g = [np.ravel(grads[n]) if n in grads else np.zeros(store[n].size) for n in names]
    wrong = [n for n, gn in zip(names, g) if gn.size != store[n].size]
    if wrong:
        raise ShapeError(f"gradients of the wrong size for {', '.join(wrong)}")
    g = np.concatenate(g, dtype=np.float64)
    if state.m is None:
        state.m, state.v = np.zeros_like(w), np.zeros_like(w)
    tmp = g * (1.0 - _ADAM_BETA2)
    tmp *= g
    state.v *= _ADAM_BETA2
    state.v += tmp
    state.m *= _ADAM_BETA1
    state.m += np.multiply(g, 1.0 - _ADAM_BETA1, out=g)
    step = np.divide(state.m, 1.0 - _ADAM_BETA1**state.t, out=g)  # mhat
    step *= state.lr
    vhat = np.divide(state.v, 1.0 - _ADAM_BETA2**state.t, out=tmp)
    step /= np.add(np.sqrt(vhat, out=vhat), _ADAM_EPS, out=vhat)
    w -= step
    if not (np.isfinite(state.v).all() and np.isfinite(w).all()):
        # an overflowing g * g makes v infinite and the step 0: a silent stall
        raise NumericalFailure(f"Adam step {state.t} left non-finite moments or weights")
    kinds = {store[n].dtype for n in names}
    flat = w.astype(kinds.pop(), copy=False) if len(kinds) == 1 else w
    out, lo = dict(store), 0
    for n in names:
        a = store[n]
        out[n] = flat[lo : lo + a.size].reshape(a.shape).astype(a.dtype, copy=False)
        lo += a.size
    return out


def gpt0_config(cfg: BackboneConfig) -> BackboneConfig:
    """The zero-block variant: embedding straight into the head."""
    return replace(cfg, n_layers=0)
