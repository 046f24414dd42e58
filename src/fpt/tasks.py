"""End-to-end task runners: forecasting, imputation, classification,
anomaly detection, few-shot and zero-shot transfer, plus the ablation arms.

Every runner is a pure function of (dataset, configuration, seed): all
randomness flows from one seeded stream, channels of a multivariate series
are flattened into univariate samples sharing a single model, and reports
come back as MetricReport objects (JSON/CSV-serializable).
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .backbone import (
    AdamState,
    BackboneConfig,
    Batch,
    FreezeMask,
    ParameterStore,
    backward_and_step,
    gpt0_config,
    init_random,
    load_weights,
    param_hash,
    predict,
    validate_store,
)
from .data import (
    TimeSeriesDataset,
    WindowSpec,
    channel_split,
    few_shot_subset,
    make_windows,
    mask_with_count,
)
from .errors import InvalidInput, MissingWeights
from .metrics import MetricReport, mae, mape, mse, nd, prf1, smape
from .preprocess import PatchConfig, normalize_windows, patchify_windows
from .rng import RandomStream, seeded_rng
from .synthetic import donor_values

ABLATION_ARMS = ("fpt", "no_freeze", "no_pretrain", "no_pretrain_freeze", "gpt0")

_EVAL_CHUNK = 512


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3
    early_stop_patience: int = 3
    seed: int = 0
    ablation: str = "no_pretrain"

    def __post_init__(self):
        if self.early_stop_patience < 1:
            raise InvalidInput("patience must be >= 1")
        if self.ablation not in ABLATION_ARMS:
            raise InvalidInput(f"ablation must be one of {ABLATION_ARMS}")


@dataclass
class AblationSetup:
    store: ParameterStore
    mask: FreezeMask
    cfg: BackboneConfig


def make_ablation(
    arm: str, cfg: BackboneConfig, rng: RandomStream, weights=None
) -> AblationSetup:
    """Initial (store, freeze mask, effective config) for one ablation arm.

    fpt: provided weights, frozen attention/feed-forward.  no_freeze: same
    weights, everything trainable.  no_pretrain: random init, everything
    trainable.  no_pretrain_freeze: random init, frozen attention/FFN.
    gpt0: zero transformer blocks, embedding straight into the head.
    """
    if arm not in ABLATION_ARMS:
        raise InvalidInput(f"unknown ablation arm {arm!r}")
    if arm == "gpt0":
        cfg0 = gpt0_config(cfg)
        store = init_random(cfg0, rng)
        return AblationSetup(store, FreezeMask.default_fpt(store), cfg0)
    if arm in ("fpt", "no_freeze"):
        if weights is None:
            raise MissingWeights(f"ablation arm {arm!r} requires pretrained weights")
        store = weights if isinstance(weights, ParameterStore) else load_weights(weights, cfg)
        validate_store(store, cfg)
        if arm == "fpt":
            return AblationSetup(store, FreezeMask.default_fpt(store), cfg)
        return AblationSetup(store, FreezeMask.all_trainable(store), cfg)
    store = init_random(cfg, rng)
    if arm == "no_pretrain_freeze":
        return AblationSetup(store, FreezeMask.default_fpt(store), cfg)
    return AblationSetup(store, FreezeMask.all_trainable(store), cfg)


# ---------------------------------------------------------------------------
# sample preparation


@dataclass
class Samples:
    """Model-ready arrays for one split (all channels concatenated).

    Regression splits carry targets and revin statistics; classification
    splits carry only tokens and labels.
    """

    tokens: np.ndarray  # (B, n_patches, P)
    targets: np.ndarray | None = None  # (B, out) raw units
    scale: np.ndarray | None = None  # (B,) revin divisors
    mean: np.ndarray | None = None  # (B,) revin means
    last: np.ndarray | None = None  # (B,) last observed input value (naive baseline)
    mask: np.ndarray | None = None  # (B, out) 1 = scored coordinate
    labels: np.ndarray | None = None  # (B,) integer classes

    @property
    def count(self) -> int:
        return self.tokens.shape[0]

    def batch(self, idx) -> Batch:
        def take(a):
            return None if a is None else a[idx]

        return Batch(
            tokens=self.tokens[idx],
            targets=take(self.targets),
            labels=take(self.labels),
            out_scale=take(self.scale),
            out_mean=take(self.mean),
            mask=take(self.mask),
        )


def _forecast_samples(
    dataset: TimeSeriesDataset,
    wspec: WindowSpec,
    patch: PatchConfig,
    eps: float,
    split: str,
) -> Samples:
    tokens, targets, scales, means, lasts = [], [], [], [], []
    for ch in channel_split(dataset):
        inputs, outs = make_windows(ch, wspec, split)
        x = inputs[:, :, 0]
        y = outs[:, :, 0]
        norm, mu, sd = normalize_windows(x, eps)
        tokens.append(patchify_windows(norm, patch))
        targets.append(y)
        scales.append(sd)
        means.append(mu)
        lasts.append(x[:, -1])
    return Samples(
        tokens=np.concatenate(tokens),
        targets=np.concatenate(targets),
        scale=np.concatenate(scales),
        mean=np.concatenate(means),
        last=np.concatenate(lasts),
    )


def _reconstruction_samples(
    dataset: TimeSeriesDataset,
    lookback: int,
    stride: int,
    patch: PatchConfig,
    eps: float,
    split: str,
    mask_counts: int | None = None,
    mask_rng: RandomStream | None = None,
) -> Samples:
    """Windows whose target is the window itself; optionally masked inputs.

    With masking, normalization statistics come from the full window and the
    masked entries are zeroed after normalization; the loss mask scores
    exactly the masked coordinates.
    """
    wspec = WindowSpec(lookback=lookback, horizon=0, stride=stride)
    tokens, targets, scales, means, lasts, loss_masks = [], [], [], [], [], []
    for ci, ch in enumerate(channel_split(dataset)):
        inputs, _ = make_windows(ch, wspec, split)
        x = inputs[:, :, 0]
        norm, mu, sd = normalize_windows(x, eps)
        if mask_counts is not None:
            rng_ch = mask_rng.child(ci)
            observed = np.stack(
                [
                    mask_with_count((lookback, 1), mask_counts, rng_ch.child(wi))[:, 0]
                    for wi in range(x.shape[0])
                ]
            )
            norm = norm * observed
            loss_masks.append(1.0 - observed)
        tokens.append(patchify_windows(norm, patch))
        targets.append(x)
        scales.append(sd)
        means.append(mu)
        lasts.append(x[:, -1])
    return Samples(
        tokens=np.concatenate(tokens),
        targets=np.concatenate(targets),
        scale=np.concatenate(scales),
        mean=np.concatenate(means),
        last=np.concatenate(lasts),
        mask=np.concatenate(loss_masks) if loss_masks else None,
    )


def _derive_config(
    base: BackboneConfig,
    patch: PatchConfig,
    lookback: int,
    head_out: int,
    head_mode: str = "flatten",
) -> BackboneConfig:
    n_tokens = patch.n_patches(lookback)
    head_in = n_tokens * base.d_model if head_mode == "flatten" else base.d_model
    return replace(
        base,
        patch_len=patch.patch_len,
        max_tokens=max(base.max_tokens, n_tokens),
        head_in=head_in,
        head_out=head_out,
        head_mode=head_mode,
    )


# ---------------------------------------------------------------------------
# training loop


def _eval_loss(store, cfg, samples: Samples, loss: str) -> float:
    total, weight = 0.0, 0.0
    for lo in range(0, samples.count, _EVAL_CHUNK):
        idx = slice(lo, lo + _EVAL_CHUNK)
        b = samples.batch(idx)
        out = predict(store, cfg, b.tokens)
        if loss == "cross_entropy":
            z = out - out.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            total -= float(np.sum(logp[np.arange(out.shape[0]), b.labels]))
            weight += out.shape[0]
            continue
        pred = out * b.out_scale[:, None] + b.out_mean[:, None]
        diff = pred - b.targets
        if loss == "masked_mse":
            total += float(np.sum(b.mask * diff * diff))
            weight += float(b.mask.sum())
        else:
            total += float(np.sum(diff * diff))
            weight += diff.size
    return total / max(weight, 1.0)


def _fit(
    setup: AblationSetup,
    train: Samples,
    val: Samples | None,
    tcfg: TrainConfig,
    loss: str,
    rng: RandomStream,
    max_steps: int | None = None,
):
    """Minibatch Adam with early stopping on validation loss.

    Returns (best store, history); history holds the first epoch's per-step
    training losses and the per-epoch validation losses.
    """
    store, cfg = setup.store, setup.cfg
    opt = AdamState(lr=tcfg.learning_rate)
    best_store, best_val, strikes = store, math.inf, 0
    first_epoch_losses: list[float] = []
    val_history: list[float] = []
    steps = 0
    for epoch in range(tcfg.epochs):
        order = rng.child(epoch).permutation(train.count)
        for lo in range(0, train.count, tcfg.batch_size):
            idx = order[lo : lo + tcfg.batch_size]
            drop_rng = rng.child(1_000_000 + steps) if cfg.dropout > 0 else None
            value, store = backward_and_step(
                store, cfg, train.batch(idx), loss, opt, setup.mask, dropout_rng=drop_rng
            )
            if epoch == 0:
                first_epoch_losses.append(value)
            steps += 1
            if max_steps is not None and steps >= max_steps:
                return store, {"train_first_epoch": first_epoch_losses, "val": val_history}
        if val is not None and val.count > 0:
            vl = _eval_loss(store, cfg, val, loss)
            val_history.append(vl)
            if vl < best_val:
                best_val, best_store, strikes = vl, store, 0
            else:
                strikes += 1
                if strikes >= tcfg.early_stop_patience:
                    return best_store, {
                        "train_first_epoch": first_epoch_losses,
                        "val": val_history,
                    }
        else:
            best_store = store
    if val is not None and val.count > 0 and best_val < math.inf:
        store = best_store
    return store, {"train_first_epoch": first_epoch_losses, "val": val_history}


def _predict_denorm(store, cfg, samples: Samples) -> np.ndarray:
    preds = []
    for lo in range(0, samples.count, _EVAL_CHUNK):
        idx = slice(lo, lo + _EVAL_CHUNK)
        out = predict(store, cfg, samples.tokens[idx])
        preds.append(out * samples.scale[idx, None] + samples.mean[idx, None])
    return np.concatenate(preds)


def _config_hash(**parts) -> str:
    def norm(v):
        if hasattr(v, "__dataclass_fields__"):
            return asdict(v)
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        if isinstance(v, tuple):
            return list(v)
        return v

    payload = json.dumps({k: norm(v) for k, v in sorted(parts.items())}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _base_metadata(task, dataset, tcfg, **extra) -> dict:
    md = {
        "task": task,
        "dataset": dataset.name,
        "seed": tcfg.seed,
        "warnings": [],
    }
    md.update(extra)
    return md


# ---------------------------------------------------------------------------
# runners


def _train_forecast(dataset, wspec, base_cfg, tcfg, patch, weights, eps):
    cfg = _derive_config(base_cfg, patch, wspec.lookback, wspec.horizon)
    rng = seeded_rng(tcfg.seed)
    setup = make_ablation(tcfg.ablation, cfg, rng.child(1), weights)
    train = _forecast_samples(dataset, wspec, patch, eps, "train")
    val = _forecast_samples(dataset, wspec, patch, eps, "val")
    store, history = _fit(setup, train, val, tcfg, "mse", rng.child(2))
    return store, setup.cfg, history


def run_forecast(
    dataset: TimeSeriesDataset,
    wspec: WindowSpec,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    weights=None,
    revin_eps: float = 1e-5,
) -> tuple[MetricReport, ParameterStore]:
    """Train on the training split, early-stop on validation, report
    MSE/MAE on the test split (original units), plus a repeat-last
    baseline in the metadata."""
    if wspec.horizon < 1:
        raise InvalidInput("forecasting needs a positive horizon")
    store, cfg, history = _train_forecast(
        dataset, wspec, base_cfg, tcfg, patch, weights, revin_eps
    )
    test = _forecast_samples(dataset, wspec, patch, revin_eps, "test")
    preds = _predict_denorm(store, cfg, test)
    naive = np.repeat(test.last[:, None], wspec.horizon, axis=1)
    report = MetricReport(
        metadata=_base_metadata(
            "forecast",
            dataset,
            tcfg,
            config_hash=_config_hash(
                task="forecast", wspec=wspec, patch=patch, cfg=cfg, tcfg=tcfg, eps=revin_eps
            ),
            baseline={"MSE": mse(test.targets, naive), "MAE": mae(test.targets, naive)},
            history=history,
        )
    )
    report.add_row(f"O={wspec.horizon}", {"MSE": mse(test.targets, preds), "MAE": mae(test.targets, preds)})
    return report.finalize(), store


def run_few_shot(
    dataset: TimeSeriesDataset,
    percent: float,
    wspec: WindowSpec,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    weights=None,
    revin_eps: float = 1e-5,
    position: str = "suffix",
) -> tuple[MetricReport, ParameterStore]:
    """Forecasting with only percent of the training timesteps kept."""
    if not 0.0 < percent <= 1.0:
        raise InvalidInput("percent must be in (0, 1]")
    subset = few_shot_subset(dataset, percent, position)
    report, store = run_forecast(subset, wspec, base_cfg, tcfg, patch, weights, revin_eps)
    report.metadata["task"] = "fewshot"
    report.metadata["percent"] = percent
    return report, store


def run_zero_shot(
    source: TimeSeriesDataset,
    target: TimeSeriesDataset,
    wspec: WindowSpec,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    metric: str = "smape",
    weights=None,
    revin_eps: float = 1e-5,
    target_wspec: WindowSpec | None = None,
) -> tuple[MetricReport, ParameterStore]:
    """Train on the source dataset; evaluate the target test split with zero
    parameter updates.  The parameter hash is recorded before and after
    target evaluation and must not change."""
    metric_fns = {"smape": smape, "mape": mape, "nd": nd, "mse": mse, "mae": mae}
    if metric not in metric_fns:
        raise InvalidInput(f"metric must be one of {sorted(metric_fns)}")
    if target_wspec is not None and target_wspec != wspec:
        raise InvalidInput("source and target window specs must match")
    store, cfg, history = _train_forecast(
        source, wspec, base_cfg, tcfg, patch, weights, revin_eps
    )
    hash_before = param_hash(store)
    test = _forecast_samples(target, wspec, patch, revin_eps, "test")
    preds = _predict_denorm(store, cfg, test)
    hash_after = param_hash(store)
    naive = np.repeat(test.last[:, None], wspec.horizon, axis=1)
    values = {
        "MSE": mse(test.targets, preds),
        "MAE": mae(test.targets, preds),
        metric.upper(): metric_fns[metric](test.targets, preds),
    }
    report = MetricReport(
        metadata=_base_metadata(
            "zeroshot",
            target,
            tcfg,
            source=source.name,
            metric=metric,
            config_hash=_config_hash(
                task="zeroshot",
                source=source.name,
                wspec=wspec,
                patch=patch,
                cfg=cfg,
                tcfg=tcfg,
                eps=revin_eps,
            ),
            param_hash_before=hash_before,
            param_hash_after=hash_after,
            baseline={metric.upper(): metric_fns[metric](test.targets, naive)},
            history=history,
        )
    )
    report.add_row(f"O={wspec.horizon}", values)
    return report.finalize(), store


def run_imputation(
    dataset: TimeSeriesDataset,
    ratios,
    lookback: int,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    weights=None,
    revin_eps: float = 1e-5,
    stride: int | None = None,
) -> tuple[MetricReport, dict[float, ParameterStore]]:
    """Reconstruct randomly masked windows; one model per mask ratio.

    Masked entries are zeroed after per-window normalization; the loss and
    the reported MSE/MAE are computed on masked coordinates only.  At least
    one point per window is always masked.
    """
    ratios = tuple(float(r) for r in ratios)
    if not ratios or not all(0.0 < r < 1.0 for r in ratios):
        raise InvalidInput("mask ratios must lie in (0, 1)")
    stride = stride or max(1, lookback // 8)
    cfg = _derive_config(base_cfg, patch, lookback, head_out=lookback)
    report = MetricReport(
        metadata=_base_metadata(
            "imputation",
            dataset,
            tcfg,
            config_hash=_config_hash(
                task="imputation",
                ratios=ratios,
                lookback=lookback,
                stride=stride,
                patch=patch,
                cfg=cfg,
                tcfg=tcfg,
                eps=revin_eps,
            ),
            baseline={},
            history={},
        )
    )
    stores: dict[float, ParameterStore] = {}
    for ri, ratio in enumerate(ratios):
        rng = seeded_rng(tcfg.seed).child(100 + ri)
        n_masked = max(1, int(math.floor(ratio * lookback + 0.5)))
        parts = {}
        for si, split in enumerate(("train", "val", "test")):
            parts[split] = _reconstruction_samples(
                dataset,
                lookback,
                stride,
                patch,
                revin_eps,
                split,
                mask_counts=n_masked,
                mask_rng=rng.child(10 + si),
            )
        setup = make_ablation(tcfg.ablation, cfg, rng.child(1), weights)
        store, history = _fit(setup, parts["train"], parts["val"], tcfg, "masked_mse", rng.child(2))
        stores[ratio] = store
        test = parts["test"]
        preds = _predict_denorm(store, setup.cfg, test)
        scored = test.mask.astype(bool)
        err = preds[scored] - test.targets[scored]
        # mean-imputation baseline: predict the window mean at masked points
        base_err = np.repeat(test.mean[:, None], lookback, axis=1)[scored] - test.targets[scored]
        report.metadata["baseline"][f"ratio={ratio}"] = {"MSE": float(np.mean(base_err**2))}
        report.metadata["history"][f"ratio={ratio}"] = history
        report.add_row(
            f"ratio={ratio}",
            {"MSE": float(np.mean(err**2)), "MAE": float(np.mean(np.abs(err)))},
        )
    return report.finalize(), stores


def run_classification(
    dataset: TimeSeriesDataset,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    weights=None,
    revin_eps: float = 1e-5,
    n_classes: int | None = None,
) -> tuple[MetricReport, ParameterStore]:
    """Sequence-level classification: one sample series per channel,
    mean-pooled final tokens into a linear head, accuracy on test samples."""
    if dataset.labels is None or dataset.label_kind != "series":
        raise InvalidInput("classification needs one label per channel")
    labels = np.asarray(dataset.labels, dtype=np.int64)
    inferred = int(labels.max()) + 1
    n_classes = inferred if n_classes is None else n_classes
    if n_classes < 2 or len(np.unique(labels)) < 2:
        raise InvalidInput("classification needs at least two classes present")
    length = dataset.n_steps
    cfg = _derive_config(base_cfg, patch, length, head_out=n_classes, head_mode="pool")
    norm, _, _ = normalize_windows(dataset.values.T, revin_eps)  # (C, T) rows = samples
    tokens = patchify_windows(norm, patch)
    n = tokens.shape[0]
    n_train = int(math.floor(dataset.split.train * n))
    n_val = int(math.floor(dataset.split.val * n))
    cuts = (0, n_train, n_train + n_val, n)
    train, val, test = (
        Samples(tokens=tokens[lo:hi], labels=labels[lo:hi]) for lo, hi in zip(cuts, cuts[1:])
    )
    rng = seeded_rng(tcfg.seed)
    setup = make_ablation(tcfg.ablation, cfg, rng.child(1), weights)
    store, history = _fit(setup, train, val, tcfg, "cross_entropy", rng.child(2))
    cfg = setup.cfg
    out = predict(store, cfg, test.tokens)
    pred_classes = np.argmax(out, axis=1)
    accuracy = float(np.mean(pred_classes == test.labels))
    report = MetricReport(
        metadata=_base_metadata(
            "classification",
            dataset,
            tcfg,
            config_hash=_config_hash(
                task="classification", patch=patch, cfg=cfg, tcfg=tcfg, eps=revin_eps
            ),
            n_classes=n_classes,
            n_test=test.count,
            history=history,
        )
    )
    report.add_row("test", {"accuracy": accuracy})
    return report.finalize(), store


def _tile_starts(lo: int, hi: int, lookback: int) -> list[int]:
    """Window starts covering [lo, hi) with stride = lookback plus an
    end-aligned tail; later windows overwrite earlier ones on overlap."""
    starts = list(range(lo, hi - lookback + 1, lookback))
    if not starts or starts[-1] + lookback < hi:
        starts.append(hi - lookback)
    return starts


def _reconstruction_errors(
    store, cfg, dataset, lookback, patch: PatchConfig, eps, lo, hi
) -> np.ndarray:
    """Per-timestep squared reconstruction error over [lo, hi), averaged
    across channels.  Windows tile the region with stride = lookback plus an
    end-aligned tail; overlapping writes keep the later window's value."""
    if hi - lo < 1:
        raise InvalidInput("empty region for reconstruction errors")
    acc = np.zeros((hi - lo, dataset.n_channels))
    for ci in range(dataset.n_channels):
        series = dataset.values[:, ci]
        for start in _tile_starts(lo, hi, lookback):
            start = max(start, 0)
            window = series[start : start + lookback]
            norm, mu, sd = normalize_windows(window[None, :], eps)
            tok = patchify_windows(norm, patch)
            out = predict(store, cfg, tok)[0] * sd[0] + mu[0]
            err = (out - window) ** 2
            write_lo = max(start, lo)
            acc[write_lo - lo : start - lo + lookback, ci] = err[write_lo - start :]
    return acc.mean(axis=1)


def run_anomaly(
    dataset: TimeSeriesDataset,
    quantile: float,
    lookback: int,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    point_adjust: bool = False,
    weights=None,
    revin_eps: float = 1e-5,
    stride: int | None = None,
) -> tuple[MetricReport, ParameterStore]:
    """Self-supervised reconstruction; the detection threshold is the given
    quantile of per-point training errors, and test points whose error
    exceeds it are flagged."""
    if not 0.0 < quantile < 1.0:
        raise InvalidInput("quantile must be in (0, 1)")
    if dataset.labels is None or dataset.label_kind != "timestep":
        raise InvalidInput("anomaly detection needs one binary label per timestep")
    stride = stride or max(1, lookback // 8)
    cfg = _derive_config(base_cfg, patch, lookback, head_out=lookback)
    rng = seeded_rng(tcfg.seed)
    setup = make_ablation(tcfg.ablation, cfg, rng.child(1), weights)
    train = _reconstruction_samples(dataset, lookback, stride, patch, revin_eps, "train")
    val = _reconstruction_samples(dataset, lookback, stride, patch, revin_eps, "val")
    store, history = _fit(setup, train, val, tcfg, "mse", rng.child(2))

    bounds = dataset.split_bounds()
    train_err = _reconstruction_errors(
        store, setup.cfg, dataset, lookback, patch, revin_eps, *bounds.train
    )
    threshold = float(np.quantile(train_err, quantile))
    test_err = _reconstruction_errors(
        store, setup.cfg, dataset, lookback, patch, revin_eps, *bounds.test
    )
    flags = (test_err > threshold).astype(np.int64)
    truth = np.asarray(dataset.labels[bounds.test[0] : bounds.test[1]], dtype=np.int64)
    captured: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        precision, recall, f1 = prf1(flags, truth, point_adjust=point_adjust)
        captured = [str(w.message) for w in caught]
    report = MetricReport(
        metadata=_base_metadata(
            "anomaly",
            dataset,
            tcfg,
            config_hash=_config_hash(
                task="anomaly",
                quantile=quantile,
                lookback=lookback,
                stride=stride,
                patch=patch,
                cfg=cfg,
                tcfg=tcfg,
                eps=revin_eps,
                point_adjust=point_adjust,
            ),
            threshold=threshold,
            point_adjust=point_adjust,
            history=history,
        )
    )
    report.metadata["warnings"] = captured
    report.add_row(
        f"q={quantile}", {"precision": precision, "recall": recall, "F1": f1}
    )
    return report.finalize(), store


def run_ablation_suite(
    dataset: TimeSeriesDataset,
    wspec: WindowSpec,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    weights,
    arms=ABLATION_ARMS,
    revin_eps: float = 1e-5,
) -> MetricReport:
    """Run every ablation arm on one forecasting setup and tabulate MSE/MAE.

    Also records the maximum step-0 prediction divergence between the fpt
    and no_freeze arms, which share identical initial parameters.
    """
    cfg = _derive_config(base_cfg, patch, wspec.lookback, wspec.horizon)
    report = MetricReport(
        metadata=_base_metadata(
            "ablate",
            dataset,
            tcfg,
            config_hash=_config_hash(
                task="ablate", wspec=wspec, patch=patch, cfg=cfg, tcfg=tcfg, arms=tuple(arms)
            ),
        )
    )
    test = _forecast_samples(dataset, wspec, patch, revin_eps, "test")
    probe = test.tokens[: min(8, test.count)]
    step0: dict[str, np.ndarray] = {}
    for arm in arms:
        arm_tcfg = replace(tcfg, ablation=arm)
        arm_weights = weights if arm in ("fpt", "no_freeze") else None
        setup = make_ablation(arm, cfg, seeded_rng(arm_tcfg.seed).child(1), arm_weights)
        step0[arm] = predict(setup.store, setup.cfg, probe)
        arm_report, _ = run_forecast(dataset, wspec, base_cfg, arm_tcfg, patch, arm_weights, revin_eps)
        report.add_row(
            arm,
            {
                "MSE": arm_report.metric("MSE", f"O={wspec.horizon}"),
                "MAE": arm_report.metric("MAE", f"O={wspec.horizon}"),
            },
        )
    if "fpt" in step0 and "no_freeze" in step0:
        report.metadata["step0_divergence_fpt_vs_no_freeze"] = float(
            np.abs(step0["fpt"] - step0["no_freeze"]).max()
        )
    return report.finalize()


def synthetic_pretrain(
    base_cfg: BackboneConfig,
    wspec: WindowSpec,
    patch: PatchConfig,
    tcfg: TrainConfig,
    length: int = 4096,
    n_channels: int = 4,
    noise: float = 0.05,
) -> ParameterStore:
    """Train a donor backbone on a procedurally generated corpus so that the
    freeze/transfer arms have stand-in pretrained weights."""
    rng = seeded_rng(tcfg.seed).child(777)
    values = donor_values(length, n_channels, rng, noise=noise)
    donor = TimeSeriesDataset(name="synthetic-donor", values=values)
    donor_tcfg = replace(tcfg, ablation="no_pretrain")
    _, store = run_forecast(donor, wspec, base_cfg, donor_tcfg, patch)
    return store
