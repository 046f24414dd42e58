"""End-to-end task runners: forecasting, imputation, classification,
anomaly detection, few-shot and zero-shot transfer, plus the ablation arms
and the weight-mixing sweep.

Every runner is a pure function of (dataset, configuration, seed): all
randomness flows from one seeded stream, channels of a multivariate series
are flattened into univariate samples sharing a single model, and reports
come back as MetricReport objects (JSON/CSV-serializable).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analysis import batch_layer_similarity
from .backbone import (
    AdamState,
    BackboneConfig,
    Batch,
    FreezeMask,
    _loss_and_dout,
    adam_step,
    forward,
    gpt0_config,
    init_random,
    load_weights,
    loss_and_grads,
    mix_weights,
    param_hash,
    predict,
    validate_store,
)
from .data import (
    TimeSeriesDataset,
    WindowSpec,
    few_shot_subset,
    make_windows,
    mask_count,
    window_masks,
)
from .errors import InsufficientData, InvalidInput, MissingWeights, NumericalFailure
from .metrics import MetricReport, mae, mape, mse, nd, prf1, smape
from .numerics import check_int, is_number
from .preprocess import PatchConfig, denormalize, normalize_windows, patchify_windows
from .rng import RandomStream, seeded_rng
from .synthetic import donor_values
from .worker import fit_on_two_cores

ABLATION_ARMS = ("fpt", "no_freeze", "no_pretrain", "no_pretrain_freeze", "gpt0")
_PRETRAINED_ARMS = ("fpt", "no_freeze")  # the arms that start from supplied weights

@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    early_stop_patience: int
    seed: int
    ablation: str

    def __post_init__(self):
        check_int(self.epochs, "epochs", 0)
        check_int(self.batch_size, "batch_size", 1)
        if not (is_number(self.learning_rate) and self.learning_rate > 0):
            raise InvalidInput("learning_rate must be finite and > 0")
        check_int(self.early_stop_patience, "patience", 1)
        check_int(self.seed, "seed", 0)
        if self.ablation not in ABLATION_ARMS:
            raise InvalidInput(f"ablation must be one of {ABLATION_ARMS}")


def _pretrained(weights, cfg: BackboneConfig, arm: str) -> dict:
    """A store, or a weight container loaded from its path, checked against
    cfg; ``arm`` names the ablation arm that needs it."""
    if weights is None:
        raise MissingWeights(f"ablation arm {arm!r} requires pretrained weights")
    if isinstance(weights, dict):
        validate_store(weights, cfg)
        return weights
    return load_weights(weights, cfg)


@dataclass
class AblationSetup:
    store: dict
    mask: FreezeMask
    cfg: BackboneConfig


def make_ablation(arm: str, cfg: BackboneConfig, rng: RandomStream, weights) -> AblationSetup:
    """Initial (store, freeze mask, effective config) for one ablation arm.

    fpt: provided weights, frozen attention/feed-forward.  no_freeze: same
    weights, everything trainable.  no_pretrain: random init, everything
    trainable.  no_pretrain_freeze: random init, frozen attention/FFN.
    gpt0: zero transformer blocks, embedding straight into the head.
    """
    if arm not in ABLATION_ARMS:
        raise InvalidInput(f"unknown ablation arm {arm!r}")
    if arm == "gpt0":
        cfg = gpt0_config(cfg)
    if arm not in _PRETRAINED_ARMS:
        store = init_random(cfg, rng)
    else:
        store = _pretrained(weights, cfg, arm)
    full = arm in ("no_freeze", "no_pretrain")  # the arms that train every tensor
    mask = FreezeMask.all_trainable(store) if full else FreezeMask.default_fpt(store)
    return AblationSetup(store, mask, cfg)


# ---------------------------------------------------------------------------
# sample preparation


def _batch(windows, patch: PatchConfig, eps: float, observed=None, **fields) -> Batch:
    """Model rows of raw (N, L) windows: each window normalized by its own
    statistics, the entries where ``observed`` is 0 zeroed, then patched
    into tokens.  ``fields`` (targets, labels, mask, last) ride along."""
    norm, mu, sd = normalize_windows(windows, eps)
    if observed is not None:
        norm = norm * observed
    return Batch(tokens=patchify_windows(norm, patch), out_scale=sd, out_mean=mu, **fields)


def _samples(
    dataset: TimeSeriesDataset,
    wspec: WindowSpec,
    patch: PatchConfig,
    eps: float,
    split: str,
    mask_counts: int | None = None,
    mask_rng: RandomStream | None = None,
) -> Batch:
    """Every channel's windows of one split as univariate samples, all of
    channel 0's windows first, then channel 1's, and so on.

    Horizon 0 means reconstruction: the target is the window itself.  With
    masking, normalization statistics come from the full window and the
    masked entries are zeroed after normalization; the loss mask scores
    exactly the masked coordinates.
    """
    inputs, outs = make_windows(dataset, wspec, split)
    x = inputs.transpose(2, 0, 1).reshape(-1, wspec.lookback)
    targets = outs.transpose(2, 0, 1).reshape(-1, wspec.horizon) if wspec.horizon else x
    last = x[:, -1].copy()  # a view would keep every raw window alive
    if mask_counts is None:
        return _batch(x, patch, eps, targets=targets, last=last)
    observed = window_masks(
        dataset.n_channels, inputs.shape[0], wspec.lookback, mask_counts, mask_rng
    )
    return _batch(x, patch, eps, observed, targets=targets, last=last, mask=1.0 - observed)


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


def _outputs(store, cfg, tokens) -> np.ndarray:
    """Head outputs for every row; raises ``NumericalFailure`` when any is
    non-finite, so no score or report is built from it."""
    out = predict(store, cfg, tokens)
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise NumericalFailure(f"model output holds {bad} non-finite values")
    return out


def _eval_loss(store, cfg, split: Batch) -> float:
    """The training loss over the whole split, without gradients."""
    return _loss_and_dout(_outputs(store, cfg, split.tokens), split)[0]


def _predict_denorm(store, cfg, split: Batch) -> np.ndarray:
    return denormalize(_outputs(store, cfg, split.tokens), split.out_scale, split.out_mean)


def _fit(
    setup: AblationSetup,
    train: Batch,
    val: Batch | None,
    tcfg: TrainConfig,
    rng: RandomStream,
    max_steps: float = math.inf,
):
    """Minibatch Adam with early stopping on validation loss; the rows'
    fields choose the loss (see ``Batch``).

    Returns (store, history): the store with the best validation loss when
    validation ran, the last store otherwise.  History holds the first
    epoch's per-step training losses and the per-epoch validation losses.
    """
    store, cfg = setup.store, setup.cfg
    opt = AdamState(lr=tcfg.learning_rate)
    validate = val is not None and len(val.tokens) > 0
    best_store, best_val, strikes = store, math.inf, 0
    history: dict[str, list[float]] = {"train_first_epoch": [], "val": []}
    steps = 0
    # the most rows a step takes, for a worker on a second core; none for a fit with no step
    rows = min(tcfg.batch_size, len(train.tokens)) if tcfg.epochs > 0 and max_steps > 0 else 0
    with fit_on_two_cores(store, cfg, setup.mask.trainable, rows, train.tokens.shape[1]) as aside:
        for epoch in range(tcfg.epochs):
            order = rng.child(epoch).permutation(len(train.tokens))
            for lo in range(0, len(order), tcfg.batch_size):
                if steps >= max_steps:
                    break
                idx = order[lo : lo + tcfg.batch_size]
                drop_rng = rng.child(1_000_000 + steps) if cfg.dropout > 0 else None
                value, grads = loss_and_grads(
                    store, cfg, train.rows(idx), wanted=setup.mask.trainable, dropout_rng=drop_rng
                )
                store = adam_step(store, grads, opt, setup.mask.trainable)
                del grads  # one gradient set alive at a time: the next step's pass runs without it
                if epoch == 0:
                    history["train_first_epoch"].append(value)
                steps += 1
            if steps >= max_steps:
                break
            if validate:
                with aside():  # the arena is unmapped, then the pass's heap trimmed
                    vl = _eval_loss(store, cfg, val)
                history["val"].append(vl)
                if vl < best_val:
                    best_val, best_store, strikes = vl, store, 0
                else:
                    strikes += 1
                    if strikes >= tcfg.early_stop_patience:
                        break
    return (store if best_val == math.inf else best_store), history


def _report(task, dataset, tcfg, **extra) -> MetricReport:
    """A report with no rows yet, its metadata naming the run."""
    meta = {"task": task, "dataset": dataset.name, "seed": tcfg.seed, "warnings": [], **extra}
    return MetricReport(metadata=meta)


# ---------------------------------------------------------------------------
# runners


def _forecast_config(base_cfg, patch, wspec) -> BackboneConfig:
    """The backbone config of a forecasting run, whose horizon must be >= 1."""
    if wspec.horizon < 1:
        raise InvalidInput("forecasting needs a positive horizon")
    return _derive_config(base_cfg, patch, wspec.lookback, wspec.horizon)


def _train(cfg, tcfg, weights, train, val, rng):
    """Train ``tcfg.ablation``'s setup, drawn from ``rng.child(1)``, on the
    ``train`` rows, early-stopping on ``val``; the minibatch
    order and dropout come from ``rng.child(2)``.  Returns (trained store,
    initial setup, history); the setup's store is untouched by training."""
    setup = make_ablation(tcfg.ablation, cfg, rng.child(1), weights)
    store, history = _fit(setup, train, val, tcfg, rng.child(2))
    return store, setup, history


def _train_mse(dataset, wspec, cfg, tcfg, patch, weights, eps):
    """``_train`` with the MSE (forecast or reconstruction, as
    ``wspec.horizon`` says) on the dataset's training and validation splits."""
    train, val = (_samples(dataset, wspec, patch, eps, split) for split in ("train", "val"))
    return _train(cfg, tcfg, weights, train, val, seeded_rng(tcfg.seed))


_MSE_MAE = {"MSE": mse, "MAE": mae}


def _forecast_scores(store, cfg, test: Batch, fns: dict, baseline_fns: dict):
    """Test-split scores, in original units, of the model's forecasts under
    ``fns`` and of the repeat-last baseline under ``baseline_fns`` (each
    maps a metric name to its function)."""
    preds = _predict_denorm(store, cfg, test)
    naive = np.repeat(test.last[:, None], test.targets.shape[1], axis=1)
    return (
        {name: fn(test.targets, preds) for name, fn in fns.items()},
        {name: fn(test.targets, naive) for name, fn in baseline_fns.items()},
    )


def _reconstruction_setup(base_cfg, patch, lookback, stride):
    """Window spec and backbone config of a reconstruction run; a stride of
    None is an eighth of the lookback."""
    stride = max(1, lookback // 8) if stride is None else stride
    wspec = WindowSpec(lookback=lookback, horizon=0, stride=stride)
    return wspec, _derive_config(base_cfg, patch, lookback, head_out=lookback)


def run_forecast(
    dataset: TimeSeriesDataset,
    wspec: WindowSpec,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    weights,
    revin_eps: float,
) -> tuple[MetricReport, dict]:
    """Train on the training split, early-stop on validation, report
    MSE/MAE on the test split (original units), plus a repeat-last
    baseline in the metadata."""
    cfg = _forecast_config(base_cfg, patch, wspec)
    store, setup, history = _train_mse(dataset, wspec, cfg, tcfg, patch, weights, revin_eps)
    test = _samples(dataset, wspec, patch, revin_eps, "test")
    values, baseline = _forecast_scores(store, setup.cfg, test, _MSE_MAE, _MSE_MAE)
    report = _report("forecast", dataset, tcfg, baseline=baseline, history=history)
    report.add_row(f"O={wspec.horizon}", values)
    return report.finalize(), store


def run_few_shot(
    dataset: TimeSeriesDataset,
    percent: float,
    wspec: WindowSpec,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    weights,
    revin_eps: float,
    position: str,
) -> tuple[MetricReport, dict]:
    """Forecasting with only percent of the training timesteps kept."""
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
    metric: str,
    weights,
    revin_eps: float,
) -> tuple[MetricReport, dict]:
    """Train on the source dataset; evaluate the target test split with zero
    parameter updates.  The parameter hash is recorded before and after
    target evaluation and must not change."""
    metric_fns = {"smape": smape, "mape": mape, "nd": nd, "mse": mse, "mae": mae}
    if metric not in metric_fns:
        raise InvalidInput(f"metric must be one of {sorted(metric_fns)}")
    cfg = _forecast_config(base_cfg, patch, wspec)
    store, setup, history = _train_mse(source, wspec, cfg, tcfg, patch, weights, revin_eps)
    hash_before = param_hash(store)
    test = _samples(target, wspec, patch, revin_eps, "test")
    name = metric.upper()
    fns = {**_MSE_MAE, name: metric_fns[metric]}
    values, baseline = _forecast_scores(store, setup.cfg, test, fns, {name: fns[name]})
    hash_after = param_hash(store)
    report = _report("zeroshot", target, tcfg, source=source.name, metric=metric, history=history)
    report.metadata.update(
        param_hash_before=hash_before, param_hash_after=hash_after, baseline=baseline
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
    weights,
    revin_eps: float,
    stride: int | None,
) -> tuple[MetricReport, dict[float, dict]]:
    """Reconstruct randomly masked windows; one model per mask ratio.

    Masked entries are zeroed after per-window normalization; the loss and
    the reported MSE/MAE are computed on masked coordinates only.  At least
    one point per window is always masked.
    """
    ratios = tuple(ratios) if np.iterable(ratios) else ()
    if not ratios or not all(is_number(r) and 0.0 < r < 1.0 for r in ratios):
        raise InvalidInput("mask ratios must be numbers in (0, 1)")
    wspec, cfg = _reconstruction_setup(base_cfg, patch, lookback, stride)
    report = _report("imputation", dataset, tcfg, baseline={}, history={})
    stores: dict[float, dict] = {}
    for ri, ratio in enumerate(map(float, ratios)):
        rng = seeded_rng(tcfg.seed).child(100 + ri)
        n_masked = mask_count(ratio, lookback)
        train, val, test = (
            _samples(dataset, wspec, patch, revin_eps, split, n_masked, rng.child(10 + si))
            for si, split in enumerate(("train", "val", "test"))
        )
        store, setup, history = _train(cfg, tcfg, weights, train, val, rng)
        stores[ratio] = store
        scored = test.mask.astype(bool)
        truth = test.targets[scored]
        preds = _predict_denorm(store, setup.cfg, test)[scored]
        # mean-imputation baseline: predict the window mean at masked points
        window_means = np.repeat(test.out_mean[:, None], lookback, axis=1)[scored]
        report.metadata["baseline"][f"ratio={ratio}"] = {"MSE": mse(truth, window_means)}
        report.metadata["history"][f"ratio={ratio}"] = history
        report.add_row(f"ratio={ratio}", {"MSE": mse(truth, preds), "MAE": mae(truth, preds)})
    return report.finalize(), stores


def run_classification(
    dataset: TimeSeriesDataset,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    weights,
    revin_eps: float,
    n_classes: int | None,
) -> tuple[MetricReport, dict]:
    """Sequence-level classification: one sample series per channel,
    mean-pooled final tokens into a linear head, accuracy on test samples."""
    if dataset.labels is None or dataset.label_kind != "series":
        raise InvalidInput("classification needs one label per channel")
    labels = np.asarray(dataset.labels, dtype=np.int64)
    inferred = int(labels.max()) + 1
    n_classes = inferred if n_classes is None else n_classes
    if not isinstance(n_classes, (int, np.integer)) or n_classes < 2 or len(np.unique(labels)) < 2:
        raise InvalidInput("classification needs an integer n_classes >= 2 and two classes present")
    if inferred > n_classes:
        raise InvalidInput(f"label {inferred - 1} is out of range for n_classes {n_classes}")
    length = dataset.n_steps
    cfg = _derive_config(base_cfg, patch, length, head_out=n_classes, head_mode="pool")
    series = _batch(dataset.values.T, patch, revin_eps, labels=labels)  # (C, T): a row per series
    bounds = dataset.split.bounds(len(series.tokens))
    train, val, test = (series.rows(slice(*bounds.segment(s))) for s in ("train", "val", "test"))
    if len(train.labels) < 1 or len(test.labels) < 1:  # an empty val split is legal
        counts = f"{len(train.labels)} train, {len(val.labels)} val, {len(test.labels)} test"
        raise InsufficientData(f"classification needs train and test series; split gives {counts}")
    store, setup, history = _train(cfg, tcfg, weights, train, val, seeded_rng(tcfg.seed))
    pred_classes = np.argmax(_outputs(store, setup.cfg, test.tokens), axis=1)
    accuracy = float(np.mean(pred_classes == test.labels))
    report = _report("classification", dataset, tcfg, n_classes=n_classes, history=history)
    report.metadata["n_test"] = len(test.labels)
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
    starts = [max(start, 0) for start in _tile_starts(lo, hi, lookback)]
    # (channels * windows, lookback): every tile of every channel at once
    idx = np.asarray(starts)[:, None] + np.arange(lookback)
    windows = dataset.values[idx].transpose(2, 0, 1).reshape(-1, lookback)
    err = (_predict_denorm(store, cfg, _batch(windows, patch, eps)) - windows) ** 2
    err = err.reshape(dataset.n_channels, len(starts), lookback)
    acc = np.zeros((hi - lo, dataset.n_channels))
    for wi, start in enumerate(starts):
        write_lo = max(start, lo)
        acc[write_lo - lo : start - lo + lookback] = err[:, wi, write_lo - start :].T
    return acc.mean(axis=1)


def run_anomaly(
    dataset: TimeSeriesDataset,
    quantile: float,
    lookback: int,
    base_cfg: BackboneConfig,
    tcfg: TrainConfig,
    patch: PatchConfig,
    point_adjust: bool,
    weights,
    revin_eps: float,
    stride: int | None,
) -> tuple[MetricReport, dict]:
    """Self-supervised reconstruction; the detection threshold is the given
    quantile of per-point training errors, and test points whose error
    exceeds it are flagged."""
    if not (is_number(quantile) and 0.0 < quantile < 1.0):
        raise InvalidInput("quantile must be in (0, 1)")
    if dataset.labels is None or dataset.label_kind != "timestep":
        raise InvalidInput("anomaly detection needs one binary label per timestep")
    wspec, cfg = _reconstruction_setup(base_cfg, patch, lookback, stride)
    store, setup, history = _train_mse(dataset, wspec, cfg, tcfg, patch, weights, revin_eps)

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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        precision, recall, f1 = prf1(flags, truth, point_adjust=point_adjust)
        captured = [str(w.message) for w in caught]
    report = _report("anomaly", dataset, tcfg, threshold=threshold, history=history)
    report.metadata.update(point_adjust=point_adjust, warnings=captured)
    report.add_row(f"q={quantile}", {"precision": precision, "recall": recall, "F1": f1})
    return report.finalize(), store


def run_ablation_suite(run, tcfg: TrainConfig) -> MetricReport:
    """Run one task under every ablation arm and tabulate each run's avg row.

    ``run(tcfg) -> (report, store)`` is a task runner with every value but
    its TrainConfig bound; it runs once per arm, at ``tcfg`` under that
    arm.  Each arm's history is kept under ``metadata.history.<arm>`` as its
    run recorded it, and its warnings with the arm's name in front.  The fpt
    and no_freeze arms start from the same weights:
    ``step0_divergence_fpt_vs_no_freeze`` is the largest absolute difference
    between their runs' reports at zero epochs, over every row and metric.
    """
    meta = {"task": "ablate", "seed": tcfg.seed, "warnings": [], "history": {}}
    report = MetricReport(metadata=meta)
    for arm in ABLATION_ARMS:
        arm_report, _ = run(replace(tcfg, ablation=arm))
        arm_meta = arm_report.metadata
        meta["dataset"], meta["history"][arm] = arm_meta["dataset"], arm_meta["history"]
        meta["warnings"] += [f"{arm}: {w}" for w in arm_meta["warnings"]]
        report.add_row(arm, arm_report.rows[-1]["metrics"])  # finalize puts avg last
    untrained = [run(replace(tcfg, ablation=arm, epochs=0))[0] for arm in _PRETRAINED_ARMS]
    a, b = (np.array([x for r in rep.rows for x in r["metrics"].values()]) for rep in untrained)
    apart = ~((a == b) | (np.isnan(a) & np.isnan(b)))  # two NaNs are not apart
    gap = np.subtract(a, b, out=np.zeros_like(a), where=apart)
    meta["step0_divergence_fpt_vs_no_freeze"] = float(np.abs(gap).max())
    return report.finalize()


def synthetic_pretrain(
    base_cfg: BackboneConfig,
    wspec: WindowSpec,
    patch: PatchConfig,
    tcfg: TrainConfig,
    revin_eps: float,
    length: int,
    n_channels: int,
    noise: float,
) -> dict:
    """Train a donor backbone on a procedurally generated corpus so that the
    freeze/transfer arms have stand-in pretrained weights."""
    check_int(length, "donor length", 1)
    check_int(n_channels, "donor n_channels", 1)
    if not (is_number(noise) and noise >= 0):
        raise InvalidInput(f"donor noise must be a finite number >= 0, got {noise!r}")
    rng = seeded_rng(tcfg.seed).child(777)
    values = donor_values(length, n_channels, rng, noise=noise)
    donor = TimeSeriesDataset(name="synthetic-donor", values=values)
    donor_tcfg = replace(tcfg, ablation="no_pretrain")
    cfg = _forecast_config(base_cfg, patch, wspec)
    store, _, _ = _train_mse(donor, wspec, cfg, donor_tcfg, patch, None, revin_eps)
    return store


_SWEEP_EVAL_BATCH = 16  # test windows whose token similarity the sweep records


def mixed_weights_similarity_sweep(
    pretrained: dict,
    cfg: BackboneConfig,
    dataset,
    wspec,
    patch,
    ratios,
    tcfg: TrainConfig,
    finetune_steps: int,
    revin_eps: float,
    mode: str,
) -> list[dict]:
    """Mix pretrained frozen blocks with random weights at several ratios;
    after a brief fine-tune of the trainable group, at ``tcfg``'s batch
    size and learning rate, record each layer's token similarity on a fixed
    eval batch and the test MSE.  Every draw comes from ``tcfg.seed``.
    """
    ratios = tuple(ratios) if np.iterable(ratios) else (None,)  # a scalar fails the check
    if not all(is_number(r) and 0.0 <= r <= 1.0 for r in ratios):
        raise InvalidInput("ratios must be numbers in [0, 1]")
    derived_cfg = _derive_config(cfg, patch, wspec.lookback, wspec.horizon)
    rng = seeded_rng(tcfg.seed)
    random_store = init_random(derived_cfg, rng.child(1))
    train = _samples(dataset, wspec, patch, revin_eps, "train")
    test = _samples(dataset, wspec, patch, revin_eps, "test")
    probe = test.tokens[:_SWEEP_EVAL_BATCH]
    tcfg = replace(tcfg, epochs=1_000_000)  # finetune_steps alone ends each fit
    rows = []
    for i, ratio in enumerate(map(float, ratios)):
        mixed = mix_weights(pretrained, random_store, ratio, rng.child(10 + i), mode=mode)
        setup = AblationSetup(mixed, FreezeMask.default_fpt(mixed), derived_cfg)
        store, _ = _fit(setup, train, None, tcfg, rng.child(100 + i), max_steps=finetune_steps)
        _, trace = forward(store, derived_cfg, probe)
        rows.append(
            {
                "ratio": ratio,
                "similarity": batch_layer_similarity(trace),
                "mse": _eval_loss(store, derived_cfg, test),
            }
        )
    return rows

