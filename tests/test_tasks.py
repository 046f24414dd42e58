import math

import numpy as np
import pytest

from conftest import tiny_backbone
from fpt.backbone import gpt0_config, init_random, param_hash
from fpt.data import SplitSpec, TimeSeriesDataset, WindowSpec
from fpt.errors import InvalidInput, MissingWeights
from fpt.preprocess import PatchConfig
from fpt.rng import seeded_rng
from fpt.synthetic import classification_values, inject_spikes, sinusoid
from fpt.tasks import (
    TrainConfig,
    make_ablation,
    run_anomaly,
    run_classification,
    run_few_shot,
    run_forecast,
    run_imputation,
    run_zero_shot,
)

WSPEC = WindowSpec(lookback=48, horizon=12, stride=2)
PATCH = PatchConfig(8, 4)


def _tcfg(**over) -> TrainConfig:
    params = dict(epochs=4, batch_size=64, learning_rate=1e-3, seed=3)
    params.update(over)
    return TrainConfig(**params)


def _sine_ds(T=800, noise=0.0, seed=50, name="sine") -> TimeSeriesDataset:
    values = sinusoid(T, 24.0)
    if noise:
        values = values + seeded_rng(seed).normal(T, scale=noise)
    return TimeSeriesDataset(name=name, values=values[:, None])


def test_fully_unmasked_loss_rejected():
    from fpt.backbone import Batch, init_random, loss_and_grads

    cfg = tiny_backbone(head_in=3 * 16, head_out=4)
    store = init_random(cfg, seeded_rng(1))
    rng = seeded_rng(2)
    batch = Batch(
        tokens=rng.normal((2, 3, cfg.patch_len)),
        targets=rng.normal((2, 4)),
        mask=np.zeros((2, 4)),
    )
    with pytest.raises(InvalidInput):
        loss_and_grads(store, cfg, batch, "masked_mse")


class TestMakeAblation:
    def test_arms(self):
        cfg = tiny_backbone(head_in=11 * 16, head_out=12)
        rng = seeded_rng(1)
        weights = init_random(cfg, seeded_rng(2))

        fpt = make_ablation("fpt", cfg, rng, weights)
        assert fpt.mask.trainable < frozenset(fpt.store)
        assert all(".attn." in n or ".mlp." in n for n in fpt.mask.frozen_names(fpt.store))

        nf = make_ablation("no_freeze", cfg, rng, weights)
        assert nf.mask.trainable == frozenset(nf.store)
        assert param_hash(nf.store) == param_hash(weights)

        np_arm = make_ablation("no_pretrain", cfg, rng)
        assert np_arm.mask.trainable == frozenset(np_arm.store)

        npf = make_ablation("no_pretrain_freeze", cfg, rng)
        frozen = npf.mask.frozen_names(npf.store)
        assert frozen and all(".attn." in n or ".mlp." in n for n in frozen)

        g0 = make_ablation("gpt0", cfg, rng)
        assert g0.cfg.n_layers == 0
        assert not any("blocks." in n for n in g0.store)
        assert g0.mask.trainable == frozenset(g0.store)

    def test_fpt_without_weights(self):
        with pytest.raises(MissingWeights):
            make_ablation("fpt", tiny_backbone(), seeded_rng(1))

    def test_gpt0_config_helper(self):
        assert gpt0_config(tiny_backbone()).n_layers == 0


class TestForecast:
    def test_learns_sinusoid_and_beats_naive(self):
        report, _ = run_forecast(_sine_ds(), WSPEC, tiny_backbone(), _tcfg(), PATCH)
        mse = report.metric("MSE", "O=12")
        assert mse < 0.05
        assert mse < report.metadata["baseline"]["MSE"]
        assert report.metric("MAE", "O=12") < report.metadata["baseline"]["MAE"]

    def test_deterministic_across_runs(self):
        a, _ = run_forecast(_sine_ds(), WSPEC, tiny_backbone(), _tcfg(), PATCH)
        b, _ = run_forecast(_sine_ds(), WSPEC, tiny_backbone(), _tcfg(), PATCH)
        assert a.to_json() == b.to_json()

    def test_first_epoch_loss_trend(self):
        report, _ = run_forecast(_sine_ds(), WSPEC, tiny_backbone(), _tcfg(), PATCH)
        losses = report.metadata["history"]["train_first_epoch"]
        assert len(losses) >= 3
        assert all(np.isfinite(losses))
        # nonincreasing up to a one-step violation window
        for i in range(2, len(losses)):
            assert losses[i] <= losses[i - 1] or losses[i] <= losses[i - 2]

    def test_requires_horizon(self):
        with pytest.raises(InvalidInput):
            run_forecast(_sine_ds(), WindowSpec(48, 0, 1), tiny_backbone(), _tcfg(), PATCH)

    def test_multichannel_pools_windows(self):
        rng = seeded_rng(60)
        values = np.stack([sinusoid(500, 24.0), sinusoid(500, 12.0)], axis=1)
        ds = TimeSeriesDataset(name="two", values=values + rng.normal((500, 2), scale=0.01))
        report, _ = run_forecast(ds, WSPEC, tiny_backbone(), _tcfg(epochs=2), PATCH)
        assert np.isfinite(report.metric("MSE", "O=12"))


class TestImputation:
    def test_table_shape_and_masked_metrics(self):
        ratios = (0.125, 0.25, 0.375, 0.5)
        report, stores = run_imputation(
            _sine_ds(T=600), ratios, 48, tiny_backbone(), _tcfg(epochs=3), PATCH
        )
        scopes = [r["scope"] for r in report.rows]
        assert scopes == [f"ratio={r}" for r in ratios] + ["avg"]
        assert set(stores) == set(ratios)
        series_var = float(_sine_ds(T=600).values.var())
        assert report.metric("MSE", "ratio=0.125") < series_var

    def test_tiny_ratio_masks_at_least_one_point(self):
        report, _ = run_imputation(
            _sine_ds(T=400), (0.001,), 48, tiny_backbone(), _tcfg(epochs=1), PATCH
        )
        assert np.isfinite(report.metric("MSE", "ratio=0.001"))

    def test_invalid_ratio(self):
        with pytest.raises(InvalidInput):
            run_imputation(_sine_ds(T=400), (1.5,), 48, tiny_backbone(), _tcfg(), PATCH)

    def test_beats_mean_imputation_baseline(self):
        report, _ = run_imputation(
            _sine_ds(T=600), (0.125,), 48, tiny_backbone(), _tcfg(epochs=3), PATCH
        )
        model_mse = report.metric("MSE", "ratio=0.125")
        baseline_mse = report.metadata["baseline"]["ratio=0.125"]["MSE"]
        assert model_mse < baseline_mse


class TestClassification:
    def _corpus(self, n_series=200, length=96):
        values, labels = classification_values(n_series, length, seeded_rng(70))
        return TimeSeriesDataset(
            name="waves", values=values, labels=labels, label_kind="series"
        )

    def test_sine_vs_square_accuracy(self):
        ds = self._corpus()
        cfg = tiny_backbone(d_model=32, n_heads=4, d_ff=64)
        report, _ = run_classification(
            ds, cfg, _tcfg(epochs=15, batch_size=32, learning_rate=5e-3), PATCH
        )
        assert report.metric("accuracy", "test") >= 0.95
        assert len(report.metadata["history"]["val"]) >= 1

    def test_dropout_reaches_training(self):
        ds = self._corpus(n_series=60, length=64)
        tcfg = _tcfg(epochs=2, batch_size=16)

        def trained(dropout):
            _, store = run_classification(ds, tiny_backbone(dropout=dropout), tcfg, PATCH)
            return param_hash(store)

        assert trained(0.3) == trained(0.3)
        assert trained(0.3) != trained(0.0)

    def test_single_class_rejected(self):
        values, _ = classification_values(20, 64, seeded_rng(71))
        ds = TimeSeriesDataset(
            name="mono", values=values, labels=np.zeros(20, dtype=np.int64), label_kind="series"
        )
        with pytest.raises(InvalidInput):
            run_classification(ds, tiny_backbone(), _tcfg(epochs=1), PATCH)

    def test_unlabeled_rejected(self):
        ds = TimeSeriesDataset(name="none", values=seeded_rng(72).normal((64, 10)))
        with pytest.raises(InvalidInput):
            run_classification(ds, tiny_backbone(), _tcfg(epochs=1), PATCH)


class TestAnomaly:
    def _spiky(self, q_seed=80):
        """Noisy sinusoid with 20 labeled test spikes of 10 sigma plus 18
        unlabeled contamination spikes in the training region.

        A perfectly clean training region would put the 99%-quantile
        threshold at the reconstruction noise floor, where window pollution
        around each test spike floods the flag set; realistic unlabeled
        train contamination (just under 1% of train points) lands the
        threshold above the pollution level, which is the regime the
        protocol expects.
        """
        split = SplitSpec(0.7, 0.15, 0.15)
        base = sinusoid(3000, 24.0) + seeded_rng(q_seed).normal(3000, scale=0.05)
        ds0 = TimeSeriesDataset(name="clean", values=base[:, None], split=split)
        bounds = ds0.split_bounds()
        values, labels = inject_spikes(base, 20, 10.0, bounds.test, seeded_rng(q_seed + 1))
        values, _ = inject_spikes(values[:, 0], 18, 10.0, bounds.train, seeded_rng(q_seed + 2))
        return TimeSeriesDataset(
            name="spiky", values=values, labels=labels, label_kind="timestep", split=split
        )

    def test_injected_spikes_detected(self):
        report, _ = run_anomaly(
            self._spiky(), 0.99, 48, tiny_backbone(), _tcfg(epochs=3), PATCH, stride=4
        )
        assert report.metric("F1", "q=0.99") >= 0.9

    def test_threshold_monotone_in_quantile(self):
        ds = self._spiky()
        r1, _ = run_anomaly(ds, 0.9, 48, tiny_backbone(), _tcfg(epochs=1), PATCH, stride=4)
        r2, _ = run_anomaly(ds, 0.99, 48, tiny_backbone(), _tcfg(epochs=1), PATCH, stride=4)
        assert r2.metadata["threshold"] >= r1.metadata["threshold"]

    def test_no_true_anomalies_reports_nan_with_warning(self):
        base = sinusoid(800, 24.0)
        ds = TimeSeriesDataset(
            name="calm", values=base[:, None],
            labels=np.zeros(800, dtype=np.int64), label_kind="timestep",
        )
        report, _ = run_anomaly(ds, 0.99, 48, tiny_backbone(), _tcfg(epochs=1), PATCH)
        assert math.isnan(report.metric("recall", "q=0.99"))
        assert any("recall" in w for w in report.metadata["warnings"])

    def test_requires_timestep_labels(self):
        with pytest.raises(InvalidInput):
            run_anomaly(_sine_ds(), 0.99, 48, tiny_backbone(), _tcfg(), PATCH)

    def test_quantile_domain(self):
        with pytest.raises(InvalidInput):
            run_anomaly(self._spiky(), 1.5, 48, tiny_backbone(), _tcfg(), PATCH)


class TestFewShot:
    def test_full_percent_equals_forecast(self):
        full, _ = run_forecast(_sine_ds(), WSPEC, tiny_backbone(), _tcfg(), PATCH)
        few, _ = run_few_shot(_sine_ds(), 1.0, WSPEC, tiny_backbone(), _tcfg(), PATCH)
        assert few.metric("MSE", "O=12") == full.metric("MSE", "O=12")
        assert few.metric("MAE", "O=12") == full.metric("MAE", "O=12")
        assert few.metadata["percent"] == 1.0

    def test_ten_percent_within_factor_two(self):
        # noisy series so both runs share the same irreducible floor; both
        # train to early-stopping convergence under identical configs
        ds = _sine_ds(T=2000, noise=0.05, seed=55, name="noisy-sine")
        tcfg = _tcfg(epochs=60, early_stop_patience=8)
        full, _ = run_forecast(ds, WSPEC, tiny_backbone(), tcfg, PATCH)
        few, _ = run_few_shot(ds, 0.10, WSPEC, tiny_backbone(), tcfg, PATCH)
        assert few.metric("MSE", "O=12") <= 2 * full.metric("MSE", "O=12")

    def test_percent_domain(self):
        with pytest.raises(InvalidInput):
            run_few_shot(_sine_ds(), 0.0, WSPEC, tiny_backbone(), _tcfg(), PATCH)


class TestZeroShot:
    def test_source_equals_target_matches_forecast(self):
        ds = _sine_ds()
        forecast, _ = run_forecast(ds, WSPEC, tiny_backbone(), _tcfg(), PATCH)
        zero, _ = run_zero_shot(ds, ds, WSPEC, tiny_backbone(), _tcfg(), PATCH, metric="smape")
        assert zero.metric("MSE", "O=12") == forecast.metric("MSE", "O=12")
        assert zero.metric("MAE", "O=12") == forecast.metric("MAE", "O=12")

    def test_parameter_hash_unchanged_by_evaluation(self):
        source = _sine_ds(name="src")
        target = TimeSeriesDataset(
            name="tgt", values=sinusoid(800, 24.0, phase=1.3)[:, None]
        )
        report, _ = run_zero_shot(
            source, target, WSPEC, tiny_backbone(), _tcfg(), PATCH, metric="smape"
        )
        assert report.metadata["param_hash_before"] == report.metadata["param_hash_after"]

    def test_transfer_beats_naive_smape(self):
        source = _sine_ds(name="src")
        target = TimeSeriesDataset(
            name="tgt", values=sinusoid(800, 24.0, phase=1.3)[:, None]
        )
        report, _ = run_zero_shot(
            source, target, WSPEC, tiny_backbone(), _tcfg(), PATCH, metric="smape"
        )
        assert report.metric("SMAPE", "O=12") < report.metadata["baseline"]["SMAPE"]

    def test_incompatible_windows_rejected(self):
        ds = _sine_ds()
        with pytest.raises(InvalidInput):
            run_zero_shot(
                ds, ds, WSPEC, tiny_backbone(), _tcfg(), PATCH,
                target_wspec=WindowSpec(24, 12, 1),
            )

    def test_unknown_metric(self):
        ds = _sine_ds()
        with pytest.raises(InvalidInput):
            run_zero_shot(ds, ds, WSPEC, tiny_backbone(), _tcfg(), PATCH, metric="rmsle")
