import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import tiny_backbone, train_config
from fpt import backbone, tasks
from fpt.backbone import forward, gpt0_config, init_random, param_hash, predict
from fpt.data import (
    SplitSpec,
    TimeSeriesDataset,
    WindowSpec,
    make_windows,
    window_masks,
)
from fpt.errors import InvalidInput, MissingWeights, NumericalFailure
from fpt.metrics import MetricReport
from fpt.preprocess import PatchConfig, normalize_windows, patchify_windows
from fpt.rng import seeded_rng
from fpt.synthetic import classification_values, inject_spikes, sinusoid
from fpt.tasks import (
    ABLATION_ARMS,
    TrainConfig,
    _derive_config,
    _reconstruction_errors,
    _samples,
    _tile_starts,
    make_ablation,
    run_ablation_suite,
    run_anomaly,
    run_classification,
    run_few_shot,
    run_forecast,
    run_imputation,
    run_zero_shot,
    synthetic_pretrain,
)

WSPEC = WindowSpec(lookback=48, horizon=12, stride=2)
PATCH = PatchConfig(8, 4)
_RUN = {"weights": None, "revin_eps": 1e-5}  # no donor, the run config's eps


def _tcfg(**over) -> TrainConfig:
    return train_config(**{"epochs": 4, "seed": 3, **over})


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
        loss_and_grads(store, cfg, batch)


@pytest.mark.parametrize(
    "over", [{"epochs": -1}, {"batch_size": 0}, {"learning_rate": 0.0}, {"learning_rate": -1.0}]
)
def test_train_config_rejects_impossible_values(over):
    with pytest.raises(InvalidInput):
        _tcfg(**over)


def test_train_config_allows_zero_epochs():
    assert _tcfg(epochs=0).epochs == 0


def test_run_records_take_numpy_integers():
    assert WindowSpec(np.int64(48), np.int32(12), 1).lookback == 48
    assert _tcfg(epochs=np.int64(2)).epochs == 2


@pytest.mark.parametrize("max_steps", [0, 3])
def test_fit_runs_exactly_the_step_budget(max_steps):
    cfg = _derive_config(tiny_backbone(), PATCH, WSPEC.lookback, WSPEC.horizon)
    setup = make_ablation("no_pretrain", cfg, seeded_rng(1), None)
    train = _samples(_sine_ds(), WSPEC, PATCH, 1e-5, "train")
    tcfg = _tcfg(epochs=10, batch_size=8)
    store, history = tasks._fit(setup, train, None, tcfg, seeded_rng(2), max_steps)
    assert len(history["train_first_epoch"]) == max_steps and history["val"] == []
    assert (param_hash(store) == param_hash(setup.store)) == (max_steps == 0)


@pytest.mark.parametrize("length, n_channels", [(0, 2), (1024, 0)])
def test_synthetic_pretrain_rejects_empty_corpus(length, n_channels):
    with pytest.raises(InvalidInput):
        synthetic_pretrain(
            tiny_backbone(), WSPEC, PATCH, _tcfg(), length=length, n_channels=n_channels,
            revin_eps=1e-5, noise=0.05,
        )


def test_synthetic_pretrain_trains_at_the_runs_revin_eps():
    """The donor corpus is normalized at the run's revin_eps, as the task's
    own splits are."""

    def donor(eps):
        store = synthetic_pretrain(
            tiny_backbone(), WSPEC, PATCH, _tcfg(epochs=1), revin_eps=eps, length=256,
            n_channels=1, noise=0.05,
        )
        return param_hash(store)

    assert donor(1e-5) == donor(1e-5)
    assert donor(1e-5) != donor(1e-2)


class TestSamples:
    """``_samples`` windows every channel in one pass; the reference is the
    one-dataset-per-channel loop it replaced."""

    def _three_channels(self) -> TimeSeriesDataset:
        values = np.stack([sinusoid(400, 24.0), 3.0 * sinusoid(400, 7.0), sinusoid(400, 50.0)], 1)
        values = values + seeded_rng(5).normal(values.shape, scale=0.1)
        return TimeSeriesDataset(name="three", values=values)

    @staticmethod
    def _window_mask(rng, steps: int, n_masked: int) -> np.ndarray:
        """One window's mask by its definition: 1 everywhere but the first
        ``n_masked`` cells of ``rng.permutation(steps)``."""
        observed = np.ones(steps)
        observed[rng.permutation(steps)[:n_masked]] = 0.0
        return observed

    @classmethod
    def _per_channel(cls, ds, wspec, eps, split, mask_counts=None, mask_rng=None):
        parts = {k: [] for k in ("tokens", "targets", "out_scale", "out_mean", "last", "mask")}
        for ci in range(ds.n_channels):
            inputs, outs = make_windows(replace(ds, values=ds.values[:, ci : ci + 1]), wspec, split)
            x = inputs[:, :, 0]
            norm, mu, sd = normalize_windows(x, eps)
            if mask_counts is not None:
                rng_ch = mask_rng.child(ci)
                observed = np.stack(
                    [
                        cls._window_mask(rng_ch.child(wi), wspec.lookback, mask_counts)
                        for wi in range(x.shape[0])
                    ]
                )
                norm = norm * observed
                parts["mask"].append(1.0 - observed)
            parts["tokens"].append(patchify_windows(norm, PATCH))
            parts["targets"].append(outs[:, :, 0] if wspec.horizon else x)
            parts["out_scale"].append(sd)
            parts["out_mean"].append(mu)
            parts["last"].append(x[:, -1])
        return {k: np.concatenate(v) if v else None for k, v in parts.items()}

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_forecast_matches_per_channel_loop(self, split):
        ds = self._three_channels()
        got = _samples(ds, WSPEC, PATCH, 1e-5, split)
        want = self._per_channel(ds, WSPEC, 1e-5, split)
        for key, value in want.items():
            np.testing.assert_array_equal(getattr(got, key), value, err_msg=key)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_masked_reconstruction_matches_per_channel_loop(self, split):
        ds = self._three_channels()
        wspec = WindowSpec(lookback=48, horizon=0, stride=6)
        got = _samples(ds, wspec, PATCH, 1e-5, split, mask_counts=12, mask_rng=seeded_rng(8))
        want = self._per_channel(ds, wspec, 1e-5, split, mask_counts=12, mask_rng=seeded_rng(8))
        for key, value in want.items():
            np.testing.assert_array_equal(getattr(got, key), value, err_msg=key)

    @pytest.mark.parametrize("n_masked", [0, 1, 12, 96])
    def test_window_masks_match_per_window_draws(self, n_masked):
        """All masks drawn in one pass equal the per-window draws from each
        window's own child stream."""
        rng = seeded_rng(9)
        got = window_masks(8, 150, 96, n_masked, rng)
        want = np.stack(
            [
                self._window_mask(rng.child(ci).child(wi), 96, n_masked)
                for ci in range(8)
                for wi in range(150)
            ]
        )
        assert got.shape == want.shape and (got == want).all()
        with pytest.raises(InvalidInput):
            window_masks(1, 1, 4, 5, rng)


class TestMakeAblation:
    def test_arms(self):
        cfg = tiny_backbone(head_in=11 * 16, head_out=12)
        rng = seeded_rng(1)
        weights = init_random(cfg, seeded_rng(2))

        fpt = make_ablation("fpt", cfg, rng, weights)
        assert fpt.mask.trainable < frozenset(fpt.store)
        assert all(".attn." in n or ".mlp." in n for n in set(fpt.store) - fpt.mask.trainable)

        nf = make_ablation("no_freeze", cfg, rng, weights)
        assert nf.mask.trainable == frozenset(nf.store)
        assert param_hash(nf.store) == param_hash(weights)

        np_arm = make_ablation("no_pretrain", cfg, rng, None)
        assert np_arm.mask.trainable == frozenset(np_arm.store)

        npf = make_ablation("no_pretrain_freeze", cfg, rng, None)
        frozen = set(npf.store) - npf.mask.trainable
        assert frozen and all(".attn." in n or ".mlp." in n for n in frozen)

        g0 = make_ablation("gpt0", cfg, rng, None)
        assert g0.cfg.n_layers == 0
        assert not any("blocks." in n for n in g0.store)
        assert g0.mask.trainable == frozenset(g0.store)

    def test_fpt_without_weights(self):
        with pytest.raises(MissingWeights):
            make_ablation("fpt", tiny_backbone(), seeded_rng(1), None)

    def test_gpt0_config_helper(self):
        assert gpt0_config(tiny_backbone()).n_layers == 0


class TestForecast:
    def test_learns_sinusoid_and_beats_naive(self):
        report, _ = run_forecast(_sine_ds(), WSPEC, tiny_backbone(), _tcfg(), PATCH, **_RUN)
        mse = report.metric("MSE", "O=12")
        assert mse < 0.05
        assert mse < report.metadata["baseline"]["MSE"]
        assert report.metric("MAE", "O=12") < report.metadata["baseline"]["MAE"]

    def test_deterministic_across_runs(self):
        a, _ = run_forecast(_sine_ds(), WSPEC, tiny_backbone(), _tcfg(), PATCH, **_RUN)
        b, _ = run_forecast(_sine_ds(), WSPEC, tiny_backbone(), _tcfg(), PATCH, **_RUN)
        assert a.to_json() == b.to_json()

    def test_first_epoch_loss_trend(self):
        report, _ = run_forecast(_sine_ds(), WSPEC, tiny_backbone(), _tcfg(), PATCH, **_RUN)
        losses = report.metadata["history"]["train_first_epoch"]
        assert len(losses) >= 3
        assert all(np.isfinite(losses))
        # nonincreasing up to a one-step violation window
        for i in range(2, len(losses)):
            assert losses[i] <= losses[i - 1] or losses[i] <= losses[i - 2]

    def test_trains_on_values_far_outside_float32_range(self):
        """At scale 1e20 the loss gradient overflows float32; the float64
        loss with a power-of-two scale on its gradient trains to the error
        of the unscaled series."""

        def mse_over_scale2(scale):
            ds = TimeSeriesDataset(name="sine", values=scale * sinusoid(800, 24.0)[:, None])
            report, _ = run_forecast(ds, WSPEC, tiny_backbone(), _tcfg(epochs=1), PATCH, **_RUN)
            return report.metric("MSE", "O=12") / scale**2

        assert mse_over_scale2(1e20) == pytest.approx(mse_over_scale2(1.0), rel=1e-4)

    def test_adam_overflow_raises_outside_the_cli_guard(self):
        """At scale 1e100 Adam's g * g overflows; called as a library, with
        numpy only warning, the run raises instead of stalling silently."""
        ds = TimeSeriesDataset(name="sine", values=1e100 * sinusoid(800, 24.0)[:, None])
        with np.errstate(over="warn"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalFailure, match="Adam"):
                run_forecast(ds, WSPEC, tiny_backbone(), _tcfg(epochs=1), PATCH, **_RUN)

    def test_requires_horizon(self):
        with pytest.raises(InvalidInput):
            run_forecast(_sine_ds(), WindowSpec(48, 0, 1), tiny_backbone(), _tcfg(), PATCH, **_RUN)

    def test_multichannel_pools_windows(self):
        rng = seeded_rng(60)
        values = np.stack([sinusoid(500, 24.0), sinusoid(500, 12.0)], axis=1)
        ds = TimeSeriesDataset(name="two", values=values + rng.normal((500, 2), scale=0.01))
        report, _ = run_forecast(ds, WSPEC, tiny_backbone(), _tcfg(epochs=2), PATCH, **_RUN)
        assert np.isfinite(report.metric("MSE", "O=12"))

    def test_baseline_repeats_each_windows_last_input(self):
        """The metadata baseline forecasts every test window's last input
        value over the horizon, channel 0's windows first."""
        rng = seeded_rng(61)
        values = np.stack([sinusoid(400, 24.0), 5.0 * sinusoid(400, 7.0) + 2.0], axis=1)
        ds = TimeSeriesDataset(name="two", values=values + rng.normal((400, 2), scale=0.1))
        report, _ = run_forecast(ds, WSPEC, tiny_backbone(), _tcfg(epochs=1), PATCH, **_RUN)
        inputs, outs = make_windows(ds, WSPEC, "test")
        naive = inputs[:, -1, :].T.reshape(-1, 1)  # channel-major rows
        err = outs.transpose(2, 0, 1).reshape(-1, WSPEC.horizon) - naive
        want = {"MSE": float(np.mean(err**2)), "MAE": float(np.mean(np.abs(err)))}
        assert report.metadata["baseline"] == want


class TestImputation:
    def test_table_shape_and_masked_metrics(self):
        ratios = (0.125, 0.25, 0.375, 0.5)
        report, stores = run_imputation(
            _sine_ds(T=600), ratios, 48, tiny_backbone(), _tcfg(epochs=3), PATCH, stride=None,
            **_RUN,
        )
        scopes = [r["scope"] for r in report.rows]
        assert scopes == [f"ratio={r}" for r in ratios] + ["avg"]
        assert set(stores) == set(ratios)
        series_var = float(_sine_ds(T=600).values.var())
        assert report.metric("MSE", "ratio=0.125") < series_var

    def test_tiny_ratio_masks_at_least_one_point(self):
        report, _ = run_imputation(
            _sine_ds(T=400), (0.001,), 48, tiny_backbone(), _tcfg(epochs=1), PATCH, stride=None,
            **_RUN,
        )
        assert np.isfinite(report.metric("MSE", "ratio=0.001"))

    def test_invalid_ratio(self):
        with pytest.raises(InvalidInput):
            run_imputation(
                _sine_ds(T=400), (1.5,), 48, tiny_backbone(), _tcfg(), PATCH, stride=None, **_RUN,
            )

    def test_zero_stride_rejected(self):
        with pytest.raises(InvalidInput):
            run_imputation(
                _sine_ds(T=400), (0.5,), 48, tiny_backbone(), _tcfg(), PATCH, stride=0, **_RUN,
            )

    def test_beats_mean_imputation_baseline(self):
        report, _ = run_imputation(
            _sine_ds(T=600), (0.125,), 48, tiny_backbone(), _tcfg(epochs=3), PATCH, stride=None,
            **_RUN,
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
            ds, cfg, _tcfg(epochs=15, batch_size=32, learning_rate=5e-3), PATCH, n_classes=None,
            **_RUN,
        )
        assert report.metric("accuracy", "test") >= 0.95
        assert len(report.metadata["history"]["val"]) >= 1

    def test_dropout_reaches_training(self):
        ds = self._corpus(n_series=60, length=64)
        tcfg = _tcfg(epochs=2, batch_size=16)

        def trained(dropout):
            _, store = run_classification(
                ds, tiny_backbone(dropout=dropout), tcfg, PATCH, n_classes=None, **_RUN,
            )
            return param_hash(store)

        assert trained(0.3) == trained(0.3)
        assert trained(0.3) != trained(0.0)

    @pytest.mark.parametrize(
        "split, sizes",
        [(SplitSpec(0.6, 0.2, 0.2), [17, 5, 7]), (SplitSpec(0.75, 0.0, 0.25), [21, 0, 8])],
    )
    def test_series_split_is_the_split_spec_bounds(self, monkeypatch, split, sizes):
        """The runner cuts its 29 series where ``SplitSpec.bounds`` puts the
        segments, an empty validation split too."""
        seen = []

        def counting_train(cfg, tcfg, weights, train, val, rng):
            seen.append((len(train.labels), len(val.labels)))
            return train_for_real(cfg, tcfg, weights, train, val, rng)

        train_for_real = tasks._train
        monkeypatch.setattr(tasks, "_train", counting_train)
        ds = replace(self._corpus(n_series=29, length=64), split=split)
        report, _ = run_classification(
            ds, tiny_backbone(), _tcfg(epochs=0), PATCH, n_classes=None, **_RUN,
        )
        bounds = split.bounds(29)
        assert [hi - lo for lo, hi in (bounds.train, bounds.val, bounds.test)] == sizes
        assert seen == [tuple(sizes[:2])] and report.metadata["n_test"] == sizes[2]

    def test_test_split_scored_in_eval_chunks(self, monkeypatch):
        rows = []

        def counting_forward(store, cfg, tokens, **kw):
            rows.append(len(tokens))
            return forward(store, cfg, tokens, **kw)

        monkeypatch.setattr(backbone, "forward", counting_forward)
        monkeypatch.setattr(backbone, "_EVAL_CHUNK", 8)
        ds = self._corpus(n_series=60, length=64)  # 12 test series
        report, _ = run_classification(
            ds, tiny_backbone(), _tcfg(epochs=1), PATCH, n_classes=None, **_RUN,
        )
        assert report.metadata["n_test"] > 8
        assert rows and max(rows) <= 8

    def test_single_class_rejected(self):
        values, _ = classification_values(20, 64, seeded_rng(71))
        ds = TimeSeriesDataset(
            name="mono", values=values, labels=np.zeros(20, dtype=np.int64), label_kind="series"
        )
        with pytest.raises(InvalidInput):
            run_classification(ds, tiny_backbone(), _tcfg(epochs=1), PATCH, n_classes=None, **_RUN)

    @pytest.mark.parametrize("top", [2, 5], ids=["train-label", "test-label"])
    def test_label_beyond_n_classes_rejected(self, top):
        ds = self._corpus(n_series=20, length=64)
        labels = ds.labels.copy()
        labels[-1 if top == 5 else 0] = top  # the last series is a test sample
        ds = TimeSeriesDataset(name="w", values=ds.values, labels=labels, label_kind="series")
        with pytest.raises(InvalidInput, match=f"label {top} is out of range for n_classes 2"):
            run_classification(ds, tiny_backbone(), _tcfg(epochs=1), PATCH, n_classes=2, **_RUN)

    def test_unlabeled_rejected(self):
        ds = TimeSeriesDataset(name="none", values=seeded_rng(72).normal((64, 10)))
        with pytest.raises(InvalidInput):
            run_classification(ds, tiny_backbone(), _tcfg(epochs=1), PATCH, n_classes=None, **_RUN)


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
            self._spiky(), 0.99, 48, tiny_backbone(), _tcfg(epochs=3), PATCH, stride=4,
            point_adjust=False, **_RUN,
        )
        assert report.metric("F1", "q=0.99") >= 0.9

    def test_threshold_monotone_in_quantile(self):
        ds = self._spiky()
        r1, _ = run_anomaly(
            ds, 0.9, 48, tiny_backbone(), _tcfg(epochs=1), PATCH, stride=4, point_adjust=False,
            **_RUN,
        )
        r2, _ = run_anomaly(
            ds, 0.99, 48, tiny_backbone(), _tcfg(epochs=1), PATCH, stride=4, point_adjust=False,
            **_RUN,
        )
        assert r2.metadata["threshold"] >= r1.metadata["threshold"]

    def test_no_true_anomalies_reports_nan_with_warning(self):
        base = sinusoid(800, 24.0)
        ds = TimeSeriesDataset(
            name="calm", values=base[:, None],
            labels=np.zeros(800, dtype=np.int64), label_kind="timestep",
        )
        report, _ = run_anomaly(
            ds, 0.99, 48, tiny_backbone(), _tcfg(epochs=1), PATCH, point_adjust=False, stride=None,
            **_RUN,
        )
        assert math.isnan(report.metric("recall", "q=0.99"))
        assert any("recall" in w for w in report.metadata["warnings"])

    def test_requires_timestep_labels(self):
        with pytest.raises(InvalidInput):
            run_anomaly(
                _sine_ds(), 0.99, 48, tiny_backbone(), _tcfg(), PATCH, point_adjust=False,
                stride=None, **_RUN,
            )

    def test_quantile_domain(self):
        with pytest.raises(InvalidInput):
            run_anomaly(
                self._spiky(), 1.5, 48, tiny_backbone(), _tcfg(), PATCH, point_adjust=False,
                stride=None, **_RUN,
            )

    def test_zero_stride_rejected(self):
        with pytest.raises(InvalidInput):
            run_anomaly(
                self._spiky(), 0.99, 48, tiny_backbone(), _tcfg(), PATCH, stride=0,
                point_adjust=False, **_RUN,
            )

    def test_batched_errors_match_per_window_loop(self):
        lookback, eps = 16, 1e-5
        values = np.stack([sinusoid(1200, p) for p in (24.0, 7.0, 50.0)], axis=1)
        values = values + seeded_rng(9).normal(values.shape, scale=0.1)
        ds = TimeSeriesDataset(name="three", values=values)
        cfg = _derive_config(tiny_backbone(), PATCH, lookback, head_out=lookback)
        store = init_random(cfg, seeded_rng(4))

        def per_window(lo, hi):
            acc = np.zeros((hi - lo, ds.n_channels))
            for ci in range(ds.n_channels):
                for start in _tile_starts(lo, hi, lookback):
                    window = ds.values[start : start + lookback, ci]
                    norm, mu, sd = normalize_windows(window[None, :], eps)
                    out = predict(store, cfg, patchify_windows(norm, PATCH))[0] * sd[0] + mu[0]
                    write_lo = max(start, lo)
                    acc[write_lo - lo : start - lo + lookback, ci] = (out - window)[
                        write_lo - start :
                    ] ** 2
            return acc.mean(axis=1)

        # 1000 steps give 63 tiles per channel, so 189 windows span two eval
        # chunks; 5..203 ends in an overlapping end-aligned tail
        for lo, hi in ((0, 1000), (5, 203), (1190, 1200)):
            want = per_window(lo, hi)
            got = _reconstruction_errors(store, cfg, ds, lookback, PATCH, eps, lo, hi)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestFewShot:
    def test_full_percent_equals_forecast(self):
        full, _ = run_forecast(_sine_ds(), WSPEC, tiny_backbone(), _tcfg(), PATCH, **_RUN)
        few, _ = run_few_shot(
            _sine_ds(), 1.0, WSPEC, tiny_backbone(), _tcfg(), PATCH, position="suffix", **_RUN,
        )
        assert few.metric("MSE", "O=12") == full.metric("MSE", "O=12")
        assert few.metric("MAE", "O=12") == full.metric("MAE", "O=12")
        assert few.metadata["percent"] == 1.0

    def test_ten_percent_within_factor_two(self):
        # noisy series so both runs share the same irreducible floor; both
        # train to early-stopping convergence under identical configs
        ds = _sine_ds(T=2000, noise=0.05, seed=55, name="noisy-sine")
        tcfg = _tcfg(epochs=60, early_stop_patience=8)
        full, _ = run_forecast(ds, WSPEC, tiny_backbone(), tcfg, PATCH, **_RUN)
        few, _ = run_few_shot(
            ds, 0.10, WSPEC, tiny_backbone(), tcfg, PATCH, position="suffix", **_RUN,
        )
        assert few.metric("MSE", "O=12") <= 2 * full.metric("MSE", "O=12")

    def test_percent_domain(self):
        with pytest.raises(InvalidInput):
            run_few_shot(
                _sine_ds(), 0.0, WSPEC, tiny_backbone(), _tcfg(), PATCH, position="suffix", **_RUN,
            )


class TestZeroShot:
    def test_source_equals_target_matches_forecast(self):
        ds = _sine_ds()
        forecast, _ = run_forecast(ds, WSPEC, tiny_backbone(), _tcfg(), PATCH, **_RUN)
        zero, _ = run_zero_shot(
            ds, ds, WSPEC, tiny_backbone(), _tcfg(), PATCH, metric="smape", **_RUN,
        )
        assert zero.metric("MSE", "O=12") == forecast.metric("MSE", "O=12")
        assert zero.metric("MAE", "O=12") == forecast.metric("MAE", "O=12")

    def test_parameter_hash_unchanged_by_evaluation(self):
        source = _sine_ds(name="src")
        target = TimeSeriesDataset(
            name="tgt", values=sinusoid(800, 24.0, phase=1.3)[:, None]
        )
        report, _ = run_zero_shot(
            source, target, WSPEC, tiny_backbone(), _tcfg(), PATCH, metric="smape", **_RUN
        )
        assert report.metadata["param_hash_before"] == report.metadata["param_hash_after"]

    def test_transfer_beats_naive_smape(self):
        source = _sine_ds(name="src")
        target = TimeSeriesDataset(
            name="tgt", values=sinusoid(800, 24.0, phase=1.3)[:, None]
        )
        report, _ = run_zero_shot(
            source, target, WSPEC, tiny_backbone(), _tcfg(), PATCH, metric="smape", **_RUN
        )
        assert report.metric("SMAPE", "O=12") < report.metadata["baseline"]["SMAPE"]

    def test_unknown_metric(self):
        ds = _sine_ds()
        with pytest.raises(InvalidInput):
            run_zero_shot(ds, ds, WSPEC, tiny_backbone(), _tcfg(), PATCH, metric="rmsle", **_RUN)


class TestAblationSuite:
    def test_keeps_each_arms_history_by_scope(self):
        """Each arm's row and history are those of the runner's own run under
        that arm, bit for bit."""
        tcfg = _tcfg(epochs=2)
        donor = init_random(tasks._forecast_config(tiny_backbone(), PATCH, WSPEC), seeded_rng(62))

        def run(tcfg):
            return run_forecast(_sine_ds(), WSPEC, tiny_backbone(), tcfg, PATCH, donor, 1e-5)

        report = run_ablation_suite(run, tcfg)
        assert [r["scope"] for r in report.rows] == [*ABLATION_ARMS, "avg"]
        assert list(report.metadata["history"]) == list(ABLATION_ARMS)
        for arm, row in zip(ABLATION_ARMS, report.rows):
            alone, _ = run(replace(tcfg, ablation=arm))
            assert row["metrics"] == alone.rows[-1]["metrics"]
            assert report.metadata["history"][arm] == alone.metadata["history"]
        assert report.metadata["step0_divergence_fpt_vs_no_freeze"] == 0.0

    def test_runs_each_arm_then_fpt_and_no_freeze_untrained(self):
        """The runner runs once per arm, then under fpt and no_freeze at zero
        epochs; the step-0 value is the largest gap between those two
        reports, where two NaNs are no gap."""
        calls = []

        def run(tcfg):
            calls.append((tcfg.ablation, tcfg.epochs))
            report = MetricReport(metadata={"dataset": "d", "history": {}, "warnings": ["w"]})
            gap = 0.25 if calls[-1] == ("no_freeze", 0) else 0.0
            report.add_row("x", {"MSE": 1.0 + gap, "recall": math.nan})
            return report.finalize(), {}

        report = run_ablation_suite(run, _tcfg(epochs=3))
        assert calls == [(arm, 3) for arm in ABLATION_ARMS] + [("fpt", 0), ("no_freeze", 0)]
        assert report.metadata["step0_divergence_fpt_vs_no_freeze"] == 0.25
        assert report.metadata["warnings"] == [f"{arm}: w" for arm in ABLATION_ARMS]
        assert report.metadata["task"] == "ablate" and report.metadata["dataset"] == "d"
