import json

import numpy as np
import pytest

from fpt.data import (
    CsvSchema,
    SplitSpec,
    TimeSeriesDataset,
    WindowSpec,
    few_shot_subset,
    load_csv,
    load_from_manifest,
    make_windows,
    mask_count,
    window_masks,
)
from fpt.errors import FormatError, InsufficientData, InvalidInput, IoError
from fpt.rng import seeded_rng
from fpt.synthetic import write_manifest, write_series_csv


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_plain_two_channel(self, tmp_path):
        path = _write(tmp_path, "a.csv", "a,b\n1,2\n3,4\n5,6\n")
        ds = load_csv(path)
        assert ds.n_steps == 3 and ds.n_channels == 2
        assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_timestamp_column_detected(self, tmp_path):
        path = _write(
            tmp_path, "b.csv", "date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n2020-01-03,5,6\n"
        )
        ds = load_csv(path)
        assert ds.n_channels == 2

    def test_nan_cell_rejected(self, tmp_path):
        path = _write(tmp_path, "c.csv", "a,b\n1,2\n3,NaN\n")
        with pytest.raises(FormatError, match="row 3"):
            load_csv(path)

    def test_missing_cell_rejected(self, tmp_path):
        path = _write(tmp_path, "d.csv", "a,b\n1,2\n3,\n")
        with pytest.raises(FormatError, match="missing cell"):
            load_csv(path)

    def test_unparseable_cell_has_location(self, tmp_path):
        path = _write(tmp_path, "e.csv", "a,b\n1,2\nx,4\n")
        with pytest.raises(FormatError, match="row 3"):
            load_csv(path)

    def test_non_monotone_timestamps(self, tmp_path):
        path = _write(tmp_path, "f.csv", "date,a\n2020-01-02,1\n2020-01-01,2\n")
        with pytest.raises(FormatError, match="strictly increasing"):
            load_csv(path)

    @pytest.mark.parametrize("label", ["inf", "1e400", "nan", "x"])
    def test_unparseable_label_rejected(self, tmp_path, label):
        # int(float("inf")) raises OverflowError, not ValueError
        path = _write(tmp_path, "h.csv", f"a,label\n1,0\n2,{label}\n3,0\n")
        with pytest.raises(FormatError, match="unparseable label"):
            load_csv(path, CsvSchema(label_column="label"))

    def test_label_column(self, tmp_path):
        path = _write(tmp_path, "g.csv", "a,label\n1,0\n2,1\n3,0\n")
        ds = load_csv(path, CsvSchema(label_column="label"))
        assert ds.n_channels == 1
        assert np.array_equal(ds.labels, [0, 1, 0])
        assert ds.label_kind == "timestep"

    def test_unreadable_path_is_io_error(self, tmp_path):
        with pytest.raises(IoError, match="cannot read"):
            load_csv(tmp_path)  # exists, but is a directory

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_csv(tmp_path / "nope.csv")


class TestManifest:
    def test_round_trip(self, tmp_path):
        write_series_csv(tmp_path / "series.csv", np.arange(40.0)[:, None])
        write_manifest(
            tmp_path / "manifest.json",
            {
                "mine": {
                    "path": "series.csv",
                    "frequency": "hourly",
                    "split": [0.5, 0.25, 0.25],
                    "labels": [1],
                }
            },
        )
        ds = load_from_manifest(tmp_path / "manifest.json", "mine")
        assert ds.split == SplitSpec(0.5, 0.25, 0.25)
        assert ds.label_kind == "series" and list(ds.labels) == [1]

    def test_unread_keys_are_ignored(self, tmp_path):
        """Nothing reads a frequency, a seasonal period or a timestamp column
        name (the timestamp column is detected), so any value loads."""
        write_series_csv(tmp_path / "series.csv", np.arange(40.0)[:, None])
        entry = {"path": "series.csv", "frequency": "fortnightly", "seasonal_period": "x"}
        entry["timestamp_column"] = "nope"
        write_manifest(tmp_path / "manifest.json", {"mine": entry})
        ds = load_from_manifest(tmp_path / "manifest.json", "mine")
        assert ds.values.shape == (40, 1)

    def test_unknown_name(self, tmp_path):
        write_manifest(tmp_path / "m.json", {})
        with pytest.raises(FormatError):
            load_from_manifest(tmp_path / "m.json", "missing")


class TestMakeWindows:
    def test_basic_count(self):
        ds = TimeSeriesDataset(
            name="x", values=np.arange(200.0)[:, None], split=SplitSpec(1.0, 0.0, 0.0)
        )
        inputs, targets = make_windows(ds, WindowSpec(96, 96, 1), "train")
        assert inputs.shape == (9, 96, 1) and targets.shape == (9, 96, 1)

    def test_exact_fit(self):
        ds = TimeSeriesDataset(
            name="x", values=np.arange(192.0)[:, None], split=SplitSpec(1.0, 0.0, 0.0)
        )
        inputs, _ = make_windows(ds, WindowSpec(96, 96, 1), "train")
        assert inputs.shape[0] == 1

    def test_too_short(self):
        ds = TimeSeriesDataset(
            name="x", values=np.arange(100.0)[:, None], split=SplitSpec(1.0, 0.0, 0.0)
        )
        with pytest.raises(InsufficientData):
            make_windows(ds, WindowSpec(96, 96, 1), "train")

    def test_count_formula_against_enumeration(self):
        rng = seeded_rng(3)
        checked = 0
        while checked < 200:
            length = 20 + rng.integers(290)
            lb = 2 + rng.integers(50)
            hz = rng.integers(20)
            stride = 1 + rng.integers(8)
            if length < lb + hz:
                continue
            checked += 1
            ds = TimeSeriesDataset(
                name="x", values=np.zeros((length, 1)), split=SplitSpec(1.0, 0.0, 0.0)
            )
            inputs, _ = make_windows(ds, WindowSpec(lb, hz, stride), "train")
            count = 0
            start = 0
            while start + lb + hz <= length:
                count += 1
                start += stride
            assert inputs.shape[0] == count

    def test_no_leak_and_backward_extension(self):
        values = np.arange(100.0)[:, None]
        ds = TimeSeriesDataset(name="x", values=values, split=SplitSpec(0.6, 0.2, 0.2))
        # train: [0, 60), val: [60, 80), test: [80, 100)
        w = WindowSpec(lookback=10, horizon=5, stride=1)
        _, train_targets = make_windows(ds, w, "train")
        assert train_targets.max() <= 59  # never crosses into validation
        val_inputs, val_targets = make_windows(ds, w, "val")
        assert val_inputs.min() == 50.0  # inputs reach back into train
        assert val_targets.min() == 60.0 and val_targets.max() <= 79
        test_inputs, test_targets = make_windows(ds, w, "test")
        assert test_targets.min() == 80.0 and test_targets.max() == 99.0

    def test_splits_disjoint_exhaustive(self):
        ds = TimeSeriesDataset(name="x", values=np.zeros((103, 1)))
        b = ds.split_bounds()
        assert b.train[0] == 0 and b.test[1] == 103
        assert b.train[1] == b.val[0] and b.val[1] == b.test[0]


class TestFewShot:
    def test_ten_percent(self):
        ds = TimeSeriesDataset(
            name="x", values=np.zeros((10000, 1)), split=SplitSpec(1.0, 0.0, 0.0)
        )
        sub = few_shot_subset(ds, 0.10, "suffix")
        t0, t1 = sub.split_bounds().train
        assert t1 - t0 == 1000
        assert t1 == 10000  # suffix keeps the most recent steps

    def test_identity_at_one(self):
        ds = TimeSeriesDataset(name="x", values=np.zeros((500, 1)))
        sub = few_shot_subset(ds, 1.0, "suffix")
        assert sub.split_bounds() == ds.split_bounds()

    def test_ceil_on_etth_like_length(self):
        ds = TimeSeriesDataset(
            name="x", values=np.zeros((12194, 1)), split=SplitSpec(1.0, 0.0, 0.0)
        )
        sub = few_shot_subset(ds, 0.05, "suffix")
        t0, t1 = sub.split_bounds().train
        assert t1 - t0 == 610

    def test_monotone_in_percent(self):
        ds = TimeSeriesDataset(name="x", values=np.zeros((1000, 1)))
        lens = []
        for p in (1.0, 0.5, 0.1, 0.05):
            t0, t1 = few_shot_subset(ds, p, "suffix").split_bounds().train
            lens.append(t1 - t0)
        assert lens == sorted(lens, reverse=True)

    def test_prefix_position(self):
        ds = TimeSeriesDataset(
            name="x", values=np.zeros((100, 1)), split=SplitSpec(1.0, 0.0, 0.0)
        )
        sub = few_shot_subset(ds, 0.2, position="prefix")
        assert sub.split_bounds().train == (0, 20)

    def test_invalid_percent(self):
        ds = TimeSeriesDataset(name="x", values=np.zeros((100, 1)))
        with pytest.raises(InvalidInput):
            few_shot_subset(ds, 0.0, "suffix")


class TestRandomMask:
    """The imputation runner's mask: ``mask_count`` cells of each window row,
    drawn by ``window_masks``."""

    def test_table_one_counts(self):
        for ratio, expect in ((0.125, 12), (0.25, 24), (0.375, 36), (0.5, 48)):
            mask = window_masks(1, 1, 96, mask_count(ratio, 96), seeded_rng(7))
            assert int((mask == 0).sum()) == expect

    def test_deterministic(self):
        a = window_masks(2, 3, 96, mask_count(0.25, 96), seeded_rng(9))
        b = window_masks(2, 3, 96, mask_count(0.25, 96), seeded_rng(9))
        assert np.array_equal(a, b)

    def test_binary_entries(self):
        mask = window_masks(3, 1, 50, mask_count(0.4, 50), seeded_rng(10))
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert mask.shape == (3, 50)

    def test_invalid_ratio(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidInput):
                mask_count(bad, 10)

    def test_masks_at_least_one_cell_as_the_imputation_runner_does(self):
        """ratio * cells below one half still masks one cell."""
        mask = window_masks(1, 1, 96, mask_count(0.004, 96), seeded_rng(13))
        assert int((mask == 0).sum()) == mask_count(0.004, 96) == 1

    def test_realized_ratio_within_bound(self):
        rng = seeded_rng(12)
        for i in range(20):
            ratio = float(rng.uniform((), 0.05, 0.95))
            mask = window_masks(1, 1, 128, mask_count(ratio, 128), rng.child(i))
            realized = float((mask == 0).mean())
            assert abs(realized - ratio) <= 2 / 128


def test_split_spec_validation():
    with pytest.raises(InvalidInput):
        SplitSpec(0.5, 0.5, 0.5)
    with pytest.raises(InvalidInput):
        WindowSpec(0, 5, 1)
