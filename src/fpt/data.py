"""Dataset ingestion, chronological splits, windowing, subsetting and masks.

Datasets are immutable after load.  CSV files must be UTF-8 with one header
row, an optional leading timestamp column (ISO-8601 or integer index, used
only for an ordering check) and finite decimal value columns; missing cells
are rejected rather than imputed.  A JSON manifest maps dataset names to
file paths plus split/label metadata.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import FormatError, InsufficientData, InvalidInput, IoError
from .numerics import check_int, is_number
from .rng import RandomStream

_TIMESTAMP_HEADERS = {"date", "time", "timestamp", "datetime"}
_BINARY_LABELS = {0.0: 0, 1.0: 1}  # a per-timestep label cell's value -> label


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test fractions; must sum to 1."""

    train: float = 0.7
    val: float = 0.1
    test: float = 0.2

    def __post_init__(self):
        if not all(0 <= f < math.inf for f in (self.train, self.val, self.test)):
            raise InvalidInput("split fractions must be finite and nonnegative")
        total = self.train + self.val + self.test
        if abs(total - 1.0) > 1e-9:
            raise InvalidInput(f"split fractions sum to {total}, expected 1")

    def bounds(self, n: int) -> SplitBounds:
        """The segments of ``n`` ordered items (timesteps or series):
        floor(train * n), then floor(val * n), then the rest."""
        n_train = int(math.floor(self.train * n))
        n_val = int(math.floor(self.val * n))
        return SplitBounds((0, n_train), (n_train, n_train + n_val), (n_train + n_val, n))


@dataclass(frozen=True)
class SplitBounds:
    """Resolved half-open index ranges for the three contiguous segments."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]

    def segment(self, name: str) -> tuple[int, int]:
        return getattr(self, name)


@dataclass(frozen=True)
class WindowSpec:
    lookback: int
    horizon: int
    stride: int

    def __post_init__(self):
        check_int(self.lookback, "lookback", 1)
        check_int(self.horizon, "horizon", 0)
        check_int(self.stride, "stride", 1)


@dataclass(frozen=True)
class TimeSeriesDataset:
    """A multivariate series with split and label metadata.

    ``labels`` is either one integer per channel (label_kind="series",
    classification corpora store one sample series per channel) or one
    binary value per timestep (label_kind="timestep", anomaly ground truth).
    """

    name: str
    values: np.ndarray  # (T, C) float64
    labels: np.ndarray | None = None
    label_kind: str | None = None  # "series" | "timestep" | None
    split: SplitSpec = field(default_factory=SplitSpec)
    bounds: SplitBounds | None = None  # explicit override (few-shot subsetting)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise InvalidInput(f"values must be (T, C) with T,C >= 1, got {v.shape}")
        object.__setattr__(self, "values", v)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            object.__setattr__(self, "labels", lab)
            if self.label_kind == "series" and lab.shape != (v.shape[1],):
                raise InvalidInput("series labels must have one entry per channel")
            if self.label_kind == "timestep" and lab.shape != (v.shape[0],):
                raise InvalidInput("timestep labels must have one entry per timestep")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def split_bounds(self) -> SplitBounds:
        return self.split.bounds(self.n_steps) if self.bounds is None else self.bounds


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for load_csv.

    The first column is auto-detected as a timestamp when its header is one
    of {date, time, timestamp, datetime} (case-insensitive) or its values
    parse as ISO-8601 but not as numbers.  Every other column but the label
    column holds values.
    """

    label_column: str | None = None


def load_csv(path, schema: CsvSchema | None = None, name: str | None = None) -> TimeSeriesDataset:
    """Read a CSV into a dataset, validating order and cell finiteness."""
    schema = schema or CsvSchema()
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
    except StopIteration:
        raise FormatError(f"{path}: empty file") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:  # a directory, no read permission
        raise IoError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: no data rows")
    header = [h.strip() for h in header]
    col_index = {h: i for i, h in enumerate(header)}
    if len(col_index) != len(header):
        repeated = next(h for i, h in enumerate(header) if col_index[h] != i)
        raise FormatError(f"{path}: column header {repeated!r} is repeated")
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")

    ts_col = _detect_timestamp_column(header, rows)
    value_cols = [h for h in header if h != ts_col and h != schema.label_column]
    if not value_cols:
        raise FormatError(f"{path}: no value columns")

    values = np.empty((len(rows), len(value_cols)), dtype=np.float64)
    for r, row in enumerate(rows):
        for c, colname in enumerate(value_cols):
            cell = row[col_index[colname]].strip()
            values[r, c] = _parse_cell(cell, path, r + 2, colname)

    if ts_col is not None:
        _check_monotone_timestamps(
            [row[col_index[ts_col]].strip() for row in rows], path
        )

    labels = None
    label_kind = None
    if schema.label_column is not None:
        if schema.label_column not in col_index:
            raise FormatError(f"{path}: label column {schema.label_column!r} not found")
        labels = np.empty(len(rows), dtype=np.int64)
        for r, row in enumerate(rows):
            cell = row[col_index[schema.label_column]].strip()
            try:  # "2", "0.7", "nan" and "x" all miss
                labels[r] = _BINARY_LABELS[float(cell)]
            except (ValueError, KeyError):
                raise FormatError(
                    f"{path}: unparseable label {cell!r} at row {r + 2}: expected 0 or 1"
                ) from None
        label_kind = "timestep"

    return TimeSeriesDataset(
        name=name or path.stem,
        values=values,
        labels=labels,
        label_kind=label_kind,
    )


def _parse_cell(cell: str, path, rownum: int, colname: str) -> float:
    if cell == "":
        raise FormatError(f"{path}: missing cell at row {rownum}, column {colname!r}")
    try:
        v = float(cell)
    except ValueError:
        raise FormatError(
            f"{path}: unparseable cell {cell!r} at row {rownum}, column {colname!r}"
        ) from None
    if not math.isfinite(v):
        raise FormatError(
            f"{path}: non-finite cell {cell!r} at row {rownum}, column {colname!r}"
        )
    return v


def _detect_timestamp_column(header, rows):
    first = header[0]
    if first.lower() in _TIMESTAMP_HEADERS:
        return first
    sample = rows[0][0].strip()
    try:
        float(sample)
        return None  # numeric first column: treat as data
    except ValueError:
        pass
    try:
        datetime.fromisoformat(sample)
        return first
    except ValueError:
        return None


def _timestamp_key(cell: str, path, rownum: int) -> tuple[str, float | datetime]:
    """A timestamp cell's kind (number, naive or offset-aware ISO-8601) and
    sort key; only keys of one kind compare."""
    try:
        return "a number", float(cell)
    except ValueError:
        pass
    try:
        key = datetime.fromisoformat(cell)
    except ValueError:
        raise FormatError(f"{path}: unparseable timestamp {cell!r} at row {rownum}") from None
    return ("a naive" if key.tzinfo is None else "an offset-aware") + " time", key


def _check_monotone_timestamps(raw: list[str], path) -> None:
    kinds, keys = zip(*(_timestamp_key(cell, path, i + 2) for i, cell in enumerate(raw)))
    for i, kind in enumerate(kinds):
        if kind != kinds[0]:
            raise FormatError(
                f"{path}: timestamp {raw[i]!r} at row {i + 2} is {kind}, row 2 holds {kinds[0]}"
            )
    for i in range(1, len(keys)):
        if not keys[i] > keys[i - 1]:
            raise FormatError(f"{path}: timestamps not strictly increasing at row {i + 2}")


def load_manifest(path) -> dict:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read manifest {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"manifest {path} must map names to entries")
    return manifest


def load_from_manifest(manifest_path, name: str) -> TimeSeriesDataset:
    """Load one named dataset, applying the manifest's metadata."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    if name not in manifest:
        raise FormatError(f"dataset {name!r} not in manifest {manifest_path}")
    entry = manifest[name]
    if not isinstance(entry, dict):
        raise FormatError(f"manifest entry {name!r} must be an object, got {type(entry).__name__}")
    if not isinstance(entry.get("path"), str):
        raise FormatError(f"manifest entry {name!r} needs a string path")
    label_column = entry.get("label_column")
    if label_column is not None and not isinstance(label_column, str):
        raise FormatError(f"manifest entry {name!r}: label_column must be a string")
    split = entry.get("split", [])
    if "split" in entry and not (
        isinstance(split, list) and len(split) == 3 and all(map(is_number, split))
    ):
        raise FormatError(f"manifest entry {name!r}: split must be a list of three finite numbers")
    csv_path = Path(entry["path"])
    if not csv_path.is_absolute():
        csv_path = manifest_path.parent / csv_path
    ds = load_csv(csv_path, CsvSchema(label_column=label_column), name=name)
    split = SplitSpec(*split)
    labels = ds.labels
    label_kind = ds.label_kind
    if "labels" in entry:  # per-channel labels (classification corpora)
        labels = entry["labels"]
        if not isinstance(labels, list) or not all(
            type(c) is int and 0 <= c < 2**63 for c in labels
        ):
            raise FormatError(
                f"manifest entry {name!r}: labels must be a list of non-negative integers"
            )
        labels = np.asarray(labels, dtype=np.int64)
        label_kind = "series"
    return replace(ds, split=split, labels=labels, label_kind=label_kind)


def make_windows(
    d: TimeSeriesDataset, w: WindowSpec, split: str
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding (input, target) windows for one split.

    Returns (inputs, targets) shaped (n_windows, L, C) and (n_windows, O, C).
    Targets tile the split's own region; validation/test inputs extend
    backward into earlier data by up to L steps, so no target ever leaks
    across a split boundary.  Window count over the effective segment of
    length S is floor((S - L - O) / stride) + 1.
    """
    if split not in ("train", "val", "test"):
        raise InvalidInput(f"unknown split {split!r}")
    bounds = d.split_bounds()
    lo, hi = bounds.segment(split)
    if split != "train":
        lo = max(0, lo - w.lookback)  # inputs may reach back into earlier data
    seg_len = hi - lo
    need = w.lookback + w.horizon
    if seg_len < need:
        raise InsufficientData(
            f"{split} segment has {seg_len} steps, need at least {need}"
        )
    n = (seg_len - need) // w.stride + 1
    starts = lo + np.arange(n) * w.stride
    in_idx = starts[:, None] + np.arange(w.lookback)[None, :]
    inputs = d.values[in_idx]  # (n, L, C)
    if w.horizon > 0:
        out_idx = starts[:, None] + w.lookback + np.arange(w.horizon)[None, :]
        targets = d.values[out_idx]
    else:
        targets = np.empty((n, 0, d.n_channels), dtype=np.float64)
    return inputs, targets


def few_shot_subset(d: TimeSeriesDataset, percent: float, position: str) -> TimeSeriesDataset:
    """Restrict the training split to ceil(percent * train_len) timesteps.

    ``position`` "suffix" keeps the most recent data, adjacent to
    validation, and "prefix" the earliest; validation and test are untouched.
    """
    if not (is_number(percent) and 0.0 < percent <= 1.0):
        raise InvalidInput("percent must be in (0, 1]")
    if position not in ("suffix", "prefix"):
        raise InvalidInput("position must be 'suffix' or 'prefix'")
    bounds = d.split_bounds()
    t0, t1 = bounds.train
    train_len = t1 - t0
    keep = math.ceil(round(percent * train_len, 9))
    keep = min(max(keep, 1), train_len)
    if position == "suffix":
        new_train = (t1 - keep, t1)
    else:
        new_train = (t0, t0 + keep)
    return replace(d, bounds=SplitBounds(train=new_train, val=bounds.val, test=bounds.test))


def mask_count(ratio: float, cells: int) -> int:
    """The number of cells a mask of ``ratio`` hides among ``cells``:
    round(ratio * cells), halves rounded up, and at least one.  A ratio
    outside (0, 1), NaN included, raises ``InvalidInput``."""
    if not (is_number(ratio) and 0.0 < ratio < 1.0):
        raise InvalidInput(f"mask ratio must be in (0, 1), got {ratio!r}")
    return max(1, int(math.floor(ratio * cells + 0.5)))


def window_masks(
    n_channels: int, n_windows: int, steps: int, n_masked: int, rng: RandomStream
) -> np.ndarray:
    """(n_channels * n_windows, steps) binary masks (1 = observed): row
    ``c * n_windows + w`` hides ``rng.child(c).child(w).permutation(steps)[:n_masked]``,
    every row drawn in one pass."""
    check_int(n_masked, "n_masked", 0)
    if n_masked > steps:
        raise InvalidInput(f"cannot mask {n_masked} of {steps} cells")
    order = rng.child_permutations(n_channels, n_windows, steps).reshape(-1, steps)
    mask = np.ones(order.shape)
    np.put_along_axis(mask, order[:, :n_masked], 0.0, axis=1)
    return mask
