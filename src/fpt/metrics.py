"""Forecast, reconstruction and detection metrics, plus the report container.

Percentage metrics follow the M-competition conventions: sMAPE carries the
factor 200 and treats 0/0 terms as zero, MAPE refuses zero actuals loudly,
MASE scales by the in-sample seasonal-naive error.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateScale, InvalidInput, ShapeError
from .numerics import check_int


def _pair(y, yhat):
    a = np.asarray(y, dtype=np.float64).ravel()
    b = np.asarray(yhat, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ShapeError("metrics need at least one element")
    return a, b


def mse(y, yhat) -> float:
    a, b = _pair(y, yhat)
    return float(np.mean((a - b) ** 2))


def mae(y, yhat) -> float:
    a, b = _pair(y, yhat)
    return float(np.mean(np.abs(a - b)))


def smape(y, yhat) -> float:
    """Symmetric MAPE in percent: (200/n) * sum |y-yhat| / (|y|+|yhat|).

    Terms where |y|+|yhat| == 0 contribute zero.
    """
    a, b = _pair(y, yhat)
    denom = np.abs(a) + np.abs(b)
    terms = np.where(denom == 0.0, 0.0, np.abs(a - b) / np.where(denom == 0.0, 1.0, denom))
    return float(200.0 * np.mean(terms))


def mase(y, yhat, insample, m: int) -> float:
    """Mean absolute error scaled by the seasonal-naive in-sample error at lag m."""
    a, b = _pair(y, yhat)
    hist = np.asarray(insample, dtype=np.float64).ravel()
    check_int(m, "seasonal period m", 1)
    if not np.isfinite(hist).all():
        raise InvalidInput("insample contains non-finite values")
    if hist.size <= m:
        raise InvalidInput(f"insample length {hist.size} must exceed period {m}")
    scale = float(np.mean(np.abs(hist[m:] - hist[:-m])))
    if scale == 0.0:
        raise DegenerateScale("seasonal-naive in-sample error is zero")
    return float(np.mean(np.abs(a - b)) / scale)


def owa(smape_value: float, mase_value: float, smape_ref: float, mase_ref: float) -> float:
    """Mean of sMAPE and MASE, each normalized by a reference method's value."""
    if smape_ref <= 0 or mase_ref <= 0:
        raise InvalidInput("reference values must be positive")
    return 0.5 * (smape_value / smape_ref + mase_value / mase_ref)


def mape(y, yhat) -> float:
    """Mean absolute percentage error; zero actuals are an error, not skipped."""
    a, b = _pair(y, yhat)
    if np.any(a == 0.0):
        raise DegenerateScale("MAPE undefined: actuals contain zeros")
    return float(100.0 * np.mean(np.abs(a - b) / np.abs(a)))


def nd(y, yhat) -> float:
    """Normalized deviation: sum |y-yhat| / sum |y|."""
    a, b = _pair(y, yhat)
    denom = float(np.sum(np.abs(a)))
    if denom == 0.0:
        raise DegenerateScale("ND undefined: sum of |actuals| is zero")
    return float(np.sum(np.abs(a - b)) / denom)


def prf1(pred, truth, point_adjust: bool) -> tuple[float, float, float]:
    """Precision, recall, F1 for binary sequences.

    With point_adjust, a single hit anywhere inside a contiguous true-anomaly
    segment credits the whole segment before counting.  Undefined precision
    (no flags) yields P=0 with a warning; undefined recall (no true
    positives in truth) yields NaN recall and F1 with a warning.
    """
    p = np.asarray(pred).astype(np.int64).ravel()
    t = np.asarray(truth).astype(np.int64).ravel()
    if p.shape != t.shape:
        raise ShapeError(f"length mismatch: {p.shape} vs {t.shape}")
    if not (np.isin(p, (0, 1)).all() and np.isin(t, (0, 1)).all()):
        raise InvalidInput("prf1 expects binary sequences")
    if point_adjust:
        p = p.copy()
        for lo, hi in _segments(t):
            if p[lo:hi].any():
                p[lo:hi] = 1
    tp = int(np.sum((p == 1) & (t == 1)))
    fp = int(np.sum((p == 1) & (t == 0)))
    fn = int(np.sum((p == 0) & (t == 1)))
    if t.sum() == 0:
        warnings.warn("no true anomalies: recall and F1 undefined (NaN)")
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        return float(precision), float("nan"), float("nan")
    if tp + fp == 0:
        warnings.warn("no flagged points: precision undefined, reported 0")
        return 0.0, tp / (tp + fn), 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return float(precision), float(recall), float(f1)


def _segments(binary: np.ndarray):
    """Contiguous [lo, hi) runs of ones."""
    out = []
    lo = None
    for i, v in enumerate(binary):
        if v and lo is None:
            lo = i
        elif not v and lo is not None:
            out.append((lo, i))
            lo = None
    if lo is not None:
        out.append((lo, len(binary)))
    return out


def csv_text(table) -> str:
    """Rows of cells as CSV text, one line per row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


@dataclass
class MetricReport:
    """Named metric values by scope, plus run metadata.

    The "avg" row, when present, holds the arithmetic mean of every other
    row for each metric name.  ``to_json`` serializes it; ``table`` is its
    CSV mirror, one line per scope, for ``csv_text``.
    """

    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_row(self, scope: str, metrics: dict) -> None:
        self.rows.append({"scope": scope, "metrics": {k: float(v) for k, v in metrics.items()}})

    def finalize(self) -> "MetricReport":
        """Append the averaged row over all existing scope rows."""
        body = [r for r in self.rows if r["scope"] != "avg"]
        if not body:
            return self
        names = sorted({k for r in body for k in r["metrics"]})
        avg = {}
        for name in names:
            vals = [r["metrics"][name] for r in body if name in r["metrics"]]
            avg[name] = float(np.mean(vals))
        self.rows = body + [{"scope": "avg", "metrics": avg}]
        return self

    def metric(self, name: str, scope: str = "avg") -> float:
        for r in self.rows:
            if r["scope"] == scope and name in r["metrics"]:
                return r["metrics"][name]
        raise InvalidInput(f"no metric {name!r} in a row with scope {scope!r}")

    def to_json(self) -> str:
        return json.dumps(
            {"metadata": self.metadata, "rows": self.rows},
            indent=2,
            sort_keys=True,
            allow_nan=True,
        )

    def table(self) -> list[list]:
        """A header row (scope, then the metric names) and one row per scope."""
        names = sorted({k for r in self.rows for k in r["metrics"]})
        return [["scope"] + names] + [
            [r["scope"]] + [repr(r["metrics"].get(n, float("nan"))) for n in names]
            for r in self.rows
        ]
