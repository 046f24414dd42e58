import json
import math

import numpy as np
import pytest

from fpt.errors import DegenerateScale, InvalidInput, ShapeError
from fpt.metrics import MetricReport, csv_text, mae, mape, mase, mse, nd, owa, prf1, smape
from fpt.rng import seeded_rng


def test_mse_mae_trivial():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert mae([0.0, 0.0], [1.0, 1.0]) == 1.0


def test_mse_mae_loop_reference():
    rng = seeded_rng(0)
    y = rng.normal(500)
    yh = rng.normal(500)
    ref_mse = sum((a - b) ** 2 for a, b in zip(y, yh)) / len(y)
    ref_mae = sum(abs(a - b) for a, b in zip(y, yh)) / len(y)
    assert abs(mse(y, yh) - ref_mse) <= 1e-12
    assert abs(mae(y, yh) - ref_mae) <= 1e-12


def test_length_mismatch():
    with pytest.raises(ShapeError):
        mse([1.0], [1.0, 2.0])


def test_smape_examples():
    assert smape([2.0, 3.0], [2.0, 3.0]) == 0.0
    assert smape([1.0], [3.0]) == pytest.approx(100.0, abs=1e-12)
    assert smape([0.0], [0.0]) == 0.0


def test_smape_symmetry():
    rng = seeded_rng(1)
    a = rng.normal(100)
    b = rng.normal(100)
    assert smape(a, b) == pytest.approx(smape(b, a), abs=1e-12)


def test_mase_direct_recomputation():
    rng = seeded_rng(2)
    m = 4
    insample = np.tile([10.0, 12.0, 9.0, 11.0], 10) + rng.normal(40, scale=0.5)
    y = rng.normal(8, loc=10.0)
    yh = y + rng.normal(8, scale=0.3)
    scale = np.mean(np.abs(insample[m:] - insample[:-m]))
    expect = np.mean(np.abs(y - yh)) / scale
    assert mase(y, yh, insample, m) == pytest.approx(expect, abs=1e-12)


def test_mase_edge_cases():
    assert mase([1.0, 2.0], [1.0, 2.0], [1.0, 2.0, 3.0], 1) == 0.0
    with pytest.raises(DegenerateScale):
        mase([1.0], [2.0], np.full(10, 3.0), 4)


def test_owa():
    assert owa(5.0, 2.0, 5.0, 2.0) == 1.0
    assert owa(0.0, 0.0, 1.0, 1.0) == 0.0
    assert owa(10.0, 1.0, 20.0, 2.0) == 0.5
    with pytest.raises(InvalidInput):
        owa(1.0, 1.0, 0.0, 1.0)


def test_mape_nd():
    assert mape([2.0], [2.0]) == 0.0
    assert nd([2.0], [2.0]) == 0.0
    assert mape([2.0], [1.0]) == pytest.approx(50.0, abs=1e-12)
    assert nd([2.0], [1.0]) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DegenerateScale):
        mape([0.0, 1.0], [1.0, 1.0])
    assert nd([0.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(DegenerateScale):
        nd([0.0, 0.0], [1.0, 1.0])


def test_prf1_exact_match():
    p, r, f1 = prf1([0, 1, 1, 0], [0, 1, 1, 0], point_adjust=False)
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_prf1_no_flags():
    with pytest.warns(UserWarning):
        p, r, f1 = prf1([0, 0, 0], [0, 1, 0], point_adjust=False)
    assert r == 0.0 and f1 == 0.0


def test_prf1_no_true_anomalies():
    with pytest.warns(UserWarning):
        p, r, f1 = prf1([0, 1, 0], [0, 0, 0], point_adjust=False)
    assert math.isnan(r) and math.isnan(f1)


def test_prf1_point_adjust_expands_segment():
    truth = np.zeros(12, dtype=int)
    truth[5:10] = 1
    pred = np.zeros(12, dtype=int)
    pred[7] = 1
    p, r, f1 = prf1(pred, truth, point_adjust=True)
    assert r == 1.0 and p == 1.0 and f1 == 1.0
    p_raw, r_raw, _ = prf1(pred, truth, point_adjust=False)
    assert r_raw == pytest.approx(0.2)


def test_prf1_point_adjust_credits_a_segment_that_ends_the_series():
    truth = np.array([0, 1, 0, 0, 1, 1, 1])
    pred = np.array([0, 0, 0, 0, 0, 1, 0])
    assert prf1(pred, truth, point_adjust=True) == (1.0, 0.75, pytest.approx(6 / 7))
    assert prf1(pred, truth, point_adjust=False)[1] == 0.25


def test_mae_le_sqrt_mse():
    rng = seeded_rng(3)
    for _ in range(200):
        y = rng.normal(50)
        yh = rng.normal(50)
        assert mae(y, yh) <= math.sqrt(mse(y, yh)) + 1e-12


def test_metric_report_average_row():
    rep = MetricReport(metadata={"task": "x"})
    rep.add_row("a", {"MSE": 1.0, "MAE": 2.0})
    rep.add_row("b", {"MSE": 3.0, "MAE": 4.0})
    rep.finalize()
    assert rep.rows[-1]["scope"] == "avg"
    assert rep.metric("MSE") == pytest.approx(2.0, abs=1e-12)
    assert rep.metric("MAE") == pytest.approx(3.0, abs=1e-12)


def test_metric_report_json_roundtrip_and_csv():
    rep = MetricReport(metadata={"task": "t", "seed": 1})
    rep.add_row("O=12", {"MSE": 0.125})
    rep.finalize()
    parsed = json.loads(rep.to_json())
    assert set(parsed) == {"metadata", "rows"}
    assert parsed["rows"] == rep.rows and parsed["metadata"] == rep.metadata
    lines = csv_text(rep.table()).strip().split("\n")
    assert lines[0] == "scope,MSE"
    assert len(lines) == 3  # header + O=12 + avg
