"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from fpt import backbone, cli, data, synthetic, tasks  # noqa: E402
from fpt.rng import seeded_rng  # noqa: E402


def span(name, start, end, parent=-1, units=None):
    return [name, start, end, parent, units]


# ---------------------------------------------------------------------------
# self time and percentiles


def test_self_time_subtracts_children_once():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("tasks.run_forecast", 1.0, 4.0, 0),
        span("backbone.forward", 2.0, 3.0, 1),
        span("metrics.mse", 5.0, 6.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_clips_overlapping_children_to_the_parent():
    spans = [
        span("tasks.run_anomaly", 0.0, 4.0),
        span("backbone.predict", 1.0, 3.0, 0),
        span("backbone.predict", 2.0, 5.0, 0),
    ]
    # children cover [1, 4) of the parent's interval, so 1 s is self time
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_op_summary_groups_and_inclusive_time():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("tasks.run_forecast", 1.0, 9.0, 0),
        span("backbone.predict", 2.0, 4.0, 1, units=8),
        span("backbone.forward", 2.5, 3.5, 2, units=8),
        span("metrics.mse", 5.0, 5.5, 1),
        span("metrics.mae", 6.0, 6.25, 1),
    ]
    summary = tracing.op_summary(spans)
    groups = summary["groups"]
    assert groups["cli.self_s"] == pytest.approx(2.0)
    assert groups["tasks.self_s"] == pytest.approx(8.0 - 2.0 - 0.75)
    assert groups["metrics.s"] == pytest.approx(0.75)
    forward = summary["layers"]["backbone.forward"]
    assert (forward["calls"], forward["units"]) == (1, 8)
    assert forward["s"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tracing.tail_percentile(n) == expected


def test_nearest_rank_percentile_and_median():
    values = list(range(1, 101))
    assert tracing.percentile(values, 90.0) == 90
    assert tracing.percentile(values, 50.0) == 50
    assert tracing.median([3.0, 1.0, 2.0]) == 2.0
    assert tracing.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_layer_metrics_zero_a_tail_percentile_without_enough_samples():
    spans = [span("backbone.loss_and_grads", float(i), i + 0.5) for i in range(50)]
    spans += [span("backbone.forward", 100.0, 100.002)]
    metrics, notes = tracing.layer_metrics([tracing.op_summary(spans)])
    assert metrics["backbone.loss_and_grads.calls"] == 50
    assert metrics["backbone.loss_and_grads.ms_p50"] == pytest.approx(500.0)
    assert metrics["backbone.loss_and_grads.ms_p90"] == 0.0
    assert metrics["backbone.forward.ms_p50"] == pytest.approx(2.0)  # the median needs one call
    assert metrics["backbone.forward.ms_p90"] == 0.0
    assert [n.split(":")[0] for n in notes] == [
        "backbone.loss_and_grads.ms_p90", "backbone.forward.ms_p90"
    ]
    assert metrics["numerics.sym_eig.calls"] == 0
    assert set(metrics) | set(tracing.EXTRA_UNITS) >= set(tracing.per_layer_units())


# ---------------------------------------------------------------------------
# wrapping


def test_tracing_wraps_every_binding_and_restores():
    original = backbone.forward
    assert cli.forward is original
    tracer = tracing.Tracer()
    with tracing.tracing(tracer):
        assert backbone.forward is not original and cli.forward is backbone.forward
        cfg = workloads._head_config(4)
        store = backbone.init_random(cfg, seeded_rng(0))
        tokens = np.zeros((3, workloads._n_tokens(), workloads.PATCH_LEN))
        backbone.predict(store, cfg, tokens)
    assert backbone.forward is original and cli.forward is original
    names = [s[0] for s in tracer.spans]
    predict, forward = names.index("backbone.predict"), names.index("backbone.forward")
    assert tracer.spans[forward][3] == predict  # forward's parent is predict
    assert tracer.spans[forward][4] == 3  # three rows


def test_every_reported_layer_exists_at_this_commit():
    assert tracing.absent_layers(tracing.traced_modules()) == []


# ---------------------------------------------------------------------------
# inputs and work counts


def test_window_counts_match_the_program():
    ds = data.TimeSeriesDataset(name="x", values=np.zeros((3000, 1)))
    bounds = workloads.split_bounds(3000)
    assert bounds == tuple(getattr(ds.split_bounds(), s) for s in ("train", "val", "test"))
    for i, split in enumerate(("train", "val", "test")):
        for horizon, stride in ((24, 1), (0, 96)):
            wspec = data.WindowSpec(96, horizon, stride)
            inputs, _ = data.make_windows(ds, wspec, split)
            assert workloads.window_count(bounds, i, 96, horizon, stride) == len(inputs)
    for lo, hi in ((0, 14000), (16000, 20000), (0, 96), (5, 200)):
        assert workloads.tile_count(lo, hi, 96) == len(tasks._tile_starts(lo, hi, 96))


def test_seed_zero_reproduces_acceptance_inputs(tmp_path):
    w = workloads.ForecastTrain(tmp_path, 0)
    w.prepare()
    loaded = data.load_csv(tmp_path / "sine24.csv")
    assert np.array_equal(loaded.values[:, 0], synthetic.sinusoid(3000, 24.0))

    pca = workloads.PcaAudit(tmp_path, 0)
    pca.prepare()
    for trial, (x, m, _) in enumerate(pca.cases):
        stream = seeded_rng(31).child(trial)
        d = 2 + stream.integers(5)
        n = d + 1 + stream.integers(16 - d)
        assert np.array_equal(x, stream.normal((n, d)))
        assert m == 1 + stream.integers(d)


def test_same_seed_same_inputs(tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for path, seed in ((first, 3), (second, 3), (other, 4)):
        path.mkdir()
        workloads.AnomalyScan(path, seed).prepare()
    read = lambda p: (p / "spiky.csv").read_bytes()  # noqa: E731
    assert read(first) == read(second) != read(other)
    labels = data.load_csv(first / "spiky.csv", data.CsvSchema(label_column="label")).labels
    assert labels.sum() == (20_000 - 16_000) // workloads.LOOKBACK


# ---------------------------------------------------------------------------
# smoke runs: each workload's warm-up operation, which has its full shape
# at a reduced size, and the repeat check


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke(tmp_path, name):
    w = workloads.WORKLOADS[name](tmp_path, 1)
    w.prepare()
    result = w.run(warmup=True)
    assert result["windows"] > 0 and result["quality"] > 0
    w.check(result)
    w.check(result)  # an identical repeat passes
    with pytest.raises(workloads.CheckFailed):
        w.check({**result, "canonical": result["canonical"] + " "})


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anomaly-scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
