import ctypes
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fpt
from fpt import cli, tasks
from fpt.cli import _REQUIRED, _SCHEMA, main
from fpt.rng import seeded_rng
from fpt.synthetic import sinusoid, write_manifest, write_series_csv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digest  # noqa: E402  (tools/digest.py: the 18 runs and their digest)


@pytest.fixture
def workspace(tmp_path):
    """Manifest + CSV fixtures + a forecast run config."""
    return _make_workspace(tmp_path)


def _make_workspace(tmp_path):
    write_series_csv(tmp_path / "sine.csv", sinusoid(700, 24.0))
    shifted = sinusoid(700, 24.0, phase=1.1)
    write_series_csv(tmp_path / "shifted.csv", shifted)
    write_manifest(
        tmp_path / "manifest.json",
        {
            "sine": {"path": "sine.csv", "frequency": "hourly", "split": [0.7, 0.1, 0.2]},
            "shifted": {"path": "shifted.csv", "frequency": "hourly", "split": [0.7, 0.1, 0.2]},
        },
    )
    config = {
        "task": "forecast",
        "dataset": {"manifest": str(tmp_path / "manifest.json"), "name": "sine"},
        "window": {"lookback": 48, "horizon": 12, "stride": 2},
        "patch": {"patch_len": 8, "stride": 4},
        "backbone": {"n_layers": 1, "d_model": 16, "n_heads": 2, "d_ff": 32},
        "train": {
            "epochs": 2,
            "batch_size": 64,
            "learning_rate": 0.001,
            "seed": 5,
            "ablation": "no_pretrain",
        },
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, cfg_path, config


def _strip_timestamp(report_path):
    obj = json.loads(report_path.read_text())
    obj["metadata"].pop("timestamp", None)
    return json.dumps(obj, sort_keys=True)


def _with(config: dict, updates: dict) -> dict:
    """A copy of config with nested sections updated key by key."""
    out = json.loads(json.dumps(config))
    for key, value in updates.items():
        if isinstance(value, dict):
            out[key] = {**out.get(key, {}), **value}
        else:
            out[key] = value
    return out


class TestTrainCommand:
    def test_smoke_writes_report_and_weights(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        out = tmp / "out"
        code = main(["train", "--config", str(cfg_path), "--output", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        scopes = [r["scope"] for r in report["rows"]]
        assert "O=12" in scopes and "avg" in scopes
        assert "MSE" in report["rows"][0]["metrics"]
        assert (out / "report.csv").exists()
        assert (out / "model" / "manifest.json").exists()
        assert (out / "model" / "weights.bin").exists()

    def test_missing_weights_for_fpt_exits_2(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        config["train"]["ablation"] = "fpt"
        cfg_path.write_text(json.dumps(config))
        code = main(["train", "--config", str(cfg_path), "--output", str(tmp / "o")])
        assert code == 2
        assert "MissingWeights" in capsys.readouterr().err

    def test_rerun_requires_overwrite_then_identical(self, workspace):
        tmp, cfg_path, _ = workspace
        out = tmp / "out"
        assert main(["train", "--config", str(cfg_path), "--output", str(out)]) == 0
        first = _strip_timestamp(out / "report.json")
        assert main(["train", "--config", str(cfg_path), "--output", str(out)]) == 2
        assert (
            main(["train", "--config", str(cfg_path), "--output", str(out), "--overwrite"])
            == 0
        )
        assert _strip_timestamp(out / "report.json") == first

    def test_existing_model_dir_refused_before_any_output(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        out = tmp / "out"
        (out / "model").mkdir(parents=True)
        assert main(["train", "--config", str(cfg_path), "--output", str(out)]) == 2
        assert _error_lines(capsys) == [
            f"error: ConfigError: {out / 'model'} exists; pass --overwrite to replace it"
        ]
        assert sorted(p.name for p in out.iterdir()) == ["model"]

    def test_rerun_refused_before_data_is_loaded(self, workspace, monkeypatch):
        tmp, cfg_path, _ = workspace
        out = tmp / "out"
        assert main(["train", "--config", str(cfg_path), "--output", str(out)]) == 0

        def no_load(*args):
            raise AssertionError("a refused run loaded data")

        monkeypatch.setattr(cli, "load_from_manifest", no_load)
        assert main(["train", "--config", str(cfg_path), "--output", str(out)]) == 2

    def test_config_error_messages(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        del config["window"]
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["train", "--config", str(bad), "--output", str(tmp / "o2")]) == 2
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, updates, where",
        [
            ("train", {"backbone": {"dropout": "x"}}, "config.backbone.dropout"),
            ("train", {"backbone": {"causal": "yes"}}, "config.backbone.causal"),
            ("train", {"backbone": {"max_tokens": "64"}}, "config.backbone.max_tokens"),
            ("train", {"train": {"early_stop_patience": "3"}}, "config.train.early_stop_patience"),
            ("train", {"train": {"seed": 1.5}}, "config.train.seed"),
            ("train", {"train": {"ablation": 3}}, "config.train.ablation"),
            ("train", {"window": {"stride": "x"}}, "config.window.stride"),
            ("train", {"revin_eps": "x"}, "config.revin_eps"),
            ("anomaly", {"anomaly": {"point_adjust": "yes"}}, "config.anomaly.point_adjust"),
            ("anomaly", {"anomaly": {"stride": "8"}}, "config.anomaly.stride"),
            (
                "impute",
                {"imputation": {"mask_ratios": [0.5], "stride": 2.5}},
                "config.imputation.stride",
            ),
            ("fewshot", {"fewshot": {"percent": 0.5, "position": 1}}, "config.fewshot.position"),
            (
                "zeroshot",
                {"zeroshot": {"source": "sine", "target": "shifted", "metric": 5}},
                "config.zeroshot.metric",
            ),
        ],
    )
    def test_ill_typed_optional_key_exits_2(self, workspace, capsys, command, updates, where):
        tmp, cfg_path, config = workspace
        cfg_path.write_text(json.dumps(_with(config, updates)))
        assert main([command, "--config", str(cfg_path), "--output", str(tmp / "o")]) == 2
        assert f"error: ConfigError: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "updates, message",
        [
            ({"window": {"lookback": -5}}, "lookback must be >= 1"),
            ({"backbone": {"d_model": 8, "n_heads": 3}}, "n_heads must divide d_model"),
            ({"train": {"ablation": "nope"}}, "ablation must be one of"),
            ({"revin_eps": -1.0}, "revin_eps must be nonnegative"),
        ],
    )
    def test_invalid_config_value_exits_2(self, workspace, capsys, updates, message):
        tmp, cfg_path, config = workspace
        cfg_path.write_text(json.dumps(_with(config, updates)))
        assert main(["train", "--config", str(cfg_path), "--output", str(tmp / "o")]) == 2
        assert f"error: ConfigError: config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "split, lookback, message",
        [
            ([0.5, 0.1, 0.1], 48, "ConfigError: manifest"),
            ([0.7, 0.1, 0.2], 480, "InsufficientData: train segment"),
        ],
        ids=["split-not-summing-to-1", "lookback-beyond-train-split"],
    )
    def test_unusable_data_exits_2(self, workspace, capsys, split, lookback, message):
        tmp, cfg_path, config = workspace
        write_manifest(tmp / "manifest.json", {"sine": {"path": "sine.csv", "split": split}})
        cfg_path.write_text(json.dumps(_with(config, {"window": {"lookback": lookback}})))
        assert main(["train", "--config", str(cfg_path), "--output", str(tmp / "o")]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0], err

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("config", "ConfigError: config"),
            ("manifest", "FormatError: manifest"),
            ("csv", "FormatError:"),
        ],
    )
    def test_non_utf8_input_exits_2(self, workspace, capsys, kind, message):
        tmp, cfg_path, _ = workspace
        target = {"config": cfg_path, "manifest": tmp / "manifest.json", "csv": tmp / "sine.csv"}
        raw = target[kind].read_bytes()
        target[kind].write_bytes(raw[:1] + b"\xff" + raw[1:])
        assert main(["train", "--config", str(cfg_path), "--output", str(tmp / "o")]) == 2
        errors = _error_lines(capsys)
        assert len(errors) == 1 and message in errors[0] and "utf-8" in errors[0], errors

    def test_eval_uses_saved_weights(self, workspace):
        tmp, cfg_path, _ = workspace
        out = tmp / "out"
        assert main(["train", "--config", str(cfg_path), "--output", str(out)]) == 0
        out2 = tmp / "eval"
        code = main(
            [
                "eval",
                "--config",
                str(cfg_path),
                "--weights",
                str(out / "model"),
                "--output",
                str(out2),
            ]
        )
        assert code == 0
        trained = json.loads((out / "report.json").read_text())
        evaluated = json.loads((out2 / "report.json").read_text())
        t = next(r for r in trained["rows"] if r["scope"] == "O=12")["metrics"]["MSE"]
        e = next(r for r in evaluated["rows"] if r["scope"] == "O=12")["metrics"]["MSE"]
        assert e == pytest.approx(t, rel=1e-12)

    def test_eval_rejects_corrupt_weights(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        model = tmp / "out" / "model"
        assert main(["train", "--config", str(cfg_path), "--output", str(tmp / "out")]) == 0
        blob = bytearray((model / "weights.bin").read_bytes())
        blob[:4] = np.array([np.nan], dtype="<f4").tobytes()
        (model / "weights.bin").write_bytes(bytes(blob))
        argv = ["eval", "--config", str(cfg_path), "--weights", str(model)]
        assert main(argv + ["--output", str(tmp / "e1")]) == 3
        assert "error: NumericalFailure:" in capsys.readouterr().err
        manifest = json.loads((model / "manifest.json").read_text())
        del manifest["tensors"][0]["offset"]
        (model / "manifest.json").write_text(json.dumps(manifest))
        assert main(argv + ["--output", str(tmp / "e2")]) == 2
        assert "error: FormatError:" in capsys.readouterr().err

    def test_eval_non_finite_prediction_exits_3(self, workspace, capsys, monkeypatch):
        tmp, cfg_path, _ = workspace
        assert main(["train", "--config", str(cfg_path), "--output", str(tmp / "out")]) == 0
        real_predict = tasks.predict

        def one_nan(store, cfg, tokens):
            out = real_predict(store, cfg, tokens).copy()
            out.flat[0] = np.nan
            return out

        monkeypatch.setattr(tasks, "predict", one_nan)
        capsys.readouterr()
        argv = ["eval", "--config", str(cfg_path), "--weights", str(tmp / "out" / "model")]
        assert main(argv + ["--output", str(tmp / "e")]) == 3
        message = "error: NumericalFailure: model output holds 1 non-finite values"
        assert _error_lines(capsys) == [message]
        assert not (tmp / "e" / "report.json").exists()


@pytest.fixture(scope="class")
def saved_model(tmp_path_factory):
    """A workspace and a model trained on it, shared by one test class."""
    tmp, cfg_path, _ = _make_workspace(tmp_path_factory.mktemp("saved"))
    assert main(["train", "--config", str(cfg_path), "--output", str(tmp / "out")]) == 0
    return cfg_path, tmp / "out" / "model"


class TestWeightContainerFuzz:
    """Damaged weight containers read through ``fpt eval``: a malformed
    container exits 2 and a non-finite weight exits 3, never a traceback."""

    @pytest.fixture
    def damaged(self, saved_model, tmp_path, capsys):
        cfg_path, model = saved_model
        copy = tmp_path / "model"
        shutil.copytree(model, copy)
        capsys.readouterr()

        def run_eval() -> tuple[int, list[str]]:
            argv = ["eval", "--config", str(cfg_path), "--weights", str(copy)]
            code = main(argv + ["--output", str(tmp_path / "e"), "--overwrite"])
            return code, _error_lines(capsys)

        return copy, run_eval

    @pytest.mark.parametrize(
        "keep",
        [lambda n: 0, lambda n: n // 2, lambda n: n - 4, lambda n: n - 1],
        ids=["empty", "half", "one-float-short", "one-byte-short"],
    )
    def test_truncated_blob_exits_2(self, damaged, keep):
        model, run_eval = damaged
        blob = (model / "weights.bin").read_bytes()
        (model / "weights.bin").write_bytes(blob[: keep(len(blob))])
        code, errors = run_eval()
        assert code == 2 and len(errors) == 1 and errors[0].startswith("error: FormatError:")

    @pytest.mark.parametrize("replacement", [b"#", b"\xff"])
    def test_corrupted_manifest_byte_exits_2(self, damaged, replacement):
        model, run_eval = damaged
        text = (model / "manifest.json").read_bytes()
        positions = [i for i in range(len(text)) if not text[i : i + 1].isspace()]
        for i in positions[:: max(1, len(positions) // 24)]:
            (model / "manifest.json").write_bytes(text[:i] + replacement + text[i + 1 :])
            code, errors = run_eval()
            assert code == 2 and len(errors) == 1, (i, text[i : i + 1], errors)

    @pytest.mark.parametrize(
        "which, shift",
        [(0, 1), (0, 4)] + [(w, s) for w in (5, -1) for s in (-4, -1, 1, 4)],
    )
    def test_shifted_offset_exits_2(self, damaged, which, shift):
        """``which`` indexes the tensors in blob order; the first sits at 0."""
        model, run_eval = damaged
        manifest = json.loads((model / "manifest.json").read_text())
        entry = sorted(manifest["tensors"], key=lambda e: e["offset"])[which]
        entry["offset"] += shift
        (model / "manifest.json").write_text(json.dumps(manifest))
        code, errors = run_eval()
        assert code == 2 and len(errors) == 1 and errors[0].startswith("error: FormatError:")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 0.5, -1])
    def test_non_finite_weight_exits_3(self, damaged, value, where):
        model, run_eval = damaged
        blob = np.frombuffer((model / "weights.bin").read_bytes(), dtype="<f4").copy()
        blob[int(where * blob.size) if where >= 0 else where] = value
        (model / "weights.bin").write_bytes(blob.tobytes())
        code, errors = run_eval()
        assert code == 3 and len(errors) == 1
        assert errors[0].startswith("error: NumericalFailure:")


def _stamped_rows(n: int) -> list[list[str]]:
    """Rows of an hourly series: an ISO-8601 stamp, a value and a 0/1 label."""
    values = sinusoid(n, 24.0)
    stamps = [f"2020-01-{1 + i // 24:02d}T{i % 24:02d}:00:00" for i in range(n)]
    return [[stamps[i], repr(float(values[i])), str(int(i % 97 == 50))] for i in range(n)]


class TestIngestionFuzz:
    """Malformed CSVs and manifest entries read through the CLI: each exits 2
    with one ``error:`` line, never a traceback or a silently misread column."""

    @pytest.fixture
    def ingest(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        config["dataset"] = {"manifest": str(tmp / "fuzz.json"), "name": "d"}
        config["train"]["epochs"] = 1
        cfg_path.write_text(json.dumps(config))

        def run(command: str, header: str, rows: list[list[str]], entry) -> list[str]:
            lines = [header] + [",".join(row) for row in rows]
            (tmp / "d.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            write_manifest(tmp / "fuzz.json", {"d": entry})
            argv = [command, "--config", str(cfg_path), "--output", str(tmp / "o")]
            code = main(argv + ["--overwrite"])
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert code == 2 and len(errors) == 1, (code, err)
            assert errors[0].startswith("error: FormatError:"), errors
            return errors

        return run

    _ANOMALY = {"path": "d.csv", "label_column": "label"}

    @pytest.mark.parametrize(
        "column, cell",
        [(0, "2020-01-09T08:00:00+00:00"), (0, "200"), (2, "2"), (2, "-1"), (2, "0.7")],
        ids=["naive-and-offset-stamps", "number-among-iso-stamps", "label-2", "label--1",
             "label-0.7"],
    )
    def test_bad_cell_exits_2(self, ingest, column, cell):
        rows = _stamped_rows(400)
        rows[200][column] = cell
        (error,) = ingest("anomaly", "t,x,label", rows, self._ANOMALY)
        assert "row 202" in error

    def test_blank_first_row_exits_2(self, ingest):
        """The timestamp check reads the first row's first cell."""
        (error,) = ingest("anomaly", "t,x,label", [[]] + _stamped_rows(400), self._ANOMALY)
        assert "row 2 has 0 cells" in error

    def test_repeated_value_header_exits_2(self, ingest):
        rows = [[s, v, v, label] for s, v, label in _stamped_rows(400)]
        (error,) = ingest("anomaly", "t,x,x,label", rows, self._ANOMALY)
        assert "'x' is repeated" in error

    @pytest.mark.parametrize(
        "entry",
        [
            5,
            {"path": 5},
            {**_ANOMALY, "split": [float("nan"), 0.1, 0.2]},
            {**_ANOMALY, "split": ["a", "b", "c"]},
            {**_ANOMALY, "split": 5},
            {**_ANOMALY, "split": [0.7, 0.1, 0.2, 0.0]},
            {**_ANOMALY, "split": {"train": 0.7}},
            {**_ANOMALY, "label_column": ["label"]},
        ],
        ids=json.dumps,
    )
    def test_malformed_manifest_entry_exits_2(self, ingest, entry):
        ingest("anomaly", "t,x,label", _stamped_rows(400), entry)

    @pytest.mark.parametrize(
        "labels", [["a", 1, 0, 1], [0.7, 1, 0, 1], [True, 1, 0, 1], [-1, 1, 0, 1], "0101"],
        ids=json.dumps,
    )
    def test_non_integer_class_labels_exit_2(self, ingest, labels):
        from fpt.synthetic import classification_values

        values, _ = classification_values(4, 64, seeded_rng(1))
        rows = [[repr(float(c)) for c in row] for row in values]
        entry = {"path": "d.csv", "split": [0.5, 0.25, 0.25], "labels": labels}
        ingest("classify", "a,b,c,d", rows, entry)


def test_window_variance_beyond_float64_exits_2(workspace, capsys):
    """Finite values whose squares overflow float64 (about 1e160) are an
    input error: exit 2 with one ``error:`` line and no numpy warning."""
    tmp, cfg_path, config = workspace
    rows = [[t, repr(float(v) * 1e160), label] for t, v, label in _stamped_rows(400)]
    lines = ["t,x,label"] + [",".join(row) for row in rows]
    (tmp / "d.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(tmp / "big.json", {"d": {"path": "d.csv", "label_column": "label"}})
    config["dataset"] = {"manifest": str(tmp / "big.json"), "name": "d"}
    config["train"]["epochs"] = 1
    cfg_path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["anomaly", "--config", str(cfg_path), "--output", str(tmp / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("error: InvalidInput:"), (code, err)
    assert not caught, [str(w.message) for w in caught]


def test_training_overflow_exits_3(workspace, capsys):
    """A c09-shaped forecast on a sine times 1e100 passes ingestion, but
    Adam's squared gradient overflows float64.  Unguarded, training stalled
    silently and exited 0 after a raw numpy warning; every command now runs
    with overflow raising, so it exits 3 with one ``error:`` line."""
    tmp, cfg_path, config = workspace
    write_series_csv(tmp / "huge.csv", 1e100 * sinusoid(1200, 24.0))
    write_manifest(tmp / "huge.json", {"huge": {"path": "huge.csv"}})
    config["dataset"] = {"manifest": str(tmp / "huge.json"), "name": "huge"}
    config["window"] = {"lookback": 96, "horizon": 24, "stride": 1}
    config["patch"] = {"patch_len": 16, "stride": 8}
    config["backbone"] = {"n_layers": 2, "d_model": 64, "n_heads": 4, "d_ff": 128}
    config["train"]["epochs"] = 1
    cfg_path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--config", str(cfg_path), "--output", str(tmp / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == 3 and len(err) == 1, (code, err)
    assert err[0].startswith("error: NumericalFailure: floating-point overflow"), err
    assert not caught, [str(w.message) for w in caught]
    assert not (tmp / "o" / "report.json").exists()


def _has_mallopt() -> bool:
    return sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt")


# Minor page faults per all-trainable training step at the c09 shape (B=64,
# 11 tokens, d_model 64, 2 layers, d_ff 128), after the CLI's heap policy, in
# one process or, with the argument "two", split with a worker; then the
# number of steps the worker took.
_STEP_FAULTS = """
import contextlib
import resource
import sys
from fpt import worker
from fpt.backbone import (
    AdamState, BackboneConfig, Batch, FreezeMask, adam_step, init_random, loss_and_grads,
)
from fpt.rng import seeded_rng

worker._keep_heap()
cfg = BackboneConfig(
    n_layers=2, d_model=64, n_heads=4, d_ff=128, max_tokens=512,
    patch_len=16, head_in=11 * 64, head_out=24,
)
rng = seeded_rng(0)
store = init_random(cfg, rng.child(1))
batch = Batch(tokens=rng.normal((64, 11, 16)), targets=rng.normal((64, 24)))
mask, opt = FreezeMask.all_trainable(store), AdamState(lr=1e-3)
split, start = [], worker._Worker.start
worker._Worker.start = lambda self, *args: split.append(1) or start(self, *args)
two = sys.argv[1] == "two"
with worker.fit_on_two_cores(store, cfg, mask.trainable, 64, 11) if two else contextlib.nullcontext():
    for step in range(23):
        if step == 3:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _, grads = loss_and_grads(store, cfg, batch, wanted=mask.trainable)
        store = adam_step(store, grads, opt, mask.trainable)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20, len(split))
"""

_two_cpus = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs fork and two usable CPUs",
)


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc mallopt on Linux")
@pytest.mark.parametrize("cores", ["one", pytest.param("two", marks=_two_cpus)])
def test_training_steps_reuse_the_heap(cores):
    """With glibc's defaults every step re-faults its freed backward tape
    (about a thousand minor faults per step); the pinned heap policy keeps
    it resident, also in the parent of a step split with a worker."""
    src = str(Path(fpt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", _STEP_FAULTS, cores],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    faults, split = run.stdout.split()
    assert float(faults) < 100
    assert int(split) == (23 if cores == "two" else 0)


_TASK_COMMAND = {
    "forecast": "train",
    "imputation": "impute",
    "classification": "classify",
    "anomaly": "anomaly",
    "fewshot": "fewshot",
    "zeroshot": "zeroshot",
    "ablate": "ablate",
}

# The sections each task needs beyond the workspace forecast config.
_TASK_SECTIONS = {
    "imputation": {"imputation": {"mask_ratios": [0.5]}},
    "fewshot": {"fewshot": {"percent": 0.5}},
    "zeroshot": {"zeroshot": {"source": "sine", "target": "shifted"}},
}

_ILL_TYPED = {int: 1.5, float: "x", bool: 1, str: 5, list: ["x"]}


def _error_lines(capsys) -> list[str]:
    err = capsys.readouterr().err
    return [line for line in err.splitlines() if line.startswith("error:")]


def _run_task(tmp, cfg_path, task: str, config) -> int:
    cfg_path.write_text(json.dumps(config))
    argv = [_TASK_COMMAND[task], "--config", str(cfg_path), "--output", str(tmp / "o")]
    return main(argv + ["--synthetic-pretrain"] * (task == "ablate"))


def _leaf(config: dict, path: str) -> tuple[dict, str]:
    """The section holding a dotted path's last key (created if absent), and that key."""
    *sections, key = path.split(".")
    for name in sections:
        config = config.setdefault(name, {})
    return config, key


# A value for every required _SCHEMA row; the manifest is written per test.
_REQUIRED_VALUES = {
    "zeroshot.source": "sine",
    "zeroshot.target": "shifted",
    "window.lookback": 48,
    "window.horizon": 12,
    "patch.patch_len": 8,
    "patch.stride": 4,
    "backbone.n_layers": 1,
    "backbone.d_model": 16,
    "backbone.n_heads": 2,
    "backbone.d_ff": 32,
    "train.epochs": 0,
    "train.batch_size": 64,
    "train.learning_rate": 0.001,
    "imputation.mask_ratios": [0.5],
    "fewshot.percent": 0.5,
}
_TASK_DATASET = {"classification": "waves", "anomaly": "spiky"}


def _write_task_datasets(tmp) -> Path:
    """The workspace manifest plus a classification and an anomaly dataset,
    so every task has a dataset to run on."""
    from fpt.synthetic import classification_values

    _, _, config = _make_workspace(tmp)
    manifest = Path(config["dataset"]["manifest"])
    entries = json.loads(manifest.read_text())
    values, labels = classification_values(40, 64, seeded_rng(1))
    write_series_csv(tmp / "waves.csv", values)
    entries["waves"] = {"path": "waves.csv", "split": [0.6, 0.2, 0.2], "labels": labels.tolist()}
    spiky, spikes = sinusoid(600, 24.0), np.zeros(600, dtype=np.int64)
    spiky[550], spikes[550] = spiky[550] + 8.0, 1
    write_series_csv(tmp / "spiky.csv", spiky, labels=spikes)
    entries["spiky"] = {"path": "spiky.csv", "label_column": "label"}
    write_manifest(manifest, entries)
    return manifest


def _task_hash(tmp, task: str, config, out: str) -> tuple[int, str | None]:
    """The exit code of one task run and its report's config hash."""
    cfg_path = tmp / f"{out}.json"
    cfg_path.write_text(json.dumps(config))
    argv = [_TASK_COMMAND[task], "--config", str(cfg_path), "--output", str(tmp / out)]
    code = main(argv + ["--synthetic-pretrain"] * (task == "ablate"))
    report = tmp / out / ("ablation.json" if task == "ablate" else "report.json")
    return code, json.loads(report.read_text())["metadata"]["config_hash"] if code == 0 else None


class TestConfigSchema:
    @pytest.mark.parametrize(
        "path, kind, task",
        [pytest.param(p, k, t[0], id=f"{p}-{t[0]}") for p, k, _, t in _SCHEMA],
    )
    def test_ill_typed_value_exits_2(self, workspace, capsys, path, kind, task):
        tmp, cfg_path, config = workspace
        config = _with(config, _TASK_SECTIONS.get(task, {}))
        node, key = _leaf(config, path)
        node[key] = _ILL_TYPED[kind]
        assert _run_task(tmp, cfg_path, task, config) == 2
        errors = _error_lines(capsys)
        assert len(errors) == 1
        assert errors[0].startswith(f"error: ConfigError: config.{path}: expected")

    @pytest.mark.parametrize(
        "path, task",
        [pytest.param(p, t[0], id=f"{p}-{t[0]}") for p, _, d, t in _SCHEMA if d is _REQUIRED],
    )
    def test_missing_required_key_exits_2(self, workspace, capsys, path, task):
        tmp, cfg_path, config = workspace
        config = _with(config, _TASK_SECTIONS.get(task, {}))
        node, key = _leaf(config, path)
        del node[key]
        assert _run_task(tmp, cfg_path, task, config) == 2
        errors = _error_lines(capsys)
        where = ".".join(["config", *path.split(".")[:-1]])
        assert errors == [f"error: ConfigError: {where}: missing required key {key!r}"]

    @pytest.mark.parametrize(
        "task, updates",
        [
            ("fewshot", {"fewshot": {"percent": 0}}),
            ("fewshot", {"fewshot": {"percent": 0.5, "position": "middle"}}),
            ("zeroshot", {"zeroshot": {"source": "sine", "target": "shifted", "metric": "foo"}}),
            ("anomaly", {"anomaly": {"quantile": 1.5}}),
            ("imputation", {"imputation": {"mask_ratios": [0.0]}}),
            ("imputation", {"imputation": {"mask_ratios": [0.5], "stride": -3}}),
            ("imputation", {"imputation": {"mask_ratios": [0.5], "stride": 0}}),
            ("forecast", {"train": {"batch_size": 0}}),
            ("forecast", {"train": {"learning_rate": -1}}),
            ("forecast", {"train": {"epochs": -1}}),
            ("forecast", {"weights": 5}),
            ("ablate", {"donor": 3}),
            ("ablate", {"donor": {"length": "x"}}),
            ("ablate", {"donor": {"n_channels": 0}}),
            ("forecast", {"revin_eps": math.nan}),
            ("forecast", {"revin_eps": math.inf}),
            ("ablate", {"donor": {"noise": math.nan}}),
            ("ablate", {"donor": {"noise": -0.05}}),
            ("imputation", {"imputation": {"mask_ratios": [0.5, math.nan]}}),
            ("forecast", {"train": {"seed": 2**64}}),
            ("forecast", {"train": {"seed": -1}}),
        ],
        ids=lambda x: json.dumps(x) if isinstance(x, dict) else x,
    )
    def test_out_of_range_value_exits_2(self, workspace, capsys, task, updates):
        tmp, cfg_path, config = workspace
        assert _run_task(tmp, cfg_path, task, _with(config, updates)) == 2
        assert len(_error_lines(capsys)) == 1

    def test_integer_beyond_float_range_exits_2(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        config = _with(config, {"train": {"learning_rate": 2**1024}})
        assert _run_task(tmp, cfg_path, "forecast", config) == 2
        errors = _error_lines(capsys)
        assert errors[0].startswith("error: ConfigError: config.train.learning_rate: expected")

    def test_non_object_config_exits_2(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        assert _run_task(tmp, cfg_path, "forecast", []) == 2
        assert _error_lines(capsys) == ["error: ConfigError: config: expected an object, got list"]

    @pytest.mark.parametrize("task", _TASK_COMMAND)
    def test_unread_keys_change_nothing(self, tmp_path, task):
        """A config holding only the rows a task resolves runs, and an
        ill-typed value under every other row's key changes neither the
        exit code nor the config hash: the task reads none of them."""
        manifest = _write_task_datasets(tmp_path)
        values = {**_REQUIRED_VALUES, "dataset.manifest": str(manifest)}
        values["dataset.name"] = _TASK_DATASET.get(task, "sine")
        # ablate runs the config's task, forecast by default, and reads the donor rows
        readers = {"forecast", "ablate"} if task == "ablate" else {task}
        minimal, unread = {}, {}
        for path, kind, default, tasks in _SCHEMA:
            if readers.isdisjoint(tasks):
                node, key = _leaf(unread, path)
                node[key] = _ILL_TYPED[kind]
            elif default is _REQUIRED:
                node, key = _leaf(minimal, path)
                node[key] = values[path]
        first = _task_hash(tmp_path, task, minimal, "minimal")
        assert first[0] == 0
        assert _task_hash(tmp_path, task, _with(minimal, unread), "unread") == first

    def test_null_is_not_a_default_unless_the_default_is_null(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        config["weights"] = None
        assert _run_task(tmp, cfg_path, "forecast", _with(config, {"train": {"epochs": 1}})) == 0
        config["backbone"]["dropout"] = None
        assert _run_task(tmp, cfg_path, "forecast", config) == 2
        assert "config.backbone.dropout: expected a number" in _error_lines(capsys)[0]


# The values a config mutation gives one leaf
_MUTANTS = (None, -1, 0, 1e308, math.nan, "x", [], {}, True, 0.5, 10**6)


def _leaves(node: dict, prefix: str = "") -> list[str]:
    """The dotted path of every value under ``node`` that is not an object."""
    paths = []
    for key, value in node.items():
        paths += _leaves(value, f"{prefix}{key}.") if isinstance(value, dict) else [prefix + key]
    return paths


def _non_finite(node, path: str = "") -> list[str]:
    """The dotted path of every NaN or infinity in a parsed JSON value."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in _non_finite(value, f"{path}.{key}")]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in _non_finite(value, f"{path}.{i}")]
    return [path] if isinstance(node, float) and not math.isfinite(node) else []


def _mutant_fault(argv: list[str], out: Path, case: str, capsys) -> str | None:
    """What is wrong with one mutated run, or None.  A run must exit 0 with
    only finite numbers in its report, or exit 2 or 3 with one ``error:
    <Type>:`` line and no traceback.  The one NaN allowed is ``prf1``'s
    recall and F1 on a test split without an anomaly, which the report's
    warnings record."""
    try:
        code = main(argv + ["--output", str(out)])
    except Exception as exc:  # reported with its case, not as the test's own error
        return f"{case}: raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 0:
        report = out / ("ablation.json" if argv[0] == "ablate" else "report.json")
        report = json.loads(report.read_text())
        bad = _non_finite(report)
        if any("recall and F1 undefined" in w for w in report["metadata"]["warnings"]):
            bad = [p for p in bad if p.rsplit(".", 1)[1] not in ("recall", "F1")]
        return f"{case}: exit 0 with non-finite {bad}" if bad else None
    if code not in (2, 3) or "Traceback" in err or len(errors) != 1:
        return f"{case}: exit {code}, stderr {err!r}"
    if not re.match(r"error: [A-Za-z]+: ", errors[0]):
        return f"{case}: untyped {errors[0]!r}"
    return None


def _mutated(config: dict, path: str, value) -> dict:
    """A copy of config with the leaf at a dotted path (created if absent) set to value."""
    config = json.loads(json.dumps(config))
    node, key = _leaf(config, path)
    node[key] = value
    return config


def _task_configs(tmp_path) -> dict:
    """The workspace run config of every task at one epoch, on the datasets
    of ``_write_task_datasets``."""
    _write_task_datasets(tmp_path)
    base = json.loads((tmp_path / "run.json").read_text())
    configs = {
        task: _with(base, {**_TASK_SECTIONS.get(task, {}), "train": {"epochs": 1}})
        for task in _TASK_COMMAND
    }
    for task, name in _TASK_DATASET.items():
        configs[task]["dataset"]["name"] = name
    return configs


def test_config_mutations_exit_cleanly(tmp_path, capsys):
    """A seeded sample of 100 single-leaf mutations of the workspace run
    config, across the task commands at one epoch, each leaf set to one of
    ``_MUTANTS``; every run passes ``_mutant_fault``."""
    configs = _task_configs(tmp_path)
    cases = [
        (task, path, value)
        for task, config in configs.items()
        for path in _leaves(config)
        for value in _MUTANTS
    ]
    faults = []
    for i in seeded_rng(0).permutation(len(cases))[:100]:
        task, path, value = cases[i]
        cfg_path = tmp_path / f"m{i}.json"
        cfg_path.write_text(json.dumps(_mutated(configs[task], path, value)))
        argv = [_TASK_COMMAND[task], "--config", str(cfg_path)]
        argv += ["--synthetic-pretrain"] * (task == "ablate")
        faults.append(_mutant_fault(argv, tmp_path / f"m{i}", f"{task} {path}={value!r}", capsys))
    assert [fault for fault in faults if fault] == []


# The _SCHEMA rows with a default that the workspace config leaves out
_DEFAULTED_ROWS = (
    "revin_eps",
    "backbone.dropout",
    "backbone.causal",
    "backbone.max_tokens",
    "donor.length",
    "donor.n_channels",
    "donor.noise",
    "anomaly.quantile",
    "anomaly.point_adjust",
    "anomaly.stride",
    "classification.n_classes",
    "imputation.stride",
    "fewshot.position",
    "zeroshot.metric",
)


def _defaulted_row_cases(configs: dict) -> list[tuple[str, str, str, object]]:
    """(command, task, row, value) for every run of the defaulted-row probe:
    every task command, and ablate on each task's config, with each row of
    ``_DEFAULTED_ROWS`` that the run reads set to each of ``_MUTANTS``."""
    readers = {path: tasks for path, _, _, tasks in _SCHEMA}
    runs = [(_TASK_COMMAND[task], task) for task in configs if task != "ablate"]
    runs += [("ablate", task) for task in configs if task != "ablate"]
    return [
        (command, task, path, value)
        for command, task in runs
        for path in _DEFAULTED_ROWS
        if task in readers[path] or command in readers[path]
        for value in _MUTANTS
    ]


def test_defaulted_row_mutations_exit_cleanly(tmp_path, capsys):
    """The probe of ``test_config_mutations_exit_cleanly`` over the
    defaulted rows that the workspace config leaves out: a seeded sample of
    100 of ``_defaulted_row_cases``.  Ablate runs the config's task, on a
    synthetic donor where the task forecasts and on the task command's own
    saved model elsewhere."""
    configs = _task_configs(tmp_path)
    flags = {}
    for task, config in configs.items():
        if task in ("forecast", "fewshot", "zeroshot"):
            flags[task] = ["--synthetic-pretrain"]
        elif task != "ablate":
            cfg_path, out = tmp_path / f"{task}.json", tmp_path / f"{task}-model"
            cfg_path.write_text(json.dumps(config))
            assert main([_TASK_COMMAND[task], "--config", str(cfg_path), "--output", str(out)]) == 0
            flags[task] = ["--weights", str(out / "model")]
    cases = _defaulted_row_cases(configs)
    faults = []
    for i in seeded_rng(0).permutation(len(cases))[:100]:
        command, task, path, value = cases[i]
        cfg_path = tmp_path / f"m{i}.json"
        cfg_path.write_text(json.dumps(_mutated({**configs[task], "task": task}, path, value)))
        argv = [command, "--config", str(cfg_path)] + flags[task] * (command == "ablate")
        case = f"{command} ({task}) {path}={value!r}"
        faults.append(_mutant_fault(argv, tmp_path / f"m{i}", case, capsys))
    assert [fault for fault in faults if fault] == []


class TestTaskCommands:
    def test_zeroshot(self, workspace):
        tmp, cfg_path, config = workspace
        config["zeroshot"] = {"source": "sine", "target": "shifted", "metric": "smape"}
        cfg_path.write_text(json.dumps(config))
        out = tmp / "zs"
        assert main(["zeroshot", "--config", str(cfg_path), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["param_hash_before"] == report["metadata"]["param_hash_after"]
        assert "SMAPE" in report["rows"][0]["metrics"]

    def test_impute(self, workspace):
        tmp, cfg_path, config = workspace
        config["imputation"] = {"mask_ratios": [0.125, 0.5]}
        cfg_path.write_text(json.dumps(config))
        out = tmp / "imp"
        assert main(["impute", "--config", str(cfg_path), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        scopes = [r["scope"] for r in report["rows"]]
        assert scopes == ["ratio=0.125", "ratio=0.5", "avg"]

    def test_impute_non_numeric_ratio_exits_2(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        for bad in ("x", True):
            config["imputation"] = {"mask_ratios": [0.5, bad]}
            cfg_path.write_text(json.dumps(config))
            assert main(["impute", "--config", str(cfg_path), "--output", str(tmp / "imp")]) == 2
            assert "error: ConfigError: config.imputation.mask_ratios" in capsys.readouterr().err

    def test_anomaly_non_numeric_quantile_exits_2(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        for bad in ("x", True, None):
            config["anomaly"] = {"quantile": bad}
            cfg_path.write_text(json.dumps(config))
            assert main(["anomaly", "--config", str(cfg_path), "--output", str(tmp / "an")]) == 2
            assert "error: ConfigError: config.anomaly.quantile" in capsys.readouterr().err

    def test_classify_non_integer_n_classes_exits_2(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        for bad in ("3", 2.0, True):
            config["classification"] = {"n_classes": bad}
            cfg_path.write_text(json.dumps(config))
            assert main(["classify", "--config", str(cfg_path), "--output", str(tmp / "cls")]) == 2
            assert "error: ConfigError: config.classification.n_classes" in capsys.readouterr().err

    def test_fewshot(self, workspace):
        tmp, cfg_path, config = workspace
        config["fewshot"] = {"percent": 0.5}
        cfg_path.write_text(json.dumps(config))
        out = tmp / "fs"
        assert main(["fewshot", "--config", str(cfg_path), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["percent"] == 0.5

    def test_classify(self, workspace):
        from fpt.synthetic import classification_values

        tmp, cfg_path, config = workspace
        values, labels = classification_values(40, 64, seeded_rng(1))
        write_series_csv(tmp / "waves.csv", values)
        write_manifest(
            tmp / "manifest.json",
            {
                "waves": {
                    "path": "waves.csv",
                    "split": [0.6, 0.2, 0.2],
                    "labels": [int(x) for x in labels],
                }
            },
        )
        config["dataset"]["name"] = "waves"
        config["window"] = {"lookback": 64, "horizon": 0}
        config["train"]["epochs"] = 1
        cfg_path.write_text(json.dumps(config))
        out = tmp / "cls"
        assert main(["classify", "--config", str(cfg_path), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "accuracy" in report["rows"][0]["metrics"]

    @staticmethod
    def _classify_ten_series(tmp, cfg_path, config, split) -> int:
        from fpt.synthetic import classification_values

        values, labels = classification_values(10, 64, seeded_rng(1))
        write_series_csv(tmp / "ten.csv", values)
        entry = {"path": "ten.csv", "split": split, "labels": labels.tolist()}
        write_manifest(tmp / "manifest.json", {"ten": entry})
        config["dataset"]["name"] = "ten"
        config["train"]["epochs"] = 1
        cfg_path.write_text(json.dumps(config))
        return main(["classify", "--config", str(cfg_path), "--output", str(tmp / "cls")])

    @pytest.mark.parametrize(
        "split", [[0.9, 0.1, 0.0], [0.0, 0.5, 0.5]], ids=["no-test", "no-train"]
    )
    def test_classify_without_train_or_test_series_exits_2(self, workspace, capsys, split):
        tmp, cfg_path, config = workspace
        assert self._classify_ten_series(tmp, cfg_path, config, split) == 2
        errors = _error_lines(capsys)
        assert len(errors) == 1 and errors[0].startswith("error: InsufficientData:"), errors
        assert not (tmp / "cls" / "report.json").exists()

    def test_classify_with_empty_val_split_runs(self, workspace):
        tmp, cfg_path, config = workspace
        assert self._classify_ten_series(tmp, cfg_path, config, [0.8, 0.0, 0.2]) == 0
        report = json.loads((tmp / "cls" / "report.json").read_text())
        assert report["metadata"]["n_test"] == 2 and report["metadata"]["history"]["val"] == []

    def test_anomaly(self, workspace):
        tmp, cfg_path, config = workspace
        values = sinusoid(600, 24.0)
        labels = np.zeros(600, dtype=np.int64)
        labels[550] = 1
        values[550] += 8.0
        write_series_csv(tmp / "spiky.csv", values, labels=labels)
        write_manifest(
            tmp / "manifest.json",
            {
                "spiky": {
                    "path": "spiky.csv",
                    "split": [0.7, 0.1, 0.2],
                    "label_column": "label",
                }
            },
        )
        config["dataset"]["name"] = "spiky"
        config["train"]["epochs"] = 1
        cfg_path.write_text(json.dumps(config))
        out = tmp / "an"
        assert main(["anomaly", "--config", str(cfg_path), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        metrics = report["rows"][0]["metrics"]
        assert {"precision", "recall", "F1"} <= set(metrics)

    def test_ablate_with_synthetic_pretrain(self, workspace):
        tmp, cfg_path, config = workspace
        config["train"]["epochs"] = 1
        config["donor"] = {"length": 1024, "n_channels": 2}
        cfg_path.write_text(json.dumps(config))
        out = tmp / "abl"
        code = main(
            [
                "ablate",
                "--config",
                str(cfg_path),
                "--synthetic-pretrain",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "ablation.json").read_text())
        scopes = [r["scope"] for r in report["rows"]]
        assert scopes == ["fpt", "no_freeze", "no_pretrain", "no_pretrain_freeze", "gpt0", "avg"]
        for row in report["rows"]:
            assert set(row["metrics"]) == {"MSE", "MAE"}
            assert all(np.isfinite(v) for v in row["metrics"].values())
        assert report["metadata"]["step0_divergence_fpt_vs_no_freeze"] == 0.0
        assert (out / "donor" / "manifest.json").exists()

    def test_ablate_rerun_leaves_the_donor_untouched(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        out = tmp / "abl"
        argv = ["ablate", "--config", str(cfg_path), "--synthetic-pretrain", "--output", str(out)]
        config["train"]["epochs"] = 1
        config["donor"] = {"length": 512, "n_channels": 1}
        cfg_path.write_text(json.dumps(config))
        assert main(argv) == 0
        donor = (out / "donor" / "weights.bin").read_bytes()
        config["donor"]["length"] = 640  # a different donor, were it trained
        cfg_path.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(argv) == 2
        assert _error_lines(capsys) == [
            f"error: ConfigError: {out / 'ablation.json'} exists; pass --overwrite to replace it"
        ]
        assert (out / "donor" / "weights.bin").read_bytes() == donor

    def test_ablate_without_weights_exits_2(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        code = main(["ablate", "--config", str(cfg_path), "--output", str(tmp / "a2")])
        assert code == 2
        assert "MissingWeights" in capsys.readouterr().err

    def test_ablate_synthetic_pretrain_on_impute_exits_2_writing_nothing(
        self, workspace, capsys, monkeypatch
    ):
        """The synthetic donor is a forecasting model, which an imputation run
        cannot load: ablate refuses before it trains or writes anything."""
        tmp, cfg_path, config = workspace
        config = _with(config, {**_TASK_SECTIONS["imputation"], "task": "imputation"})
        cfg_path.write_text(json.dumps(config))

        def no_donor(*args, **kwargs):
            raise AssertionError("a refused run trained a donor")

        monkeypatch.setattr(cli, "synthetic_pretrain", no_donor)
        out = tmp / "abl"
        argv = ["ablate", "--config", str(cfg_path), "--synthetic-pretrain", "--output", str(out)]
        assert main(argv) == 2
        errors = _error_lines(capsys)
        assert len(errors) == 1 and errors[0].startswith("error: ConfigError: --synthetic-pretrain")
        assert "'imputation'" in errors[0] and "ROADMAP item 1" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", [c for t, c in _TASK_COMMAND.items() if t != "ablate"])
    def test_weights_under_a_random_init_arm_exit_2(self, workspace, capsys, command):
        """Weights named by --weights or by the config, under an arm that
        starts from random weights, exit 2 naming the arm before any data
        is read or anything is written."""
        tmp, cfg_path, config = workspace
        for section in _TASK_SECTIONS.values():
            config = _with(config, section)
        out = tmp / "o"
        for arm in ("no_pretrain", "no_pretrain_freeze", "gpt0"):
            for flags, key in (("--weights", "nowhere"), {}), ((), {"weights": "nowhere"}):
                cfg_path.write_text(json.dumps(_with(config, {"train": {"ablation": arm}, **key})))
                argv = [command, "--config", str(cfg_path), "--output", str(out), *flags]
                assert main(argv) == 2
                errors = _error_lines(capsys)
                assert len(errors) == 1 and errors[0].startswith(f"error: ConfigError: arm {arm!r}")
                assert not out.exists()


@pytest.mark.parametrize("task", [t for t in _TASK_COMMAND if t != "ablate"])
def test_ablate_arms_are_the_task_commands_reports(tmp_path, task):
    """``fpt ablate`` on a task's config runs that task under every arm: an
    arm's row is, bit for bit, the avg row of the task command's report under
    that arm, and its history that report's history.  The forecasting tasks
    take a synthetic donor, the others the task command's own saved model."""
    _write_task_datasets(tmp_path)
    config = json.loads((tmp_path / "run.json").read_text())
    config = _with(config, {**_TASK_SECTIONS.get(task, {}), "task": task, "train": {"epochs": 1}})
    config["dataset"]["name"] = _TASK_DATASET.get(task, "sine")
    cfg_path, command = tmp_path / "task.json", _TASK_COMMAND[task]

    def run(name, out, updates, *flags):
        cfg_path.write_text(json.dumps(_with(config, updates)))
        assert main([name, "--config", str(cfg_path), "--output", str(tmp_path / out), *flags]) == 0
        report = tmp_path / out / ("ablation.json" if name == "ablate" else "report.json")
        return json.loads(report.read_text())

    if task in ("forecast", "fewshot", "zeroshot"):
        ablation = run("ablate", "abl", {}, "--synthetic-pretrain")
        donor = tmp_path / "abl" / "donor"
    else:
        run(command, "own", {})
        donor = tmp_path / "own" / "model"
        ablation = run("ablate", "abl", {}, "--weights", str(donor))
    assert [row["scope"] for row in ablation["rows"]] == [*tasks.ABLATION_ARMS, "avg"]
    for arm, row in zip(tasks.ABLATION_ARMS, ablation["rows"]):
        flags = ("--weights", str(donor)) if arm in ("fpt", "no_freeze") else ()
        alone = run(command, arm, {"train": {"ablation": arm}}, *flags)
        assert json.dumps(row["metrics"]) == json.dumps(alone["rows"][-1]["metrics"])
        history = ablation["metadata"]["history"][arm]
        assert json.dumps(history) == json.dumps(alone["metadata"]["history"])
    assert ablation["metadata"]["step0_divergence_fpt_vs_no_freeze"] == 0.0


# Pairs of runs (command, config updates, flags) on one workspace config.
_SAME_HASH = {
    "rerun": (("train", {}), ("train", {})),
    "default-spelled-out": (("train", {"revin_eps": 1e-5}), ("train", {})),
    "eval-is-train-at-0-epochs-fpt": (("eval", {}), ("train", {"train": {"ablation": "fpt"}})),
    "float-written-as-integer": (
        ("fewshot", {"fewshot": {"percent": 1}}),
        ("fewshot", {"fewshot": {"percent": 1.0}}),
    ),
}
_OTHER_HASH = {
    "fewshot-percent": (
        ("fewshot", {"fewshot": {"percent": 0.5}}),
        ("fewshot", {"fewshot": {"percent": 1.0}}),
    ),
    "fewshot-100-vs-train": (("fewshot", {"fewshot": {"percent": 1.0}}), ("train", {})),
    "zeroshot-metric": (
        ("zeroshot", {"zeroshot": {"metric": "smape"}}),
        ("zeroshot", {"zeroshot": {"metric": "mae"}}),
    ),
    "ablate-revin-eps": (("ablate", {"revin_eps": 1e-5}), ("ablate", {"revin_eps": 1e-2})),
    # ablate runs the config's task and also reads the donor rows
    "ablate-vs-train": (
        ("ablate", {"train": {"ablation": "fpt"}}),
        ("train", {"train": {"ablation": "fpt"}}),
    ),
    "seed-flag": (("train", {}, "--seed", "9"), ("train", {})),
}


class TestConfigHash:
    """A report's ``config_hash`` is taken over the resolved run config, so
    two runs share it exactly when they read the same values."""

    @pytest.fixture
    def hash_of(self, workspace):
        tmp, cfg_path, config = workspace
        config["train"]["epochs"] = 0  # what training does is not hashed
        config["zeroshot"] = {"source": "sine", "target": "shifted"}
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path), "--output", str(tmp / "donor")]) == 0
        runs = iter(range(10))

        def hash_of(command, updates, *flags):
            run = _with(config, updates)
            if command in ("eval", "ablate") or run["train"]["ablation"] == "fpt":
                run["weights"] = str(tmp / "donor" / "model")  # only where they are read
            cfg_path.write_text(json.dumps(run))
            out = tmp / f"run{next(runs)}"
            assert main([command, "--config", str(cfg_path), "--output", str(out), *flags]) == 0
            report = out / ("ablation.json" if command == "ablate" else "report.json")
            return json.loads(report.read_text())["metadata"]["config_hash"]

        return hash_of

    @pytest.mark.parametrize("first, second", _SAME_HASH.values(), ids=_SAME_HASH)
    def test_same_run_same_hash(self, hash_of, first, second):
        assert hash_of(*first) == hash_of(*second)

    @pytest.mark.parametrize("first, second", _OTHER_HASH.values(), ids=_OTHER_HASH)
    def test_different_run_different_hash(self, hash_of, first, second):
        assert hash_of(*first) != hash_of(*second)


class TestAnalyzeCommands:
    def test_maxent_ln2(self, tmp_path, capsys):
        code = main(
            ["analyze", "maxent", "--q", "0.5", "--g", "0.5", "--output", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.693147" in out
        obj = json.loads((tmp_path / "maxent.json").read_text())
        assert obj["lambda_star"] == pytest.approx(np.log(2), abs=1e-9)

    def test_pca_attn_on_csv(self, tmp_path, capsys):
        x = seeded_rng(3).normal((12, 4))
        np.savetxt(tmp_path / "x.csv", x, delimiter=",")
        code = main(
            [
                "analyze",
                "pca-attn",
                "--x",
                str(tmp_path / "x.csv"),
                "--m",
                "2",
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        obj = json.loads((tmp_path / "out" / "pca_attn.json").read_text())
        assert obj["objective"] == pytest.approx(obj["eigenvalue_tail"], rel=1e-6)
        assert obj["eigenvalue_tail"] == pytest.approx(sum(obj["eigenvalues"][2:]), rel=1e-9)

    def test_jacobian_audit(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "jacobian",
                "--n",
                "3",
                "--d",
                "2",
                "--trials",
                "5",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "holds: 5/5" in capsys.readouterr().out

    def test_convergence_writes_points(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "convergence",
                "--n-grid",
                "16,64,256",
                "--trials",
                "20",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        obj = json.loads((tmp_path / "convergence.json").read_text())
        assert len(obj["points"]) == 3
        assert (tmp_path / "convergence.csv").exists()

    def test_similarity_requires_weights(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        code = main(
            ["analyze", "similarity", "--config", str(cfg_path), "--output", str(tmp / "s")]
        )
        assert code == 2

    def test_similarity_with_weights(self, workspace):
        tmp, cfg_path, _ = workspace
        out = tmp / "out"
        assert main(["train", "--config", str(cfg_path), "--output", str(out)]) == 0
        code = main(
            [
                "analyze",
                "similarity",
                "--config",
                str(cfg_path),
                "--weights",
                str(out / "model"),
                "--output",
                str(tmp / "sim"),
            ]
        )
        assert code == 0
        obj = json.loads((tmp / "sim" / "similarity.json").read_text())
        assert len(obj["similarity"]) == 2  # n_layers + 1
        assert all(-1 <= v <= 1 for v in obj["similarity"])

    def test_mix_sweep(self, workspace):
        tmp, cfg_path, _ = workspace
        out = tmp / "out"
        assert main(["train", "--config", str(cfg_path), "--output", str(out)]) == 0
        code = main(
            [
                "analyze",
                "mix-sweep",
                "--config",
                str(cfg_path),
                "--weights",
                str(out / "model"),
                "--ratios",
                "0,1",
                "--finetune-steps",
                "3",
                "--output",
                str(tmp / "mix"),
            ]
        )
        assert code == 0
        obj = json.loads((tmp / "mix" / "mix_sweep.json").read_text())
        assert [row["ratio"] for row in obj["rows"]] == [0.0, 1.0]


# Every command's flags beyond --output, with {config}, {model} and {x}
# standing for inputs the ``stamped_inputs`` fixture writes.
_EVERY_COMMAND = digest.COMMANDS


@pytest.fixture(scope="module")
def stamped_inputs(tmp_path_factory):
    """Run configs at 0 epochs for every task, a saved model and a pattern
    matrix; returns a function from the name of a command, or of one of
    ``digest.RUNS``, to its argv."""
    tmp = tmp_path_factory.mktemp("stamped")
    _write_task_datasets(tmp)
    config = json.loads((tmp / "run.json").read_text())
    for sections in _TASK_SECTIONS.values():
        config.update(sections)
    config["train"]["epochs"] = 0
    config["donor"] = {"length": 256, "n_channels": 1}
    for command, dataset in digest.DATASETS.items():
        named = _with(config, {"dataset": {"name": dataset}})
        (tmp / f"{command}.json").write_text(json.dumps(named))
    (tmp / "run.json").write_text(json.dumps(config))
    np.savetxt(tmp / "x.csv", seeded_rng(3).normal((12, 4)), delimiter=",")
    assert main(["train", "--config", str(tmp / "run.json"), "--output", str(tmp / "out")]) == 0

    return lambda command: digest.argv(command, tmp, tmp / "out" / "model")


def _stamped_json(out: Path) -> dict:
    (path,) = out.glob("*.json")
    return json.loads(path.read_text())


class TestOutputMetadata:
    """One writer stamps every command's JSON with a timestamp and a config hash."""

    @pytest.mark.parametrize("command", _EVERY_COMMAND)
    def test_every_json_is_stamped(self, stamped_inputs, tmp_path, command):
        assert main(stamped_inputs(command) + ["--output", str(tmp_path)]) == 0
        metadata = _stamped_json(tmp_path)["metadata"]
        assert metadata["timestamp"].endswith("+00:00")
        assert len(metadata["config_hash"]) == 64 and int(metadata["config_hash"], 16) >= 0
        json_only = command in ("maxent", "pca-attn", "jacobian", "sgd-rate")
        assert len(list(tmp_path.glob("*.csv"))) == (0 if json_only else 1)

    @pytest.mark.parametrize(
        "command, changed",
        [
            ("maxent", ["--g", "0.25"]),
            ("jacobian", ["--seed", "1"]),
            ("convergence", ["--sigma", "0.2"]),
            ("similarity", ["--mode", "pca", "--pca-m", "2"]),
        ],
    )
    def test_analyze_hash_follows_the_flags(self, stamped_inputs, tmp_path, command, changed):
        argv = stamped_inputs(command)
        runs = [argv, argv, argv + changed]
        for i, run in enumerate(runs):
            assert main(run + ["--output", str(tmp_path / str(i))]) == 0
        first, again, other = (_stamped_json(tmp_path / str(i)) for i in range(3))
        first["metadata"].pop("timestamp"), again["metadata"].pop("timestamp")
        assert first == again
        assert other["metadata"]["config_hash"] != first["metadata"]["config_hash"]

    def test_analyze_hash_covers_the_resolved_config(self, stamped_inputs, tmp_path):
        argv = stamped_inputs("similarity")
        config = json.loads(Path(argv[3]).read_text())
        config["revin_eps"] = 1e-3
        (tmp_path / "other.json").write_text(json.dumps(config))
        argv_other = argv[:3] + [str(tmp_path / "other.json")] + argv[4:]
        (tmp_path / "same.json").write_text(Path(argv[3]).read_text())
        argv_moved = argv[:3] + [str(tmp_path / "same.json")] + argv[4:]
        hashes = []
        for i, run in enumerate((argv, argv_moved, argv_other)):
            assert main(run + ["--output", str(tmp_path / str(i))]) == 0
            hashes.append(_stamped_json(tmp_path / str(i))["metadata"]["config_hash"])
        assert hashes[0] == hashes[1] != hashes[2]


class TestDeterminism:
    """Every command, and the second mode of ablate, similarity and
    mix-sweep, writes the same bytes when rerun on the same inputs."""

    @pytest.mark.parametrize("run", digest.RUNS)
    def test_rerun_gives_the_same_digest(self, stamped_inputs, tmp_path, capsys, run):
        digests = []
        for i in range(2):
            code = main(stamped_inputs(run) + ["--output", str(tmp_path / str(i))])
            digests.append(digest.digest(tmp_path / str(i), capsys.readouterr().out, code))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("run", digest.RUNS)
    def test_one_usable_cpu_gives_the_digest_of_two(
        self, digest_inputs, tmp_path, capsys, monkeypatch, run
    ):
        """Training on two cores moves no bit: each run on the inputs of
        ``tools/digest.py`` (which train for two epochs) digests the same
        when the process may use one CPU as when it may use all of them."""
        monkeypatch.chdir(digest_inputs)
        argv = digest.argv(run, digest.INPUTS, "model/model")
        digests = []
        for cpus in ("one", "all"):
            with monkeypatch.context() as m:
                if cpus == "one":
                    m.setattr(os, "sched_getaffinity", lambda pid: {0})
                code = main(argv + ["--output", str(tmp_path / cpus)])
            digests.append(digest.digest(tmp_path / cpus, capsys.readouterr().out, code))
        assert digests[0] == digests[1]


@pytest.fixture(scope="module")
def digest_inputs(tmp_path_factory):
    """The inputs of ``tools/digest.py`` and the model its ``train`` run
    saves, under one directory that the paths in them are relative to."""
    root = tmp_path_factory.mktemp("digest")
    digest.write_inputs(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(digest.argv("train", digest.INPUTS, "model/model") + ["--output", "model"]) == 0
    finally:
        os.chdir(cwd)
    return root


class TestArgumentHandling:
    @pytest.mark.parametrize(
        "argv",
        [
            ["convergence", "--n-grid", "16,x"],
            ["sgd-rate", "--sigmas", "1,x"],
            ["mix-sweep", "--config", "run.json", "--ratios", "0,x"],
            ["similarity", "--config", "run.json", "--eval-batch", "0"],
            ["similarity", "--config", "run.json", "--eval-batch", "-1"],
            ["jacobian", "--trials", "0"],
            ["jacobian", "--n", "-1"],
            ["jacobian", "--d", "-2"],
            ["convergence", "--d", "0"],
            ["mix-sweep", "--config", "run.json", "--finetune-steps", "-1"],
            ["mix-sweep", "--config", "run.json", "--seed", "-1"],
            ["jacobian", "--seed", str(2**64)],
        ],
        ids=lambda argv: " ".join(argv[-2:]),
    )
    def test_bad_analyze_argument_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {argv[-2]}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["maxent", "--q", "0.5", "--g", "0.5", "--seed", "3"],
            ["maxent", "--q", "0.5", "--g", "0.5", "--weights", "w"],
            ["pca-attn", "--x", "x.csv", "--m", "2", "--seed", "3"],
            ["pca-attn", "--x", "x.csv", "--m", "2", "--weights", "w"],
            ["jacobian", "--weights", "w"],
            ["convergence", "--weights", "w"],
            ["sgd-rate", "--weights", "w"],
            ["similarity", "--config", "run.json", "--seed", "3"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_flag_the_analysis_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"unrecognized arguments: {argv[-2]}" in err

    @pytest.mark.parametrize("eps", ["0", "-0.001", "nan"])
    def test_sgd_rate_nonpositive_eps_exits_2(self, tmp_path, capsys, eps):
        argv = ["analyze", "sgd-rate", "--eps", eps, "--output", str(tmp_path)]
        assert main(argv) == 2
        message = f"error: InvalidInput: eps must be positive, got {float(eps)}"
        assert _error_lines(capsys) == [message]

    @pytest.mark.parametrize("sigma", ["-1", "0", "nan", "inf"])
    def test_sgd_rate_nonpositive_sigma_exits_2(self, tmp_path, capsys, sigma):
        argv = ["analyze", "sgd-rate", "--sigmas", sigma, "--output", str(tmp_path)]
        assert main(argv) == 2
        message = f"error: InvalidInput: sigma must be finite and > 0, got {float(sigma)}"
        assert _error_lines(capsys) == [message]
        assert not list(tmp_path.iterdir())

    def test_sgd_rate_bad_sigma_after_a_good_one_exits_2(self, tmp_path, capsys):
        argv = ["analyze", "sgd-rate", "--sigmas", "0.01,inf", "--output", str(tmp_path)]
        assert main(argv) == 2
        assert _error_lines(capsys) == ["error: InvalidInput: sigma must be finite and > 0, got inf"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["convergence", "--sigma", "nan"],
            ["convergence", "--sigma", "inf"],
            ["convergence", "--sigma", "0"],
            ["convergence", "--sigma", "-1"],
            ["jacobian", "--a-norm", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_analysis_of_something_else_exits_2(self, tmp_path, capsys, argv):
        assert main(["analyze", *argv, "--trials", "2", "--output", str(tmp_path)]) == 2
        errors = _error_lines(capsys)
        assert len(errors) == 1 and errors[0].startswith("error: InvalidInput:"), errors
        assert not list(tmp_path.iterdir())

    def test_output_naming_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("x")
        argv = ["analyze", "maxent", "--q", "0.5", "--g", "0.5"]
        assert main(argv + ["--output", str(tmp_path / "taken")]) == 2
        message = f"error: ConfigError: --output {tmp_path / 'taken'} is not a directory"
        assert _error_lines(capsys) == [message]

    def test_pca_rank_beyond_width_exits_2(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        assert main(["train", "--config", str(cfg_path), "--output", str(tmp / "out")]) == 0
        capsys.readouterr()
        argv = ["analyze", "similarity", "--config", str(cfg_path), "--mode", "pca"]
        argv += ["--pca-m", "100", "--weights", str(tmp / "out" / "model")]
        assert main(argv + ["--output", str(tmp / "sim")]) == 2
        assert len(_error_lines(capsys)) == 1

    def test_pca_rank_without_pca_mode_exits_2(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        assert main(["train", "--config", str(cfg_path), "--output", str(tmp / "out")]) == 0
        capsys.readouterr()
        argv = ["analyze", "similarity", "--config", str(cfg_path), "--pca-m", "2"]
        argv += ["--weights", str(tmp / "out" / "model"), "--output", str(tmp / "sim")]
        assert main(argv) == 2
        message = "error: InvalidInput: pca_m must be given exactly when mode='pca'"
        assert _error_lines(capsys) == [message]

    def test_pca_mode_without_rank_exits_2(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        assert main(["train", "--config", str(cfg_path), "--output", str(tmp / "out")]) == 0
        capsys.readouterr()
        argv = ["analyze", "similarity", "--config", str(cfg_path), "--mode", "pca"]
        argv += ["--weights", str(tmp / "out" / "model"), "--output", str(tmp / "sim")]
        assert main(argv) == 2
        message = "error: InvalidInput: pca_m must be given exactly when mode='pca'"
        assert _error_lines(capsys) == [message]

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("train", "eval", "impute", "classify", "anomaly", "fewshot",
                    "zeroshot", "ablate", "analyze"):
            assert cmd in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--seed", "--output", "--weights", "--overwrite"):
            assert flag in out

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--nonsense"])
        assert exc.value.code == 2

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
