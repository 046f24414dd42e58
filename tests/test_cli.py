import json

import numpy as np
import pytest

from fpt.cli import main
from fpt.rng import seeded_rng
from fpt.synthetic import sinusoid, write_manifest, write_series_csv


@pytest.fixture
def workspace(tmp_path):
    """Manifest + CSV fixtures + a forecast run config."""
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

    def test_config_error_messages(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        del config["window"]
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["train", "--config", str(bad), "--output", str(tmp / "o2")]) == 2
        assert "window" in capsys.readouterr().err

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

    def test_ablate_without_weights_exits_2(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        code = main(["ablate", "--config", str(cfg_path), "--output", str(tmp / "a2")])
        assert code == 2
        assert "MissingWeights" in capsys.readouterr().err


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


class TestArgumentHandling:
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
