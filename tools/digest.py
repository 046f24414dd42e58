"""Digest every ``fpt`` command's output, to check that a change keeps the bytes.

Runs all 15 commands on seeded tiny inputs, ``ablate``, ``similarity`` and
``mix-sweep`` in both of their modes (18 runs), and prints one sha256 prefix
per run.  A run's digest covers every file it writes, with
``metadata.timestamp`` dropped from the JSON files, plus its stdout and its
exit code.

    python tools/digest.py                # the digests of this checkout
    python tools/digest.py --against REV  # the same runs on a git archive of
                                          # REV; lists the runs that differ

The determinism promise holds on one machine, numpy build and BLAS kernel,
so digests are compared within one invocation and none is committed.  Exit
status 1 means some run differs from REV.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INPUTS = "inputs"  # the directory of ``write_inputs``, beside the runs' outputs

# Every command's flags beyond --output, with {config}, {model} and {x}
# standing for the inputs: the run config (``<command>.json`` for a command
# of ``DATASETS``, else ``run.json``), a saved model and a pattern matrix.
COMMANDS = {
    **{
        command: [command, "--config", "{config}"]
        for command in ("train", "impute", "classify", "anomaly", "fewshot", "zeroshot")
    },
    "eval": ["eval", "--config", "{config}", "--weights", "{model}"],
    "ablate": ["ablate", "--config", "{config}", "--synthetic-pretrain"],
    "maxent": ["analyze", "maxent", "--q", "0.5", "--g", "0.5"],
    "pca-attn": ["analyze", "pca-attn", "--x", "{x}", "--m", "2"],
    "jacobian": ["analyze", "jacobian", "--n", "3", "--d", "2", "--trials", "2"],
    "convergence": ["analyze", "convergence", "--n-grid", "16,64,256", "--trials", "5"],
    "sgd-rate": ["analyze", "sgd-rate", "--sigmas", "1", "--eps", "0.01"],
    "similarity": ["analyze", "similarity", "--config", "{config}", "--weights", "{model}"],
    "mix-sweep": [
        "analyze", "mix-sweep", "--config", "{config}", "--weights", "{model}",
        "--ratios", "0,1", "--finetune-steps", "1",
    ],
}

# The commands, and the second mode of the three that have two.
RUNS = {
    **COMMANDS,
    "ablate --weights": ["ablate", "--config", "{config}", "--weights", "{model}"],
    "similarity --mode pca": COMMANDS["similarity"] + ["--mode", "pca", "--pca-m", "2"],
    "mix-sweep --mix-mode interpolate": COMMANDS["mix-sweep"] + ["--mix-mode", "interpolate"],
}


# The commands whose run config names a dataset of their own.
DATASETS = {"classify": "waves", "anomaly": "spiky"}


def argv(run: str, inputs, model) -> list[str]:
    """The flags of ``run`` beyond --output, on the inputs ``write_inputs``
    writes in the directory ``inputs`` and the model saved in ``model``."""
    command = RUNS[run][0]
    fields = {
        "config": str(Path(inputs) / f"{command if command in DATASETS else 'run'}.json"),
        "model": str(model),
        "x": str(Path(inputs) / "x.csv"),
    }
    return [arg.format(**fields) for arg in RUNS[run]]


def digest(out: Path, stdout: str, code: int) -> str:
    """sha256 of a run: its exit code, its stdout and every file under
    ``out`` (by relative path), JSON files without ``metadata.timestamp``."""
    h = hashlib.sha256(f"exit {code}\n".encode() + stdout.encode())
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            obj = json.loads(data)
            if isinstance(obj, dict) and isinstance(obj.get("metadata"), dict):
                obj["metadata"].pop("timestamp", None)
            data = json.dumps(obj, sort_keys=True).encode()
        name = path.relative_to(out).as_posix().encode()
        h.update(b"%d %s %d\n" % (len(name), name, len(data)) + data)
    return h.hexdigest()


def write_inputs(root: Path) -> None:
    """Seeded tiny datasets, run configs and a pattern matrix under
    ``root/inputs``, with the paths in them relative to ``root``."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from fpt.rng import seeded_rng
    from fpt.synthetic import classification_values, sinusoid, write_manifest, write_series_csv

    root = root / INPUTS
    root.mkdir()
    write_series_csv(root / "sine.csv", sinusoid(700, 24.0))
    write_series_csv(root / "shifted.csv", sinusoid(700, 24.0, phase=1.1))
    values, labels = classification_values(40, 64, seeded_rng(1))
    write_series_csv(root / "waves.csv", values)
    spiky, spikes = sinusoid(600, 24.0), np.zeros(600, dtype=np.int64)
    spiky[550], spikes[550] = spiky[550] + 8.0, 1
    write_series_csv(root / "spiky.csv", spiky, labels=spikes)
    split = [0.7, 0.1, 0.2]
    write_manifest(
        root / "manifest.json",
        {
            "sine": {"path": "sine.csv", "split": split},
            "shifted": {"path": "shifted.csv", "split": split},
            "waves": {"path": "waves.csv", "split": [0.6, 0.2, 0.2], "labels": labels.tolist()},
            "spiky": {"path": "spiky.csv", "label_column": "label"},
        },
    )
    config = {
        "dataset": {"manifest": f"{INPUTS}/manifest.json", "name": "sine"},
        "window": {"lookback": 48, "horizon": 12, "stride": 2},
        "patch": {"patch_len": 8, "stride": 4},
        "backbone": {"n_layers": 1, "d_model": 16, "n_heads": 2, "d_ff": 32},
        "train": {"epochs": 2, "batch_size": 64, "learning_rate": 0.001, "seed": 5},
        "imputation": {"mask_ratios": [0.25, 0.5]},
        "fewshot": {"percent": 0.5},
        "zeroshot": {"source": "sine", "target": "shifted"},
        "donor": {"length": 256, "n_channels": 1},
    }
    (root / "run.json").write_text(json.dumps(config))
    for command, name in DATASETS.items():
        named = {**config, "dataset": {**config["dataset"], "name": name}}
        (root / f"{command}.json").write_text(json.dumps(named))
    np.savetxt(root / "x.csv", seeded_rng(3).normal((12, 4)), delimiter=",")


def run_all(src: Path, root: Path) -> dict[str, tuple[int, str]]:
    """Every run's exit code and digest, each a fresh ``python -m fpt.cli``
    of the package under ``src`` in the directory ``root``, which holds the
    inputs of ``write_inputs``.  Run i writes to ``work/<i>``, and the first,
    ``train``, saves the model the others load.  Every path a run sees is
    relative, so the digests do not depend on where ``root`` is."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    digests = {}
    for i, run in enumerate(RUNS):
        flags = argv(run, INPUTS, "work/0/model") + ["--output", f"work/{i}"]
        done = subprocess.run(
            [sys.executable, "-m", "fpt.cli", *flags],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
        )
        digests[run] = done.returncode, digest(root / "work" / str(i), done.stdout, done.returncode)
    return digests


def _archive(rev: str, dest: Path) -> None:
    """The committed tree of ``rev`` extracted under ``dest``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="also digest a git archive of REV")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fpt-digest-") as tmp:
        tmp = Path(tmp)
        write_inputs(tmp)
        here = run_all(ROOT / "src", tmp)
        if args.against is None:
            for run, (code, value) in here.items():
                print(f"{value[:16]}  exit {code}  {run}")
            return 0
        _archive(args.against, tmp / "rev")
        shutil.rmtree(tmp / "work")
        there = run_all(tmp / "rev" / "src", tmp)
    differ = [run for run in RUNS if here[run] != there[run]]
    for run in RUNS:
        (code, value), (code_there, value_there) = here[run], there[run]
        mark = "differs" if run in differ else "same"
        print(f"{value[:16]}  {value_there[:16]}  exit {code}/{code_there}  {mark:7}  {run}")
    print(f"{len(differ)} of {len(RUNS)} runs differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
