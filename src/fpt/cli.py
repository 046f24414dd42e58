"""Command-line entry point.

One process per invocation: reads a JSON run config, executes the selected
runner or analysis, and writes JSON reports with CSV mirrors under the
output directory.  Reruns with the same config and seed produce identical
bytes apart from the timestamp field, which is excluded from hashing.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import (
    attention_mean_convergence,
    batch_layer_similarity,
    jacobian_bound_check,
    maxent_dual_solve,
    mixed_weights_similarity_sweep,
    optimal_pca_attention,
    scale_to_spectral_norm,
    sgd_rate_experiment,
)
from .backbone import BackboneConfig, forward, load_weights, save_weights
from .data import WindowSpec, load_from_manifest
from .errors import (
    ConfigError,
    FormatError,
    FptError,
    IoError,
    MissingWeights,
    ShapeError,
)
from .metrics import MetricReport
from .preprocess import PatchConfig
from .rng import seeded_rng
from .tasks import (
    TrainConfig,
    run_ablation_suite,
    run_anomaly,
    run_classification,
    run_few_shot,
    run_forecast,
    run_imputation,
    run_zero_shot,
    synthetic_pretrain,
)

_CONFIG_ERRORS = (ConfigError, FormatError, ShapeError, MissingWeights, IoError)

_TASKS = ("forecast", "imputation", "classification", "anomaly", "fewshot", "zeroshot")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FptError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpt",
        description="Frozen-backbone transformer laboratory for time series analysis.",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--output", default="fpt_out", help="directory for emitted files")
        p.add_argument("--weights", default=None, help="weight container directory")
        p.add_argument("--overwrite", action="store_true", help="replace existing outputs")

    for name, help_text in (
        ("train", "train the configured task and save the fine-tuned weights"),
        ("eval", "evaluate saved weights on the test split (no training)"),
        ("impute", "imputation task (masked-window reconstruction)"),
        ("classify", "sequence-level classification task"),
        ("anomaly", "reconstruction-error anomaly detection task"),
        ("fewshot", "forecasting with a reduced training split"),
        ("zeroshot", "train on a source dataset, evaluate a target"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(func=_cmd_task, command=name)

    p = sub.add_parser("ablate", help="run every ablation arm and tabulate MSE/MAE")
    common(p)
    p.add_argument(
        "--synthetic-pretrain",
        action="store_true",
        help="train a synthetic-corpus donor model to stand in for pretrained weights",
    )
    p.set_defaults(func=_cmd_ablate, command="ablate")

    pa = sub.add_parser("analyze", help="attention/PCA analyses")
    pa.set_defaults(command="analyze")
    asub = pa.add_subparsers(dest="subcommand", required=True)

    p = asub.add_parser("maxent", help="solve the one-dimensional maximum-entropy dual")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--g", type=float, required=True)
    common(p, needs_config=False)
    p.set_defaults(func=_cmd_maxent)

    p = asub.add_parser("pca-attn", help="closed-form rank-m attention on a pattern matrix")
    p.add_argument("--x", required=True, help="headerless numeric CSV holding the patterns")
    p.add_argument("--m", type=int, required=True)
    common(p, needs_config=False)
    p.set_defaults(func=_cmd_pca_attn)

    p = asub.add_parser("jacobian", help="randomized audit of the attention Jacobian bound")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--a-norm", type=float, default=1.0, help="spectral-norm cap for A")
    common(p, needs_config=False)
    p.set_defaults(func=_cmd_jacobian)

    p = asub.add_parser("convergence", help="attention-output concentration rate")
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--n-grid", default="16,64,256,1024")
    p.add_argument("--trials", type=int, default=200)
    common(p, needs_config=False)
    p.set_defaults(func=_cmd_convergence)

    p = asub.add_parser("sgd-rate", help="SGD step counts vs feature conditioning")
    p.add_argument("--sigmas", default="1,0.1,0.01")
    p.add_argument("--eps", type=float, default=1e-3)
    common(p, needs_config=False)
    p.set_defaults(func=_cmd_sgd_rate)

    p = asub.add_parser("similarity", help="per-layer token similarity of a model on data")
    common(p)
    p.add_argument("--mode", choices=("softmax", "pca"), default="softmax")
    p.add_argument("--pca-m", type=int, default=None)
    p.add_argument("--eval-batch", type=int, default=16)
    p.set_defaults(func=_cmd_similarity)

    p = asub.add_parser("mix-sweep", help="weight mixing ratio sweep with similarity and MSE")
    common(p)
    p.add_argument("--ratios", default="0,0.25,0.5,0.75,1.0")
    p.add_argument("--finetune-steps", type=int, default=50)
    p.add_argument("--mix-mode", choices=("replace", "interpolate"), default="replace")
    p.set_defaults(func=_cmd_mix_sweep)

    return parser


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = obj[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _validate_config(cfg: dict, task: str) -> dict:
    if task not in _TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {_TASKS}")
    ds = _require(cfg, "dataset", dict, "config")
    _require(ds, "manifest", str, "config.dataset")
    if task == "zeroshot":
        zs = _require(cfg, "zeroshot", dict, "config")
        _require(zs, "source", str, "config.zeroshot")
        _require(zs, "target", str, "config.zeroshot")
    else:
        _require(ds, "name", str, "config.dataset")
    win = _require(cfg, "window", dict, "config")
    _require(win, "lookback", int, "config.window")
    if task in ("forecast", "fewshot", "zeroshot"):
        if _require(win, "horizon", int, "config.window") < 1:
            raise ConfigError("config.window.horizon: must be >= 1 for forecasting tasks")
    patch = _require(cfg, "patch", dict, "config")
    _require(patch, "patch_len", int, "config.patch")
    _require(patch, "stride", int, "config.patch")
    bb = _require(cfg, "backbone", dict, "config")
    for key in ("n_layers", "d_model", "n_heads", "d_ff"):
        _require(bb, key, int, "config.backbone")
    tr = _require(cfg, "train", dict, "config")
    for key in ("epochs", "batch_size"):
        _require(tr, key, int, "config.train")
    _require(tr, "learning_rate", float, "config.train")
    if task == "imputation":
        imp = _require(cfg, "imputation", dict, "config")
        ratios = _require(imp, "mask_ratios", list, "config.imputation")
        if not ratios:
            raise ConfigError("config.imputation.mask_ratios: must be non-empty")
        for r in ratios:
            if not isinstance(r, (int, float)) or isinstance(r, bool):
                raise ConfigError(f"config.imputation.mask_ratios: expected numbers, got {r!r}")
    if task == "fewshot":
        fs = _require(cfg, "fewshot", dict, "config")
        _require(fs, "percent", float, "config.fewshot")
    if task == "anomaly":
        an = cfg.get("anomaly", {})
        if not isinstance(an, dict):
            raise ConfigError("config.anomaly: expected an object")
    return cfg


def _build_parts(cfg: dict, args):
    window = cfg["window"]
    wspec = WindowSpec(
        lookback=window["lookback"],
        horizon=window.get("horizon", 0),
        stride=window.get("stride", 1),
    )
    patch = PatchConfig(cfg["patch"]["patch_len"], cfg["patch"]["stride"])
    bb = cfg["backbone"]
    base = BackboneConfig(
        n_layers=bb["n_layers"],
        d_model=bb["d_model"],
        n_heads=bb["n_heads"],
        d_ff=bb["d_ff"],
        max_tokens=bb.get("max_tokens", 512),
        patch_len=patch.patch_len,
        head_in=1,
        head_out=1,
        dropout=bb.get("dropout", 0.0),
        causal=bb.get("causal", False),
    )
    tr = cfg["train"]
    tcfg = TrainConfig(
        epochs=tr["epochs"],
        batch_size=tr["batch_size"],
        learning_rate=tr["learning_rate"],
        early_stop_patience=tr.get("early_stop_patience", 3),
        seed=tr.get("seed", 0) if args.seed is None else args.seed,
        ablation=tr.get("ablation", "no_pretrain"),
    )
    return wspec, patch, base, tcfg


def _load_dataset(cfg: dict, name: str | None = None):
    ds = cfg["dataset"]
    return load_from_manifest(ds["manifest"], name or ds["name"])


def _resolve_weights(cfg: dict, args):
    path = args.weights or cfg.get("weights")
    return path


def _outdir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, content: str, overwrite: bool) -> None:
    if path.exists() and not overwrite:
        raise ConfigError(f"{path} exists; pass --overwrite to replace it")
    path.write_text(content, encoding="utf-8")


def _emit_report(report: MetricReport, out: Path, args, stem: str = "report") -> None:
    report.metadata["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write_text(out / f"{stem}.json", report.to_json() + "\n", args.overwrite)
    _write_text(out / f"{stem}.csv", report.to_csv(), args.overwrite)
    print(report.to_csv(), end="")


def _emit_json(obj: dict, out: Path, args, stem: str) -> None:
    _write_text(
        out / f"{stem}.json", json.dumps(obj, indent=2, sort_keys=True) + "\n", args.overwrite
    )


# ---------------------------------------------------------------------------
# task commands


_COMMAND_TASKS = {
    "impute": "imputation",
    "classify": "classification",
    "anomaly": "anomaly",
    "fewshot": "fewshot",
    "zeroshot": "zeroshot",
}


def _cmd_task(args) -> int:
    cfg = _load_config(args.config)
    if args.command in ("train", "eval"):
        task = cfg.get("task", "forecast")
    else:
        task = _COMMAND_TASKS[args.command]
    _validate_config(cfg, task)
    wspec, patch, base, tcfg = _build_parts(cfg, args)
    weights = _resolve_weights(cfg, args)
    eps = cfg.get("revin_eps", 1e-5)
    out = _outdir(args)

    if args.command == "eval":
        if weights is None:
            raise MissingWeights("eval requires --weights (or config.weights)")
        tcfg = replace(tcfg, epochs=0, ablation="fpt")

    if task == "forecast":
        dataset = _load_dataset(cfg)
        report, store = run_forecast(dataset, wspec, base, tcfg, patch, weights, eps)
    elif task == "fewshot":
        dataset = _load_dataset(cfg)
        fs = cfg["fewshot"]
        report, store = run_few_shot(
            dataset,
            fs["percent"],
            wspec,
            base,
            tcfg,
            patch,
            weights,
            eps,
            position=fs.get("position", "suffix"),
        )
    elif task == "zeroshot":
        zs = cfg["zeroshot"]
        source = _load_dataset(cfg, zs["source"])
        target = _load_dataset(cfg, zs["target"])
        report, store = run_zero_shot(
            source, target, wspec, base, tcfg, patch, zs.get("metric", "smape"), weights, eps
        )
    elif task == "imputation":
        dataset = _load_dataset(cfg)
        report, stores = run_imputation(
            dataset,
            cfg["imputation"]["mask_ratios"],
            wspec.lookback,
            base,
            tcfg,
            patch,
            weights,
            eps,
            stride=cfg["imputation"].get("stride"),
        )
        store = next(iter(stores.values()))
    elif task == "classification":
        dataset = _load_dataset(cfg)
        n_classes = cfg.get("classification", {}).get("n_classes")
        report, store = run_classification(
            dataset, base, tcfg, patch, weights, eps, n_classes=n_classes
        )
    else:
        an = cfg.get("anomaly", {})
        dataset = _load_dataset(cfg)
        report, store = run_anomaly(
            dataset,
            an.get("quantile", 0.99),
            wspec.lookback,
            base,
            tcfg,
            patch,
            point_adjust=an.get("point_adjust", False),
            weights=weights,
            revin_eps=eps,
            stride=an.get("stride"),
        )

    _emit_report(report, out, args)
    if args.command != "eval":
        model_dir = out / "model"
        if model_dir.exists() and not args.overwrite:
            raise ConfigError(f"{model_dir} exists; pass --overwrite to replace it")
        save_weights(store, model_dir)
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_config(args.config)
    _validate_config(cfg, "forecast")
    wspec, patch, base, tcfg = _build_parts(cfg, args)
    eps = cfg.get("revin_eps", 1e-5)
    out = _outdir(args)
    weights = _resolve_weights(cfg, args)
    if weights is None:
        if not args.synthetic_pretrain:
            raise MissingWeights(
                "ablate needs --weights or --synthetic-pretrain to obtain donor weights"
            )
        donor_cfg = cfg.get("donor", {})
        store = synthetic_pretrain(
            base,
            wspec,
            patch,
            tcfg,
            length=donor_cfg.get("length", 4096),
            n_channels=donor_cfg.get("n_channels", 4),
            noise=donor_cfg.get("noise", 0.05),
        )
        save_weights(store, out / "donor")
        weights = out / "donor"
    dataset = _load_dataset(cfg)
    report = run_ablation_suite(dataset, wspec, base, tcfg, patch, weights, revin_eps=eps)
    _emit_report(report, out, args, stem="ablation")
    return 0


# ---------------------------------------------------------------------------
# analyze commands


def _cmd_maxent(args) -> int:
    lam = maxent_dual_solve(args.q, args.g)
    out = _outdir(args)
    _emit_json({"q": args.q, "g": args.g, "lambda_star": lam}, out, args, "maxent")
    print(f"lambda_star = {lam:.9f}")
    return 0


def _cmd_pca_attn(args) -> int:
    try:
        x = np.loadtxt(args.x, delimiter=",", dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read pattern matrix {args.x}: {exc}") from None
    sol = optimal_pca_attention(x, args.m)
    tail = float(np.sum(sol.eigen.eigenvalues[args.m :]))
    out = _outdir(args)
    _emit_json(
        {
            "m": args.m,
            "objective": sol.objective,
            "eigenvalue_tail": tail,
            "eigenvalues": [float(v) for v in sol.eigen.eigenvalues],
        },
        out,
        args,
        "pca_attn",
    )
    print(f"objective = {sol.objective:.9f} (eigenvalue tail {tail:.9f})")
    return 0


def _cmd_jacobian(args) -> int:
    rng = seeded_rng(args.seed if args.seed is not None else 0)
    held = 0
    results = []
    for _ in range(args.trials):
        x = rng.normal((args.n, args.d))
        a = scale_to_spectral_norm(rng.normal((args.d, args.d)), args.a_norm)
        res = jacobian_bound_check(x, a)
        held += int(res.holds)
        results.append({"lhs": res.lhs, "rhs": res.rhs, "holds": res.holds})
    out = _outdir(args)
    _emit_json({"trials": args.trials, "held": held, "results": results}, out, args, "jacobian")
    print(f"holds: {held}/{args.trials}")
    return 0 if held == args.trials else 3


def _cmd_convergence(args) -> int:
    rng = seeded_rng(args.seed if args.seed is not None else 0)
    d = args.d
    mu = rng.normal(d)
    mu /= np.linalg.norm(mu)
    wq = rng.normal((d, d), scale=1.0 / np.sqrt(d))
    wk = rng.normal((d, d), scale=1.0 / np.sqrt(d))
    wv = rng.normal((d, d), scale=1.0 / np.sqrt(d))
    n_grid = [int(s) for s in args.n_grid.split(",")]
    res = attention_mean_convergence(mu, args.sigma, wq, wk, wv, n_grid, args.trials, rng)
    out = _outdir(args)
    _emit_json(
        {"sigma": args.sigma, "slope": res.slope, "points": [list(p) for p in res.points]},
        out,
        args,
        "convergence",
    )
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "mean_error"])
    for n, e in res.points:
        w.writerow([n, repr(e)])
    _write_text(out / "convergence.csv", buf.getvalue(), args.overwrite)
    print(f"slope = {res.slope:.4f}")
    return 0


def _cmd_sgd_rate(args) -> int:
    sigmas = [float(s) for s in args.sigmas.split(",")]
    rows = sgd_rate_experiment(sigmas, args.eps, args.seed if args.seed is not None else 0)
    out = _outdir(args)
    _emit_json({"eps": args.eps, "rows": rows}, out, args, "sgd_rate")
    for row in rows:
        print(f"sigma={row['sigma']}: steps={row['steps']}")
    return 0


def _cmd_similarity(args) -> int:
    cfg = _load_config(args.config)
    _validate_config(cfg, "forecast")
    wspec, patch, base, tcfg = _build_parts(cfg, args)
    weights = _resolve_weights(cfg, args)
    if weights is None:
        raise MissingWeights("similarity analysis requires --weights")
    from .tasks import _derive_config, _forecast_samples

    derived = _derive_config(base, patch, wspec.lookback, wspec.horizon)
    store = load_weights(weights, derived)
    dataset = _load_dataset(cfg)
    samples = _forecast_samples(dataset, wspec, patch, cfg.get("revin_eps", 1e-5), "test")
    probe = samples.tokens[: min(args.eval_batch, samples.count)]
    _, trace = forward(store, derived, probe, mode=args.mode, pca_m=args.pca_m)
    sims = batch_layer_similarity(trace)
    out = _outdir(args)
    _emit_json({"mode": args.mode, "similarity": sims}, out, args, "similarity")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["layer", "mean_cosine_similarity"])
    for i, v in enumerate(sims):
        w.writerow([i, repr(v)])
    _write_text(out / "similarity.csv", buf.getvalue(), args.overwrite)
    print(", ".join(f"{v:.4f}" for v in sims))
    return 0


def _cmd_mix_sweep(args) -> int:
    cfg = _load_config(args.config)
    _validate_config(cfg, "forecast")
    wspec, patch, base, tcfg = _build_parts(cfg, args)
    weights = _resolve_weights(cfg, args)
    if weights is None:
        raise MissingWeights("mix-sweep requires --weights")
    from .tasks import _derive_config

    derived = _derive_config(base, patch, wspec.lookback, wspec.horizon)
    store = load_weights(weights, derived)
    dataset = _load_dataset(cfg)
    ratios = [float(s) for s in args.ratios.split(",")]
    rows = mixed_weights_similarity_sweep(
        store,
        base,
        dataset,
        wspec,
        patch,
        ratios,
        seeded_rng(tcfg.seed),
        finetune_steps=args.finetune_steps,
        learning_rate=tcfg.learning_rate,
        batch_size=tcfg.batch_size,
        revin_eps=cfg.get("revin_eps", 1e-5),
        mode=args.mix_mode,
    )
    out = _outdir(args)
    _emit_json({"rows": rows}, out, args, "mix_sweep")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    n_layers = len(rows[0]["similarity"]) if rows else 0
    w.writerow(["ratio", "mse"] + [f"layer{i}" for i in range(n_layers)])
    for row in rows:
        w.writerow([row["ratio"], repr(row["mse"])] + [repr(v) for v in row["similarity"]])
    _write_text(out / "mix_sweep.csv", buf.getvalue(), args.overwrite)
    print(buf.getvalue(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
