"""Command-line entry point.

One process per invocation: reads a JSON run config or analysis flags,
executes the selected runner or analysis, and writes its JSON (with a CSV
mirror where it has a table) under the output directory through one writer,
``_write``.  Every JSON carries ``metadata.timestamp`` and
``metadata.config_hash`` (see ``_config_hash``).  Reruns with the same
inputs produce identical bytes apart from the timestamp, which is not hashed.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure,
which includes any floating-point overflow, invalid operation or division
by zero (``_guarded``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import (
    attention_mean_convergence,
    batch_layer_similarity,
    jacobian_bound_check,
    maxent_dual_solve,
    optimal_pca_attention,
    scale_to_spectral_norm,
    sgd_rate_experiment,
)
from .backbone import BackboneConfig, forward, load_weights, save_weights
from .data import WindowSpec, load_from_manifest
from .errors import (
    ConfigError,
    DegenerateScale,
    FptError,
    InvalidInput,
    MissingWeights,
    NumericalFailure,
    RankDeficient,
)
from .metrics import csv_text
from .numerics import is_number
from .preprocess import PatchConfig
from .rng import seeded_rng
from .tasks import (
    _PRETRAINED_ARMS,
    TrainConfig,
    _derive_config,
    _samples,
    mixed_weights_similarity_sweep,
    run_ablation_suite,
    run_anomaly,
    run_classification,
    run_few_shot,
    run_forecast,
    run_imputation,
    run_zero_shot,
    synthetic_pretrain,
)
from .worker import _keep_heap, _one_blas_thread

# Exit 3; every other FptError is a config or input error and exits 2.
_NUMERICAL_ERRORS = (NumericalFailure, RankDeficient, DegenerateScale)

_TASKS = ("forecast", "imputation", "classification", "anomaly", "fewshot", "zeroshot")

# The task of each command other than train, eval and ablate
_COMMAND_TASKS = {
    "impute": "imputation",
    "classify": "classification",
    "anomaly": "anomaly",
    "fewshot": "fewshot",
    "zeroshot": "zeroshot",
}


def main(argv=None) -> int:
    _keep_heap()  # the process's native settings, once, for every command
    _one_blas_thread()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return _guarded(args.func, args)
    except FptError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, _NUMERICAL_ERRORS) else 2


def _guarded(func, args) -> int:
    """Run one command with floating-point overflow, invalid operations and
    division by zero raising, as ``NumericalFailure``.

    Underflow stays ignored: the causal softmax mask underflows by design.
    Code that expects one of these and checks its result (the data stage,
    the random streams) opts out locally with its own ``np.errstate``.
    """
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            return func(args)
        except FloatingPointError as exc:
            raise NumericalFailure(f"floating-point {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpt",
        description="Frozen-backbone transformer laboratory for time series analysis.",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def common(p, *run_flags):
        """--output and --overwrite, after whichever of the run flags
        "config", "seed" and "weights" the command reads."""
        if "config" in run_flags:
            p.add_argument("--config", required=True, help="JSON run configuration")
        if "seed" in run_flags:
            p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
        if "weights" in run_flags:
            p.add_argument("--weights", default=None, help="weight container directory")
        p.add_argument("--output", default="fpt_out", help="directory for emitted files")
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
        common(p, "config", "seed", "weights")
        p.set_defaults(func=_cmd_task, command=name)

    p = sub.add_parser("ablate", help="run the config's task under every ablation arm")
    common(p, "config", "seed", "weights")
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
    common(p)
    p.set_defaults(func=_cmd_maxent)

    p = asub.add_parser("pca-attn", help="closed-form rank-m attention on a pattern matrix")
    p.add_argument("--x", required=True, help="headerless numeric CSV holding the patterns")
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_pca_attn)

    p = asub.add_parser("jacobian", help="randomized audit of the attention Jacobian bound")
    p.add_argument("--n", type=_int_at_least(1), default=4)
    p.add_argument("--d", type=_int_at_least(1), default=3)
    p.add_argument("--trials", type=_int_at_least(1), default=50)
    p.add_argument("--a-norm", type=float, default=1.0, help="spectral-norm cap for A")
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=_cmd_jacobian)

    p = asub.add_parser("convergence", help="attention-output concentration rate")
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--d", type=_int_at_least(1), default=8)
    p.add_argument("--n-grid", type=_comma_list(int), default="16,64,256,1024")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=_cmd_convergence)

    p = asub.add_parser("sgd-rate", help="SGD step counts vs feature conditioning")
    p.add_argument("--sigmas", type=_comma_list(float), default="1,0.1,0.01")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=_cmd_sgd_rate)

    p = asub.add_parser("similarity", help="per-layer token similarity of a model on data")
    common(p, "config", "weights")
    p.add_argument("--mode", choices=("softmax", "pca"), default="softmax")
    p.add_argument("--pca-m", type=int, default=None)
    p.add_argument("--eval-batch", type=_int_at_least(1), default=16)
    p.set_defaults(func=_cmd_similarity)

    p = asub.add_parser("mix-sweep", help="weight mixing ratio sweep with similarity and MSE")
    common(p, "config", "seed", "weights")
    p.add_argument("--ratios", type=_comma_list(float), default="0,0.25,0.5,0.75,1.0")
    p.add_argument("--finetune-steps", type=_int_at_least(0), default=50)
    p.add_argument("--mix-mode", choices=("replace", "interpolate"), default="replace")
    p.set_defaults(func=_cmd_mix_sweep)

    return parser


def _comma_list(kind):
    """argparse type: a comma-separated list of ``kind`` values."""

    def parse(text: str) -> list:
        try:
            return [kind(item) for item in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            ) from None

    return parse


def _int_at_least(low: int):
    """argparse type: a decimal integer >= ``low`` (itself >= 0)."""

    def parse(text: str) -> int:
        if not text.isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


# Every seed a random stream keys on: a stream keeps the low 64 bits of its
# seed, so a seed outside this range would run as another seed in it.
_SEEDS = range(2**64)


def _seed(text: str) -> int:
    """argparse type: a seed, a decimal integer in ``_SEEDS``."""
    if not text.isdigit() or int(text) not in _SEEDS:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


_REQUIRED = object()  # a _SCHEMA row with no default

_FORECASTING = ("forecast", "fewshot", "zeroshot")
_WINDOWED = _FORECASTING + ("imputation", "anomaly")  # the tasks that read a lookback
_ONE_DATASET = tuple(t for t in _TASKS if t != "zeroshot")  # zeroshot names source and target

# One row per run-config key: (dotted path, type, default or _REQUIRED, tasks
# that read it; the donor rows name the ablate command, which reads them
# whatever its task).  It is the one home of the run defaults: TrainConfig,
# WindowSpec and the runners take every value from their caller.  Types and
# defaults only: the constructors and runners make the range checks, and the
# InvalidInput they raise exits 2.  Null stands for the default only where the
# default is None.  The keys of the window, patch, backbone, train and donor
# sections are the keyword names of WindowSpec, PatchConfig, BackboneConfig,
# TrainConfig and synthetic_pretrain.
_SCHEMA = (
    ("dataset.manifest", str, _REQUIRED, _TASKS),
    ("dataset.name", str, _REQUIRED, _ONE_DATASET),
    ("zeroshot.source", str, _REQUIRED, ("zeroshot",)),
    ("zeroshot.target", str, _REQUIRED, ("zeroshot",)),
    ("zeroshot.metric", str, "smape", ("zeroshot",)),
    ("weights", str, None, _TASKS),
    ("revin_eps", float, 1e-5, _TASKS),
    ("window.lookback", int, _REQUIRED, _WINDOWED),
    ("window.horizon", int, _REQUIRED, _FORECASTING),
    ("window.stride", int, 1, _FORECASTING),
    ("patch.patch_len", int, _REQUIRED, _TASKS),
    ("patch.stride", int, _REQUIRED, _TASKS),
    ("backbone.n_layers", int, _REQUIRED, _TASKS),
    ("backbone.d_model", int, _REQUIRED, _TASKS),
    ("backbone.n_heads", int, _REQUIRED, _TASKS),
    ("backbone.d_ff", int, _REQUIRED, _TASKS),
    ("backbone.dropout", float, 0.0, _TASKS),
    ("backbone.causal", bool, False, _TASKS),
    ("backbone.max_tokens", int, 512, _TASKS),
    ("train.epochs", int, _REQUIRED, _TASKS),
    ("train.batch_size", int, _REQUIRED, _TASKS),
    ("train.learning_rate", float, _REQUIRED, _TASKS),
    ("train.early_stop_patience", int, 3, _TASKS),
    ("train.seed", int, 0, _TASKS),
    ("train.ablation", str, "no_pretrain", _TASKS),
    ("imputation.mask_ratios", list, _REQUIRED, ("imputation",)),
    ("imputation.stride", int, None, ("imputation",)),
    ("fewshot.percent", float, _REQUIRED, ("fewshot",)),
    ("fewshot.position", str, "suffix", ("fewshot",)),
    ("anomaly.quantile", float, 0.99, ("anomaly",)),
    ("anomaly.point_adjust", bool, False, ("anomaly",)),
    ("anomaly.stride", int, None, ("anomaly",)),
    ("classification.n_classes", int, None, ("classification",)),
    ("donor.length", int, 4096, ("ablate",)),
    ("donor.n_channels", int, 4, ("ablate",)),
    ("donor.noise", float, 0.05, ("ablate",)),
)


_KINDS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", is_number),
    bool: ("bool", lambda v: isinstance(v, bool)),
    str: ("str", lambda v: isinstance(v, str)),
    list: ("a list of numbers", lambda v: isinstance(v, list) and all(map(is_number, v))),
}


def _resolve(cfg, task: str | None, command: str) -> dict:
    """Walk _SCHEMA over a parsed config.  Returns the value of every row the
    task or the command reads, keyed by dotted path, with defaults filled in,
    plus the task itself; a task of None is read from the config's ``task``
    selector."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config: expected an object, got {type(cfg).__name__}")
    if task is None:
        task = cfg.get("task", "forecast")
        if task not in _TASKS:
            raise ConfigError(f"unknown task {task!r}; expected one of {_TASKS}")
    resolved = {"task": task}
    for path, kind, default, readers in _SCHEMA:
        if task not in readers and command not in readers:
            continue
        node, where = cfg, "config"
        for name in path.split("."):
            if not isinstance(node, dict):
                raise ConfigError(f"{where}: expected an object, got {node!r}")
            if name not in node:
                if default is _REQUIRED:
                    raise ConfigError(f"{where}: missing required key {name!r}")
                node = default
                break
            node, where = node[name], f"{where}.{name}"
        else:
            expected, ok = _KINDS[kind]
            if not (ok(node) or (node is None and default is None)):
                raise ConfigError(f"{where}: expected {expected}, got {node!r}")
            if kind is float:
                node = float(node)  # 1 and 1.0 are one value, with one hash
        resolved[path] = node
    if resolved["train.seed"] not in _SEEDS:
        seed = resolved["train.seed"]
        raise ConfigError(f"config.train.seed: expected an integer in [0, 2**64), got {seed}")
    if resolved["revin_eps"] < 0:
        raise ConfigError("config: revin_eps must be nonnegative")
    if task in _FORECASTING and resolved["window.horizon"] < 1:
        raise ConfigError("config.window.horizon: must be >= 1 for forecasting tasks")
    return resolved


def _run_config(args, task: str | None) -> dict:
    """The resolved config of one command: ``_resolve`` plus every
    command-line override.  It is the whole description of the run, and the
    report's config hash is taken over it."""
    v = _resolve(_load_config(args.config), task, args.command)
    if getattr(args, "seed", None) is not None:  # analyze similarity takes no --seed
        v["train.seed"] = args.seed
    if args.weights:
        v["weights"] = args.weights
    if args.command == "eval":
        v["train.epochs"], v["train.ablation"] = 0, "fpt"
    return v


def _kwargs(v: dict, section: str) -> dict:
    """One section's resolved keys, as keywords of the constructor it feeds."""
    prefix = section + "."
    return {path[len(prefix) :]: value for path, value in v.items() if path.startswith(prefix)}


def _build_parts(v: dict):
    """Typed run configs and the weight path; a value the constructors reject
    is a ConfigError.  The window spec is None unless the task forecasts."""
    try:
        wspec = WindowSpec(**_kwargs(v, "window")) if v["task"] in _FORECASTING else None
        patch = PatchConfig(**_kwargs(v, "patch"))
        base = BackboneConfig(
            **_kwargs(v, "backbone"), patch_len=patch.patch_len, head_in=1, head_out=1
        )
        tcfg = TrainConfig(**_kwargs(v, "train"))
    except InvalidInput as exc:
        raise ConfigError(f"config: {exc}") from None
    return wspec, patch, base, tcfg, v["weights"]


def _load_dataset(v: dict, name: str | None = None):
    manifest = v["dataset.manifest"]
    try:
        return load_from_manifest(manifest, name or v["dataset.name"])
    except InvalidInput as exc:
        raise ConfigError(f"manifest {manifest}: {exc}") from None


# The analyses that write no CSV table beside their JSON
_JSON_ONLY = ("maxent", "pca-attn", "jacobian", "sgd-rate")


def _stem(args) -> tuple[str, bool]:
    """The command's output stem and whether it writes a CSV table."""
    if args.command == "analyze":
        return args.subcommand.replace("-", "_"), args.subcommand not in _JSON_ONLY
    return ("ablation" if args.command == "ablate" else "report"), True


def _outdir(args) -> Path:
    """The --output directory, once nothing the command writes there exists
    (unless --overwrite): ``<stem>.json``, its CSV table, ``model/`` for a
    task that trains and ``donor/`` under --synthetic-pretrain.  Commands
    call it before they load data or train."""
    out = Path(args.output)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"--output {out} is not a directory")
    stem, has_table = _stem(args)
    names = [f"{stem}.json"] + [f"{stem}.csv"] * has_table
    if args.command in ("train", *_COMMAND_TASKS):
        names.append("model")
    if getattr(args, "synthetic_pretrain", False):
        names.append("donor")
    for name in names:
        if (out / name).exists() and not args.overwrite:
            raise ConfigError(f"{out / name} exists; pass --overwrite to replace it")
    return out


def _write(args, obj: dict, v: dict | None = None, table: list | None = None) -> str:
    """The one writer of command output: stamps ``metadata.timestamp`` and
    ``metadata.config_hash`` into ``obj``, writes it as ``<stem>.json`` and,
    where the command has a table, ``table`` (a header row, then rows) as
    ``<stem>.csv``; returns the CSV text.  The hash is the SHA-256 of a
    task's resolved config ``v`` from ``_run_config``, or of an analysis's
    subcommand and flags apart from --output and --overwrite, with ``v`` in
    place of the --config path where it reads one."""
    if args.command == "analyze":
        unhashed = ("command", "func", "output", "overwrite")
        flags = {k: x for k, x in vars(args).items() if k not in unhashed}
        v = flags if v is None else {**flags, "config": v}
    obj.setdefault("metadata", {}).update(
        timestamp=datetime.now(timezone.utc).isoformat(),
        config_hash=hashlib.sha256(json.dumps(v, sort_keys=True).encode()).hexdigest(),
    )
    out, (stem, has_table) = Path(args.output), _stem(args)
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    (out / f"{stem}.json").write_text(text, encoding="utf-8")
    if not has_table:
        return ""
    text = csv_text(table)
    (out / f"{stem}.csv").write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# task commands


def _cmd_task(args) -> int:
    v = _run_config(args, _COMMAND_TASKS.get(args.command))
    wspec, patch, base, tcfg, weights = _build_parts(v)
    if args.command == "eval" and weights is None:
        raise MissingWeights("eval requires --weights (or config.weights)")
    if weights is not None and tcfg.ablation not in _PRETRAINED_ARMS:
        raise ConfigError(
            f"arm {tcfg.ablation!r} starts from random weights and reads none; "
            f"drop weights and --weights, or train under one of {_PRETRAINED_ARMS}"
        )
    out = _outdir(args)
    report, store = _task_runner(v, wspec, patch, base, weights)(tcfg)
    print(_write(args, asdict(report), v, report.table()), end="")
    if args.command != "eval":
        save_weights(store, out / "model")
    return 0


def _task_runner(v: dict, wspec, patch, base, weights):
    """The task runner of the resolved config ``v`` as ``run(tcfg) ->
    (report, store)``: every value but the TrainConfig is bound, ``weights``
    included, and the datasets are loaded here, once.  A task command calls
    it once; ``ablate`` calls it once per arm."""
    task = v["task"]
    # every runner takes these four, and its task's keyword options, by the same names
    kw = dict(base_cfg=base, patch=patch, weights=weights, revin_eps=v["revin_eps"])
    # zeroshot trains on its source dataset and scores its target
    dataset = _load_dataset(v, v["zeroshot.source"] if task == "zeroshot" else None)
    if task == "forecast":
        return lambda tcfg: run_forecast(dataset, wspec, tcfg=tcfg, **kw)
    if task == "fewshot":
        percent, kw["position"] = v["fewshot.percent"], v["fewshot.position"]
        return lambda tcfg: run_few_shot(dataset, percent, wspec, tcfg=tcfg, **kw)
    if task == "zeroshot":
        target, kw["metric"] = _load_dataset(v, v["zeroshot.target"]), v["zeroshot.metric"]
        return lambda tcfg: run_zero_shot(dataset, target, wspec, tcfg=tcfg, **kw)
    if task == "classification":
        kw["n_classes"] = v["classification.n_classes"]
        return lambda tcfg: run_classification(dataset, tcfg=tcfg, **kw)
    lookback = v["window.lookback"]
    if task == "anomaly":
        quantile = v["anomaly.quantile"]
        kw.update(point_adjust=v["anomaly.point_adjust"], stride=v["anomaly.stride"])
        return lambda tcfg: run_anomaly(dataset, quantile, lookback, tcfg=tcfg, **kw)
    ratios, kw["stride"] = v["imputation.mask_ratios"], v["imputation.stride"]

    def run_imputation_first_model(tcfg):  # one model per ratio; the first ratio's is kept
        report, stores = run_imputation(dataset, ratios, lookback, tcfg=tcfg, **kw)
        return report, next(iter(stores.values()))

    return run_imputation_first_model


def _cmd_ablate(args) -> int:
    v = _run_config(args, None)
    wspec, patch, base, tcfg, weights = _build_parts(v)
    if weights is None and not args.synthetic_pretrain:
        raise MissingWeights(
            "ablate needs --weights or --synthetic-pretrain to obtain donor weights"
        )
    if weights is None and v["task"] not in _FORECASTING:
        raise ConfigError(
            f"--synthetic-pretrain trains a forecasting donor, which serves {_FORECASTING} "
            f"configs, not {v['task']!r}; pass --weights (ROADMAP item 1, a donor that "
            "gives only its blocks, lifts this)"
        )
    out = _outdir(args)
    if weights is None:
        store = synthetic_pretrain(base, wspec, patch, tcfg, v["revin_eps"], **_kwargs(v, "donor"))
        weights = out / "donor"
        save_weights(store, weights)
    report = run_ablation_suite(_task_runner(v, wspec, patch, base, weights), tcfg)
    print(_write(args, asdict(report), v, report.table()), end="")
    return 0


# ---------------------------------------------------------------------------
# analyze commands


def _cmd_maxent(args) -> int:
    _outdir(args)
    lam = maxent_dual_solve(args.q, args.g)
    _write(args, {"q": args.q, "g": args.g, "lambda_star": lam})
    print(f"lambda_star = {lam:.9f}")
    return 0


def _cmd_pca_attn(args) -> int:
    _outdir(args)
    try:
        x = np.loadtxt(args.x, delimiter=",", dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read pattern matrix {args.x}: {exc}") from None
    sol = optimal_pca_attention(x, args.m)
    tail = float(np.sum(sol.eigen.eigenvalues[args.m :]))
    obj = {"m": args.m, "objective": sol.objective, "eigenvalue_tail": tail}
    obj["eigenvalues"] = [float(v) for v in sol.eigen.eigenvalues]
    _write(args, obj)
    print(f"objective = {sol.objective:.9f} (eigenvalue tail {tail:.9f})")
    return 0


def _cmd_jacobian(args) -> int:
    _outdir(args)
    rng = seeded_rng(args.seed)
    held = 0
    results = []
    for _ in range(args.trials):
        x = rng.normal((args.n, args.d))
        a = scale_to_spectral_norm(rng.normal((args.d, args.d)), args.a_norm)
        res = jacobian_bound_check(x, a)
        held += int(res.holds)
        results.append({"lhs": res.lhs, "rhs": res.rhs, "holds": res.holds})
    _write(args, {"trials": args.trials, "held": held, "results": results})
    print(f"holds: {held}/{args.trials}")
    return 0 if held == args.trials else 3


def _cmd_convergence(args) -> int:
    _outdir(args)
    if args.sigma == 0:
        raise InvalidInput("sigma must be > 0: at sigma 0 the errors are rounding noise")
    rng = seeded_rng(args.seed)
    d = args.d
    mu = rng.normal(d)
    mu /= np.linalg.norm(mu)
    wq = rng.normal((d, d), scale=1.0 / np.sqrt(d))
    wk = rng.normal((d, d), scale=1.0 / np.sqrt(d))
    wv = rng.normal((d, d), scale=1.0 / np.sqrt(d))
    res = attention_mean_convergence(mu, args.sigma, wq, wk, wv, args.n_grid, args.trials, rng)
    _write(
        args,
        {"sigma": args.sigma, "slope": res.slope, "points": [list(p) for p in res.points]},
        table=[["n", "mean_error"]] + [[n, repr(e)] for n, e in res.points],
    )
    print(f"slope = {res.slope:.4f}")
    return 0


def _cmd_sgd_rate(args) -> int:
    _outdir(args)
    rows = sgd_rate_experiment(args.sigmas, args.eps, args.seed)
    _write(args, {"eps": args.eps, "rows": rows})
    for row in rows:
        print(f"sigma={row['sigma']}: steps={row['steps']}")
    return 0


def _load_model(args, needs: str):
    """Resolved forecast config, typed parts, saved model and dataset for the
    analyses that run a model on configured data."""
    v = _run_config(args, "forecast")
    wspec, patch, base, tcfg, weights = _build_parts(v)
    if weights is None:
        raise MissingWeights(f"{needs} requires --weights")
    _outdir(args)
    derived = _derive_config(base, patch, wspec.lookback, wspec.horizon)
    store = load_weights(weights, derived)
    return v, wspec, patch, base, tcfg, derived, store, _load_dataset(v)


def _cmd_similarity(args) -> int:
    if (args.mode == "pca") != (args.pca_m is not None):
        raise InvalidInput("pca_m must be given exactly when mode='pca'")
    v, wspec, patch, _, _, derived, store, dataset = _load_model(args, "similarity analysis")
    probe = _samples(dataset, wspec, patch, v["revin_eps"], "test").tokens[: args.eval_batch]
    _, trace = forward(store, derived, probe, args.pca_m)
    sims = batch_layer_similarity(trace)
    _write(
        args,
        {"mode": args.mode, "similarity": sims},
        v,
        [["layer", "mean_cosine_similarity"]] + [[i, repr(s)] for i, s in enumerate(sims)],
    )
    print(", ".join(f"{s:.4f}" for s in sims))
    return 0


def _cmd_mix_sweep(args) -> int:
    v, wspec, patch, base, tcfg, _, store, dataset = _load_model(args, "mix-sweep")
    rows = mixed_weights_similarity_sweep(
        store,
        base,
        dataset,
        wspec,
        patch,
        args.ratios,
        tcfg,
        finetune_steps=args.finetune_steps,
        revin_eps=v["revin_eps"],
        mode=args.mix_mode,
    )
    n_layers = len(rows[0]["similarity"]) if rows else 0
    header = ["ratio", "mse"] + [f"layer{i}" for i in range(n_layers)]
    table = [[r["ratio"], repr(r["mse"])] + [repr(s) for s in r["similarity"]] for r in rows]
    print(_write(args, {"rows": rows}, v, [header] + table), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
