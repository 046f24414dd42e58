"""fpt-lab benchmark: one workload, closed loop, one client, one process.

    python3 perfbench/run.py --workload forecast-train --seed 0 --seconds 55 --trace 0

Run from the root of a checkout.  Set-up generates every input from the
seed; then one warm-up operation runs untimed, and operations run back to
back (the next starts only after the previous returns) for about
``--seconds`` seconds, with at least three timed.  Every operation's output
is checked; a non-zero exit, an exception or a failed check counts as a
failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics, taken
from spans recorded around the public functions of the fpt modules, plus
the tracing overhead (traced minus untraced median operation time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the sample counts, the quality figures by name and the environment.
A full record, with the spans of a traced run, goes to
``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_REPEATS = 3
MIN_TIMED = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="fpt-lab benchmark (one workload per run)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> list[float]:
    """Import fpt from this checkout's src/, in this process and, timed,
    SETUP_REPEATS times in a fresh interpreter, as each fpt command does."""
    if not (SRC / "fpt" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fpt package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    importlib.import_module("fpt.cli")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fpt.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def time_op(workload, warmup: bool = False) -> tuple[float, dict]:
    start = time.perf_counter()
    result = workload.run(warmup=warmup)
    return time.perf_counter() - start, result


def attempt(workload, tally: dict, warmup: bool = False, tracer=None):
    """One operation with its checks; returns (seconds, result) or None."""
    from workloads import CheckFailed

    tally["attempted"] += 1
    try:
        if tracer is None:
            seconds, result = time_op(workload, warmup)
        else:
            with tracing.tracing(tracer):
                seconds, result = time_op(workload, warmup)
        if not warmup:
            workload.check(result)
    except CheckFailed as exc:
        tally["failed"] += 1
        tally["errors"].append(str(exc))
        return None
    except Exception:  # the benchmark keeps running and counts the failure
        tally["failed"] += 1
        tally["errors"].append(traceback.format_exc(limit=4))
        return None
    return seconds, result


def measure(workload, seconds: float, trace: bool) -> dict:
    """Closed loop: operations back to back until the budget is spent.

    Another operation starts only if, at the median pace so far, it ends
    within the budget; at least MIN_TIMED run (one untraced and one traced
    with tracing on).
    """
    tally = {"attempted": 0, "failed": 0, "errors": []}
    attempt(workload, tally, warmup=True)
    plain: list[tuple[float, dict]] = []
    traced: list[tuple[float, dict, list]] = []
    start = time.perf_counter()
    durations: list[float] = []
    minimum = 2 if trace else MIN_TIMED
    while True:
        done = len(durations)
        elapsed = time.perf_counter() - start
        if done >= minimum and (
            elapsed + tracing.median(durations) > seconds or not (plain or traced)
        ):
            break
        tracer = tracing.Tracer() if trace and done % 2 == 1 else None
        outcome = attempt(workload, tally, tracer=tracer)
        durations.append(time.perf_counter() - start - elapsed)
        if outcome is None:
            continue
        if tracer is None:
            plain.append(outcome)
        else:
            traced.append((*outcome, tracer.spans))
    return {"tally": tally, "plain": plain, "traced": traced}


def end_to_end(setup_s: float, plain: list) -> dict:
    return {
        "setup_s": setup_s,
        "run_s": tracing.median([s for s, _ in plain]),
        "windows_per_s": tracing.median([r["windows"] / s for s, r in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": tracing.median([r["quality"] for _, r in plain]),
    }


def per_layer(plain: list, traced: list) -> tuple[dict, list[str]]:
    summaries = [tracing.op_summary(spans) for _, _, spans in traced]
    metrics, notes = tracing.layer_metrics(summaries)
    results = [r for _, r, _ in traced]
    metrics["tasks.steps"] = tracing.median(
        [s["layers"].get("backbone.adam_step", {"calls": 0})["calls"] for s in summaries]
    )
    metrics["tasks.epochs_run"] = tracing.median([r["epochs_run"] for r in results])
    metrics["tasks.useful_epoch_ratio"] = tracing.median(
        [r["best_epoch"] / r["epochs_run"] if r["epochs_run"] else 0.0 for r in results]
    )
    traced_s = tracing.median([s for s, _, _ in traced])
    metrics["trace.run_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - tracing.median([s for s, _ in plain])
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    import_runs = import_program()
    import envinfo
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            start = time.perf_counter()
            workload = WORKLOADS[args.workload](work, args.seed)
            workload.prepare()
            setups.append(time.perf_counter() - start)
        setup_s = tracing.median(import_runs) + tracing.median(setups)
        run = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = run["tally"]
    plain, traced = run["plain"], run["traced"]
    ok = bool(plain) and bool(traced or not args.trace)
    notes: list[str] = []
    if not ok:
        metrics, units = {}, {}
    elif args.trace:
        metrics, notes = per_layer(plain, traced)
        notes += [
            f"{layer}: absent at this commit (reported as zero)"
            for layer in tracing.absent_layers(tracing.traced_modules())
        ]
        units = tracing.per_layer_units()
    else:
        metrics = end_to_end(setup_s, plain)
        units = END_TO_END_UNITS

    env = envinfo.fingerprint(ROOT)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": [s for s, _ in plain],
        "traced_ops": [s for s, _, _ in traced],
        "setup_runs_s": setups,
        "import_runs_s": import_runs,
        "quality_by_name": {
            k: v for k, v in (plain[0][1] if plain else {}).items()
            if k in ("test_mse", "baseline_mse", "anomaly_f1", "precision", "recall",
                     "worst_tail", "worst_margin")
        },
        "errors": tally["errors"],
        "notes": notes,
        "env": env,
        "metrics": metrics,
    }
    if traced:
        record["spans"] = [spans for _, _, spans in traced]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    error_rate = tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced operations, {tally['attempted']} attempted "
          f"(warm-up included), error_rate {error_rate:.3f}")
    for name, value in record["quality_by_name"].items():
        print(f"  {name} = {value!r}")
    if plain:
        tail = tracing.tail_percentile(len(plain))
        print(f"  run_s median of n={len(plain)}; "
              + ("no percentile has ten samples beyond it" if tail is None
                 else f"p{tail:g} = {tracing.percentile([s for s, _ in plain], tail):.4f} s"))
    for note in notes:
        print(f"  note: {note}")
    for err in tally["errors"]:
        print(f"  error: {err.strip()}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ok and tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
