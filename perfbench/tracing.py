"""Layer tracing from outside the program, and the statistics built on it.

Every public function defined in one of the traced ``fpt`` modules is
replaced, in every traced module namespace that binds it, by a wrapper that
records a span: layer name, start, end and the index of the enclosing span.
``from .x import y`` copies a binding, so ``backbone.forward`` is wrapped
both as ``fpt.backbone.forward`` and as ``fpt.cli.forward``; a call through
either binding records the same layer.  Spans stay in memory and are
written out by the caller when the run ends.

Private helpers (``_fit``, ``_cmd_task``, ...) are not wrapped, so their
time is self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from contextlib import contextmanager

MODULES = ("cli", "data", "preprocess", "backbone", "numerics", "analysis", "tasks", "metrics")

PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10

# Layers whose per-layer metrics the benchmark reports, with the statistics
# reported for each.  A layer missing from the program is reported as absent
# with zero calls.
LAYER_STATS = {
    "backbone.loss_and_grads": ("ms_p50", "ms_p90", "calls", "s"),
    "backbone.adam_step": ("ms_p50", "s"),
    "backbone.forward": ("ms_p50", "ms_p90", "calls", "s", "rows_per_call"),
    "backbone.predict": ("rows_per_s",),
    "backbone.load_weights": ("s",),
    "backbone.save_weights": ("s",),
    "numerics.sym_eig": ("ms_p50", "calls", "s"),
    "analysis.bruteforce_rank_m_objective": ("s",),
    "analysis.optimal_pca_attention": ("s",),
    "analysis.batch_layer_similarity": ("s",),
    "data.load_csv": ("s", "cells_per_s"),
    "data.make_windows": ("s",),
    "preprocess.normalize_windows": ("s", "calls"),
    "preprocess.patchify_windows": ("s",),
}

STAT_UNITS = {
    "ms_p50": "ms",
    "ms_p90": "ms",
    "calls": "count",
    "s": "s",
    "rows_per_call": "rows",
    "rows_per_s": "rows/s",
    "cells_per_s": "cells/s",
}

# Reported for every workload next to LAYER_STATS.
EXTRA_UNITS = {
    "tasks.self_s": "s",
    "tasks.steps": "count",
    "tasks.epochs_run": "count",
    "tasks.useful_epoch_ratio": "ratio",
    "metrics.s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {
        f"{layer}.{stat}": STAT_UNITS[stat]
        for layer, stats in LAYER_STATS.items()
        for stat in stats
    }
    units.update(EXTRA_UNITS)
    return units


# ---------------------------------------------------------------------------
# spans


def _leading_rows(args, kwargs, result):
    """Batch rows of a backbone call: tokens are (B, n, P) or one (n, P)."""
    tokens = args[2] if len(args) > 2 else kwargs.get("tokens")
    ndim = getattr(tokens, "ndim", None)
    if ndim is None:
        return None
    return 1 if ndim == 2 else int(tokens.shape[0])


def _csv_cells(args, kwargs, result):
    values = getattr(result, "values", None)
    return None if values is None else int(values.size)


# Work counted at the boundary where it happens: rows through the backbone,
# cells parsed from CSV.
UNIT_COUNTERS = {
    "backbone.forward": _leading_rows,
    "backbone.predict": _leading_rows,
    "data.load_csv": _csv_cells,
}


class Tracer:
    """In-memory spans: [layer, start, end, parent index, work units]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, layer: str, fn):
        counter = UNIT_COUNTERS.get(layer)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return wrapper


def traced_modules() -> dict:
    """The fpt modules this commit has, by short name."""
    mods = {}
    for short in MODULES:
        try:
            mods[short] = importlib.import_module(f"fpt.{short}")
        except ModuleNotFoundError:
            continue
    return mods


def public_functions(mods: dict) -> dict:
    """Function object -> layer name, for public functions defined in mods."""
    layers = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                layers[obj] = f"{short}.{name}"
    return layers


def absent_layers(mods: dict) -> list[str]:
    """Reported layers whose function does not exist at this commit."""
    present = set(public_functions(mods).values())
    return [layer for layer in LAYER_STATS if layer not in present]


@contextmanager
def tracing(tracer: Tracer):
    """Wrap every public function in every traced namespace; restore on exit."""
    mods = traced_modules()
    layers = public_functions(mods)
    wrapped = {fn: tracer.wrap(layer, fn) for fn, layer in layers.items()}
    replaced = []
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
                replaced.append((mod, name, obj))
    try:
        yield tracer
    finally:
        for mod, name, obj in replaced:
            setattr(mod, name, obj)


# ---------------------------------------------------------------------------
# statistics


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p in n samples."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def _enough_beyond(n: int, p: float) -> bool:
    return n > 0 and n - _rank(n, p) >= MIN_BEYOND


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if _enough_beyond(n, p):
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _nested_in(spans, i: int, match) -> bool:
    """Whether an ancestor of span i has a name satisfying ``match``."""
    parent = spans[i][3]
    while parent >= 0:
        if match(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def op_summary(spans) -> dict:
    """Per-operation totals: calls, inclusive seconds and work units per
    layer; self seconds of tasks and cli; inclusive seconds of metrics."""
    selfs = self_times(spans)
    layers: dict[str, dict] = {}
    groups = {"tasks.self_s": 0.0, "cli.self_s": 0.0, "metrics.s": 0.0}
    for i, (span, self_s) in enumerate(zip(spans, selfs)):
        name, start, end, _, units = span
        duration = end - start
        entry = layers.setdefault(name, {"calls": 0, "s": 0.0, "units": 0, "durations": []})
        entry["calls"] += 1
        entry["durations"].append(duration)
        if units is not None:
            entry["units"] += units
        if not _nested_in(spans, i, name.__eq__):
            entry["s"] += duration
        group = name.split(".", 1)[0]
        if group in ("tasks", "cli"):
            groups[f"{group}.self_s"] += self_s
        elif group == "metrics" and not _nested_in(spans, i, lambda o: o.startswith("metrics.")):
            groups["metrics.s"] += duration
    return {"layers": layers, "groups": groups}


def _ms_percentile(durations, p: float) -> tuple[float, bool]:
    """(milliseconds, reported).  The median is reported whenever the layer
    ran; a tail percentile only with at least ten samples beyond it."""
    if not durations or (p > 50.0 and not _enough_beyond(len(durations), p)):
        return 0.0, False
    return 1000.0 * percentile(durations, p), True


def layer_metrics(summaries: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics over traced operations.

    Counts and seconds are medians of the per-operation values; percentiles
    pool every call of every traced operation.  Returns (metrics, notes),
    where notes name each value reported as zero for lack of samples.
    """
    metrics, notes = {}, []
    empty = {"calls": 0, "s": 0.0, "units": 0, "durations": []}
    for layer, stats in LAYER_STATS.items():
        per_op = [s["layers"].get(layer, empty) for s in summaries]
        durations = [d for e in per_op for d in e["durations"]]
        calls = sum(e["calls"] for e in per_op)
        units = sum(e["units"] for e in per_op)
        seconds = sum(e["s"] for e in per_op)
        for stat in stats:
            name = f"{layer}.{stat}"
            if stat == "calls":
                value = median([e["calls"] for e in per_op])
            elif stat == "s":
                value = median([e["s"] for e in per_op])
            elif stat.startswith("ms_p"):
                value, ok = _ms_percentile(durations, float(stat[4:]))
                if not ok and calls:
                    notes.append(f"{name}: {len(durations)} calls, too few beyond p{stat[4:]}")
            elif stat == "rows_per_call":
                value = units / calls if calls else 0.0
            else:  # rows_per_s, cells_per_s
                value = units / seconds if seconds > 0 else 0.0
            metrics[name] = value
    for group in ("tasks.self_s", "cli.self_s", "metrics.s"):
        metrics[group] = median([s["groups"][group] for s in summaries])
    return metrics, notes
