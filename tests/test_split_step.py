"""Training on two cores: the rows [ceil(B/2), B) of each step run in a
worker forked for the fit (``fpt.worker.fit_on_two_cores``).  The weights
must be the ones one process computes, bit for bit, and no process may
outlive the fit, however it ends.  Both paths of a fit share one process
mode: one OpenBLAS thread, and a heap handed back to the system on entry."""

import ctypes
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import train_config
import fpt
from fpt import backbone, tasks, worker
from fpt.backbone import BackboneConfig, Batch, FreezeMask, init_random, param_hash
from fpt.cli import main
from fpt.errors import InvalidInput, NumericalFailure, ShapeError
from fpt.rng import seeded_rng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digest  # noqa: E402  (tools/digest.py: seeded run configs)

two_cpus = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs fork and two usable CPUs",
)


def _setup(dtype=np.float32, head_mode="flatten", freeze=False, loss="mse", **over):
    """The c09 backbone shape with 45 random training rows; ``loss`` "labels"
    trains on integer labels, and "masked" on a masked MSE in the original
    units of a per-row scale and mean."""
    d, n = 64, 11
    cfg = BackboneConfig(
        n_layers=2, d_model=d, n_heads=4, d_ff=128, max_tokens=64, patch_len=16,
        head_in=n * d if head_mode == "flatten" else d, head_out=24, head_mode=head_mode, **over,
    )
    rng = seeded_rng(11)
    store = init_random(cfg, rng.child(1), dtype=dtype)
    mask = FreezeMask.default_fpt(store) if freeze else FreezeMask.all_trainable(store)
    train = Batch(tokens=rng.normal((45, n, 16)), targets=rng.normal((45, 24)))
    if loss == "labels":
        train = Batch(tokens=train.tokens, labels=rng.integers(24, (45,)))
    elif loss == "masked":
        train.mask = rng.uniform((45, 24)) < 0.5
        train.out_scale, train.out_mean = rng.uniform(45, 0.5, 2.0), rng.normal(45)
    return tasks.AblationSetup(store, mask, cfg), train


def _fit(setup, train, steps=20):
    """``steps`` Adam steps in batches of 16: each epoch ends in an odd batch of 13."""
    tcfg = train_config(epochs=100, batch_size=16, learning_rate=1e-2)
    return tasks._fit(setup, train, None, tcfg, seeded_rng(12), max_steps=steps)[0]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def worker_steps(monkeypatch):
    """The number of steps whose second half a worker ran, as a 1-list."""
    count, start = [0], worker._Worker.start

    def counted(self, *args):
        count[0] += 1
        return start(self, *args)

    monkeypatch.setattr(worker._Worker, "start", counted)
    return count


def _overflow_in_the_worker(monkeypatch):
    """From its first step on, the worker's GELU inputs overflow the store
    dtype; the parent's rows, and the worker's exactness probe, stay finite."""
    gelu, half_step, on = backbone._gelu, worker._Worker._half_step, []

    def gelu_overflowing(u):
        return gelu(u * np.finfo(u.dtype).max * 4 if on else u)

    def half_step_overflowing(self, *args):
        on.append(True)
        return half_step(self, *args)

    monkeypatch.setattr(backbone, "_gelu", gelu_overflowing)
    monkeypatch.setattr(worker._Worker, "_half_step", half_step_overflowing)


_CASES = {
    "float32": {},
    "float64": {"dtype": np.float64},
    "pool-head": {"head_mode": "pool"},
    "causal": {"causal": True},
    "dropout": {"dropout": 0.1},
    "fpt-freeze": {"freeze": True},
    "labels": {"head_mode": "pool", "loss": "labels"},
    "masked": {"loss": "masked"},
    "all-of-them": {
        "dtype": np.float64, "head_mode": "pool", "causal": True, "dropout": 0.1, "freeze": True,
    },
}


@two_cpus
@pytest.mark.parametrize("case", _CASES)
def test_weights_match_one_process_bit_for_bit(monkeypatch, worker_steps, case):
    setup, train = _setup(**_CASES[case])
    two = _fit(setup, train)
    assert worker_steps[0] > 0  # the worker ran: the comparison is not one process against itself
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
        ran = worker_steps[0]
        one = _fit(setup, train)
        assert worker_steps[0] == ran
    assert param_hash(two) == param_hash(one)
    _no_child_left()


@two_cpus
@pytest.mark.parametrize("other", ["trainable-set", "config"])
def test_a_step_that_is_not_the_fits_runs_in_one_process(worker_steps, other):
    setup, train = _setup(freeze=True)
    cfg, wanted = setup.cfg, setup.mask.trainable
    call = (cfg, None) if other == "trainable-set" else (replace(cfg, causal=True), wanted)
    batch = train.rows(np.arange(16))

    def bits(cfg, wanted):
        value, grads = backbone.loss_and_grads(setup.store, cfg, batch, wanted)
        return value, param_hash(grads)

    alone = bits(*call)
    with worker.fit_on_two_cores(setup.store, cfg, wanted, 16, train.tokens.shape[1]):
        inside = bits(*call)
        assert worker_steps[0] == 0
        bits(cfg, wanted)  # the fit's own step goes to the worker
        assert worker_steps[0] == 1
    assert inside == alone
    _no_child_left()


@two_cpus
def test_a_batch_the_arena_has_no_room_for_raises_its_one_process_error(worker_steps):
    setup, train = _setup()
    cfg, wanted = setup.cfg, setup.mask.trainable
    batch = Batch(tokens=train.tokens[:16], targets=np.zeros((16, 2 * cfg.head_out)))
    with worker.fit_on_two_cores(setup.store, cfg, wanted, 16, train.tokens.shape[1]):
        with pytest.raises(ShapeError, match="targets"):
            backbone.loss_and_grads(setup.store, cfg, batch, wanted)
        assert worker_steps[0] == 0
    _no_child_left()


@two_cpus
def test_a_fit_that_returns_leaves_no_process(worker_steps):
    cpus = os.sched_getaffinity(0)
    _fit(*_setup(), steps=3)
    assert worker_steps[0] == 3
    _no_child_left()
    assert os.sched_getaffinity(0) == cpus


@two_cpus
def test_an_overflow_in_the_worker_is_a_numerical_failure(monkeypatch, worker_steps):
    _overflow_in_the_worker(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="non-finite loss"):
        _fit(*_setup())
    assert worker_steps[0] == 1
    _no_child_left()


@two_cpus
def test_an_error_in_the_worker_comes_back_as_its_class(monkeypatch, worker_steps):
    _overflow_in_the_worker(monkeypatch)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        _fit(*_setup())
    assert worker_steps[0] == 1
    _no_child_left()


@two_cpus
def test_fpt_train_exits_3_when_the_worker_overflows(monkeypatch, worker_steps, tmp_path, capsys):
    digest.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    _overflow_in_the_worker(monkeypatch)
    assert main(["train", "--config", f"{digest.INPUTS}/run.json", "--output", "out"]) == 3
    assert worker_steps[0] == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: NumericalFailure:") and err.count("\n") == 1
    _no_child_left()


@two_cpus
def test_an_interrupt_mid_epoch_ends_the_worker(monkeypatch, worker_steps):
    cpus, adam, calls = os.sched_getaffinity(0), tasks.adam_step, []

    def interrupted(*args):
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return adam(*args)

    monkeypatch.setattr(tasks, "adam_step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _fit(*_setup())
    assert worker_steps[0] == 2
    _no_child_left()
    assert os.sched_getaffinity(0) == cpus


@two_cpus
def test_a_dropout_step_draws_from_its_stream_as_one_process_does(worker_steps):
    setup, train = _setup(dropout=0.1)
    cfg, wanted, batch = setup.cfg, setup.mask.trainable, train.rows(np.arange(16))
    one, two = seeded_rng(5), seeded_rng(5)
    backbone.loss_and_grads(setup.store, cfg, batch, wanted, one)
    with worker.fit_on_two_cores(setup.store, cfg, wanted, 16, train.tokens.shape[1]):
        backbone.loss_and_grads(setup.store, cfg, batch, wanted, two)
    assert worker_steps[0] == 1
    assert two.uniform() == one.uniform()
    _no_child_left()


@two_cpus
def test_labels_outside_the_head_end_a_fit_in_both_processes(worker_steps):
    cpus = os.sched_getaffinity(0)
    setup, train = _setup(head_mode="pool", loss="labels")
    train.labels[7] = setup.cfg.head_out
    with pytest.raises(InvalidInput, match="labels"):
        _fit(setup, train)
    assert worker_steps[0] == 1
    _no_child_left()
    assert os.sched_getaffinity(0) == cpus


@two_cpus
def test_a_worker_that_dies_mid_step_ends_the_fit(monkeypatch, worker_steps):
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(
        worker._Worker, "_half_step", lambda self, *args: os.kill(os.getpid(), signal.SIGKILL)
    )
    with pytest.raises(RuntimeError, match="the other process of a two-process fit exited"):
        _fit(*_setup())
    assert worker_steps[0] == 1
    _no_child_left()
    assert os.sched_getaffinity(0) == cpus


def _run(script: str, *args) -> str:
    """The stdout of ``script`` run in a fresh interpreter on this checkout."""
    src = str(Path(fpt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return run.stdout


# Resident MiB before and inside a fit that runs in one process (one usable
# CPU), after 48 MiB of heap arrays were freed under the CLI's heap policy.
_HEAP_AT_FIT_START = """
import os
import numpy as np
from fpt import worker
from fpt.backbone import BackboneConfig, init_random
from fpt.rng import seeded_rng

def resident_mib():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
worker._keep_heap()
cfg = BackboneConfig(
    n_layers=1, d_model=16, n_heads=2, d_ff=32, max_tokens=8, patch_len=8, head_in=64, head_out=2,
)
store = init_random(cfg, seeded_rng(0))
freed = [np.ones(1 << 17) for _ in range(48)]
del freed
before = resident_mib()
with worker.fit_on_two_cores(store, cfg, frozenset(store), 16, 4):
    print(before, resident_mib())
"""


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "malloc_trim"))
    or not hasattr(os, "sched_setaffinity"),
    reason="needs glibc and CPU affinity",
)
def test_a_fit_in_one_process_hands_back_the_freed_heap():
    before, inside = map(float, _run(_HEAP_AT_FIT_START).split())
    assert inside < before - 24, (before, inside)


# OpenBLAS's thread count, on the last line, after a command through the
# CLI, or after a fit through the library, in a fresh process.
_BLAS_THREADS_AFTER = """
import sys
from fpt import tasks, worker
from fpt.backbone import BackboneConfig, Batch, FreezeMask, init_random
from fpt.cli import main
from fpt.rng import seeded_rng

if sys.argv[1] == "command":
    main(["analyze", "maxent", "--q", "0.5", "--g", "0.5", "--output", sys.argv[2]])
else:
    cfg = BackboneConfig(
        n_layers=1, d_model=16, n_heads=2, d_ff=32, max_tokens=8, patch_len=8, head_in=64,
        head_out=2,
    )
    rng = seeded_rng(0)
    store = init_random(cfg, rng.child(1))
    setup = tasks.AblationSetup(store, FreezeMask.all_trainable(store), cfg)
    train = Batch(tokens=rng.normal((32, 4, 8)), targets=rng.normal((32, 2)))
    tcfg = tasks.TrainConfig(
        epochs=1, batch_size=16, learning_rate=1e-3, early_stop_patience=3, seed=0,
        ablation="no_pretrain",
    )
    tasks._fit(setup, train, None, tcfg, rng.child(2))
print(worker._openblas("get_num_threads", [])())
"""


@pytest.mark.skipif(
    worker._openblas("get_num_threads", []) is None, reason="needs OpenBLAS's thread count"
)
@pytest.mark.parametrize("after", ["command", "fit"])
def test_one_blas_thread_after(after, tmp_path):
    assert _run(_BLAS_THREADS_AFTER, after, str(tmp_path / "out")).splitlines()[-1] == "1"
