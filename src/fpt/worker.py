"""Training on two cores: a worker process forked for one fit runs the
second half of every minibatch's rows, and the weights stay the ones one
process computes, bit for bit.

``fit_on_two_cores`` starts the worker for a fit and ends it; inside it,
``backbone.loss_and_grads`` hands each of the fit's steps to
``_Worker.step``, and each process runs ``_Worker._half`` on its rows.  The
two share one anonymous ``mmap`` (the arena) for the weights, the batch and
the rows of gradient operands, and trade short pickled messages over two
pipes.  Each weight gradient is one GEMM or column sum over all of a
batch's rows, run by one of the two processes.

It also owns the process's native settings, which nothing undoes: glibc's
heap thresholds (``_keep_heap``, set by ``cli.main``), one OpenBLAS thread
(``_one_blas_thread``, set by ``cli.main`` and every fit) and a heap trimmed
as a fit starts and after each of its validation passes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import os
import pickle
import select
import signal
import sys
import time

import numpy as np

from . import backbone
from .backbone import (
    BackboneConfig,
    Batch,
    _backbone_bwd,
    _blocks,
    _compute_store,
    _head_and_loss,
    _keep,
    _loss_field_rows,
    _unscaled,
    init_random,
)
from .rng import RandomStream


def _openblas(stem: str, argtypes: list):
    """The function ``int openblas_<stem>(argtypes)`` of the OpenBLAS numpy
    loaded, found by its path in ``/proc/self/maps``, under whichever symbol
    prefix and suffix the build uses; None when there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}openblas_{stem}{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = argtypes, ctypes.c_int
                    return fn
    return None


@functools.cache
def _one_blas_thread() -> bool:
    """Set this process's OpenBLAS to one thread, for good; whether it could
    (where the setter is not found, nothing changes)."""
    setter = _openblas("set_num_threads_local", [ctypes.c_int])
    if setter is not None:
        setter(1)
    return setter is not None


# The C library (None off Linux) and its glibc mallopt parameters (malloc.h)
_LIBC = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_heap() -> None:
    """Keep freed heap memory in the process for the next training step.

    By default glibc serves a large array from its own mmap and unmaps it on
    free, and trims the heap top back to the OS, so the backward tape of
    every step (about 9 MB at the c09 shape) lands on fresh pages and pays a
    minor fault per page.  Pinning both thresholds (setting either one alone
    turns off glibc's dynamic mmap threshold and is slower than neither) lets
    the next step reuse the freed memory.  The arithmetic is unchanged.  A
    no-op where the C library has no ``mallopt``.
    """
    mallopt = getattr(_LIBC, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def _trim_heap() -> None:
    """Hand the heap's free pages back to the system (glibc ``malloc_trim``;
    elsewhere nothing)."""
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def _send(fd: int, msg) -> None:
    data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
    for view in (memoryview(len(data).to_bytes(8, "little")), memoryview(data)):
        while view:
            view = view[os.write(fd, view) :]


# A process waiting for the other polls its (non-blocking) pipe this long
# before it sleeps: waking a sleeping process cost 0.1-0.3 ms per hand-over,
# about 10% of a step at the c09 shape.
_POLL_S = 0.005


def _read(fd: int, size: int) -> bytearray:
    buf, deadline = bytearray(), time.perf_counter() + _POLL_S
    while len(buf) < size:
        try:
            chunk = os.read(fd, size - len(buf))
        except BlockingIOError:
            if time.perf_counter() > deadline:
                select.select([fd], [], [])
            continue
        if not chunk:
            raise EOFError("the other process closed its pipe")
        buf += chunk
    return buf


def _recv(fd: int):
    """The next message ``_send`` wrote to the pipe ``fd``."""
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


class _Arena:
    """Arrays in one anonymous shared mapping, handed out in order: two
    processes that make the same takes from the same ``top`` get the same
    memory.  Pages no process touches take no memory.

    Batch arrays (``rows``) take room for ``capacity`` rows whatever the
    batch, so a row keeps its pages from step to step.  Sized by the batch,
    a short last batch would move every row, and over an epoch each process
    would come to touch the pages of the other's rows too.
    """

    def __init__(self, nbytes: int, capacity: int):
        self.map, self.top, self.capacity = mmap.mmap(-1, nbytes), 0, capacity

    def take(self, shape, dtype) -> np.ndarray:
        a = np.ndarray(shape, dtype, buffer=self.map, offset=self.top)
        self.top += -(-a.nbytes // 64) * 64  # every array starts on a cache line
        return a

    def rows(self, batch: int, shape, dtype) -> np.ndarray:
        """A (batch, *shape) array at the start of room for ``capacity`` rows."""
        return self.take((self.capacity, *shape), dtype)[:batch]

    def release(self) -> None:
        """Unmap every page from this process.  The contents stay in the
        shared mapping, and the next access maps a page back."""
        self.map.madvise(mmap.MADV_DONTNEED)


class _RowDraws:
    """The dropout stream of the rows ``rows`` of a ``batch``-row step: it draws
    from ``stream`` at the whole batch's shape, as one process does."""

    def __init__(self, stream: RandomStream, rows: slice, batch: int):
        self.stream, self.rows, self.batch = stream, rows, batch

    def uniform(self, shape):
        return self.stream.uniform((self.batch, *shape[1:]))[self.rows]


class _RowGrads:
    """The gradient sink of one two-process step (see ``_set_grad``).

    Each gradient is one job, run by one of the two processes over all
    ``batch`` rows of its operands.  Jobs go out as they come, each to the
    process with fewer multiply-adds so far, except that a job sharing an
    operand with the job before it (a bias after its weight) goes with it;
    both processes see the same jobs in the same order and make the same
    assignment.  Each process copies its ``rows`` of every operand into the
    arena, and every job runs on the arena's whole-batch arrays.
    """

    def __init__(self, arena: _Arena, rows: slice, batch: int, me: int):
        self.arena, self.rows, self.batch, self.me = arena, rows, batch, me
        self.jobs: list[tuple] = []  # (names, fn, side, arena operands)
        self.load = [0, 0]
        self._last = (None, None, 0)  # the last operand, its arena array, its job's side

    def defer(self, names, fn, operands) -> None:
        last, buf, side = self._last
        if not any(a is last for a in operands):
            side = int(self.load[1] < self.load[0])
        width = operands[-1].shape[-1] if len(operands) > 1 else 1
        self.load[side] += math.prod(operands[0].shape[1:]) * width
        bufs = []
        for a in operands:
            if a is not last:
                buf = self.arena.rows(self.batch, a.shape[1:], a.dtype)
                buf[self.rows] = a
            bufs.append(buf)
        self._last = (operands[-1], bufs[-1], side)
        self.jobs.append((names, fn, side, bufs))

    def run(self):
        """(names, gradient) of each job this process runs."""
        for names, fn, side, bufs in self.jobs:
            if side == self.me:
                yield names, fn(*bufs)


class _Operands(list):
    """A gradient sink that keeps every operand it is given."""

    def defer(self, names, fn, operands) -> None:
        self.extend(operands)


_EXACT_SPLITS: dict[tuple, bool] = {}


def _split_is_exact(cfg: BackboneConfig, b: int, n: int, dtype) -> bool:
    """Whether two passes over the rows [0, ceil(b/2)) and [ceil(b/2), b)
    give every bit the whole b-row pass gives: the final LayerNorm's output
    and each gradient operand, on random weights and rows.  BLAS picks a
    kernel by the shape of each product, and its small-matrix kernels can
    round a row differently at a different row count, so this is measured
    once per shape, not assumed."""
    key = (cfg, b, n, dtype)
    if key not in _EXACT_SPLITS:
        rng = RandomStream(b)
        p = init_random(cfg, rng, dtype=dtype)
        x = rng.normal((b, n, cfg.patch_len)).astype(dtype)
        dy = rng.normal((b, n, cfg.d_model)).astype(dtype)
        h = (b + 1) // 2
        runs = []
        for rows in (slice(0, b), slice(0, h), slice(h, b)):
            y, _, tape = _blocks(p, cfg, x[rows], keep=True)
            ops = _Operands([y])
            _backbone_bwd(dy[rows], tape, p, cfg, ops, None)
            runs.append(ops)
        _EXACT_SPLITS[key] = all(
            np.array_equal(whole, np.concatenate(halves)) for whole, *halves in zip(*runs)
        )
    return _EXACT_SPLITS[key]


def _arena_bytes(p: dict, cfg: BackboneConfig, rows: int, n_tokens: int) -> int:
    """An upper bound on what ``_Worker`` takes from its arena: the weights;
    per row the loss fields (``_Worker._fields``, 8 bytes a number at most);
    per row and token the tokens, y and the operands ``_RowGrads`` copies
    (two per LayerNorm, twelve of width d_model and two of width d_ff per
    block, the tokens and dh for the embedding); the worker's gradients, at
    most the weights; and each array's rounding to 64 bytes."""
    d, depth = cfg.d_model, cfg.n_layers
    width = 2 * cfg.patch_len + 4 * d + depth * (12 * d + 2 * cfg.d_ff)
    fields = sum(math.prod(r) for r in _loss_field_rows(cfg.head_out).values())
    per_row = n_tokens * width * p["input_embedding.w"].itemsize + 8 * fields
    weights = sum(a.nbytes for a in p.values())
    return rows * per_row + 2 * weights + 64 * (2 * len(p) + 12 * depth + 11)


class _Worker:
    """A process forked for one fit that runs the rows [ceil(B/2), B) of
    each of the fit's ``loss_and_grads`` steps, and the arena the two
    processes share.  The fit's config, trainable set and token count are
    fixed at the fork.

    Per step the parent copies the weights and the batch into the arena and
    sends the batch's layout and the dropout stream; both run ``_half``, and
    the worker's gradients come back.  The worker never returns into its
    caller's frames and writes to no terminal; it ends on end-of-file of its
    command pipe, after sending back an error, or when killed.
    """

    def __init__(self, p: dict, cfg: BackboneConfig, wanted, rows: int, n_tokens: int, cpu: int):
        self.cfg, self.wanted, self.rows, self.n_tokens = cfg, wanted, rows, n_tokens
        self.dtype = p["input_embedding.w"].dtype
        self.arena = _Arena(_arena_bytes(p, cfg, rows, n_tokens), rows)
        self.p = {name: self.arena.take(a.shape, self.dtype) for name, a in p.items()}
        self.mark = self.arena.top
        down, up = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (*down, *up):
                os.close(fd)
            raise
        self.pid = pid or None  # the worker has no worker to end: close() does nothing there
        code = 1
        try:
            self.inbox, self.outbox = (up[0], down[1]) if pid else (down[0], up[1])
            for fd in {*down, *up} - {self.inbox, self.outbox}:
                os.close(fd)
            os.set_blocking(self.inbox, False)
            if pid == 0:
                os.sched_setaffinity(0, {cpu})
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends the worker
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(null, 2)
                self._serve()
                code = 0
        finally:
            if pid == 0:  # the worker never returns into its caller's frames
                os._exit(code)

    def fits(self, p: dict, cfg: BackboneConfig, batch: Batch, wanted) -> bool:
        """Whether the worker lives, the step is the fit's (its config, trainable
        set, dtype and token shape), the arena takes its batch, and two halves
        of that batch give its bits."""
        shape = np.shape(batch.tokens)
        return (
            self.pid is not None
            and (cfg, wanted, p["input_embedding.w"].dtype, shape[1:])
            == (self.cfg, self.wanted, self.dtype, (self.n_tokens, self.cfg.patch_len))
            and 2 <= shape[0] <= self.rows
            and self._fields(batch) is not None
            and self._exact(shape[0])
        )

    def _fields(self, batch: Batch):
        """(name, row shape, dtype) of the arena copy of the tokens and of each
        field of ``batch`` the loss reads; None when one of those is not a
        float64-castable number in the shape ``_loss_and_dout`` asks for: that
        step runs, and raises, in one process."""
        b, rows = len(batch.tokens), _loss_field_rows(self.cfg.head_out)
        fields = [(n, rows[n], np.asarray(a)) for n in rows if (a := getattr(batch, n)) is not None]
        ok = all(a.shape == (b, *r) and np.can_cast(a.dtype, np.float64) for _, r, a in fields)
        tokens = ("tokens", (self.n_tokens, self.cfg.patch_len), self.dtype)
        return [tokens, *((n, r, a.dtype) for n, r, a in fields)] if ok else None

    def _exact(self, b: int) -> bool:
        """``_split_is_exact`` at batch size ``b``, measured in the worker so
        that its whole-batch pass leaves no high-water mark in this process."""
        key = (self.cfg, b, self.n_tokens, self.dtype)
        if key not in _EXACT_SPLITS:
            self._say("probe", b)
            _EXACT_SPLITS[key] = self._hear("probe")
        return _EXACT_SPLITS[key]

    def _layout(self, b: int, fields):
        """This step's arena batch, with the ``fields`` of ``_fields``, and y,
        taken in the same order in both processes."""
        self.arena.top = self.mark
        batch = Batch(**{name: self.arena.rows(b, shape, dtype) for name, shape, dtype in fields})
        return batch, self.arena.rows(b, (self.n_tokens, self.cfg.d_model), self.dtype)

    def _say(self, tag, payload) -> None:
        with contextlib.suppress(BrokenPipeError):  # the other has exited: _hear says so
            _send(self.outbox, (tag, payload))

    def _hear(self, tag):
        try:
            got, payload = _recv(self.inbox)
        except EOFError:
            got, payload = "error", RuntimeError("the other process of a two-process fit exited")
        if got != tag:  # the worker has ended, or is out of step: it serves no other
            self.close(kill=True)
            raise payload if got == "error" else RuntimeError(f"got {got!r}, expected {tag!r}")
        return payload

    def _half(self, me: int, p, batch: Batch, y, dropout_rng):
        """One process's half of a step on the arena's ``batch`` and ``y``: its
        rows ([0, ceil(B/2)) in the parent, ``me`` 0) through the blocks, the
        head and the loss on all rows (the head's gradients in the parent
        alone), its rows back; returns (value, head gradients, _RowGrads, k)."""
        b, cfg = len(y), self.cfg
        rows = (slice(0, (b + 1) // 2), slice((b + 1) // 2, b))[me]
        drops = None if dropout_rng is None else _RowDraws(dropout_rng, rows, b)
        y[rows], _, tape = _blocks(p, cfg, batch.tokens[rows], dropout_rng=drops, keep=True)
        self._say("y", None)  # then both processes wait until both halves of y are in
        self._hear("y")
        value, head, dy, k = _head_and_loss(y, p, cfg, batch, frozenset() if me else self.wanted)
        grads = _RowGrads(self.arena, rows, b, me)
        _backbone_bwd(dy[rows], tape, p, cfg, grads, self.wanted)
        self._say("rows", None)
        self._hear("rows")
        return value, head, grads, k

    # the parent's side

    def start(self, p, batch: Batch, dropout_rng):
        """Copy the step's weights and batch into the arena and hand the worker
        its half and a copy of the dropout stream; returns the arena's batch and y."""
        for name, w in self.p.items():
            w[...] = p[name]
        fields = self._fields(batch)
        ours, y = self._layout(len(batch.tokens), fields)
        for name, *_ in fields:
            getattr(ours, name)[...] = getattr(batch, name)
        self._say("step", (len(y), fields, dropout_rng))
        return ours, y

    def step(self, p, batch: Batch, dropout_rng):
        """``loss_and_grads`` on the compute store ``p``: the parent's ``_half``,
        its gradient jobs, then the worker's gradients.  The worker is killed
        when the step raises: it may be mid-step."""
        try:
            value, ours, grads, k = self._half(0, p, *self.start(p, batch, dropout_rng), dropout_rng)
            for names, g in grads.run():
                _keep(ours, self.wanted, names, g)
            ours = _unscaled(ours, k)  # while the worker runs its jobs
            theirs: dict[str, np.ndarray] = {}
            for names, shape, dtype in self._hear("done"):
                _keep(theirs, self.wanted, names, self.arena.take(shape, dtype))
            return value, {**ours, **_unscaled(theirs, k)}
        except BaseException:
            self.close(kill=True)
            raise

    def close(self, kill: bool) -> None:
        """End the worker and reap it; ``kill`` stops it mid-step."""
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        os.close(self.outbox)  # end-of-file ends a waiting worker
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(self.inbox)

    # the worker's side

    def _serve(self) -> None:
        while True:
            try:
                tag, args = _recv(self.inbox)
            except EOFError:
                return
            try:
                if tag == "probe":
                    self._say("probe", _split_is_exact(self.cfg, args, self.n_tokens, self.dtype))
                else:
                    self._half_step(*args)
            except Exception as exc:  # the parent raises it
                self._say("error", exc)
                return

    def _half_step(self, b: int, fields, dropout_rng) -> None:
        grads = self._half(1, self.p, *self._layout(b, fields), dropout_rng)[2]
        shapes = []
        for names, g in grads.run():
            self.arena.take(g.shape, g.dtype)[...] = g
            shapes.append((names, g.shape, g.dtype))
        self._say("done", shapes)


@contextlib.contextmanager
def fit_on_two_cores(store: dict, cfg: BackboneConfig, wanted, rows: int, n_tokens: int):
    """Run the fit's ``loss_and_grads`` steps (config ``cfg``, trainable set
    ``wanted``, 2 to ``rows`` rows of ``n_tokens`` tokens) on two processes
    within the block, which is given a context for its validation passes.

    On entry it trims the heap and sets one OpenBLAS thread; when that is
    set and this process may use two CPUs, it forks a ``_Worker``, and
    otherwise every row runs here.  While the worker lives, this thread and
    the worker each keep one of the first two usable CPUs (a worker woken
    onto its waker's CPU stalls both).  The worker ends with the block: it
    is closed and reaped, and killed first when the block raises; then the
    CPU set comes back.  The validation context unmaps the arena, if any,
    for the pass, then trims the heap.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    _trim_heap()
    worker = None
    if _one_blas_thread() and backbone._WORKER is None and rows >= 2 and len(cpus) >= 2:
        with contextlib.suppress(OSError):  # the fork failed: every row runs here
            worker = _Worker(_compute_store(store), cfg, wanted, rows, n_tokens, cpus[1])

    @contextlib.contextmanager
    def validation():
        if worker is not None:
            worker.arena.release()
        yield
        _trim_heap()

    if worker is None:
        yield validation
        return
    backbone._WORKER, ended = worker, False
    try:
        os.sched_setaffinity(0, cpus[:1])
        yield validation
        ended = True
    finally:
        backbone._WORKER = None
        worker.close(kill=not ended)
        os.sched_setaffinity(0, cpus)
