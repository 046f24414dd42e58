"""Environment fingerprint recorded with every benchmark result.

fpt-lab's determinism holds for one machine, numpy build and BLAS kernel,
so every number is reported with the Python and numpy versions, the BLAS
library, its version, the core type it dispatched to, its thread count,
the number of usable CPUs and the commit measured.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _blas_library() -> ctypes.CDLL | None:
    """The BLAS shared object already mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _openblas_call(lib, stem: str, restype):
    """Call an OpenBLAS query under whichever symbol prefix/suffix the build uses."""
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            fn = getattr(lib, f"{prefix}openblas_{stem}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                value = fn()
                return value.decode() if isinstance(value, bytes) else value
    return None


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def fingerprint(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lib = _blas_library()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": None if lib is None else _openblas_call(lib, "get_corename", ctypes.c_char_p),
        "blas_threads": None if lib is None else _openblas_call(lib, "get_num_threads", ctypes.c_int),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }
