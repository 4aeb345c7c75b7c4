"""Host record, thread clamp and the STREAM triad reference.

The benchmark drives the program from one caller thread and uses at most
``os.cpu_count()`` pool threads, so every run records what the host had
to offer: CPUs, cache sizes, the BLAS thread count and library versions.
BLAS is pinned to one thread by ``run.py`` before NumPy is imported.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time
from pathlib import Path

#: Environment variables that size the BLAS / OpenMP thread pools.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; only effective before NumPy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def check_threads(callers: int, pool_threads: int, nproc: int) -> None:
    """Refuse a setting whose threads would exceed the host's CPUs.

    Two callers on two shared CPUs would measure the scheduler, not the
    program, so ``callers * pool_threads`` must fit in ``nproc``.
    """
    if callers < 1 or pool_threads < 1 or nproc < 1:
        raise ValueError(
            f"callers, pool threads and nproc must be >= 1, got "
            f"{callers}, {pool_threads}, {nproc}"
        )
    if callers * pool_threads > nproc:
        raise ValueError(
            f"{callers} caller(s) x {pool_threads} pool thread(s) exceed "
            f"the host's {nproc} CPU(s)"
        )


def cache_sizes(sysfs: Path = Path("/sys/devices/system/cpu/cpu0/cache")
                ) -> dict[str, int]:
    """Unified/data cache sizes in bytes by level (``L1d``, ``L2``, ...)."""
    sizes: dict[str, int] = {}
    for index in sorted(sysfs.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1], 1)
        value = int(text.rstrip("KMG")) * scale
        sizes["L1d" if level == "1" else f"L{level}"] = value
    return sizes


def blas_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def host_record() -> dict:
    """Everything about the host a reader needs to judge a run."""
    import numpy as np
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "caches_bytes": cache_sizes(),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def stream_triad(elems: int = 4_000_000, repeats: int = 9) -> dict:
    """Host STREAM triad ``a = b + s * c``: median GB/s over ``repeats``.

    Bytes are counted as STREAM does (three arrays of 8-byte doubles per
    element). The array size is recorded so a reader can compare it with
    the caches: arrays smaller than the last-level cache measure cache
    bandwidth, not DRAM bandwidth.
    """
    import numpy as np

    b = np.full(elems, 1.0)
    c = np.full(elems, 2.0)
    a = np.empty(elems)
    samples = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        samples.append(time.perf_counter() - t0)
    seconds = float(np.median(samples[1:]))
    return {
        "gbs": 3 * 8 * elems / seconds / 1e9,
        "array_bytes": 8 * elems,
        "repeats": repeats,
    }
