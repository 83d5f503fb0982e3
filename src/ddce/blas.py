"""Pin every loaded OpenBLAS to one thread while dense linear algebra runs.

The sweep's parallelism comes from its trial pool; OpenBLAS threads on top of
it oversubscribe the CPUs, and a multi-threaded solve rounds differently from
a single-threaded one, so results would depend on the BLAS thread count.

OpenBLAS keeps one thread count per library for the whole process, so the pin
is process-wide as well: nested and concurrent entries share one counter, the
outermost entry sets the count to 1 and the last exit restores it.  Saving and
restoring per entry would race between pool workers.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache

import numpy.linalg  # noqa: F401 - both copies of OpenBLAS must be mapped
import scipy.linalg  # noqa: F401 - before the maps file is read

_MAPS = "/proc/self/maps"
# (set, get) names: numpy's 64-bit-index copy, scipy's copy, a plain build
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.Lock()
_depth = 0
_saved: tuple = ()


@cache
def _openblas() -> tuple:
    """(set, get) function pairs of every OpenBLAS mapped into the process;
    empty when none is found."""
    try:
        with open(_MAPS, encoding="utf-8") as fh:
            paths = sorted({ln.split(maxsplit=5)[-1].strip() for ln in fh if "openblas" in ln})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_fn, get_fn = getattr(lib, set_name), getattr(lib, get_name)
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                found.append((set_fn, get_fn))
                break
    return tuple(found)


def blas_thread_counts() -> tuple:
    """Current thread count of each loaded OpenBLAS, in a fixed order."""
    return tuple(get_fn() for _, get_fn in _openblas())


@contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread; reentrant and
    safe to enter from several threads at once."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = blas_thread_counts()
            for set_fn, _ in _openblas():
                set_fn(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (set_fn, _), n in zip(_openblas(), _saved):
                    set_fn(n)
