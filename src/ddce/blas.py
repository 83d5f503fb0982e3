"""Pin every loaded OpenBLAS to one thread while dense linear algebra runs.

A multi-threaded solve rounds differently from a single-threaded one, so the
pin is what keeps results independent of the BLAS thread count (and of
`OPENBLAS_NUM_THREADS`).  `mmse_estimate` holds it for each solve, the one
dense solve ddce runs.

OpenBLAS keeps one thread count per library for the whole process, so the pin
is process-wide as well.  A library caller may solve from threads of its own,
so nested and concurrent entries share one counter under a lock: the
outermost entry sets the count to 1 and the last exit restores it.  Saving
and restoring per entry would race between those threads.

OpenBLAS copies are found when they are mapped, not when this module is
imported.  numpy maps its copy as it loads, and the first use of the pin finds
it in the process's memory maps.  scipy maps its own copy only when
`scipy.linalg` is imported, which ddce does on the first noisy genie-MMSE
solve, before that solve takes the pin; the import calls `rescan()`.
A copy found while the pin is held is pinned at once and restored on the last
exit with the others.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

_MAPS = "/proc/self/maps"
# (set, get) names: numpy's 64-bit-index copy, scipy's copy, a plain build
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.Lock()
_depth = 0
# mapped path -> (set, get) of each OpenBLAS found, in the order found; None
# for a path that names openblas but has no thread setter.  None until the
# first scan.
_libs: dict | None = None
_saved: list = []  # (set, count) of each pinned copy, to restore on the last exit


def _bind(path: str):
    """(set, get) thread-count functions of the library at path, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for set_name, get_name in _SYMBOLS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            set_fn, get_fn = getattr(lib, set_name), getattr(lib, get_name)
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            return set_fn, get_fn
    return None


def _pin(fns) -> None:
    """Set one copy to 1 thread, keeping its count for the last exit."""
    set_fn, get_fn = fns
    _saved.append((set_fn, get_fn()))
    set_fn(1)


def _scan() -> None:
    """Add every OpenBLAS mapped since the last scan, pinning it if the pin
    is held.  The caller holds _lock."""
    global _libs
    if _libs is None:
        _libs = {}
    try:
        with open(_MAPS, encoding="utf-8") as fh:
            paths = {ln.split(maxsplit=5)[-1].strip() for ln in fh if "openblas" in ln}
    except OSError:
        return
    for path in sorted(paths - _libs.keys()):
        fns = _libs[path] = _bind(path)
        if fns is not None and _depth:
            _pin(fns)


def _openblas() -> list:
    """(set, get) function pairs of every OpenBLAS found so far, in the order
    found; the first call scans.  Empty when none is mapped."""
    if _libs is None:
        _scan()
    return [fns for fns in _libs.values() if fns is not None]


def rescan() -> None:
    """Find the OpenBLAS copies mapped since the last scan; call it after an
    import that may have mapped one."""
    with _lock:
        _scan()


def blas_thread_counts() -> tuple:
    """Current thread count of each OpenBLAS found, in the order found."""
    with _lock:
        return tuple(get_fn() for _, get_fn in _openblas())


@contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread; reentrant and
    safe to enter from several threads at once."""
    global _depth
    with _lock:
        if _depth == 0:
            for fns in _openblas():
                _pin(fns)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_fn, n in _saved:
                    set_fn(n)
                _saved.clear()
