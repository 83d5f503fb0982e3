"""Pin every loaded OpenBLAS to one thread while dense linear algebra runs,
and choose the one complex Cholesky pair the genie MMSE solves with.

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
imported.  numpy maps its copy as it loads, and the first scan finds it in
the process's memory maps; binding a copy also looks up `zpotrf`/`zpotrs`
under the names its build exports.  `lapack_cholesky` chooses the pair once:
LAPACK's `zpotrf`/`zpotrs` bound with ctypes from the first copy that has
them and a thread setter (numpy's own on numpy's wheels, so ddce itself
never maps scipy's copy), or else the same routines through
`scipy.linalg.lapack` (a numpy on Accelerate or MKL, or no `/proc/self/maps`).
That import maps scipy's copy, and so does a caller's own import of
`scipy.linalg`; `rescan()` adds it.  A copy found while the pin is held is
pinned at once and restored on the last exit with the others.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

_MAPS = "/proc/self/maps"
# (set, get) names: numpy >= 2's and numpy 1.x's 64-bit-index copies,
# scipy's copy, a plain build
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# (factor, solve, Fortran INTEGER) of LAPACK's complex Cholesky pair: numpy
# >= 2's copy and numpy 1.x's copy (64-bit indices), a plain LP64 build
_LAPACK = (
    ("scipy_zpotrf_64_", "scipy_zpotrs_64_", ctypes.c_int64),
    ("zpotrf_64_", "zpotrs_64_", ctypes.c_int64),
    ("zpotrf_", "zpotrs_", ctypes.c_int),
)

_lock = threading.Lock()
_depth = 0
# mapped path -> (set, get) of each OpenBLAS found, in the order found; None
# for a path that names openblas but has no thread setter.  None until the
# first scan.
_libs: dict | None = None
_saved: list = []  # (set, count) of each pinned copy, to restore on the last exit
_cholesky = None  # the pair lapack_cholesky chose; a LapackCholesky as soon as a scan finds one


class LapackCholesky(NamedTuple):
    """`zpotrf`/`zpotrs` of one OpenBLAS copy, on the lower triangle.  ctypes
    passes bare pointers, so both check the layout first."""

    potrf: Callable
    potrs: Callable
    integer: type  # the ctypes type of a Fortran INTEGER in this build

    def factor(self, a) -> int:
        """Factor the lower triangle of a in place; LAPACK's info."""
        _check_layout(a)
        n, lda, info = self.integer(a.shape[0]), self.integer(max(1, a.shape[0])), self.integer()
        self.potrf(b"L", n, a.ctypes.data, lda, info, 1)
        return info.value

    def solve(self, c, b) -> np.ndarray:
        """The solution x of (c c^H) x = b on the factor c, for a complex128
        vector b, which is copied."""
        _check_layout(c)
        if not (isinstance(b, np.ndarray) and b.dtype == np.complex128 and b.shape == c.shape[:1]):
            raise ValueError(
                f"expected a complex128 right-hand side of shape {c.shape[:1]}, got "
                f"{getattr(b, 'dtype', type(b).__name__)} {np.shape(b)}"
            )
        x = b.copy()
        n, lda, info = self.integer(c.shape[0]), self.integer(max(1, c.shape[0])), self.integer()
        self.potrs(b"L", n, self.integer(1), c.ctypes.data, lda, x.ctypes.data, lda, info, 1)
        return x


class ScipyCholesky(NamedTuple):
    """The same pair through `scipy.linalg.lapack`, called as scipy.linalg's
    own lower, in-place factor and its solve call them, so the same bits."""

    lapack: object  # the scipy.linalg.lapack module

    def factor(self, a) -> int:
        _check_layout(a)  # anything else f2py would copy, not factor in place
        return self.lapack.zpotrf(a, lower=1, overwrite_a=1, clean=0)[1]

    def solve(self, c, b) -> np.ndarray:
        return self.lapack.zpotrs(c, b, lower=1)[0]


def _check_layout(a) -> None:
    """A ValueError unless a is an F-ordered square complex128 matrix: the
    layout LAPACK factors in place."""
    if not (
        isinstance(a, np.ndarray)
        and a.dtype == np.complex128
        and a.ndim == 2
        and a.shape[0] == a.shape[1]
        and a.flags.f_contiguous
    ):
        raise ValueError(
            "expected an F-contiguous square complex128 matrix, got "
            f"{getattr(a, 'dtype', type(a).__name__)} {np.shape(a)}"
        )


def _bind(path: str):
    """((set, get) thread-count functions, LapackCholesky) of the library at
    path, each None where the library lacks it."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None, None
    threads = cholesky = None
    for set_name, get_name in _SYMBOLS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            set_fn, get_fn = getattr(lib, set_name), getattr(lib, get_name)
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            threads = set_fn, get_fn
            break
    for potrf_name, potrs_name, integer in _LAPACK:
        if hasattr(lib, potrf_name) and hasattr(lib, potrs_name):
            potrf, potrs = getattr(lib, potrf_name), getattr(lib, potrs_name)
            ref, ptr = ctypes.POINTER(integer), ctypes.c_void_p
            # trailing: the hidden length of the Fortran UPLO string
            potrf.argtypes = [ctypes.c_char_p, ref, ptr, ref, ref, ctypes.c_size_t]
            potrs.argtypes = [ctypes.c_char_p, ref, ref, ptr, ref, ptr, ref, ref, ctypes.c_size_t]
            potrf.restype = potrs.restype = None
            cholesky = LapackCholesky(potrf, potrs, integer)
            break
    return threads, cholesky


def _pin(fns) -> None:
    """Set one copy to 1 thread, keeping its count for the last exit."""
    set_fn, get_fn = fns
    _saved.append((set_fn, get_fn()))
    set_fn(1)


def _scan() -> None:
    """Add every OpenBLAS mapped since the last scan, pinning it if the pin
    is held.  The caller holds _lock."""
    global _libs, _cholesky
    if _libs is None:
        _libs = {}
    try:
        with open(_MAPS, encoding="utf-8") as fh:
            paths = {ln.split(maxsplit=5)[-1].strip() for ln in fh if "openblas" in ln}
    except OSError:
        return
    for path in sorted(paths - _libs.keys()):
        fns, cholesky = _bind(path)
        _libs[path] = fns
        if fns is not None and _depth:
            _pin(fns)
        if _cholesky is None and fns is not None:  # only in a copy the pin covers
            _cholesky = cholesky


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


def lapack_cholesky() -> LapackCholesky | ScipyCholesky:
    """LAPACK's complex Cholesky pair, chosen on the first call: the ctypes
    pair of the first OpenBLAS found that exports it and a thread setter,
    else `ScipyCholesky`.  The first call scans."""
    global _cholesky
    with _lock:
        if _libs is None:
            _scan()
        if _cholesky is not None:
            return _cholesky
    # imported outside _lock; the rescan then finds scipy's OpenBLAS, pinned if the pin is held
    from scipy.linalg import lapack

    rescan()
    with _lock:
        if _cholesky is None:
            _cholesky = ScipyCholesky(lapack)
        return _cholesky


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
