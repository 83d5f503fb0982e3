"""Resource grids and the unitary transforms between their two domains.

A frame occupies an M x N time-frequency (TF) grid: M subcarriers spaced
delta_f apart, N OFDM symbols of duration T = 1/delta_f.  The same frame can
be viewed on an N x M delay-Doppler (DD) grid through the symplectic pair
implemented here:

    dd[k, l] = 1/sqrt(N*M) * sum_{m,n} tf[m, n] * e^{+j2pi*m*l/M} * e^{-j2pi*n*k/N}

i.e. an inverse DFT along frequency (m -> delay l) and a forward DFT along
time (n -> Doppler k), both orthonormal.  `isfft` is the exact inverse.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ContractViolationError, finite_complexes, integer, positive_int

MAX_GRID_RES = 1 << 20  # resource elements of the largest grid a config or kernel may build


@cache
def _keep_grids_on_the_heap() -> None:
    """Once per process, glibc's mmap threshold to 8 MiB (a 512-pilot system
    is exactly 4 MiB) and its trim threshold to 32 MiB, so freed grids and
    genie-MMSE systems are reused, not faulted in afresh.  A libc without
    `mallopt` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # macOS, Windows
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD; musl's stub returns 0, ignored
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


def _freeze_grid(data, what: str) -> np.ndarray:
    """Checked, read-only, C-ordered complex128 copy of the array a public constructor `what`
    stores: its `data` (a PilotObservations' `values`) of finite numbers, non-empty and 2-D,
    with an even number of rows for the centered Doppler axis of a DDGrid or PeriodCSF.  A
    refusal names the argument, then the constructor."""
    key = "values" if what == "PilotObservations" else "data"
    try:
        arr = finite_complexes(key, data)
        if arr.ndim != 2 or arr.size == 0:
            raise ContractViolationError(f"{key} must be a non-empty 2-D array, got shape {arr.shape}")
        if what in ("DDGrid", "PeriodCSF") and arr.shape[0] % 2:
            raise ContractViolationError(f"{key} must have an even Doppler axis, got {arr.shape[0]} rows")
    except ContractViolationError as exc:
        raise ContractViolationError(f"{exc} ({what})") from None
    arr = np.array(arr, dtype=np.complex128, order="C")
    arr.setflags(write=False)
    return arr


def _set_spacings(obj, data=None) -> None:
    """Check a frozen lattice object's pilot spacings d_t, d_f, and set each
    as a Python int.  Given the lattice's data, the full grid it samples,
    data.size * d_t * d_f resource elements, is at most MAX_GRID_RES, or the
    error names d_t if it alone spans more, else d_f."""
    for key in ("d_t", "d_f"):
        object.__setattr__(obj, key, positive_int(key, getattr(obj, key)))
    if data is not None and data.size * obj.d_t * obj.d_f > MAX_GRID_RES:
        key = "d_t" if data.size * obj.d_t > MAX_GRID_RES else "d_f"
        raise ContractViolationError(f"{key} must keep the full grid at most {MAX_GRID_RES} "
                                     "resource elements")


def _adopt(cls, data: np.ndarray, **fields):
    """A `cls` grid around an array the pipeline just derived from checked
    values: made read-only, neither copied nor rescanned.  A non-C-ordered
    array is copied to C order, as `_freeze_grid` does, since means over a
    grid sum in memory order and the layout sets their last bits."""
    data = np.ascontiguousarray(data, dtype=np.complex128)
    data.setflags(write=False)
    grid = object.__new__(cls)
    vars(grid).update(data=data, **fields)  # past the frozen __setattr__
    return grid


@dataclass(frozen=True)
class TFGrid:
    """Time-frequency grid; data[m, n] lives at subcarrier m, OFDM symbol n."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze_grid(self.data, "TFGrid"))

    @property
    def n_subcarriers(self) -> int:
        return self.data.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class DDGrid:
    """Delay-Doppler grid; data[r, l] holds Doppler row r = k mod N, delay l.

    Rows are stored in standard DFT order.  The centered view maps
    k in {-N/2, ..., N/2 - 1} onto rows bijectively via r = k mod N,
    so the grid height must be even.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze_grid(self.data, "DDGrid"))

    @property
    def n_doppler(self) -> int:
        return self.data.shape[0]

    @property
    def n_delay(self) -> int:
        return self.data.shape[1]

    def at_centered(self, k: int, l: int) -> complex:
        """Entry at centered Doppler index k and delay l (both ints, wrapping cyclically)."""
        return complex(self.data[integer("k", k) % self.n_doppler, integer("l", l) % self.n_delay])


@dataclass(frozen=True)
class PeriodCSF:
    """One period of the pilot-sampled delay-Doppler response.

    data[i, l] covers one full period of the lattice-sampled spreading
    image: Doppler rows ordered k = -N/(2*d_t) .. N/(2*d_t) - 1 (centered),
    delay columns l = 0 .. M/d_f - 1.  The underlying function is 2-D
    periodic, so `value` accepts any integer pair and wraps.
    """

    data: np.ndarray
    d_t: int
    d_f: int

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze_grid(self.data, "PeriodCSF"))
        _set_spacings(self, self.data)

    @property
    def n_doppler(self) -> int:
        return self.data.shape[0]

    @property
    def n_delay(self) -> int:
        return self.data.shape[1]

    @property
    def full_n(self) -> int:
        """Doppler length of the full grid this period was sampled from."""
        return self.n_doppler * self.d_t

    @property
    def full_m(self) -> int:
        return self.n_delay * self.d_f

    @property
    def k_min(self) -> int:
        return -(self.n_doppler // 2)

    @cached_property
    def magnitude(self) -> np.ndarray:
        """Read-only |data|, computed once for detection and recovery."""
        mag = np.abs(self.data)
        mag.setflags(write=False)
        return mag

    @cached_property
    def column_peaks(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (rows, peaks) of each delay column of `magnitude`: the
        first row at the column's maximum, and that maximum."""
        rows = self.magnitude.argmax(axis=0)
        peaks = self.magnitude[rows, np.arange(self.n_delay)]
        rows.setflags(write=False)
        peaks.setflags(write=False)
        return rows, peaks

    def value(self, k: int, l: int) -> complex:
        """Entry at centered Doppler k and delay l (both ints), periodic in both axes."""
        row = (integer("k", k) - self.k_min) % self.n_doppler
        return complex(self.data[row, integer("l", l) % self.n_delay])


def sfft(tf: TFGrid) -> DDGrid:
    """Map a TF grid to its delay-Doppler image.

    Orthonormal IDFT over subcarriers followed by orthonormal DFT over
    symbols; output rows are Doppler in standard order, columns are delay.
    """
    tmp = np.fft.ifft(tf.data, axis=0, norm="ortho")  # m -> l, now [l, n]
    tmp = np.fft.fft(tmp, axis=1, norm="ortho")  # n -> k, now [l, k]
    return _adopt(DDGrid, tmp.T)


def isfft(dd: DDGrid, cfg=None) -> TFGrid:
    """Inverse of `sfft`: delay-Doppler image back to the TF grid."""
    if cfg is not None and dd.data.shape != (cfg.N, cfg.M):
        raise ContractViolationError(
            f"DD grid shape {dd.data.shape} does not match config (N={cfg.N}, M={cfg.M})"
        )
    tmp = np.fft.ifft(dd.data, axis=0, norm="ortho")  # k -> n, now [n, l]
    tmp = np.fft.fft(tmp, axis=1, norm="ortho")  # l -> m, now [n, m]
    return _adopt(TFGrid, tmp.T)
