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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolationError


def _freeze_grid(data, what: str) -> np.ndarray:
    """Checked, read-only copy of a caller's array: what public constructors store."""
    arr = np.asarray(data, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0:
        raise ContractViolationError(
            f"{what} needs a non-empty 2-D complex array, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ContractViolationError(f"{what} values must all be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


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
        arr = _freeze_grid(self.data, "DDGrid")
        if arr.shape[0] % 2:
            raise ContractViolationError(
                f"DDGrid Doppler axis must have even length, got {arr.shape[0]}"
            )
        object.__setattr__(self, "data", arr)

    @property
    def n_doppler(self) -> int:
        return self.data.shape[0]

    @property
    def n_delay(self) -> int:
        return self.data.shape[1]

    def at_centered(self, k: int, l: int) -> complex:
        """Entry at centered Doppler index k and delay l (both wrap cyclically)."""
        return complex(self.data[k % self.n_doppler, l % self.n_delay])


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
        arr = _freeze_grid(self.data, "PeriodCSF")
        if arr.shape[0] % 2:
            raise ContractViolationError(
                f"PeriodCSF Doppler axis must have even length, got {arr.shape[0]}"
            )
        if self.d_t < 1 or self.d_f < 1:
            raise ContractViolationError("PeriodCSF pilot spacings must be >= 1")
        object.__setattr__(self, "data", arr)

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

    @property
    def doppler_axis(self) -> np.ndarray:
        return np.arange(self.n_doppler) + self.k_min

    @cached_property
    def magnitude(self) -> np.ndarray:
        """Read-only |data|, computed once for detection and recovery."""
        mag = np.abs(self.data)
        mag.setflags(write=False)
        return mag

    def value(self, k: int, l: int) -> complex:
        """Entry at centered Doppler k and delay l, periodic in both axes."""
        row = (k - self.k_min) % self.n_doppler
        return complex(self.data[row, l % self.n_delay])


def sfft(tf: TFGrid, cfg=None) -> DDGrid:
    """Map a TF grid to its delay-Doppler image.

    Orthonormal IDFT over subcarriers followed by orthonormal DFT over
    symbols; output rows are Doppler in standard order, columns are delay.
    """
    if cfg is not None and tf.data.shape != (cfg.M, cfg.N):
        raise ContractViolationError(
            f"TF grid shape {tf.data.shape} does not match config (M={cfg.M}, N={cfg.N})"
        )
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
