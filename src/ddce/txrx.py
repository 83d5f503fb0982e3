"""Modulation, frame assembly and the single-tap equalizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolationError, finite_complexes, positive_int, tuple_of
from .grids import MAX_GRID_RES, TFGrid, _adopt, _set_spacings
from .kernels import _lattice

if TYPE_CHECKING:  # pragma: no cover
    from .config import SystemConfig

# Unit-energy pilot symbol, same energy as the data constellation.
PILOT_VALUE = (1.0 + 1.0j) / np.sqrt(2.0)

NEAR_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class PilotPattern:
    """Rectangular pilot lattice: every d_f-th subcarrier, every d_t-th symbol."""

    d_t: int
    d_f: int

    def __post_init__(self):
        _set_spacings(self)


@dataclass(frozen=True)
class FrameLayout:
    """Pilot and data positions of an M x N frame, shape = (M, N), whose
    pilots sit on every d_f-th subcarrier of every d_t-th symbol.  Each side
    and spacing is an int >= 1, each spacing divides its side and M*N is at
    most MAX_GRID_RES, or one ContractViolationError names the field.

    Positions are ordered symbol-major with the subcarrier index fastest.
    pilot_flat and data_flat index the row-major flattened grid, and
    pilot_m, pilot_n are the pilots' subcarrier and symbol indices; all four
    are derived once from the lattice, as read-only intp arrays.
    """

    shape: tuple
    d_t: int
    d_f: int
    pilot_m: np.ndarray = field(init=False, repr=False, compare=False)
    pilot_n: np.ndarray = field(init=False, repr=False, compare=False)
    pilot_flat: np.ndarray = field(init=False, repr=False, compare=False)
    data_flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = tuple_of(positive_int)("shape", self.shape)
        if len(shape) != 2:
            raise ContractViolationError(f"shape must be (M, N), got {len(shape)} sides")
        if shape[0] * shape[1] > MAX_GRID_RES:  # before any array of that size
            raise ContractViolationError(f"shape must hold at most {MAX_GRID_RES} resource elements")
        big_m, d_f = _lattice("M", shape[0], "d_f", self.d_f)
        big_n, d_t = _lattice("N", shape[1], "d_t", self.d_t)
        is_pilot = np.zeros((big_n, big_m), dtype=bool)  # symbol-major
        is_pilot[::d_t, ::d_f] = True
        pn, pm = map(np.ascontiguousarray, np.nonzero(is_pilot))  # nonzero's are strided views
        dn, dm = np.nonzero(~is_pilot)
        derived = {"pilot_m": pm, "pilot_n": pn, "pilot_flat": pm * big_n + pn,
                   "data_flat": dm * big_n + dn}
        for key, value in {"shape": shape, "d_t": d_t, "d_f": d_f, **derived}.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, key, value)

    @property
    def n_pilot(self) -> int:
        return self.pilot_flat.size

    @property
    def n_data(self) -> int:
        return self.data_flat.size

    def flat(self, tf: TFGrid) -> np.ndarray:
        """tf's data as a row-major flat view, if tf is the M x N grid this layout indexes."""
        if tf.data.shape != self.shape:
            raise ContractViolationError(
                f"TF grid shape {tf.data.shape} does not match the layout's (M, N) = {self.shape}"
            )
        return tf.data.ravel()


_layout = lru_cache(maxsize=16)(FrameLayout)


def make_layout(pattern: PilotPattern, cfg: "SystemConfig") -> FrameLayout:
    """Deterministic pilot/data layout of an M x N frame (shared, read-only)."""
    return _layout((cfg.M, cfg.N), pattern.d_t, pattern.d_f)


def _qam4_table() -> np.ndarray:
    """The points at index 2*b1 + b0, by the mapping's formula and its bits."""
    b1, b0 = np.divmod(np.arange(4.0), 2.0)
    points = ((1.0 - 2.0 * b1) + 1j * (1.0 - 2.0 * b0)) / np.sqrt(2.0)
    points.setflags(write=False)
    return points


_QAM4 = _qam4_table()


def qam4_mod(bits) -> np.ndarray:
    """Gray-mapped 4-QAM: bit pair (b1, b0) -> ((1-2*b1) + j*(1-2*b0))/sqrt(2)."""
    b = np.asarray(bits)
    if b.ndim != 1 or b.size % 2:
        raise ContractViolationError(f"bit array must be 1-D with even length, got shape {b.shape}")
    if not ((b == 0) | (b == 1)).all():
        raise ContractViolationError("bits must be 0 or 1")
    index = b[0::2].astype(np.intp)
    index <<= 1
    index |= b[1::2].astype(np.intp)
    return _QAM4.take(index)


def qam4_demod(symbols) -> np.ndarray:
    """Nearest-point hard decisions; boundary ties resolve to bit 0."""
    s = np.asarray(symbols, dtype=np.complex128)
    out = np.empty(2 * s.size, dtype=np.int64)
    out[0::2] = (s.real < 0).astype(np.int64)
    out[1::2] = (s.imag < 0).astype(np.int64)
    return out


def build_frame(data_syms, pattern: PilotPattern, cfg: "SystemConfig"):
    """Place pilots on the lattice and data symbols everywhere else.

    Returns the transmit TF grid together with the layout used to fill it.
    """
    layout = make_layout(pattern, cfg)
    syms = finite_complexes("data_syms", data_syms)  # cast to complex128 as it is placed
    if syms.shape != (layout.n_data,):
        raise ContractViolationError(f"data_syms must be {layout.n_data} symbols for an {cfg.M}x{cfg.N} "
                                     f"frame, got shape {syms.shape}")
    grid = np.zeros((cfg.M, cfg.N), dtype=np.complex128)
    flat = grid.ravel()  # a view: the grid is C-ordered
    flat[layout.pilot_flat] = PILOT_VALUE
    flat[layout.data_flat] = syms
    return _adopt(TFGrid, grid), layout


def extract_data(tf: TFGrid, layout: FrameLayout) -> np.ndarray:
    """Data-position values of a frame, in layout order."""
    return layout.flat(tf).take(layout.data_flat)


def equalize_single_tap(y: TFGrid, h_hat: TFGrid, layout: FrameLayout):
    """Per-RE division x_hat = y / h_hat at the data positions.

    Estimates with |h_hat| below NEAR_SINGULAR_TOL yield x_hat = 0 instead of
    blowing up; the count of such REs is returned alongside the symbols.
    """
    return _single_tap(extract_data(y, layout), extract_data(h_hat, layout))


def _single_tap(y_data: np.ndarray, hv: np.ndarray):
    """(y_data / hv, near-singular count) over data-position values, with
    the REs where |hv| < NEAR_SINGULAR_TOL set to 0.  hv is overwritten; the
    mask work runs only when some RE is near-singular, and with nothing
    masked the division is the same IEEE one."""
    bad = np.abs(hv) < NEAR_SINGULAR_TOL
    n_sing = int(np.count_nonzero(bad))
    if not n_sing:
        return np.divide(y_data, hv, out=hv), 0
    x_hat = y_data / np.where(bad, 1.0, hv)
    x_hat[bad] = 0.0
    return x_hat, n_sing
