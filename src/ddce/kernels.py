"""Closed-form Dirichlet kernels of sampled delay-Doppler responses.

A single propagation path with Doppler index k_i (possibly fractional) and
integer delay index l_i shows up on a DD grid as the outer product of two
geometric sums.  With pilot spacings d_t (time) and d_f (frequency) the sums
run over the N/d_t x M/d_f lattice and collapse to ratios of sines:

    D(k_i, k) = d_t/sqrt(N) * e^{+j*pi*dlt*d_t*(N/d_t-1)/N} * sin(pi*dlt) / sin(pi*d_t*dlt/N)
    G(l_i, l) = d_f/sqrt(M) * e^{-j*pi*dlt*d_f*(M/d_f-1)/M} * sin(pi*dlt) / sin(pi*d_f*dlt/M)

with dlt the Doppler (resp. delay) offset k_i - k (resp. l_i - l).  Both peak
at sqrt(N) (resp. sqrt(M)) when the offset vanishes and are exactly periodic
in the offset with period N/d_t (resp. M/d_f).  Setting d_t = d_f = 1 gives
the kernels of the full grid.  Sizes are ints >= 1 and a spacing must divide
its size; any other value is a ContractViolationError naming the argument.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, finite_complexes, finite_reals, integer, number, one_length
from .errors import positive_int
from .grids import MAX_GRID_RES


def _dirichlet(delta, total: int, spacing: int, phase_sign: int) -> np.ndarray:
    """Common sine-ratio evaluation, wrapped onto the principal period."""
    period = total // spacing
    delta = np.asarray(delta, dtype=np.float64)
    dw = (delta + period / 2.0) % period - period / 2.0
    # evaluated everywhere, each entry by the same operations; near-zero
    # offsets, whose 0/0 is discarded, take the peak value instead
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.exp(1j * phase_sign * np.pi * dw * spacing * (period - 1) / total)
        ratio = spacing / np.sqrt(total) * phase * np.sin(np.pi * dw)
        ratio /= np.sin(np.pi * spacing * dw / total)
    return np.where(np.abs(dw) >= 1e-9, ratio, np.complex128(np.sqrt(total)))


_SIDE = number(lambda n: 1 <= n <= MAX_GRID_RES, f"in [1, {MAX_GRID_RES}]", int)


def _lattice(size_key: str, size, spacing_key: str, spacing) -> tuple:
    """A kernel's (size, spacing) as Python ints: size >= 1 and a spacing that divides it."""
    size, spacing = positive_int(size_key, size), integer(spacing_key, spacing)
    if spacing < 1 or size % spacing:
        raise ContractViolationError(f"{spacing_key} must be a divisor of {size}, got {spacing}")
    return size, spacing


def _offset(key_i: str, value_i, key: str, value) -> np.ndarray:
    """value_i - value, each a finite real array, as a finite offset: a difference past the
    float64 range is one ContractViolationError naming both arguments."""
    with np.errstate(over="ignore"):
        offset = finite_reals(key_i, value_i) - finite_reals(key, value)
    return finite_reals(f"{key_i} - {key}", offset)


def doppler_kernel(k_i: float, k, n_symbols: int, d_t: int = 1):
    """Doppler-axis kernel sum_{n'} e^{+j2pi n' d_t (k_i-k)/N} / sqrt(N/d_t^2).

    Evaluates to sqrt(N) at k = k_i (mod N/d_t) and to zero at every other
    integer offset.  `k_i` and `k` may be arrays of finite reals that broadcast, with
    a finite difference.
    """
    n_symbols, d_t = _lattice("n_symbols", n_symbols, "d_t", d_t)
    res = _dirichlet(_offset("k_i", k_i, "k", k), n_symbols, d_t, +1)
    return res if res.shape else complex(res)


def delay_kernel(l_i: float, l, n_subcarriers: int, d_f: int = 1):
    """Delay-axis kernel sum_{m'} e^{-j2pi m' d_f (l_i-l)/M} / sqrt(M/d_f^2).

    Mirror image of `doppler_kernel` with the opposite phase sign; peak value
    sqrt(M) at l = l_i (mod M/d_f).
    """
    n_subcarriers, d_f = _lattice("n_subcarriers", n_subcarriers, "d_f", d_f)
    res = _dirichlet(_offset("l_i", l_i, "l", l), n_subcarriers, d_f, -1)
    return res if res.shape else complex(res)


def doppler_alias_difference(k_i: float, k, n_symbols: int, d_t: int):
    """Full-grid Doppler kernel minus its lattice-sampled period embedding.

    For centered Doppler indices inside the period [-N/(2 d_t), N/(2 d_t))
    this is the pointwise difference of the two kernels; outside, where the
    embedding is zero, it is the full-grid kernel itself.  This is the exact
    per-path aliasing error of estimating the DD image from lattice pilots.
    """
    n_symbols, d_t = _lattice("n_symbols", n_symbols, "d_t", d_t)
    k_i, k = finite_reals("k_i", k_i), finite_reals("k", k)
    half = n_symbols // (2 * d_t)
    inside = (k >= -half) & (k < half)
    full = doppler_kernel(k_i, k, n_symbols, 1)
    periodic = doppler_kernel(k_i, k, n_symbols, d_t)
    return np.where(inside, np.asarray(full) - np.asarray(periodic), full)


def csf_closed_form(gains, delays, dopplers, n_subcarriers: int, n_symbols: int) -> np.ndarray:
    """Full N x M delay-Doppler image of a path set, by closed-form kernels.

    Returns rows in standard Doppler order (r = k mod N), matching `DDGrid`.
    The grid may hold at most MAX_GRID_RES resource elements.  The three
    path arrays are 1-D, of one length and finite: gains complex, delays
    and dopplers real, and each gain's parts small enough that no sum of
    the image overflows.
    """
    gains, delays, dopplers = one_length(gains=finite_complexes("gains", gains),
                                         delays=finite_reals("delays", delays),
                                         dopplers=finite_reals("dopplers", dopplers))
    n_subcarriers = _SIDE("n_subcarriers", n_subcarriers)
    n_symbols, rest = integer("n_symbols", n_symbols), MAX_GRID_RES // n_subcarriers
    if not 1 <= n_symbols <= rest:
        raise ContractViolationError(f"n_symbols must be in [1, {rest}], got {n_symbols}")
    # an entry sums P terms g * col * row with |col * row| <= sqrt(M*N), so each
    # part of a term is at most 2 max(|Re g|, |Im g|) sqrt(M*N); the bound keeps
    # P of them, with a factor 2 left for rounding, inside the float64 range
    limit = np.finfo(np.float64).max / (4 * max(gains.size, 1) * np.sqrt(n_subcarriers * n_symbols))
    if (top := np.max(np.abs([gains.real, gains.imag]), initial=0.0)) > limit:
        raise ContractViolationError(f"gains must have parts of at most {limit:.6g} on this grid, "
                                     f"got {top:.6g}")
    k_axis = np.arange(n_symbols)
    l_axis = np.arange(n_subcarriers)
    # every path's kernels in one call each; elementwise, so each row equals
    # that path's own doppler_kernel / delay_kernel evaluation
    cols = _dirichlet(dopplers[:, None] - k_axis, n_symbols, 1, +1)  # (P, N)
    rows = _dirichlet(delays[:, None] - l_axis, n_subcarriers, 1, -1)  # (P, M)
    acc = np.zeros((n_symbols, n_subcarriers), dtype=np.complex128)
    term = np.empty_like(acc)
    for g, col, row in zip(gains, cols, rows):
        # g * np.outer(col, row), in one buffer for every path
        np.multiply(col[:, None], row[None, :], out=term)
        np.multiply(g, term, out=term)
        acc += term
    return acc
