"""Doubly-selective multipath channel: path generation and ground truth.

Each path i carries a complex gain h_i, an integer delay index l_i (units of
1/(M*delta_f)) and a Doppler index k_i = nu_i * N * T, which is real valued
in general.  The channel transfer function over the frame is

    h_tf[m, n] = sum_i h_i * e^{+j2pi*k_i*n/N} * e^{-j2pi*l_i*m/M}

Gains are Rayleigh: i.i.d. circularly-symmetric complex Gaussian with the
per-tap variance taken from the power-delay profile.  Dopplers follow the
classic cosine model k_i = k_max * cos(theta_i), theta_i ~ U[0, 2pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolationError, ProfileError, SupportError, finite_complexes, finite_integers
from .errors import finite_reals, non_negative_float, non_negative_reals, number, one_length, positive_float
from .errors import tuple_of
from .grids import DDGrid, TFGrid, _adopt
from .kernels import csf_closed_form

if TYPE_CHECKING:  # pragma: no cover
    from .config import SystemConfig

C_LIGHT = 3.0e8  # m/s
MAX_TAP_DB = 3000.0  # linear tap powers overflow or vanish past about +-3082 dB

# Extended Vehicular A power-delay profile (delay ns, mean power dB).
EVA_TAP_DELAYS_NS = (0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0)
EVA_TAP_POWERS_DB = (0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9)

_PROFILE_KINDS = {"tap_delays_ns": tuple_of(non_negative_float),
                  "tap_powers_db": tuple_of(number(math.isfinite, "finite")),
                  "v_kmh": non_negative_float, "f_c_hz": positive_float}


@dataclass(frozen=True)
class ChannelProfile:
    """Power-delay profile plus the mobility numbers that set the Doppler spread.  Each field
    is checked by its kind in `_PROFILE_KINDS` and stored as Python floats; a refused one is
    one ProfileError naming it."""

    tap_delays_ns: tuple
    tap_powers_db: tuple
    v_kmh: float
    f_c_hz: float

    def __post_init__(self):
        try:
            values = {key: kind(key, getattr(self, key)) for key, kind in _PROFILE_KINDS.items()}
        except ContractViolationError as exc:
            raise ProfileError(str(exc)) from None
        delays, powers = values["tap_delays_ns"], values["tap_powers_db"]
        if len(delays) == 0 or len(delays) != len(powers):
            raise ProfileError(
                "profile needs matching, non-empty delay and power lists "
                f"(got {len(delays)} delays, {len(powers)} powers)"
            )
        if abs(top := max(powers)) > MAX_TAP_DB:  # 10**(top/10) must be finite and non-zero
            raise ProfileError(f"tap powers must peak within +-{MAX_TAP_DB:g} dB, got {top:g} dB")
        for key, value in values.items():
            object.__setattr__(self, key, value)

    @property
    def n_taps(self) -> int:
        return len(self.tap_delays_ns)

    @property
    def tap_powers_lin(self) -> np.ndarray:
        """Linear tap powers, normalized to sum to 1."""
        p = 10.0 ** (np.asarray(self.tap_powers_db) / 10.0)
        return p / p.sum()

    @property
    def nu_max_hz(self) -> float:
        """Maximum Doppler shift v * f_c / c."""
        return (self.v_kmh / 3.6) * self.f_c_hz / C_LIGHT


@dataclass(frozen=True, eq=False)
class PathSet:
    """A non-empty set of resolved propagation paths on the sampling grid, at
    most one per delay bin, as four read-only 1-D arrays of one length: the
    complex gains h_i, the integer delay indices l_i >= 0, the real Doppler
    indices k_i, and the ensemble gain variances, kept so statistics-aided
    estimators can build exact correlations (|h_i|^2 where not given).  Each
    array is checked once, on construction, and stored as a copy; a refused
    one is a ContractViolationError naming it."""

    gains: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray
    powers: np.ndarray | None = None

    def __post_init__(self):
        given = {"gains": finite_complexes("gains", self.gains).astype(np.complex128),
                 "delays": finite_integers("delays", self.delays),
                 "dopplers": finite_reals("dopplers", self.dopplers).astype(np.float64)}
        if self.powers is not None:
            given["powers"] = non_negative_reals("powers", self.powers).astype(np.float64)
        gains, delays, dopplers, *powers = one_length(**given)
        if delays.size < 1:
            raise ContractViolationError("PathSet needs at least one path")
        bins = sorted(delays.tolist())  # Python ints: np.unique would import numpy.ma, 0.8 MB
        if not 0 <= bins[0] <= bins[-1] < 2**63:  # so no uint64 wraps in the cast
            raise ContractViolationError(f"delays must be in [0, 2**63), got {delays.tolist()}")
        if len(set(bins)) != len(bins):
            raise ContractViolationError(f"delays must be distinct bins, got {bins}")
        if not powers:
            with np.errstate(over="ignore"):
                powers = [finite_reals("|gains|^2", np.abs(gains) ** 2)]
        for key, arr in zip(("gains", "delays", "dopplers", "powers"),
                            (gains, delays.astype(np.int64), dopplers, *powers)):
            object.__setattr__(self, key, _frozen(arr))

    def __len__(self) -> int:
        return self.gains.size


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _delay_bins(profile: ChannelProfile, cfg: "SystemConfig") -> np.ndarray:
    """Profile delays rounded to grid indices (units of 1/(M*delta_f)), kept
    as floats: a delay past the int64 range must still compare as too long."""
    return np.rint(np.asarray(profile.tap_delays_ns) * 1e-9 * cfg.M * cfg.delta_f_hz)


def quantize_delays(profile: ChannelProfile, cfg: "SystemConfig") -> np.ndarray:
    """Round profile delays to grid indices and check they stay usable.

    Raises ProfileError if two taps land in the same bin (merge them first)
    and SupportError if a tap falls past the guaranteed delay range.
    """
    bins = _delay_bins(profile, cfg)
    l_max = cfg.M // cfg.d_f - 1
    if bins.max() > l_max:
        raise SupportError(
            f"max quantized delay {bins.max():.10g} exceeds M/d_f - 1 = {l_max}; "
            "delays must satisfy tau <= 1/(d_f*delta_f) - 1/(M*delta_f)"
        )
    idx = bins.astype(int)
    if len(set(idx.tolist())) != len(idx):
        raise ProfileError(
            f"quantized tap delays collide on the grid: {idx.tolist()}; "
            "merge colliding taps into shared bins before use"
        )
    return idx


def max_doppler_index(profile: ChannelProfile, cfg: "SystemConfig") -> float:
    """Largest Doppler index the profile's mobility produces, k_max = N*T*nu_max.

    Raises SupportError past the pilot lattice's Doppler period, the
    Doppler half of the support theorem.
    """
    k_max = cfg.N * cfg.T * profile.nu_max_hz
    k_bound = cfg.N / (2 * cfg.d_t) - 1
    # an exact-edge speed may round an ulp past the edge; 17 digits tell them apart
    if k_max > k_bound * (1 + 4 * np.finfo(np.float64).eps):
        raise SupportError(
            f"Doppler support violated: N*T*nu_max = {k_max:.17g} exceeds "
            f"N/(2*d_t) - 1 = {k_bound:.17g}; need nu_max <= 1/(2*d_t*T) - 1/(N*T)"
        )
    return k_max


def merge_profile_taps(profile: ChannelProfile, cfg: "SystemConfig") -> ChannelProfile:
    """Collapse taps that share a quantized delay bin, summing linear powers.

    Standard profiles are finer than a coarse grid resolves; this returns the
    equivalent grid-resolution profile with one tap per occupied bin.
    """
    idx = _delay_bins(profile, cfg)
    db = np.asarray(profile.tap_powers_db)
    step_ns = 1e9 / (cfg.M * cfg.delta_f_hz)
    bins = sorted(set(idx.tolist()))
    delays = [b * step_ns for b in bins]
    powers_db = []
    for b in bins:
        taps = db[idx == b]
        # summed about 0 dB, or about the strongest tap where its linear power
        # underflows to 0 (the log of a zero sum would be -inf)
        ref = taps.max() if 10.0 ** (taps.max() / 10.0) == 0 else 0.0
        powers_db.append(ref + 10.0 * np.log10(np.sum(10.0 ** ((taps - ref) / 10.0))))
    return ChannelProfile(tuple(delays), tuple(powers_db), profile.v_kmh, profile.f_c_hz)


def gen_paths(cfg: "SystemConfig", profile: ChannelProfile, rng: np.random.Generator) -> PathSet:
    """Draw one channel realization on the sampling grid.

    Rayleigh gains with profile powers, cosine-model Dopplers scaled to grid
    units (k_max = N * T * nu_max), delays quantized to grid indices.  With
    cfg.on_grid_doppler the Doppler indices are rounded to integers.
    """
    delays, k_max, p_lin = _draw_constants(profile, cfg)
    n = profile.n_taps
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    gains = (re + 1j * im) * np.sqrt(p_lin / 2.0)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    dopplers = k_max * np.cos(theta)
    if cfg.on_grid_doppler:
        dopplers = np.rint(dopplers)
    return PathSet(gains, delays, dopplers, p_lin)


@lru_cache(maxsize=16)
def _draw_constants(profile: ChannelProfile, cfg: "SystemConfig"):
    """What every draw of `gen_paths` reads from (profile, cfg): the
    quantized delays, k_max and the linear tap powers, checked and derived
    once per pair (a few hundred bytes each)."""
    return (
        _frozen(quantize_delays(profile, cfg)),
        max_doppler_index(profile, cfg),
        _frozen(profile.tap_powers_lin),
    )


@lru_cache(maxsize=16)
def _delay_steering(delays: tuple, n_subcarriers: int) -> np.ndarray:
    """Read-only e^{-j2pi*l_i*m/M} as an (M, P) array, once per delay tuple:
    a sweep's path sets all sit on its profile's delay bins."""
    m = np.arange(n_subcarriers)
    return _frozen(np.exp(-2j * np.pi * np.outer(m, delays) / n_subcarriers))


def path_steering(ps: PathSet, n_subcarriers: int, n_symbols: int):
    """Per-path steering vectors: e^{-j2pi*l_i*m/M} as an (M, P) array and
    e^{+j2pi*k_i*n/N} as a (P, N) array.  The delay half is shared and
    read-only."""
    n = np.arange(n_symbols)
    freq = _delay_steering(tuple(ps.delays.tolist()), n_subcarriers)
    time = np.exp(2j * np.pi * np.outer(ps.dopplers, n) / n_symbols)
    return freq, time


def _ctf(ps: PathSet, n_subcarriers: int, n_symbols: int) -> np.ndarray:
    freq, time = path_steering(ps, n_subcarriers, n_symbols)
    return (freq * ps.gains) @ time


def ctf_from_paths(ps: PathSet, cfg: "SystemConfig") -> TFGrid:
    """Exact channel transfer function of a path set over the M x N frame."""
    return _adopt(TFGrid, _ctf(ps, cfg.M, cfg.N))


def csf_from_paths(ps: PathSet, cfg: "SystemConfig") -> DDGrid:
    """Exact delay-Doppler image of a path set on the full N x M grid.

    Equals sfft(ctf_from_paths(ps, cfg)) but evaluated through the
    closed-form kernels, which also makes it the reconstruction rule for
    estimated (fractional-Doppler) path sets.
    """
    return _adopt(DDGrid, csf_closed_form(ps.gains, ps.delays, ps.dopplers, cfg.M, cfg.N))


def _draw_noise(shape, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    w = np.empty(shape, dtype=np.complex128)
    w.real = rng.standard_normal(shape)
    w.imag = rng.standard_normal(shape)
    w *= np.sqrt(noise_var / 2.0)
    return w


def apply_channel_diag(x: TFGrid, ps: PathSet, noise_var: float, rng: np.random.Generator) -> TFGrid:
    """Diagonal (ICI-free) channel: y = h_tf o x + w, AWGN variance noise_var."""
    h = _adopt(TFGrid, _ctf(ps, x.n_subcarriers, x.n_symbols))
    return apply_response_diag(x, h, noise_var, rng)


def apply_response_diag(x: TFGrid, h: TFGrid, noise_var: float, rng: np.random.Generator) -> TFGrid:
    """`apply_channel_diag` for a path set whose response h over the frame is
    already known (the same draws and the same bits)."""
    noise_var = non_negative_float("noise_var", noise_var)
    if h.data.shape != x.data.shape:
        raise ContractViolationError(f"grid shapes differ: x {x.data.shape} vs h {h.data.shape}")
    y = h.data * x.data
    y += _draw_noise(x.data.shape, noise_var, rng)
    return _adopt(TFGrid, y)


def apply_channel_full(x: TFGrid, ps: PathSet, noise_var: float, rng: np.random.Generator) -> TFGrid:
    """Exact per-symbol channel including inter-carrier interference.

    For each OFDM symbol n the time-domain samples of the frame pick up, per
    path, the symbol-level phase e^{j2pi*k_i*n/N} and the intra-symbol ramp
    e^{j2pi*k_i*m/(M*N)}, get cyclically shifted by l_i samples, and return
    to the frequency domain.  With all k_i = 0 this reduces exactly to the
    diagonal model (identical noise draw included).  The ramped samples of
    every path are written straight into the rows `np.roll` would move
    them to, in one buffer, and the time samples are gone before the noise
    is drawn.
    """
    noise_var = non_negative_float("noise_var", noise_var)
    big_m, big_n = x.data.shape
    xt = np.fft.ifft(x.data, axis=0, norm="ortho")  # per-symbol time samples
    samples = np.arange(big_m)
    symbols = np.arange(big_n)
    y = np.zeros_like(x.data)
    t = np.empty_like(xt)
    # as Python scalars, the operands each path's products have always taken
    for gain, delay, doppler in zip(ps.gains.tolist(), ps.delays.tolist(), ps.dopplers.tolist()):
        ramp = np.exp(2j * np.pi * doppler * samples / (big_m * big_n))[:, None]
        # sample m goes to row (m + l) mod M: the rows of np.roll(xt * ramp, l, axis=0)
        cut = big_m - delay % big_m
        np.multiply(xt[:cut], ramp[:cut], out=t[big_m - cut :])
        np.multiply(xt[cut:], ramp[cut:], out=t[: big_m - cut])
        t *= np.exp(2j * np.pi * doppler * symbols / big_n)[None, :]
        f = np.fft.fft(t, axis=0, norm="ortho")
        # gain first: complex products round differently with swapped operands
        y += np.multiply(gain, f, out=f)
        del f  # freed before the next path's FFT allocates its own
    del xt, t
    y += _draw_noise(x.data.shape, noise_var, rng)
    return _adopt(TFGrid, y)
