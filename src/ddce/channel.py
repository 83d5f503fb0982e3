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

import cmath
import math
import numbers
import sys
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache, partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ContractViolationError, ProfileError, SupportError
from .grids import DDGrid, TFGrid, _adopt
from .kernels import csf_closed_form

if TYPE_CHECKING:  # pragma: no cover
    from .config import SystemConfig

C_LIGHT = 3.0e8  # m/s
MAX_TAP_DB = 3000.0  # linear tap powers overflow or vanish past about +-3082 dB

# Extended Vehicular A power-delay profile (delay ns, mean power dB).
EVA_TAP_DELAYS_NS = (0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0)
EVA_TAP_POWERS_DB = (0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9)


def as_number(key: str, value, ok=None, rule="", kind=float):
    """A number field, as a Python `kind`: from an int or numpy int (int) or any real number
    (float), never a bool; within the float64 range and passing `ok`, or one ConfigError."""
    noun, types = ("an integer", numbers.Integral) if kind is int else ("a real number", numbers.Real)
    if type(value) is not kind and (isinstance(value, (bool, np.bool_)) or not isinstance(value, types)):
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    try:
        float(out := kind(value))
    except OverflowError:
        size = f"an integer of {abs(int(value)).bit_length()} bits"
        raise ConfigError(f"{key} must lie within the float64 range, got {size}") from None
    if ok is not None and not ok(out):  # each rule is written so that nan fails it
        raise ConfigError(f"{key} must be {rule}, got {out}")
    return out


positive_float = partial(as_number, ok=lambda x: 0 < x < math.inf, rule="positive and finite")
non_negative_float = partial(as_number, ok=lambda x: 0 <= x < math.inf, rule="non-negative and finite")


def as_tuple(key: str, value, kind=None) -> tuple:
    """Any iterable but a string, as a tuple; each entry, given `kind`, of that kind."""
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError
        return tuple(value) if kind is None else tuple(kind(key, v) for v in value)
    except TypeError:
        raise ConfigError(f"{key} must be a list, not {type(value).__name__}") from None


@dataclass(frozen=True)
class ChannelProfile:
    """Power-delay profile plus the mobility numbers that set the Doppler spread; its numbers
    follow SystemConfig's float rule, as Python floats, and any other value is one ProfileError."""

    tap_delays_ns: tuple
    tap_powers_db: tuple
    v_kmh: float
    f_c_hz: float

    def __post_init__(self):
        try:
            delays = as_tuple("tap_delays_ns", self.tap_delays_ns, as_number)
            powers = as_tuple("tap_powers_db", self.tap_powers_db, as_number)
            mobility = non_negative_float("v_kmh", self.v_kmh), positive_float("f_c_hz", self.f_c_hz)
        except ConfigError as exc:
            raise ProfileError(str(exc)) from None
        if len(delays) == 0 or len(delays) != len(powers):
            raise ProfileError(
                "profile needs matching, non-empty delay and power lists "
                f"(got {len(delays)} delays, {len(powers)} powers)"
            )
        if not all(0 <= d < math.inf for d in delays):
            raise ProfileError("tap delays must be finite and non-negative")
        if not all(math.isfinite(p) for p in powers):
            raise ProfileError("tap powers must be finite")
        if abs(top := max(powers)) > MAX_TAP_DB:  # 10**(top/10) must be finite and non-zero
            raise ProfileError(f"tap powers must peak within +-{MAX_TAP_DB:g} dB, got {top:g} dB")
        for f, value in zip(fields(self), (delays, powers, *mobility)):
            object.__setattr__(self, f.name, value)

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


@dataclass(frozen=True)
class Path:
    """One resolved propagation path on the sampling grid."""

    gain: complex
    delay_idx: int
    doppler: float
    # Ensemble gain variance; kept so statistics-aided estimators can build
    # exact correlations.  Falls back to |gain|^2 for hand-built sets.
    power: float | None = None

    def __post_init__(self):
        # written so that nan and inf fail before the int() cast
        if not 0 <= self.delay_idx < 2**63 or self.delay_idx != int(self.delay_idx):
            raise ContractViolationError(f"delay_idx must be a non-negative int64 integer, got {self.delay_idx}")
        power = 0.0 if self.power is None else self.power
        try:
            finite = cmath.isfinite(self.gain) and math.isfinite(self.doppler) and math.isfinite(power)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ContractViolationError(f"path gain, doppler and power must be finite: {self}")


@dataclass(frozen=True)
class PathSet:
    """A non-empty set of paths, at most one per delay bin.  Its gains,
    delays and dopplers are read-only arrays, each built once."""

    paths: tuple

    def __post_init__(self):
        if len(self.paths) < 1:
            raise ContractViolationError("PathSet needs at least one path")
        delays = [p.delay_idx for p in self.paths]
        if len(set(delays)) != len(delays):
            raise ContractViolationError(f"duplicate delay bins in PathSet: {sorted(delays)}")
        object.__setattr__(self, "paths", tuple(self.paths))

    def __len__(self) -> int:
        return len(self.paths)

    @cached_property
    def gains(self) -> np.ndarray:
        return _frozen(np.array([p.gain for p in self.paths], dtype=np.complex128))

    @cached_property
    def delays(self) -> np.ndarray:
        return _frozen(np.array([p.delay_idx for p in self.paths], dtype=np.int64))

    @cached_property
    def dopplers(self) -> np.ndarray:
        return _frozen(np.array([p.doppler for p in self.paths], dtype=np.float64))

    @property
    def powers(self) -> np.ndarray:
        """Ensemble gain variances, defaulting to |gain|^2 where unset."""
        return np.array(
            [p.power if p.power is not None else abs(p.gain) ** 2 for p in self.paths],
            dtype=np.float64,
        )


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
    return PathSet(
        tuple(
            Path(gain=complex(g), delay_idx=int(l), doppler=float(k), power=float(p))
            for g, l, k, p in zip(gains, delays, dopplers, p_lin)
        )
    )


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


def _check_noise_var(noise_var: float) -> None:
    """The noise-variance rule of every public call that takes one (nan and huge ints fail too)."""
    if not 0 <= noise_var <= sys.float_info.max:
        raise ContractViolationError(f"noise_var must be finite and >= 0, got {noise_var}")


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
    _check_noise_var(noise_var)
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
    diagonal model (identical noise draw included).
    """
    _check_noise_var(noise_var)
    big_m, big_n = x.data.shape
    xt = np.fft.ifft(x.data, axis=0, norm="ortho")  # per-symbol time samples
    samples = np.arange(big_m)
    symbols = np.arange(big_n)
    y = np.zeros_like(x.data)
    for p in ps.paths:
        t = xt * np.exp(2j * np.pi * p.doppler * samples / (big_m * big_n))[:, None]
        t *= np.exp(2j * np.pi * p.doppler * symbols / big_n)[None, :]
        f = np.fft.fft(np.roll(t, p.delay_idx, axis=0), axis=0, norm="ortho")
        # gain first: complex products round differently with swapped operands
        y += np.multiply(p.gain, f, out=f)
    y += _draw_noise(x.data.shape, noise_var, rng)
    return _adopt(TFGrid, y)
