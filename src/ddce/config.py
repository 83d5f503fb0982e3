"""System configuration and the flat key/value config-file loader."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .channel import EVA_TAP_DELAYS_NS, EVA_TAP_POWERS_DB, ChannelProfile
from .channel import max_doppler_index, merge_profile_taps, quantize_delays
from .errors import ConfigError, ContractViolationError, ProfileError, SupportError
from .errors import non_negative_int, number, positive_float, positive_int, tuple_of
from .estimators import ESTIMATORS
from .grids import MAX_GRID_RES

ESTIMATOR_NAMES = tuple(ESTIMATORS)
CHANNEL_MODELS = ("diag", "full")
# Resource ceilings, far above the shipped setup (128 x 64 grid, 500 trials,
# 512 pilots): one grid array at MAX_GRID_RES (grids.py) is 16 MB, and the
# dense genie-MMSE pilot correlation at MAX_MMSE_PILOTS is 64 MB.
MAX_TRIALS = 100_000
MAX_MMSE_PILOTS = 2048
# A trial squares and sums errors of the noise's size: ls-interp extrapolates
# pilot noise by less than 3x per axis, and 3**4 * MAX_GRID_RES * noise_var
# < 1.8e308 up to -3003.2 dB (the noise variance alone overflows at -3082.5).
MIN_SNR_DB = -3000.0


def snr_is_valid(snr_db: float) -> bool:
    """At least MIN_SNR_DB and finite, or +inf (noiseless); nan and -inf have no noise level."""
    return MIN_SNR_DB <= snr_db <= math.inf


def _as_bool(key: str, value) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise ContractViolationError(f"{key} must be true or false, not {type(value).__name__}")
    return bool(value)


def _as_profile(key: str, value) -> ChannelProfile:
    if not isinstance(value, ChannelProfile):  # its own fields are checked when it is built
        raise ContractViolationError(f"{key} must be a ChannelProfile, not {type(value).__name__}")
    return value


def _as_name(key: str, value) -> str:
    if not isinstance(value, str):
        raise ContractViolationError(f"{key} must be a list of names, got a {type(value).__name__} entry")
    return str(value)


_FIELD_KINDS = {
    **dict.fromkeys(("M", "N", "d_t", "d_f", "n_trials"), positive_int),
    "master_seed": non_negative_int,
    **dict.fromkeys(("delta_f_hz", "gamma_threshold"), positive_float),
    "snr_db": tuple_of(number()),
    "estimators": tuple_of(_as_name),
    "on_grid_doppler": _as_bool,
    "profile": _as_profile,
}


@dataclass(frozen=True)
class SystemConfig:
    """Everything a simulation run needs, validated as a whole (mobility lives on the
    profile).  Field kinds are in `_FIELD_KINDS`: an int field takes an int or numpy int
    (not a bool or 128.0), a float field any real number but a bool; `validated()`
    returns the config with each as a Python int or float."""

    M: int
    N: int
    delta_f_hz: float
    d_t: int
    d_f: int
    profile: ChannelProfile
    channel_model: str = "diag"
    on_grid_doppler: bool = False
    estimators: tuple = ESTIMATOR_NAMES
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    n_trials: int = 500
    master_seed: int = 0
    gamma_threshold: float = 4.0

    @property
    def T(self) -> float:
        """OFDM symbol duration; no cyclic prefix is modeled, T = 1/delta_f."""
        return 1.0 / self.delta_f_hz

    @property
    def n_pilot(self) -> int:
        return (self.M // self.d_f) * (self.N // self.d_t)

    def violations(self) -> list:
        """Collect every constraint violation instead of stopping at the first."""
        return self._checked()[1]

    def _checked(self):  # (self with each field that passed its kind canonical, every violation)
        out, values = [], {}
        for key, kind in _FIELD_KINDS.items():
            try:
                values[key] = kind(key, getattr(self, key))
            except ContractViolationError as exc:
                out.append(str(exc))
        if self.channel_model not in CHANNEL_MODELS:
            out.append(f"unsupported channel_model '{self.channel_model}', supported: {CHANNEL_MODELS}")
        names = values.get("estimators", ESTIMATOR_NAMES)
        bad = [e for e in names if e not in ESTIMATOR_NAMES]
        if not names:
            out.append("estimators list must not be empty")
        elif bad:
            out.append(f"unknown estimators {bad}, valid names: {ESTIMATOR_NAMES}")
        elif len(set(names)) != len(names):
            out.append(f"estimators must not repeat, got {list(names)}")
        if values.get("snr_db") == ():
            out.append("snr_db list must not be empty")
        if bad_snr := [s for s in values.get("snr_db", ()) if not snr_is_valid(s)]:
            out.append(f"snr_db entries must be finite and >= {MIN_SNR_DB}, or +inf, got {bad_snr}")
        if values.get("n_trials", 0) > MAX_TRIALS:
            out.append(f"n_trials must be <= {MAX_TRIALS}, got {values['n_trials']}")
        run = replace(self, **values)
        if not {"M", "N", "delta_f_hz", "d_t", "d_f"} <= values.keys():
            return run, out  # the lattice rules below compute with the grid's fields
        M, N, d_t, d_f = run.M, run.N, run.d_t, run.d_f
        if M * N > MAX_GRID_RES:
            out.append(f"grid M*N = {M * N} exceeds {MAX_GRID_RES} resource elements")
        if "mmse-genie" in values.get("estimators", ()) and run.n_pilot > MAX_MMSE_PILOTS:
            out.append(f"mmse-genie needs n_pilot <= {MAX_MMSE_PILOTS} for its dense pilot "
                       f"correlation, got (M/d_f)*(N/d_t) = {run.n_pilot}")
        if N % d_t:
            out.append(f"N = {N} is not divisible by d_t = {d_t}")
        elif (N // d_t) % 2:
            out.append(f"N/d_t = {N // d_t} must be even so the Doppler period splits around zero")
        if M % d_f:
            out.append(f"M = {M} is not divisible by d_f = {d_f}")
        if d_t == d_f == 1:
            out.append("d_t = d_f = 1 puts a pilot on every resource element: no data symbols to score")
        if not (M % d_f or N % d_t) and M * N <= MAX_GRID_RES and "profile" in values:
            # the support theorem, through gen_paths' own rules, which take M and N as floats
            for rule in (max_doppler_index, quantize_delays):
                try:
                    rule(self.profile, run)
                except (ProfileError, SupportError) as exc:
                    out.append(str(exc))
        return run, out

    def validated(self) -> "SystemConfig":
        """The config with each field canonical, or one ConfigError listing every violation."""
        run, errs = self._checked()
        if errs:
            raise ConfigError("\n".join(errs))
        return run


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got '{raw}'")
    return raw.lower() == "true"


def _split(raw: str, kind=str) -> tuple:
    return tuple(kind(part.strip()) for part in raw.split(",") if part.strip() != "")


_KEYS = {  # key -> the parse of its text; SystemConfig and ChannelProfile check what it gives
    **dict.fromkeys(("M", "N", "d_t", "d_f", "n_trials", "master_seed"), int),
    **dict.fromkeys(("delta_f_hz", "f_c_hz", "v_kmh", "gamma_threshold"), float),
    **dict.fromkeys(("snr_db", "tap_delays_ns", "tap_powers_db"), partial(_split, kind=float)),
    "estimators": _split,
    "channel_model": str,
    "on_grid_doppler": _parse_bool,
    "threads": int,  # accepted from older files; load_config drops it
}
_OPTIONAL = ("channel_model", "on_grid_doppler", "gamma_threshold", "threads")


def load_config(path: str) -> SystemConfig:
    """Read a flat `key = value` config file (UTF-8, one pair per line; a
    leading byte-order mark is skipped).

    Lists are comma separated.  Lines that are blank or start with '#' are
    skipped.  Unknown keys, duplicates, unparsable values and missing
    required keys are reported together in one ConfigError.  Only a file
    that parses is checked against the channel profile's rules and then
    `SystemConfig.violations()`, each reported in a ConfigError of its own.
    A `threads` line, left from when sweeps had worker threads, must hold
    an integer and is otherwise ignored.
    """
    problems, values, seen = [], {}, set()  # seen: the keys with a line, parsed or not
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            problems.append(f"line {ln}: expected 'key = value', got '{stripped}'")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            problems.append(f"line {ln}: unknown key '{key}'")
            continue
        if key in seen:
            problems.append(f"line {ln}: duplicate key '{key}'")
            continue
        seen.add(key)
        try:
            values[key] = _KEYS[key](raw)
        except ValueError as exc:
            problems.append(f"line {ln}: {key}: {exc}")
    problems += [f"missing required key '{k}'" for k in _KEYS if k not in seen and k not in _OPTIONAL]
    if problems:
        raise ConfigError("\n".join(problems))
    values.pop("threads", None)
    try:
        profile = ChannelProfile(**{f.name: values.pop(f.name) for f in fields(ChannelProfile)})
    except ProfileError as exc:
        raise ConfigError(str(exc)) from exc
    return SystemConfig(profile=profile, **values).validated()


def default_config() -> SystemConfig:
    """The shipped simulation setup, mirroring paper.cfg at the repo root.

    The standard vehicular profile is merged down to grid resolution (its
    first six taps collapse into two bins at 1.92 MHz sampling), which is
    what the tap lists in paper.cfg spell out explicitly.
    """
    base = ChannelProfile(EVA_TAP_DELAYS_NS, EVA_TAP_POWERS_DB, v_kmh=250.0, f_c_hz=2.1e9)
    cfg = SystemConfig(M=128, N=64, delta_f_hz=15e3, d_t=4, d_f=4, profile=base, master_seed=20250819)
    return with_overrides(cfg, profile=merge_profile_taps(base, cfg))


def with_overrides(cfg: SystemConfig, **kw) -> SystemConfig:
    """Functional update helper; revalidates the result.  A keyword that names no field is a
    ConfigError naming it."""
    if unknown := kw.keys() - {f.name for f in fields(cfg)}:
        raise ConfigError("\n".join(f"unknown config field '{key}'" for key in sorted(unknown)))
    return replace(cfg, **kw).validated()
