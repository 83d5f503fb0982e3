"""System configuration and the flat key/value config-file loader."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .channel import (
    EVA_TAP_DELAYS_NS,
    EVA_TAP_POWERS_DB,
    ChannelProfile,
    max_doppler_index,
    merge_profile_taps,
    quantize_delays,
)
from .errors import ConfigError, ProfileError, SupportError
from .estimators import ESTIMATORS

ESTIMATOR_NAMES = tuple(ESTIMATORS)
CHANNEL_MODELS = ("diag", "full")
# Resource ceilings, far above the shipped setup (128 x 64 grid, 500 trials,
# 512 pilots): one grid array at MAX_GRID_RES is 16 MB, and the dense
# genie-MMSE pilot correlation at MAX_MMSE_PILOTS is 64 MB.
MAX_GRID_RES = 1 << 20
MAX_TRIALS = 100_000
MAX_MMSE_PILOTS = 2048
# A trial squares and sums errors of the noise's size: ls-interp extrapolates
# pilot noise by less than 3x per axis, and 3**4 * MAX_GRID_RES * noise_var
# < 1.8e308 up to -3003.2 dB (the noise variance alone overflows at -3082.5).
MIN_SNR_DB = -3000.0


def snr_is_valid(snr_db: float) -> bool:
    """At least MIN_SNR_DB and finite, or +inf for a noiseless run; nan and
    -inf have no noise level."""
    return MIN_SNR_DB <= snr_db <= math.inf


@dataclass(frozen=True)
class SystemConfig:
    """Everything a simulation run needs, validated as a whole.  Mobility
    (speed and carrier) lives on the channel profile."""

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
        out = []
        if self.M < 1 or self.N < 1:
            out.append(f"grid dimensions must be positive, got M={self.M}, N={self.N}")
        if self.d_t < 1 or self.d_f < 1:
            out.append(f"pilot spacings must be positive, got d_t={self.d_t}, d_f={self.d_f}")
        if not 0 < self.delta_f_hz < math.inf:  # nan fails too
            out.append(f"delta_f_hz must be positive and finite, got {self.delta_f_hz}")
        if out:
            return out  # the derived checks below would divide by zero
        if self.M * self.N > MAX_GRID_RES:
            out.append(f"grid M*N = {self.M * self.N} exceeds {MAX_GRID_RES} resource elements")
        if "mmse-genie" in self.estimators and self.n_pilot > MAX_MMSE_PILOTS:
            out.append(
                f"mmse-genie needs n_pilot <= {MAX_MMSE_PILOTS} for its dense pilot correlation, "
                f"got (M/d_f)*(N/d_t) = {self.n_pilot}"
            )
        if self.N % self.d_t:
            out.append(f"N = {self.N} is not divisible by d_t = {self.d_t}")
        elif (self.N // self.d_t) % 2:
            out.append(
                f"N/d_t = {self.N // self.d_t} must be even so the Doppler period splits around zero"
            )
        if self.M % self.d_f:
            out.append(f"M = {self.M} is not divisible by d_f = {self.d_f}")
        if self.channel_model not in CHANNEL_MODELS:
            out.append(
                f"unsupported channel_model '{self.channel_model}', supported: {CHANNEL_MODELS}"
            )
        bad = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if bad or not self.estimators:
            out.append(f"unknown estimators {bad}, valid names: {ESTIMATOR_NAMES}")
        if len(set(self.estimators)) != len(self.estimators):
            out.append(f"estimators must not repeat, got {list(self.estimators)}")
        if not self.snr_db:
            out.append("snr_db list must not be empty")
        bad_snr = [s for s in self.snr_db if not snr_is_valid(s)]
        if bad_snr:
            out.append(f"snr_db entries must be finite and >= {MIN_SNR_DB}, or +inf, got {bad_snr}")
        if self.master_seed < 0:
            out.append(f"master_seed must be >= 0, got {self.master_seed}")
        if self.n_trials < 1:
            out.append(f"n_trials must be >= 1, got {self.n_trials}")
        elif self.n_trials > MAX_TRIALS:
            out.append(f"n_trials must be <= {MAX_TRIALS}, got {self.n_trials}")
        if not 0 < self.gamma_threshold < math.inf:
            out.append(f"gamma_threshold must be positive and finite, got {self.gamma_threshold}")
        if not (self.M % self.d_f or self.N % self.d_t):
            # the support theorem, through the rules gen_paths itself applies
            for rule in (max_doppler_index, quantize_delays):
                try:
                    rule(self.profile, self)
                except (ProfileError, SupportError) as exc:
                    out.append(str(exc))
        return out

    def validated(self) -> "SystemConfig":
        errs = self.violations()
        if errs:
            raise ConfigError("\n".join(errs))
        return self


_KEYS = {
    "M": int,
    "N": int,
    "delta_f_hz": float,
    "f_c_hz": float,
    "v_kmh": float,
    "d_t": int,
    "d_f": int,
    "channel_model": str,
    "on_grid_doppler": bool,
    "estimators": "str_list",
    "snr_db": "float_list",
    "n_trials": int,
    "master_seed": int,
    "gamma_threshold": float,
    "threads": int,  # accepted from older files; load_config drops it
    "tap_delays_ns": "float_list",
    "tap_powers_db": "float_list",
}

_REQUIRED = (
    "M", "N", "delta_f_hz", "f_c_hz", "v_kmh", "d_t", "d_f",
    "estimators", "snr_db", "n_trials", "master_seed",
    "tap_delays_ns", "tap_powers_db",
)


def _parse_value(key: str, raw: str, kind):
    if kind is bool:
        low = raw.lower()
        if low not in ("true", "false"):
            raise ValueError(f"{key}: expected true or false, got '{raw}'")
        return low == "true"
    if kind in (int, float):
        return kind(raw)
    if kind == "float_list":
        return tuple(float(part.strip()) for part in raw.split(",") if part.strip() != "")
    if kind == "str_list":
        return tuple(part.strip() for part in raw.split(",") if part.strip() != "")
    return raw


def load_config(path: str) -> SystemConfig:
    """Read a flat `key = value` config file (UTF-8, one pair per line).

    Lists are comma separated.  Lines that are blank or start with '#' are
    skipped.  Unknown keys, duplicates, unparsable values and missing
    required keys are reported together in one ConfigError.  Only a file
    that parses is checked against the channel profile's rules and then
    `SystemConfig.violations()`, each reported in a ConfigError of its own.
    A `threads` line, left from when sweeps had worker threads, must hold
    an integer and is otherwise ignored.
    """
    problems = []
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            problems.append(f"line {ln}: expected 'key = value', got '{stripped}'")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            problems.append(f"line {ln}: unknown key '{key}'")
            continue
        if key in values:
            problems.append(f"line {ln}: duplicate key '{key}'")
            continue
        try:
            values[key] = _parse_value(key, raw, _KEYS[key])
        except ValueError as exc:
            problems.append(f"line {ln}: {exc}")
    for key in _REQUIRED:
        if key not in values:
            problems.append(f"missing required key '{key}'")
    if problems:
        raise ConfigError("\n".join(problems))
    values.pop("threads", None)

    try:
        profile = ChannelProfile(
            tap_delays_ns=values.pop("tap_delays_ns"),
            tap_powers_db=values.pop("tap_powers_db"),
            v_kmh=values.pop("v_kmh"),
            f_c_hz=values.pop("f_c_hz"),
        )
    except ProfileError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = SystemConfig(profile=profile, **values)
    return cfg.validated()


def default_config() -> SystemConfig:
    """The shipped simulation setup, mirroring paper.cfg at the repo root.

    The standard vehicular profile is merged down to grid resolution (its
    first six taps collapse into two bins at 1.92 MHz sampling), which is
    what the tap lists in paper.cfg spell out explicitly.
    """
    base = ChannelProfile(EVA_TAP_DELAYS_NS, EVA_TAP_POWERS_DB, v_kmh=250.0, f_c_hz=2.1e9)
    cfg = SystemConfig(
        M=128,
        N=64,
        delta_f_hz=15e3,
        d_t=4,
        d_f=4,
        profile=base,
        master_seed=20250819,
    )
    return with_overrides(cfg, profile=merge_profile_taps(base, cfg))


def with_overrides(cfg: SystemConfig, **kw) -> SystemConfig:
    """Functional update helper; revalidates the result."""
    return replace(cfg, **kw).validated()
