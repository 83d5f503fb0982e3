"""Config factories and a fresh-interpreter runner shared by the test modules."""

import json
import os
import subprocess
import sys
import math
import textwrap
import tracemalloc

import numpy as np
from hypothesis import strategies as st

from ddce.channel import ChannelProfile
from ddce.config import SystemConfig
from ddce.errors import ConfigError

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")
PAPER_CFG = os.path.join(ROOT, "paper.cfg")
ONE_TAP = ChannelProfile((0.0,), (0.0,), v_kmh=0.0, f_c_hz=2.1e9)
# validation's message for a lattice that leaves no data symbol to score
ALL_PILOT = "d_t = d_f = 1 puts a pilot on every resource element: no data symbols to score"


def tiny_cfg(big_m, big_n, d_t=1, d_f=1):
    """Small static one-tap config; bypasses whole-config validation on purpose."""
    return SystemConfig(M=big_m, N=big_n, delta_f_hz=15e3, d_t=d_t, d_f=d_f, profile=ONE_TAP)


def small_cfg():
    """Validated two-tap 32x16 config at 250 km/h, cheap enough for whole sweeps."""
    prof = ChannelProfile((0.0, 4166.666666666667), (0.0, -3.0), v_kmh=250.0, f_c_hz=2.1e9)
    return SystemConfig(M=32, N=16, delta_f_hz=15e3, d_t=4, d_f=4, profile=prof).validated()


def rule_message(call, *args, **kw):
    """The message of the ConfigError that call(*args, **kw) raises: the
    wording of the rule's owner, for a test of a layer that only routes it."""
    try:
        call(*args, **kw)
    except ConfigError as exc:
        return str(exc)
    raise AssertionError(f"{call.__name__} raised no ConfigError")


def spell(value):
    """A test id's value; an int past str()'s digit limit by its size."""
    if isinstance(value, int) and abs(value) > 2**64:
        return f"{'-' if value < 0 else ''}int of {value.bit_length()} bits"
    return repr(value)


def edit_cfg(text, **keys):
    """Config text with each key's line set to its value: replaced where the
    key has a line, appended where it has none."""
    pending, lines = dict(keys), []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in pending:
            line = f"{key} = {pending.pop(key)}"
        lines.append(line)
    return "\n".join(lines + [f"{k} = {v}" for k, v in pending.items()]) + "\n"


def small_cfg_text(**keys):
    """small_cfg() as a config file's text, edited by edit_cfg."""
    cfg = small_cfg()
    fields = dict(vars(cfg), **vars(cfg.profile))
    names = ("M", "N", "delta_f_hz", "f_c_hz", "v_kmh", "d_t", "d_f", "tap_delays_ns",
             "tap_powers_db", "estimators", "snr_db", "n_trials", "master_seed")
    spelled = (", ".join(map(str, v)) if isinstance(v, tuple) else v for v in map(fields.get, names))
    return edit_cfg("".join(f"{k} = {v}\n" for k, v in zip(names, spelled)), **keys)


def no_trial(*args):
    """harness._paired_trial where no trial may start."""
    raise AssertionError("a trial started before its inputs were checked")


def traced_peak(call):
    """call()'s result and the peak of memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_cfg(tmp_path, text, name="case.cfg"):
    """text written as tmp_path/name; the path as a str."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# Adversarial numbers: past the float range, past str()'s digit limit, nan,
# infinities, -0.0, bools, numpy scalars, integral and fractional floats,
# strings, complex numbers and None.
ODD_VALUES = st.one_of(
    st.sampled_from(
        (10**400, -(10**400), 10**5000, math.nan, math.inf, -math.inf, -0.0, True, "4", 1j, None)
    ),
    st.integers(-2, 300),
    st.integers(-2, 300).map(float),
    st.floats(),
    st.sampled_from((np.int64(16), np.uint64(2**64 - 1), np.float64(2.5), np.float32(4.0))),
    st.sampled_from((np.bool_(True), np.complex128(1.0), np.float64(np.nan))),
    st.text(max_size=3),
    st.complex_numbers(max_magnitude=1e3),
)


@st.composite
def lattices(draw, min_log_d_t=0):
    """(M, N, d_t, d_f): powers of two with M*N <= 4096 and spacings that
    divide the grid, leaving an even number N/d_t >= 2 of Doppler rows."""
    log_n = draw(st.integers(max(1, min_log_d_t + 1), 10))
    log_m = draw(st.integers(0, 12 - log_n))
    d_t = 2 ** draw(st.integers(min_log_d_t, log_n - 1))
    d_f = 2 ** draw(st.integers(0, log_m))
    return 2**log_m, 2**log_n, d_t, d_f


def run_python(code, env_extra=None, timeout=300, args=()):
    """Run code in a fresh interpreter with ddce importable and args as
    sys.argv[1:]; its last stdout line, parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": SRC, **(env_extra or {})}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
