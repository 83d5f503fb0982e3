"""Config factories shared by the test modules."""

from ddce.channel import ChannelProfile
from ddce.config import SystemConfig

ONE_TAP = ChannelProfile((0.0,), (0.0,), v_kmh=0.0, f_c_hz=2.1e9)


def tiny_cfg(big_m, big_n, d_t=1, d_f=1):
    """Small static one-tap config; bypasses whole-config validation on purpose."""
    return SystemConfig(M=big_m, N=big_n, delta_f_hz=15e3, d_t=d_t, d_f=d_f, profile=ONE_TAP)


def small_cfg():
    """Validated two-tap 32x16 config at 250 km/h, cheap enough for whole sweeps."""
    prof = ChannelProfile((0.0, 4166.666666666667), (0.0, -3.0), v_kmh=250.0, f_c_hz=2.1e9)
    return SystemConfig(M=32, N=16, delta_f_hz=15e3, d_t=4, d_f=4, profile=prof).validated()
