"""Channel profile handling, path generation, and both transmit models."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from ddce.channel import (
    EVA_TAP_DELAYS_NS,
    EVA_TAP_POWERS_DB,
    ChannelProfile,
    PathSet,
    apply_channel_diag,
    apply_channel_full,
    csf_from_paths,
    ctf_from_paths,
    gen_paths,
    max_doppler_index,
    merge_profile_taps,
    quantize_delays,
)
from ddce.config import default_config, with_overrides
from ddce.errors import ProfileError, SupportError
from ddce.grids import TFGrid, sfft
from ddce.harness import run_trial
from helpers import small_cfg, tiny_cfg


def ctf_direct(ps, big_m, big_n):
    """Per-entry loop evaluation of the multipath response."""
    h = np.zeros((big_m, big_n), dtype=complex)
    for m in range(big_m):
        for n in range(big_n):
            for gain, delay, doppler in zip(ps.gains, ps.delays, ps.dopplers):
                h[m, n] += gain * np.exp(
                    2j * np.pi * (doppler * n / big_n - delay * m / big_m)
                )
    return h


def two_tap_profile(v_kmh=250.0, spread_ns=1041.6666666666667):
    return ChannelProfile(
        tap_delays_ns=(0.0, spread_ns),
        tap_powers_db=(0.0, -3.0),
        v_kmh=v_kmh,
        f_c_hz=2.1e9,
    )


def test_eva_reference_profile_constants():
    assert len(EVA_TAP_DELAYS_NS) == 9
    assert len(EVA_TAP_POWERS_DB) == 9
    assert EVA_TAP_DELAYS_NS[0] == 0.0
    assert EVA_TAP_DELAYS_NS[-1] == 2510.0
    assert EVA_TAP_POWERS_DB[-1] == -16.9


def test_profile_validation_and_normalization():
    with pytest.raises(ProfileError):
        ChannelProfile(tap_delays_ns=(), tap_powers_db=(), v_kmh=30.0, f_c_hz=2.1e9)
    prof = two_tap_profile()
    assert abs(prof.tap_powers_lin.sum() - 1.0) < 1e-12
    assert abs(prof.nu_max_hz - 486.11111111111114) < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_tap_far_below_the_strongest_gets_zero_power():
    """Only the strongest tap is bounded: a tap 4000 dB below it underflows
    to power 0 and the trial still runs."""
    cfg = small_cfg()
    prof = replace(cfg.profile, tap_powers_db=(0.0, -4000.0))
    assert prof.tap_powers_lin.tolist() == [1.0, 0.0]
    cfg = with_overrides(cfg, profile=prof)
    ps = gen_paths(cfg, prof, np.random.default_rng(3))
    assert ps.gains[1] == 0 and ps.powers[1] == 0.0
    for name in cfg.estimators:
        assert not run_trial(cfg, prof, 20.0, name, 3).failed


def test_doppler_support_constant():
    cfg = default_config()
    k_max = max_doppler_index(cfg.profile, cfg)
    assert abs(k_max - 2.0740740740740744) < 1e-12
    assert 2.0 < k_max < 2.1


def test_quantize_default_profile_bins():
    cfg = default_config()
    assert quantize_delays(cfg.profile, cfg).tolist() == [0, 1, 2, 3, 5]


def test_quantize_rejects_colliding_taps():
    cfg = default_config()
    raw = ChannelProfile(EVA_TAP_DELAYS_NS, EVA_TAP_POWERS_DB, v_kmh=250.0, f_c_hz=2.1e9)
    with pytest.raises(ProfileError, match="collide"):
        quantize_delays(raw, cfg)


def test_quantize_rejects_out_of_support_delay():
    cfg = default_config()
    prof = ChannelProfile(
        tap_delays_ns=(0.0, 1.0e6), tap_powers_db=(0.0, -3.0), v_kmh=250.0, f_c_hz=2.1e9
    )
    with pytest.raises(SupportError, match=r"1/\(d_f\*delta_f\)"):
        quantize_delays(prof, cfg)


def test_merge_conserves_linear_power():
    cfg = default_config()
    raw = ChannelProfile(EVA_TAP_DELAYS_NS, EVA_TAP_POWERS_DB, v_kmh=250.0, f_c_hz=2.1e9)
    merged = merge_profile_taps(raw, cfg)
    assert merged.n_taps == 5
    raw_lin = 10.0 ** (np.asarray(EVA_TAP_POWERS_DB) / 10.0)
    merged_lin = 10.0 ** (np.asarray(merged.tap_powers_db) / 10.0)
    assert abs(merged_lin.sum() - raw_lin.sum()) < 1e-12
    assert quantize_delays(merged, cfg).tolist() == [0, 1, 2, 3, 5]
    again = merge_profile_taps(merged, cfg)
    assert np.allclose(again.tap_delays_ns, merged.tap_delays_ns)
    assert np.allclose(again.tap_powers_db, merged.tap_powers_db)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_merge_keeps_a_bin_whose_linear_power_underflows():
    cfg = default_config()
    raw = ChannelProfile((0.0, 30.0, 5000.0), (0.0, -4000.0, -4000.0), v_kmh=250.0, f_c_hz=2.1e9)
    merged = merge_profile_taps(raw, cfg)
    assert quantize_delays(merged, cfg).tolist() == [0, 10]
    assert merged.tap_powers_db == (0.0, -4000.0)


def test_gen_paths_deterministic_and_in_support():
    cfg = default_config()
    ps1 = gen_paths(cfg, cfg.profile, np.random.default_rng(7))
    ps2 = gen_paths(cfg, cfg.profile, np.random.default_rng(7))
    assert np.array_equal(ps1.gains, ps2.gains)
    assert np.array_equal(ps1.dopplers, ps2.dopplers)
    assert np.array_equal(ps1.delays, ps2.delays)
    assert len(ps1) == 5
    assert np.max(np.abs(ps1.dopplers)) <= max_doppler_index(cfg.profile, cfg) + 1e-12
    assert np.array_equal(ps1.powers, cfg.profile.tap_powers_lin)


def test_gen_paths_on_grid_rounding():
    cfg = with_overrides(default_config(), on_grid_doppler=True)
    ps = gen_paths(cfg, cfg.profile, np.random.default_rng(3))
    assert np.array_equal(ps.dopplers, np.rint(ps.dopplers))


def test_gen_paths_rejects_excess_doppler():
    cfg = default_config()
    fast = ChannelProfile(
        tap_delays_ns=(0.0,), tap_powers_db=(0.0,), v_kmh=5000.0, f_c_hz=2.1e9
    )
    with pytest.raises(SupportError, match=r"nu_max <= 1/\(2\*d_t\*T\)"):
        gen_paths(cfg, fast, np.random.default_rng(0))


def test_gain_and_doppler_statistics():
    cfg = default_config()
    prof = two_tap_profile()
    rng = np.random.default_rng(2024)
    n_draws = 20000
    gains = np.empty((n_draws, 2), dtype=complex)
    dopp = np.empty((n_draws, 2))
    for i in range(n_draws):
        ps = gen_paths(cfg, prof, rng)
        gains[i] = ps.gains
        dopp[i] = ps.dopplers
    p_lin = prof.tap_powers_lin
    var = np.mean(np.abs(gains) ** 2, axis=0)
    assert np.max(np.abs(var / p_lin - 1.0)) < 0.03
    assert np.max(np.abs(gains.mean(axis=0))) < 0.01
    # cosine Doppler model: bounded support, zero mean, second moment k_max^2/2
    k_max = max_doppler_index(prof, cfg)
    assert np.max(np.abs(dopp)) <= k_max + 1e-12
    assert abs(np.mean(dopp)) < 0.02
    assert abs(np.mean(dopp**2) / (k_max**2 / 2.0) - 1.0) < 0.03


def test_ctf_matches_direct_loops():
    cfg = tiny_cfg(8, 4)
    ps = PathSet([0.8 - 0.2j, -0.1 + 0.5j], [1, 3], [0.37, -0.9])
    got = ctf_from_paths(ps, cfg).data
    assert np.max(np.abs(got - ctf_direct(ps, 8, 4))) < 1e-12


def test_ctf_mean_energy_is_profile_power():
    cfg = tiny_cfg(16, 8)
    prof = two_tap_profile(v_kmh=50.0, spread_ns=4166.666666666667)
    rng = np.random.default_rng(99)
    acc = 0.0
    n_draws = 4000
    for _ in range(n_draws):
        ps = gen_paths(cfg, prof, rng)
        acc += np.mean(np.abs(ctf_from_paths(ps, cfg).data) ** 2)
    assert abs(acc / n_draws - 1.0) < 0.03


def test_csf_image_agrees_with_transformed_ctf():
    cfg = tiny_cfg(16, 8)
    ps = PathSet([1.0 + 0.3j, 0.2 - 0.7j], [2, 5], [1.49, -0.8])
    via_tf = sfft(ctf_from_paths(ps, cfg), cfg).data
    got = csf_from_paths(ps, cfg).data
    assert np.max(np.abs(got - via_tf)) < 1e-10


def test_diag_model_applies_gain_and_noise():
    cfg = default_config()
    ps = gen_paths(cfg, cfg.profile, np.random.default_rng(1))
    h = ctf_from_paths(ps, cfg).data
    x = TFGrid(np.ones((cfg.M, cfg.N), dtype=complex))
    y = apply_channel_diag(x, ps, 0.5, np.random.default_rng(55))
    w = y.data - h * x.data
    assert abs(np.mean(np.abs(w) ** 2) - 0.5) < 0.02
    assert abs(np.mean(w)) < 0.02
    y0 = apply_channel_diag(x, ps, 0.0, np.random.default_rng(55))
    assert np.max(np.abs(y0.data - h * x.data)) < 1e-12


def test_full_model_reduces_to_diag_without_doppler():
    cfg = default_config()
    ps = PathSet([0.9 + 0.1j, 0.4 - 0.6j], [0, 3], [0.0, 0.0])
    x = TFGrid(np.exp(2j * np.pi * np.random.default_rng(8).uniform(size=(cfg.M, cfg.N))))
    y_d = apply_channel_diag(x, ps, 0.25, np.random.default_rng(77))
    y_f = apply_channel_full(x, ps, 0.25, np.random.default_rng(77))
    # identical channel action and the identical noise draw
    assert np.max(np.abs(y_d.data - y_f.data)) < 1e-10


def _full_channel_loop(x, paths, noise_var, rng):
    """The full channel as a plain per-path loop over (gain, delay, doppler)
    rows of Python numbers: intra-symbol ramp, symbol phase, cyclic
    delay, FFT, then the gain times the result (gain first), summed over
    paths before the noise is added."""
    big_m, big_n = x.shape
    xt = np.fft.ifft(x, axis=0, norm="ortho")
    y = np.zeros_like(x)
    for gain, delay, doppler in paths:
        ramp = np.exp(2j * np.pi * doppler * np.arange(big_m) / (big_m * big_n))
        phase = np.exp(2j * np.pi * doppler * np.arange(big_n) / big_n)
        t = xt * ramp[:, None] * phase[None, :]
        y = y + gain * np.fft.fft(np.roll(t, delay, axis=0), axis=0, norm="ortho")
    w = np.empty(x.shape, dtype=complex)
    w.real = rng.standard_normal(x.shape)
    w.imag = rng.standard_normal(x.shape)
    return y + w * np.sqrt(noise_var / 2.0)


@pytest.mark.parametrize(
    "paths",
    [
        ((0.9 + 0.1j, 0, 0.0), (0.4 - 0.6j, 3, 0.0)),  # zero Doppler: the diag model
        ((0.8 - 0.3j, 1, 1.37), (-0.2 + 0.5j, 4, -2.81), (0.1 + 0.1j, 7, 0.49)),
        ((0.7 + 0.2j, 0, 0.0), (0.3 - 0.4j, 2, -1.5)),
        # the delayed rows split at M - l: a delay of M/2, M - 1, and M or more
        # (np.roll shifts by l mod M)
        ((0.6 - 0.2j, 64, 0.73), (0.3 + 0.4j, 127, -1.21)),
        ((0.5 + 0.5j, 128, 1.1), (-0.2 + 0.1j, 389, -0.4), (0.1 - 0.3j, 2**62 + 5, 2.4)),
    ],
)
def test_full_model_equals_per_path_loop_bitwise(paths):
    cfg = default_config()
    ps = PathSet(*zip(*paths))
    rng = np.random.default_rng(31)
    x = TFGrid(rng.standard_normal((cfg.M, cfg.N)) + 1j * rng.standard_normal((cfg.M, cfg.N)))
    for noise_var in (0.0, 0.3):
        got = apply_channel_full(x, ps, noise_var, np.random.default_rng(9)).data
        want = _full_channel_loop(x.data, paths, noise_var, np.random.default_rng(9))
        assert got.tobytes() == want.tobytes()


def test_full_model_pure_delay_by_hand():
    cfg = tiny_cfg(4, 2)
    ps = PathSet([1.0 + 0.0j], [2], [0.0])
    rng = np.random.default_rng(4)
    x = TFGrid(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    y = apply_channel_full(x, ps, 0.0, np.random.default_rng(0))
    ramp = np.array([1.0, -1.0, 1.0, -1.0])[:, None]  # e^{-j pi m} for l = 2, M = 4
    assert np.max(np.abs(y.data - ramp * x.data)) < 1e-12


def test_full_model_ici_floor_at_high_doppler():
    cfg = default_config()
    x = TFGrid(np.exp(2j * np.pi * np.random.default_rng(21).uniform(size=(cfg.M, cfg.N))))
    for k_i, lo, hi in ((0.0, 0.0, 1e-10), (2.06, 0.08, 0.15)):
        ps = PathSet([1.0 + 0.0j], [2], [k_i])
        h = ctf_from_paths(ps, cfg).data
        y = apply_channel_full(x, ps, 0.0, np.random.default_rng(0))
        dev = np.linalg.norm(y.data - h * x.data) / np.linalg.norm(h * x.data)
        assert lo <= dev <= hi


def test_a_pathset_stores_read_only_arrays_of_one_dtype():
    """Powers fall back to |gain|^2, and each array is stored as a read-only
    copy of one dtype: the caller's own array stays writable."""
    gains = np.array([0.6 + 0.8j])
    ps = PathSet(gains, np.array([1], dtype=np.uint8), [0.25])
    assert len(ps) == 1 and np.allclose(ps.powers, [1.0])  # falls back to |gain|^2
    arrays = (ps.gains, ps.delays, ps.dopplers, ps.powers)
    assert [a.dtype for a in arrays] == [np.complex128, np.int64, np.float64, np.float64]
    assert not any(a.flags.writeable for a in arrays) and gains.flags.writeable


def test_delay_past_the_int64_range_is_out_of_support():
    """A delay whose bin index does not fit an int64 still compares as too
    long, with no cast warning, instead of wrapping to a negative bin."""
    cfg = default_config()
    prof = replace(cfg.profile, tap_delays_ns=(0.0, 1e300), tap_powers_db=(0.0, -3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SupportError, match="exceeds M/d_f - 1"):
            quantize_delays(prof, cfg)
        assert any("exceeds M/d_f - 1" in v for v in replace(cfg, profile=prof).violations())
