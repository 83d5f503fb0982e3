"""Traced working sets of a trial's stages on the shipped 128x64 grid, counted
in grids of 128 KiB (one 128x64 complex array): the peak of the numpy
buffers tracemalloc sees while one warm call runs, results included."""

import pytest

from ddce import harness
from ddce.config import default_config, with_overrides
from ddce.estimators import interp_linear
from helpers import traced_peak

GRID = 128 * 64 * 16
CASES = [(snr_db, seed) for snr_db in (0.0, 20.0, 40.0) for seed in (3, 17, 2024)]


def peak_grids(call):
    """Peak traced bytes of call(), in grids, after one untraced warm-up call
    has filled the per-config caches."""
    call()
    return traced_peak(call)[1] / GRID


@pytest.fixture(scope="module")
def full_cfg():
    cfg = with_overrides(default_config(), channel_model="full")
    assert (cfg.M, cfg.N) == (128, 64)
    return cfg


def test_a_full_channel_trial_holds_at_most_six_grids(full_cfg):
    """The int64 bits go once the frame is built, the true response is built
    after the channel, and the channel keeps one buffer for every path's
    shifted samples: 5.2 grids, where 9.0 were held before."""
    worst = max(peak_grids(lambda: harness._Trial(full_cfg, snr, seed)) for snr, seed in CASES)
    assert worst <= 6.0, worst


def test_pilot_interpolation_holds_at_most_three_grids(full_cfg):
    """Its output grid, the gathered slopes it is built in and one gathered
    knot grid: 2.3 grids, where the three-term expression held 4.3."""
    trials = [harness._Trial(full_cfg, snr, seed) for snr, seed in CASES[:3]]
    worst = max(peak_grids(lambda: interp_linear(t.obs, full_cfg)) for t in trials)
    assert worst <= 3.0, worst
