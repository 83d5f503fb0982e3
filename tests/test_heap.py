"""What the sweep's allocator thresholds change: where a trial's grid
temporaries live, and so how many pages each trial faults in, never a bit of
its results.  Each case runs in a fresh interpreter, since the thresholds are
set once per process and glibc has no call that reads them back."""

import platform

import pytest

from helpers import PAPER_CFG, run_python

FAULTS_PER_TRIAL = f"""
import json, resource
from ddce import load_config, snr_sweep, with_overrides

cfg = with_overrides(
    load_config({PAPER_CFG!r}), estimators=("csf-ongrid", "ideal"), on_grid_doppler=True
)
snrs = cfg.snr_db
snr_sweep(cfg, cfg.profile, snrs, cfg.estimators, 1, 1)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
snr_sweep(cfg, cfg.profile, snrs, cfg.estimators, 4, 2)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({{"shape": [cfg.M, cfg.N], "trials": len(snrs) * 4, "faults": after - before}}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap behaviour")
def test_a_warm_sweep_faults_in_almost_no_pages_per_trial():
    """At glibc's default thresholds each 128x64 trial of this mix faulted
    in about 320 zeroed pages; with the sweep's thresholds its temporaries
    come back from the heap.  A fault count, not a timing."""
    got = run_python(FAULTS_PER_TRIAL)
    assert got["shape"] == [128, 64] and got["trials"] == 36
    assert got["faults"] / got["trials"] <= 20, got


SAME_BITS_AFTER_A_SWEEP = f"""
import json
from ddce import harness, load_config, snr_sweep, with_overrides

paper = load_config({PAPER_CFG!r})

def fingerprint():
    out = []
    for model in ("diag", "full"):
        cfg = with_overrides(paper, channel_model=model)
        for snr in (10.0, 30.0):
            for seed in (3, 17, 2024):
                for r in harness._paired_trial(cfg, snr, seed):
                    out.append([model, snr, seed, r.estimator,
                                r.mse.hex(), r.nmse.hex(), r.ber.hex()])
    return out

calls = harness._keep_grids_on_the_heap.cache_info
before, set_before = fingerprint(), calls().misses
snr_sweep(paper, paper.profile, (20.0,), paper.estimators, 1, 5)
print(json.dumps({{"set_before": set_before, "set_after": calls().misses,
                   "before": before, "after": fingerprint()}}))
"""


def test_the_allocator_thresholds_move_no_bit_of_a_trial():
    """The CSV's 10 digits cannot show a last-bit change, so this compares
    float.hex of every estimator's mse, nmse and ber, on both channel
    models, before and after the first sweep of the process sets the
    thresholds."""
    got = run_python(SAME_BITS_AFTER_A_SWEEP)
    assert (got["set_before"], got["set_after"]) == (0, 1)
    assert len(got["before"]) == 2 * 2 * 3 * 5
    assert got["after"] == got["before"]


RUN_TRIAL_LOOP = f"""
import json, resource
from ddce import harness, load_config, run_trial, with_overrides

cfg = with_overrides(load_config({PAPER_CFG!r}), estimators=("csf-ongrid",), on_grid_doppler=True)
calls = harness._keep_grids_on_the_heap.cache_info
seeds = range(3, 39)

def bits(r):
    return [r.mse.hex(), r.nmse.hex(), r.ber.hex()]

# at glibc's defaults: the thresholds are not set yet
want = [bits(harness._paired_trial(cfg, 20.0, seed)[0]) for seed in seeds]
set_before = calls().misses
run_trial(cfg, cfg.profile, 20.0, "csf-ongrid", 1)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
got = [bits(run_trial(cfg, cfg.profile, 20.0, "csf-ongrid", seed)) for seed in seeds]
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({{"set_before": set_before, "set_after": calls().misses, "trials": len(got),
                   "faults": after - before, "want": want, "got": got}}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap behaviour")
def test_a_run_trial_loop_sets_the_thresholds_without_a_sweep():
    """A library loop of `run_trial` calls, with no sweep before it, faulted
    in about 90 pages per 128x64 `csf-ongrid` trial before `run_trial` set
    the thresholds itself.  The results keep every bit of the trials run at
    glibc's defaults."""
    got = run_python(RUN_TRIAL_LOOP)
    assert (got["set_before"], got["set_after"]) == (0, 1)
    assert got["trials"] == 36
    assert got["faults"] / got["trials"] <= 20, got["faults"]
    assert got["got"] == got["want"]
