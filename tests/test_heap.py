"""What the allocator thresholds change: where a trial's grid temporaries
and the genie MMSE's system live, and so how many pages each trial or solve
faults in, never a bit of its results.  Each case runs in a fresh
interpreter, since the thresholds are set once per process and glibc has no
call that reads them back."""

import platform

import pytest

from helpers import PAPER_CFG, run_python

FAULTS_PER_TRIAL = """
import json, resource, sys
from ddce import load_config, snr_sweep, with_overrides

cfg = load_config(sys.argv[1])
if sys.argv[2] == "ongrid":
    cfg = with_overrides(cfg, estimators=("csf-ongrid", "ideal"), on_grid_doppler=True)
snrs = cfg.snr_db
snr_sweep(cfg, cfg.profile, snrs, cfg.estimators, 1, 1)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
snr_sweep(cfg, cfg.profile, snrs, cfg.estimators, 4, 2)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"shape": [cfg.M, cfg.N], "estimators": len(cfg.estimators),
                  "trials": len(snrs) * 4, "faults": after - before}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap behaviour")
@pytest.mark.parametrize("mix", ["ongrid", "paper"])
def test_a_warm_sweep_faults_in_almost_no_pages_per_trial(mix):
    """At glibc's default thresholds each 128x64 trial of the `ongrid` mix
    faulted in about 320 zeroed pages; with the sweep's thresholds its
    temporaries come back from the heap.  The `paper` mix adds the genie
    MMSE, whose two 4 MiB system buffers a 4 MiB mmap threshold would map
    afresh on every solve: about 1000 faults per trial.  A fault count, not
    a timing."""
    got = run_python(FAULTS_PER_TRIAL, args=(PAPER_CFG, mix))
    assert got["shape"] == [128, 64] and got["trials"] == 36
    assert got["estimators"] == {"ongrid": 2, "paper": 5}[mix]
    assert got["faults"] / got["trials"] <= 20, got


MMSE_LOOP = f"""
import json, resource
from ddce import grids, harness, load_config
from ddce.estimators import genie_correlations, mmse_estimate

cfg = load_config({PAPER_CFG!r})
trials = [harness._Trial(cfg, 20.0, seed) for seed in range(3, 6)]
cases = [(t.obs, genie_correlations(t.ps, cfg, t.layout), t.noise_var) for t in trials]
set_before = grids._keep_grids_on_the_heap.cache_info().misses
obs, corr, noise_var = cases[0]
mmse_estimate(obs, corr, noise_var, cfg)  # warm-up
calls = 30
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(calls):
    obs, corr, noise_var = cases[i % len(cases)]
    mmse_estimate(obs, corr, noise_var, cfg)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({{"set_before": set_before,
                   "set_after": grids._keep_grids_on_the_heap.cache_info().misses,
                   "pilots": cases[0][1].n_pilot, "calls": calls, "faults": after - before}}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap behaviour")
def test_a_direct_mmse_loop_faults_in_almost_no_pages_per_call():
    """A library loop of noisy `mmse_estimate` calls with no sweep in the
    process: each call builds its 512-pilot system in two fresh 4 MiB
    buffers, which faulted in about 995 pages per call before
    `mmse_estimate` set the thresholds itself."""
    got = run_python(MMSE_LOOP)
    assert (got["set_before"], got["set_after"]) == (0, 1)
    assert got["pilots"] == 512 and got["calls"] == 30
    assert got["faults"] / got["calls"] <= 20, got


TRIAL_BITS = """
import json, sys
from ddce import grids, harness, load_config, with_overrides

paper = load_config(sys.argv[1])
heap = grids._keep_grids_on_the_heap
if sys.argv[2] == "set":
    heap()
else:  # every caller of the helper gets a stand-in, so mallopt is never called
    for mod in list(sys.modules.values()):
        if getattr(mod, "_keep_grids_on_the_heap", None) is heap:
            mod._keep_grids_on_the_heap = lambda: None
set_first = heap.cache_info().misses
out = []
for model in ("diag", "full"):
    cfg = with_overrides(paper, channel_model=model)
    for snr in (10.0, 30.0):
        for seed in (3, 17, 2024):
            for r in harness._paired_trial(cfg, snr, seed):
                out.append([model, snr, seed, r.estimator, r.mse.hex(), r.nmse.hex(), r.ber.hex()])
print(json.dumps({"set_first": set_first, "set_last": heap.cache_info().misses, "bits": out}))
"""


def test_the_allocator_thresholds_move_no_bit_of_a_trial():
    """The CSV's 10 digits cannot show a last-bit change, so this compares
    float.hex of every estimator's mse, nmse and ber, on both channel
    models, between a process that never calls `mallopt` and one that sets
    the thresholds before its first trial."""
    default = run_python(TRIAL_BITS, args=(PAPER_CFG, "default"))
    tuned = run_python(TRIAL_BITS, args=(PAPER_CFG, "set"))
    assert (default["set_first"], default["set_last"]) == (0, 0)
    assert (tuned["set_first"], tuned["set_last"]) == (1, 1)
    assert len(default["bits"]) == 2 * 2 * 3 * 5
    assert tuned["bits"] == default["bits"]


RUN_TRIAL_LOOP = f"""
import json, resource
from ddce import grids, harness, load_config, run_trial, with_overrides

cfg = with_overrides(load_config({PAPER_CFG!r}), estimators=("csf-ongrid",), on_grid_doppler=True)
calls = grids._keep_grids_on_the_heap.cache_info
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
