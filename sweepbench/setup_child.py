"""Set-up time of a fresh process: import ddce, load a config, finish one trial.

Usage: python3 setup_child.py <src dir> <config file>
Prints the elapsed seconds, measured from before the import.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402 - imported after the clock starts on purpose

sys.path.insert(0, sys.argv[1])

import ddce  # noqa: E402

cfg = ddce.load_config(sys.argv[2])
ddce.snr_sweep(cfg, cfg.profile, cfg.snr_db[:1], cfg.estimators, 1, cfg.master_seed)
print(time.perf_counter() - T0)
