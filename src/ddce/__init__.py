"""Delay-Doppler domain channel estimation for OFDM over doubly-selective
channels, with classical LS-interpolation and genie-MMSE baselines and a
seeded Monte-Carlo simulation harness.

The package root holds the calls of a run; import the lower-level pieces
from the modules that define them (`ddce.grids`, `ddce.channel`,
`ddce.estimators`, `ddce.kernels`, `ddce.txrx`, `ddce.errors`, ...)."""

from .config import default_config, load_config, with_overrides
from .harness import run_trial, snr_sweep, write_csv

__all__ = ["default_config", "load_config", "with_overrides", "run_trial", "snr_sweep", "write_csv"]
