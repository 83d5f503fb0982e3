"""Workloads, config generation and the sweep call shared by the benchmark's
scripts.  Everything here runs from the root of a ddce source checkout."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import sys
import time

WORK_DIR = ".sweepbench"
THREADS = 2

# Each workload is paper.cfg (128x64 grid, spacing-4 lattice, 9 SNR points)
# with these keys replaced.  `sweep_trials` is the n_trials of one timed
# sweep, sized so that one sweep takes about a second on a 2-CPU machine.
WORKLOADS = {
    # The north-star setup: all five estimators; genie MMSE is ~90% of a trial.
    "paper": {"overrides": {}, "sweep_trials": 2},
    # No MMSE; the ICI channel, off-grid recovery and small GIL-bound calls.
    "dd-full": {
        "overrides": {
            "estimators": "ls-interp, csf-ongrid, csf-offgrid, ideal",
            "channel_model": "full",
        },
        "sweep_trials": 8,
    },
    # Acceptance-4c mix: fixed per-trial cost and thread-pool overhead dominate.
    "ongrid": {
        "overrides": {"estimators": "csf-ongrid, ideal", "on_grid_doppler": "true"},
        "sweep_trials": 24,
    },
}


def fail(msg: str) -> None:
    """Stop without a result line."""
    print(f"sweepbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_ddce():
    """Import ddce from this checkout's src/, never from anywhere else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ddce", "__init__.py")):
        fail(f"no ddce sources under {src}; run from the root of a ddce checkout")
    if not os.path.isfile("paper.cfg"):
        fail("paper.cfg not found; run from the root of a ddce checkout")
    sys.path.insert(0, src)
    import ddce
    import ddce.cli

    if not os.path.abspath(ddce.__file__).startswith(src + os.sep):
        fail(f"imported ddce from {ddce.__file__}, expected it under {src}")
    return ddce


def write_config(path: str, workload: str, seed: int, n_trials: int, threads: int = THREADS) -> str:
    """paper.cfg with the workload's keys, the seed as master_seed, n_trials
    and threads replaced (appended where paper.cfg lacks the key)."""
    pending = {
        **WORKLOADS[workload]["overrides"],
        "n_trials": n_trials,
        "master_seed": seed,
        "threads": threads,
    }
    lines = []
    with open("paper.cfg", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            key = line.split("=", 1)[0].strip()
            if "=" in line and not line.lstrip().startswith("#") and key in pending:
                line = f"{key} = {pending.pop(key)}"
            lines.append(line)
    lines += [f"{k} = {v}" for k, v in pending.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def run_sweep(ddce, cfg_path: str, csv_path: str):
    """One `ddce sweep` in this process, its console output swallowed.

    Returns (wall s, process CPU s over all threads, CSV bytes, error); the
    bytes are None and error says why when the sweep raised or exited
    non-zero.
    """
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ddce.cli.main(["sweep", "--config", cfg_path, "--out", csv_path])
    except Exception as exc:  # noqa: BLE001 - a raising sweep is a failed sweep
        return 0.0, 0.0, None, f"raised {exc!r}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if code != 0:
        return wall, cpu, None, f"exit {code}: {err.getvalue().strip()}"
    with open(csv_path, "rb") as fh:
        return wall, cpu, fh.read(), None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def describe(name: str, samples, unit: str) -> str:
    """Median, the highest whole percentile with at least ten samples beyond
    it (shown from 20 samples on), and the sample count."""
    n = len(samples)
    text = f"{name}: p50={statistics.median(samples):.6g} {unit}"
    if n >= 20:
        q = 100 * (n - 10) // n
        text += f" p{q}={statistics.quantiles(samples, n=100, method='inclusive')[q - 1]:.6g} {unit}"
    return text + f" (n={n})"
