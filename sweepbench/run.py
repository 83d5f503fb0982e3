"""Sweep benchmark for `ddce sweep`.

Usage, from the root of a ddce source checkout:

    python3 sweepbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Every run generates its config files from `paper.cfg` (the seed becomes
`master_seed`) and drives `ddce.cli.main(["sweep", ...])` in this process.

--trace 0 measures the end-to-end metrics with no instrumentation: after a
warm-up, sweeps for --seconds of sweep time (a closed loop, one sweep at a
time), alternating with fresh processes whose set-up time is measured.  Every sweep's CSV is
checked: the two reference seeds against digests.json, the run's own seed
against the bytes of its warm-up sweep.

--trace 1 runs the replay in replay.py instead and reports per-layer metrics.

The last stdout line is the JSON result; the lines before it are a readable
summary with sample counts, percentiles and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from common import WORK_DIR, WORKLOADS, describe, fail, import_ddce, run_sweep, sha256, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROCESSES = 15
SETUP_TIMEOUT_S = 60

# The gated metrics.  trials_per_s is printed in the summary only: on a shared
# 2-vCPU VM, hypervisor steal moved its ten-seed spread to ~40% of its median
# on the GIL-bound mixes, beyond any usable bound, while process CPU time
# (which excludes steal) stayed within ~10%.
UNITS = {
    "cpu_ms_per_trial": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "loadavg_1min": os.getloadavg()[0],
    }


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def setup_seconds(cfg_path: str) -> float:
    """Seconds a fresh interpreter takes to import ddce, load the config and
    finish one trial; it inherits the BLAS thread variables untouched."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_child.py"), os.path.abspath("src"), cfg_path],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def end_to_end(ddce, workload: str, seed: int, seconds: float, tmp: str):
    n_trials = WORKLOADS[workload]["sweep_trials"]
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        references = json.load(fh)[workload]
    csv = os.path.join(tmp, "out.csv")
    attempted = failed = 0
    errors = []

    def checked_sweep(cfg_path, want):
        """Run one sweep and check that its CSV's sha256 is one of `want`;
        returns (wall, cpu, bytes), or None when the sweep failed."""
        nonlocal attempted, failed
        attempted += 1
        wall, cpu, data, err = run_sweep(ddce, cfg_path, csv)
        if err is None and want is not None and sha256(data) not in want:
            err = f"CSV sha256 {sha256(data)} is none of the references {want}"
        if err is not None:
            failed += 1
            errors.append(err)
            return None
        return wall, cpu, data

    # The reference seeds run first and double as warm-up.
    for ref_seed, digests in references.items():
        cfg = write_config(os.path.join(tmp, f"ref{ref_seed}.cfg"), workload, int(ref_seed), n_trials)
        checked_sweep(cfg, digests)

    cfg = write_config(os.path.join(tmp, "run.cfg"), workload, seed, n_trials)
    trials_per_sweep = n_trials * len(ddce.load_config(cfg).snr_db)
    warm = checked_sweep(cfg, None)
    own = [sha256(warm[2])] if warm else None
    # Timed sweeps alternate with the set-up processes, so that both sample
    # the whole run rather than one stretch of a machine whose speed drifts.
    walls, cpus, setup = [], [], []
    sweeping = 0.0
    ticks_before = cpu_ticks()
    while sweeping < seconds or len(setup) < SETUP_PROCESSES:
        if sweeping < seconds:
            t0 = time.perf_counter()
            res = checked_sweep(cfg, own)
            sweeping += time.perf_counter() - t0
            if res is not None:
                walls.append(res[0])
                cpus.append(res[1])
        if len(setup) < SETUP_PROCESSES:
            setup.append(setup_seconds(cfg))
    if not walls:
        fail(f"no sweep completed: {errors[:3]}")
    ticks_after = cpu_ticks()
    steal = "unknown"
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        share = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
        steal = f"{100 * share:.1f}% of CPU time"

    rates = [trials_per_sweep / w for w in walls]
    cpu_ms = [1e3 * c / trials_per_sweep for c in cpus]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "cpu_ms_per_trial": statistics.median(cpu_ms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    summary = [
        f"sweeps: {trials_per_sweep} trials each, {len(walls)} timed; "
        f"failed_frac = {failed}/{attempted} sweeps",
        describe("sweep_wall_s", walls, "s"),
        describe("trials_per_s", rates, "1/s"),
        describe("cpu_ms_per_trial", cpu_ms, "ms"),
        describe("setup_s", setup, "s"),
        f"peak_rss_mb: {peak_rss_mb:.6g} MB (n=1)",
        f"hypervisor steal during the timed part: {steal}",
    ] + [f"error: {e}" for e in errors[:5]]
    return metrics, UNITS, attempted, failed, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark `ddce sweep`.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    env = environment()  # the load average before any work starts
    ddce = import_ddce()
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        if args.trace:
            import replay

            result = replay.traced_run(ddce, args.workload, args.seed, args.seconds, tmp)
        else:
            result = end_to_end(ddce, args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics, units, attempted, failed, summary = result

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for line in summary:
        print(line)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
