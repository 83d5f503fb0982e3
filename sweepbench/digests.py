"""Print the reference CSV digests that run.py checks sweeps against.

Usage, from the root of a ddce checkout:

    python3 sweepbench/digests.py
    OPENBLAS_NUM_THREADS=1 python3 sweepbench/digests.py

For every workload this runs the timed sweep's config at the shipped
master_seed and at one held-out seed and prints the sha256 of each CSV.
OpenBLAS rounds the dense MMSE solve differently with one thread than with
several, so the `paper` CSV has two valid byte strings; digests.json holds
the union of both commands' output, recorded at the commit that added the
benchmark.  ddce must never change these bytes, so regenerate the file only
to add a workload.
"""

import json
import os
import sys
import tempfile

from common import WORK_DIR, WORKLOADS, import_ddce, run_sweep, sha256, write_config

SEEDS = (20250819, 4242)  # paper.cfg's master_seed, and a held-out one


def main() -> int:
    ddce = import_ddce()
    os.makedirs(WORK_DIR, exist_ok=True)
    out = {}
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        for workload, spec in WORKLOADS.items():
            out[workload] = {}
            for seed in SEEDS:
                cfg = write_config(
                    os.path.join(tmp, "ref.cfg"), workload, seed, spec["sweep_trials"]
                )
                _, _, data, err = run_sweep(ddce, cfg, os.path.join(tmp, "ref.csv"))
                if err is not None:
                    print(f"{workload} seed {seed}: {err}", file=sys.stderr)
                    return 2
                out[workload][str(seed)] = [sha256(data)]
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
