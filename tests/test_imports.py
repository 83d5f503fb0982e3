"""What a run loads: the dense solver (`scipy.linalg`) only for a genie-MMSE
solve on the fallback route, where no mapped OpenBLAS exports LAPACK's
`zpotrf`/`zpotrs`; the genie-MMSE solves alone take the BLAS pin over every
OpenBLAS copy.  No run loads the thread-pool module (`concurrent.futures`) of
its own: sweeps run their trials serially, and only `scipy.linalg` imports
it.  Nor does any run load numpy's masked arrays (`numpy.ma`, 0.8 MB of
resident memory) except through `scipy.linalg`: `np.unique`, for one,
imports them.  Each case runs in a fresh interpreter, since the module
table of this one depends on which tests ran before."""

import os
import subprocess
import sys

import pytest

from helpers import PAPER_CFG, ROOT, SRC, run_python

LAZY = ("scipy.linalg", "concurrent.futures", "numpy.ma")


def small_config(tmp_path, name, **keys):
    """paper.cfg with keys replaced or appended, written under tmp_path."""
    pending = {k: str(v) for k, v in keys.items()}
    lines = []
    with open(PAPER_CFG, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            key = line.split("=", 1)[0].strip()
            if "=" in line and not line.lstrip().startswith("#") and key in pending:
                line = f"{key} = {pending.pop(key)}"
            lines.append(line)
    lines += [f"{k} = {v}" for k, v in pending.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# prepended to a probe: the LAPACK lookup finds nothing, as on a numpy built
# on Accelerate or MKL, so the genie MMSE solves with the scipy.linalg pair
FORCED_FALLBACK = """
from ddce import blas
blas._LAPACK = ()
"""

CLI_THEN_REPORT = """
import json, sys
from ddce.cli import main
code = main({argv!r})
print(json.dumps({{"code": code, "loaded": [m for m in {lazy!r} if m in sys.modules]}}))
"""


def test_import_loads_neither_the_dense_solver_nor_the_pool():
    got = run_python(
        f"import json, sys, ddce; print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))"
    )
    assert got == []


@pytest.mark.parametrize("case", ["ongrid-sweep", "verify", "simulate-offgrid"])
def test_runs_without_the_genie_mmse_load_neither(case, tmp_path):
    cfg = small_config(
        tmp_path,
        "run.cfg",
        estimators="csf-ongrid, ideal",
        on_grid_doppler="true",
        snr_db="10, 20",
        n_trials=3,
        threads=2,  # accepted and ignored, as in the benchmark's configs
    )
    argv = {
        "ongrid-sweep": ["sweep", "--config", cfg, "--out", str(tmp_path / "out.csv")],
        "verify": ["verify", "--config", cfg],
        "simulate-offgrid": [
            "simulate", "--config", cfg, "--estimator", "csf-offgrid", "--snr", "10", "--seed", "3",
        ],
    }[case]
    got = run_python(CLI_THEN_REPORT.format(argv=argv, lazy=LAZY))
    assert got == {"code": 0, "loaded": []}


def test_a_genie_mmse_sweep_loads_the_dense_solver_only_on_the_fallback(tmp_path):
    """A noisy genie-MMSE sweep factors in numpy's OpenBLAS and loads
    neither.  The same sweep with the LAPACK lookup finding nothing loads
    all, so that the absence is not vacuous: `concurrent.futures` and
    `numpy.ma` come with `scipy.linalg`, which imports them."""
    cfg = small_config(
        tmp_path, "mmse.cfg", estimators="mmse-genie", snr_db="10", n_trials=2, threads=2
    )
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "out.csv")]
    probe = CLI_THEN_REPORT.format(argv=argv, lazy=LAZY)
    assert run_python(probe) == {"code": 0, "loaded": []}
    assert run_python(FORCED_FALLBACK + probe) == {"code": 0, "loaded": list(LAZY)}


@pytest.mark.parametrize(
    "mix",
    [
        # paper.cfg's five estimators, genie MMSE among them, noisy and noiseless
        {"snr_db": "0, 40, inf"},
        {"estimators": "ls-interp, csf-ongrid, csf-offgrid, ideal", "channel_model": "full"},
        {"estimators": "csf-ongrid, ideal", "on_grid_doppler": "true"},
    ],
    ids=["paper", "full-csf", "ongrid"],
)
def test_sweep_csv_ignores_the_openblas_thread_variable(mix, tmp_path):
    """Only the genie-MMSE solves, noisy and noiseless, pin BLAS; nothing
    else a sweep runs may round differently on more BLAS threads."""
    cfg = small_config(tmp_path, "run.cfg", n_trials=3, **{"snr_db": "0, 40", **mix})
    csvs = []
    for n in ("1", "2"):
        out = tmp_path / f"out{n}.csv"
        argv = ["sweep", "--config", cfg, "--out", str(out)]
        got = run_python(CLI_THEN_REPORT.format(argv=argv, lazy=LAZY), {"OPENBLAS_NUM_THREADS": n})
        assert got["code"] == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


FIRST_SOLVE_UNDER_AN_OPEN_PIN = """
import json, sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ddce import blas
from ddce.blas import blas_thread_counts, single_blas_thread
from ddce.config import default_config
from ddce.estimators import PilotObservations, genie_correlations, mmse_estimate
from ddce.channel import gen_paths
from ddce.txrx import PilotPattern, make_layout

cfg = default_config()
layout = make_layout(PilotPattern(cfg.d_t, cfg.d_f), cfg)
rng = np.random.default_rng(1)
corr = genie_correlations(gen_paths(cfg, cfg.profile, rng), cfg, layout)
shape = (cfg.M // cfg.d_f, cfg.N // cfg.d_t)
obs = PilotObservations(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg.d_t, cfg.d_f)

seen = []
real_solve = blas.ScipyCholesky.solve

def spy(*args):
    seen.append(blas_thread_counts())
    return real_solve(*args)

# the pair's class, since the first solve builds the pair itself
blas.ScipyCholesky.solve = spy
before = blas_thread_counts()
unloaded = "scipy.linalg" not in sys.modules
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    with single_blas_thread():
        if {pooled!r}:
            # more workers than CPUs, all racing to load and pin scipy's copy
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda _: mmse_estimate(obs, corr, 0.1, cfg), range(8)))
        else:
            mmse_estimate(obs, corr, 0.1, cfg)
finally:
    sys.setswitchinterval(interval)
print(json.dumps({{"unloaded": unloaded, "before": before, "seen": seen,
                   "after": blas_thread_counts(), "depth": blas._depth}}))
"""


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool-workers"])
def test_first_solve_inside_an_open_pin_pins_scipys_openblas(pooled):
    """On the fallback route, scipy's OpenBLAS is mapped by the first solve,
    after the pin was taken: it is pinned for the solve and restored with
    the others."""
    probe = FORCED_FALLBACK + FIRST_SOLVE_UNDER_AN_OPEN_PIN.format(pooled=pooled)
    got = run_python(probe, {"OPENBLAS_NUM_THREADS": "2"})
    assert got["unloaded"] and got["depth"] == 0
    assert got["before"] == [2]  # numpy's copy only
    assert got["after"] == [2, 2]  # and scipy's, both back where they started
    assert len(got["seen"]) == (8 if pooled else 1)
    assert all(counts == [1, 1] for counts in got["seen"])


def test_blas_tests_pass_on_their_own():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join(ROOT, "tests", "test_blas.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=300,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
