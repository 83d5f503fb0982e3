"""The one-thread BLAS pin around the sweep and the genie MMSE solve."""

import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from ddce import blas, harness
from ddce.blas import blas_thread_counts, single_blas_thread
from ddce.config import default_config, with_overrides
from ddce.estimators import mmse_estimate
from helpers import random_mmse_case


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at 2 threads, so that a restore to anything else shows;
    the previous counts come back afterwards.  scipy's copy is mapped and
    found first, so that it is covered too."""
    import scipy.linalg  # noqa: F401

    blas.rescan()
    before = blas_thread_counts()
    for set_fn, _ in blas._openblas():
        set_fn(2)
    yield blas_thread_counts()
    for (set_fn, _), n in zip(blas._openblas(), before):
        set_fn(n)


def test_concurrent_mmse_equals_serial_bit_for_bit(two_blas_threads):
    cfg = default_config()
    cases = [(*random_mmse_case(cfg, seed), 10.0 ** -seed) for seed in range(4)]
    serial = [mmse_estimate(*case, cfg).grid.data for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(mmse_estimate, *case, cfg) for case in cases]
            pooled = [f.result(timeout=60).grid.data for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, pooled):
        assert np.array_equal(a, b)
    assert blas_thread_counts() == two_blas_threads


def test_pin_holds_inside_and_restores_after(two_blas_threads, monkeypatch):
    seen = []
    chol = blas.lapack_cholesky()

    def spy(c, b):
        seen.append(blas_thread_counts())
        return chol.solve(c, b)

    monkeypatch.setattr(blas, "_cholesky", SimpleNamespace(factor=chol.factor, solve=spy))
    cfg = default_config()
    (obs, corr), noise_var = random_mmse_case(cfg, 0), 1.0
    mmse_estimate(obs, corr, noise_var, cfg)
    assert blas_thread_counts() == two_blas_threads

    small = with_overrides(cfg, estimators=("mmse-genie",), snr_db=(10.0,), n_trials=2)
    harness.snr_sweep(small, small.profile, small.snr_db, small.estimators, 2, 1)
    assert blas_thread_counts() == two_blas_threads
    assert len(seen) == 3 and all(set(c) <= {1} for c in seen)

    # a raise inside the pinned region still restores the counts
    def boom(*args, **kw):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(blas, "_cholesky", SimpleNamespace(factor=chol.factor, solve=boom))
    with pytest.raises(RuntimeError, match="injected failure"):
        mmse_estimate(obs, corr, noise_var, cfg)
    assert blas_thread_counts() == two_blas_threads

    monkeypatch.setattr(harness, "_paired_trial", boom)
    with pytest.raises(RuntimeError, match="injected failure"):
        harness.snr_sweep(small, small.profile, small.snr_db, small.estimators, 2, 1)
    assert blas_thread_counts() == two_blas_threads
    assert blas._depth == 0


def test_pin_is_a_noop_without_openblas(tmp_path, monkeypatch):
    maps = tmp_path / "maps"
    maps.write_text("00400000-00452000 r-xp 00000000 08:02 173521 /usr/bin/python3\n")
    real = blas_thread_counts()
    monkeypatch.setattr(blas, "_MAPS", str(maps))
    monkeypatch.setattr(blas, "_libs", None)
    try:
        assert blas_thread_counts() == ()
        with single_blas_thread():
            with single_blas_thread():
                assert blas._depth == 2
        assert blas._depth == 0
        monkeypatch.setattr(blas, "_MAPS", str(tmp_path / "missing"))
        monkeypatch.setattr(blas, "_libs", None)
        with single_blas_thread():
            blas.rescan()
            assert blas_thread_counts() == ()
    finally:
        monkeypatch.undo()
    assert blas_thread_counts() == real
