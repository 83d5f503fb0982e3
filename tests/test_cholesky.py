"""The genie MMSE's Cholesky pair, `blas.lapack_cholesky`, against
`scipy.linalg.cho_factor`/`cho_solve` on the lower triangle, bit for bit:
LAPACK `zpotrf`/`zpotrs` bound from numpy's OpenBLAS, and the
`scipy.linalg.lapack` pair chosen where no mapped copy exports them."""

import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from numpy.linalg import LinAlgError

from ddce import blas, harness
from ddce.blas import LapackCholesky, ScipyCholesky, lapack_cholesky, single_blas_thread
from ddce.config import load_config
from ddce.estimators import CorrelationPair, PilotObservations, genie_correlations, mmse_estimate
from helpers import PAPER_CFG, run_python, tiny_cfg

ROUTES = ["lapack", "fallback"]


@pytest.fixture(params=ROUTES)
def route(request, monkeypatch):
    """The pair under test: numpy's OpenBLAS, or the one chosen when the
    lookup found nothing."""
    chol = lapack_cholesky()
    if request.param == "lapack":
        if not isinstance(chol, LapackCholesky):
            pytest.skip("no mapped OpenBLAS exports zpotrf/zpotrs")
        return chol
    monkeypatch.setattr(blas, "_cholesky", None)  # after the scan, so that it stays None
    chol = lapack_cholesky()
    assert isinstance(chol, ScipyCholesky)
    return chol


def _hpd(n, seed):
    """A random F-ordered Hermitian positive-definite complex128 matrix."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.asfortranarray(b @ b.conj().T / n + 0.1 * np.eye(n))


def _rhs(n, seed, *cols):
    rng = np.random.default_rng(seed + 1)
    return rng.standard_normal((n, *cols)) + 1j * rng.standard_normal((n, *cols))


@pytest.mark.parametrize("n", [1, 7, 64, 512])
def test_factor_and_solution_equal_scipys_bit_for_bit(n, route):
    a, b = _hpd(n, n), _rhs(n, n)
    kept = b.copy()
    with single_blas_thread():
        want_c, _ = scipy.linalg.cho_factor(a, lower=True)
        want_x = scipy.linalg.cho_solve((want_c, True), b)
        c = a.copy(order="F")
        assert route.factor(c) == 0
        assert np.array_equal(c, want_c)  # in place, and the upper triangle kept
        assert np.array_equal(route.solve(c, b), want_x)
        assert np.array_equal(b, kept)  # the right-hand side is copied


def _mmse_on_system(system, monkeypatch):
    """A noisy `mmse_estimate` whose system is a copy of the given 16 x 16
    matrix, on the route's pair."""
    cfg = tiny_cfg(8, 8, 2, 2)
    ones = np.ones((8, 1), complex)
    corr = CorrelationPair(ones, ones.T, np.ones((16, 1), complex), np.ones(1))
    monkeypatch.setattr(corr, "_system", lambda noise_var: system.copy(order="F"))
    return mmse_estimate(PilotObservations(np.ones((4, 4)), d_t=2, d_f=2), corr, 0.1, cfg)


def test_indefinite_matrix_raises_linalg_error(route, monkeypatch):
    """The pair reports the failing leading minor; the solve retries once
    with jitter and then raises."""
    a = _hpd(16, 2)
    a[3, 3] = -50.0
    assert route.factor(a.copy(order="F")) == 4
    with pytest.raises(LinAlgError, match="4-th leading minor is not positive definite"):
        _mmse_on_system(a, monkeypatch)


def test_jitter_fallback_runs_on_the_pair_itself(route, monkeypatch):
    """At 150 dB the shipped grid's genie system, 512 pilots on a few paths
    plus 1e-15*I, is singular to working precision: the pair's first factor
    fails, the jittered system factors, and the estimate is finite."""
    infos = []

    def factor(a):
        infos.append(route.factor(a))
        return infos[-1]

    monkeypatch.setattr(blas, "_cholesky", SimpleNamespace(factor=factor, solve=route.solve))
    cfg = load_config(PAPER_CFG)
    trial = harness._Trial(cfg, 150.0, 7)  # `ddce simulate --snr 150 --seed 7`'s trial
    est = mmse_estimate(trial.obs, genie_correlations(trial.ps, cfg, trial.layout), trial.noise_var, cfg)
    assert len(infos) == 2 and infos[0] > 0 and infos[1] == 0, infos
    assert np.isfinite(est.grid.data).all()
    assert np.abs(est.grid.data - trial.h_true.data).max() < 1e-6


def _refusing_pair():
    def refuse(*args):
        raise AssertionError("a pointer reached LAPACK")

    return LapackCholesky(refuse, refuse, int)


@pytest.mark.parametrize("case", ["c-ordered", "complex64", "float64", "not-square", "list"])
def test_wrong_layout_or_dtype_raises_before_any_pointer_is_passed(case):
    a = _hpd(4, 4)
    bad = {
        "c-ordered": np.ascontiguousarray(a),
        "complex64": a.astype(np.complex64),
        "float64": np.asfortranarray(a.real),
        "not-square": np.asfortranarray(a[:, :3]),
        "list": a.tolist(),
    }[case]
    # the scipy pair checks too: f2py would factor a copy, not bad itself
    for pair in (_refusing_pair(), ScipyCholesky(scipy.linalg.lapack)):
        with pytest.raises(ValueError, match="F-contiguous square complex128"):
            pair.factor(bad)
    with pytest.raises(ValueError, match="F-contiguous square complex128"):
        _refusing_pair().solve(bad, _rhs(4, 4))


@pytest.mark.parametrize("case", ["complex64", "float64", "rows", "2-d", "list"])
def test_wrong_right_hand_side_raises_before_any_pointer_is_passed(case):
    c, _ = scipy.linalg.cho_factor(_hpd(4, 5), lower=True)
    b = _rhs(4, 5)
    bad = {
        "complex64": b.astype(np.complex64),
        "float64": b.real,
        "rows": _rhs(3, 5),
        "2-d": _rhs(4, 5, 1),
        "list": b.tolist(),
    }[case]
    with pytest.raises(ValueError, match="complex128 right-hand side of shape"):
        _refusing_pair().solve(c, bad)


def test_a_copy_the_pin_cannot_cover_is_not_used():
    """A Cholesky in an OpenBLAS without a thread setter would round by
    `OPENBLAS_NUM_THREADS`; with no setter found, the scipy pair is chosen."""
    got = run_python(
        """
        import json, sys
        from ddce import blas
        blas._SYMBOLS = ()
        chol = blas.lapack_cholesky()
        print(json.dumps([type(chol).__name__, "scipy.linalg" in sys.modules]))
        """
    )
    assert got == ["ScipyCholesky", True]


def test_solves_from_more_threads_than_cores_keep_the_serial_bits(route):
    """ctypes releases the interpreter lock around zpotrf/zpotrs, so the
    factorizations of several threads run in OpenBLAS at once."""
    cases = [(_hpd(n, n), _rhs(n, n)) for n in (64, 96, 128, 160) * 2]

    def solve(case):
        a, b = case
        c = a.copy(order="F")
        assert route.factor(c) == 0
        return route.solve(c, b)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with single_blas_thread():
            serial = [solve(case) for case in cases]
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(solve, case) for case in cases * 4]
                pooled = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(x, y) for x, y in zip(serial * 4, pooled))
