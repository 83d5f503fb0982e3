"""The genie MMSE's Cholesky pair, `estimators.cho_factor`/`cho_solve`, against
`scipy.linalg`'s, bit for bit: LAPACK `zpotrf`/`zpotrs` bound from numpy's
OpenBLAS, and the scipy route it falls back to where no mapped copy exports
them."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from numpy.linalg import LinAlgError

from ddce import blas, estimators
from ddce.blas import LapackCholesky, lapack_cholesky, single_blas_thread
from helpers import run_python

ROUTES = ["lapack", "fallback"]


@pytest.fixture(params=ROUTES)
def route(request, monkeypatch):
    """The route under test: numpy's OpenBLAS, or the lookup forced to find
    nothing."""
    if request.param == "lapack":
        if lapack_cholesky() is None:
            pytest.skip("no mapped OpenBLAS exports zpotrf/zpotrs")
    else:
        lapack_cholesky()  # scan first, so that the forced None stays
        monkeypatch.setattr(blas, "_cholesky", None)
    return request.param


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
        for lower in (True, False):
            want_c, _ = scipy.linalg.cho_factor(a, lower=lower)
            got_c, got_lower = estimators.cho_factor(a, lower=lower)
            assert got_lower == lower and got_c is not a  # copied without overwrite_a
            assert np.array_equal(got_c, want_c)  # the factor, and the other triangle kept
            want_x = scipy.linalg.cho_solve((want_c, lower), b)
            assert np.array_equal(estimators.cho_solve((got_c, lower), b), want_x)
            assert np.array_equal(b, kept)  # the right-hand side is copied
        want_c, _ = scipy.linalg.cho_factor(a, lower=True)
        in_place = a.copy(order="F")
        assert estimators.cho_factor(in_place, lower=True, overwrite_a=True)[0] is in_place
        assert np.array_equal(in_place, want_c)


def test_indefinite_matrix_raises_linalg_error(route):
    a = _hpd(6, 2)
    a[3, 3] = -50.0
    with pytest.raises(LinAlgError):
        estimators.cho_factor(a, lower=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_raises_value_error(bad, route):
    a = _hpd(5, 3)
    c, _ = estimators.cho_factor(a, lower=True)
    spoilt = a.copy(order="F")
    spoilt[2, 1] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        estimators.cho_factor(spoilt, lower=True)
    b = _rhs(5, 3)
    b[4] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        estimators.cho_solve((c, True), b)
    # check_finite=False skips the scan on the caller's word
    assert estimators.cho_solve((c, True), b, check_finite=False).shape == (5,)


def _refusing_pair():
    def refuse(*args):
        raise AssertionError("a pointer reached LAPACK")

    return LapackCholesky(refuse, refuse, int)


@pytest.mark.parametrize("case", ["c-ordered", "complex64", "float64", "not-square", "list"])
def test_wrong_layout_or_dtype_raises_before_any_pointer_is_passed(case, monkeypatch):
    lapack_cholesky()
    monkeypatch.setattr(blas, "_cholesky", _refusing_pair())
    a = _hpd(4, 4)
    bad = {
        "c-ordered": np.ascontiguousarray(a),
        "complex64": a.astype(np.complex64),
        "float64": np.asfortranarray(a.real),
        "not-square": np.asfortranarray(a[:, :3]),
        "list": a.tolist(),
    }[case]
    with pytest.raises(ValueError, match="F-contiguous square complex128"):
        estimators.cho_factor(bad, lower=True)
    with pytest.raises(ValueError, match="F-contiguous square complex128"):
        estimators.cho_solve((bad, True), _rhs(4, 4))


@pytest.mark.parametrize("case", ["complex64", "float64", "rows", "2-d", "list"])
def test_wrong_right_hand_side_raises_before_any_pointer_is_passed(case, monkeypatch):
    c, _ = scipy.linalg.cho_factor(_hpd(4, 5), lower=True)
    lapack_cholesky()
    monkeypatch.setattr(blas, "_cholesky", _refusing_pair())
    b = _rhs(4, 5)
    bad = {
        "complex64": b.astype(np.complex64),
        "float64": b.real,
        "rows": _rhs(3, 5),
        "2-d": _rhs(4, 5, 1),
        "list": b.tolist(),
    }[case]
    with pytest.raises(ValueError, match="complex128 right-hand side of shape"):
        estimators.cho_solve((c, True), bad)


def test_a_copy_the_pin_cannot_cover_is_not_used():
    """A Cholesky in an OpenBLAS without a thread setter would round by
    `OPENBLAS_NUM_THREADS`; with no setter found, the solve takes the
    scipy route."""
    got = run_python(
        """
        import json, sys
        from ddce import blas
        blas._SYMBOLS = ()
        print(json.dumps([blas.lapack_cholesky() is None, "scipy.linalg" in sys.modules]))
        """
    )
    assert got == [True, False]


def test_solves_from_more_threads_than_cores_keep_the_serial_bits(route):
    """ctypes releases the interpreter lock around zpotrf/zpotrs, so the
    factorizations of several threads run in OpenBLAS at once."""
    cases = [(_hpd(n, n), _rhs(n, n)) for n in (64, 96, 128, 160) * 2]

    def solve(case):
        a, b = case
        return estimators.cho_solve(estimators.cho_factor(a, lower=True), b)

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
