"""Closed-form lattice kernels against brute-force geometric sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddce.grids import TFGrid, sfft
from ddce.kernels import (
    csf_closed_form,
    delay_kernel,
    doppler_alias_difference,
    doppler_kernel,
)
from helpers import lattices


def doppler_sum(k_i, k, big_n, d_t):
    idx = np.arange(big_n // d_t)
    terms = np.exp(2j * np.pi * idx * d_t * (k_i - k) / big_n)
    return terms.sum() / np.sqrt(big_n / d_t**2)


def delay_sum(l_i, l, big_m, d_f):
    idx = np.arange(big_m // d_f)
    terms = np.exp(-2j * np.pi * idx * d_f * (l_i - l) / big_m)
    return terms.sum() / np.sqrt(big_m / d_f**2)


@pytest.mark.parametrize("big_n,d_t", [(32, 4), (64, 1), (16, 2), (24, 3)])
def test_doppler_kernel_equals_geometric_sum(big_n, d_t):
    rng = np.random.default_rng(11)
    for _ in range(20):
        k_i = rng.uniform(-big_n / 2, big_n / 2)
        k = rng.integers(-big_n, big_n)
        got = doppler_kernel(k_i, int(k), big_n, d_t)
        assert abs(got - doppler_sum(k_i, k, big_n, d_t)) < 1e-12


@pytest.mark.parametrize("big_m,d_f", [(32, 4), (128, 1), (12, 2)])
def test_delay_kernel_equals_geometric_sum(big_m, d_f):
    rng = np.random.default_rng(12)
    for _ in range(20):
        l_i = rng.uniform(0, big_m)
        l = rng.integers(0, big_m)
        got = delay_kernel(l_i, int(l), big_m, d_f)
        assert abs(got - delay_sum(l_i, l, big_m, d_f)) < 1e-12


def test_delay_kernel_peak_and_nulls():
    big_m, d_f = 16, 2
    l_axis = np.arange(big_m // d_f)
    vals = delay_kernel(3.0, l_axis, big_m, d_f)
    want = np.where(l_axis == 3, np.sqrt(big_m), 0.0)
    assert np.max(np.abs(vals - want)) < 1e-12


def test_kernels_are_periodic_in_the_lattice_period():
    big_n, d_t = 32, 4
    k_i = 1.37
    ks = np.arange(-8, 8)
    a = doppler_kernel(k_i, ks, big_n, d_t)
    b = doppler_kernel(k_i, ks + big_n // d_t, big_n, d_t)
    c = doppler_kernel(k_i + big_n // d_t, ks, big_n, d_t)
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a - c)) < 1e-12
    big_m, d_f = 12, 2
    ls = np.arange(12)
    a = delay_kernel(2.71, ls, big_m, d_f)
    b = delay_kernel(2.71, ls + big_m // d_f, big_m, d_f)
    assert np.max(np.abs(a - b)) < 1e-12


def test_kernel_return_types():
    v = doppler_kernel(0.3, 1, 16, 2)
    assert isinstance(v, complex)
    arr = doppler_kernel(0.3, np.arange(4), 16, 2)
    assert arr.shape == (4,)
    assert arr.dtype == np.complex128


def test_alias_difference_matches_brute_force():
    big_n, d_t = 32, 4
    half = big_n // (2 * d_t)
    ks = np.arange(-big_n // 2, big_n // 2)
    for k_i in (0.0, 1.3, -2.49, 3.97):
        got = doppler_alias_difference(k_i, ks, big_n, d_t)
        full = np.array([doppler_sum(k_i, k, big_n, 1) for k in ks])
        period = np.array([doppler_sum(k_i, k, big_n, d_t) for k in ks])
        inside = (ks >= -half) & (ks < half)
        want = np.where(inside, full - period, full)
        assert np.max(np.abs(got - want)) < 1e-12


def test_closed_form_image_matches_transform_of_hand_built_ctf():
    rng = np.random.default_rng(40)
    big_m, big_n, n_paths = 12, 8, 3
    gains = rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)
    delays = rng.uniform(0, big_m / 2, n_paths)
    dopplers = rng.uniform(-big_n / 4, big_n / 4, n_paths)
    m = np.arange(big_m)[:, None]
    n = np.arange(big_n)[None, :]
    tf = np.zeros((big_m, big_n), dtype=complex)
    for g, l_i, k_i in zip(gains, delays, dopplers):
        tf += g * np.exp(2j * np.pi * (k_i * n / big_n - l_i * m / big_m))
    want = sfft(TFGrid(tf)).data
    got = csf_closed_form(gains, delays, dopplers, big_m, big_n)
    assert got.shape == (big_n, big_m)
    assert np.max(np.abs(got - want)) < 1e-10


def closed_form_per_path(gains, delays, dopplers, big_m, big_n):
    """csf_closed_form as one doppler_kernel / delay_kernel call per path."""
    acc = np.zeros((big_n, big_m), dtype=np.complex128)
    for g, l_i, k_i in zip(gains, delays, dopplers):
        col = doppler_kernel(k_i, np.arange(big_n), big_n, 1)
        row = delay_kernel(l_i, np.arange(big_m), big_m, 1)
        acc += g * np.outer(col, row)
    return acc


@settings(max_examples=60, deadline=None, database=None)
@given(lattices(), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_closed_form_equals_per_path_kernels_bitwise(lattice, n_paths, seed):
    big_m, big_n, _, _ = lattice
    rng = np.random.default_rng(seed)
    gains = rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)
    delays = rng.integers(0, big_m, n_paths)
    dopplers = rng.uniform(-big_n / 2, big_n / 2, n_paths)  # fractional
    dopplers[: n_paths // 2] = np.rint(dopplers[: n_paths // 2])  # and on-grid
    got = csf_closed_form(gains, delays, dopplers, big_m, big_n)
    want = closed_form_per_path(gains, delays, dopplers, big_m, big_n)
    assert got.shape == (big_n, big_m)
    assert got.tobytes() == want.tobytes()
