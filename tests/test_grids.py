"""Grid containers and the symplectic transform pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddce.errors import ContractViolationError
from ddce.grids import DDGrid, PeriodCSF, TFGrid, isfft, sfft


def sfft_direct(tf):
    """Quadruple-loop transcription of the defining double sum.

    Deliberately shares no code with the fft-based implementation so the two
    can disagree.
    """
    big_m, big_n = tf.shape
    out = np.zeros((big_n, big_m), dtype=complex)
    for k in range(big_n):
        for l in range(big_m):
            acc = 0.0 + 0.0j
            for m in range(big_m):
                for n in range(big_n):
                    acc += tf[m, n] * np.exp(2j * np.pi * (m * l / big_m - n * k / big_n))
            out[k, l] = acc / np.sqrt(big_m * big_n)
    return out


def test_sfft_matches_direct_sum():
    rng = np.random.default_rng(101)
    tf = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    got = sfft(TFGrid(tf)).data
    assert np.max(np.abs(got - sfft_direct(tf))) < 1e-12


def test_constant_grid_concentrates_at_origin():
    # a flat response is a single path at delay 0, Doppler 0
    h1 = 0.7 - 0.3j
    dd = sfft(TFGrid(np.full((16, 8), h1)))
    assert abs(dd.data[0, 0] - np.sqrt(16 * 8) * h1) < 1e-12
    rest = dd.data.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_modulation_shifts_doppler_rows():
    rng = np.random.default_rng(33)
    big_m, big_n, k0 = 8, 8, 3
    tf = rng.standard_normal((big_m, big_n)) + 1j * rng.standard_normal((big_m, big_n))
    n = np.arange(big_n)
    mod = tf * np.exp(2j * np.pi * n * k0 / big_n)[None, :]
    shifted = sfft(TFGrid(mod)).data
    base = sfft(TFGrid(tf)).data
    assert np.allclose(shifted, np.roll(base, k0, axis=0), atol=1e-12)


def test_phase_ramp_shifts_delay_columns():
    rng = np.random.default_rng(34)
    big_m, big_n, l0 = 10, 4, 4
    tf = rng.standard_normal((big_m, big_n)) + 1j * rng.standard_normal((big_m, big_n))
    m = np.arange(big_m)
    mod = tf * np.exp(-2j * np.pi * m * l0 / big_m)[:, None]
    shifted = sfft(TFGrid(mod)).data
    base = sfft(TFGrid(tf)).data
    assert np.allclose(shifted, np.roll(base, l0, axis=1), atol=1e-12)


@pytest.mark.parametrize("shape", [(16, 8), (12, 10), (5, 4), (2, 2)])
def test_roundtrip_and_parseval(shape):
    rng = np.random.default_rng(sum(shape))
    tf = TFGrid(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    dd = sfft(tf)
    assert dd.data.shape == (shape[1], shape[0])
    assert abs(np.linalg.norm(dd.data) - np.linalg.norm(tf.data)) < 1e-12
    back = isfft(dd)
    assert np.max(np.abs(back.data - tf.data)) < 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(
    big_m=st.integers(1, 48),
    half_n=st.integers(1, 24),
    scale=st.sampled_from((1e-150, 1e-6, 1.0, 1e6, 1e150)),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_and_parseval_on_random_shapes(big_m, half_n, scale, seed):
    """sfft and isfft invert each other in both directions and keep the
    energy, on any M x N with even N (the Doppler axis splits around 0)."""
    shape = (big_m, 2 * half_n)
    rng = np.random.default_rng(seed)
    data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tol = 1e-12 * np.abs(data).max()
    tf = TFGrid(data)
    dd = sfft(tf)
    assert dd.data.shape == shape[::-1]
    assert abs(np.linalg.norm(dd.data) - np.linalg.norm(data)) <= tol * np.sqrt(data.size)
    assert np.abs(isfft(dd).data - data).max() <= tol
    assert np.abs(sfft(isfft(DDGrid(data.T))).data - data.T).max() <= tol


def test_config_shape_guard():
    from types import SimpleNamespace

    cfg = SimpleNamespace(M=8, N=6)
    tf = TFGrid(np.ones((8, 8)))
    with pytest.raises(ContractViolationError):
        sfft(tf, cfg)
    dd = DDGrid(np.ones((8, 8)))
    with pytest.raises(ContractViolationError):
        isfft(dd, cfg)
    # matching shapes pass through
    ok = SimpleNamespace(M=8, N=8)
    assert sfft(tf, ok).data.shape == (8, 8)


@pytest.mark.parametrize("bad", [np.ones(4), np.ones((0, 4)), np.ones((2, 2)) * np.nan,
                                 np.array([[np.inf, 0.0], [0.0, 0.0]])])
def test_grid_rejects_malformed_data(bad):
    with pytest.raises(ContractViolationError):
        TFGrid(bad)


def test_ddgrid_needs_even_doppler_height():
    with pytest.raises(ContractViolationError):
        DDGrid(np.ones((3, 4)))
    with pytest.raises(ContractViolationError):
        PeriodCSF(np.ones((3, 4)), d_t=1, d_f=1)
    with pytest.raises(ContractViolationError):
        PeriodCSF(np.ones((4, 4)), d_t=0, d_f=1)


def test_grids_are_frozen_copies():
    src = np.ones((4, 4), dtype=complex)
    tf = TFGrid(src)
    src[0, 0] = 99.0
    assert tf.data[0, 0] == 1.0
    with pytest.raises(ValueError):
        tf.data[0, 0] = 5.0


def test_centered_view_and_lookup():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    dd = DDGrid(data)
    assert dd.at_centered(-1, 0) == data[7, 0]
    assert dd.at_centered(9, 6) == data[1, 2]


def test_period_wraps_both_axes():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    p = PeriodCSF(data, d_t=2, d_f=2)
    assert p.k_min == -2
    assert np.array_equal(p.doppler_axis, np.array([-2, -1, 0, 1]))
    assert p.full_n == 8 and p.full_m == 6
    assert p.value(-2, 0) == data[0, 0]
    assert p.value(2, 3) == data[0, 0]  # one period over in both axes
    assert p.value(1, -1) == data[3, 2]
    assert p.value(np.int64(1), np.int32(-1)) == data[3, 2]  # numpy ints are ints


# ------------------------------------------------------ boundary constructors

GRID_CTORS = {
    "TFGrid": TFGrid,
    "DDGrid": DDGrid,
    "PeriodCSF": lambda data: PeriodCSF(data, d_t=2, d_f=2),
}


def _with(value):
    arr = np.ones((2, 2), dtype=complex)
    arr[1, 0] = value
    return arr


@pytest.mark.parametrize("name", sorted(GRID_CTORS))
@pytest.mark.parametrize(
    "bad",
    [_with(np.nan), _with(np.inf), _with(-np.inf), _with(complex(0.0, np.inf)),
     np.ones(4), np.ones((2, 2, 2)), np.ones((0, 4)), np.ones((2, 0))],
    ids=["nan", "inf", "-inf", "inf-imag", "1-D", "3-D", "no-rows", "no-cols"],
)
def test_public_grid_constructors_reject_bad_arrays(name, bad):
    with pytest.raises(ContractViolationError, match=name):
        GRID_CTORS[name](bad)


def test_period_rejects_each_spacing_below_one():
    for d_t, d_f, key in ((0, 1, "d_t"), (1, 0, "d_f"), (-2, 2, "d_t")):
        with pytest.raises(ContractViolationError, match=f"^{key} must be >= 1, got -?[0-9]+$"):
            PeriodCSF(np.ones((4, 4)), d_t=d_t, d_f=d_f)


@pytest.mark.parametrize("name", sorted(GRID_CTORS))
def test_public_grid_constructors_copy_the_callers_array(name):
    src = np.arange(8, dtype=complex).reshape(4, 2)
    grid = GRID_CTORS[name](src)
    src[:] = -1.0
    assert np.array_equal(grid.data, np.arange(8).reshape(4, 2))
    assert not grid.data.flags.writeable


def test_transforms_hand_back_c_ordered_read_only_grids():
    """sfft/isfft transpose their last FFT; the grids they return are still
    C-ordered, as a checked copy would be, and cannot be written."""
    rng = np.random.default_rng(3)
    tf = TFGrid(rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6)))
    for grid in (sfft(tf), isfft(sfft(tf))):
        assert grid.data.flags.c_contiguous and not grid.data.flags.writeable
