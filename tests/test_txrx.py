"""Frame assembly, 4-QAM mapping, and the single-tap equalizer."""

import numpy as np
import pytest

from ddce.errors import ContractViolationError
from ddce.grids import MAX_GRID_RES, TFGrid
from ddce.txrx import (
    NEAR_SINGULAR_TOL,
    PILOT_VALUE,
    FrameLayout,
    PilotPattern,
    build_frame,
    equalize_single_tap,
    extract_data,
    make_layout,
    qam4_demod,
    qam4_mod,
)
from helpers import tiny_cfg

S = 1.0 / np.sqrt(2.0)


def test_constellation_table():
    bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
    want = np.array([S + 1j * S, S - 1j * S, -S + 1j * S, -S - 1j * S])
    np.testing.assert_allclose(qam4_mod(bits), want, atol=1e-15)


def test_gray_labelling():
    # neighbouring constellation points differ in exactly one bit
    syms = qam4_mod(np.array([0, 0, 0, 1, 1, 1, 1, 0]))
    for a, b in zip(syms[:-1], syms[1:]):
        assert round(abs(a - b) - 2 * S, 12) == 0


def test_unit_average_energy():
    rng = np.random.default_rng(9)
    syms = qam4_mod(rng.integers(0, 2, 2000))
    np.testing.assert_allclose(np.abs(syms), 1.0, atol=1e-12)
    assert round(abs(PILOT_VALUE) - 1.0, 15) == 0


def test_roundtrip():
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2, 1000)
    np.testing.assert_array_equal(qam4_demod(qam4_mod(bits)), bits)


def test_demod_ties_resolve_to_zero():
    np.testing.assert_array_equal(qam4_demod(np.array([0.0 + 0.0j])), [0, 0])
    np.testing.assert_array_equal(qam4_demod(np.array([-0.1 + 0.0j])), [1, 0])
    np.testing.assert_array_equal(qam4_demod(np.array([0.0 - 0.3j])), [0, 1])


def test_lattice_positions_are_frozen():
    lay = make_layout(PilotPattern(d_t=2, d_f=4), tiny_cfg(8, 4, 2, 4))
    assert lay.pilot_m.tolist() == [0, 4, 0, 4]
    assert lay.pilot_n.tolist() == [0, 0, 2, 2]
    # symbol-major, subcarrier fastest
    data_m, data_n = np.divmod(lay.data_flat, 4)
    assert data_m[:6].tolist() == [1, 2, 3, 5, 6, 7]
    assert data_n[:6].tolist() == [0] * 6
    assert (lay.n_pilot, lay.n_data, lay.shape) == (4, 28, (8, 4))


def test_positions_cover_grid_without_overlap():
    cfg = tiny_cfg(12, 6, 3, 2)
    lay = make_layout(PilotPattern(d_t=3, d_f=2), cfg)
    seen = set(zip(lay.pilot_m.tolist(), lay.pilot_n.tolist()))
    data_m, data_n = np.divmod(lay.data_flat, 6)
    seen.update(zip(data_m.tolist(), data_n.tolist()))
    assert len(seen) == 12 * 6
    assert lay.n_pilot + lay.n_data == 72


# pilots on every second subcarrier of every second symbol of a 4x4 grid
_LAYOUT = dict(shape=(4, 4), d_t=2, d_f=2)


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param(key, value, message, id=f"{key}={value!r}")
        for key, value, message in [
            ("shape", [4, 4.0], "^shape must be an integer, got 4.0$"),
            ("shape", (4, 4, 1), r"^shape must be \(M, N\), got 3 sides$"),
            ("shape", 4, "^shape must be a list, not int$"),
            ("shape", (0, 4), "^shape must be >= 1, got 0$"),
            # past the grid bound, refused before the spacings are checked and any (N, M) array is built
            ("shape", (1024, 1025), f"^shape must hold at most {MAX_GRID_RES} resource elements$"),
            ("shape", (2, 2**62), f"^shape must hold at most {MAX_GRID_RES} resource elements$"),
            ("shape", (2**62, 2), f"^shape must hold at most {MAX_GRID_RES} resource elements$"),
            ("shape", (MAX_GRID_RES + 1, 1), f"^shape must hold at most {MAX_GRID_RES} resource elements$"),
            ("d_t", 2.0, "^d_t must be an integer, got 2.0$"),
            ("d_t", 0, "^d_t must be a divisor of 4, got 0$"),
            ("d_f", 3, "^d_f must be a divisor of 4, got 3$"),
            ("d_f", "2", "^d_f must be an integer, got '2'$"),
            # the positions are derived from the lattice, so no index array
            # is taken, and none can disagree with another
            ("pilot_flat", [10**6], "unexpected keyword argument 'pilot_flat'$"),
            ("pilot_m", [4], "unexpected keyword argument 'pilot_m'$"),
            ("data_n", [-1], "unexpected keyword argument 'data_n'$"),
            ("data_m", [0.5], "unexpected keyword argument 'data_m'$"),
            ("data_flat", [True], "unexpected keyword argument 'data_flat'$"),
            ("pilot_n", [[0]], "unexpected keyword argument 'pilot_n'$"),
            ("data_flat", [[0], [1, 2]], "unexpected keyword argument 'data_flat'$"),
            ("pilot_n", [0, 1], "unexpected keyword argument 'pilot_n'$"),
            ("data_flat", [], "unexpected keyword argument 'data_flat'$"),
        ]
    ],
)
def test_a_hand_built_layout_is_checked_against_its_shape(key, value, message):
    """Each side and spacing an int >= 1, each spacing a divisor of its side
    and M*N at most MAX_GRID_RES: anything else is one error naming the
    field.  An index array is not an argument at all."""
    error = ContractViolationError if key in _LAYOUT else TypeError
    with pytest.raises(error, match=message):
        FrameLayout(**{**_LAYOUT, key: value})


@pytest.mark.parametrize("shape, d_t, d_f", [((1024, 1024), 2, 2), ((2, MAX_GRID_RES // 2), 2, 2), ((1, MAX_GRID_RES), 1, 1)])
def test_a_hand_built_layout_at_the_grid_bound_is_built(shape, d_t, d_f):
    """The bound is inclusive: a layout of exactly MAX_GRID_RES resource elements places each one."""
    lay = FrameLayout(shape, d_t, d_f)
    assert (lay.n_pilot, lay.n_pilot + lay.n_data) == (MAX_GRID_RES // (d_t * d_f), MAX_GRID_RES)


def test_a_hand_built_layout_stores_int_sides_and_read_only_copies():
    """Sides and spacings are stored as ints; the derived position arrays
    are read-only intp arrays."""
    lay = FrameLayout([np.int64(4), 4], np.int64(2), 2)
    assert lay.shape == (4, 4) and all(type(v) is int for v in (*lay.shape, lay.d_t, lay.d_f))
    arrays = (lay.pilot_m, lay.pilot_n, lay.pilot_flat, lay.data_flat)
    assert all(a.dtype == np.intp and not a.flags.writeable for a in arrays)
    assert lay.pilot_flat.tolist() == [0, 8, 2, 10] and (lay.n_pilot, lay.n_data) == (4, 12)


def test_a_layout_cannot_place_one_pilot_at_two_positions():
    """The six-array layout that put a pilot at (0, 0) by its (m, n) pair and
    at (1, 1) by its flat index cannot be built."""
    with pytest.raises(TypeError):
        FrameLayout([0], [0], [1], [0], [5], [4], (4, 4))


# the frame of the tests below: 28 data symbols on an 8x4 grid
_CFG = tiny_cfg(8, 4, 2, 4)
_PATTERN = PilotPattern(d_t=2, d_f=4)


def test_build_and_extract_are_inverse():
    syms = qam4_mod(np.random.default_rng(31).integers(0, 2, 56))
    tf, lay = build_frame(syms, _PATTERN, _CFG)
    np.testing.assert_allclose(tf.data[lay.pilot_m, lay.pilot_n], PILOT_VALUE, atol=1e-15)
    np.testing.assert_allclose(extract_data(tf, lay), syms, atol=1e-15)


def test_equalizer_recovers_symbols():
    rng = np.random.default_rng(31)
    syms = qam4_mod(rng.integers(0, 2, 56))
    x, lay = build_frame(syms, _PATTERN, _CFG)
    h = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    x_hat, n_sing = equalize_single_tap(TFGrid(h * x.data), TFGrid(h), lay)
    assert n_sing == 0
    np.testing.assert_allclose(x_hat, syms, atol=1e-12)


def test_equalizer_flags_vanishing_gains():
    syms = np.ones(28, dtype=complex)
    x, lay = build_frame(syms, _PATTERN, _CFG)
    h = np.ones((8, 4), dtype=complex)
    h.ravel()[lay.data_flat[0]] = NEAR_SINGULAR_TOL / 10.0
    x_hat, n_sing = equalize_single_tap(x, TFGrid(h), lay)
    assert n_sing == 1 and x_hat[0] == 0.0
    np.testing.assert_allclose(x_hat[1:], syms[1:], atol=1e-12)
