"""The lean routes of the per-trial path against the routes they replaced,
bit for bit: the qam4 table, flat-index frame assembly and pilot gathering,
the sliced period centering and embedding, the whole-array Dirichlet kernel,
the one-buffer closed-form image, the genie MMSE's steering grid formed
after its solve, the gathered-slope pilot interpolation, the array path set
and the layout derived from its lattice.  Each reference below is the
replaced code."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddce import harness, kernels
from ddce.channel import _draw_constants, gen_paths, path_steering
from ddce.config import default_config, with_overrides
from ddce.estimators import (
    ESTIMATORS,
    CorrelationPair,
    PilotObservations,
    csf_ongrid,
    interp_linear,
    ls_pilot,
    mmse_estimate,
    periodic_csf,
)
from ddce.grids import PeriodCSF, TFGrid, sfft
from ddce.kernels import csf_closed_form
from ddce.txrx import PILOT_VALUE, FrameLayout, PilotPattern, build_frame, make_layout, qam4_mod
from helpers import lattices, tiny_cfg

ROUTES = settings(max_examples=60, deadline=None, database=None)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def qam4_formula(bits):
    b = np.asarray(bits)
    b1 = b[0::2].astype(np.float64)
    b0 = b[1::2].astype(np.float64)
    return ((1.0 - 2.0 * b1) + 1j * (1.0 - 2.0 * b0)) / np.sqrt(2.0)


@ROUTES
@given(
    st.lists(st.integers(0, 1), max_size=64).filter(lambda b: len(b) % 2 == 0),
    st.sampled_from((np.int64, np.int8, np.uint8, bool, np.float64, "-0.0")),
)
def test_qam4_table_equals_the_formula(bits, dtype):
    if dtype == "-0.0":  # float bits whose zeros carry a sign
        arr = np.where(np.array(bits, dtype=bool), 1.0, -0.0)
    else:
        arr = np.array(bits, dtype=dtype)
    got = qam4_mod(arr)
    assert got.dtype == np.complex128 and got.tobytes() == qam4_formula(arr).tobytes()


def fancy_frame(syms, layout, big_m, big_n):
    grid = np.zeros((big_m, big_n), dtype=np.complex128)
    grid[layout.pilot_m, layout.pilot_n] = PILOT_VALUE
    grid[np.divmod(layout.data_flat, big_n)] = syms
    return grid


def fancy_ls_pilot(y, x, layout):
    vals = y.data[layout.pilot_m, layout.pilot_n] / x.data[layout.pilot_m, layout.pilot_n]
    n_freq = int(np.count_nonzero(layout.pilot_n == layout.pilot_n[0]))
    n_time = layout.n_pilot // n_freq
    grid = vals.reshape(n_time, n_freq).T
    return grid, y.n_symbols // n_time, y.n_subcarriers // n_freq


@ROUTES
@given(lattices(), st.integers(0, 2**32 - 1))
def test_flat_frame_and_pilot_gather_equal_the_fancy_index_routes(lattice, seed):
    big_m, big_n, d_t, d_f = lattice
    cfg = tiny_cfg(big_m, big_n, d_t, d_f)
    rng = np.random.default_rng(seed)
    pattern = PilotPattern(d_t, d_f)
    layout = make_layout(pattern, cfg)
    syms = _complex(rng, layout.n_data)
    x, _ = build_frame(syms, pattern, cfg)
    assert x.data.tobytes() == fancy_frame(syms, layout, big_m, big_n).tobytes()
    y = TFGrid(_complex(rng, (big_m, big_n)))
    obs = ls_pilot(y, x, layout)
    want, want_d_t, want_d_f = fancy_ls_pilot(y, x, layout)
    assert obs.values.tobytes() == np.ascontiguousarray(want).tobytes()
    assert (obs.d_t, obs.d_f) == (want_d_t, want_d_f) == (d_t, d_f)


def fancy_embedding(p, big_m, big_n):
    full = np.zeros((big_n, big_m), dtype=np.complex128)
    rows = p.doppler_axis % big_n
    full[rows[:, None], np.arange(p.n_delay)[None, :]] = p.data
    return full


@ROUTES
@given(lattices(), st.integers(0, 2**32 - 1))
def test_sliced_period_embedding_equals_the_fancy_index_route(lattice, seed):
    big_m, big_n, d_t, d_f = lattice
    data = _complex(np.random.default_rng(seed), (big_n // d_t, big_m // d_f))
    period = PeriodCSF(data, d_t, d_f)
    got = csf_ongrid(period, tiny_cfg(big_m, big_n, d_t, d_f)).data
    assert got.tobytes() == fancy_embedding(period, big_m, big_n).tobytes()


@ROUTES
@given(lattices(), st.integers(0, 2**32 - 1))
def test_sliced_period_centering_equals_fftshift(lattice, seed):
    big_m, big_n, d_t, d_f = lattice
    values = _complex(np.random.default_rng(seed), (big_m // d_f, big_n // d_t))
    period = periodic_csf(PilotObservations(values, d_t, d_f), tiny_cfg(big_m, big_n, d_t, d_f))
    scaled = np.sqrt(d_t * d_f) * sfft(TFGrid(values)).data
    assert period.data.tobytes() == np.fft.fftshift(scaled, axes=0).tobytes()


def masked_dirichlet(delta, total, spacing, phase_sign):
    period = total // spacing
    delta = np.asarray(delta, dtype=np.float64)
    dw = (delta + period / 2.0) % period - period / 2.0
    out = np.full(dw.shape, np.sqrt(total), dtype=np.complex128)
    regular = np.abs(dw) >= 1e-9
    d = dw[regular]
    phase = np.exp(1j * phase_sign * np.pi * d * spacing * (period - 1) / total)
    out[regular] = (
        spacing / np.sqrt(total) * phase * np.sin(np.pi * d) / np.sin(np.pi * spacing * d / total)
    )
    return out


@st.composite
def _offsets(draw, period):
    """Offsets anywhere, near whole periods (within 1e-9 and just past it)
    and at whole periods exactly."""
    whole = draw(st.integers(-3, 3)) * period
    near = st.floats(-2e-9, 2e-9, allow_subnormal=True)
    return draw(
        st.one_of(
            st.floats(-4.0 * period, 4.0 * period),
            st.just(float(whole)),
            near.map(lambda e: whole + e),
        )
    )


@ROUTES
@given(lattices(), st.sampled_from((1, -1)), st.data())
def test_whole_array_dirichlet_equals_the_masked_route(lattice, phase_sign, data):
    big_m, big_n, d_t, _ = lattice
    period = big_n // d_t
    offsets = data.draw(st.lists(_offsets(period), min_size=1, max_size=24), label="offsets")
    for delta in (np.array(offsets), np.float64(offsets[0])):  # an array and a scalar
        got = kernels._dirichlet(delta, big_n, d_t, phase_sign)
        want = masked_dirichlet(delta, big_n, d_t, phase_sign)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def closed_form_per_path(gains, delays, dopplers, big_m, big_n):
    k_axis, l_axis = np.arange(big_n), np.arange(big_m)
    cols = kernels._dirichlet(np.asarray(dopplers)[:, None] - k_axis, big_n, 1, +1)
    rows = kernels._dirichlet(np.asarray(delays)[:, None] - l_axis, big_m, 1, -1)
    acc = np.zeros((big_n, big_m), dtype=np.complex128)
    for g, col, row in zip(gains, cols, rows):
        acc += g * np.outer(col, row)
    return acc


@ROUTES
@given(lattices(), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_one_buffer_closed_form_equals_the_per_path_loop(lattice, n_paths, seed):
    big_m, big_n, _, _ = lattice
    rng = np.random.default_rng(seed)
    gains = _complex(rng, n_paths)
    delays = rng.integers(0, big_m, n_paths)
    dopplers = rng.uniform(-big_n / 2, big_n / 2, n_paths)
    dopplers[: n_paths // 2] = np.rint(dopplers[: n_paths // 2])  # on-grid ones too
    got = csf_closed_form(gains, delays, dopplers, big_m, big_n)
    want = closed_form_per_path(gains, delays, dopplers, big_m, big_n)
    assert got.tobytes() == want.tobytes()


class EagerCorrelationPair(CorrelationPair):
    """The pair as it was when it held the (M*N) x P steering grid A_all,
    built up front by genie_correlations, instead of its separable factors."""

    def __init__(self, ps, cfg, layout):
        freq, time = path_steering(ps, cfg.M, cfg.N)
        a_all = np.multiply(freq.T[:, None, :], time[:, :, None]).reshape(len(ps), -1).T
        a_pilot = freq[layout.pilot_m] * time.T[layout.pilot_n]
        super().__init__(freq, time, a_pilot, ps.powers)
        self._a_all = a_all

    def _steering_all(self):
        return self._a_all


@pytest.mark.parametrize("model", ["diag", "full"])
def test_factor_holding_pair_equals_the_eager_steering_grid(model):
    """The sweep's mmse-genie grid, whose A_all is formed after the solve,
    equals the one on the steering grid built with the pair, noisy and
    (at inf, the least-norm route) noiseless."""
    cfg = with_overrides(default_config(), channel_model=model)
    for snr_db in (0.0, 20.0, 40.0, float("inf")):
        for seed in (1, 2):
            t = harness._Trial(cfg, snr_db, seed)
            got, _ = ESTIMATORS["mmse-genie"](t)
            want = mmse_estimate(t.obs, EagerCorrelationPair(t.ps, cfg, t.layout), t.noise_var, cfg)
            assert want.used_least_norm == (snr_db == float("inf"))
            assert got.data.tobytes() == want.grid.data.tobytes()


def textbook_lerp(arr, step, out_len, axis):
    """Linear interpolation along one axis, `arr[j] + (arr[j + 1] - arr[j]) * frac`."""
    arr = np.moveaxis(arr, axis, 0)
    knots = arr.shape[0]
    t = np.arange(out_len)
    if knots == 1:
        return np.moveaxis(np.repeat(arr, out_len, axis=0), 0, axis)
    j = np.minimum(t // step, knots - 2)
    frac = ((t - j * step) / step).reshape((out_len,) + (1,) * (arr.ndim - 1))
    return np.moveaxis(arr[j] + (arr[j + 1] - arr[j]) * frac, 0, axis)


@ROUTES
@given(st.integers(1, 9), st.integers(1, 7), st.integers(1, 9), st.integers(1, 7), st.integers(0, 2**32 - 1))
@example(3, 5, 3, 3, 5)  # 15x9: odd segments, the last one extrapolated on both axes
def test_gathered_slope_interpolation_equals_the_textbook_formula(n_f, d_f, n_t, d_t, seed):
    """Time axis first, then frequency, on any lattice: odd sides and
    spacings, and a single pilot row or column (the constant branch)."""
    big_m, big_n = n_f * d_f, n_t * d_t
    values = _complex(np.random.default_rng(seed), (n_f, n_t))
    got = interp_linear(PilotObservations(values, d_t, d_f), tiny_cfg(big_m, big_n, d_t, d_f)).data
    want = textbook_lerp(textbook_lerp(values, d_t, big_n, axis=1), d_f, big_m, axis=0)
    assert got.shape == (big_m, big_n) and got.tobytes() == np.ascontiguousarray(want).tobytes()


def per_path_gen_paths(cfg, profile, rng):
    """`gen_paths` as it was: the same draws, each path's fields taken as a
    Python complex, int and two floats, then packed back into arrays."""
    delays, k_max, p_lin = _draw_constants(profile, cfg)
    n = profile.n_taps
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    gains = (re + 1j * im) * np.sqrt(p_lin / 2.0)
    dopplers = k_max * np.cos(rng.uniform(0.0, 2.0 * np.pi, n))
    if cfg.on_grid_doppler:
        dopplers = np.rint(dopplers)
    paths = [(complex(g), int(l), float(k), float(p)) for g, l, k, p in zip(gains, delays, dopplers, p_lin)]
    dtypes = (np.complex128, np.int64, np.float64, np.float64)
    return [np.array(column, dtype=dtype) for column, dtype in zip(zip(*paths), dtypes)]


@ROUTES
@given(st.booleans(), st.integers(0, 2**32 - 1))
def test_array_path_set_equals_the_per_path_round_trip(on_grid_doppler, seed):
    """Random gains and Dopplers of the paper profile, off- and on-grid."""
    cfg = with_overrides(default_config(), on_grid_doppler=on_grid_doppler)
    got = gen_paths(cfg, cfg.profile, np.random.default_rng(seed))
    want = per_path_gen_paths(cfg, cfg.profile, np.random.default_rng(seed))
    for arr, ref in zip((got.gains, got.delays, got.dopplers, got.powers), want):
        assert arr.dtype == ref.dtype and arr.tobytes() == ref.tobytes()


def six_array_layout(big_m, big_n, d_t, d_f):
    """The (m, n) pairs and flat indices of the pilots and the data, as the
    layout once took them."""
    is_pilot = np.zeros((big_n, big_m), dtype=bool)  # symbol-major
    is_pilot[::d_t, ::d_f] = True
    pn, pm = np.nonzero(is_pilot)
    dn, dm = np.nonzero(~is_pilot)
    return pm, pn, dm, dn, pm * big_n + pn, dm * big_n + dn


@ROUTES
@given(lattices())
def test_derived_layout_positions_equal_the_six_array_layout(lattice):
    big_m, big_n, d_t, d_f = lattice
    layout = FrameLayout((big_m, big_n), d_t, d_f)
    got = (layout.pilot_m, layout.pilot_n, *np.divmod(layout.data_flat, big_n), layout.pilot_flat,
           layout.data_flat)
    for arr, ref in zip(got, six_array_layout(*lattice)):
        assert arr.dtype == np.intp and arr.tobytes() == np.ascontiguousarray(ref, dtype=np.intp).tobytes()
