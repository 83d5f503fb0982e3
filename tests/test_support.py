"""The support theorem across pilot lattices: noiseless on-grid paths inside
one period of the lattice-sampled image are recovered exactly by both CSF
modes, the off-grid mode reading back each path, a path one Doppler bin past
the period leaves exactly the aliasing error `doppler_alias_difference`
predicts, and validation draws the line exactly at the support's edges."""

import re
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ddce.channel import (
    C_LIGHT,
    ChannelProfile,
    PathSet,
    apply_channel_diag,
    csf_from_paths,
    ctf_from_paths,
)
from ddce.config import SystemConfig
from ddce.estimators import CSF_MODES, estimate_csf
from ddce.grids import isfft
from ddce.kernels import doppler_alias_difference
from ddce.txrx import PilotPattern, build_frame, make_layout
from helpers import ALL_PILOT, lattices, tiny_cfg


def _gain(draw):
    return draw(st.floats(0.1, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))


@st.composite
def _in_support_paths(draw, big_m, big_n, d_t, d_f):
    """The [gains, delays, dopplers] lists of one path per delay bin in
    [0, M/d_f), at integer Dopplers in [-N/(2 d_t), N/(2 d_t)), both edges
    included."""
    half = big_n // (2 * d_t)
    delays = draw(
        st.lists(st.integers(0, big_m // d_f - 1), min_size=1, max_size=5, unique=True)
    )
    rows = [(_gain(draw), l, float(draw(st.integers(-half, half - 1)))) for l in delays]
    return [list(column) for column in zip(*rows)]


def _noiseless_rx(ps, cfg):
    pattern = PilotPattern(cfg.d_t, cfg.d_f)
    layout = make_layout(pattern, cfg)
    x, _ = build_frame(np.zeros(layout.n_data, dtype=complex), pattern, cfg)
    return apply_channel_diag(x, ps, 0.0, np.random.default_rng(0)), x, layout


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_noiseless_csf_ctfs_are_exact_inside_the_support(data):
    big_m, big_n, d_t, d_f = data.draw(lattices(), label="lattice")
    cfg = tiny_cfg(big_m, big_n, d_t, d_f)
    ps = PathSet(*data.draw(_in_support_paths(big_m, big_n, d_t, d_f), label="paths"))
    y, x, layout = _noiseless_rx(ps, cfg)
    want = ctf_from_paths(ps, cfg).data
    for mode in CSF_MODES:
        est = estimate_csf(y, x, layout, cfg, mode, 0.0)
        assert np.abs(isfft(est.full_dd, cfg).data - want).max() <= 1e-9, mode
        if mode == "offgrid":  # its paths are the true ones: same delays, Doppler and gain to 1e-9
            got = est.paths_hat
            assert got is not None and not est.truncated
            order_got, order_want = np.argsort(got.delays), np.argsort(ps.delays)
            assert np.array_equal(got.delays[order_got], ps.delays[order_want])
            assert np.abs(got.dopplers[order_got] - ps.dopplers[order_want]).max() < 1e-9
            assert np.abs(got.gains[order_got] - ps.gains[order_want]).max() < 1e-9


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_a_path_one_bin_past_the_support_leaves_the_predicted_alias(data):
    """The error image is the outside path's gain times sqrt(M) times the
    kernel difference down its delay column, and zero everywhere else; the
    other paths are inside the support and exact."""
    big_m, big_n, d_t, d_f = data.draw(lattices(min_log_d_t=1), label="lattice")
    cfg = tiny_cfg(big_m, big_n, d_t, d_f)
    half = big_n // (2 * d_t)
    gains, delays, dopplers = data.draw(_in_support_paths(big_m, big_n, d_t, d_f), label="inside")
    past = data.draw(st.sampled_from((half, -half - 1)), label="past")
    # the first path, moved one bin past the period, is the outside one
    gains[0], dopplers[0] = _gain(data.draw), float(past)
    ps = PathSet(gains, delays, dopplers)
    y, x, layout = _noiseless_rx(ps, cfg)
    ks = np.arange(-big_n // 2, big_n // 2)
    want = np.zeros((big_n, big_m), dtype=complex)
    want[ks % big_n, delays[0]] = (
        gains[0] * np.sqrt(big_m) * doppler_alias_difference(dopplers[0], ks, big_n, d_t)
    )
    true_dd = csf_from_paths(ps, cfg).data
    for mode in CSF_MODES:
        est = estimate_csf(y, x, layout, cfg, mode, 0.0)
        assert np.abs(true_dd - est.full_dd.data - want).max() <= 1e-9, mode


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_validation_accepts_each_support_edge_and_rejects_just_past_it(data):
    """A one-tap profile at delay bin M/d_f - 1, moving at the speed whose
    k_max = N*T*nu_max is N/(2 d_t) - 1, each as the double nearest the
    exact edge, passes; one bin later, or 1e-12 of the edge faster, fails
    with that rule's message alone, and the message's two numbers differ.
    The all-pilot lattice d_t = d_f = 1 is refused at the edge too, by its
    own rule, whose message comes before the support rule's."""
    big_m, big_n, d_t, d_f = data.draw(lattices(), label="lattice")
    delta_f = data.draw(st.sampled_from((7.5e3, 15e3, 30e3, 60e3)), label="delta_f")
    f_c = data.draw(st.sampled_from((0.9e9, 2.1e9, 3.5e9, 28e9)), label="f_c")
    l_edge = big_m // d_f - 1
    k_edge = Fraction(big_n, 2 * d_t) - 1
    ns_per_bin = Fraction(10**9) / (big_m * Fraction(delta_f))
    kmh_per_bin = Fraction(delta_f) * Fraction(36, 10) * Fraction(C_LIGHT) / (big_n * Fraction(f_c))

    def violations(l_bins, k_max):
        prof = ChannelProfile(
            (float(l_bins * ns_per_bin),), (0.0,), v_kmh=float(k_max * kmh_per_bin), f_c_hz=f_c
        )
        cfg = SystemConfig(
            M=big_m, N=big_n, delta_f_hz=delta_f, d_t=d_t, d_f=d_f, profile=prof,
            estimators=("csf-offgrid",),  # no pilot cap: only the support rules apply
        )
        return cfg.violations()

    all_pilot = [ALL_PILOT] if d_t == d_f == 1 else []
    assert violations(l_edge, k_edge) == all_pilot
    *first, late = violations(l_edge + 1, k_edge)
    assert first == all_pilot and "exceeds M/d_f - 1" in late
    *first, fast = violations(l_edge, k_edge + (k_edge or 1) / Fraction(10**12))
    assert first == all_pilot and "Doppler support violated" in fast
    got, bound = re.findall(r"= ([^ ;]+)", fast)[:2]
    assert float(got) > float(bound)
