"""Estimator stages against independent brute-force oracles."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from ddce import blas, estimators, harness
from ddce.blas import single_blas_thread
from ddce.channel import (
    ChannelProfile,
    PathSet,
    apply_channel_diag,
    csf_from_paths,
    ctf_from_paths,
    gen_paths,
)
from ddce.config import default_config, with_overrides
from ddce.errors import ContractViolationError
from ddce.estimators import (
    CorrelationPair,
    PilotObservations,
    estimate_csf,
    estimate_num_paths,
    genie_correlations,
    interp_linear,
    ls_pilot,
    mmse_estimate,
    periodic_csf,
    recover_paths_offgrid,
)
from ddce.grids import PeriodCSF, TFGrid, isfft
from ddce.kernels import delay_kernel, doppler_kernel
from ddce.txrx import PilotPattern, build_frame, make_layout, qam4_mod
from helpers import random_mmse_case, tiny_cfg, traced_peak


def period_direct(obs_values, d_t, d_f, big_m, big_n, k, l):
    """Independent double-sum evaluation of the lattice-sampled image."""
    acc = 0.0 + 0.0j
    n_freq, n_time = obs_values.shape
    for i in range(n_freq):
        for j in range(n_time):
            acc += obs_values[i, j] * np.exp(
                2j * np.pi * (i * d_f * l / big_m - j * d_t * k / big_n)
            )
    return acc * d_t * d_f / np.sqrt(big_m * big_n)


# ---------------------------------------------------------------- LS stage


def test_ls_recovers_lattice_exactly_without_noise():
    pattern = PilotPattern(d_t=2, d_f=4)
    rng = np.random.default_rng(1)
    for big_m, big_n in ((8, 4), (32, 8)):  # 2 x 2 and 8 x 4 lattices
        cfg = tiny_cfg(big_m, big_n, d_t=2, d_f=4)
        syms = qam4_mod(rng.integers(0, 2, 2 * make_layout(pattern, cfg).n_data))
        x, lay = build_frame(syms, pattern, cfg)
        h = rng.standard_normal((big_m, big_n)) + 1j * rng.standard_normal((big_m, big_n))
        y = TFGrid(h * x.data)
        obs = ls_pilot(y, x, lay)
        assert obs.values.shape == (big_m // 4, big_n // 2)
        assert (obs.d_t, obs.d_f) == (2, 4)
        assert np.max(np.abs(obs.values - h[::4, ::2])) < 1e-12
        want = y.data[::4, ::2] / x.data[::4, ::2]
        assert obs.values.tobytes() == want.tobytes()


def test_ls_noise_variance_matches_channel_noise():
    cfg = tiny_cfg(64, 32, d_t=2, d_f=2)
    pattern = PilotPattern(d_t=2, d_f=2)
    ps = PathSet([1.0 + 0.0j], [0], [0.0])
    rng = np.random.default_rng(77)
    errs = []
    for _ in range(30):
        bits = rng.integers(0, 2, 2 * (64 * 32 - 32 * 16))
        x, lay = build_frame(qam4_mod(bits), pattern, cfg)
        y = apply_channel_diag(x, ps, 0.5, rng)
        obs = ls_pilot(y, x, lay)
        errs.append(obs.values - 1.0)
    errs = np.concatenate([e.ravel() for e in errs])
    assert abs(np.mean(np.abs(errs) ** 2) - 0.5) < 0.015
    assert abs(errs.mean()) < 0.01


# ------------------------------------------------------------- interpolation


def test_interp_exact_for_affine_fields():
    cfg = tiny_cfg(16, 8, d_t=4, d_f=4)
    m = np.arange(16)[:, None]
    n = np.arange(8)[None, :]
    h = (0.3 - 0.2j) + (0.1 + 0.05j) * m + (-0.07 + 0.02j) * n
    obs = PilotObservations(h[::4, ::4], d_t=4, d_f=4)
    got = interp_linear(obs, cfg).data
    assert np.max(np.abs(got - h)) < 1e-12


def test_interp_single_knot_axis_broadcasts():
    cfg = tiny_cfg(4, 8, d_t=2, d_f=4)
    obs = PilotObservations(np.array([[2.0, 4.0, 6.0, 8.0]]), d_t=2, d_f=4)
    got = interp_linear(obs, cfg).data
    assert np.max(np.abs(got - got[0:1, :])) < 1e-12  # constant along frequency
    assert np.max(np.abs(got[0] - np.arange(2.0, 10.0))) < 1e-12


# ----------------------------------------------------------- periodic image


def test_period_matches_direct_sum():
    cfg = tiny_cfg(8, 8, d_t=2, d_f=2)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = periodic_csf(PilotObservations(vals, d_t=2, d_f=2), cfg)
    for k in np.arange(p.n_doppler) + p.k_min:
        for l in range(p.n_delay):
            want = period_direct(vals, 2, 2, 8, 8, int(k), l)
            assert abs(p.value(int(k), l) - want) < 1e-12


def test_period_norm_scaling_is_exact():
    cfg = tiny_cfg(16, 8, d_t=2, d_f=4)
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = periodic_csf(PilotObservations(vals, d_t=2, d_f=4), cfg)
    assert abs(np.linalg.norm(p.data) ** 2 - 2 * 4 * np.linalg.norm(vals) ** 2) < 1e-10


def test_period_pilot_noise_variance():
    cfg = tiny_cfg(64, 32, d_t=2, d_f=2)
    rng = np.random.default_rng(8)
    sigma2 = 0.2
    samples = []
    for _ in range(20):
        noise = (rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))) * np.sqrt(
            sigma2 / 2
        )
        p = periodic_csf(PilotObservations(noise, d_t=2, d_f=2), cfg)
        samples.append(p.data.ravel())
    samples = np.concatenate(samples)
    assert abs(np.mean(np.abs(samples) ** 2) - sigma2 * 2 * 2) < 0.03
    assert abs(samples.mean()) < 0.02


# ---------------------------------------------------------- path detection


def test_detection_exact_without_noise():
    cfg = tiny_cfg(16, 16, d_t=2, d_f=2)
    ps = PathSet([1.0, 0.5j, -0.25], [0, 4, 7], [1.3, -2.0, 0.49])
    h = ctf_from_paths(ps, cfg).data
    obs = PilotObservations(h[::2, ::2], d_t=2, d_f=2)
    p = periodic_csf(obs, cfg)
    assert estimate_num_paths(p, 0.0, cfg) == 3


def test_detection_under_noise_is_reliable():
    cfg = tiny_cfg(64, 32, d_t=2, d_f=2)
    prof = ChannelProfile(
        tap_delays_ns=(0.0, 3125.0, 7291.666666666667),
        tap_powers_db=(0.0, 0.0, 0.0),
        v_kmh=50.0,
        f_c_hz=2.1e9,
    )
    sigma2 = 0.005
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ps = gen_paths(cfg, prof, rng)
        h = ctf_from_paths(ps, cfg).data
        noise = (rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))) * np.sqrt(
            sigma2 / 2
        )
        obs = PilotObservations(h[::2, ::2] + noise, d_t=2, d_f=2)
        if estimate_num_paths(periodic_csf(obs, cfg), sigma2, cfg) == 3:
            hits += 1
    assert hits >= 99


# ----------------------------------------------------------- path recovery


def test_recover_single_ongrid_path_exactly():
    cfg = tiny_cfg(16, 16, d_t=2, d_f=2)
    gain = 0.8 - 0.6j
    ps = PathSet([gain], [5], [3.0])
    h = ctf_from_paths(ps, cfg).data
    p = periodic_csf(PilotObservations(h[::2, ::2], d_t=2, d_f=2), cfg)
    got, truncated = recover_paths_offgrid(p, 1)
    assert not truncated
    assert len(got) == 1
    assert got.delays[0] == 5
    assert abs(got.dopplers[0] - 3.0) < 1e-12
    assert abs(got.gains[0] - gain) < 1e-10


def test_recover_two_paths_with_distinct_delays():
    cfg = tiny_cfg(128, 64, d_t=4, d_f=4)
    ps = PathSet([1.0 + 0.5j, -0.4 + 0.9j], [2, 6], [1.2, -1.85])
    h = ctf_from_paths(ps, cfg).data
    p = periodic_csf(PilotObservations(h[::4, ::4], d_t=4, d_f=4), cfg)
    got, truncated = recover_paths_offgrid(p, 2)
    assert not truncated
    by_delay = {l: i for i, l in enumerate(got.delays.tolist())}
    assert set(by_delay) == {2, 6}
    for gain, delay, doppler in zip(ps.gains, ps.delays.tolist(), ps.dopplers):
        i = by_delay[delay]
        assert abs(got.dopplers[i] - doppler) < 1e-3
        assert abs(got.gains[i] - gain) / abs(gain) < 3e-3


def test_recover_gains_equal_scalar_kernel_division_bitwise():
    cfg = tiny_cfg(128, 64, d_t=4, d_f=4)
    ps = PathSet(
        [1.0 + 0.5j, -0.4 + 0.9j, 0.3 - 0.2j, 0.2 + 0.1j], [0, 2, 5, 9], [0.3, -1.85, 2.0, -4.45]
    )
    rng = np.random.default_rng(8)
    noise = 0.01 * (rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16)))
    h = ctf_from_paths(ps, cfg).data[::4, ::4] + noise
    p = periodic_csf(PilotObservations(h, d_t=4, d_f=4), cfg)
    got, truncated = recover_paths_offgrid(p, 4)
    assert not truncated and len(got) == 4
    for gain, l0, doppler in zip(got.gains.tolist(), got.delays.tolist(), got.dopplers.tolist()):
        row0 = int(np.argmax(np.abs(p.data[:, l0])))
        k0 = row0 + p.k_min
        denom = delay_kernel(l0, l0, 128, 4) * doppler_kernel(doppler, k0, 64, 4)
        assert gain == complex(p.data[row0, l0] / denom)


def test_recover_truncates_when_support_runs_out():
    p = PeriodCSF(np.zeros((4, 4)), d_t=2, d_f=2)
    got, truncated = recover_paths_offgrid(p, 2)
    assert got is None and truncated

    data = np.zeros((4, 4), dtype=complex)
    data[2, 1] = 2.0  # single occupied delay bin
    got, truncated = recover_paths_offgrid(PeriodCSF(data, d_t=2, d_f=2), 3)
    assert truncated
    assert len(got) == 1


def test_recover_scans_delay_major_on_ties():
    data = np.zeros((4, 4), dtype=complex)
    data[2, 1] = 2.0  # centered k = 0
    data[2, 3] = 2.0  # same magnitude, larger delay
    got, _ = recover_paths_offgrid(PeriodCSF(data, d_t=2, d_f=2), 2)
    assert got.delays.tolist() == [1, 3]
    assert got.dopplers.tolist() == [0.0, 0.0]
    assert np.abs(got.gains - 0.25).max() < 1e-12


def recover_iteratively(p, n_paths):
    """The column-by-column readout `recover_paths_offgrid` replaces, kept as
    its oracle: per pass a global argmax over a working copy, then the whole
    chosen delay column nulled."""
    work = p.data.copy()
    floor = work.size * np.finfo(np.float64).eps * float(np.abs(work).max())
    found = []
    truncated = False
    for _ in range(n_paths):
        mags = np.abs(work)
        if mags.max() <= floor:
            truncated = True
            break
        l0, row0 = divmod(int(np.argmax(mags.T)), p.n_doppler)
        k0 = row0 + p.k_min
        a0 = mags[row0, l0]
        a_minus = mags[(row0 - 1) % p.n_doppler, l0]
        a_plus = mags[(row0 + 1) % p.n_doppler, l0]
        step = 1 if a_plus >= a_minus else -1
        a1 = a_plus if step == 1 else a_minus
        k_frac = float(np.clip(step * a1 / (a0 + a1), -0.5, 0.5))
        found.append((l0, k0, k0 + k_frac, work[row0, l0]))
        work[:, l0] = 0.0
    if not found:
        return None, True
    l0s, k0s, k_hats, values = (np.array(col) for col in zip(*found))
    denom = delay_kernel(l0s, l0s, p.full_m, p.d_f) * doppler_kernel(k_hats, k0s, p.full_n, p.d_t)
    return PathSet(values / denom, l0s, k_hats), truncated


def path_bits(ps):
    """Delay, gain and Doppler of every path, floats as hex so that -0.0 and
    0.0 differ."""
    if ps is None:
        return None
    arrays = (ps.gains, ps.delays, ps.dopplers, ps.powers)
    return [(l, g.real.hex(), g.imag.hex(), k.hex(), p.hex()) for g, l, k, p in zip(*(a.tolist() for a in arrays))]


def _assert_recovery_matches_oracle(p, n_paths):
    got, truncated = recover_paths_offgrid(p, n_paths)
    want, want_truncated = recover_iteratively(p, n_paths)
    assert path_bits(got) == path_bits(want)
    assert truncated is want_truncated


@pytest.mark.parametrize("channel_model", ["diag", "full"])
def test_recover_equals_iterative_readout_bitwise(channel_model):
    """Sorting the column peaks once gives the paths, bits and truncation
    flag of the pass-by-pass readout, at the detected count and at fixed
    counts below and above it."""
    cfg = with_overrides(default_config(), channel_model=channel_model)
    for snr_db in (0.0, 10.0, 20.0, 40.0, float("inf")):
        for seed in range(12):
            t = harness._Trial(cfg, snr_db, seed)
            detected = estimate_num_paths(t.period, t.noise_var, cfg)
            for n_paths in {detected, 1, 3, 40} - {0}:
                _assert_recovery_matches_oracle(t.period, n_paths)


def test_recover_equals_iterative_readout_on_tied_magnitudes():
    """Small-integer entries tie within and across columns all the time; the
    first row at a column's peak and the smallest delay among equal peaks
    must win, as in the pass-by-pass readout."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        data = rng.integers(-2, 3, (8, 6)) + 1j * rng.integers(-2, 3, (8, 6))
        data[:, rng.random(6) < 0.3] = 0.0
        p = PeriodCSF(data, d_t=2, d_f=2)
        for n_paths in (1, 2, 6, 7):
            _assert_recovery_matches_oracle(p, n_paths)


# -------------------------------------------------------------------- MMSE


def test_mmse_noiseless_uses_least_norm_and_stays_exact():
    cfg = tiny_cfg(8, 8, 2, 2)
    ps = PathSet([0.3 + 0.4j], [1], [-2.0])
    lay = make_layout(PilotPattern(d_t=2, d_f=2), cfg)
    h = ctf_from_paths(ps, cfg).data
    obs = PilotObservations(h[::2, ::2], d_t=2, d_f=2)
    est = mmse_estimate(obs, genie_correlations(ps, cfg, lay), 0.0, cfg)
    assert np.max(np.abs(est.grid.data - h)) < 1e-8


def test_correlations_use_declared_ensemble_powers():
    cfg = tiny_cfg(8, 8, 2, 2)
    lay = make_layout(PilotPattern(d_t=2, d_f=2), cfg)
    strong = PathSet([1e-6], [2], [1.0], [5.0])
    corr = genie_correlations(strong, cfg, lay)
    # diagonal of the pilot autocorrelation is the total ensemble power
    assert np.allclose(np.abs(corr._a_pilot) ** 2 @ corr._p, 5.0)
    r1 = (corr._steering_all() * corr._p) @ corr._a_pilot.conj().T
    vec = np.arange(corr.n_pilot, dtype=complex)
    assert np.allclose(corr.apply_r1(vec), r1 @ vec, atol=1e-10)


def _textbook_r2(corr):
    """The symmetrised pilot auto-correlation as plain dense algebra."""
    r2 = (corr._a_pilot * corr._p) @ corr._a_pilot.conj().T
    return (r2 + r2.conj().T) / 2.0


def _dense_mmse_reference(obs, corr, noise_var, cfg, jitter=False):
    """The genie MMSE solve written out densely, with fresh temporaries and
    a Cholesky that copies its input; `jitter` retries the way the
    LinAlgError fallback does."""
    with single_blas_thread():
        r2 = _textbook_r2(corr)
        a = r2 + noise_var * np.eye(r2.shape[0])
        if jitter:
            shift = 1e-12 * np.trace(a).real / a.shape[0]
            a = a + shift * np.eye(a.shape[0])
        z = cho_solve(cho_factor(a, lower=True), obs.values.flatten(order="F"))
        return corr.apply_r1(z).reshape(cfg.M, cfg.N, order="F")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mmse_equals_dense_formulation_bit_for_bit(seed):
    cfg = tiny_cfg(128, 64, 4, 4)
    obs, corr = random_mmse_case(cfg, seed)
    for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
        noise_var = 10.0 ** (-snr_db / 10.0)
        got = mmse_estimate(obs, corr, noise_var, cfg).grid.data
        assert got.tobytes() == _dense_mmse_reference(obs, corr, noise_var, cfg).tobytes()


def test_mmse_bitwise_across_lattices():
    """A non-square lattice (d_t = 2, d_f = 4), and pilot counts that
    alternate from call to call."""
    cfgs = (tiny_cfg(64, 64, 2, 4), tiny_cfg(32, 16, 4, 4), tiny_cfg(64, 32, 4, 4))
    for i, cfg in enumerate(cfgs + cfgs[::-1] + cfgs):
        obs, corr = random_mmse_case(cfg, 10 + i)
        noise_var = 10.0 ** (-(i % 5))
        got = mmse_estimate(obs, corr, noise_var, cfg).grid.data
        assert got.tobytes() == _dense_mmse_reference(obs, corr, noise_var, cfg).tobytes()


def test_mmse_jitter_fallback_rebuilds_the_overwritten_system(monkeypatch):
    cfg = tiny_cfg(64, 32, 4, 4)
    obs, corr = random_mmse_case(cfg, 5)
    chol = blas.lapack_cholesky()
    systems = []

    def fail_once(a):
        systems.append(a)
        if len(systems) == 1:
            a[...] = np.nan  # a failed in-place factorization leaves its input spoilt
            return 3
        return chol.factor(a)

    monkeypatch.setattr(blas, "_cholesky", SimpleNamespace(factor=fail_once, solve=chol.solve))
    got = mmse_estimate(obs, corr, 1e-3, cfg)
    assert len(systems) == 2 and systems[1] is not systems[0]
    want = _dense_mmse_reference(obs, corr, 1e-3, cfg, jitter=True)
    assert got.grid.data.tobytes() == want.tobytes()
    # a jittered system that fails as well is an error
    monkeypatch.setattr(blas, "_cholesky", SimpleNamespace(factor=lambda a: 2, solve=chol.solve))
    with pytest.raises(LinAlgError, match="2-th leading minor is not positive definite"):
        mmse_estimate(obs, corr, 1e-3, cfg)


@pytest.mark.parametrize("model", ["diag", "full"])
def test_mmse_bytes_do_not_depend_on_the_cholesky_route(model, monkeypatch):
    """The pair bound from numpy's OpenBLAS and the `scipy.linalg.lapack`
    pair give the same bytes on paired trials of the paper grid."""
    cfg = with_overrides(default_config(), channel_model=model)
    pairs = (blas.lapack_cholesky(), blas.ScipyCholesky(scipy.linalg.lapack))
    for snr_db in (0.0, 20.0, 40.0):
        trial = harness._Trial(cfg, snr_db, 11)
        corr = genie_correlations(trial.ps, cfg, trial.layout)
        got = []
        for pair in pairs:
            monkeypatch.setattr(blas, "_cholesky", pair)
            got.append(mmse_estimate(trial.obs, corr, trial.noise_var, cfg).grid.data.tobytes())
        assert got[0] == got[1]


def _least_norm_case(case):
    """Pilot observations and genie correlations on the paper grid: a
    noiseless paired trial on either channel model (the `full` one carries
    ICI, so its observations leave the range of R2), or random observations
    on a support with an exact alias or a zero-power path."""
    cfg = default_config()
    if case.startswith("paper"):
        trial = harness._Trial(with_overrides(cfg, channel_model=case[6:]), float("inf"), 4)
        return cfg, trial.obs, genie_correlations(trial.ps, cfg, trial.layout)
    # the second path's (delay, Doppler, power): delays l and l + M/d_f at
    # one Doppler have the same pilot samples
    delay, doppler, power = {"alias": (3 + cfg.M // cfg.d_f, 1.3, 0.3),
                             "zero-power": (9, -2.2, 0.0)}[case]
    ps = PathSet(np.ones(3), [3, delay, 12], [1.3, doppler, -4.6], [0.5, power, 0.2])
    layout = make_layout(PilotPattern(d_t=cfg.d_t, d_f=cfg.d_f), cfg)
    rng = np.random.default_rng(8)
    shape = (cfg.M // cfg.d_f, cfg.N // cfg.d_t)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    obs = PilotObservations(vals, d_t=cfg.d_t, d_f=cfg.d_f)
    return cfg, obs, genie_correlations(ps, cfg, layout)


@pytest.mark.parametrize("case", ["paper-diag", "paper-full", "alias", "zero-power"])
def test_noiseless_mmse_equals_dense_least_norm_reference(case):
    """R1 z for the least-norm z of R2 z = y, solved on R2's factor
    B = A_pilot sqrt(P), equals the least squares on the dense R2."""
    cfg, obs, corr = _least_norm_case(case)
    est = mmse_estimate(obs, corr, 0.0, cfg)
    with single_blas_thread():
        z, *_ = np.linalg.lstsq(_textbook_r2(corr), obs.values.flatten(order="F"), rcond=None)
        want = corr.apply_r1(z).reshape(cfg.M, cfg.N, order="F")
    assert np.max(np.abs(est.grid.data - want)) <= 1e-8 * np.max(np.abs(want))


def test_noiseless_mmse_forms_no_pilot_square_matrix(monkeypatch):
    """The dense least squares on R2 peaked at 12 MiB for 512 pilots; the
    factor route holds a few n_pilot x P arrays and never builds the noisy
    system."""

    def refuse(*args, **kw):
        raise AssertionError("the noiseless solve reached the noisy system")

    monkeypatch.setattr(blas, "_cholesky", SimpleNamespace(factor=refuse, solve=refuse))
    monkeypatch.setattr(estimators.CorrelationPair, "_system", refuse)
    cfg = default_config()
    assert (cfg.M, cfg.N) == (128, 64)
    trial = harness._Trial(cfg, float("inf"), 3)
    first, second = (genie_correlations(trial.ps, cfg, trial.layout) for _ in range(2))
    mmse_estimate(trial.obs, first, 0.0, cfg)  # first-call set-up is not the solve's
    est, peak = traced_peak(lambda: mmse_estimate(trial.obs, second, 0.0, cfg))
    assert peak < 2**20


def _random_product(n, seed=7):
    """A rank-3 Hermitian product with rounding-size asymmetry."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    r2 = b @ b.conj().T
    r2 += 1e-14 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return r2


def _crafted_product():
    """A random product with exact signed zeros: the (1, 2) / (2, 1) pair has
    real parts -0.0, which a float-part halving would keep where the complex
    halving gives +0.0."""
    r2 = _random_product(6, seed=3)
    r2[1, 2], r2[2, 1] = complex(-0.0, 0.25), complex(-0.0, -0.25)
    r2[3, 4], r2[4, 3] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    return r2


def test_hermitian_system_matches_textbook_symmetrisation_bitwise():
    """The lower triangle that LAPACK reads, built band by band over the
    product's own buffer, at sizes about one band and over several."""
    band = estimators._BAND
    sizes = (1, band - 1, band, band + 1, 100, 512)
    for product in [_crafted_product()] + [_random_product(n) for n in sizes]:
        n = product.shape[0]
        lower = np.tril_indices(n)
        for noise_var in (1e-3, 0.5):
            want = (product + product.conj().T) / 2.0 + noise_var * np.eye(n)
            r2 = product.copy()
            got = estimators._hermitian_system(r2, noise_var)
            assert got.flags.f_contiguous and np.shares_memory(got, r2)
            assert got[lower].tobytes() == want[lower].tobytes()


@pytest.mark.parametrize("m", [128, 256])
def test_noisy_mmse_holds_one_pilot_square_matrix(m):
    """The product A P A^H is the system's buffer: a noisy solve at 512 or
    1024 pilots peaks near one n_pilot x n_pilot array, and a second n x n
    buffer would put it at two."""
    cfg = tiny_cfg(m, 64, 4, 4)
    obs, corr = random_mmse_case(cfg, 6)
    mmse_estimate(obs, corr, 1e-2, cfg)  # first-call set-up is not the solve's
    _, peak = traced_peak(lambda: mmse_estimate(obs, corr, 1e-2, cfg))
    assert peak <= 1.25 * corr.n_pilot**2 * 16


def test_mmse_jitter_fallback_holds_one_pilot_square_matrix(monkeypatch):
    """The failed system is dropped before the jittered one is built: a
    fallback solve at 512 pilots peaks near one n_pilot x n_pilot array,
    where holding both put it at 8.4 MiB."""
    cfg = tiny_cfg(128, 64, 4, 4)
    obs, corr = random_mmse_case(cfg, 6)
    mmse_estimate(obs, corr, 1e-2, cfg)  # first-call set-up is not the solve's
    chol, failed = blas.lapack_cholesky(), []

    def fail_once(a):
        if failed:
            return chol.factor(a)
        failed.append(a.shape)
        return 3

    monkeypatch.setattr(blas, "_cholesky", SimpleNamespace(factor=fail_once, solve=chol.solve))
    _, peak = traced_peak(lambda: mmse_estimate(obs, corr, 1e-2, cfg))
    assert failed == [(512, 512)]
    assert peak <= 1.25 * corr.n_pilot**2 * 16


@settings(max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(1, 12),
    n_paths=st.integers(1, 6),
    a_decades=st.integers(0, 150),
    p_decades=st.integers(-100, 100),
    zeros=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_pilot_product_is_hermitian_to_rounding_for_nonnegative_powers(
    n, n_paths, a_decades, p_decades, zeros, seed
):
    """With P >= 0, every term a_i p a_j^* of A P A^H is at most the larger
    diagonal entry in magnitude, so each entry's rounding error stays a few
    eps of max|R|, whatever the finite steering matrix.  Steering entries
    span a_decades decades about 1 (up to 10^+-75 each, 150 in all), the
    powers sit at 10^p_decades and some are exactly 0."""
    rng = np.random.default_rng(seed)
    mag = 10.0 ** (a_decades * (rng.uniform(size=(n, n_paths)) - 0.5))
    a = mag * np.exp(2j * np.pi * rng.uniform(size=(n, n_paths)))
    powers = 10.0**p_decades * rng.uniform(0.5, 2.0, n_paths)
    powers[: min(zeros, n_paths - 1)] = 0.0
    corr = CorrelationPair(a, a.T, a, powers)
    r2 = (corr._a_pilot * corr._p) @ corr._a_pilot.conj().T  # the product `_system` forms
    assert np.all(np.isfinite(r2))
    assert np.abs(r2 - r2.conj().T).max() <= 1e-10 * np.abs(r2).max()


def _genie_case():
    """An 8x8 config, the genie pair of two paths on its layout, and all-ones
    pilot observations."""
    cfg = tiny_cfg(8, 8, 2, 2)
    layout = make_layout(PilotPattern(d_t=2, d_f=2), cfg)
    corr = genie_correlations(PathSet([1.0, 0.5j], [0, 1], [0.0, 0.5], [0.6, 0.4]), cfg, layout)
    return cfg, layout, corr, PilotObservations(np.ones((4, 4)), d_t=2, d_f=2)


def test_a_noise_variance_past_the_system_bound_is_refused_before_any_system(monkeypatch):
    """noise_var is bounded as R2's trace is, so R2 + noise_var*I stays in range."""
    cfg, _, corr, obs = _genie_case()
    monkeypatch.setattr(estimators.CorrelationPair, "_system", lambda *a: pytest.fail("a system was built"))
    with pytest.raises(ContractViolationError, match="^noise_var must be non-negative and at most 2.25e\\+307, got 1e\\+308$"):
        mmse_estimate(obs, corr, 1e308, cfg)


def test_observations_that_overflow_the_estimate_are_one_error(capfd):
    """Finite observations of 1e307 on the shipped grid overflow the noisy
    solve, which BLAS lets pass and numpy at most warns about: the non-finite grid is
    refused, naming obs and noise_var, not returned."""
    cfg = default_config()
    trial = harness._Trial(cfg, 20.0, 7)
    obs = PilotObservations(np.full(trial.obs.values.shape, 1e307), d_t=cfg.d_t, d_f=cfg.d_f)
    corr = genie_correlations(trial.ps, cfg, trial.layout)
    with pytest.raises(ContractViolationError, match="^noise_var must keep the estimate of obs finite, got 0.001$"):
        mmse_estimate(obs, corr, 1e-3, cfg)
    assert "On entry to" not in capfd.readouterr().err


# ------------------------------------------------------------ full pipeline


def run_pipeline(cfg, ps, sigma2, mode, seed=0):
    rng = np.random.default_rng(seed)
    pattern = PilotPattern(d_t=cfg.d_t, d_f=cfg.d_f)
    n_bits = 2 * (cfg.M * cfg.N - cfg.n_pilot)
    x, lay = build_frame(qam4_mod(rng.integers(0, 2, n_bits)), pattern, cfg)
    y = apply_channel_diag(x, ps, sigma2, rng)
    return estimate_csf(y, x, lay, cfg, mode, sigma2), x, y, lay


def test_ongrid_mode_gates_noise_only_columns():
    cfg = tiny_cfg(32, 16, 2, 2)
    ps = PathSet([1.0 + 0.0j], [2], [1.0])
    est, x, y, lay = run_pipeline(cfg, ps, 0.01, "ongrid", seed=3)
    occupied = np.flatnonzero(np.abs(est.full_dd.data).max(axis=0))
    assert occupied.tolist() == [2]
    # the raw period keeps its noise, only the embedding is gated
    period = periodic_csf(ls_pilot(y, x, lay), cfg)
    assert np.count_nonzero(period.data) == period.data.size


def test_offgrid_mode_returns_zero_image_when_nothing_detected():
    cfg = tiny_cfg(32, 16, 2, 2)
    ps = PathSet([1e-8], [2], [0.4])
    est, *_ = run_pipeline(cfg, ps, 50.0, "offgrid", seed=5)
    assert est.paths_hat is None
    assert est.truncated
    assert np.count_nonzero(est.full_dd.data) == 0


def test_offgrid_pipeline_recovers_clean_channel():
    cfg = tiny_cfg(64, 32, 2, 2)
    ps = PathSet([0.9 + 0.1j, 0.2 - 0.5j], [1, 4], [0.73, -1.2])
    est, x, y, lay = run_pipeline(cfg, ps, 0.0, "offgrid", seed=11)
    assert est.paths_hat is not None and len(est.paths_hat) == 2
    h_hat = isfft(est.full_dd, cfg).data
    h = ctf_from_paths(ps, cfg).data
    nmse = np.mean(np.abs(h_hat - h) ** 2) / np.mean(np.abs(h) ** 2)
    assert nmse < 1e-4


def test_reconstruct_route_equals_direct_formula():
    cfg = tiny_cfg(16, 8, 2, 2)
    ps_hat = PathSet([0.7 - 0.1j, -0.3 + 0.2j], [2, 5], [1.37, -0.52])
    via_dd = isfft(csf_from_paths(ps_hat, cfg), cfg).data
    m = np.arange(16)[:, None]
    n = np.arange(8)[None, :]
    want = np.zeros((16, 8), dtype=complex)
    for gain, delay, doppler in zip(ps_hat.gains, ps_hat.delays, ps_hat.dopplers):
        want += gain * np.exp(2j * np.pi * (doppler * n / 8 - delay * m / 16))
    assert np.max(np.abs(via_dd - want)) < 1e-10
