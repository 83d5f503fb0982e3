"""Monte-Carlo harness: seeded trials, SNR sweeps, CSV output and the
self-verification suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelProfile,
    PathSet,
    apply_channel_diag,
    apply_channel_full,
    apply_response_diag,
    csf_from_paths,
    ctf_from_paths,
    gen_paths,
)
from .config import SystemConfig, with_overrides
from .errors import non_negative_int
from .estimators import (
    ESTIMATORS,
    PilotObservations,
    csf_ongrid,
    ls_pilot,
    periodic_csf,
    recover_paths_offgrid,
)
from .grids import TFGrid, _keep_grids_on_the_heap, isfft, sfft
from .kernels import doppler_alias_difference, doppler_kernel
from .txrx import PilotPattern, _single_tap, build_frame, extract_data, make_layout, qam4_mod


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one frame: estimation error, bit errors and bookkeeping."""

    snr_db: float
    estimator: str
    mse: float
    nmse: float
    ber: float
    n_bits: int
    near_singular_count: int
    seed: int
    failed: bool = False


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    estimator: str
    mean_mse: float
    mean_nmse: float
    mean_ber: float
    n_trials: int
    ci95_ber: float


@dataclass(frozen=True)
class SweepTable:
    """Aggregated sweep results, rows ordered by (snr point, estimator)."""

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def by(self, snr_db: float, estimator: str) -> SweepRow:
        for r in self.rows:
            if r.snr_db == snr_db and r.estimator == estimator:
                return r
        raise KeyError(f"no row for snr_db={snr_db}, estimator={estimator}")


def child_seed(master_seed: int, snr_index: int, trial_index: int) -> int:
    """Deterministic per-trial seed, identical across estimators so that all
    estimators of one trial see the same bits, channel and noise.  Each
    argument is an int >= 0."""
    spawn_key = (non_negative_int("snr_index", snr_index), non_negative_int("trial_index", trial_index))
    seq = np.random.SeedSequence(non_negative_int("master_seed", master_seed), spawn_key=spawn_key)
    return int(seq.generate_state(1, np.uint64)[0])


def _noise_var(snr_db: float) -> float:
    return float(10.0 ** (-snr_db / 10.0))


class _Trial:
    """One frame, one channel and one noise draw, with its pilot
    observations and their delay-Doppler period: what every estimator of a
    paired trial sees.  Of the frames it keeps only what scoring reads: the
    received values at the data positions and the split bits.  The int64
    bits are split as soon as the frame is built, and on the `full` model
    the true response is built after the channel has run (no draw falls
    between the two), so neither is alive at the channel's peak."""

    def __init__(self, cfg: SystemConfig, snr_db: float, seed: int):
        rng = np.random.default_rng(seed)
        pattern = PilotPattern(cfg.d_t, cfg.d_f)
        self.cfg = cfg
        bits = rng.integers(0, 2, 2 * make_layout(pattern, cfg).n_data)
        x, self.layout = build_frame(qam4_mod(bits), pattern, cfg)
        self.b_re, self.b_im = bits[0::2] == 1, bits[1::2] == 1
        self.n_bits = bits.size
        del bits
        self.ps = gen_paths(cfg, cfg.profile, rng)
        self.noise_var = _noise_var(snr_db)
        if cfg.channel_model == "full":
            y = apply_channel_full(x, self.ps, self.noise_var, rng)
            self.h_true = ctf_from_paths(self.ps, cfg)
        else:
            self.h_true = ctf_from_paths(self.ps, cfg)
            y = apply_response_diag(x, self.h_true, self.noise_var, rng)
        self.obs = ls_pilot(y, x, self.layout)
        self.period = periodic_csf(self.obs, cfg)
        self.y_data = extract_data(y, self.layout)


def _ber(y_data: np.ndarray, hv: np.ndarray, b_re: np.ndarray, b_im: np.ndarray):
    """(bit error rate, near-singular count) of single-tap equalization at
    the data positions, the bits of `equalize_single_tap` + `qam4_demod` +
    `np.mean(... != bits)` in fewer calls.  A hard decision is the sign of
    each part, so the errors are two counts of sign mismatches against the
    trial's split bits, and their sum over the bit count is the mean of the
    bool array: exact integers, divided once.  hv is overwritten."""
    x_hat, n_sing = _single_tap(y_data, hv)
    errors = np.count_nonzero((x_hat.real < 0) != b_re)
    errors += np.count_nonzero((x_hat.imag < 0) != b_im)
    return errors / (b_re.size + b_im.size), n_sing


def _mean_square(a: np.ndarray) -> float:
    """`np.mean(np.abs(a) ** 2)`, squaring in place."""
    mag = np.abs(a)
    np.square(mag, out=mag)
    return float(mag.mean())


def _paired_trial(cfg, snr_db, seed):
    """One frame, one channel, one noise draw, every estimator of cfg."""
    trial = _Trial(cfg, snr_db, seed)
    h_true = trial.h_true
    h_power = _mean_square(h_true.data)
    results = []
    for name in cfg.estimators:
        h_hat, failed = ESTIMATORS[name](trial)
        ber, n_sing = _ber(trial.y_data, extract_data(h_hat, trial.layout), trial.b_re, trial.b_im)
        # the true grid itself scores 0.0, as the mean of its zero errors does
        mse = 0.0 if h_hat is h_true else _mean_square(h_hat.data - h_true.data)
        results.append(
            TrialResult(
                snr_db=snr_db,
                estimator=name,
                mse=mse,
                nmse=mse / h_power,
                ber=ber,
                n_bits=trial.n_bits,
                near_singular_count=n_sing,
                seed=seed,
                failed=failed,
            )
        )
        del h_hat  # freed before the next estimator builds its own
    return results


def run_trial(
    cfg: SystemConfig,
    profile: ChannelProfile,
    snr_db: float,
    estimator_name: str,
    seed: int,
) -> TrialResult:
    """Run one fully seeded trial for one estimator.

    The same seed reproduces the identical frame, channel and noise no matter
    which estimator is asked for, which is what makes sweeps paired.  Before
    it starts, the one-trial config the arguments describe (seed as
    master_seed) goes through `SystemConfig.violations()`, and a violation
    raises its ConfigError.  Like `snr_sweep`, it sets glibc's allocator
    thresholds first, so a loop of calls reuses its grid temporaries.
    """
    run = with_overrides(
        cfg, profile=profile, snr_db=(snr_db,), estimators=(estimator_name,),
        n_trials=1, master_seed=seed,
    )
    _keep_grids_on_the_heap()
    return _paired_trial(run, run.snr_db[0], run.master_seed)[0]


def snr_sweep(
    cfg: SystemConfig,
    profile: ChannelProfile,
    snr_list_db,
    estimators,
    n_trials: int,
    master_seed: int,
) -> SweepTable:
    """Paired Monte-Carlo sweep over SNR points.

    Trials run one after another in (snr index, trial index) order, each
    seeded by `child_seed`.  Each SNR point's trials are aggregated, in
    estimator order, before the next point's start, so a sweep holds one
    point's results at a time.  Each genie-MMSE solve runs on one BLAS
    thread (`mmse_estimate`), so results do not depend on the BLAS thread
    count.  Before any trial starts, the config the arguments describe goes
    through `SystemConfig.violations()`, and a violation raises its
    ConfigError.

    The first sweep of a process sets glibc's allocator thresholds for the
    whole process (`grids._keep_grids_on_the_heap`).  At glibc's defaults
    every trial faulted its dozens of 128 KiB grids back in as zeroed pages,
    250-330 minor faults per trial, against under one with them set.
    Results do not change: only where the temporaries live does.
    """
    run = with_overrides(
        cfg, profile=profile, snr_db=snr_list_db, estimators=estimators,
        n_trials=n_trials, master_seed=master_seed,
    )
    _keep_grids_on_the_heap()
    rows = []
    for i, snr in enumerate(run.snr_db):
        seeds = [child_seed(run.master_seed, i, j) for j in range(run.n_trials)]
        paired = [_paired_trial(run, snr, seed) for seed in seeds]
        for name, trials in zip(run.estimators, zip(*paired)):
            bers = np.array([t.ber for t in trials])
            ci = 1.96 * bers.std(ddof=1) / np.sqrt(run.n_trials) if run.n_trials > 1 else 0.0
            rows.append(
                SweepRow(
                    snr_db=snr,
                    estimator=name,
                    mean_mse=float(np.mean([t.mse for t in trials])),
                    mean_nmse=float(np.mean([t.nmse for t in trials])),
                    mean_ber=float(bers.mean()),
                    n_trials=run.n_trials,
                    ci95_ber=float(ci),
                )
            )
        del paired, trials  # freed before the next point's trials run
    return SweepTable(tuple(rows))


CSV_HEADER = "snr_db,estimator,mean_mse,mean_nmse,mean_ber,n_trials,ci95_ber"


def format_csv(table: SweepTable) -> str:
    """Render a sweep table as CSV text, 10 significant digits, LF endings."""
    lines = [CSV_HEADER]
    for r in table.rows:
        lines.append(
            f"{r.snr_db:.10g},{r.estimator},{r.mean_mse:.10g},{r.mean_nmse:.10g},"
            f"{r.mean_ber:.10g},{r.n_trials},{r.ci95_ber:.10g}"
        )
    return "\n".join(lines) + "\n"


def write_csv(table: SweepTable, path: str) -> None:
    """Write the sweep table; identical inputs give byte-identical files."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(table))


# ---------------------------------------------------------------------------
# self-verification suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [
            f"CHECK {c.name} {'PASS' if c.passed else 'FAIL'} max_err={c.max_err:.6g}"
            for c in self.checks
        ]
        return "\n".join(lines) + "\n"


def _tiny_cfg(big_m, big_n, d_t, d_f):
    profile = ChannelProfile((0.0,), (0.0,), v_kmh=0.0, f_c_hz=2.1e9)
    return SystemConfig(M=big_m, N=big_n, delta_f_hz=15e3, d_t=d_t, d_f=d_f, profile=profile)


def _noiseless_period(ps, cfg):
    """Pilot-lattice period of a known path set through the real pipeline."""
    pattern = PilotPattern(cfg.d_t, cfg.d_f)
    layout = make_layout(pattern, cfg)
    x, _ = build_frame(np.zeros(layout.n_data, dtype=complex), pattern, cfg)
    y = apply_channel_diag(x, ps, 0.0, np.random.default_rng(0))
    return periodic_csf(ls_pilot(y, x, layout), cfg)


def check_transform_roundtrip() -> CheckResult:
    """sfft/isfft invert each other and conserve energy on random grids."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    for big_m, big_n in ((16, 8), (32, 64), (12, 10)):
        x = TFGrid(rng.standard_normal((big_m, big_n)) + 1j * rng.standard_normal((big_m, big_n)))
        dd = sfft(x)
        back = isfft(dd)
        worst = max(worst, float(np.abs(back.data - x.data).max()))
        worst = max(
            worst,
            abs(float(np.sum(np.abs(dd.data) ** 2)) - float(np.sum(np.abs(x.data) ** 2))),
        )
    return CheckResult("transform_roundtrip", worst < 1e-10, worst)


def check_lattice_kernel_ongrid() -> CheckResult:
    """Lattice Doppler kernel is sqrt(N) at zero offset and 0 at every other
    integer offset inside the period (N=32, d_t=4)."""
    n_symbols, d_t = 32, 4
    period = n_symbols // d_t
    ks = np.arange(-period // 2, period // 2)
    worst = 0.0
    for k_i in ks:
        vals = np.asarray(doppler_kernel(float(k_i), ks, n_symbols, d_t))
        want = np.where(ks == k_i, np.sqrt(n_symbols), 0.0)
        worst = max(worst, float(np.abs(vals - want).max()))
    return CheckResult("lattice_kernel_ongrid", worst < 1e-9, worst)


def check_period_is_periodic() -> CheckResult:
    """The lattice-sampled image repeats with periods N/d_t and M/d_f.

    Checked against the defining double sum evaluated over an extended index
    range, not against the FFT shortcut.
    """
    big_m, big_n, d_t, d_f = 16, 16, 2, 2
    cfg = _tiny_cfg(big_m, big_n, d_t, d_f)
    rng = np.random.default_rng(7)
    n_f, n_t = big_m // d_f, big_n // d_t
    obs_vals = rng.standard_normal((n_f, n_t)) + 1j * rng.standard_normal((n_f, n_t))

    def direct(k, l):
        m_idx = np.arange(n_f)
        n_idx = np.arange(n_t)
        ph_m = np.exp(2j * np.pi * m_idx * d_f * l / big_m)
        ph_n = np.exp(-2j * np.pi * n_idx * d_t * k / big_n)
        scale = 1.0 / np.sqrt((big_m / d_f**2) * (big_n / d_t**2))
        return scale * (ph_m @ obs_vals @ ph_n)

    period = periodic_csf(PilotObservations(obs_vals, d_t=d_t, d_f=d_f), cfg)
    worst = 0.0
    for k in range(-n_t, n_t):
        for l in range(0, 2 * n_f):
            want = direct(k, l)
            worst = max(worst, abs(period.value(k, l) - want))
            worst = max(worst, abs(direct(k + n_t, l + n_f) - want))
    return CheckResult("period_is_periodic", worst < 1e-12, worst)


def check_alias_difference() -> CheckResult:
    """Embedding error of a fractional-Doppler path matches the closed-form
    kernel difference pointwise over the whole Doppler axis (N=32, d_t=4)."""
    big_m, big_n, d_t, d_f = 8, 32, 4, 2
    cfg = _tiny_cfg(big_m, big_n, d_t, d_f)
    worst = 0.0
    for k_i, l_i in ((1.7, 1), (-3.3, 2), (0.49, 0)):
        ps = PathSet([1.0 + 0.0j], [l_i], [k_i])
        period = _noiseless_period(ps, cfg)
        embedded = csf_ongrid(period, cfg)
        true_dd = csf_from_paths(ps, cfg)
        ks = np.arange(-big_n // 2, big_n // 2)
        diff = np.array([true_dd.at_centered(k, l_i) - embedded.at_centered(k, l_i) for k in ks])
        want = np.asarray(doppler_alias_difference(k_i, ks, big_n, d_t)) * np.sqrt(big_m)
        worst = max(worst, float(np.abs(diff - want).max()))
    return CheckResult("alias_difference", worst < 1e-9, worst)


def check_ongrid_exact_recovery(placements=None) -> CheckResult:
    """With on-grid paths inside the period support, the pilot-lattice period
    equals the true image on its support and the rebuilt CTF is exact.

    Runs every in-support single-path placement on a 16x16 grid with
    d_t = d_f = 2 unless given explicit (doppler, delay) pairs; out-of-support
    placements then show the expected aliasing failure.
    """
    big_m, big_n, d_t, d_f = 16, 16, 2, 2
    cfg = _tiny_cfg(big_m, big_n, d_t, d_f)
    k_half, l_lim = big_n // (2 * d_t), big_m // d_f
    if placements is None:
        placements = [(k, l) for k in range(-k_half, k_half) for l in range(l_lim)]
    worst = 0.0
    for k_i, l_i in placements:
        ps = PathSet([0.8 - 0.6j], [l_i], [k_i])
        period = _noiseless_period(ps, cfg)
        true_dd = csf_from_paths(ps, cfg)
        for k in range(-k_half, k_half):
            for l in range(l_lim):
                worst = max(worst, abs(period.value(k, l) - true_dd.at_centered(k, l)))
        h_hat = isfft(csf_ongrid(period, cfg), cfg)
        h_true = ctf_from_paths(ps, cfg)
        worst = max(worst, float(np.abs(h_hat.data - h_true.data).max()))
    return CheckResult("ongrid_exact_recovery", worst < 1e-9, worst)


def check_offgrid_recovery_sweep() -> CheckResult:
    """Fractional-Doppler sweep on the full-size grid: recovered Doppler and
    gain stay inside the calibrated bias ceilings of the two-bin amplitude
    ratio rule.  Reported value is the worst error-to-ceiling ratio."""
    cfg = _tiny_cfg(128, 64, 4, 4)
    worst = 0.0
    for kf in np.arange(-0.45, 0.451, 0.05):
        k_i = 2.0 + float(kf)
        ps = PathSet([1.0 + 0.0j], [3], [k_i])
        period = _noiseless_period(ps, cfg)
        ps_hat, _ = recover_paths_offgrid(period, 1)
        if ps_hat is None or ps_hat.delays[0] != 3:
            worst = max(worst, 1.0)
            continue
        err_k = abs(ps_hat.dopplers[0] - k_i)
        err_g = abs(ps_hat.gains[0] - 1.0)
        # ceilings calibrated on this grid; the ratio rule's bias peaks
        # around |offset| ~ 0.2 at 6.2e-4 (Doppler) and 1.9e-3 (gain)
        worst = max(worst, err_k / 7e-4, err_g / 2.1e-3)
    return CheckResult("offgrid_recovery_sweep", worst < 1.0, worst)


def check_perfect_csi_ber() -> CheckResult:
    """Noiseless frame with the true CTF at the equalizer decodes exactly."""
    cfg = _tiny_cfg(16, 8, 2, 2)
    profile = ChannelProfile((0.0, 4166.667), (0.0, -3.0), v_kmh=0.0, f_c_hz=2.1e9)
    res = run_trial(cfg, profile, snr_db=float("inf"), estimator_name="ideal", seed=99)
    err = float(res.ber + res.mse)
    return CheckResult("perfect_csi_ber", err == 0.0, err)


def verify_suite() -> VerifyReport:
    """Run the analytic identity checks the estimator design rests on.

    Every check uses fixed small shapes chosen so the identity is cheap to
    test exhaustively; they are independent of the sweep configuration.
    """
    checks = (
        check_transform_roundtrip(),
        check_lattice_kernel_ongrid(),
        check_period_is_periodic(),
        check_alias_difference(),
        check_ongrid_exact_recovery(),
        check_offgrid_recovery_sweep(),
        check_perfect_csi_ber(),
    )
    return VerifyReport(checks)
