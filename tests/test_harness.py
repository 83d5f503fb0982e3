"""Monte-Carlo harness: seeding, sweeps, CSV output, verification checks."""

import functools
import os
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ddce import estimators, grids, harness
from ddce.channel import (
    apply_channel_diag,
    apply_channel_full,
    ctf_from_paths,
    gen_paths,
)
from ddce.cli import main as cli_main
from ddce.config import (
    ESTIMATOR_NAMES,
    MAX_TRIALS,
    MIN_SNR_DB,
    default_config,
    load_config,
    with_overrides,
)
from ddce.errors import ConfigError
from ddce.estimators import (
    ESTIMATORS,
    estimate_csf,
    genie_correlations,
    interp_linear,
    ls_pilot,
    mmse_estimate,
)
from ddce.grids import TFGrid, isfft
from ddce.harness import (
    CSV_HEADER,
    SweepRow,
    SweepTable,
    check_ongrid_exact_recovery,
    child_seed,
    format_csv,
    run_trial,
    snr_sweep,
    verify_suite,
    write_csv,
)
from ddce.txrx import (
    PilotPattern,
    build_frame,
    equalize_single_tap,
    extract_data,
    make_layout,
    qam4_demod,
    qam4_mod,
)
from helpers import small_cfg

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
PAPER_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "paper.cfg")


def test_child_seed_frozen_values():
    assert child_seed(20250819, 0, 0) == 9548409564415120031
    assert child_seed(20250819, 0, 1) == 10067703819366171528
    assert child_seed(20250819, 1, 0) == 11126366754928455177
    assert child_seed(20250819, 3, 7) == 376338864837177921


def test_child_seeds_do_not_collide():
    seeds = {child_seed(1, i, j) for i in range(20) for j in range(50)}
    assert len(seeds) == 1000


def test_run_trial_is_deterministic():
    cfg = small_cfg()
    a = run_trial(cfg, cfg.profile, 15.0, "csf-offgrid", seed=99)
    b = run_trial(cfg, cfg.profile, 15.0, "csf-offgrid", seed=99)
    assert a == b
    assert a.n_bits == 2 * (32 * 16 - 8 * 4)
    assert 0.0 <= a.ber <= 1.0
    assert a.seed == 99 and a.estimator == "csf-offgrid"


def test_run_trial_rejects_unknown_estimator():
    cfg = small_cfg()
    with pytest.raises(ConfigError, match="unknown estimator"):
        run_trial(cfg, cfg.profile, 10.0, "zero-forcing", seed=1)


def test_ideal_estimator_has_zero_mse():
    cfg = small_cfg()
    res = run_trial(cfg, cfg.profile, 5.0, "ideal", seed=5)
    assert res.mse == 0.0 and res.nmse == 0.0
    assert res.ber > 0.0  # noise still flips bits


def test_offgrid_trial_reports_detection_failure():
    cfg = small_cfg()
    res = run_trial(cfg, cfg.profile, -60.0, "csf-offgrid", seed=2)
    assert res.failed
    assert res.nmse == pytest.approx(1.0)  # all-zero estimate
    assert res.ber > 0.4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("channel_model", ["diag", "full"])
def test_every_estimator_stays_finite_at_the_snr_floor(channel_model):
    """At MIN_SNR_DB the noise variance is 1e300.  ls-interp extrapolates
    that noise past the last pilots, and every trial squares and averages
    its errors: none of it may overflow."""
    cfg = with_overrides(load_config(PAPER_CFG), channel_model=channel_model)
    assert cfg.estimators == ESTIMATOR_NAMES
    for seed in range(3):
        for res in harness._paired_trial(cfg, MIN_SNR_DB, seed):
            assert np.isfinite([res.mse, res.nmse, res.ber]).all(), (res.estimator, seed)


def test_estimator_table_names_every_estimator_once():
    names = ("ls-interp", "mmse-genie", "csf-ongrid", "csf-offgrid", "ideal")
    assert tuple(ESTIMATORS) == ESTIMATOR_NAMES == names


# Each estimator as a chain of public calls on the pieces of one trial.
PUBLIC_CHAINS = {
    "ls-interp": lambda y, x, lay, ps, cfg, nv, h: interp_linear(ls_pilot(y, x, lay), cfg),
    "mmse-genie": lambda y, x, lay, ps, cfg, nv, h: mmse_estimate(
        ls_pilot(y, x, lay), genie_correlations(ps, cfg, lay), nv, cfg
    ).grid,
    "csf-ongrid": lambda y, x, lay, ps, cfg, nv, h: isfft(
        estimate_csf(y, x, lay, cfg, "ongrid", nv).full_dd, cfg
    ),
    "csf-offgrid": lambda y, x, lay, ps, cfg, nv, h: isfft(
        estimate_csf(y, x, lay, cfg, "offgrid", nv).full_dd, cfg
    ),
    "ideal": lambda y, x, lay, ps, cfg, nv, h: h,
}


def public_chain_trial(cfg, snr_db, name, seed):
    """(mse, ber, near-singular count) of one trial, drawn in run_trial's order."""
    rng = np.random.default_rng(seed)
    pattern = PilotPattern(cfg.d_t, cfg.d_f)
    bits = rng.integers(0, 2, 2 * make_layout(pattern, cfg).n_data)
    x, lay = build_frame(qam4_mod(bits), pattern, cfg)
    ps = gen_paths(cfg, cfg.profile, rng)
    noise_var = float(10.0 ** (-snr_db / 10.0))
    channel = apply_channel_full if cfg.channel_model == "full" else apply_channel_diag
    y = channel(x, ps, noise_var, rng)
    h_true = ctf_from_paths(ps, cfg)
    h_hat = PUBLIC_CHAINS[name](y, x, lay, ps, cfg, noise_var, h_true)
    x_hat, n_sing = equalize_single_tap(y, h_hat, lay)
    ber = float(np.mean(qam4_demod(x_hat) != bits))
    return float(np.mean(np.abs(h_hat.data - h_true.data) ** 2)), ber, n_sing


_MIXES = {
    "ongrid": dict(estimators=("csf-ongrid", "ideal"), on_grid_doppler=True),
    "dd-full": dict(estimators=("ls-interp", "csf-ongrid", "csf-offgrid", "ideal"),
                    channel_model="full"),
    "paper": dict(),
}


# the 32x16 grid on both channel models, and the benchmark's three mixes on
# the shipped 128x64 grid
@pytest.mark.parametrize("case", ["diag", "full", *_MIXES])
def test_run_trial_equals_public_call_chain_bit_for_bit(case):
    if case in _MIXES:
        cfg, seeds = with_overrides(default_config(), **_MIXES[case]), range(3)
    else:
        cfg, seeds = with_overrides(small_cfg(), channel_model=case), range(6)
    assert tuple(PUBLIC_CHAINS) == ESTIMATOR_NAMES
    for seed in seeds:
        for snr in (0.0, 25.0, float("inf")):
            for name in cfg.estimators:
                res = run_trial(cfg, cfg.profile, snr, name, seed)
                assert (res.mse, res.ber, res.near_singular_count) == public_chain_trial(
                    cfg, snr, name, seed
                ), (name, snr, seed)


def _scoring_case(seed, singular):
    """(y, h_hat, h_true, layout, bits) of a frame whose received values and
    estimate hold signed zeros in both parts, with none, some or all
    estimate REs below NEAR_SINGULAR_TOL."""
    cfg = small_cfg()
    rng = np.random.default_rng(seed)
    layout = make_layout(PilotPattern(cfg.d_t, cfg.d_f), cfg)
    shape = (cfg.M, cfg.N)

    def parts(values):
        return rng.choice(values, shape) + 1j * rng.choice(values, shape)

    y = parts([-1.5, -0.0, 0.0, 0.25])
    h_hat = parts([-2.0, -0.0, 0.0, 0.5])
    h_hat[h_hat == 0] = 1.0  # the "none" case keeps every RE regular
    tiny = parts([-3e-13, -0.0, 0.0, 2e-13])
    below = {"none": np.zeros(shape, bool), "all": np.ones(shape, bool)}.get(
        singular, rng.random(shape) < 0.3
    )
    h_hat[below] = tiny[below]
    bits = rng.integers(0, 2, 2 * layout.n_data)
    return TFGrid(y), TFGrid(h_hat), TFGrid(parts([-1.0, -0.0, 0.0, 1.0])), layout, bits


@pytest.mark.parametrize("singular", ["none", "some", "all"])
def test_scoring_equals_the_public_chain_bit_for_bit(singular):
    for seed in range(4):
        y, h_hat, h_true, layout, bits = _scoring_case(seed, singular)
        x_hat, n_sing = equalize_single_tap(y, h_hat, layout)
        ber = float(np.mean(qam4_demod(x_hat) != bits))
        assert {"none": n_sing == 0, "all": n_sing == x_hat.size}.get(singular, 0 < n_sing)
        got = harness._ber(
            extract_data(y, layout), extract_data(h_hat, layout), bits[0::2] == 1, bits[1::2] == 1
        )
        assert got == (ber, n_sing) and got[0].hex() == ber.hex()
        mse = float(np.mean(np.abs(h_hat.data - h_true.data) ** 2))
        assert harness._mean_square(h_hat.data - h_true.data).hex() == mse.hex()


def test_sweep_is_paired_with_run_trial():
    cfg = small_cfg()
    table = snr_sweep(cfg, cfg.profile, (12.0,), ("ideal", "ls-interp"), 1, 777)
    seed = child_seed(777, 0, 0)
    for name in ("ideal", "ls-interp"):
        row = table.by(12.0, name)
        single = run_trial(cfg, cfg.profile, 12.0, name, seed)
        assert row.mean_mse == single.mse
        assert row.mean_ber == single.ber
        assert row.ci95_ber == 0.0


def test_sweep_reduction_matches_hand_average():
    cfg = small_cfg()
    n_trials = 3
    table = snr_sweep(cfg, cfg.profile, (20.0,), ("ls-interp",), n_trials, 31)
    singles = [
        run_trial(cfg, cfg.profile, 20.0, "ls-interp", child_seed(31, 0, j))
        for j in range(n_trials)
    ]
    row = table.by(20.0, "ls-interp")
    bers = np.array([s.ber for s in singles])
    assert row.mean_mse == pytest.approx(np.mean([s.mse for s in singles]), abs=1e-15)
    assert row.mean_ber == pytest.approx(bers.mean(), abs=1e-15)
    assert row.ci95_ber == pytest.approx(1.96 * bers.std(ddof=1) / np.sqrt(n_trials), abs=1e-15)


def test_sweep_validates_inputs():
    cfg = small_cfg()
    with pytest.raises(ConfigError):
        snr_sweep(cfg, cfg.profile, (10.0,), ("nope",), 1, 0)
    with pytest.raises(ConfigError):
        snr_sweep(cfg, cfg.profile, (), ("ideal",), 1, 0)
    with pytest.raises(ConfigError):
        snr_sweep(cfg, cfg.profile, (10.0,), ("ideal",), 0, 0)
    with pytest.raises(ConfigError, match="repeat"):
        snr_sweep(cfg, cfg.profile, (10.0,), ("ideal", "ideal"), 1, 0)


def test_trial_and_sweep_check_their_profile_before_any_trial(monkeypatch):
    """A profile passed next to cfg obeys cfg's support rules, as cfg.profile
    does at validation: a bad one is a ConfigError, and no trial starts."""
    cfg = default_config()

    def no_trial(*args):
        raise AssertionError("a trial started before the profile was checked")

    monkeypatch.setattr(harness, "_paired_trial", no_trial)
    fast = replace(cfg.profile, v_kmh=1200.0)
    late = replace(cfg.profile, tap_delays_ns=(0.0, 40_000.0), tap_powers_db=(0.0, -3.0))
    for profile, rule in ((fast, "Doppler support violated"), (late, "exceeds M/d_f - 1")):
        with pytest.raises(ConfigError, match=rule):
            snr_sweep(cfg, profile, (10.0,), ("ideal",), 1, 0)
        with pytest.raises(ConfigError, match=rule):
            run_trial(cfg, profile, 10.0, "ideal", 0)


def _no_trial(*args):
    raise AssertionError("a trial started before its arguments were checked")


_SNR_RULE = r"snr_db must be finite and >= -3000.0, or \+inf, got "
_TRIALS_RULE = f"n_trials must be between 1 and {MAX_TRIALS}, got "
_BAD_RUNS = {
    # name: (snr_sweep arguments after cfg, what the ConfigError names)
    "unknown estimator": (dict(estimators=("nope",)), "unknown estimators"),
    "repeated estimator": (dict(estimators=("ideal", "ideal")), "must not repeat"),
    "no estimator": (dict(estimators=()), "estimators list must not be empty"),
    "bare estimator string": (dict(estimators="ideal"), "estimators must be a list, not str"),
    "bare snr string": (dict(snrs="20"), "snr_db must be a list, not str"),
    "bool snr": (dict(snrs=(True,)), "snr_db must be a real number, got True"),
    "no snr": (dict(snrs=()), "snr_db list must not be empty"),
    "nan snr": (dict(snrs=(float("nan"),)), f"{_SNR_RULE}nan$"),
    "-inf snr": (dict(snrs=(10.0, float("-inf"))), f"{_SNR_RULE}-inf$"),
    "overflowing snr": (dict(snrs=(-4000.0,)), f"{_SNR_RULE}-4000.0$"),
    "no trials": (dict(n_trials=0), f"{_TRIALS_RULE}0$"),
    "too many trials": (dict(n_trials=MAX_TRIALS + 1), f"{_TRIALS_RULE}{MAX_TRIALS + 1}$"),
    "negative seed": (dict(seed=-1), "master_seed must be >= 0"),
    "long delay": (
        dict(profile=dict(tap_delays_ns=(0.0, 1e300), tap_powers_db=(0.0, -3.0))),
        "exceeds M/d_f - 1",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_RUNS))
def test_bad_run_arguments_raise_config_error_before_any_trial(monkeypatch, case):
    """Run arguments go through the config rules: each bad one is the
    ConfigError validation gives, raised before a trial starts."""
    cfg = small_cfg()
    args = dict(snrs=(10.0,), estimators=("ideal",), n_trials=1, seed=0, profile={})
    edit, message = _BAD_RUNS[case]
    args.update(edit)
    profile = replace(cfg.profile, **args["profile"])
    monkeypatch.setattr(harness, "_paired_trial", _no_trial)
    with pytest.raises(ConfigError, match=message):
        snr_sweep(cfg, profile, args["snrs"], args["estimators"], args["n_trials"], args["seed"])
    if len(args["snrs"]) == 1 and len(args["estimators"]) == 1 and args["n_trials"] == 1:
        with pytest.raises(ConfigError, match=message):
            run_trial(cfg, profile, args["snrs"][0], args["estimators"][0], args["seed"])


@pytest.mark.parametrize("mix", sorted(_MIXES))
def test_a_paired_trial_checks_only_its_pilot_observations(monkeypatch, mix):
    """Grids the pipeline derives are adopted, not copied and rescanned: of
    a whole paired trial, only ls_pilot's observations, where y/x can
    overflow, go through the checked copy."""
    cfg = with_overrides(default_config(), **_MIXES[mix])
    made = []
    real = grids._freeze_grid

    def counted(data, what):
        made.append(what)
        return real(data, what)

    monkeypatch.setattr(grids, "_freeze_grid", counted)
    monkeypatch.setattr(estimators, "_freeze_grid", counted)
    snr_sweep(cfg, cfg.profile, (10.0,), cfg.estimators, 1, 5)
    assert made == ["PilotObservations"]



@pytest.mark.parametrize("model", ["diag", "full"])
def test_a_paired_paper_trial_peaks_near_one_pilot_system(model):
    """While the genie MMSE factors its 512-pilot system, nothing else of
    grid size or larger is alive: not the (M*N) x P steering grid, a
    boolean copy of the system from the finite scan, or the trial's frames.
    With them the traced peak of a paired trial read about 5.7 MiB."""
    cfg = with_overrides(default_config(), channel_model=model)
    grids._keep_grids_on_the_heap()
    harness._paired_trial(cfg, 20.0, 1)  # first-call set-up is not the trial's
    tracemalloc.start()
    try:
        harness._paired_trial(cfg, 20.0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.n_pilot == 512 and "mmse-genie" in cfg.estimators
    assert peak <= cfg.n_pilot**2 * 16 + 2**20


# small_cfg() as a config file, with the sweep's own keys
SMALL_CFG_TEXT = """\
M = 32
N = 16
delta_f_hz = 15e3
f_c_hz = 2.1e9
v_kmh = 250
d_t = 4
d_f = 4
tap_delays_ns = 0.0, 4166.666666666667
tap_powers_db = 0.0, -3.0
estimators = ls-interp, mmse-genie, csf-ongrid, csf-offgrid, ideal
snr_db = 8, 18
n_trials = 3
master_seed = 5150
"""


def test_sweep_runs_every_trial_on_the_calling_thread_in_seed_order(tmp_path, monkeypatch):
    path = tmp_path / "two-threads.cfg"
    path.write_text(SMALL_CFG_TEXT + "threads = 2\n", encoding="utf-8")
    cfg = load_config(str(path))
    calls = []
    real = harness._paired_trial

    def spy(run, snr_db, seed):
        calls.append((threading.get_ident(), snr_db, seed))
        return real(run, snr_db, seed)

    monkeypatch.setattr(harness, "_paired_trial", spy)
    snr_sweep(cfg, cfg.profile, cfg.snr_db, cfg.estimators, cfg.n_trials, cfg.master_seed)
    me = threading.get_ident()
    assert calls == [
        (me, snr, child_seed(5150, i, j)) for i, snr in enumerate((8.0, 18.0)) for j in range(3)
    ]


def test_sweep_aggregates_each_snr_point_before_the_next_starts(monkeypatch):
    """A sweep holds one SNR point's trial results at a time: every row of
    point i is built before any trial of point i+1 runs."""
    cfg = small_cfg()
    events = []
    real_trial, real_row = harness._paired_trial, harness.SweepRow

    def trial(run, snr_db, seed):
        events.append(("trial", snr_db))
        return real_trial(run, snr_db, seed)

    def row(**kw):
        events.append(("row", kw["snr_db"]))
        return real_row(**kw)

    monkeypatch.setattr(harness, "_paired_trial", trial)
    monkeypatch.setattr(harness, "SweepRow", row)
    snr_sweep(cfg, cfg.profile, (5.0, 15.0, 25.0), ("ls-interp", "ideal"), 2, 9)
    assert events == [
        (kind, snr) for snr in (5.0, 15.0, 25.0) for kind in ("trial",) * 2 + ("row",) * 2
    ]


def test_a_paired_trial_takes_the_period_magnitude_once(monkeypatch):
    """csf-ongrid's detection and csf-offgrid's detection and recovery all
    read the one period of the trial, so |p| is computed once."""
    cfg = default_config()
    calls = []

    def magnitude(p):
        calls.append(p)
        return real(p)

    real = grids.PeriodCSF.magnitude.func
    counted = functools.cached_property(magnitude)
    counted.__set_name__(grids.PeriodCSF, "magnitude")
    monkeypatch.setattr(grids.PeriodCSF, "magnitude", counted)
    for seed in range(3):
        harness._paired_trial(cfg, 10.0, seed)
    assert len(calls) == 3 and len({id(p) for p in calls}) == 3


def test_a_paired_trial_takes_the_column_peaks_once(monkeypatch):
    """csf-ongrid's detection, csf-offgrid's detection and its recovery's
    argmax rows and floor all read one cached pair of column peaks: |p| is
    reduced over its Doppler axis once per trial."""
    cfg = default_config()
    calls, reductions = [], []

    class Counted(np.ndarray):
        def max(self, *args, **kw):
            reductions.append("max")
            return super().max(*args, **kw)

        def argmax(self, *args, **kw):
            reductions.append("argmax")
            return super().argmax(*args, **kw)

    def magnitude(p):
        return real_magnitude(p).view(Counted)

    def column_peaks(p):
        calls.append(p)
        return tuple(np.asarray(a) for a in real_peaks(p))

    real_magnitude = grids.PeriodCSF.magnitude.func
    real_peaks = grids.PeriodCSF.column_peaks.func
    for name, func in (("magnitude", magnitude), ("column_peaks", column_peaks)):
        counted = functools.cached_property(func)
        counted.__set_name__(grids.PeriodCSF, name)
        monkeypatch.setattr(grids.PeriodCSF, name, counted)
    for seed in range(3):
        harness._paired_trial(cfg, 10.0, seed)
    assert len(calls) == 3 and len({id(p) for p in calls}) == 3
    assert reductions == ["argmax"] * 3


def test_column_peaks_are_the_read_only_column_maxima():
    cfg = default_config()
    p = harness._Trial(cfg, 10.0, 5).period
    rows, peaks = p.column_peaks
    assert np.array_equal(peaks, p.magnitude.max(axis=0))
    assert np.array_equal(rows, p.magnitude.argmax(axis=0))
    assert not rows.flags.writeable and not peaks.flags.writeable


@pytest.mark.parametrize("threads", ["2", "-1", "1000000"])
def test_a_threads_line_is_accepted_and_ignored(tmp_path, threads):
    """Files from when sweeps had worker threads still load, to the same
    config and the same CSV bytes: the value drives nothing."""
    plain, old = tmp_path / "plain.cfg", tmp_path / "old.cfg"
    plain.write_text(SMALL_CFG_TEXT, encoding="utf-8")
    old.write_text(SMALL_CFG_TEXT + f"threads = {threads}\n", encoding="utf-8")
    assert load_config(str(old)) == load_config(str(plain))
    csvs = []
    for cfg_path in (plain, old):
        out = tmp_path / f"{cfg_path.stem}.csv"
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_sweep_matches_golden_csv(tmp_path):
    cfg = small_cfg()
    table = snr_sweep(cfg, cfg.profile, (10.0, 30.0), cfg.estimators, 2, 424242)
    out = tmp_path / "sweep.csv"
    write_csv(table, str(out))
    golden = open(os.path.join(DATA_DIR, "golden_small.csv"), "rb").read()
    assert out.read_bytes() == golden


def test_csv_formatting_rules():
    rows = (
        SweepRow(10.0, "ideal", 0.125, 0.25, 0.0009765625, 4, 0.0001220703125),
        SweepRow(-2.5, "ls-interp", 1.0 / 3.0, 0.0, 1.0, 1, 0.0),
    )
    text = format_csv(SweepTable(rows))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "10,ideal,0.125,0.25,0.0009765625,4,0.0001220703125"
    assert lines[2] == "-2.5,ls-interp,0.3333333333,0,1,1,0"
    assert text.endswith("\n") and "\r" not in text


def test_write_csv_uses_unix_line_endings(tmp_path):
    rows = (SweepRow(0.0, "ideal", 0.0, 0.0, 0.5, 1, 0.0),)
    path = tmp_path / "t.csv"
    write_csv(SweepTable(rows), str(path))
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw


def test_table_lookup_errors():
    rows = (SweepRow(0.0, "ideal", 0.0, 0.0, 0.5, 1, 0.0),)
    table = SweepTable(rows)
    assert table.by(0.0, "ideal") is rows[0]
    with pytest.raises(KeyError):
        table.by(5.0, "ideal")


def test_verify_suite_all_green_and_report_shape():
    report = verify_suite()
    assert report.all_pass
    lines = report.render().splitlines()
    assert len(lines) == 7
    names = []
    for line in lines:
        m = re.fullmatch(r"CHECK ([a-z_]+) (PASS|FAIL) max_err=(\S+)", line)
        assert m, line
        names.append(m.group(1))
        assert m.group(2) == "PASS"
    assert names == [
        "transform_roundtrip",
        "lattice_kernel_ongrid",
        "period_is_periodic",
        "alias_difference",
        "ongrid_exact_recovery",
        "offgrid_recovery_sweep",
        "perfect_csi_ber",
    ]
    assert report.render().endswith("\n")


def test_verify_catches_out_of_support_placement():
    # Doppler +4 lies outside the centered period of a 16x16, spacing-2 grid
    res = check_ongrid_exact_recovery(placements=[(4, 0)])
    assert not res.passed
    assert res.max_err > 1e-6
