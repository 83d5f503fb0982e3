"""End-to-end checks of the ddce command line (in-process via main())."""

import contextlib
import io
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddce import harness
from ddce.cli import main
from ddce.config import ESTIMATOR_NAMES

PAPER_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "paper.cfg")

FAST_CFG = """\
M = 32
N = 16
delta_f_hz = 15e3
f_c_hz = 2.1e9
v_kmh = 250.0
d_t = 4
d_f = 4
tap_delays_ns = 0.0, 4166.666666666667
tap_powers_db = 0.0, -3.0
estimators = ls-interp, ideal
snr_db = 10.0, 20.0
n_trials = 2
master_seed = 7
threads = 1
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return str(path)


def test_help_lists_subcommands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("simulate", "sweep", "verify"):
        assert name in out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_missing_required_argument_is_usage_error(capsys):
    assert main(["simulate", "--snr", "10"]) == 2


def test_unknown_estimator_rejected(cfg_file, capsys):
    rc = main([
        "simulate", "--config", cfg_file,
        "--estimator", "zero-forcing", "--snr", "10", "--seed", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    for line in err.splitlines():
        assert line.startswith("error: ")
    assert "zero-forcing" in err
    for name in ("ls-interp", "mmse-genie", "csf-ongrid", "csf-offgrid", "ideal"):
        assert name in err


@pytest.mark.parametrize("snr", ["nan", "-inf"])
def test_simulate_rejects_nonfinite_snr(cfg_file, capsys, snr):
    rc = main([
        "simulate", "--config", cfg_file,
        "--estimator", "ideal", f"--snr={snr}", "--seed", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --snr must be finite")


def test_sweep_rejects_nonfinite_config_snr(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG.replace("snr_db = 10.0, 20.0", "snr_db = 10.0, -inf"))
    rc = main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error: snr_db must be finite and >= -3000.0, or +inf, got -inf" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_missing_config_file(capsys):
    rc = main([
        "simulate", "--config", "/no/such/file.cfg",
        "--estimator", "ideal", "--snr", "10", "--seed", "1",
    ])
    assert rc == 1
    assert "error: cannot read config file" in capsys.readouterr().err


def test_config_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(("# café\n" + FAST_CFG).encode("latin-1"))
    assert main(["verify", "--config", str(bad)]) == 1
    assert "error: cannot read config file: 'utf-8' codec" in capsys.readouterr().err


def test_config_violations_reported(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG.replace("v_kmh = 250.0", "v_kmh = 5000.0"))
    rc = main([
        "simulate", "--config", str(bad),
        "--estimator", "ideal", "--snr", "10", "--seed", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Doppler support violated" in err
    for line in err.splitlines():
        assert line.startswith("error: ")


@pytest.mark.parametrize(
    "edit,estimator,message",
    [
        ({"M = 32": "M = 4096", "N = 16": "N = 4096", "d_t = 4": "d_t = 1", "d_f = 4": "d_f = 1"},
         None, "resource elements"),
        pytest.param({"n_trials = 2": "n_trials = 100001"}, None,
                     "n_trials must be between 1 and 100000, got 100001", id="n_trials=100001"),
        ({"ls-interp, ideal": "ideal, ideal"}, None, "estimators must not repeat"),
        ({"M = 32": "M = 256", "N = 16": "N = 256"}, "mmse-genie", "mmse-genie needs n_pilot"),
        # past the float range: the int rule stops the float-valued support rules;
        # ids naming the input, so that rewording a message renames no test
        pytest.param({"M = 32": "M = 1" + "0" * 400}, None, "M must lie within the float64 range",
                     id="M=10**400"),
        pytest.param({"N = 16": "N = 1" + "0" * 400}, None, "N must lie within the float64 range",
                     id="N=10**400"),
    ],
)
def test_resource_bounds_exit_1_before_any_work(tmp_path, capsys, edit, estimator, message):
    """A sweep (estimator None) or a simulate run of one estimator is refused
    at validation; nothing of these sizes is ever built."""
    text = FAST_CFG
    for old, new in edit.items():
        text = text.replace(old, new)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    if estimator is None:
        argv = ["sweep", "--config", str(bad), "--out", str(tmp_path / "out.csv")]
    else:
        argv = ["simulate", "--config", str(bad), "--estimator", estimator, "--snr", "10",
                "--seed", "1"]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_simulate_prints_result_line(cfg_file, capsys):
    rc = main([
        "simulate", "--config", cfg_file,
        "--estimator", "ls-interp", "--snr", "10", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out.rstrip("\n")
    assert re.fullmatch(
        r"snr_db=10 estimator=ls-interp mse=\S+ nmse=\S+ ber=\S+ "
        r"n_bits=\d+ near_singular=\d+ seed=3 failed=(true|false)",
        out,
    ), out


def test_simulate_optional_csv(cfg_file, tmp_path, capsys):
    out_path = tmp_path / "one.csv"
    rc = main([
        "simulate", "--config", cfg_file,
        "--estimator", "ideal", "--snr", "20", "--seed", "0",
        "--out", str(out_path),
    ])
    assert rc == 0
    capsys.readouterr()
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("snr_db,estimator,")
    assert lines[1].startswith("20,ideal,0,0,")


def test_sweep_writes_csv_and_reports(cfg_file, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", cfg_file, "--out", str(out_path)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote {out_path} (4 rows)\n"
    lines = out_path.read_text().splitlines()
    assert len(lines) == 5  # header + 2 snr x 2 estimators


def test_sweep_is_reproducible(cfg_file, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg_file, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg_file, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_unwritable_output(cfg_file, tmp_path, capsys, monkeypatch):
    """An --out that cannot be written fails before the first trial."""

    def no_trial(*args):
        raise AssertionError("a trial ran before --out was checked")

    monkeypatch.setattr(harness, "_paired_trial", no_trial)
    out = tmp_path / "no_dir" / "x.csv"
    rc = main(["sweep", "--config", cfg_file, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: cannot write --out '{out}': No such file or directory\n"
    )


def test_sweep_out_check_leaves_an_existing_file_until_the_table_is_written(
    cfg_file, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    seen = []
    real = harness._paired_trial

    def spy(*args):
        seen.append(out.read_text())
        return real(*args)

    monkeypatch.setattr(harness, "_paired_trial", spy)
    assert main(["sweep", "--config", cfg_file, "--out", str(out)]) == 0
    assert set(seen) == {"old\n"}
    assert out.read_text().startswith("snr_db,estimator,")


@pytest.mark.parametrize("existed", [False, True], ids=["new-path", "existing-file"])
def test_a_failed_sweep_removes_only_an_out_file_its_check_created(
    cfg_file, tmp_path, capsys, monkeypatch, existed
):
    """An empty CSV left behind would look like a result; a file that was
    already there stays as it was."""
    out = tmp_path / "x.csv"
    if existed:
        out.write_text("old\n")

    def fail(*args):
        assert out.exists()  # the check has opened the path before the first trial
        raise RuntimeError("trial failed")

    monkeypatch.setattr(harness, "_paired_trial", fail)
    assert main(["sweep", "--config", cfg_file, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: trial failed\n"
    if existed:
        assert out.read_text() == "old\n"
    else:
        assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "delays, powers", [("0.0", "4000"), ("0.0, 4166.666666666667", "-4000, -4000")]
)
def test_sweep_rejects_a_tap_power_past_the_float_range(tmp_path, capsys, delays, powers):
    """10**(p/10) would overflow or vanish for every tap: exit 1 at load,
    before a trial could warn."""
    text = FAST_CFG.replace("tap_delays_ns = 0.0, 4166.666666666667", f"tap_delays_ns = {delays}")
    path = tmp_path / "loud.cfg"
    path.write_text(text.replace("tap_powers_db = 0.0, -3.0", f"tap_powers_db = {powers}"))
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: tap powers must peak within +-3000 dB")


def test_verify_passes_on_shipped_config(capsys):
    rc = main(["verify", "--config", PAPER_CFG])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    for line in lines:
        assert re.fullmatch(r"CHECK [a-z_]+ PASS max_err=\S+", line), line


def test_verify_refuses_a_config_with_the_old_modulation_key(tmp_path, capsys):
    """verify loads --config although its checks use fixed shapes, so a file
    that still sets the deleted `modulation` key exits 1."""
    bad = tmp_path / "old.cfg"
    bad.write_text(FAST_CFG + "modulation = qam4\n")
    assert main(["verify", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 15: unknown key 'modulation'\n"
    assert captured.out == ""


_SIMULATE = {"--estimator": "ideal", "--snr": "10", "--seed": "1"}


@pytest.mark.parametrize(
    "edit,flags,message",
    [
        ({"master_seed = 7": "master_seed = -1"}, None, "master_seed must be >= 0, got -1"),
        ({}, {"--seed": "-1"}, "master_seed must be >= 0, got -1"),
        pytest.param({"snr_db = 10.0, 20.0": "snr_db = 10.0, -4000"}, None,
                     "snr_db must be finite and >= -3000.0, or +inf, got -4000.0", id="snr_db=-4000"),
        ({}, {"--snr": "-4000"}, "--snr must be finite"),
        ({"4166.666666666667": "1e300"}, None, "exceeds M/d_f - 1"),
        ({"delta_f_hz = 15e3": "delta_f_hz = inf"}, {}, "delta_f_hz must be positive and finite"),
    ],
)
def test_bad_seed_snr_or_delay_exits_1(tmp_path, capsys, edit, flags, message):
    """A sweep (flags None) or a simulate run with these flags is refused at
    validation, with a message that names the setting."""
    text = FAST_CFG
    for old, new in edit.items():
        text = text.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    if flags is None:
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    else:
        argv = ["simulate", "--config", str(cfg)]
        for flag, value in dict(_SIMULATE, **flags).items():
            argv.append(f"{flag}={value}")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert all(line.startswith("error: ") for line in err.splitlines())
    assert not (tmp_path / "out.csv").exists()


_SEEDS = st.one_of(
    st.integers(-(2**70), 2**70).map(str), st.sampled_from(("-1", "1.5", "abc", ""))
)
_SNRS = st.one_of(
    st.sampled_from(("nan", "inf", "-inf", "-4000", "-3082.6", "-3000.1", "1e309", "ten")),
    st.floats(-50.0, 50.0).map(repr),
)
_NAMES = st.one_of(st.sampled_from(ESTIMATOR_NAMES), st.text(min_size=1, max_size=8))


@st.composite
def _invocations(draw):
    """A command line and the config text it reads (None: no such file)."""
    text = FAST_CFG.replace("master_seed = 7", f"master_seed = {draw(_SEEDS)}")
    text = text.replace("snr_db = 10.0, 20.0", f"snr_db = 10.0, {draw(_SNRS)}")
    text = text.replace("ls-interp, ideal", f"ls-interp, {draw(_NAMES)}")
    text = draw(st.sampled_from((text, FAST_CFG, None)))
    command = draw(st.sampled_from(("simulate", "sweep", "verify")))
    if command == "simulate":
        flags = [
            f"--estimator={draw(_NAMES)}", f"--snr={draw(_SNRS)}", f"--seed={draw(_SEEDS)}"
        ]
    elif command == "sweep":
        flags = ["--out", "{dir}/out.csv"]
    else:
        flags = []
    return text, [command, "--config", "{dir}/run.cfg", *flags]


@settings(max_examples=60, deadline=None, database=None)
@given(_invocations())
def test_cli_exits_with_a_documented_code_and_no_traceback(case):
    """Bad seeds, SNRs, estimator names and missing files end in exit code
    0, 1, 2 or 3, never in an escaped exception.  Each is refused by the
    argument parser (2, with its usage line) or by validation (1), never by
    a runtime error from inside a run."""
    text, argv = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            with open(os.path.join(tmp, "run.cfg"), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if rc == 1:
        assert err.getvalue().startswith("error: ")
    if rc == 2:
        assert "usage:" in err.getvalue()
