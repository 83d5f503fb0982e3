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
from ddce.config import ESTIMATOR_NAMES, MIN_SNR_DB, load_config, with_overrides
from helpers import PAPER_CFG, edit_cfg, no_trial, rule_message, small_cfg_text, write_cfg

FAST_CFG = small_cfg_text(estimators="ls-interp, ideal", snr_db="10.0, 20.0", n_trials=2, master_seed=7,
                          threads=1)


@pytest.fixture
def cfg_file(tmp_path):
    return write_cfg(tmp_path, FAST_CFG, "fast.cfg")


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


def test_simulate_prints_result_line_and_writes_the_optional_csv(cfg_file, tmp_path, capsys):
    out_path = tmp_path / "one.csv"
    rc = main([
        "simulate", "--config", cfg_file,
        "--estimator", "ideal", "--snr", "20", "--seed", "3",
        "--out", str(out_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out.rstrip("\n")
    assert re.fullmatch(
        r"snr_db=20 estimator=ideal mse=\S+ nmse=\S+ ber=\S+ "
        r"n_bits=\d+ near_singular=\d+ seed=3 failed=(true|false)",
        out,
    ), out
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("snr_db,estimator,")
    assert lines[1].startswith("20,ideal,0,0,")


def test_sweep_writes_csv_and_reports_and_is_reproducible(cfg_file, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg_file, "--out", str(a)]) == 0
    assert capsys.readouterr().out == f"wrote {a} (4 rows)\n"
    assert len(a.read_text().splitlines()) == 5  # header + 2 snr x 2 estimators
    assert main(["sweep", "--config", cfg_file, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_unwritable_output(cfg_file, tmp_path, capsys, monkeypatch):
    """An --out that cannot be written fails before the first trial."""
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


def test_verify_passes_on_shipped_config(capsys):
    rc = main(["verify", "--config", PAPER_CFG])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    for line in lines:
        assert re.fullmatch(r"CHECK [a-z_]+ PASS max_err=\S+", line), line


_SIMULATE = {"--estimator": "ideal", "--snr": "10", "--seed": "1"}
# name: (command, simulate flags over _SIMULATE's, the config file as edits of
# FAST_CFG, as raw bytes, or None for no file, the refusal's owner): None when
# load_config refuses the file, the fields whose with_overrides of the loaded
# config a flag's run_trial refuses, or the command line's own --snr text
_REFUSED = {
    "estimator=zero-forcing": ("simulate", {"--estimator": "zero-forcing"}, {},
                               dict(estimators=("zero-forcing",))),
    "seed=-1": ("simulate", {"--seed": "-1"}, {}, dict(master_seed=-1)),
    "mmse-genie-on-4096-pilots": ("simulate", {"--estimator": "mmse-genie"}, dict(M=256, N=256),
                                  dict(estimators=("mmse-genie",))),
    **{f"snr={snr}": ("simulate", {"--snr": snr}, {},
                      f"--snr must be finite and >= {MIN_SNR_DB} dB, or inf (noiseless), got {float(snr)}")
       for snr in ("nan", "-inf", "-4000")},
    "delta_f_hz=inf": ("simulate", {}, dict(delta_f_hz="inf"), None),
    "v_kmh=5000": ("simulate", {}, dict(v_kmh=5000.0), None),
    "no-file": ("simulate", {}, None, None),
    "snr_db=-inf": ("sweep", {}, dict(snr_db="10.0, -inf"), None),
    "snr_db=-4000": ("sweep", {}, dict(snr_db="10.0, -4000"), None),
    "master_seed=-1": ("sweep", {}, dict(master_seed=-1), None),
    "delay=1e300": ("sweep", {}, dict(tap_delays_ns="0.0, 1e300"), None),
    "grid-past-bound": ("sweep", {}, dict(M=4096, N=4096, d_t=1, d_f=1), None),
    "n_trials=100001": ("sweep", {}, dict(n_trials=100001), None),
    "repeated-estimator": ("sweep", {}, dict(estimators="ideal, ideal"), None),
    "M=10**400": ("sweep", {}, dict(M="1" + "0" * 400), None),
    "N=10**400": ("sweep", {}, dict(N="1" + "0" * 400), None),
    # 10**(p/10) would overflow or vanish for every tap
    "tap-power=4000": ("sweep", {}, dict(tap_delays_ns="0.0", tap_powers_db="4000"), None),
    "tap-powers=-4000": ("sweep", {}, dict(tap_powers_db="-4000, -4000"), None),
    "not-utf8": ("verify", {}, ("# café\n" + FAST_CFG).encode("latin-1"), None),
    # verify loads --config although its checks use fixed shapes
    "modulation-key": ("verify", {}, dict(modulation="qam4"), None),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_a_refused_run_exits_1_with_the_library_message_before_any_work(
    tmp_path, capsys, monkeypatch, case
):
    """Each stderr line is `error: ` and a line of the refusal's owner's
    message: the ConfigError of load_config or of with_overrides for the
    same file and flags, or the command line's own --snr rule.  Nothing
    else is printed or written, and no trial starts."""
    command, flags, text, owner = _REFUSED[case]
    path = tmp_path / "run.cfg" if text is not None else "/no/such/file.cfg"
    out = tmp_path / "out.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        write_cfg(tmp_path, edit_cfg(FAST_CFG, **text), path.name)
    flags = dict(_SIMULATE, **flags) if command == "simulate" else {}
    argv = [command, "--config", str(path), *(f"{flag}={value}" for flag, value in flags.items())]
    argv += ["--out", str(out)] if command == "sweep" else []
    if owner is None:
        owner = rule_message(load_config, str(path))
    elif isinstance(owner, dict):
        owner = rule_message(with_overrides, load_config(str(path)), **owner)
    monkeypatch.setattr(harness, "_paired_trial", no_trial)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "".join(f"error: {line}\n" for line in owner.splitlines()))
    assert not out.exists()


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
    text = edit_cfg(FAST_CFG, master_seed=draw(_SEEDS), snr_db=f"10.0, {draw(_SNRS)}",
                    estimators=f"ls-interp, {draw(_NAMES)}")
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
