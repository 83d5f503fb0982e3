"""Command-line front end: simulate / sweep / verify.

Exit codes: 0 success, 1 config error (including an unknown estimator name),
2 runtime error, 3 when the verify report contains a FAIL line.  All error
text goes to stderr, each line carrying the prefix `error:`.
"""

from __future__ import annotations

import argparse
import sys

from .config import ESTIMATOR_NAMES, MIN_SNR_DB, load_config, snr_is_valid
from .errors import ConfigError
from .harness import SweepRow, SweepTable, run_trial, snr_sweep, verify_suite, write_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddce",
        description="Delay-Doppler domain channel estimation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="run a single seeded trial and print its result",
        description="Run one seeded trial for one estimator and print the result line.",
    )
    sim.add_argument("--config", required=True, help="path to a key = value config file")
    sim.add_argument(
        "--estimator",
        required=True,
        help=f"estimator name, one of: {', '.join(ESTIMATOR_NAMES)}",
    )
    sim.add_argument("--snr", type=float, required=True, help="SNR in dB for this trial")
    sim.add_argument("--seed", type=int, required=True, help="trial seed")
    sim.add_argument("--out", default=None, help="optional CSV path for the single-trial row")

    swp = sub.add_parser(
        "sweep",
        help="run the configured Monte-Carlo SNR sweep",
        description="Run the full sweep from the config file and write the CSV table.",
    )
    swp.add_argument("--config", required=True, help="path to a key = value config file")
    swp.add_argument("--out", required=True, help="CSV output path")

    ver = sub.add_parser(
        "verify",
        help="run the analytic self-checks and print the report",
        description="Run the self-verification suite; exits 3 if any check fails.",
    )
    ver.add_argument("--config", required=True, help="path to a key = value config file")
    return parser


def _errline(msg) -> None:
    for line in str(msg).splitlines() or [""]:
        print(f"error: {line}", file=sys.stderr)


def _trial_line(res) -> str:
    return (
        f"snr_db={res.snr_db:.10g} estimator={res.estimator} mse={res.mse:.10g} "
        f"nmse={res.nmse:.10g} ber={res.ber:.10g} n_bits={res.n_bits} "
        f"near_singular={res.near_singular_count} seed={res.seed} "
        f"failed={'true' if res.failed else 'false'}"
    )


def _cmd_simulate(args) -> int:
    if not snr_is_valid(args.snr):
        _errline(f"--snr must be finite and >= {MIN_SNR_DB} dB, or inf (noiseless), got {args.snr}")
        return 1
    cfg = load_config(args.config)
    res = run_trial(cfg, cfg.profile, args.snr, args.estimator, args.seed)
    print(_trial_line(res))
    if args.out is not None:
        row = SweepRow(
            snr_db=res.snr_db,
            estimator=res.estimator,
            mean_mse=res.mse,
            mean_nmse=res.nmse,
            mean_ber=res.ber,
            n_trials=1,
            ci95_ber=0.0,
        )
        write_csv(SweepTable((row,)), args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:  # before any trial; append mode leaves an existing file as it is
        open(args.out, "a").close()
    except OSError as exc:
        raise OSError(f"cannot write --out '{args.out}': {exc.strerror or exc}") from None
    table = snr_sweep(
        cfg, cfg.profile, cfg.snr_db, cfg.estimators, cfg.n_trials, cfg.master_seed
    )
    write_csv(table, args.out)
    print(f"wrote {args.out} ({len(table.rows)} rows)")
    return 0


def _cmd_verify(args) -> int:
    load_config(args.config)  # a bad file still exits 1
    report = verify_suite()
    sys.stdout.write(report.render())
    return 0 if report.all_pass else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return 0 if not exc.code else 2
    handlers = {"simulate": _cmd_simulate, "sweep": _cmd_sweep, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        _errline(exc)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _errline(exc)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
