"""Traced run: per-layer timings from a replay of the sweep's own trials.

Each round replays every trial of a 9 x TRACE_TRIALS sub-sweep with public
ddce calls, in the draw order of the harness's paired trial (child_seed ->
bits -> build_frame -> gen_paths -> channel -> every estimator ->
equalize + demod), timing each call serially.  Calls made inside
estimate_csf are timed through wrappers placed, for the round only, on the
module attributes it looks up.  Spans are kept in memory and written to
.sweepbench/trace-<workload>-<seed>.json at the end.

Checks, each counted in `attempted` and `failed`:
- replay fidelity: every replayed estimator's MSE and BER equal
  run_trial(cfg, cfg.profile, snr, name, seed) bit for bit;
- thread-count invariance: the threads = 1 and threads = 2 sub-sweeps write
  the same CSV bytes.

A function named below that is missing at a later commit makes its layer
metrics absent (reported as 0 and listed on the `absent:` line), and
counts in trace.missing_functions; the other metrics are still emitted.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from common import WORK_DIR, describe, run_sweep, write_config

TRACE_TRIALS = 12  # 9 SNR points x 12 = 108 trials a round, enough for a p90
LOAD_CONFIG_CALLS = 200

# Timed calls: (module, attribute, layer metric).  The attribute is wrapped
# where its caller looks it up, so csf_closed_form is wrapped in the
# estimators namespace that csf_reconstruct reads it from.
WRAPPED = (
    ("channel", "gen_paths", "channel.gen_paths"),
    ("channel", "apply_channel_diag", "channel.apply_diag"),
    ("channel", "apply_channel_full", "channel.apply_full"),
    ("channel", "ctf_from_paths", "channel.ctf_from_paths"),
    ("txrx", "build_frame", "txrx.build_frame"),
    ("estimators", "ls_pilot", "estimators.ls_pilot"),
    ("estimators", "interp_linear", "estimators.interp_linear"),
    ("estimators", "genie_correlations", "estimators.genie_correlations"),
    ("estimators", "mmse_estimate", "estimators.mmse_estimate"),
    ("estimators", "periodic_csf", "estimators.periodic_csf"),
    ("estimators", "estimate_num_paths", "estimators.estimate_num_paths"),
    ("estimators", "recover_paths_offgrid", "estimators.recover_paths_offgrid"),
    ("estimators", "csf_closed_form", "kernels.csf_closed_form"),
    ("grids", "isfft", "grids.isfft"),
)

# Layer metrics reported as .p50_ms and .p90_ms.  Each is the per-trial total
# of its calls, except the PER_CALL ones.  estimate_csf and equalize + demod
# are timed by spans around the replay's own calls.
STAGES = (
    "channel.gen_paths",
    "channel.apply_diag",
    "channel.apply_full",
    "channel.ctf_from_paths",
    "txrx.build_frame",
    "txrx.equalize_demod",
    "estimators.ls_pilot",
    "estimators.interp_linear",
    "estimators.genie_correlations",
    "estimators.mmse_estimate",
    "estimators.periodic_csf",
    "estimators.recover_paths_offgrid",
    "estimators.estimate_csf.ongrid",
    "estimators.estimate_csf.offgrid",
    "kernels.csf_closed_form",
    "grids.isfft",
    "config.load_config",
)
PER_CALL = {"txrx.equalize_demod", "config.load_config"}

# What the replay itself calls: the shared front end, then each estimator.
NEEDS = {
    "front": (
        "harness.child_seed", "harness.run_trial", "txrx.PilotPattern", "txrx.make_layout",
        "txrx.qam4_mod", "txrx.build_frame", "txrx.equalize_single_tap", "txrx.qam4_demod",
        "channel.gen_paths", "channel.apply_channel_diag", "channel.apply_channel_full",
        "channel.ctf_from_paths", "config.load_config",
    ),
    "ideal": (),
    "ls-interp": ("estimators.ls_pilot", "estimators.interp_linear"),
    "mmse-genie": (
        "estimators.ls_pilot", "estimators.genie_correlations", "estimators.mmse_estimate",
    ),
    "csf-ongrid": ("estimators.estimate_csf", "grids.isfft"),
    "csf-offgrid": ("estimators.estimate_csf", "grids.isfft"),
}

OTHER_UNITS = {
    "harness.pool_speedup": "ratio",
    "harness.overhead_frac": "fraction",
    "estimators.detect_ratio": "ratio",
    "estimators.offgrid_truncated_frac": "fraction",
    "txrx.near_singular_per_trial": "count",
    "trace.trials": "count",
    "trace.missing_functions": "count",
}


class Tracer:
    """Spans (trial, name, start, end, parent span index), kept in memory,
    plus the csf-offgrid detection counts of the same calls."""

    def __init__(self):
        self.spans = []
        self.trial = -1
        self.detected = []  # estimate_num_paths results
        self.true_paths = []  # true path count at each csf-offgrid call
        self.truncated = []  # estimate_csf(..., "offgrid").truncated
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (self.trial, name, start, end, parent)

    def wrap(self, name: str, fn):
        counts = self.detected if name == "estimators.estimate_num_paths" else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counts is not None:
                counts.append(out)
            return out

        return timed


@contextlib.contextmanager
def instrumented(ddce, tracer: Tracer):
    """Replace the WRAPPED module attributes by timing wrappers, and put the
    originals back on exit."""
    saved = []
    try:
        for module, attr, stage in WRAPPED:
            mod = getattr(ddce, module)
            fn = getattr(mod, attr, None)
            if fn is not None:
                saved.append((mod, attr, fn))
                setattr(mod, attr, tracer.wrap(stage, fn))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


@dataclass
class Trial:
    """What every estimator of one paired trial sees."""

    cfg: object
    x: object
    y: object
    ps: object
    layout: object
    noise_var: float
    h_true: object


def _ls_interp(ddce, tracer, t: Trial):
    est = ddce.estimators
    return est.interp_linear(est.ls_pilot(t.y, t.x, t.layout), t.cfg)


def _mmse_genie(ddce, tracer, t: Trial):
    est = ddce.estimators
    corr = est.genie_correlations(t.ps, t.cfg, t.layout)
    return est.mmse_estimate(est.ls_pilot(t.y, t.x, t.layout), corr, t.noise_var, t.cfg).grid


def _csf(mode):
    def estimate(ddce, tracer, t: Trial):
        with tracer.span(f"estimators.estimate_csf.{mode}"):
            res = ddce.estimators.estimate_csf(t.y, t.x, t.layout, t.cfg, mode, t.noise_var)
        if mode == "offgrid":
            tracer.truncated.append(res.truncated)
            tracer.true_paths.append(len(t.ps))
        return ddce.grids.isfft(res.full_dd, t.cfg)

    return estimate


ESTIMATORS = {
    "ls-interp": _ls_interp,
    "mmse-genie": _mmse_genie,
    "csf-ongrid": _csf("ongrid"),
    "csf-offgrid": _csf("offgrid"),
    "ideal": lambda ddce, tracer, t: t.h_true,
}


def replay_trial(ddce, tracer, cfg, snr_db, names, seed):
    """One paired trial, drawing from the RNG in the harness's order.

    Returns {estimator: (mse, ber, near-singular count)}.
    """
    txrx, channel = ddce.txrx, ddce.channel
    rng = np.random.default_rng(seed)
    pattern = txrx.PilotPattern(cfg.d_t, cfg.d_f)
    layout = txrx.make_layout(pattern, cfg)
    bits = rng.integers(0, 2, 2 * layout.n_data)
    x, layout = txrx.build_frame(txrx.qam4_mod(bits), pattern, cfg)
    ps = channel.gen_paths(cfg, cfg.profile, rng)
    noise_var = float(10.0 ** (-snr_db / 10.0))
    if cfg.channel_model == "full":
        y = channel.apply_channel_full(x, ps, noise_var, rng)
    else:
        y = channel.apply_channel_diag(x, ps, noise_var, rng)
    h_true = channel.ctf_from_paths(ps, cfg)
    trial = Trial(cfg, x, y, ps, layout, noise_var, h_true)
    out = {}
    for name in names:
        h_hat = ESTIMATORS[name](ddce, tracer, trial)
        with tracer.span("txrx.equalize_demod"):
            x_hat, n_sing = txrx.equalize_single_tap(y, h_hat, layout)
            ber = float(np.mean(txrx.qam4_demod(x_hat) != bits))
        mse = float(np.mean(np.abs(h_hat.data - h_true.data) ** 2))
        out[name] = (mse, ber, n_sing)
    return out


def _has(ddce, dotted: str) -> bool:
    module, attr = dotted.split(".")
    return hasattr(getattr(ddce, module), attr)


def _stage_samples(tracer: Tracer, load_s: list) -> dict:
    """Samples in seconds for every STAGES entry that ran at least once."""
    out = {"config.load_config": load_s} if load_s else {}
    per_trial = {}  # stage -> {trial: summed seconds}
    for trial_id, name, begin, end, _ in tracer.spans:
        if name in PER_CALL:
            out.setdefault(name, []).append(end - begin)
        else:
            sums = per_trial.setdefault(name, {})
            sums[trial_id] = sums.get(trial_id, 0.0) + (end - begin)
    for name, sums in per_trial.items():
        out[name] = [sums.get(t, 0.0) for t in range(tracer.trial + 1)]
    return out


def _ratio(num, den):
    return num / den if den else None


def traced_run(ddce, workload: str, seed: int, seconds: float, tmp: str):
    needed = {f for group in NEEDS.values() for f in group}
    needed |= {f"{m}.{a}" for m, a, _ in WRAPPED}
    missing = sorted(f for f in needed if not _has(ddce, f))

    def cfg_file(name, master, threads):
        return write_config(os.path.join(tmp, name), workload, master, TRACE_TRIALS, threads)

    load_s, names = [], []
    load_path = cfg_file("load.cfg", seed, 2)
    if _has(ddce, "config.load_config"):
        load_config = ddce.config.load_config
        for _ in range(LOAD_CONFIG_CALLS):
            t0 = time.perf_counter()
            load_config(load_path)
            load_s.append(time.perf_counter() - t0)
    if not any(f in missing for f in NEEDS["front"]):
        cfg = load_config(load_path)
        names = [n for n in cfg.estimators if all(_has(ddce, f) for f in NEEDS[n])]
        for name in names:  # warm-up: layout cache, FFT and BLAS set-up
            ddce.harness.run_trial(cfg, cfg.profile, cfg.snr_db[0], name, seed)

    tracer = Tracer()
    near_singular, overhead, speedup = [], [], []
    attempted = failed = rounds = 0
    errors = []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        master = seed + rounds
        rounds += 1
        serial_cfg = cfg_file("serial.cfg", master, 1)
        replayed = 0.0  # seconds in top-level spans
        if names:
            cfg = load_config(serial_cfg)
            trials = [
                (snr, ddce.harness.child_seed(master, i, j))
                for i, snr in enumerate(cfg.snr_db)
                for j in range(cfg.n_trials)
            ]
            first_span = len(tracer.spans)
            with instrumented(ddce, tracer):
                results = []
                for snr, trial_seed in trials:
                    tracer.trial += 1
                    results.append(replay_trial(ddce, tracer, cfg, snr, names, trial_seed))
            replayed = sum(e - b for _, _, b, e, parent in tracer.spans[first_span:] if parent == -1)
            for (snr, trial_seed), res in zip(trials, results):
                near_singular.append(sum(n for _, _, n in res.values()))
                for name, (mse, ber, _) in res.items():
                    want = ddce.harness.run_trial(cfg, cfg.profile, snr, name, trial_seed)
                    attempted += 1
                    if (want.mse, want.ber) != (mse, ber):
                        failed += 1
                        errors.append(
                            f"replay differs from run_trial: {name} snr={snr} seed={trial_seed} "
                            f"mse {mse!r} vs {want.mse!r}, ber {ber!r} vs {want.ber!r}"
                        )

        wall1, _, csv1, err1 = run_sweep(ddce, serial_cfg, os.path.join(tmp, "t1.csv"))
        wall2, _, csv2, err2 = run_sweep(
            ddce, cfg_file("pool.cfg", master, 2), os.path.join(tmp, "t2.csv")
        )
        attempted += 1
        if err1 or err2 or csv1 != csv2:
            failed += 1
            errors.append(f"threads = 1 and threads = 2 sweeps differ: {err1 or err2 or 'CSV bytes'}")
            continue
        speedup.append(wall1 / wall2)
        if names:
            overhead.append(1.0 - replayed / wall1)

    samples = _stage_samples(tracer, load_s)
    metrics, units, absent, summary = {}, {}, [], []
    for stage in STAGES:
        ms = 1e3 * np.asarray(samples.get(stage, []))
        for suffix, q, least in ((".p50_ms", 50, 1), (".p90_ms", 90, 100)):
            ok = ms.size >= least
            metrics[stage + suffix] = float(np.percentile(ms, q)) if ok else 0.0
            units[stage + suffix] = "ms"
            if not ok:
                absent.append(stage + suffix)
        if ms.size:
            summary.append(describe(stage, list(ms), "ms"))

    detected, true_paths, truncated = tracer.detected, tracer.true_paths, tracer.truncated
    others = {
        "harness.pool_speedup": statistics.median(speedup) if speedup else None,
        "harness.overhead_frac": statistics.median(overhead) if overhead else None,
        "estimators.detect_ratio": (
            _ratio(sum(detected), sum(true_paths)) if len(detected) == len(true_paths) else None
        ),
        "estimators.offgrid_truncated_frac": _ratio(sum(truncated), len(truncated)),
        "txrx.near_singular_per_trial": _ratio(sum(near_singular), len(near_singular)),
        "trace.trials": tracer.trial + 1,
        "trace.missing_functions": len(missing),
    }
    for name, value in others.items():
        metrics[name] = 0.0 if value is None else value
        units[name] = OTHER_UNITS[name]
        if value is None:
            absent.append(name)

    summary += [
        f"rounds: {rounds} of {TRACE_TRIALS} trials per SNR point; "
        f"estimators replayed: {', '.join(names) or 'none'}",
        "harness.pool_speedup per round: " + ", ".join(f"{s:.4g}" for s in speedup),
        "harness.overhead_frac per round: " + ", ".join(f"{s:.4g}" for s in overhead),
        f"estimators.detect_ratio: {sum(detected)} detected / {sum(true_paths)} true paths "
        f"over {len(true_paths)} csf-offgrid calls",
        f"estimators.offgrid_truncated_frac: {sum(truncated)} / {len(truncated)} csf-offgrid calls",
        f"txrx.near_singular_per_trial: {sum(near_singular)} REs / {len(near_singular)} trials",
        f"checks: {attempted - failed}/{attempted} passed (replay fidelity, thread invariance)",
        "absent: " + (", ".join(absent) or "none"),
        "missing functions: " + (", ".join(missing) or "none"),
    ] + [f"error: {e}" for e in errors[:5]]

    with open(os.path.join(WORK_DIR, f"trace-{workload}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["trial", "name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return metrics, units, attempted, failed, summary
