"""Arguments of library calls, where each rule's message is pinned once: a
bad value of one argument (CALLS, _PROBES and a property over ODD_VALUES),
or a bad whole argument or set of arguments (_REFUSALS), is one
ContractViolationError naming the argument or the rule; an accepted input
is read as documented (_READINGS)."""

import math
from functools import cache, partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddce.channel import (
    PathSet,
    apply_channel_diag,
    apply_channel_full,
    apply_response_diag,
    ctf_from_paths,
)
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
from ddce.grids import MAX_GRID_RES, DDGrid, PeriodCSF, TFGrid, isfft
from ddce.harness import child_seed
from ddce.kernels import csf_closed_form, delay_kernel, doppler_alias_difference, doppler_kernel
from ddce.txrx import (
    PilotPattern,
    build_frame,
    equalize_single_tap,
    extract_data,
    make_layout,
    qam4_mod,
)
from helpers import ODD_VALUES, small_cfg, spell, tiny_cfg


@cache
def _trial():
    """A noiseless frame on the small config and what the calls under test read of it."""
    cfg = small_cfg()
    pattern = PilotPattern(cfg.d_t, cfg.d_f)
    n_data = make_layout(pattern, cfg).n_data
    x, layout = build_frame(np.ones(n_data), pattern, cfg)
    ps = PathSet([0.8 - 0.6j, 0.5j], [1, 3], [0.25, -1.0], [1.0, 0.25])
    h = ctf_from_paths(ps, cfg)
    obs = ls_pilot(apply_response_diag(x, h, 0.0, np.random.default_rng(0)), x, layout)
    corr = genie_correlations(ps, cfg, layout)
    return SimpleNamespace(cfg=cfg, pattern=pattern, n_data=n_data, x=x, layout=layout, h=h, ps=ps,
                           obs=obs, period=periodic_csf(obs, cfg), corr=corr)


def _rng():
    return np.random.default_rng(1)


def _frame(v):
    """The small config's frame with v as every data symbol."""
    return build_frame([v] * _trial().n_data, _trial().pattern, _trial().cfg)


_PATH = dict(gains=[1.0 + 0.0j], delays=[1], dopplers=[0.5], powers=[1.0])
_GRID = np.ones((4, 8))
# one path on a 1x1 grid with its one pilot
_PAIR = dict(steering_freq=[[1j]], steering_time=[[1j]], steering_pilot=[[1j]], powers=[1.0])


def _path_with(key, v):
    """A path set of one path, v as the entry of that array."""
    return PathSet(**{**_PATH, key: [v]})


def _pair_with(key, v):
    """A one-path pair, v as the entry of that argument."""
    return CorrelationPair(**{**_PAIR, key: [v] if key == "powers" else [[v]]})


# "<call>.<argument>": the call (a method as "<class>.<method>") with that
# argument set to v and every other valid
CALLS = {
    **{f"PathSet.{key}": partial(_path_with, key) for key in _PATH},
    **{f"CorrelationPair.{key}": partial(_pair_with, key) for key in _PAIR},
    "genie_correlations.layout": lambda v: genie_correlations(_trial().ps, _trial().cfg, v),
    # a 1x1 grid (2x1 where the Doppler axis must be even) and a frame's data symbols, v as
    # every entry: numpy reads a bool among numbers as a number (one non-finite
    # entry among finite ones is in _REFUSALS)
    "TFGrid.data": lambda v: TFGrid([[v]]),
    "DDGrid.data": lambda v: DDGrid([[v], [v]]),
    "PeriodCSF.data": lambda v: PeriodCSF([[v], [v]], 1, 1),
    "PilotObservations.values": lambda v: PilotObservations([[v]], 1, 1),
    "build_frame.data_syms": _frame,
    "PilotPattern.d_t": lambda v: PilotPattern(v, 4),
    "PilotPattern.d_f": lambda v: PilotPattern(4, v),
    "PeriodCSF.d_t": lambda v: PeriodCSF(_GRID, v, 4),
    "PeriodCSF.d_f": lambda v: PeriodCSF(_GRID, 4, v),
    "PeriodCSF.value.k": lambda v: PeriodCSF(_GRID, 2, 2).value(v, 0),
    "PeriodCSF.value.l": lambda v: PeriodCSF(_GRID, 2, 2).value(0, v),
    "DDGrid.at_centered.k": lambda v: DDGrid(_GRID).at_centered(v, 0),
    "DDGrid.at_centered.l": lambda v: DDGrid(_GRID).at_centered(0, v),
    "PilotObservations.d_t": lambda v: PilotObservations(_GRID, v, 4),
    "PilotObservations.d_f": lambda v: PilotObservations(_GRID, 4, v),
    "recover_paths_offgrid.n_paths": lambda v: recover_paths_offgrid(_trial().period, v),
    "apply_channel_diag.noise_var": lambda v: apply_channel_diag(_trial().x, _trial().ps, v, _rng()),
    "apply_channel_full.noise_var": lambda v: apply_channel_full(_trial().x, _trial().ps, v, _rng()),
    "apply_response_diag.noise_var": lambda v: apply_response_diag(_trial().x, _trial().h, v, _rng()),
    "estimate_num_paths.noise_var": lambda v: estimate_num_paths(_trial().period, v, _trial().cfg),
    "mmse_estimate.noise_var": lambda v: mmse_estimate(_trial().obs, _trial().corr, v, _trial().cfg),
    "child_seed.master_seed": lambda v: child_seed(v, 0, 0),
    "child_seed.snr_index": lambda v: child_seed(7, v, 0),
    "child_seed.trial_index": lambda v: child_seed(7, 0, v),
    "doppler_kernel.n_symbols": lambda v: doppler_kernel(0.5, np.arange(4), v, 1),
    "doppler_kernel.d_t": lambda v: doppler_kernel(0.5, np.arange(4), 64, v),
    "delay_kernel.n_subcarriers": lambda v: delay_kernel(1.0, np.arange(4), v, 1),
    "delay_kernel.d_f": lambda v: delay_kernel(1.0, np.arange(4), 64, v),
    "doppler_alias_difference.n_symbols": lambda v: doppler_alias_difference(0.5, np.arange(4), v, 1),
    "doppler_alias_difference.d_t": lambda v: doppler_alias_difference(0.5, np.arange(4), 64, v),
    "csf_closed_form.n_subcarriers": lambda v: csf_closed_form([1.0], [0], [0.5], v, 8),
    "csf_closed_form.n_symbols": lambda v: csf_closed_form([1.0], [0], [0.5], 8, v),
    # the kernels' values; csf_closed_form's path arrays take v as their one entry
    "doppler_kernel.k_i": lambda v: doppler_kernel(v, np.arange(4), 8, 1),
    "doppler_kernel.k": lambda v: doppler_kernel(0.5, v, 8, 1),
    "delay_kernel.l_i": lambda v: delay_kernel(v, np.arange(4), 8, 1),
    "delay_kernel.l": lambda v: delay_kernel(1.0, v, 8, 1),
    "doppler_alias_difference.k_i": lambda v: doppler_alias_difference(v, np.arange(4), 8, 2),
    "doppler_alias_difference.k": lambda v: doppler_alias_difference(0.5, v, 8, 2),
    "csf_closed_form.gains": lambda v: csf_closed_form([v], [0], [0.5], 8, 8),
    "csf_closed_form.delays": lambda v: csf_closed_form([1.0], [v], [0.5], 8, 8),
    "csf_closed_form.dopplers": lambda v: csf_closed_form([1.0], [0], [v], 8, 8),
}

# (case, value) or (case, value, message): CALLS[case](value) is refused,
# with exactly this message where one is given
_PROBES = [
    ("PilotPattern.d_t", 2.0),
    ("PilotPattern.d_t", "2"),
    ("PilotPattern.d_t", None),
    ("PilotPattern.d_t", True),
    ("PilotPattern.d_t", 0, "d_t must be >= 1, got 0"),
    ("PeriodCSF.d_t", 2.0),
    ("PeriodCSF.d_t", "2"),
    *((f"PeriodCSF.{key}", v, f"{key} must be >= 1, got {v}")
      for key, v in (("d_t", 0), ("d_f", 0), ("d_t", -2))),
    ("PilotObservations.d_t", None),
    *((f"{call}.{key}", v) for call in ("PeriodCSF.value", "DDGrid.at_centered") for key in "kl"
      for v in (1.5, "1", None, True)),
    ("recover_paths_offgrid.n_paths", 2.5),
    ("recover_paths_offgrid.n_paths", "2"),
    ("recover_paths_offgrid.n_paths", 0),
    *((f"{call}.noise_var", v) for call in ("apply_channel_diag", "apply_channel_full",
      "apply_response_diag", "estimate_num_paths", "mmse_estimate") for v in ("1", None, 1j)),
    *((f"{call}.noise_var", v) for call in ("apply_channel_diag", "apply_channel_full",
      "apply_response_diag") for v in (math.nan, math.inf, 10**400)),
    ("child_seed.master_seed", 1.5),
    ("child_seed.master_seed", -1),
    ("doppler_kernel.n_symbols", 0),
    ("doppler_kernel.d_t", 0),
    ("doppler_kernel.d_t", 2.5),
    ("delay_kernel.n_subcarriers", 0),
    ("doppler_alias_difference.d_t", 0),
    # a path field that is not finite or not of its kind; an int past the
    # float range is refused by the dtype numpy reads it as, never shown by its digits
    *(("PathSet.delays", v) for v in (True, 2.0, -1, 2**63, math.nan, math.inf, 10**5000, "1")),
    *(("PathSet.gains", v) for v in (math.nan, complex(math.nan, 0.0), complex(0.0, math.inf), 10**400,
                                     10**5000, None)),
    *(("PathSet.dopplers", v) for v in (math.inf, math.nan, -math.inf, 10**400, 10**5000)),
    *(("PathSet.powers", v) for v in (math.nan, math.inf, 10**400, -1.0)),
    *((f"CorrelationPair.{key}", v) for key in ("steering_freq", "steering_time", "steering_pilot")
      for v in (math.nan, math.inf, "1", None)),
    ("CorrelationPair.steering_pilot", 1e300),
    ("CorrelationPair.steering_pilot", complex(1e300, 0.0),
     "steering_pilot must keep R2's trace <= 2.25e+307, got inf"),
    *(("CorrelationPair.powers", v) for v in (-1.0, math.nan, math.inf, "4", True, 1j, 10**400, 1e308)),
    *(("genie_correlations.layout", v) for v in (None, (32, 16), "layout", 10**5000)),
    ("csf_closed_form.n_symbols", np.uint64(2**64 - 1)),
    ("csf_closed_form.n_symbols", 0),
    ("csf_closed_form.dopplers", "a"),
    ("csf_closed_form.gains", math.nan),
    ("csf_closed_form.gains", 1e308),
    ("csf_closed_form.gains", True),
    ("csf_closed_form.delays", math.inf),
    ("csf_closed_form.dopplers", 1j),
    ("doppler_kernel.k_i", "a"),
    ("doppler_kernel.k", True),
    ("delay_kernel.l", None),
    ("delay_kernel.l_i", math.nan),
    ("doppler_alias_difference.k", "x"),
    ("doppler_alias_difference.k_i", 10**400),
    # grid data and data symbols go through the array kinds: a string, a
    # dict, a bool, None or an int past the float64 range is never a number
    *(("TFGrid.data", v) for v in ("x", "1", True, None, 10**400)),
    *(("build_frame.data_syms", v) for v in ("x", True, 10**400)),
    ("PeriodCSF.data", "x"),
    ("DDGrid.data", True),
    ("PilotObservations.values", {}),
]


@settings(max_examples=400, deadline=None, database=None)
@given(st.sampled_from(sorted(CALLS)), ODD_VALUES)
def test_any_argument_value_is_one_contract_error_naming_it_or_a_call_that_runs(case, value):
    """Any error is a ContractViolationError whose one-line message starts
    with the argument's name: no TypeError, ZeroDivisionError, numpy error
    or RuntimeWarning (an error under the test settings)."""
    key = case.rsplit(".", 1)[1]
    try:
        CALLS[case](value)
    except ContractViolationError as exc:
        msg = str(exc)
        assert msg.startswith(f"{key} must ") and "\n" not in msg, msg


@pytest.mark.parametrize("case, value, message", [
    pytest.param(case, value, message, id=f"{case}={spell(value)}") for case, value, *message in _PROBES
])
def test_each_known_bad_value_is_refused(case, value, message):
    """Values a call must refuse, not run with: a bool or a float where an
    int is needed, a string, None, a complex noise variance, a negative seed
    or delay, a delay past the int64 range, a path field that is not finite,
    a spacing that does not divide its size, a grid past the bound, a kernel
    value that is not a finite real (or, for a gain, a finite number), a
    gain large enough to overflow the image, a genie steering entry or power
    that is not finite (or whose R2 would overflow), and a layout that is
    not the config's.  No message shows the digits of a huge int."""
    key = case.rsplit(".", 1)[1]
    with pytest.raises(ContractViolationError) as info:
        CALLS[case](value)
    msg = str(info.value)
    assert msg.startswith(f"{key} must ") and "0" * 20 not in msg, msg
    assert message in ([], [msg]), msg


_STEERING = np.ones((4, 2), dtype=complex)
_ONES_8x4 = np.ones((8, 4))
_GRIDS = {"TFGrid": TFGrid, "DDGrid": DDGrid, "PeriodCSF": lambda a: PeriodCSF(a, 2, 2)}


def _pair(**arrays):
    """A two-path pair on four pilots, with the given arguments in place of its own."""
    args = dict(steering_freq=_STEERING, steering_time=_STEERING.T, steering_pilot=_STEERING,
                powers=[0.5, 0.5])
    return CorrelationPair(**{**args, **arrays})


def _ones_with(v, shape=(2, 2), index=(1, 0)):
    """A complex array of ones of this shape with v at this index."""
    array = np.ones(shape, dtype=complex)
    array[index] = v
    return array


@cache
def _genie_factors():
    """The factors of the genie pair of two paths on an 8x8 grid at spacing 2."""
    corr = genie_correlations(PathSet([1.0, 0.5j], [0, 1], [0.0, 0.5], [0.6, 0.4]), tiny_cfg(8, 8, 2, 2),
                              _layout((8, 8)))
    return dict(steering_freq=corr._freq, steering_time=corr._time, steering_pilot=corr._a_pilot,
                powers=corr._p)


def _genie_with(key, v):
    """The genie pair rebuilt with v at flat index 3 of one steering factor."""
    args = dict(_genie_factors(), **{key: _genie_factors()[key].copy()})
    args[key].flat[3] = v
    return CorrelationPair(**args)


def _unit_pilots_with(v):
    """A two-path pair whose 16x2 unit-modulus pilot steering has v at [3, 1]."""
    a_pilot = np.exp(2j * np.pi * np.random.default_rng(4).uniform(size=(16, 2)))
    a_pilot[3, 1] = v
    steering = np.ones((8, 2), dtype=complex)
    return CorrelationPair(steering, steering.T, a_pilot, np.array([0.6, 0.4]))


def _layout(shape, d_t=2, d_f=2):
    """The layout of a grid of this (M, N) shape."""
    return make_layout(PilotPattern(d_t, d_f), tiny_cfg(*shape, d_t, d_f))


def _genie_on(lattice, layout):
    """genie_correlations of one path on tiny_cfg(*lattice), given layout."""
    return genie_correlations(PathSet([1.0], [0], [0.0]), tiny_cfg(*lattice), layout)


def _mmse_8x8(side, noise_var):
    """mmse_estimate of all-ones observations on a side x side lattice, with
    the genie pair of one path on an 8x8 grid at spacing 2."""
    obs = PilotObservations(np.ones((side, side)), 2, 2)
    return mmse_estimate(obs, _genie_on((8, 8, 2, 2), _layout((8, 8))), noise_var, tiny_cfg(8, 8, 2, 2))


def _layout_text(shape, d_t=2, d_f=2):
    """How a refusal prints the FrameLayout of this shape and lattice."""
    return f"FrameLayout(shape={shape}, d_t={d_t}, d_f={d_f})"


_NON_FINITE = (math.nan, math.inf, complex(0.0, -math.inf))
_LATTICE = "pilot lattice (2, 2) with spacings (d_t=2, d_f=2) does not match config lattice"
_ON_8x4 = "does not match the layout's (M, N) = (8, 4)"
# "<call>: <input>": (call, message): call() is one ContractViolationError
# with exactly this message, for a whole argument or a set of arguments
# that break a rule
_REFUSALS = {
    # grid data that is no non-empty 2-D array of finite numbers; the message names the constructor
    **{f"{ctor}: {what}": (partial(_GRIDS[ctor], a), f"data must {rule} ({ctor})")
       for ctor in _GRIDS for what, a, rule in (
           *((f"a {v} entry", _ones_with(v), f"be finite, got {v}") for v in (
               complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 0.0),
               complex(0.0, math.inf))),
           *((f"shape {shape}", np.ones(shape), f"be a non-empty 2-D array, got shape {shape}")
             for shape in ((4,), (2, 2, 2), (0, 4), (2, 0))))},
    **{f"{ctor}: 3 rows": (partial(_GRIDS[ctor], np.ones((3, 4))),
                           f"data must have an even Doppler axis, got 3 rows ({ctor})")
       for ctor in ("DDGrid", "PeriodCSF")},
    # one non-finite entry among finite ones, not first: the message shows that entry
    **{f"PilotObservations: {v} at [2, 1] of 4x4": (
        partial(PilotObservations, _ones_with(v, (4, 4), (2, 1)), 2, 2),
        f"values must be finite, got {complex(v)} (PilotObservations)") for v in _NON_FINITE},
    **{f"build_frame: {v} at [7] of 28": (
        partial(build_frame, _ones_with(v, 28, 7), PilotPattern(2, 4), tiny_cfg(8, 4, 2, 4)),
        f"data_syms must be finite, got {complex(v)}") for v in _NON_FINITE},
    **{f"CorrelationPair: genie {key} with {v} at flat 3": (
        partial(_genie_with, key, v), f"{key} must be finite, got {complex(v)}")
       for key in ("steering_freq", "steering_time", "steering_pilot") for v in (math.nan, math.inf)},
    "CorrelationPair: genie steering_pilot with 1e300 at flat 3": (
        partial(_genie_with, "steering_pilot", 1e300),
        "steering_pilot must keep R2's trace <= 2.25e+307, got inf"),
    **{f"CorrelationPair: unit pilots with {v} at [3, 1]": (
        partial(_unit_pilots_with, v), f"steering_pilot must be finite, got {complex(v)}")
       for v in (math.nan, math.inf)},
    "TFGrid: nan": (lambda: TFGrid(np.ones((2, 2)) * math.nan), "data must be finite, got nan (TFGrid)"),
    "TFGrid: inf": (lambda: TFGrid([[math.inf, 0.0], [0.0, 0.0]]), "data must be finite, got inf (TFGrid)"),
    "TFGrid: ragged": (lambda: TFGrid([[1, 2], [3]]), "data must be an array of numbers (TFGrid)"),
    # a long double may lie past the float64 range its cast to complex128 would overflow
    "TFGrid: long double": (lambda: TFGrid(np.ones((1, 1), dtype=np.longdouble)),
                            f"data must hold numbers, got dtype {np.dtype(np.longdouble)} (TFGrid)"),
    "PathSet: long double": (lambda: PathSet(np.ones(1, dtype=np.clongdouble), [0], [0.0]),
                             f"gains must hold numbers, got dtype {np.dtype(np.clongdouble)}"),
    "PathSet: no path": (lambda: PathSet([], [], []), "PathSet needs at least one path"),
    "PathSet: 2 gains": (lambda: PathSet([1.0, 0.5], [2], [0.0, 1.0]),
                         "gains, delays and dopplers must have one length, got 2, 1 and 2"),
    "PathSet: 2 powers": (lambda: PathSet([1.0], [2], [0.0], [1.0, 0.5]),
                          "gains, delays, dopplers and powers must have one length, got 1, 1, 1 and 2"),
    "PathSet: delay -1": (lambda: PathSet([1.0], [-1], [0.0]), "delays must be in [0, 2**63), got [-1]"),
    "PathSet: one bin twice": (lambda: PathSet([1.0, 0.5], [2, 2], [0.0, 1.0]),
                               "delays must be distinct bins, got [2, 2]"),
    "PathSet: gain 1e200": (lambda: PathSet([1e200], [0], [0.0]), "|gains|^2 must be finite, got inf"),
    # path arrays that are not 1-D, of one length, finite, or small enough for the 8x8 image
    **{f"csf_closed_form: {what}": (partial(csf_closed_form, *args, 8, 8), message)
       for what, args, message in (
           ("gains 1.0", (1.0, [0], [0.0]), "gains must be a 1-D array, got shape ()"),
           ("gains [[1.0]]", ([[1.0]], [0], [0.0]), "gains must be a 1-D array, got shape (1, 1)"),
           ("ragged delays", ([1.0], [[0], [1, 2]], [0.0]), "delays must be an array of real numbers"),
           ("2-D dopplers", ([1.0], [0], np.zeros((1, 1))),
            "dopplers must be a 1-D array, got shape (1, 1)"),
           ("gains [1, nan]", ([1.0, math.nan], [0, 1], [0.0, 0.5]), "gains must be finite, got nan"),
           ("gain 1e307j", ([1e307j], [0], [0.0]),
            "gains must have parts of at most 5.61779e+306 on this grid, got 1e+307"),
           *((f"lengths {n}", args, f"gains, delays and dopplers must have one length, got {n}")
             for args, n in (
                 (([1, 2], [0], [0.0]), "2, 1 and 1"), (([1], [0, 1], [0.0]), "1, 2 and 1"),
                 (([1], [0], [0.0, 1.0]), "1, 1 and 2"), (([], [0], []), "0, 1 and 0"))))},
    # steering the noisy solve's LAPACK pair could not take
    **{f"CorrelationPair: {key} {a.dtype} {a.shape}": (
        partial(_pair, **{key: a}), f"{key} must be 2-D complex128: {a.dtype} {a.shape}")
       for key, a in (("steering_freq", _STEERING.real), ("steering_time", _STEERING.T.real),
                      ("steering_pilot", _STEERING.real), ("steering_pilot", _STEERING[:, 0]))},
    "CorrelationPair: a real steering list": (lambda: _pair(steering_pilot=_STEERING.real.tolist()),
                                              "steering_pilot must be 2-D complex128: float64 (4, 2)"),
    "CorrelationPair: float steering": (
        lambda: CorrelationPair(np.ones((4, 2)), np.ones((2, 2)), np.ones((2, 2)), np.ones(3)),
        "steering_freq must be 2-D complex128: float64 (4, 2)"),
    "CorrelationPair: power -0.1": (lambda: _pair(powers=[0.5, -0.1]), "powers must be >= 0, got -0.1"),
    "CorrelationPair: power nan": (lambda: _pair(powers=[0.5, math.nan]), "powers must be finite, got nan"),
    "CorrelationPair: 2-D powers": (lambda: _pair(powers=[[0.5], [0.5]]),
                                    "powers must be a 1-D array, got shape (2, 1)"),
    "CorrelationPair: powers 1e308": (lambda: _pair(powers=[1e308, 1e308]),
                                      "powers must keep R2's trace <= 2.25e+307, got inf"),
    "CorrelationPair: 3 time rows": (
        lambda: _pair(steering_time=np.ones((3, 4), dtype=complex), powers=np.ones(2)),
        "steering matrices and powers disagree on path count"),
    # a layout of another grid or lattice, or no layout, is refused before any
    # steering is built, not read past the grid (an IndexError) or as fewer pilots
    **{f"genie_correlations: {lattice} {got}": (
        partial(_genie_on, lattice, layout),
        f"layout must be {_layout_text(lattice[:2], *lattice[2:])}, got {got}")
       for lattice, side in (((8, 8, 2, 2), 16), ((16, 16, 2, 2), 8), ((8, 8, 1, 2), 8))
       for got, layout in ((_layout_text((side, side)), _layout((side, side))), ("tuple", lattice[:2]),
                           ("ndarray", np.zeros(2)))},
    "apply_response_diag: 8x2 h": (
        lambda: apply_response_diag(TFGrid(_ONES_8x4), TFGrid(np.ones((8, 2))), 0.0, _rng()),
        "grid shapes differ: x (8, 4) vs h (8, 2)"),
    "isfft: 8x8 on 8x6": (lambda: isfft(DDGrid(np.ones((8, 8))), SimpleNamespace(M=8, N=6)),
                          "DD grid shape (8, 8) does not match config (N=6, M=8)"),
    "ls_pilot: zero pilots": (
        lambda: ls_pilot(TFGrid(0 * _ONES_8x4), TFGrid(0 * _ONES_8x4), _layout((8, 4), 2, 4)),
        "zero-valued pilot symbol, LS division impossible"),
    "ls_pilot: transposed x": (
        lambda: ls_pilot(TFGrid(_ONES_8x4), TFGrid(_ONES_8x4.T), _layout((8, 4), 2, 4)),
        f"TF grid shape (4, 8) {_ON_8x4}"),
    "equalize_single_tap: transposed h": (
        lambda: equalize_single_tap(TFGrid(_ONES_8x4), TFGrid(_ONES_8x4.T), _layout((8, 4), 2, 4)),
        f"TF grid shape (4, 8) {_ON_8x4}"),
    # each call that reads a grid through a layout takes only the layout's
    # grid: not a smaller one, nor the transposed one of the same size
    **{f"{name}: {shape} grid on a 128x64 layout": (
        partial(call, TFGrid(np.ones(shape)), _layout((128, 64), 4, 4)),
        f"TF grid shape {shape} does not match the layout's (M, N) = (128, 64)")
       for name, call in (("extract_data", extract_data),
                          ("equalize_single_tap", lambda grid, lay: equalize_single_tap(grid, grid, lay)),
                          ("ls_pilot", lambda grid, lay: ls_pilot(grid, grid, lay)))
       for shape in ((4, 4), (64, 128))},
    "interp_linear: 2x2 lattice": (
        lambda: interp_linear(PilotObservations(np.ones((2, 2)), 2, 2), tiny_cfg(8, 4, 2, 2)),
        f"{_LATTICE} (4, 2) with (d_t=2, d_f=2)"),
    # a period or pilot lattice spans the full grid it samples, which is bounded as a config's
    # is; the spacing that alone spans too much is named
    **{f"{cls.__name__}: {key} past the grid bound": (
        partial(cls, np.ones((2, 2)), *spacings),
        f"{key} must keep the full grid at most {MAX_GRID_RES} resource elements")
       for cls in (PeriodCSF, PilotObservations)
       for key, spacings in (("d_t", (MAX_GRID_RES // 2, 1)), ("d_f", (2, MAX_GRID_RES // 4)))},
    # an odd number of pilot symbols has no centered Doppler axis; a validated config has none
    "periodic_csf: 3 pilot symbols": (
        lambda: periodic_csf(PilotObservations(np.ones((4, 3)), 2, 2), tiny_cfg(8, 6, 2, 2)),
        "values must hold an even number of pilot symbols, got 3"),
    "mmse_estimate: noise_var -1": (lambda: _mmse_8x8(4, -1.0),
                                    "noise_var must be non-negative and at most 2.25e+307, got -1.0"),
    "mmse_estimate: 2x2 lattice": (lambda: _mmse_8x8(2, 0.1), f"{_LATTICE} (4, 4) with (d_t=2, d_f=2)"),
    "estimate_csf: mode magic": (
        lambda: estimate_csf(_trial().x, _trial().x, _trial().layout, _trial().cfg, "magic", 0.0),
        "unknown mode 'magic', valid: ('ongrid', 'offgrid')"),
    "qam4_mod: 3 bits": (lambda: qam4_mod(np.array([0, 1, 1])),
                         "bit array must be 1-D with even length, got shape (3,)"),
    "qam4_mod: bit 2": (lambda: qam4_mod(np.array([0, 2])), "bits must be 0 or 1"),
    "qam4_mod: 2-D bits": (lambda: qam4_mod(np.zeros((2, 2), dtype=int)),
                           "bit array must be 1-D with even length, got shape (2, 2)"),
    "make_layout: d_t 3 on 4 symbols": (lambda: make_layout(PilotPattern(3, 4), tiny_cfg(8, 4, 2, 4)),
                                        "d_t must be a divisor of 4, got 3"),
    "build_frame: 5 symbols": (
        lambda: build_frame(np.ones(5, dtype=complex), PilotPattern(2, 4), tiny_cfg(8, 4, 2, 4)),
        "data_syms must be 28 symbols for an 8x4 frame, got shape (5,)"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_a_refused_argument_or_set_of_arguments_is_one_error_with_its_rules_message(case):
    call, message = _REFUSALS[case]
    with pytest.raises(ContractViolationError) as err:
        call()
    assert str(err.value) == message


# "<call>: <input>": (what the call reads of it, the value expected)
_READINGS = {
    # numpy infers one dtype for a list of numbers, and reads a bool among
    # them as 0 or 1; a bool alone, or a list of bools, is refused
    "PathSet: delays [0, True]": (lambda: PathSet([1.0, 2.0], [0, True], [0.0, 0.0]).delays.tolist(),
                                  [0, 1]),
    # a complex list is taken as its array
    "CorrelationPair: a complex steering list": (
        lambda: _pair(steering_pilot=_STEERING.tolist()).n_pilot, 4),
    # the grid bound is inclusive
    "PeriodCSF: spacings at the grid bound": (
        lambda: (p := PeriodCSF(np.ones((2, 2)), MAX_GRID_RES // 4, 1)).full_n * p.full_m, MAX_GRID_RES),
}


@pytest.mark.parametrize("case", list(_READINGS))
def test_an_accepted_input_is_read_as_documented(case):
    read, expected = _READINGS[case]
    assert read() == expected


def test_the_largest_allowed_gain_keeps_the_image_finite():
    """At the gain bound every path's parts add up in one entry without overflow."""
    limit = np.finfo(np.float64).max / (4 * 3 * np.sqrt(64))
    gains = np.full(3, limit * (1 + 1j))
    image = csf_closed_form(gains, [0, 1, 2], [0.0, 0.0, 0.0], 8, 8)
    assert np.isfinite(image).all() and np.abs(image).max() > limit


@pytest.mark.parametrize("kernel, name", [(doppler_kernel, "k"), (delay_kernel, "l")],
                         ids=["doppler_kernel", "delay_kernel"])
@pytest.mark.parametrize("value_i, value", [(1.7e308, -1.7e308), (-1.7e308, [0.0, 1.7e308])],
                         ids=["scalars", "array"])
def test_a_kernel_offset_past_the_float_range_is_one_error_naming_both_values(
    kernel, name, value_i, value
):
    """Two finite values whose difference overflows are refused, with no
    overflow warning, rather than read as a nan offset at the kernel's peak."""
    with pytest.raises(ContractViolationError, match=f"^{name}_i - {name} must be finite, got -?inf$"):
        kernel(value_i, value, 8, 1)
