"""Numeric arguments of library calls: one ContractViolationError naming the
argument, or a call that completes."""

import math
from functools import cache
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
    estimate_num_paths,
    genie_correlations,
    ls_pilot,
    mmse_estimate,
    periodic_csf,
    recover_paths_offgrid,
)
from ddce.grids import DDGrid, PeriodCSF, TFGrid
from ddce.harness import child_seed
from ddce.kernels import csf_closed_form, delay_kernel, doppler_alias_difference, doppler_kernel
from ddce.txrx import PilotPattern, build_frame, make_layout
from helpers import ODD_VALUES, small_cfg


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
    return SimpleNamespace(cfg=cfg, pattern=pattern, n_data=n_data, x=x, h=h, ps=ps, obs=obs,
                           period=periodic_csf(obs, cfg), corr=corr)


def _rng():
    return np.random.default_rng(1)


def _frame(v):
    """The small config's frame with v as every data symbol."""
    return build_frame([v] * _trial().n_data, _trial().pattern, _trial().cfg)


_PATH = dict(gains=[1.0 + 0.0j], delays=[1], dopplers=[0.5], powers=[1.0])
_GRID = np.ones((4, 8))
# one path on a 1x1 grid with its one pilot
_PAIR = dict(steering_freq=[[1j]], steering_time=[[1j]], steering_pilot=[[1j]], powers=[1.0])

# "<call>.<argument>": the call (a method as "<class>.<method>") with that
# argument set to v and every other valid
CALLS = {
    # a path set of one path, v as the entry of that array
    **{f"PathSet.{key}": (lambda key: lambda v: PathSet(**{**_PATH, key: [v]}))(key) for key in _PATH},
    # a one-path pair, v as the entry of that argument
    **{f"CorrelationPair.{key}": (lambda key: lambda v: CorrelationPair(
        **{**_PAIR, key: [v] if key == "powers" else [[v]]}))(key) for key in _PAIR},
    "genie_correlations.layout": lambda v: genie_correlations(_trial().ps, _trial().cfg, v),
    # a 1x1 grid (2x1 where the Doppler axis must be even) and a frame's data symbols, v as
    # every entry: numpy reads a bool among numbers as a number
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

_PROBES = [
    ("PilotPattern.d_t", 2.0),
    ("PilotPattern.d_t", "2"),
    ("PilotPattern.d_t", None),
    ("PilotPattern.d_t", True),
    ("PeriodCSF.d_t", 2.0),
    ("PeriodCSF.d_t", "2"),
    ("PilotObservations.d_t", None),
    *((f"{call}.{key}", v) for call in ("PeriodCSF.value", "DDGrid.at_centered") for key in "kl"
      for v in (1.5, "1", None, True)),
    ("recover_paths_offgrid.n_paths", 2.5),
    ("recover_paths_offgrid.n_paths", "2"),
    *((f"{call}.noise_var", v) for call in ("apply_channel_diag", "apply_channel_full",
      "apply_response_diag", "estimate_num_paths", "mmse_estimate") for v in ("1", None, 1j)),
    ("child_seed.master_seed", 1.5),
    ("child_seed.master_seed", -1),
    ("doppler_kernel.n_symbols", 0),
    ("doppler_kernel.d_t", 0),
    ("doppler_kernel.d_t", 2.5),
    ("delay_kernel.n_subcarriers", 0),
    ("doppler_alias_difference.d_t", 0),
    ("PathSet.delays", True),
    ("PathSet.delays", 2.0),
    ("PathSet.delays", -1),
    ("PathSet.delays", 2**63),
    ("PathSet.gains", math.nan),
    ("PathSet.dopplers", math.inf),
    ("PathSet.powers", math.nan),
    *((f"CorrelationPair.{key}", v) for key in ("steering_freq", "steering_time", "steering_pilot")
      for v in (math.nan, math.inf, "1", None)),
    ("CorrelationPair.steering_pilot", 1e300),
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


def test_each_known_bad_value_is_refused():
    """Values a call must refuse, not run with: a bool or a float where an
    int is needed, a string, None, a complex noise variance, a negative seed
    or delay, a delay past the int64 range, a path field that is not finite,
    a spacing that does not divide its size, a grid past the bound, a kernel
    value that is not a finite real (or, for a gain, a finite number), a
    gain large enough to overflow the image, a genie steering entry or power
    that is not finite (or whose R2 would overflow), and a layout that is
    not the config's."""
    for case, value in _PROBES:
        key = case.rsplit(".", 1)[1]
        try:
            CALLS[case](value)
        except ContractViolationError as exc:
            assert str(exc).startswith(f"{key} must "), (case, value, str(exc))
        else:
            raise AssertionError(f"{case} accepted {value!r}")


@pytest.mark.parametrize(
    "key, call",
    [
        pytest.param("data", lambda: TFGrid([["x"]]), id="TFGrid-string"),
        pytest.param("data", lambda: PeriodCSF([["x"], ["y"]], 1, 1), id="PeriodCSF-string"),
        pytest.param("data_syms", lambda: _frame("x"), id="build_frame-string"),
        pytest.param("data", lambda: TFGrid([[10**400]]), id="TFGrid-10**400"),
        pytest.param("data_syms", lambda: _frame(10**400), id="build_frame-10**400"),
        pytest.param("values", lambda: PilotObservations([[{}]], 1, 1), id="PilotObservations-dict"),
        pytest.param("data", lambda: TFGrid([[1, 2], [3]]), id="TFGrid-ragged"),
        pytest.param("data", lambda: TFGrid([["1"]]), id="TFGrid-numeric-string"),
        pytest.param("data", lambda: TFGrid([[True]]), id="TFGrid-bool"),
        pytest.param("data", lambda: DDGrid([[True], [False]]), id="DDGrid-bool"),
        pytest.param("data_syms", lambda: _frame(True), id="build_frame-bool"),
        pytest.param("data", lambda: TFGrid([[None]]), id="TFGrid-None"),
        pytest.param("powers", lambda: PathSet([1.0], [0], [0.0], [-1.0]), id="PathSet-negative-power"),
        # a long double may lie past the float64 range its cast to complex128 would overflow
        pytest.param("data", lambda: TFGrid(np.ones((1, 1), dtype=np.longdouble)),
                     id="TFGrid-long-double"),
        pytest.param("gains", lambda: PathSet(np.ones(1, dtype=np.clongdouble), [0], [0.0]),
                     id="PathSet-long-double"),
    ],
)
def test_a_grid_frame_or_path_input_that_is_no_array_of_its_kind_is_one_error_naming_it(key, call):
    """Grid data, data symbols and path arrays go through the array kinds:
    a string, a dict, a bool, None, an int past the float64 range, a ragged
    nesting, a long double or a negative power is one ContractViolationError
    naming the argument, never a builtin error or a value taken as a number."""
    with pytest.raises(ContractViolationError) as err:
        call()
    assert str(err.value).startswith(f"{key} must "), str(err.value)


@pytest.mark.parametrize(
    "gains, delays, dopplers, message",
    [
        pytest.param(1.0, [0], [0.0], r"gains must be a 1-D array, got shape \(\)$", id="gains=1.0"),
        pytest.param([[1.0]], [0], [0.0], r"gains must be a 1-D array, got shape \(1, 1\)$",
                     id="gains=[[1.0]]"),
        pytest.param([1.0], [[0], [1, 2]], [0.0], "delays must be an array of real numbers$",
                     id="delays=ragged"),
        pytest.param([1.0], [0], np.zeros((1, 1)), "dopplers must be a 1-D array",
                     id="dopplers=zeros((1, 1))"),
        pytest.param([1.0, math.nan], [0, 1], [0.0, 0.5], "gains must be finite, got nan$",
                     id="gains=[1, nan]"),
        pytest.param([1e307j], [0], [0.0], "gains must have parts of at most .* on this grid, got 1e\\+307$",
                     id="gains=[1e307j]"),
    ],
)
def test_closed_form_path_arrays_are_refused_whole(gains, delays, dopplers, message):
    """Path arrays that are not 1-D arrays of finite values, and a gain that
    would overflow the 8x8 image, are one error naming the array."""
    with pytest.raises(ContractViolationError, match=f"^{message}"):
        csf_closed_form(gains, delays, dopplers, 8, 8)


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
