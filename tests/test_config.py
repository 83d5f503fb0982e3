"""Config file loading and whole-config validation.

Every rule of a SystemConfig field or of its ChannelProfile is pinned here,
by its exact message: the harness and the command line only route these
errors, and their tests compare with the messages computed here."""

import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddce.channel import ChannelProfile, gen_paths
from ddce.config import (
    _KEYS,
    ESTIMATOR_NAMES,
    MAX_GRID_RES,
    MAX_MMSE_PILOTS,
    MAX_TRIALS,
    MIN_SNR_DB,
    SystemConfig,
    default_config,
    load_config,
    snr_is_valid,
    with_overrides,
)
from ddce.errors import ConfigError, ProfileError, SupportError
from ddce.harness import run_trial
from helpers import ALL_PILOT, ODD_VALUES, PAPER_CFG, edit_cfg, small_cfg, spell, write_cfg

GOOD = """
M = 64
N = 32
delta_f_hz = 15e3
f_c_hz = 2.1e9
v_kmh = 120
d_t = 2
d_f = 2
estimators = ideal, ls-interp
snr_db = 0, 10, 20
n_trials = 4
master_seed = 1
tap_delays_ns = 0.0, 3125.0
tap_powers_db = 0.0, -3.0
"""


def test_shipped_config_loads_to_defaults():
    cfg = load_config(PAPER_CFG)
    assert cfg == default_config()
    assert (cfg.M, cfg.N, cfg.d_t, cfg.d_f) == (128, 64, 4, 4)
    assert cfg.delta_f_hz == 15e3
    assert cfg.profile.f_c_hz == 2.1e9 and cfg.profile.v_kmh == 250.0
    assert cfg.channel_model == "diag"
    assert cfg.on_grid_doppler is False
    assert cfg.estimators == ("ls-interp", "mmse-genie", "csf-ongrid", "csf-offgrid", "ideal")
    assert cfg.snr_db == tuple(float(s) for s in range(0, 45, 5))
    assert cfg.n_trials == 500 and cfg.master_seed == 20250819
    assert cfg.gamma_threshold == 4.0
    assert cfg.profile.n_taps == 5


def test_minimal_config_optional_defaults_comments_blanks_and_bools(tmp_path):
    cfg = load_config(write_cfg(tmp_path, GOOD + "\n# trailing comment\n\non_grid_doppler = TRUE\n"))
    assert cfg.M == 64 and cfg.N == 32
    assert cfg.channel_model == "diag"  # optional keys fall back
    assert cfg.gamma_threshold == 4.0
    assert cfg.estimators == ("ideal", "ls-interp")
    assert cfg.snr_db == (0.0, 10.0, 20.0)
    assert np.allclose(cfg.profile.tap_delays_ns, (0.0, 3125.0))
    assert cfg.on_grid_doppler is True


def test_syntax_problems_are_collected_with_line_numbers(tmp_path):
    text = GOOD + "bogus_key = 1\nM = 64\nthreads = soon\njust words\n"
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, text))
    msg = str(err.value)
    assert "unknown key 'bogus_key'" in msg
    assert "duplicate key 'M'" in msg
    assert "invalid literal" in msg  # threads = soon
    assert "expected 'key = value'" in msg
    for fragment in ("line 15", "line 16", "line 17", "line 18"):
        assert fragment in msg


def test_unparsable_value_names_its_key_and_is_not_also_missing(tmp_path):
    text = edit_cfg(GOOD, M="12x", master_seed="1e3", snr_db="0, ten")
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, text))
    lines = str(err.value).splitlines()
    assert lines == [
        "line 2: M: invalid literal for int() with base 10: '12x'",
        "line 10: snr_db: could not convert string to float: 'ten'",
        "line 12: master_seed: invalid literal for int() with base 10: '1e3'",
    ]


def test_missing_required_keys_reported_together(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, "M = 64\n"))
    msg = str(err.value)
    assert "missing required key 'N'" in msg
    assert "missing required key 'tap_powers_db'" in msg
    assert msg.count("missing required key") == 12


_SNR_RULE = f"snr_db must be finite and >= {MIN_SNR_DB}, or +inf, got "
# (edits, message): GOOD with each key's line set to its value (appended
# where GOOD has none) is refused by load_config with exactly this message
_FILE_RULES = [
    # the parser takes nan and inf as floats; the one rule that owns the key
    # rejects them, before any numpy work can warn
    (dict(delta_f_hz="nan"), "delta_f_hz must be positive and finite, got nan"),
    (dict(delta_f_hz="inf"), "delta_f_hz must be positive and finite, got inf"),
    (dict(f_c_hz="nan"), "f_c_hz must be positive and finite, got nan"),
    (dict(f_c_hz="inf"), "f_c_hz must be positive and finite, got inf"),
    (dict(v_kmh="nan"), "v_kmh must be non-negative and finite, got nan"),
    (dict(v_kmh="inf"), "v_kmh must be non-negative and finite, got inf"),
    (dict(gamma_threshold="nan"), "gamma_threshold must be positive and finite, got nan"),
    (dict(gamma_threshold="inf"), "gamma_threshold must be positive and finite, got inf"),
    (dict(snr_db="0, nan"), f"{_SNR_RULE}nan"),
    (dict(snr_db="0, -inf"), f"{_SNR_RULE}-inf"),
    (dict(snr_db="0, -4000"), f"{_SNR_RULE}-4000.0"),
    (dict(master_seed="-1"), "master_seed must be >= 0, got -1"),
    (dict(v_kmh="-3"), "v_kmh must be non-negative and finite, got -3.0"),
    (dict(f_c_hz="0"), "f_c_hz must be positive and finite, got 0.0"),
    (dict(tap_powers_db="nan, -3.0"), "tap_powers_db must be finite, got nan"),
    (dict(on_grid_doppler="maybe"), "line 15: on_grid_doppler: expected true or false, got 'maybe'"),
    (dict(modulation="qam4"), "line 15: unknown key 'modulation'"),
    # the semantic rules are reported together
    (dict(v_kmh=5000, estimators="ideal, warp-drive"), (
        f"unknown estimators ['warp-drive'], valid names: {ESTIMATOR_NAMES}\nDoppler support violated: "
        "N*T*nu_max = 20.74074074074074 exceeds N/(2*d_t) - 1 = 7; need nu_max <= 1/(2*d_t*T) - 1/(N*T)")),
    # a delay whose bin index does not fit an int64 still compares as too long
    (dict(tap_delays_ns="0.0, 1e300"), "max quantized delay 9.6e+296 exceeds M/d_f - 1 = 31; "
     "delays must satisfy tau <= 1/(d_f*delta_f) - 1/(M*delta_f)"),
    (dict(tap_delays_ns="0.0, 100.0"), "quantized tap delays collide on the grid: [0, 0]; "
     "merge colliding taps into shared bins before use"),
    # with a non-dividing d_t only the divisibility complaint makes sense
    (dict(d_t=3, v_kmh=5000), "N = 32 is not divisible by d_t = 3"),
    (dict(N=30, v_kmh=20), "N/d_t = 15 must be even so the Doppler period splits around zero"),
    # no data symbol is left, so no BER could be scored
    (dict(d_t=1, d_f=1), ALL_PILOT),
]


@pytest.mark.parametrize("edits, message", [
    pytest.param(edits, message, id=",".join(f"{k}={v}" for k, v in edits.items()))
    for edits, message in _FILE_RULES
])
def test_a_bad_line_is_one_config_error_with_its_rules_message(tmp_path, edits, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, edit_cfg(GOOD, **edits)))
    assert str(err.value) == message


@pytest.mark.parametrize("key, value, parsed", [
    ("snr_db", "0, inf", (0.0, math.inf)),  # noiseless
    ("master_seed", "0", 0),
    # a pilot on every subcarrier or on every symbol alone leaves data to score
    ("d_t", "1", 1),
    ("d_f", "1", 1),
])
def test_a_line_at_the_edge_of_its_rule_is_accepted(tmp_path, key, value, parsed):
    assert getattr(load_config(write_cfg(tmp_path, edit_cfg(GOOD, **{key: value}))), key) == parsed


def test_snr_bound_keeps_the_noise_variance_a_float():
    """10**(-snr_db/10) overflows below about -3082.547 dB, but a trial's
    MSE, summed over up to 2**20 REs, overflows for noise variances above
    about 2e300: the rule stops at -3000 dB, a noise variance of 1e300."""
    assert MIN_SNR_DB == -3000.0
    for snr in (MIN_SNR_DB, -2999.9, 0.0, 1e308, float("inf")):
        assert snr_is_valid(snr)
        assert 10.0 ** (-snr / 10.0) <= 1e300
    for snr in (-3000.1, -3082.4, -3082.6, -4000.0, -1e308, float("-inf"), float("nan")):
        assert not snr_is_valid(snr)


def test_missing_file_is_a_config_error():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("/no/such/file.cfg")


def test_file_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(("# café\n" + GOOD).encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read config file: 'utf-8' codec"):
        load_config(str(path))


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "bom.cfg"
    with open(PAPER_CFG, "rb") as fh:
        path.write_bytes(b"\xef\xbb\xbf" + fh.read())
    assert load_config(str(path)) == load_config(PAPER_CFG)


def test_with_overrides_revalidates():
    cfg = default_config()
    with pytest.raises(ConfigError):
        with_overrides(cfg, d_t=5)  # 64 % 5 != 0
    faster = with_overrides(cfg, n_trials=7)
    assert faster.n_trials == 7 and cfg.n_trials == 500


def test_an_unknown_override_is_one_config_error_naming_it():
    with pytest.raises(ConfigError) as info:
        with_overrides(default_config(), foo=1)
    assert str(info.value) == "unknown config field 'foo'"
    with pytest.raises(ConfigError) as info:
        with_overrides(default_config(), n_trials=7, zeta=0, alpha=1)
    assert str(info.value) == "unknown config field 'alpha'\nunknown config field 'zeta'"


_NO_MMSE = ("ls-interp", "csf-offgrid")
# (fields, message): default_config() with these fields replaced, no other
# rule run in between, reports exactly these violations, one a line.
# Resource bounds are checked this way only: nothing of these sizes is built.
_VIOLATIONS = {
    "scalar-bounds": (dict(M=0, N=-2, delta_f_hz=0.0, d_t=0, d_f=0), (
        "M must be >= 1, got 0\nN must be >= 1, got -2\nd_t must be >= 1, got 0\n"
        "d_f must be >= 1, got 0\ndelta_f_hz must be positive and finite, got 0.0")),
    "run-bounds": (dict(channel_model="fancy", estimators=(), snr_db=(), n_trials=0, gamma_threshold=0.0), (
        f"n_trials must be between 1 and {MAX_TRIALS}, got 0\n"
        "gamma_threshold must be positive and finite, got 0.0\n"
        "unsupported channel_model 'fancy', supported: ('diag', 'full')\n"
        "estimators list must not be empty\nsnr_db list must not be empty")),
    # built in code, a config holds nan or inf without a parser in between
    **{f"{key}={value}": (dict(**{key: value}), f"{key} must be positive and finite, got {value}")
       for key in ("delta_f_hz", "gamma_threshold") for value in (math.nan, math.inf)},
    "repeated-estimator": (dict(estimators=("ideal", "ideal")),
                           "estimators must not repeat, got ['ideal', 'ideal']"),
    "grid-at-bound": (dict(M=1024, N=MAX_GRID_RES // 1024, estimators=_NO_MMSE), ""),
    "grid-past-bound": (dict(M=4096, N=4096, d_t=1, d_f=1, estimators=_NO_MMSE), (
        f"grid M*N = 16777216 exceeds {MAX_GRID_RES} resource elements\n{ALL_PILOT}")),
    # past the float range: the int rule keeps the float-valued support rules from running
    "M=10**400": (dict(M=10**400), "M must lie within the float64 range, got an integer of 1329 bits"),
    "N=10**400": (dict(N=10**400), "N must lie within the float64 range, got an integer of 1329 bits"),
    "trials-at-bound": (dict(n_trials=MAX_TRIALS), ""),
    "trials-past-bound": (dict(n_trials=MAX_TRIALS + 1),
                          f"n_trials must be between 1 and {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
    "mmse-pilots-at-bound": (dict(M=256, N=128), ""),
    "mmse-pilots-past-bound": (dict(M=256, N=256), (
        f"mmse-genie needs n_pilot <= {MAX_MMSE_PILOTS} for its dense pilot correlation, "
        "got (M/d_f)*(N/d_t) = 4096")),
    "mmse-pilots-without-mmse": (dict(M=256, N=256, estimators=_NO_MMSE), ""),
}


@pytest.mark.parametrize("case", list(_VIOLATIONS))
def test_violations_of_a_config_built_in_code(case):
    fields, message = _VIOLATIONS[case]
    assert "\n".join(replace(default_config(), **fields).violations()) == message


_PROFILE_KEYS = ("tap_delays_ns", "tap_powers_db", "v_kmh", "f_c_hz")


def _with(cfg, key, value):
    """cfg with one field set; a profile field is set on its profile."""
    if key in _PROFILE_KEYS:
        return with_overrides(cfg, profile=replace(cfg.profile, **{key: value}))
    return with_overrides(cfg, **{key: value})


# values past the float range: they passed validation and then overflowed
# inside a trial or in the support rules, or (past str()'s digit limit)
# while a message printed M*N
_PAST_FLOAT_RANGE = (("gamma_threshold", 10**400), ("delta_f_hz", 10**400), ("M", 10**5000),
                     ("N", -(10**5000)), ("d_t", 10**400), ("n_trials", 10**5000),
                     ("master_seed", -(10**5000)), ("snr_db", 10**400))
# (key, value, message): small_cfg() with that field set to value is one
# ConfigError with exactly this message, or, for a field of its profile, one
# ProfileError; each value of another kind passed validation or escaped it
# as another error
_FIELD_RULES = [
    *((key, (0.0, value) if key == "snr_db" else value,
       f"{key} must lie within the float64 range, got an integer of {abs(value).bit_length()} bits")
      for key, value in _PAST_FLOAT_RANGE),
    ("M", 128.0, "M must be an integer, got 128.0"),
    ("N", 64.0, "N must be an integer, got 64.0"),
    ("n_trials", 2.5, "n_trials must be an integer, got 2.5"),
    ("master_seed", 1.5, "master_seed must be an integer, got 1.5"),
    ("M", "128", "M must be an integer, got '128'"),
    ("M", None, "M must be an integer, got None"),
    ("M", True, "M must be an integer, got True"),
    ("gamma_threshold", "4", "gamma_threshold must be a real number, got '4'"),
    ("delta_f_hz", 1j, "delta_f_hz must be a real number, got 1j"),
    ("on_grid_doppler", "yes", "on_grid_doppler must be true or false, not str"),
    ("snr_db", ("20",), "snr_db must be a real number, got '20'"),
    ("snr_db", (1j,), "snr_db must be a real number, got 1j"),
    ("snr_db", (None,), "snr_db must be a real number, got None"),
    ("snr_db", (True,), "snr_db must be a real number, got True"),
    ("snr_db", "20", "snr_db must be a list, not str"),
    ("estimators", "ideal", "estimators must be a list, not str"),
    ("estimators", (np.array(["ideal", "x"]),), "estimators must be a list of names, got a ndarray entry"),
    ("profile", None, "profile must be a ChannelProfile, not NoneType"),
    ("profile", "x", "profile must be a ChannelProfile, not str"),
    *((key, value, f"{key} must lie within the float64 range, got an integer of 1329 bits")
      for key, value in (("tap_delays_ns", (0.0, 10**400)), ("tap_powers_db", (0.0, 10**400)),
                         ("v_kmh", 10**400), ("f_c_hz", 10**400))),
    # the profile's own rules
    *(("v_kmh", value, f"v_kmh must be non-negative and finite, got {value}")
      for value in (math.nan, math.inf, -3.0)),
    *(("f_c_hz", value, f"f_c_hz must be positive and finite, got {value}")
      for value in (0.0, math.nan, -1.0)),
    *(("tap_delays_ns", (0.0, value), f"tap_delays_ns must be non-negative and finite, got {value}")
      for value in (math.inf, math.nan)),
    ("tap_delays_ns", (0.0, -5.0), "tap_delays_ns must be non-negative and finite, got -5.0"),
    ("tap_powers_db", (0.0,),
     "profile needs matching, non-empty delay and power lists (got 2 delays, 1 powers)"),
    ("tap_powers_db", (0.0, math.nan), "tap_powers_db must be finite, got nan"),
    ("tap_powers_db", (math.inf, 0.0), "tap_powers_db must be finite, got inf"),
    ("tap_powers_db", (4000.0, 0.0), "tap powers must peak within +-3000 dB, got 4000 dB"),
    ("tap_powers_db", (-4000.0, -4000.0), "tap powers must peak within +-3000 dB, got -4000 dB"),
]


@pytest.mark.parametrize("key, value, message", [
    pytest.param(key, value, message, id=f"{key}={spell(value)}") for key, value, message in _FIELD_RULES
])
def test_a_bad_field_is_one_error_with_its_rules_message(key, value, message):
    with pytest.raises((ConfigError, ProfileError)) as info:
        _with(small_cfg(), key, value)
    assert type(info.value) is (ProfileError if key in _PROFILE_KEYS else ConfigError)
    assert str(info.value) == message


def test_a_seed_inside_the_float_range_stays_valid():
    # run_trial validates each child seed, a uint64, as master_seed
    assert with_overrides(default_config(), master_seed=2**64 - 1).master_seed == 2**64 - 1


def _with_past_float_range_examples(test):
    """The values of _PAST_FLOAT_RANGE, as explicit examples of a property."""
    for key, value in _PAST_FLOAT_RANGE:
        test = example(key, value)(test)
    return test


@_with_past_float_range_examples
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from(
        ("M", "N", "d_t", "d_f", "n_trials", "master_seed", "delta_f_hz", "gamma_threshold",
         "on_grid_doppler", "snr_db") + _PROFILE_KEYS
    ),
    ODD_VALUES,
)
def test_any_field_value_is_one_config_or_profile_error_or_a_config_that_runs(key, value):
    """A value set on one field (as the one SNR, or as the second tap of a
    list) is refused with a ConfigError or ProfileError, or gives a config
    on which a trial runs."""
    if key == "snr_db":
        value = (value,)
    elif key in ("tap_delays_ns", "tap_powers_db"):
        value = (0.0, value)
    try:
        run = _with(small_cfg(), key, value)
    except (ConfigError, ProfileError):
        return
    run_trial(run, run.profile, run.snr_db[0], "ideal", 0)


def test_derived_quantities():
    cfg = default_config()
    assert cfg.T == pytest.approx(1.0 / 15e3)
    assert cfg.n_pilot == 32 * 16
    assert replace(cfg, M=256, N=128).n_pilot == MAX_MMSE_PILOTS


def test_mobility_override_is_validated_and_simulated():
    """The profile alone carries mobility: validation checks the speed the
    channel draws from, and an accepted speed reaches the drawn Dopplers."""
    cfg = default_config()
    with pytest.raises(ConfigError, match="Doppler support violated"):
        with_overrides(cfg, profile=replace(cfg.profile, v_kmh=1200.0))
    slow = with_overrides(cfg, profile=replace(cfg.profile, v_kmh=25.0))
    fast_k = gen_paths(cfg, cfg.profile, np.random.default_rng(5)).dopplers
    slow_k = gen_paths(slow, slow.profile, np.random.default_rng(5)).dopplers
    assert np.allclose(slow_k, fast_k / 10.0, rtol=1e-12, atol=0.0)


@st.composite
def _mobility_configs(draw):
    """Valid lattices up to 64 x 32 with random speed, carrier and tap delays."""
    d_t, d_f = draw(st.sampled_from((1, 2, 4))), draw(st.sampled_from((1, 2, 4)))
    big_n = 2 * d_t * draw(st.integers(1, 16 // d_t))
    big_m = d_f * draw(st.integers(1, 64 // d_f))
    delays = draw(st.lists(st.floats(0.0, 20_000.0), min_size=1, max_size=4))
    profile = ChannelProfile(
        tuple(delays),
        (0.0,) * len(delays),
        v_kmh=draw(st.floats(0.0, 3000.0)),
        f_c_hz=draw(st.floats(1e8, 6e9)),
    )
    return SystemConfig(M=big_m, N=big_n, delta_f_hz=15e3, d_t=d_t, d_f=d_f, profile=profile)


@settings(max_examples=50, deadline=None, database=None)
@given(_mobility_configs())
def test_validation_accepts_exactly_what_the_channel_can_draw(cfg):
    """Past the all-pilot lattice, which is refused for its own reason and
    with its own message, validation and the channel agree."""
    errs = cfg.violations()
    all_pilot = cfg.d_t == cfg.d_f == 1
    assert (ALL_PILOT in errs) == all_pilot
    try:
        gen_paths(cfg, cfg.profile, np.random.default_rng(0))
        drawable = True
    except (SupportError, ProfileError):
        drawable = False
    assert (errs == [ALL_PILOT] * all_pilot) == drawable


_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-(10**30), 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(("0", "-1", "1e-320", "1e308", "inf", "-inf", "nan", "true", "", ",", "qam4")),
    st.just("1" + "0" * 400),  # an int past the float range
    st.lists(st.floats(-1e4, 1e5).map(repr), max_size=4).map(", ".join),
)
_LINES = st.one_of(
    st.text(max_size=40),
    st.builds("{} = {}".format, st.sampled_from(sorted(_KEYS) + ["bogus"]), _VALUES),
)
_GOOD_PAIRS = dict(ln.split(" = ", 1) for ln in GOOD.strip().splitlines())


@st.composite
def _edited_good_configs(draw):
    """GOOD with some keys dropped and some values replaced."""
    pairs = dict(_GOOD_PAIRS)
    for key in draw(st.lists(st.sampled_from(sorted(pairs)), max_size=2)):
        pairs.pop(key, None)
    edits = draw(st.dictionaries(st.sampled_from(sorted(_KEYS)), _VALUES, max_size=4))
    pairs.update(edits)
    return "\n".join(f"{k} = {v}" for k, v in pairs.items())


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.one_of(
        st.text(),
        st.lists(_LINES, max_size=20).map("\n".join),
        _edited_good_configs(),
    )
)
def test_load_config_raises_only_config_error(text):
    """Whatever the text, the loader returns a validated config or raises a
    ConfigError; no other exception escapes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            cfg = load_config(path)
        except ConfigError:
            return
    assert cfg.violations() == []
