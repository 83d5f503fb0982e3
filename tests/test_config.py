"""Config file loading and whole-config validation."""

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
from helpers import ALL_PILOT, ODD_VALUES, small_cfg

REPO_CFG = os.path.join(os.path.dirname(__file__), "..", "paper.cfg")


def write_cfg(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


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
    cfg = load_config(REPO_CFG)
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


def test_minimal_config_and_optional_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, GOOD))
    assert cfg.M == 64 and cfg.N == 32
    assert cfg.channel_model == "diag"  # optional keys fall back
    assert cfg.gamma_threshold == 4.0
    assert cfg.estimators == ("ideal", "ls-interp")
    assert cfg.snr_db == (0.0, 10.0, 20.0)
    assert np.allclose(cfg.profile.tap_delays_ns, (0.0, 3125.0))


def test_comments_blanks_and_bools(tmp_path):
    text = GOOD + "\n# trailing comment\n\non_grid_doppler = TRUE\n"
    cfg = load_config(write_cfg(tmp_path, text))
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
    text = (
        GOOD.replace("M = 64", "M = 12x")
        .replace("master_seed = 1", "master_seed = 1e3")
        .replace("snr_db = 0, 10, 20", "snr_db = 0, ten")
    )
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


def test_bad_bool_rejected(tmp_path):
    text = GOOD + "on_grid_doppler = maybe\n"
    with pytest.raises(ConfigError, match="line 15: on_grid_doppler: expected true or false"):
        load_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize(
    "key, message",
    [
        ("delta_f_hz", "delta_f_hz must be positive and finite, got nan"),
        ("delta_f_hz", "delta_f_hz must be positive and finite, got inf"),
        ("f_c_hz", "f_c_hz must be positive and finite, got nan"),
        ("f_c_hz", "f_c_hz must be positive and finite, got inf"),
        ("v_kmh", "v_kmh must be non-negative and finite, got nan"),
        ("v_kmh", "v_kmh must be non-negative and finite, got inf"),
        ("gamma_threshold", "gamma_threshold must be positive and finite, got nan"),
        ("gamma_threshold", "gamma_threshold must be positive and finite, got inf"),
    ],
)
def test_nan_float_is_rejected_by_the_rule_of_its_key(tmp_path, key, message):
    """The parser takes nan and inf as floats; the one rule that owns the
    key rejects them, before any numpy work can warn.  The value written is
    the one the message ends with."""
    value = message.rsplit(" ", 1)[1]
    kept = [ln for ln in GOOD.splitlines() if not ln.startswith(f"{key} =")]
    text = "\n".join(kept + [f"{key} = {value}"]) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, text))
    assert str(err.value) == message


@pytest.mark.parametrize("snr", ["nan", "-inf"])
def test_nonfinite_snr_rejected(tmp_path, snr):
    text = GOOD.replace("snr_db = 0, 10, 20", f"snr_db = 0, {snr}")
    with pytest.raises(ConfigError, match="snr_db entries must be finite"):
        load_config(write_cfg(tmp_path, text))


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


def test_snr_whose_noise_variance_overflows_rejected(tmp_path):
    text = GOOD.replace("snr_db = 0, 10, 20", "snr_db = 0, -4000")
    with pytest.raises(ConfigError, match=r"snr_db entries .*-4000"):
        load_config(write_cfg(tmp_path, text))


def test_nan_grid_spacing_and_threshold_rejected():
    """Built in code, a config holds nan or inf without a parser in between."""
    for value in (math.nan, math.inf):
        errs = "\n".join(replace(default_config(), delta_f_hz=value).violations())
        assert f"delta_f_hz must be positive and finite, got {value}" in errs
        errs = "\n".join(replace(default_config(), gamma_threshold=value).violations())
        assert f"gamma_threshold must be positive and finite, got {value}" in errs


def test_negative_master_seed_rejected(tmp_path):
    text = GOOD.replace("master_seed = 1", "master_seed = -1")
    with pytest.raises(ConfigError, match="master_seed must be >= 0, got -1"):
        load_config(write_cfg(tmp_path, text))
    assert load_config(write_cfg(tmp_path, GOOD.replace("master_seed = 1", "master_seed = 0")))


def test_delay_past_the_int64_range_rejected(tmp_path):
    text = GOOD.replace("tap_delays_ns = 0.0, 3125.0", "tap_delays_ns = 0.0, 1e300")
    with pytest.raises(ConfigError, match="exceeds M/d_f - 1"):
        load_config(write_cfg(tmp_path, text))


def test_noiseless_snr_accepted(tmp_path):
    text = GOOD.replace("snr_db = 0, 10, 20", "snr_db = 0, inf")
    assert load_config(write_cfg(tmp_path, text)).snr_db == (0.0, float("inf"))


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
    with open(REPO_CFG, "rb") as fh:
        path.write_bytes(b"\xef\xbb\xbf" + fh.read())
    assert load_config(str(path)) == load_config(REPO_CFG)


def test_semantic_violations_are_aggregated(tmp_path):
    text = GOOD.replace("v_kmh = 120", "v_kmh = 5000").replace(
        "estimators = ideal, ls-interp", "estimators = ideal, warp-drive"
    )
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, text))
    msg = str(err.value)
    assert "Doppler support violated" in msg
    assert "warp-drive" in msg


@pytest.mark.parametrize(
    "line, bad, message",
    [
        ("v_kmh = 120", "v_kmh = -3", "v_kmh must be non-negative"),
        ("f_c_hz = 2.1e9", "f_c_hz = 0", "f_c_hz must be positive"),
        ("tap_powers_db = 0.0, -3.0", "tap_powers_db = nan, -3.0", "tap_powers_db must be finite"),
    ],
)
def test_bad_profile_keys_rejected(tmp_path, line, bad, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write_cfg(tmp_path, GOOD.replace(line, bad)))


def test_lattice_divisibility_blocks_derived_checks(tmp_path):
    # with a non-dividing d_t only the divisibility complaint makes sense
    text = GOOD.replace("d_t = 2", "d_t = 3").replace("v_kmh = 120", "v_kmh = 5000")
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, text))
    msg = str(err.value)
    assert "N = 32 is not divisible by d_t = 3" in msg
    assert "Doppler support" not in msg


def test_a_pilot_on_every_resource_element_is_refused(tmp_path):
    """d_t = d_f = 1 leaves no data symbol, so no BER could be scored."""
    text = GOOD.replace("d_t = 2", "d_t = 1").replace("d_f = 2", "d_f = 1")
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, text))
    assert str(err.value) == ALL_PILOT
    # a pilot on every subcarrier or on every symbol alone leaves data to score
    assert load_config(write_cfg(tmp_path, GOOD.replace("d_t = 2", "d_t = 1"))).d_t == 1
    assert load_config(write_cfg(tmp_path, GOOD.replace("d_f = 2", "d_f = 1"))).d_f == 1


def test_doppler_period_parity_check(tmp_path):
    # N/d_t = 15 cannot split into symmetric halves
    text = GOOD.replace("N = 32", "N = 30").replace("d_t = 2", "d_t = 2")
    text = text.replace("v_kmh = 120", "v_kmh = 20")
    with pytest.raises(ConfigError, match="must be even"):
        load_config(write_cfg(tmp_path, text))


def test_profile_collision_reported(tmp_path):
    text = GOOD.replace("tap_delays_ns = 0.0, 3125.0", "tap_delays_ns = 0.0, 100.0")
    with pytest.raises(ConfigError, match="collide"):
        load_config(write_cfg(tmp_path, text))


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


def test_violations_cover_scalar_bounds():
    cfg = default_config()
    bad = SystemConfig(M=0, N=-2, delta_f_hz=0.0, d_t=0, d_f=0, profile=cfg.profile)
    msgs = "\n".join(bad.violations())
    assert "M must be >= 1, got 0\nN must be >= 1, got -2" in msgs
    assert "d_t must be >= 1, got 0\nd_f must be >= 1, got 0" in msgs
    assert "delta_f_hz must be positive" in msgs
    # mobility is the profile's, which checks it when it is built
    with pytest.raises(ProfileError, match="f_c_hz must be positive"):
        replace(cfg.profile, f_c_hz=-1.0)
    with pytest.raises(ProfileError, match="v_kmh must be non-negative"):
        replace(cfg.profile, v_kmh=-3.0)

    worse = SystemConfig(
        M=128, N=64, delta_f_hz=15e3, d_t=4, d_f=4, profile=cfg.profile,
        channel_model="fancy", estimators=(),
        snr_db=(), n_trials=0, gamma_threshold=0.0,
    )
    msgs = "\n".join(worse.violations())
    assert "unsupported channel_model" in msgs
    assert "estimators list must not be empty" in msgs
    assert "snr_db list must not be empty" in msgs
    assert "n_trials must be >= 1" in msgs
    assert "gamma_threshold must be positive" in msgs


_PAST_FLOAT_RANGE = [
    # passed validation, then overflowed inside a trial
    ("gamma_threshold", 1, 400, "gamma_threshold must lie within the float64 range"),
    # overflowed in the support rules
    ("delta_f_hz", 1, 400, "delta_f_hz must lie within the float64 range"),
    # past str()'s digit limit while a message printed M*N; its id names the
    # input, so that rewording the message renames no test
    pytest.param("M", 1, 5000, "M must lie within the float64 range", id="M=10**5000"),
    ("N", -1, 5000, "N must lie within the float64 range"),
    ("d_t", 1, 400, "d_t must lie within the float64 range"),
    ("n_trials", 1, 5000, "n_trials must lie within the float64 range"),
    ("master_seed", -1, 5000, "master_seed must lie within the float64 range"),
    ("snr_db", 1, 400, "snr_db must lie within the float64 range"),
]


@pytest.mark.parametrize("key, sign, exponent, message", _PAST_FLOAT_RANGE)
def test_a_number_past_the_float_range_is_one_config_error_naming_its_key(
    key, sign, exponent, message
):
    value = sign * 10**exponent
    with pytest.raises(ConfigError) as info:
        with_overrides(default_config(), **{key: (0.0, value) if key == "snr_db" else value})
    msg = str(info.value)
    assert msg.startswith(message) and "\n" not in msg


def test_a_seed_inside_the_float_range_stays_valid():
    # run_trial validates each child seed, a uint64, as master_seed
    assert with_overrides(default_config(), master_seed=2**64 - 1).master_seed == 2**64 - 1


_PROFILE_KEYS = ("tap_delays_ns", "tap_powers_db", "v_kmh", "f_c_hz")


def _with(cfg, key, value):
    """cfg with one field set; a profile field is set on its profile."""
    if key in _PROFILE_KEYS:
        return with_overrides(cfg, profile=replace(cfg.profile, **{key: value}))
    return with_overrides(cfg, **{key: value})


_WRONG_KIND = {  # name: (key, value); each passed validation or escaped it as another error
    "float M": ("M", 128.0),
    "float N": ("N", 64.0),
    "fractional n_trials": ("n_trials", 2.5),
    "fractional master_seed": ("master_seed", 1.5),
    "str M": ("M", "128"),
    "None M": ("M", None),
    "bool M": ("M", True),
    "str gamma_threshold": ("gamma_threshold", "4"),
    "complex delta_f_hz": ("delta_f_hz", 1j),
    "str on_grid_doppler": ("on_grid_doppler", "yes"),
    "str snr entry": ("snr_db", ("20",)),
    "complex snr entry": ("snr_db", (1j,)),
    "None snr entry": ("snr_db", (None,)),
    "bare snr string": ("snr_db", "20"),
    "bare estimator string": ("estimators", "ideal"),
    "array estimator name": ("estimators", (np.array(["ideal", "x"]),)),
    "None profile": ("profile", None),
    "str profile": ("profile", "x"),
    "huge tap delay": ("tap_delays_ns", (0.0, 10**400)),
    "huge tap power": ("tap_powers_db", (0.0, 10**400)),
    "huge speed": ("v_kmh", 10**400),
    "huge carrier": ("f_c_hz", 10**400),
}


@pytest.mark.parametrize("case", sorted(_WRONG_KIND))
def test_a_value_of_another_kind_is_one_error_naming_its_key(case):
    key, value = _WRONG_KIND[case]
    with pytest.raises((ConfigError, ProfileError)) as info:
        _with(default_config(), key, value)
    msg = str(info.value)
    assert msg.startswith(f"{key} must ") and "\n" not in msg


def _with_past_float_range_examples(test):
    """The cases of _PAST_FLOAT_RANGE, as explicit examples of a property."""
    for case in _PAST_FLOAT_RANGE:
        key, sign, exponent, _ = getattr(case, "values", case)  # a pytest.param holds its values
        test = example(key, sign * 10**exponent)(test)
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



def test_repeated_estimators_rejected():
    msgs = "\n".join(replace(default_config(), estimators=("ideal", "ideal")).violations())
    assert "estimators must not repeat" in msgs


def test_resource_bounds():
    """Checked through validation only: nothing of these sizes is built."""
    cfg = default_config()

    def violations(**kw):
        return "\n".join(replace(cfg, **kw).violations())

    no_mmse = ("ls-interp", "csf-offgrid")
    assert violations(M=1024, N=MAX_GRID_RES // 1024, estimators=no_mmse) == ""
    assert "resource elements" in violations(M=4096, N=4096, d_t=1, d_f=1, estimators=no_mmse)
    # past the float range: the int rule keeps the float-valued support rules from running
    assert violations(M=10**400) == "M must lie within the float64 range, got an integer of 1329 bits"
    assert violations(N=10**400) == "N must lie within the float64 range, got an integer of 1329 bits"
    assert violations(n_trials=MAX_TRIALS) == ""
    assert f"n_trials must be <= {MAX_TRIALS}" in violations(n_trials=MAX_TRIALS + 1)
    assert replace(cfg, M=256, N=128).n_pilot == MAX_MMSE_PILOTS
    assert violations(M=256, N=128) == ""
    assert "mmse-genie needs n_pilot" in violations(M=256, N=256)
    assert violations(M=256, N=256, estimators=no_mmse) == ""


def test_derived_quantities():
    cfg = default_config()
    assert cfg.T == pytest.approx(1.0 / 15e3)
    assert cfg.n_pilot == 32 * 16
    assert cfg.profile.nu_max_hz == pytest.approx(486.11111111111114)


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
