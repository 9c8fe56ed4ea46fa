"""The one integer contract: every count, index, code, size and delay of the public API
goes through ``errors.require_int``, so a bool, any float or an out-of-range value raises
the site's typed error naming the argument, and numpy integers in range still pass.  A
``SimConfig`` holding such a value, or any other invalid one, cannot even be built."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rangesim.airmodel import (
    ChannelProfile,
    TileLayout,
    TileObservations,
    UserTruth,
    code_matrix,
    draw_channel,
    synthesize_model_mode,
)
from rangesim.cxmath import hermitian_evd
from rangesim.errors import ConfigError, DimensionError, ValidationError, require_int
from rangesim.ranger import (
    RangerConfig,
    esprit_phases,
    estimate_num_codes,
    map_timing,
    range_subchannel,
)
from rangesim.simlab import (
    SimConfig,
    draw_users,
    esprit_periodogram_gap,
    format_count,
    noiseless_exactness,
    run_trial,
    wilson_interval,
)

SMALL = TileLayout.uniform(64, 4, 4, 4, 16)  # codes 0..2
REFERENCE = SimConfig().layout()  # delays 0..341, codes 0..3 of which 3 are usable
IDLE = TileObservations(REFERENCE, np.zeros((4, 16, 4), dtype=complex))
EIGENVALUES = [2.0, 1.0, 1.0, 1.0]


def _spectrum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    return hermitian_evd(x @ x.conj().T)


def _model_grid(code, delay):
    user = UserTruth(code, delay, 0.0, np.ones(1, dtype=complex))
    return synthesize_model_mode([user], SMALL, 0.0, np.random.default_rng(0))


# site id -> (call with the integer under test, error class, name in the message,
#             an out-of-range value, an in-range numpy integer)
SITES = {
    "TileLayout.n_subcarriers": (lambda v: TileLayout(v, 4, 4, (0, 4), 4),
                                 ValidationError, "n_subcarriers", 0, np.int64(16)),
    "TileLayout.n_blocks": (lambda v: TileLayout(16, v, 4, (0, 4), 4),
                            ValidationError, "n_blocks", 1, np.int16(4)),
    "TileLayout.tile_width": (lambda v: TileLayout(16, 4, v, (0, 4), 4),
                              ValidationError, "tile_width", 1, np.int64(4)),
    "TileLayout.cp_ranging": (lambda v: TileLayout(16, 4, 4, (0, 4), v),
                              ValidationError, "ranging prefix", 17, np.int64(4)),
    "TileLayout.tile_starts": (lambda v: TileLayout(16, 4, 4, (0, v), 4),
                               ValidationError, "tile start", 13, np.int64(8)),
    "TileLayout.uniform.n_tiles": (lambda v: TileLayout.uniform(64, 4, v, 4, 16),
                                   ValidationError, "n_tiles", 0, np.int64(4)),
    "TileLayout.uniform.spacing": (lambda v: TileLayout.uniform(64, 4, 4, 4, 16, spacing=v),
                                   ValidationError, "spacing", 0, np.int16(16)),
    "ChannelProfile.n_taps": (lambda v: ChannelProfile(v, 12.0),
                              ValidationError, "n_taps", 0, np.int64(3)),
    "draw_channel.size": (lambda v: draw_channel(ChannelProfile(3, 1.0), np.random.default_rng(0),
                                                 size=v),
                          ValidationError, "size", -1, np.int64(2)),
    "code_matrix.tile_width": (lambda v: code_matrix(1, v, 4),
                               ValidationError, "tile_width", 1, np.int64(4)),
    "code_matrix.n_blocks": (lambda v: code_matrix(1, 4, v),
                             ValidationError, "n_blocks", 1, np.int64(4)),
    "user.code": (lambda v: _model_grid(v, 0), ValidationError, "code", 3, np.int64(2)),
    "user.delay": (lambda v: _model_grid(0, v), ValidationError, "delays", -1, np.int16(7)),
    "estimate_num_codes.num_snapshots": (lambda v: estimate_num_codes(EIGENVALUES, v, 3),
                                         ValidationError, "snapshot count", 0, np.int64(64)),
    "estimate_num_codes.cap": (lambda v: estimate_num_codes(EIGENVALUES, 64, v),
                               ValidationError, "model-order cap", 4, np.int64(3)),
    "esprit_phases.num_sources": (lambda v: esprit_phases(*_spectrum(), v),
                                  DimensionError, "source count", 4, np.int64(2)),
    "RangerConfig.known_num_codes": (
        lambda v: range_subchannel(IDLE, RangerConfig(max_delay=204, known_num_codes=v)),
        ConfigError, "known code count", 4, np.int64(0)),
    "RangerConfig.max_delay": (lambda v: range_subchannel(IDLE, RangerConfig(max_delay=v)),
                               ConfigError, "max delay", 342, np.int16(341)),
    "map_timing.max_delay": (lambda v: map_timing(np.zeros(1), REFERENCE, v),
                             ConfigError, "max delay", -1, np.int64(204)),
    "draw_users.count": (lambda v: draw_users(SimConfig(), np.random.default_rng(0), count=v),
                         ValidationError, "user count", 4, np.int64(2)),
    "run_trial.trial_index": (lambda v: run_trial(SimConfig(mode="model"), 10.0, v),
                              ValidationError, "trial index", -1, np.int64(1)),
    "wilson_interval.count": (lambda v: wilson_interval(v, 10),
                              ValidationError, "count", 11, np.int64(3)),
    "wilson_interval.trials": (lambda v: wilson_interval(0, v),
                               ValidationError, "trial count", 0, np.int64(10)),
    "format_count.count": (lambda v: format_count(v, 10),
                           ValidationError, "count", -1, np.int64(0)),
    "format_count.trials": (lambda v: format_count(0, v),
                            ValidationError, "trial count", 0, np.int16(10)),
    "noiseless_exactness.seed": (lambda v: noiseless_exactness(seed=v, trials=1, max_cfo=0.05),
                                 ValidationError, "seed", -1, np.int64(3)),
    "noiseless_exactness.trials": (lambda v: noiseless_exactness(seed=1, trials=v, max_cfo=0.05),
                                   ValidationError, "trial count", 0, np.int64(1)),
    "esprit_periodogram_gap.seed": (lambda v: esprit_periodogram_gap(trials=1, seed=v),
                                    ValidationError, "seed", -1, np.int64(3)),
    "esprit_periodogram_gap.trials": (lambda v: esprit_periodogram_gap(trials=v, seed=1),
                                      ValidationError, "trial count", 0, np.int16(1)),
}

# every integer field of SimConfig, checked by validate with its out-of-range value
FIELD_LIMITS = {"n_subcarriers": -1, "n_blocks": -1, "n_tiles": -1, "tile_width": -1,
                "cp_ranging": -1, "cp_data": 12, "tile_spacing": -1, "channel_taps": -1,
                "num_users": 4, "max_delay": 342, "trials": 0, "master_seed": -1}
_DEFAULTS = SimConfig(mode="model", trials=2)
for _field, _bad in FIELD_LIMITS.items():
    _good = getattr(_DEFAULTS, _field)
    SITES[f"SimConfig.{_field}"] = (
        lambda v, f=_field: replace(_DEFAULTS, **{f: v}).validate(), ConfigError, _field, _bad,
        np.int64(64 if _good is None else _good))

# every value that no SimConfig may hold, beyond the integer limits above
INVALID_FIELDS = [*FIELD_LIMITS.items(), ("max_cfo", 0.5), ("max_cfo", math.nan), ("cp_data", 5),
                  ("mode", "bogus"), ("snr_list_db", (0.0, math.nan))]


@pytest.mark.parametrize("build", ["construct", "replace"])
@pytest.mark.parametrize("field, value", INVALID_FIELDS,
                         ids=[f"{field}={value!r}" for field, value in INVALID_FIELDS])
def test_no_invalid_config_can_be_built(field, value, build):
    # before, each of these built a config that only a remembered validate() rejected:
    # max_cfo = 0.5 scored p_f = 0.775 at 20 dB and cp_data = 5 a timing error of 1.0
    with pytest.raises(ConfigError, match=f"^{field}"):
        if build == "construct":
            SimConfig(**{field: value})
        else:
            replace(SimConfig(), **{field: value})


BAD_KINDS = {"bool": True, "fraction": 1.5, "integral float": 3.0, "nan": math.nan}


@pytest.mark.parametrize("kind", [*BAD_KINDS, "out of range"])
@pytest.mark.parametrize("site", SITES)
def test_non_integer_or_out_of_range_value_raises_the_site_error(site, kind):
    call, error, name, out_of_range, _ = SITES[site]
    value = out_of_range if kind == "out of range" else BAD_KINDS[kind]
    with pytest.raises(error) as caught:
        call(value)
    assert name in str(caught.value) and repr(value) in str(caught.value)


@pytest.mark.parametrize("site", SITES)
def test_numpy_integer_in_range_accepted(site):
    call, _, _, _, good = SITES[site]
    call(good)


def test_require_int_passes_integers_through_unchanged():
    for value in (0, 7, np.int64(7), np.uint8(7), np.int16(-2)):
        assert require_int("x", value, -2, 7) is value
    assert require_int("x", 10**30, 0) == 10**30  # no upper bound when hi is None


@pytest.mark.parametrize("value, lo, hi, message", [
    (-1, 0, None, "x must be non-negative, got -1"),
    (1, 2, None, "x must be at least 2, got 1"),
    (9, 2, 8, r"x 9 outside \[2, 8\]"),
    (np.float64(4.0), 2, 8, r"x must be an integer, got np.float64\(4.0\)"),
])
def test_require_int_message_states_name_bounds_and_value(value, lo, hi, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        require_int("x", value, lo, hi)
