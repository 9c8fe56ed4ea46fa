"""The one integer contract and the one finiteness contract.

Every count, index, code, size and delay of the public API goes through
``errors.require_int`` (``SITES``), so a bool, any float or an out-of-range value raises
the site's typed error naming the argument, and numpy integers in range still pass.  A
``SimConfig`` holding such a value, or any other invalid one, cannot even be built.

Every float input the receiver cannot handle goes through ``errors.require_finite`` or a
one-pass check named in its docstring (``FINITE_SITES``): NaN, +inf and -inf raise the
site's typed error naming the argument, with no numpy warning and before LAPACK sees the
value, and a site whose check is a sum also rejects finite values that overflow it.  An
SNR is not such a site: +inf is a noiseless run.
"""

import math
import warnings
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
    synthesize_waveform_mode,
)
from rangesim.cxmath import general_eigenvalues, hermitian_evd, ls_rotation
from rangesim.errors import ConfigError, DimensionError, ValidationError, require_int
from rangesim.ranger import (
    RangerConfig,
    esprit_phases,
    estimate_num_codes,
    map_cfo,
    map_timing,
    range_subchannel,
)
from rangesim.simlab import (
    SimConfig,
    draw_users,
    esprit_periodogram_gap,
    format_count,
    noiseless_exactness,
    oracle_periodogram,
    run_trial,
    timing_error_event,
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


def _eye_with(value, n=3):
    """The n x n identity with ``value`` at entry (1, 1)."""
    a = np.eye(n, dtype=complex)
    a[1, 1] = value
    return a


def _grid_with(value):
    """An all-ones reference grid with ``value`` at one entry."""
    grid = np.ones((4, 16, 4), dtype=complex)
    grid[1, 3, 2] = value
    return grid


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
    # before, code_matrix(1.5, 4, 4)[0, 1] was -1, and True and -1 built matrices too
    "code_matrix.code": (lambda v: code_matrix(v, 4, 4), ValidationError, "code", -1, np.int64(2)),
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
        lambda v, f=_field: replace(_DEFAULTS, **{f: v}), ConfigError, _field, _bad,
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


@pytest.mark.parametrize("codes", [np.array([0.0, 1.0]), np.array([False, True])],
                         ids=["float", "bool"])
def test_code_array_of_floats_or_bools_rejected(codes):
    # before, each built a stack of matrices, as 0.0 and False read as code 0
    with pytest.raises(ValidationError, match="code must be an integer"):
        code_matrix(codes, 4, 4)


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


NON_FINITE = (math.nan, math.inf, -math.inf)

# site id -> (call with the float under test, error class, name in the message, the values
#             it must reject: NaN, +inf and -inf, and where the check is a sum, one that
#             overflows it).  Each comment says what such a value did before the check.
FINITE_SITES = {
    # a NaN eigenvalue read as "no users", a -inf one as three users, and four of 1e308 as 3
    "estimate_num_codes.eigenvalues": (lambda v: estimate_num_codes([v] * 4, 64, 3),
                                       ValidationError, "eigenvalues", (*NON_FINITE, 1e308)),
    # a NaN eigenvalue weighed the phases into a plausible order
    "esprit_phases.eigenvalues": (
        lambda v: esprit_phases([v, 1.0, 1.0, 1.0], np.eye(4, dtype=complex), 1),
        ValidationError, "eigenvalues", NON_FINITE),
    "map_cfo.effective_cfos": (lambda v: map_cfo(np.array([0.1, v]), REFERENCE),
                               ValidationError, "effective CFOs", NON_FINITE),
    "map_timing.effective_timings": (lambda v: map_timing(np.array([v, 0.1]), REFERENCE, 204),
                                     ValidationError, "effective timings", NON_FINITE),
    # LAPACK saw the value: OpenBLAS printed DLASCL/ZLASCL complaints to stderr, and numpy
    # raised its own error
    "hermitian_evd.a": (lambda v: hermitian_evd(_eye_with(v)),
                        ValidationError, "matrix", NON_FINITE),
    "ls_rotation.basis": (lambda v: ls_rotation(_eye_with(v)[:, :2]),
                          ValidationError, "basis", NON_FINITE),
    "ls_rotation.basis_rhs": (lambda v: ls_rotation(_eye_with(v)[:, 1:]),
                              ValidationError, "basis", NON_FINITE),
    "general_eigenvalues.a": (lambda v: general_eigenvalues(_eye_with(v)),
                              ValidationError, "matrix", NON_FINITE),
    # a NaN grid must not read as "no users"; an entry of 1e200 overflowed the correlation
    # sums, with numpy warnings, and failed as "matrix has non-finite entries"
    "TileObservations.grid": (
        lambda v: range_subchannel(TileObservations(REFERENCE, _grid_with(v)),
                                   RangerConfig(max_delay=204)),
        ValidationError, "grid", (*NON_FINITE, 1e200)),
    # NaN compared False against both window edges and scored as aligned
    "timing_error_event.delay_est": (lambda v: timing_error_event(v, 100.0, 32, 12),
                                     ValidationError, "delay estimate", NON_FINITE),
    "timing_error_event.delay_true": (lambda v: timing_error_event(100.0, v, 32, 12),
                                      ValidationError, "true delay", NON_FINITE),
    "oracle_periodogram.snapshots": (lambda v: oracle_periodogram(_eye_with(v, 4), 1e-2),
                                     ValidationError, "snapshots", NON_FINITE),
}
# each synthesizer's user and noise checks; before them, each of these values made a
# non-finite grid that surfaced only in the receiver, as "matrix has non-finite entries"
for _mode, _synthesize in (("model", synthesize_model_mode),
                           ("waveform", synthesize_waveform_mode)):
    FINITE_SITES[f"{_mode}.user.cfo"] = (
        lambda v, f=_synthesize: f([UserTruth(0, 0, v, np.ones(1, dtype=complex))], SMALL, 0.0,
                                   np.random.default_rng(0)),
        ValidationError, "CFO", NON_FINITE)
    FINITE_SITES[f"{_mode}.user.cir"] = (
        lambda v, f=_synthesize: f([UserTruth(0, 0, 0.0, np.array([1.0, v]))], SMALL, 0.0,
                                   np.random.default_rng(0)),
        ValidationError, "channel taps", (*NON_FINITE, 1e200))
    FINITE_SITES[f"{_mode}.noise_var"] = (
        lambda v, f=_synthesize: f([], SMALL, v, np.random.default_rng(0)),
        ValidationError, "noise variance", NON_FINITE)


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}={value!r}")
    for site, row in FINITE_SITES.items() for value in row[3]])
def test_non_finite_value_raises_the_site_error(site, value, capfd):
    call, error, name, _ = FINITE_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as another error
        with pytest.raises(error) as caught:
            call(value)
    assert name in str(caught.value)
    assert "LASCL" not in capfd.readouterr().err
