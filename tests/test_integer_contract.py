"""The one integer contract and the one finiteness contract.

Every count, index, code, size and delay of the public API goes through
``errors.require_int`` (``SITES``), so a bool, any float or an out-of-range value raises
the site's typed error naming the argument, and numpy integers in range still pass.  A
``SimConfig`` holding such a value, or any other invalid one, cannot even be built.  A guard
fails when an ``int`` or ``int | None`` parameter of a public function or class constructor
of the six modules has no ``SITES`` row; only the integer fields of output containers
(``OUTPUT_FIELDS``) are exempt.

Every float input the receiver cannot handle goes through ``errors.require_finite`` or a
one-pass check named in its docstring (``FINITE_SITES``): NaN, +inf and -inf raise the
site's typed error naming the argument, with no numpy warning and before LAPACK sees the
value, and a site whose check is a sum also rejects finite values that overflow it.  A
scalar site also rejects an integer too large for a float and a complex value, and a site
that rounds values to code indices rejects values whose index does not fit int64.  An SNR
is not such a site: +inf is a noiseless run.

Every array input goes through ``errors.require_numbers`` (``NON_ARRAY_SITES``): text, None,
bools, other objects and ragged lists raise the site's typed error naming the argument, a
list of numbers is read as its array, and a code array must hold integers.  Every public
``cxmath`` kernel and every public ``ranger`` stage that takes an array has such a row.
"""

import inspect
import math
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rangesim.airmodel import (
    ChannelProfile,
    TileLayout,
    TileObservations,
    UserTruth,
    draw_channel,
    synthesize_model_mode,
    synthesize_waveform_mode,
)
from rangesim import airmodel, cli, cxmath, errors, ranger, simlab
from rangesim.cxmath import forward_backward, general_eigenvalues, hermitian_evd, ls_rotation
from rangesim.errors import (ConfigError, DimensionError, ValidationError, require_finite,
                             require_int)
from rangesim.ranger import (
    RangerConfig,
    detect_codes,
    esprit_phases,
    estimate_num_codes,
    map_cfo,
    map_timing,
    range_subchannel,
    sample_corr,
)
from rangesim.simlab import (
    SimConfig,
    draw_users,
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
    "TileLayout.uniform.n_subcarriers": (lambda v: TileLayout.uniform(v, 4, 4, 4, 16),
                                         ValidationError, "n_subcarriers", 0, np.int64(64)),
    "TileLayout.uniform.n_tiles": (lambda v: TileLayout.uniform(64, 4, v, 4, 16),
                                   ValidationError, "n_tiles", 0, np.int64(4)),
    "TileLayout.uniform.spacing": (lambda v: TileLayout.uniform(64, 4, 4, 4, 16, spacing=v),
                                   ValidationError, "spacing", 0, np.int16(16)),
    "ChannelProfile.n_taps": (lambda v: ChannelProfile(v, 12.0),
                              ValidationError, "n_taps", 0, np.int64(3)),
    "draw_channel.size": (lambda v: draw_channel(ChannelProfile(3, 1.0), np.random.default_rng(0),
                                                 size=v),
                          ValidationError, "size", -1, np.int64(2)),
    "UserTruth.code": (lambda v: _model_grid(v, 0), ValidationError, "code", 3, np.int64(2)),
    "UserTruth.delay": (lambda v: _model_grid(0, v), ValidationError, "delays", -1, np.int16(7)),
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
                               ConfigError, "max_delay", 342, np.int16(341)),
    "map_timing.max_delay": (lambda v: map_timing(np.zeros(1), REFERENCE, v),
                             ConfigError, "max_delay", -1, np.int64(204)),
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


BAD_KINDS = {"bool": True, "fraction": 1.5, "integral float": 3.0, "nan": math.nan, "text": "abc"}


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


@pytest.mark.parametrize("value, message", [
    (math.nan, "x must be finite, got nan"), (10**400, "x must be finite, got 1000"),
    (0.5j, r"x must be real, got 0.5j"), (np.complex64(1), r"x must be real, got np.complex64"),
    ("10", "x must be a number or an array of numbers, got '10'"),
    (None, "x must be a number or an array of numbers, got None"),
    (object(), "x must be a number or an array of numbers, got <object object"),
    (["1", 2.0], r"x must be a number or an array of numbers, got \['1', 2.0\]"),
    (True, "x must be a number or an array of numbers, got True$"),
    (np.False_, r"x must be a number or an array of numbers, got np.False_$"),
    (np.array([True, False]), r"x must be a number or an array of numbers, got array\(\[ True"),
    ([[1.0], [1.0, 2.0]], r"x must be a number or an array of numbers, got \[\[1.0\], \[1.0")],
    ids=["nan", "10**400", "complex", "numpy-complex", "text", "None", "object", "text-list",
         "bool", "numpy-bool", "bool-array", "ragged"])
def test_require_finite_message_names_the_argument(value, message):
    # an integer past the float range raised a bare OverflowError, a complex scalar passed
    # through as a 0-d array, text, None and objects raised numpy's bare TypeError, and
    # bools passed as the numbers 0 and 1, and a ragged list raised numpy's bare ValueError
    with pytest.raises(ValidationError, match=f"^{message}"):
        require_finite("x", value)


NON_FINITE = (math.nan, math.inf, -math.inf)
BIG_INT = 10**400  # a bare OverflowError from math.isfinite before; ids show it as 10**400
PAST_INT64 = (1e300, -1e300, 1e19)  # finite, but three times each is no int64 code index

# site id -> (call with the float under test, error class, name in the message, the values
#             it must reject: NaN, +inf and -inf, where the check is a sum one that
#             overflows it, where it is scalar an integer past the float range and a complex
#             value, where it must be real (errors.require_finite_real) a complex value, and
#             where it rounds to code indices values past int64).  Each comment
#             says what such a value did before the check.
FINITE_SITES = {
    # a NaN eigenvalue read as "no users", a -inf one as three users, and four of 1e308 as 3;
    # complex ones returned a count after a ComplexWarning: the imaginary parts were dropped
    "estimate_num_codes.eigenvalues": (lambda v: estimate_num_codes([v] * 4, 64, 3),
                                       ValidationError, "eigenvalues",
                                       (*NON_FINITE, 1e308, 2.0 + 1j)),
    # the shape was checked first: a spectrum of another shape holding such a value raised
    # DimensionError, where esprit_phases raises ValidationError
    "estimate_num_codes.eigenvalues_2d": (lambda v: estimate_num_codes(np.full((2, 4), v), 64, 3),
                                          ValidationError, "eigenvalues", (*NON_FINITE, 2.0 + 1j)),
    # a NaN eigenvalue weighed the phases into a plausible order, and a complex one ordered
    # them by a complex "strength"
    "esprit_phases.eigenvalues": (
        lambda v: esprit_phases([v, 1.0, 1.0, 1.0], np.eye(4, dtype=complex), 1),
        ValidationError, "eigenvalues", (*NON_FINITE, 2.0 + 1j)),
    # a value whose rounded code index does not fit int64 warned "invalid value encountered in
    # cast" and mapped to code 1 with an offset of 0.0
    "map_cfo.effective_cfos": (lambda v: map_cfo(np.array([0.1, v]), REFERENCE),
                               ValidationError, "effective CFOs", (*NON_FINITE, *PAST_INT64)),
    "map_timing.effective_timings": (lambda v: map_timing(np.array([v, 0.1]), REFERENCE, 204),
                                     ValidationError, "effective timings",
                                     (*NON_FINITE, *PAST_INT64)),
    # each was attributed to the code as its offset: detect_codes([0], [nan], [0], [5.0])
    # returned ({0: (nan, 5.0)}, 0)
    "detect_codes.cfos": (lambda v: detect_codes([0], [v], [0], [5.0]),
                          ValidationError, "CFOs", (*NON_FINITE, 0.1 + 1j)),
    "detect_codes.delays": (lambda v: detect_codes([0], [0.1], [0], [v]),
                            ValidationError, "delays", (*NON_FINITE, 5.0 + 1j)),
    # NaN made a NaN matrix, and inf raised numpy's RuntimeWarning in the product; so did the
    # finite 1e200 in the correlation's sums and 1e308 in the sum with the mirrored matrix
    "sample_corr.snapshots": (lambda v: sample_corr(_eye_with(v, 4)),
                              ValidationError, "snapshots", (*NON_FINITE, 1e200)),
    "forward_backward.r": (lambda v: forward_backward(_eye_with(v)),
                           ValidationError, "matrix", (*NON_FINITE, 1e308)),
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
    "timing_error_event.delay_est": (lambda v: timing_error_event(v, 100.0, SimConfig()),
                                     ValidationError, "delay estimate", (*NON_FINITE, BIG_INT)),
    "timing_error_event.delay_true": (lambda v: timing_error_event(100.0, v, SimConfig()),
                                      ValidationError, "true delay", (*NON_FINITE, BIG_INT)),
    "oracle_periodogram.snapshots": (lambda v: oracle_periodogram(_eye_with(v, 4)),
                                     ValidationError, "snapshots", NON_FINITE),
}
# each synthesizer's user and noise checks; before them, each non-finite value made a
# non-finite grid that surfaced only in the receiver, as "matrix has non-finite entries", a
# complex CFO built the grid from its real part with only a ComplexWarning, and a complex
# noise variance raised a bare TypeError
for _mode, _synthesize in (("model", synthesize_model_mode),
                           ("waveform", synthesize_waveform_mode)):
    FINITE_SITES[f"{_mode}.user.cfo"] = (
        lambda v, f=_synthesize: f([UserTruth(0, 0, v, np.ones(1, dtype=complex))], SMALL, 0.0,
                                   np.random.default_rng(0)),
        ValidationError, "CFO", (*NON_FINITE, BIG_INT, 0.1 + 0.2j))
    FINITE_SITES[f"{_mode}.user.cir"] = (
        lambda v, f=_synthesize: f([UserTruth(0, 0, 0.0, np.array([1.0, v]))], SMALL, 0.0,
                                   np.random.default_rng(0)),
        ValidationError, "channel taps", (*NON_FINITE, 1e200))
    FINITE_SITES[f"{_mode}.noise_var"] = (
        lambda v, f=_synthesize: f([], SMALL, v, np.random.default_rng(0)),
        ValidationError, "noise variance", (*NON_FINITE, BIG_INT, 1j))


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}={'10**400' if value is BIG_INT else repr(value)}")
    for site, row in FINITE_SITES.items() for value in row[3]])
def test_non_finite_value_raises_the_site_error(site, value, capfd):
    call, error, name, _ = FINITE_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as another error
        with pytest.raises(error) as caught:
            call(value)
    assert name in str(caught.value)
    assert "LASCL" not in capfd.readouterr().err


# the scalar sites whose one check is require_finite: text and None raised numpy's bare
# TypeError there before, and bools passed as 0 and 1 (a CFO of True synthesized a one-spacing
# offset, 7.5 times the acquisition bound, and a noise variance of True drew unit noise)
SCALAR_SITES = ["timing_error_event.delay_est", "timing_error_event.delay_true",
                "model.user.cfo", "model.noise_var", "waveform.user.cfo", "waveform.noise_var"]


@pytest.mark.parametrize("site", SCALAR_SITES)
@pytest.mark.parametrize("value", ["10", None, True, np.True_],
                         ids=["text", "None", "bool", "numpy-bool"])
def test_non_number_raises_the_site_error(site, value):
    call, error, name, _ = FINITE_SITES[site]
    with pytest.raises(error, match=f"^{name} must be a number"):
        call(value)


# what is not an array of numbers, at the array sites of the trial path: case id -> (call,
# error class, name in the message).  Each comment says what the value did before the check.
NON_ARRAY_SITES = {
    # AttributeError: a list has no shape
    "TileObservations.grid=list": (lambda: TileObservations(REFERENCE, [[0]]),
                                   ValidationError, "grid"),
    # numpy's ValueError "data type must provide an itemsize", from the power check
    "TileObservations.grid=text": (lambda: TileObservations(REFERENCE, np.full((4, 16, 4), "1")),
                                   ValidationError, "grid"),
    # AttributeError: None has no conjugate
    "TileObservations.grid=None": (
        lambda: TileObservations(REFERENCE, np.full((4, 16, 4), None)), ValidationError, "grid"),
    # a bare TypeError from summing the nested lists
    "estimate_num_codes.eigenvalues=nested": (lambda: estimate_num_codes([[1, 2], [3, 4]], 4, 1),
                                              DimensionError, "eigenvalues"),
    # returned a count: text converted to floats silently
    "estimate_num_codes.eigenvalues=text": (lambda: estimate_num_codes(["10"] * 4, 64, 3),
                                            ValidationError, "eigenvalues"),
    # bool arrays read as 0 and 1: a grid of True ranged, the phases were weighed by
    # eigenvalues of True and False, and effective offsets of True mapped to codes
    "TileObservations.grid=bool": (
        lambda: TileObservations(REFERENCE, np.ones((4, 16, 4), dtype=bool)),
        ValidationError, "grid"),
    "esprit_phases.eigenvalues=bool": (
        lambda: esprit_phases(np.array([True, False, False, False]), np.eye(4, dtype=complex), 1),
        ValidationError, "eigenvalues"),
    "map_cfo.effective_cfos=bool": (lambda: map_cfo(np.array([True, False]), REFERENCE),
                                    ValidationError, "effective CFOs"),
    "map_timing.effective_timings=bool": (
        lambda: map_timing(np.array([True, False]), REFERENCE, 204),
        ValidationError, "effective timings"),
}

RAGGED = [[1.0], [1.0, 2.0]]
# a ragged list raised numpy's bare ValueError at each of these
for _case, _call, _name in (
        ("map_cfo.effective_cfos", lambda: map_cfo(RAGGED, REFERENCE), "effective CFOs"),
        ("map_timing.effective_timings", lambda: map_timing(RAGGED, REFERENCE, 204),
         "effective timings"),
        ("esprit_phases.eigenvalues", lambda: esprit_phases(RAGGED, np.eye(4), 1), "eigenvalues"),
        ("estimate_num_codes.eigenvalues", lambda: estimate_num_codes(RAGGED, 64, 1),
         "eigenvalues"),
        ("sample_corr.snapshots", lambda: sample_corr(RAGGED), "snapshots")):
    NON_ARRAY_SITES[f"{_case}=ragged"] = (_call, ValidationError, _name)
NON_ARRAY_SITES.update({
    # numeric text was parsed into numbers, and each returned a result
    "forward_backward.r=numeric-text": (lambda: forward_backward([["1", "2"], ["3", "4"]]),
                                        ValidationError, "matrix"),
    "ls_rotation.basis=numeric-text": (lambda: ls_rotation([["1"], ["0"]]),
                                       ValidationError, "basis"),
    "oracle_periodogram.snapshots=numeric-text": (
        lambda: oracle_periodogram([["1", "0", "0", "0"]]), ValidationError, "snapshots"),
    # bool arrays read as 0 and 1, and each returned a result
    "hermitian_evd.a=bool": (lambda: hermitian_evd(np.eye(3, dtype=bool)),
                             ValidationError, "matrix"),
    "general_eigenvalues.a=bool": (lambda: general_eigenvalues(np.eye(2, dtype=bool)),
                                   ValidationError, "matrix"),
    "sample_corr.snapshots=bool": (lambda: sample_corr(np.ones((3, 2), dtype=bool)),
                                   ValidationError, "snapshots"),
    "oracle_periodogram.snapshots=bool": (
        lambda: oracle_periodogram(np.ones((3, 4), dtype=bool)), ValidationError, "snapshots"),
    # AttributeError: a list has no shape
    "esprit_phases.eigenvectors=text": (
        lambda: esprit_phases([2.0, 1.0, 1.0, 1.0], [["1", "0", "0", "0"]] * 4, 1),
        ValidationError, "eigenvectors"),
})
# codes that are not integers were "detected": detect_codes([0.5], [0.1], [0.5], [5.0])
# returned ({0.5: (0.1, 5.0)}, 0)
NON_ARRAY_SITES.update({
    "detect_codes.cfo_codes=fraction": (lambda: detect_codes([0.5], [0.1], [0], [5.0]),
                                        ValidationError, "CFO codes"),
    "detect_codes.timing_codes=integral-float": (lambda: detect_codes([1], [0.1], [1.0], [5.0]),
                                                 ValidationError, "timing codes"),
    # and a complex code was detected under 1 or under (1+0j), by position
    "detect_codes.cfo_codes=complex": (lambda: detect_codes([1 + 0j], [0.1], [1], [5.0]),
                                       ValidationError, "CFO codes"),
    "detect_codes.timing_codes=complex": (lambda: detect_codes([1], [0.1], [1 + 0j], [5.0]),
                                          ValidationError, "timing codes"),
})
# AttributeError: a list has no tolist
for _position, (_arg, _name) in enumerate((("cfo_codes", "CFO codes"), ("cfos", "CFOs"),
                                           ("timing_codes", "timing codes"),
                                           ("delays", "delays"))):
    NON_ARRAY_SITES[f"detect_codes.{_arg}=text"] = (
        lambda p=_position: detect_codes(*[["0"] if i == p else np.zeros(1) for i in range(4)]),
        ValidationError, _name)

# a channel that is not an array of numbers, in each synthesizer: "abc", [["x"]] and a
# ragged list raised numpy's ValueError, object() a bare TypeError, [1, None] was read as a
# NaN tap ("must be finite"), ["1", "2"] as the taps 1 and 2, and [True] as the tap 1
for _mode, _synthesize in (("model", synthesize_model_mode),
                           ("waveform", synthesize_waveform_mode)):
    for _kind, _cir in (("text", "abc"), ("nested-text", [["x"]]), ("object", object()),
                        ("None-entry", [1, None]), ("ragged", [[1.0], [1.0, 2.0]]),
                        ("numeric-text", ["1", "2"]), ("bool", np.array([True]))):
        NON_ARRAY_SITES[f"{_mode}.user.cir={_kind}"] = (
            lambda f=_synthesize, c=_cir: f([UserTruth(0, 0, 0.0, c)], SMALL, 0.0,
                                            np.random.default_rng(0)),
            ValidationError, "channel taps")


@pytest.mark.parametrize("case", NON_ARRAY_SITES)
def test_non_array_raises_the_site_error(case):
    call, error, name = NON_ARRAY_SITES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as another error
        with pytest.raises(error, match=f"^{name} must be a"):
            call()


# the public ranger stages that take a TileObservations, whose grid the TileObservations rows
# cover
TAKE_OBSERVATIONS = {"range_subchannel", "freq_snapshots", "tile_snapshots"}


def _public_functions(module):
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


def test_every_public_kernel_and_array_stage_has_a_non_array_row():
    rows = {case.partition("=")[0] for case in NON_ARRAY_SITES}  # "function.argument"
    stages = _public_functions(ranger)
    for name in TAKE_OBSERVATIONS:  # each exemption is still a stage taking observations
        first = next(iter(inspect.signature(stages[name]).parameters.values()))
        assert first.annotation == "TileObservations", name
    covered = {row.partition(".")[0] for row in rows}
    missing = [name for name in (*_public_functions(cxmath), *stages)
               if name not in covered and name not in TAKE_OBSERVATIONS]
    assert not missing, f"no NON_ARRAY_SITES row for {missing}"
    for row in rows:  # each row names a real argument of its kernel or stage
        name, _, argument = row.partition(".")
        for module in (cxmath, ranger):
            if name in _public_functions(module):
                assert argument in inspect.signature(getattr(module, name)).parameters, row


# the integer fields of output containers: the package fills them, and no caller sets one
OUTPUT_FIELDS = {"RangingReport.collisions", "MetricsRow.trials", "MetricsRow.k"}


def _integer_parameters(modules=(airmodel, cli, cxmath, errors, ranger, simlab)):
    """The "name.parameter" of each int or int | None parameter of a public function or
    class constructor of ``modules``, by default the six."""
    found = set()
    for module in modules:
        classes = {name: cls for name, cls in vars(module).items()
                   if inspect.isclass(cls) and cls.__module__ == module.__name__
                   and not name.startswith("_") and not issubclass(cls, Exception)}
        for name, obj in {**_public_functions(module), **classes}.items():
            for param in inspect.signature(obj).parameters.values():
                hint = param.annotation
                if not isinstance(hint, str):  # a module without postponed annotations
                    hint = inspect.formatannotation(hint)
                if hint in ("int", "int | None"):
                    found.add(f"{name}.{param.name}")
    return found


def test_every_public_integer_parameter_has_a_row():
    found = _integer_parameters()
    assert OUTPUT_FIELDS <= found  # each exemption is still an integer field
    missing = sorted(found - OUTPUT_FIELDS - SITES.keys())
    assert not missing, f"no SITES row for {missing}"


GUARD_PROBE = """
def count(n: int, limit: int | None = None, scale: float = 1.0, label=""): ...
def _private(n: int): ...
class Box:
    def __init__(self, width: int, name: str): ...
class Failure(Exception):
    def __init__(self, code: int): ...
"""


@pytest.mark.parametrize("header", ["", "from __future__ import annotations\n"],
                         ids=["evaluated", "postponed"])
def test_guard_finds_each_public_integer_parameter(header):
    # the guard bites on a new integer parameter, whichever way its module keeps annotations
    probe = types.ModuleType("probe")
    exec(header + GUARD_PROBE, vars(probe))
    assert _integer_parameters([probe]) == {"count.n", "count.limit", "Box.width"}
