"""Harness checks: trial scoring, metrics arithmetic, config parsing, CSV wire format."""

import csv
import math
import pickle
import re
import struct
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesim import airmodel, simlab
from rangesim.errors import ConfigError, DimensionError, ValidationError
from rangesim.ranger import RangerConfig, RangingReport, range_subchannel
from rangesim.simlab import (
    CSV_HEADER,
    GAP_RESOLUTION,
    MetricsRow,
    SimConfig,
    TrialResult,
    compute_metrics,
    draw_users,
    emit_csv,
    esprit_periodogram_gap,
    format_count,
    load_config,
    noise_variance,
    noiseless_exactness,
    oracle_periodogram,
    parse_config_text,
    parse_setting,
    run_sweep,
    run_trial,
    timing_error_event,
    wilson_interval,
    write_gnuplot_script,
)
from rangesim.simlab import _MAX_WILSON_TRIALS
from rangesim.airmodel import (ChannelProfile, TileLayout, UserTruth, _tile_tap_phasors,
                               synthesize_model_mode, synthesize_waveform_mode)

from helpers import COPIES


REFERENCE = SimConfig().layout()


class TestNoiseVariance:
    def test_zero_db_is_unit_power(self):
        assert noise_variance(0.0, REFERENCE) == 1.0

    def test_twenty_db(self):
        assert noise_variance(20.0, REFERENCE) == pytest.approx(0.01)

    def test_infinite_snr_is_noiseless(self):
        assert noise_variance(float("inf"), REFERENCE) == 0.0

    @pytest.mark.parametrize("snr", [float("nan"), float("-inf"), -4000.0, np.float64(-4000.0),
                                     "10", None, object(), 1j],
                             ids=["nan", "-inf", "-4000", "-4000-numpy", "text", "None", "object",
                                  "complex"])
    def test_snr_without_finite_noise_power_rejected(self, snr):
        # these have no finite noise power at all; the floor check rejects them too (text, None,
        # objects and complex numbers failed it with a bare TypeError)
        with pytest.raises(ValidationError, match="noise power"):
            noise_variance(snr, REFERENCE)
        with pytest.raises(ValidationError, match="noise power"):
            run_trial(SimConfig(mode="model"), snr, 0)

    @pytest.mark.parametrize("snr, usable", [
        (REFERENCE.snr_floor_db, False), (REFERENCE.snr_floor_db + 0.1, True), (0, True),
        (np.float64(20.0), True), (1e308, True), (10**400, False), (math.inf, True),
        ("10", False), (None, False), (True, False), (np.True_, False)],
        ids=["floor", "floor+0.1", "0", "20-numpy", "1e308", "10**400", "inf", "text", "None",
             "bool", "numpy-bool"])
    def test_validate_and_run_trial_agree(self, snr, usable):
        # 10**400 built a config whose every trial raised: pow() overflowed only in run_trial,
        # and a trial at an SNR of True ran at 1 dB
        try:
            SimConfig(mode="model", snr_list_db=(snr,))
        except ConfigError:
            built = False
        else:
            built = True
        try:
            run_trial(SimConfig(mode="model"), snr, 0)
        except ValidationError:
            ran = False
        else:
            ran = True
        assert built == ran == usable


class TestSnrFloor:
    def test_reference_floor(self):
        assert SimConfig().layout().snr_floor_db == pytest.approx(-3038.4648, abs=1e-4)

    @pytest.mark.parametrize("mode", ["model", "waveform"])
    def test_run_trial_enforces_the_floor_validate_uses(self, mode):
        # below the floor, about -3082.5 to -3065 dB would overflow the correlation sums
        cfg = SimConfig(mode=mode)
        floor = cfg.layout().snr_floor_db
        for snr in (floor - 1.0, -3070.0):
            with pytest.raises(ValidationError, match=f"SNR {snr} dB .*floor -3038.46 dB"):
                run_trial(cfg, snr, 0)
            with pytest.raises(ConfigError, match="snr_list_db"):
                SimConfig(snr_list_db=(snr,))
        SimConfig(snr_list_db=(floor + 1.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_trial(cfg, floor + 1.0, 0)

    @pytest.mark.parametrize("mode", ["model", "waveform"])
    def test_grid_check_admits_a_wide_layout_just_above_the_floor(self, mode):
        # the floor bounds the grid's total power, which TileObservations checks; a floor
        # from the terms of one correlation sum let this grid's total power overflow
        cfg = SimConfig(n_blocks=128, n_tiles=8, tile_width=128, max_delay=8, max_cfo=0.001,
                        mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_trial(cfg, cfg.layout().snr_floor_db + 0.1, 0)


class TestConfigKeepsWhatItValidated:
    def test_layout_and_profile_are_built_once_per_config(self):
        cfg = SimConfig()
        layout, profile = cfg.layout(), cfg.channel_profile()
        assert cfg.layout() is layout and cfg.channel_profile() is profile
        assert layout == TileLayout.uniform(1024, 4, 16, 4, 256)
        assert profile == ChannelProfile(12, 12.0)
        fresh = replace(cfg)  # replace validates anew, so it builds its own
        assert fresh.layout() is not layout and fresh.layout() == layout
        assert fresh.channel_profile() is not profile and fresh.channel_profile() == profile
        cfg.validate()  # as the benchmark worker does: harmless
        assert cfg.layout() == layout and cfg.channel_profile() == profile

    def test_a_sweep_builds_no_layout_and_no_profile(self, monkeypatch):
        # each trial rebuilt both behind argument caches: a 90-trial waveform sweep made
        # 183 TileLayout.uniform calls and 90 ChannelProfiles
        cfg = SimConfig(trials=30, master_seed=4)  # waveform mode at 0, 10 and 20 dB
        built = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                built.append(name)
                return f(*args, **kwargs)
            return wrapper

        for cls in (TileLayout, ChannelProfile):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
        uniform = counted("uniform", TileLayout.__dict__["uniform"].__func__)
        monkeypatch.setattr(TileLayout, "uniform", classmethod(uniform))
        rows = run_sweep(cfg)
        assert sum(row.trials for row in rows) == 90
        assert built == []

    @pytest.mark.parametrize("mode", ["model", "waveform"])
    @pytest.mark.parametrize("field, value", [
        ("snr_list_db", (10**400,)), ("snr_list_db", (1e308,)), ("snr_list_db", (math.inf,)),
        ("snr_list_db", (REFERENCE.snr_floor_db + 0.1,)), ("channel_decay", 10**400),
        ("channel_decay", math.inf), ("channel_decay", 1e-320), ("channel_decay", 5e-324)],
        ids=["snr=10**400", "snr=1e308", "snr=inf", "snr=floor+0.1", "decay=10**400",
             "decay=inf", "decay=1e-320", "decay=5e-324"])
    def test_a_config_that_builds_can_run(self, field, value, mode):
        # the 10**400 SNR and decay, and the two subnormal decays, built configs whose every
        # trial raised: an OverflowError or a numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                cfg = SimConfig(mode=mode, **{field: value})
            except ConfigError as exc:
                assert str(exc).startswith(field)
                return
            for snr in cfg.snr_list_db:
                run_trial(cfg, snr, 0)

    @pytest.mark.parametrize("copied", COPIES)
    def test_a_copy_is_rebuilt_by_validate(self, copied):
        # a pickle or deep copy restored the kept layout and profile with writeable tables, so
        # writing to the copy's tap variances changed every later channel draw it made
        cfg = SimConfig(trials=20, master_seed=6)
        run_trial(cfg, 10.0, 0)  # builds the layout's waveform leakage tables
        twin = copied(cfg)
        assert twin == cfg
        run_trial(twin, 10.0, 0)
        layout = twin.layout()
        tables = (twin.channel_profile().tap_variances(), layout.tile_bins,
                  _tile_tap_phasors(layout, twin.channel_taps), *layout._leakage_tables)
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 5.0
        assert run_sweep(twin) == run_sweep(cfg)

    def test_a_pickle_is_rebuilt_by_validate(self):
        # loading used to restore the fields as stored, so an edited payload built a config
        # that validate never saw
        payload = pickle.dumps(SimConfig(max_cfo=0.0123))
        stored = struct.pack(">d", 0.0123)  # pickle's BINFLOAT: a big-endian double
        assert payload.count(stored) == 1
        with pytest.raises(ConfigError, match="max_cfo must lie in"):
            pickle.loads(payload.replace(stored, struct.pack(">d", 0.5)))


class TestWilson:
    @pytest.mark.parametrize("count, trials", [(0, 0), (5, 3), (-1, 10)])
    def test_impossible_count_rejected(self, count, trials):
        with pytest.raises(ValidationError, match="count"):
            wilson_interval(count, trials)
        with pytest.raises(ValidationError, match="count"):
            format_count(count, trials)

    @pytest.mark.parametrize("trials", [10**400, _MAX_WILSON_TRIALS + 1],
                             ids=["10**400", "largest + 1"])
    def test_trial_count_past_the_float_range_rejected(self, trials):
        # the interval's float terms raised a bare OverflowError: int too large to convert
        with pytest.raises(ValidationError, match="trial count"):
            wilson_interval(0, trials)
        with pytest.raises(ValidationError, match="trial count"):
            format_count(0, trials)

    def test_largest_trial_count_has_a_bound(self):
        low, high = wilson_interval(0, _MAX_WILSON_TRIALS)
        assert 0.0 <= low <= high < 1e-150
        assert format_count(0, _MAX_WILSON_TRIALS).startswith(f"0/{_MAX_WILSON_TRIALS} (< ")


class TestTimingErrorEvent:
    CFG = SimConfig()  # a 32-sample data prefix and 12 taps

    def test_perfect_estimate_never_errs(self):
        assert not timing_error_event(100.0, 100.0, self.CFG)

    def test_upper_boundary(self):
        assert not timing_error_event(110.0, 100.0, self.CFG)   # err = +10 shifted to 0
        assert timing_error_event(110.5, 100.0, self.CFG)

    def test_lower_boundary(self):
        assert not timing_error_event(89.0, 100.0, self.CFG)    # err = -11 shifted to -21
        assert timing_error_event(88.5, 100.0, self.CFG)

    def test_generic_window(self):
        # cp_data=20, taps=5: shifted error must stay in [-16, 0], so the raw
        # delay error is tolerated on [-8.5, 7.5]
        cfg = SimConfig(cp_data=20, channel_taps=5)
        for delta, want in ((7.5, False), (7.6, True), (-8.5, False), (-8.6, True)):
            assert timing_error_event(delta, 0.0, cfg) is want


def _truth(code):
    return UserTruth(code, 0, 0.0, np.array([1.0 + 0j]))


# delay errors under SimConfig's 32-sample data prefix and 12 taps: the
# tolerable window is [-11, +10], so CLEAN raises no timing event and LATE does
CLEAN, LATE = 0.0, 10.5


def _result(true_codes, estimates):
    """A trial whose users sit at zero CFO and delay; ``estimates`` maps code -> (cfo, delay)."""
    n = len(estimates)
    report = RangingReport(np.zeros(n), np.zeros(n), dict(estimates))
    return TrialResult([_truth(c) for c in true_codes], report)


class TestComputeMetrics:
    def cfg(self, k=2):
        return SimConfig(num_users=k, trials=4)

    def test_all_perfect(self):
        results = [_result([0, 1], {0: (0.001, CLEAN), 1: (-0.002, CLEAN)}) for _ in range(4)]
        row = compute_metrics(results, 10.0, self.cfg())
        assert row.p_f == 0.0
        assert row.p_err_timing == 0.0
        assert row.rmse_eps == pytest.approx(math.sqrt((0.001**2 + 0.002**2) / 2))
        assert row.p_f_per_code == 0.0

    def test_one_of_four_misdetects(self):
        good = _result([0, 1], {0: (0.0, CLEAN), 1: (0.0, CLEAN)})
        bad = _result([0, 1], {0: (0.0, CLEAN)})
        row = compute_metrics([good, good, good, bad], 5.0, self.cfg())
        assert row.p_f == 0.25
        # one missed code out of 3 codes x 4 trials of opportunity
        assert row.p_f_per_code == pytest.approx(1 / 12)
        # 1 flagged user out of 8
        assert row.p_err_timing == pytest.approx(1 / 8)

    def test_false_alarm_counts_against_the_set(self):
        extra = _result([0], {0: (0.0, CLEAN), 2: (0.0, CLEAN)})
        row = compute_metrics([extra], 5.0, self.cfg(k=1))
        assert row.p_f == 1.0
        assert row.p_f_per_code == pytest.approx(1 / 3)

    def test_hand_computed_fixture(self):
        # r1: correct set, one user still flagged for timing; r2: both codes
        # missed and one false alarm
        r1 = _result([0, 2], {0: (0.01, CLEAN), 2: (-0.01, LATE)})
        r2 = _result([0, 2], {1: (0.0, CLEAN)})
        row = compute_metrics([r1, r2], 0.0, self.cfg())
        assert row.p_f == pytest.approx(0.5)
        assert row.p_f_per_code == pytest.approx(3 / 6)  # 2 missed + 1 false over 3*2
        assert row.p_err_timing == pytest.approx(3 / 4)
        assert row.rmse_eps == pytest.approx(0.01)

    def test_no_detections_reports_absent_rmse(self):
        res = _result([0, 1], {})
        row = compute_metrics([res], 0.0, self.cfg())
        assert row.rmse_eps is None
        assert row.p_err_timing == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            compute_metrics([], 0.0, self.cfg())

    def test_empty_generator_rejected(self):
        with pytest.raises(ConfigError):
            compute_metrics((r for r in []), 0.0, self.cfg())

    def test_one_pass_generator_matches_list(self):
        cfg = SimConfig(num_users=2, mode="model", trials=6, master_seed=5)
        results = [run_trial(cfg, 0.0, i) for i in range(cfg.trials)]
        row = compute_metrics((r for r in results), 0.0, cfg)
        assert row == compute_metrics(results, 0.0, cfg)
        assert row.trials == 6


class TestRunTrial:
    def test_deterministic(self):
        cfg = SimConfig(num_users=2, mode="model", master_seed=42)
        a = run_trial(cfg, 10.0, 7)
        b = run_trial(cfg, 10.0, 7)
        assert a.report.detected == b.report.detected
        assert a.report.per_code == b.report.per_code
        assert [u.code for u in a.truth] == [u.code for u in b.truth]
        for ua, ub in zip(a.truth, b.truth):
            np.testing.assert_array_equal(ua.cir, ub.cir)

    def test_same_truth_across_snr_points(self):
        cfg = SimConfig(num_users=2, mode="model", master_seed=42)
        low = run_trial(cfg, 0.0, 3)
        high = run_trial(cfg, 30.0, 3)
        assert [u.code for u in low.truth] == [u.code for u in high.truth]
        assert [u.delay for u in low.truth] == [u.delay for u in high.truth]

    def test_noiseless_model_mode_is_error_free(self):
        cfg = SimConfig(num_users=2, mode="model", master_seed=9)
        results = [run_trial(cfg, float("inf"), i) for i in range(10)]
        assert all(all(res.detected_flags) for res in results)
        assert compute_metrics(results, float("inf"), cfg).p_err_timing == 0.0

    def test_no_users_is_well_formed(self):
        cfg = SimConfig(num_users=0, mode="model", master_seed=1)
        res = run_trial(cfg, 20.0, 0)
        assert res.truth == []
        assert res.detected_flags == []
        assert compute_metrics([res], 20.0, cfg).rmse_eps is None
        assert res.report.num_codes >= 0

    @settings(deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), max_cfo=st.floats(0.0, 0.13),
           max_delay=st.integers(0, 244))
    def test_empty_slot_draws_nothing(self, seed, max_cfo, max_delay):
        # an idle slot leaves the stream where it was, so its noise is the first draw
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        assert draw_users(SimConfig(max_cfo=max_cfo, max_delay=max_delay), rng, count=0) == []
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("count", [-1, 4])
    def test_user_count_outside_layout_rejected(self, count):
        # the reference layout separates at most 3 codes
        with pytest.raises(ValidationError, match="user count"):
            draw_users(SimConfig(), np.random.default_rng(0), count=count)
        with pytest.raises(ConfigError, match="num_users"):
            SimConfig(num_users=count)

    def test_negative_trial_index_rejected(self):
        # numpy's stream seeding would say only "expected non-negative integer"
        with pytest.raises(ValidationError, match="trial index must be non-negative, got -1"):
            run_trial(SimConfig(mode="model"), 0.0, -1)

    def test_fractional_trial_index_rejected(self):
        # numpy's stream seeding would raise a bare TypeError; numpy integers still index
        cfg = SimConfig(mode="model")
        with pytest.raises(ValidationError, match="trial index must be an integer, got 1.5"):
            run_trial(cfg, 10.0, 1.5)
        same = run_trial(cfg, 10.0, np.int64(1)).report.per_code
        assert same == run_trial(cfg, 10.0, 1).report.per_code

    def test_negative_max_delay_rejected(self):
        # numpy's integer draw would say only "high <= 0"; no such config can be built
        with pytest.raises(ConfigError, match="max_delay must be non-negative, got -1"):
            SimConfig(max_delay=-1)


class TestRunSweep:
    def cfg(self):
        return SimConfig(
            num_users=2, mode="model", trials=8, snr_list_db=(0.0, 20.0), master_seed=3
        )

    def test_row_per_snr_point_in_order(self):
        rows = run_sweep(self.cfg())
        assert [r.snr_db for r in rows] == [0.0, 20.0]
        assert all(r.trials == 8 for r in rows)

    def test_repeatable(self):
        first = run_sweep(self.cfg())
        second = run_sweep(self.cfg())
        for a, b in zip(first, second):
            assert (a.p_f, a.rmse_eps, a.p_err_timing) == (b.p_f, b.rmse_eps, b.p_err_timing)

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(ConfigError):
            run_sweep(SimConfig(num_users=5))

    def test_execution_order_does_not_matter(self):
        # trials are index-keyed pure functions; running them in any order and
        # reducing in index order must give the serial sweep's metrics
        cfg = self.cfg()
        serial = run_sweep(cfg)[0]
        shuffled = [run_trial(cfg, 0.0, i) for i in reversed(range(cfg.trials))]
        shuffled.reverse()  # back to index order for the reduction
        row = compute_metrics(shuffled, 0.0, cfg)
        assert (row.p_f, row.rmse_eps, row.p_err_timing) == (
            serial.p_f, serial.rmse_eps, serial.p_err_timing
        )

    @pytest.mark.parametrize("snrs", [(10.0,), (math.inf,), (0.0, math.inf, 20.0)],
                             ids=["one point", "one inf point", "three points"])
    @pytest.mark.parametrize("k", [0, 2, 3])
    @pytest.mark.parametrize("mode", ["model", "waveform"])
    def test_rows_equal_each_points_own_reduction(self, mode, k, snrs):
        # trial-major with running scores: the same rows as scoring each point's trials apart
        cfg = SimConfig(num_users=k, mode=mode, max_cfo=0.1, trials=10, snr_list_db=snrs,
                        master_seed=11)
        want = [compute_metrics([run_trial(cfg, snr, i) for i in range(cfg.trials)], snr, cfg)
                for snr in snrs]
        assert repr(run_sweep(cfg)) == repr(want)

    def test_a_sweep_holds_no_trial_results(self):
        # bound fixed before the first run: holding each point's TrialResults until its
        # reduction takes several MiB here
        cfg = SimConfig(num_users=3, mode="waveform", max_cfo=0.1, trials=500,
                        snr_list_db=(0.0, 10.0, 20.0), master_seed=5)
        run_trial(cfg, 0.0, 0)  # the layout's tables, built once
        tracemalloc.start()
        try:
            run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_threaded_trials_equal_serial_ones(self):
        # the draw memo, shared by the threads, must not leak one trial's signal into another
        cfg = replace(self.cfg(), mode="waveform", num_users=3, max_cfo=0.1)
        calls = [(snr, i) for i in range(cfg.trials) for snr in (*cfg.snr_list_db, math.inf)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda c: run_trial(cfg, *c), calls[::-1]))[::-1]
        for (snr, i), res in zip(calls, threaded):
            serial = run_trial(cfg, snr, i)
            assert res.report.detected == serial.report.detected
            assert res.report.per_code == serial.report.per_code


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 3, 2**130]
# block edges (255, 256, 257) and the index's word-count edges (2**32, 2**64)
STREAM_INDICES = [0, 1, 255, 256, 257, 2**32 - 1, 2**32, 2**64 + 7]


def _reference_state(seed, index):
    return np.random.default_rng([seed, index]).bit_generator.state


class TestTrialStream:
    """``simlab._trial_stream`` is ``np.random.default_rng([seed, index])``, state for state."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("index", STREAM_INDICES)
    def test_equals_default_rng(self, seed, index):
        assert simlab._trial_stream(seed, index).bit_generator.state == _reference_state(seed, index)

    @pytest.mark.parametrize("seed, index", [
        (np.int64(7), np.int64(300)), (np.uint64(2**64 - 1), np.uint64(2**64 - 1)),
        (np.uint8(200), np.uint8(255)), (np.int32(2**31 - 1), np.uint32(2**32 - 1)),
    ], ids=["int64", "uint64", "uint8", "int32-uint32"])
    def test_numpy_integers_equal_default_rng(self, seed, index):
        # a numpy integer and its value share one cached block
        expected = _reference_state(int(seed), int(index))
        assert simlab._trial_stream(seed, index).bit_generator.state == expected
        assert simlab._trial_stream(int(seed), int(index)).bit_generator.state == expected

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(seed=st.integers(0, 2**160), index=st.integers(0, 2**100))
    def test_equals_default_rng_property(self, seed, index):
        assert simlab._trial_stream(seed, index).bit_generator.state == _reference_state(seed, index)

    def test_noiseless_trials_and_run_trial_draw_the_same_users(self, monkeypatch):
        # in each mode, the same users as run_trial, and the grid run_trial ranges at SNR = inf
        def fields(users):
            return [(u.code, u.delay, u.cfo, u.cir.tolist()) for u in users]

        ranged, range_subchannel = {}, simlab.range_subchannel

        def record(obs, ranger):
            ranged["grid"] = obs.grid
            return range_subchannel(obs, ranger)

        monkeypatch.setattr(simlab, "range_subchannel", record)
        for mode in ("model", "waveform"):
            cfg = SimConfig(num_users=3, mode=mode, max_cfo=0.1, master_seed=12)
            noiseless = simlab._noiseless_known_k_trials(cfg, 12, 300, (3,))
            for i, (users, obs, _) in enumerate(noiseless):
                if i in (0, 1, 255, 256, 299):
                    assert fields(users) == fields(run_trial(cfg, 10.0, i).truth), (mode, i)
                    run_trial(cfg, math.inf, i)
                    assert ranged["grid"].tobytes() == obs.grid.tobytes(), (mode, i)


def _cold_trial(cfg, snr_db, index, seed=None, count=None):
    """One trial built by hand, with no memo of an earlier draw: ``default_rng([seed, index])``,
    ``draw_users``, the mode's synthesizer, then the receiver (given ``count`` if not None)."""
    rng = np.random.default_rng([cfg.master_seed if seed is None else seed, index])
    users = draw_users(cfg, rng, count)
    synthesize = synthesize_model_mode if cfg.mode == "model" else synthesize_waveform_mode
    obs = synthesize(users, cfg.layout(), noise_variance(snr_db, cfg.layout()), rng)
    ranger = RangerConfig(max_delay=cfg.max_delay, known_num_codes=count)
    return TrialResult(users, range_subchannel(obs, ranger))


def _fingerprint(res):
    # a user's repr leaves out its channel, so compare the channels' bytes as well
    return repr(res), [u.cir.tobytes() for u in res.truth]


class TestDrawMemo:
    """A trial index's users are drawn once for consecutive calls; no call may see the change."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["model", "waveform"])
    def test_interleaved_calls_equal_cold_trials(self, mode, k):
        # each step changes one part of the memo's key (cfg, seed, index, count) at a time,
        # so a key without that part would hand this step the previous step's users
        cfg = SimConfig(num_users=k, mode=mode, max_cfo=0.1, master_seed=21)
        other = replace(cfg, num_users=k % 3 + 1)  # another user count at the same seed
        reseeded = replace(cfg, master_seed=22)
        count = k % 3 + 1  # a given count other than cfg.num_users
        steps = [
            (cfg, 0.0, 0), (cfg, 20.0, 0),  # two SNR points of one index
            (cfg, 0.0, 1),  # the next index
            (other, 0.0, 1), (cfg, 20.0, 1),  # another config and back
            (reseeded, 0.0, 1), (cfg, 10.0, 1),  # another seed and back
            (cfg, 10.0, 0),
        ]
        for step, (config, snr_db, index) in enumerate(steps):
            want = _fingerprint(_cold_trial(config, snr_db, index))
            assert _fingerprint(run_trial(config, snr_db, index)) == want, step
        for seed in (21, 23):  # index 0 again: a given count, then another seed with it
            (users, _, report), = simlab._noiseless_known_k_trials(cfg, seed, 1, (count,))
            want = _fingerprint(_cold_trial(cfg, math.inf, 0, seed, count))
            assert _fingerprint(TrialResult(users, report)) == want, seed
        assert _fingerprint(run_trial(cfg, math.inf, 0)) == _fingerprint(_cold_trial(cfg, math.inf, 0))

    @pytest.mark.parametrize("mode", ["model", "waveform"])
    def test_a_returned_result_cannot_reach_the_memo(self, mode):
        cfg = SimConfig(num_users=3, mode=mode, max_cfo=0.1, master_seed=23)
        first = run_trial(cfg, 0.0, 2)
        first.truth.append(first.truth[0])
        with pytest.raises(ValueError, match="read-only"):
            first.truth[1].cir[0] = 0.0
        with pytest.raises(ValueError):  # nor can the channel be made writeable again
            first.truth[1].cir.flags.writeable = True
        got = run_trial(cfg, 20.0, 2)
        assert got.truth is not first.truth and len(got.truth) == 3
        assert _fingerprint(got) == _fingerprint(_cold_trial(cfg, 20.0, 2))

    def test_threads_sharing_the_memo_equal_cold_trials(self):
        # more threads than cores, switching often: a memo entry read half-replaced would hand
        # one index's users or stream state to another
        cfg = SimConfig(num_users=3, mode="model", max_cfo=0.1, master_seed=24)
        calls = [(snr, i % 5) for i in range(30) for snr in (0.0, math.inf)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run_trial, cfg, snr, i) for snr, i in calls]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for (snr, i), got in zip(calls, results):
            assert _fingerprint(got) == _fingerprint(_cold_trial(cfg, snr, i))

    @pytest.mark.parametrize("k, stacks", [(0, 0), (3, 4)], ids=["K=0", "K=3"])
    @pytest.mark.parametrize("mode", ["model", "waveform"])
    def test_users_are_stacked_once_per_index(self, monkeypatch, mode, k, stacks):
        # four indices, three SNR points each: the signal is built on the index's first point
        calls, stack_users = [], airmodel._stack_users
        monkeypatch.setattr(airmodel, "_stack_users",
                            lambda *args: calls.append(args) or stack_users(*args))
        cfg = SimConfig(num_users=k, mode=mode, max_cfo=0.1, trials=4,
                        snr_list_db=(0.0, 10.0, 20.0), master_seed=25)
        run_sweep(cfg)
        assert len(calls) == stacks

    @pytest.mark.parametrize("mode", ["model", "waveform"])
    def test_the_ranged_grid_is_fresh_and_writeable(self, monkeypatch, mode):
        cfg = SimConfig(num_users=3, mode=mode, max_cfo=0.1, master_seed=26)
        grids, range_subchannel = [], simlab.range_subchannel

        def spoil(obs, ranger):  # range the grid, then write into it
            report = range_subchannel(obs, ranger)
            signal = simlab._last_draw[3]
            assert not signal.flags.writeable and not np.shares_memory(obs.grid, signal)
            grids.append(obs.grid)
            obs.grid[...] = np.inf
            return report

        monkeypatch.setattr(simlab, "range_subchannel", spoil)
        for snr_db in (0.0, 20.0, math.inf):
            got = run_trial(cfg, snr_db, 4)
            assert _fingerprint(got) == _fingerprint(_cold_trial(cfg, snr_db, 4)), snr_db
        assert all(grid.flags.writeable for grid in grids)

    @pytest.mark.parametrize("synthesize", [synthesize_model_mode, synthesize_waveform_mode],
                             ids=["model", "waveform"])
    def test_the_synthesizers_keep_no_state(self, synthesize):
        cfg = SimConfig(num_users=3, max_cfo=0.1)
        users = draw_users(cfg, np.random.default_rng(27))
        before = dict(vars(airmodel))
        grids = [synthesize(users, cfg.layout(), 0.5, np.random.default_rng(28)).grid
                 for _ in range(2)]
        assert grids[0].tobytes() == grids[1].tobytes()
        assert vars(airmodel).keys() == before.keys()
        assert all(vars(airmodel)[name] is value for name, value in before.items())


class TestOraclePeriodogram:
    def test_single_tone(self):
        rng = np.random.default_rng(0)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        snaps = amps[:, None] * np.exp(2j * np.pi * 0.2 * np.arange(4))[None, :]
        assert oracle_periodogram(snaps) == pytest.approx(0.2, abs=1e-4)

    def test_zero_frequency(self):
        snaps = np.ones((8, 4), dtype=complex)
        assert oracle_periodogram(snaps) == pytest.approx(0.0, abs=1e-4)

    def test_quick_cross_validation(self):
        # noiseless single tones: the grid's nearest point, at most half a step from ESPRIT's
        assert esprit_periodogram_gap() <= GAP_RESOLUTION / 2 + 1e-9

    @pytest.mark.parametrize("snaps", [np.zeros((0, 4)), np.zeros(4)], ids=["empty", "1-d"])
    def test_snapshots_without_rows_rejected(self, snaps):
        # the empty array read -0.5: argmax over a power of all zeros
        with pytest.raises(DimensionError, match="non-empty"):
            oracle_periodogram(snaps)

    def test_exactness_over_no_trials_rejected(self):
        # read (0, 0.0, 0.0) before
        with pytest.raises(ValidationError, match="trial count must be at least 1, got 0"):
            noiseless_exactness(seed=1, trials=0, max_cfo=0.05)

    def test_exactness_rejects_cfo_beyond_acquisition(self):
        # read (0, 0.0, 0.0) before: the built config was never validated
        with pytest.raises(ConfigError, match="max_cfo"):
            noiseless_exactness(seed=1, trials=2, max_cfo=0.5)

    @pytest.mark.parametrize("seed", [-1, 1.5], ids=["negative", "fractional"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # numpy's seeding raised a bare ValueError or TypeError before
        with pytest.raises(ValidationError, match="seed"):
            noiseless_exactness(seed=seed, trials=2, max_cfo=0.05)

    @pytest.mark.parametrize("trials", [1.5, 2.5])
    def test_trial_count_must_be_an_integer(self, trials):
        # range() and list repetition raised a bare TypeError before
        with pytest.raises(ValidationError, match=f"trial count must be an integer, got {trials}"):
            noiseless_exactness(seed=1, trials=trials, max_cfo=0.05)

    def test_exactness_skips_a_trial_whose_detected_set_is_wrong(self, monkeypatch):
        # every second report reads an idle slot: those trials are not exact, so they count
        # neither as exact nor towards the worst errors
        reports = []

        def every_second_idle(obs, cfg):
            reports.append(RangingReport() if len(reports) % 2 else range_subchannel(obs, cfg))
            return reports[-1]

        monkeypatch.setattr(simlab, "range_subchannel", every_second_idle)
        exact, worst_cfo, worst_delay = noiseless_exactness(seed=99, trials=4, max_cfo=0.05)
        assert (exact, len(reports)) == (2, 4)
        assert worst_cfo <= 1e-5 and worst_delay <= 1e-2


class TestCsv:
    def rows(self):
        return [
            MetricsRow(0.0, 0.25, 0.0125, 0.5, 100, 3, 0.05, "waveform", 0.1),
            MetricsRow(10.0, 0.0, None, 0.0, 100, 3, 0.05, "waveform", 0.0),
        ]

    def test_header_exact(self, tmp_path):
        out = tmp_path / "m.csv"
        emit_csv(self.rows(), out)
        assert out.read_text().splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == "snr_db,p_f,rmse_eps,p_err_timing,trials,k,omega,mode"

    def test_round_trip(self, tmp_path):
        out = tmp_path / "m.csv"
        emit_csv(self.rows(), out)
        with open(out) as handle:
            parsed = list(csv.DictReader(handle))
        assert float(parsed[0]["p_f"]) == 0.25
        assert float(parsed[0]["rmse_eps"]) == 0.0125
        assert parsed[1]["rmse_eps"] == ""
        assert parsed[1]["mode"] == "waveform"
        assert int(parsed[0]["trials"]) == 100

    def test_values_cast_by_field_type(self, tmp_path):
        # an int SNR still writes as a float, numpy scalars as plain numbers
        rows = [
            MetricsRow(10, 0.0, None, 0.0, 100, 3, 0.05, "waveform"),
            MetricsRow(float("inf"), np.float64(0.25), np.float64(0.0125), np.float32(0.5),
                       np.int64(100), np.int64(3), np.float64(0.1), "model"),
        ]
        out = tmp_path / "m.csv"
        emit_csv(rows, out)
        assert out.read_text() == (
            CSV_HEADER + "\n"
            "10.0,0.0,,0.0,100,3,0.05,waveform\n"
            "inf,0.25,0.0125,0.5,100,3,0.1,model\n"
        )

    def test_empty_rows_header_only(self, tmp_path):
        out = tmp_path / "m.csv"
        emit_csv([], out)
        assert out.read_text() == CSV_HEADER + "\n"

    def test_unwritable_path_has_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_csv([], tmp_path / "no" / "such" / "m.csv")

    def test_gnuplot_script_references_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        emit_csv(self.rows(), out)
        script = write_gnuplot_script(out)
        assert script == tmp_path / "m.gp"
        assert "m.csv" in script.read_text()

    def test_unwritable_gnuplot_path_has_context(self, tmp_path):
        script = tmp_path / "no" / "such" / "m.gp"
        with pytest.raises(OSError, match=re.escape(f"could not write gnuplot script to {script}")):
            write_gnuplot_script(tmp_path / "no" / "such" / "m.csv")


class TestConfigParsing:
    GOOD = """
    # reference setup, two overrides
    num_users = 2
    max_cfo = 0.1
    snr_list_db = 0, 10, 20
    trials = 50
    mode = model
    master_seed = 7
    """

    def test_parse_and_defaults(self):
        cfg = parse_config_text(self.GOOD)
        assert cfg.num_users == 2
        assert cfg.max_cfo == 0.1
        assert cfg.snr_list_db == (0.0, 10.0, 20.0)
        assert cfg.n_subcarriers == 1024  # untouched default

    def test_reference_defaults(self):
        cfg = SimConfig()
        assert (cfg.n_subcarriers, cfg.n_blocks, cfg.n_tiles, cfg.tile_width) == (1024, 4, 16, 4)
        assert (cfg.cp_ranging, cfg.cp_data) == (256, 32)
        assert (cfg.channel_taps, cfg.channel_decay) == (12, 12.0)
        assert cfg.max_delay == 204
        assert cfg.layout().tile_starts == tuple(range(0, 1024, 64))
        assert cfg.layout().acquisition_bound == pytest.approx(1024 / (2 * 1280 * 3))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config_text("max_cfo = 0.05\nbogus = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")

    def test_inf_snr_parses(self):
        cfg = parse_config_text("snr_list_db = inf\n")
        assert cfg.snr_list_db == (float("inf"),)

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_non_numeric_snr_rejected(self, snr):
        # NaN would score every trial a miss; -inf means infinite noise power
        with pytest.raises(ConfigError, match="snr_list_db"):
            parse_config_text(f"snr_list_db = 0, {snr}\n")

    def test_bad_snr_value_names_line(self):
        with pytest.raises(ConfigError, match="line 2: bad value for snr_list_db"):
            parse_config_text("trials = 5\nsnr_list_db = 0, ten\n")

    def test_bad_int_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value for trials"):
            parse_config_text("trials = 2.5\n")

    @pytest.mark.parametrize("key, text", [("trials", "2.5"), ("num_users", "abc"),
                                           ("snr_list_db", "0, ten"), ("bogus", "1")])
    def test_setting_fails_as_its_config_line_does(self, key, text):
        with pytest.raises(ConfigError) as setting:
            parse_setting(key, text)
        with pytest.raises(ConfigError) as line:
            parse_config_text(f"mode = model\n{key} = {text}\n")
        assert str(line.value) == f"line 2: {setting.value}"
        assert key in str(setting.value) and not str(setting.value).startswith("line")

    def test_setting_parses_by_field_type(self):
        assert parse_setting("snr_list_db", "0, inf") == (0.0, math.inf)
        assert parse_setting("tile_spacing", "40") == 40
        assert parse_setting("max_cfo", "0.05") == 0.05
        assert parse_setting("mode", "model") == "model"

    @pytest.mark.parametrize("field, value", [
        ("max_delay", 10.5), ("trials", 2.5), ("num_users", 2.0), ("master_seed", 1.5),
        ("snr_list_db", 10), ("snr_list_db", [0.0]), ("trials", True), ("tile_spacing", 40.0),
    ])
    def test_field_of_the_wrong_type_rejected(self, field, value):
        # before, max_delay = 10.5 ran to completion, 2.5 trials and friends validated and then
        # died in run_sweep with a bare TypeError, and snr_list_db = 10 in validate itself
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            replace(SimConfig(mode="model", trials=2), **{field: value})

    def test_numpy_numbers_fit_their_fields(self):
        plain = SimConfig(num_users=2, trials=3, master_seed=4, max_delay=100, tile_spacing=64,
                          max_cfo=0.05, snr_list_db=(10.0,), mode="model")
        typed = replace(plain, num_users=np.int64(2), trials=np.int32(3), master_seed=np.uint8(4),
                        max_delay=np.int16(100), tile_spacing=np.int64(64),
                        max_cfo=np.float64(0.05), snr_list_db=(np.float32(10.0),))
        assert run_sweep(typed) == run_sweep(plain)

    def test_removed_knob_is_unknown(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config_text("data_subcarrier_load = qpsk\n")

    def test_zero_tiles_rejected_with_config_error(self):
        with pytest.raises(ConfigError, match="tile"):
            SimConfig(n_tiles=0)

    def test_nan_max_cfo_rejected(self):
        # NaN slipped past every bound and crashed the first trial inside numpy
        with pytest.raises(ConfigError, match="max_cfo"):
            parse_config_text("max_cfo = nan\n")

    def test_negative_zero_max_cfo_runs_as_zero_offset(self):
        cfg = parse_config_text("max_cfo = -0.0\nmode = model\n")
        assert [u.cfo for u in draw_users(cfg, np.random.default_rng(0))] == [0.0, 0.0, 0.0]
        assert all(run_trial(cfg, float("inf"), 0).detected_flags)

    def test_nan_channel_decay_rejected(self):
        with pytest.raises(ConfigError, match="decay"):
            parse_config_text("channel_decay = nan\n")

    def test_acquisition_bound_enforced(self):
        with pytest.raises(ConfigError, match="acquisition"):
            parse_config_text("max_cfo = 0.1334\n")
        parse_config_text("max_cfo = 0.1\n")

    def test_delay_bound_enforced(self):
        with pytest.raises(ConfigError):
            parse_config_text("max_delay = 342\ncp_ranging = 400\n")

    def test_prefix_budget_enforced(self):
        with pytest.raises(ConfigError, match="cp_ranging"):
            parse_config_text("max_delay = 250\n")

    def test_prefix_longer_than_block_rejected(self):
        with pytest.raises(ConfigError, match="prefix"):
            SimConfig(n_subcarriers=64, n_tiles=4, cp_ranging=100, cp_data=20, max_delay=20)

    @pytest.mark.parametrize("field, value, message", [
        ("channel_taps", 0, "n_taps must be at least 1, got 0"),
        ("tile_spacing", 0, "spacing must be at least 1, got 0"),
        ("cp_ranging", 2000, r"ranging prefix 2000 outside \[0, 1024\]"),
    ], ids=["channel_taps", "tile_spacing", "cp_ranging"])
    def test_layout_and_channel_errors_name_the_config_key(self, field, value, message):
        # the layout and the channel profile name these arguments differently
        with pytest.raises(ConfigError, match=f"^{field}: {message}$"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("settings, message", [
        (dict(n_subcarriers=16, n_tiles=8, tile_width=4, cp_ranging=4, max_delay=1,
              channel_taps=1, cp_data=2), r"tile start 14 outside \[0, 12\]"),
        (dict(tile_spacing=100), r"tile start 1100 outside \[0, 1020\]"),
        (dict(tile_spacing=2), "tiles overlap; they must be pairwise disjoint"),
    ], ids=["uniform spacing", "wide spacing", "narrow spacing"])
    def test_tile_placement_errors_name_the_placing_keys(self, settings, message):
        # before, these two layout messages reached the user without a config key
        with pytest.raises(ConfigError, match=f"^n_tiles, tile_width, tile_spacing: {message}$"):
            SimConfig(**settings)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="could not read"):
            load_config(tmp_path / "absent.cfg")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.GOOD)
        cfg = load_config(path)
        assert cfg.trials == 50

    def test_overrides_apply_after_the_file_and_the_merge_is_validated(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("max_cfo = 0.2\ntrials = 5\n")  # beyond the acquisition bound
        with pytest.raises(ConfigError, match="max_cfo"):
            load_config(path)
        cfg = load_config(path, [("max_cfo", "0.3"), ("trials", "7"), ("max_cfo", "0.05")])
        assert (cfg.max_cfo, cfg.trials) == (0.05, 7)  # the last override of a key wins
        with pytest.raises(ConfigError, match="max_cfo"):
            load_config(path, [("max_cfo", "0.05"), ("max_cfo", "0.3")])

    @pytest.mark.parametrize("key, text, message", [
        ("trials", "abc", "^bad value for trials"), ("max_cfo", "0.9", "^max_cfo"),
        ("data_subcarrier_load", "qpsk", "^unknown configuration key"),
    ])
    def test_bad_override_rejected(self, tmp_path, key, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(self.GOOD)
        with pytest.raises(ConfigError, match=message):
            load_config(path, [(key, text)])

    @pytest.mark.parametrize("line", ["master_seed = -1", "snr_list_db = 0, -4000",
                                      "snr_list_db = -3070"])
    def test_value_that_would_crash_a_trial_rejected(self, tmp_path, line):
        # a negative seed fails in default_rng, below about -3082 dB the noise
        # power overflows a float, and from about -3065 dB the correlation's
        # sum over 64 snapshots does: all must fail validation instead
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_config(path)

    def test_extreme_but_finite_snr_runs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("snr_list_db = -300\ntrials = 2\nmode = model\nmaster_seed = 0\n")
        (row,) = run_sweep(load_config(path))
        assert row.trials == 2

    @pytest.mark.parametrize("mode", ["model", "waveform"])
    @pytest.mark.parametrize("snr", [-1600, -3000])
    def test_huge_noise_power_runs_warning_free(self, mode, snr):
        # RuntimeWarnings are errors here; a squared-sum norm of these
        # correlations overflows from about -1540 dB
        cfg = parse_config_text(f"snr_list_db = {snr}\ntrials = 5\nmode = {mode}\n")
        (row,) = run_sweep(cfg)
        assert row.trials == 5

    def test_custom_tile_spacing(self):
        cfg = parse_config_text("tile_spacing = 40\nn_tiles = 8\n")
        assert cfg.layout().tile_starts == tuple(range(0, 320, 40))
        with pytest.raises(ConfigError):  # width 4 tiles at spacing 2 overlap
            parse_config_text("tile_spacing = 2\n")
