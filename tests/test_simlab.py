"""Harness checks: trial scoring, metrics arithmetic, config parsing, CSV wire format."""

import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesim.errors import ConfigError, DimensionError, ValidationError
from rangesim.ranger import RangingReport
from rangesim.simlab import (
    CSV_HEADER,
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
from rangesim.airmodel import UserTruth


class TestNoiseVariance:
    def test_zero_db_is_unit_power(self):
        assert noise_variance(0.0) == 1.0

    def test_twenty_db(self):
        assert noise_variance(20.0) == pytest.approx(0.01)

    def test_infinite_snr_is_noiseless(self):
        assert noise_variance(float("inf")) == 0.0

    @pytest.mark.parametrize("snr", [float("nan"), float("-inf"), -4000.0, np.float64(-4000.0)],
                             ids=["nan", "-inf", "-4000", "-4000-numpy"])
    def test_snr_without_finite_noise_power_rejected(self, snr):
        # these have no noise power at all, so they fail before the layout's SNR floor
        with pytest.raises(ValidationError, match="noise power"):
            noise_variance(snr)
        with pytest.raises(ValidationError, match="noise power"):
            run_trial(SimConfig(mode="model"), snr, 0)


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


class TestWilson:
    @pytest.mark.parametrize("count, trials", [(0, 0), (5, 3), (-1, 10)])
    def test_impossible_count_rejected(self, count, trials):
        with pytest.raises(ValidationError, match="count"):
            wilson_interval(count, trials)
        with pytest.raises(ValidationError, match="count"):
            format_count(count, trials)


class TestTimingErrorEvent:
    def test_perfect_estimate_never_errs(self):
        assert not timing_error_event(100.0, 100.0, 32, 12)

    def test_upper_boundary(self):
        assert not timing_error_event(110.0, 100.0, 32, 12)   # err = +10 shifted to 0
        assert timing_error_event(110.5, 100.0, 32, 12)

    def test_lower_boundary(self):
        assert not timing_error_event(89.0, 100.0, 32, 12)    # err = -11 shifted to -21
        assert timing_error_event(88.5, 100.0, 32, 12)

    def test_generic_window(self):
        # cp_data=20, taps=5: shifted error must stay in [-16, 0], so the raw
        # delay error is tolerated on [-8.5, 7.5]
        for delta, want in ((7.5, False), (7.6, True), (-8.5, False), (-8.6, True)):
            assert timing_error_event(delta, 0.0, 20, 5) is want


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


class TestOraclePeriodogram:
    def test_single_tone(self):
        rng = np.random.default_rng(0)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        snaps = amps[:, None] * np.exp(2j * np.pi * 0.2 * np.arange(4))[None, :]
        assert oracle_periodogram(snaps, 1e-4) == pytest.approx(0.2, abs=1e-4)

    def test_zero_frequency(self):
        snaps = np.ones((8, 4), dtype=complex)
        assert oracle_periodogram(snaps, 1e-4) == pytest.approx(0.0, abs=1e-4)

    def test_quick_cross_validation(self):
        assert esprit_periodogram_gap(trials=5, seed=11) <= 2e-4

    @pytest.mark.parametrize("resolution", [0.0, math.nan, 2.0])
    def test_grid_resolution_outside_unit_interval_rejected(self, resolution):
        # 0 divided by zero, NaN failed in int(), and 2.0 made an empty grid for argmax
        with pytest.raises(ValidationError, match="grid resolution"):
            oracle_periodogram(np.ones((8, 4), dtype=complex), resolution)

    @pytest.mark.parametrize("snaps", [np.zeros((0, 4)), np.zeros(4)], ids=["empty", "1-d"])
    def test_snapshots_without_rows_rejected(self, snaps):
        # the empty array read -0.5: argmax over a power of all zeros
        with pytest.raises(DimensionError, match="non-empty"):
            oracle_periodogram(snaps, 1e-2)

    def test_gap_over_no_trials_rejected(self):
        # read 0.0 before: a perfect-looking gap measured on nothing
        with pytest.raises(ValidationError, match="trial count must be at least 1, got 0"):
            esprit_periodogram_gap(trials=0)

    def test_exactness_over_no_trials_rejected(self):
        # read (0, 0.0, 0.0) before
        with pytest.raises(ValidationError, match="trial count must be at least 1, got 0"):
            noiseless_exactness(seed=1, trials=0, max_cfo=0.05)

    def test_exactness_rejects_cfo_beyond_acquisition(self):
        # read (0, 0.0, 0.0) before: the built config was never validated
        with pytest.raises(ConfigError, match="max_cfo"):
            noiseless_exactness(seed=1, trials=2, max_cfo=0.5)

    @pytest.mark.parametrize("helper", [
        lambda seed: noiseless_exactness(seed=seed, trials=2, max_cfo=0.05),
        lambda seed: esprit_periodogram_gap(trials=2, seed=seed),
    ], ids=["exactness", "gap"])
    @pytest.mark.parametrize("seed", [-1, 1.5], ids=["negative", "fractional"])
    def test_seed_must_be_a_non_negative_integer(self, helper, seed):
        # numpy's seeding raised a bare ValueError or TypeError before
        with pytest.raises(ValidationError, match="seed"):
            helper(seed)

    @pytest.mark.parametrize("helper", [
        lambda trials: noiseless_exactness(seed=1, trials=trials, max_cfo=0.05),
        lambda trials: esprit_periodogram_gap(trials=trials, seed=1),
    ], ids=["exactness", "gap"])
    @pytest.mark.parametrize("trials", [1.5, 2.5])
    def test_trial_count_must_be_an_integer(self, helper, trials):
        # range() and list repetition raised a bare TypeError before
        with pytest.raises(ValidationError, match=f"trial count must be an integer, got {trials}"):
            helper(trials)


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
        script = tmp_path / "m.gp"
        write_gnuplot_script(out, script)
        assert "m.csv" in script.read_text()


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
