"""Harness checks: trial scoring, metrics arithmetic, config parsing, CSV wire format."""

import csv
import math

import numpy as np
import pytest

from rangesim.errors import ConfigError, ValidationError
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
    load_config,
    noise_variance,
    oracle_periodogram,
    parse_config_text,
    run_sweep,
    run_trial,
    timing_error_event,
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


def _result(true_codes, detected, cfo_errors, timing_flags):
    report = RangingReport(num_codes=len(detected), detected=set(detected))
    return TrialResult(
        truth=[_truth(c) for c in true_codes],
        report=report,
        detected_flags=[c in detected for c in true_codes],
        timing_error_flags=timing_flags,
        cfo_errors=cfo_errors,
    )


class TestComputeMetrics:
    def cfg(self, k=2):
        return SimConfig(num_users=k, trials=4)

    def test_all_perfect(self):
        results = [
            _result([0, 1], {0, 1}, [0.001, -0.002], [False, False]) for _ in range(4)
        ]
        row = compute_metrics(results, 10.0, self.cfg())
        assert row.p_f == 0.0
        assert row.p_err_timing == 0.0
        assert row.rmse_eps == pytest.approx(math.sqrt((0.001**2 + 0.002**2) / 2))
        assert row.p_f_per_code == 0.0

    def test_one_of_four_misdetects(self):
        good = _result([0, 1], {0, 1}, [0.0, 0.0], [False, False])
        bad = _result([0, 1], {0}, [0.0, None], [False, True])
        row = compute_metrics([good, good, good, bad], 5.0, self.cfg())
        assert row.p_f == 0.25
        # one missed code out of 3 codes x 4 trials of opportunity
        assert row.p_f_per_code == pytest.approx(1 / 12)
        # 1 flagged user out of 8
        assert row.p_err_timing == pytest.approx(1 / 8)

    def test_false_alarm_counts_against_the_set(self):
        extra = _result([0], {0, 2}, [0.0], [False])
        row = compute_metrics([extra], 5.0, self.cfg(k=1))
        assert row.p_f == 1.0
        assert row.p_f_per_code == pytest.approx(1 / 3)

    def test_hand_computed_fixture(self):
        # r1: correct set, one user still flagged for timing; r2: both codes
        # missed and one false alarm
        r1 = _result([0, 2], {0, 2}, [0.01, -0.01], [False, True])
        r2 = _result([0, 2], {1}, [None, None], [True, True])
        row = compute_metrics([r1, r2], 0.0, self.cfg())
        assert row.p_f == pytest.approx(0.5)
        assert row.p_f_per_code == pytest.approx(3 / 6)  # 2 missed + 1 false over 3*2
        assert row.p_err_timing == pytest.approx(3 / 4)
        assert row.rmse_eps == pytest.approx(0.01)

    def test_no_detections_reports_absent_rmse(self):
        res = _result([0, 1], set(), [None, None], [True, True])
        row = compute_metrics([res], 0.0, self.cfg())
        assert row.rmse_eps is None
        assert row.p_err_timing == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            compute_metrics([], 0.0, self.cfg())


class TestRunTrial:
    def test_deterministic(self):
        cfg = SimConfig(num_users=2, mode="model", master_seed=42)
        a = run_trial(cfg, 10.0, 7)
        b = run_trial(cfg, 10.0, 7)
        assert a.report.detected == b.report.detected
        assert a.cfo_errors == b.cfo_errors
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
        for i in range(10):
            res = run_trial(cfg, float("inf"), i)
            assert all(res.detected_flags)
            assert not any(res.timing_error_flags)

    def test_no_users_is_well_formed(self):
        cfg = SimConfig(num_users=0, mode="model", master_seed=1)
        res = run_trial(cfg, 20.0, 0)
        assert res.truth == []
        assert res.cfo_errors == []
        assert res.report.num_codes >= 0

    @pytest.mark.parametrize("count", [-1, 4])
    def test_user_count_outside_layout_rejected(self, count):
        # the reference layout separates at most 3 codes
        with pytest.raises(ValidationError, match="user count"):
            draw_users(SimConfig(), np.random.default_rng(0), count=count)
        with pytest.raises(ValidationError, match="user count"):
            run_trial(SimConfig(num_users=count), 0.0, 0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            run_trial(SimConfig(mode="modle"), 0.0, 0)


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
        cfg.validate()

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
        cfg.validate()

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_non_numeric_snr_rejected(self, snr):
        # NaN would score every trial a miss; -inf means infinite noise power
        cfg = parse_config_text(f"snr_list_db = 0, {snr}\n")
        with pytest.raises(ConfigError, match="snr_list_db"):
            cfg.validate()

    def test_bad_snr_value_names_line(self):
        with pytest.raises(ConfigError, match="line 2: bad value for snr_list_db"):
            parse_config_text("trials = 5\nsnr_list_db = 0, ten\n")

    def test_bad_int_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value for trials"):
            parse_config_text("trials = 2.5\n")

    def test_removed_knob_is_unknown(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config_text("data_subcarrier_load = qpsk\n")

    def test_zero_tiles_rejected_with_config_error(self):
        with pytest.raises(ConfigError, match="tile"):
            SimConfig(n_tiles=0).validate()

    def test_nan_max_cfo_rejected(self):
        # NaN slipped past every bound and crashed the first trial inside numpy
        with pytest.raises(ConfigError, match="max_cfo"):
            parse_config_text("max_cfo = nan\n").validate()

    def test_negative_zero_max_cfo_runs_as_zero_offset(self):
        cfg = parse_config_text("max_cfo = -0.0\nmode = model\n")
        cfg.validate()
        assert [u.cfo for u in draw_users(cfg, np.random.default_rng(0))] == [0.0, 0.0, 0.0]
        assert all(run_trial(cfg, float("inf"), 0).detected_flags)

    def test_nan_channel_decay_rejected(self):
        with pytest.raises(ConfigError, match="decay"):
            parse_config_text("channel_decay = nan\n").validate()

    def test_acquisition_bound_enforced(self):
        cfg = parse_config_text("max_cfo = 0.1334\n")
        with pytest.raises(ConfigError, match="acquisition"):
            cfg.validate()
        parse_config_text("max_cfo = 0.1\n").validate()

    def test_delay_bound_enforced(self):
        with pytest.raises(ConfigError):
            parse_config_text("max_delay = 342\ncp_ranging = 400\n").validate()

    def test_prefix_budget_enforced(self):
        with pytest.raises(ConfigError, match="cp_ranging"):
            parse_config_text("max_delay = 250\n").validate()

    def test_prefix_longer_than_block_rejected(self):
        cfg = SimConfig(n_subcarriers=64, n_tiles=4, cp_ranging=100, cp_data=20, max_delay=20)
        with pytest.raises(ConfigError, match="prefix"):
            cfg.validate()

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="could not read"):
            load_config(tmp_path / "absent.cfg")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.GOOD)
        cfg = load_config(path)
        assert cfg.trials == 50

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
        cfg.validate()
        assert cfg.layout().tile_starts == tuple(range(0, 320, 40))
        with pytest.raises(ConfigError):  # width 4 tiles at spacing 2 overlap
            parse_config_text("tile_spacing = 2\n").validate()
