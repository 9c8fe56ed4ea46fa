"""Signal-synthesis checks: closed forms, DFT oracles, and mode cross-checks."""

import numpy as np
import pytest

from rangesim.airmodel import (
    ChannelProfile,
    TileLayout,
    TileObservations,
    UserTruth,
    apply_channel_and_cfo,
    cfo_attenuation,
    channel_freq_response,
    code_entry,
    code_matrix,
    demodulate_slot,
    draw_channel,
    effective_offsets,
    extract_tiles,
    modulate_slot,
    synthesize_model_mode,
    synthesize_waveform_mode,
    tile_average_response,
)
from rangesim.errors import ValidationError


def reference_layout():
    """The documented default geometry: 1024 carriers, 16 tiles of 4, 4 blocks."""
    return TileLayout.uniform(1024, 4, 16, 4, cp_ranging=256, cp_data=32)


def small_layout():
    return TileLayout.uniform(64, 4, 4, 4, cp_ranging=16, cp_data=8)


class TestTileLayout:
    def test_reference_numbers(self):
        layout = reference_layout()
        assert layout.block_len == 1280
        assert layout.max_codes == 3
        assert layout.tile_starts[:3] == (0, 64, 128)

    def test_overlapping_tiles_rejected(self):
        with pytest.raises(ValidationError):
            TileLayout(16, 4, 2, 4, (0, 2), 4, 2)

    def test_tile_past_edge_rejected(self):
        with pytest.raises(ValidationError):
            TileLayout(16, 4, 2, 4, (0, 14), 4, 2)

    def test_degenerate_width_rejected(self):
        with pytest.raises(ValidationError):
            TileLayout(16, 4, 2, 1, (0, 4), 4, 2)


class TestCodeEntry:
    def test_code_zero_is_all_ones(self):
        for v in range(4):
            for m in range(4):
                assert code_entry(0, v, m, 4, 4) == 1.0

    def test_origin_entry(self):
        assert code_entry(1, 0, 0, 4, 4) == pytest.approx(1.0)

    def test_phase_wraps_to_one(self):
        # code 2 at (v=1, m=2): exponent 2*(1/3 + 2/3) = 2, a full turn twice
        assert code_entry(2, 1, 2, 4, 4) == pytest.approx(1.0)

    def test_unit_modulus(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c, v, m = rng.integers(0, 3), rng.integers(0, 4), rng.integers(0, 4)
            assert abs(code_entry(int(c), int(v), int(m), 4, 4)) == pytest.approx(1.0)

    def test_matrix_agrees_with_entries(self):
        cm = code_matrix(2, 4, 4)
        for v in range(4):
            for m in range(4):
                assert cm[v, m] == pytest.approx(code_entry(2, v, m, 4, 4))

    def test_degenerate_layout_rejected(self):
        with pytest.raises(ValidationError):
            code_entry(1, 0, 0, 1, 4)


class TestCfoAttenuation:
    def test_zero_offset(self):
        assert cfo_attenuation(0.0, 1024) == 1.0

    def test_direct_evaluation(self):
        got = cfo_attenuation(0.1, 1024)
        assert abs(got) == pytest.approx(0.9836316585140042, abs=1e-12)
        assert np.angle(got) == pytest.approx(np.pi * 0.1 * 1023 / 1024, abs=1e-12)

    def test_conjugate_symmetry(self):
        for eps in (0.03, 0.17, 0.42):
            assert cfo_attenuation(-eps, 1024) == pytest.approx(
                np.conj(cfo_attenuation(eps, 1024))
            )

    def test_magnitude_bounded_and_decreasing(self):
        grid = np.linspace(0.0, 0.5, 51)
        mags = [abs(cfo_attenuation(float(e), 1024)) for e in grid]
        assert all(m <= 1.0 + 1e-12 for m in mags)
        assert all(a > b for a, b in zip(mags, mags[1:]))


class TestEffectiveOffsets:
    def test_all_zero(self):
        user = UserTruth(0, 0, 0.0, np.array([1.0 + 0j]))
        assert effective_offsets(user, reference_layout()) == (0.0, 0.0)

    def test_cfo_component(self):
        user = UserTruth(1, 0, 0.05, np.array([1.0 + 0j]))
        xi, _ = effective_offsets(user, reference_layout())
        assert xi == pytest.approx(1 / 3 + 0.05 * 1280 / 1024, abs=1e-15)

    def test_delay_component(self):
        user = UserTruth(2, 204, 0.0, np.array([1.0 + 0j]))
        _, eta = effective_offsets(user, reference_layout())
        assert eta == pytest.approx(2 / 3 - 204 / 1024, abs=1e-15)


class TestChannelFrequencyResponse:
    def test_single_tap_is_flat(self):
        for n in (0, 5, 63):
            assert channel_freq_response([1.0], n, 64) == pytest.approx(1.0)

    def test_pure_delay(self):
        for n in (1, 7):
            want = np.exp(-2j * np.pi * n / 64)
            assert channel_freq_response([0.0, 1.0], n, 64) == pytest.approx(want)

    def test_matches_fft_oracle(self):
        rng = np.random.default_rng(2)
        cir = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        got = channel_freq_response(cir, np.arange(64), 64)
        np.testing.assert_allclose(got, np.fft.fft(cir, 64), atol=1e-12)


class TestTileAverageResponse:
    def test_flat_channel(self):
        assert tile_average_response([1.0], 3, small_layout()) == pytest.approx(1.0)

    def test_two_term_mean(self):
        layout = TileLayout(64, 4, 1, 2, (0,), 16, 8)
        want = (1 + np.exp(-2j * np.pi / 64)) / 2
        assert tile_average_response([0.0, 1.0], 0, layout) == pytest.approx(want)

    def test_mean_bounded_by_max(self):
        rng = np.random.default_rng(3)
        layout = small_layout()
        cir = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        for q in range(layout.n_tiles):
            bins = np.arange(layout.tile_starts[q], layout.tile_starts[q] + layout.tile_width)
            peak = np.max(np.abs(channel_freq_response(cir, bins, 64)))
            assert abs(tile_average_response(cir, q, layout)) <= peak + 1e-12


class TestDrawChannel:
    def test_single_tap_variance(self):
        profile = ChannelProfile(1, 12.0)
        np.testing.assert_allclose(profile.tap_variances(), [1.0])

    def test_reference_profile_base_variance(self):
        # 1 / sum_{l<12} exp(-l/12), by the geometric series
        base = ChannelProfile(12, 12.0).tap_variances()[0]
        assert base == pytest.approx(0.1264878736405125, abs=1e-12)

    def test_unit_average_energy(self):
        profile = ChannelProfile(12, 12.0)
        rng = np.random.default_rng(4)
        total = 0.0
        n = 100_000
        for _ in range(n):
            h = draw_channel(profile, rng)
            total += float(np.sum(np.abs(h) ** 2))
        assert total / n == pytest.approx(1.0, abs=0.01)

    def test_invalid_profile(self):
        with pytest.raises(ValidationError):
            ChannelProfile(0, 12.0)
        with pytest.raises(ValidationError):
            ChannelProfile(3, 0.0)


class TestModelMode:
    def test_no_users_no_noise(self):
        obs = synthesize_model_mode([], small_layout(), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(obs.grid, np.zeros_like(obs.grid))

    def test_single_aligned_user_is_the_code(self):
        layout = small_layout()
        user = UserTruth(2, 0, 0.0, np.array([1.0 + 0j]))
        obs = synthesize_model_mode([user], layout, 0.0, np.random.default_rng(0))
        cm = code_matrix(2, layout.tile_width, layout.n_blocks)
        for q in range(layout.n_tiles):
            np.testing.assert_allclose(obs.grid[:, q, :], cm.T, atol=1e-12)

    def test_matches_direct_evaluation(self):
        # independent oracle: product of code symbol, block rotation, attenuation,
        # tile-averaged channel and delay phase, assembled entry by entry
        layout = small_layout()
        rng = np.random.default_rng(5)
        cir = draw_channel(ChannelProfile(6, 4.0), rng)
        user = UserTruth(1, 9, 0.04, cir)
        obs = synthesize_model_mode([user], layout, 0.0, np.random.default_rng(0))
        n = layout.n_subcarriers
        gain = cfo_attenuation(0.04, n)
        for m in range(layout.n_blocks):
            for q in range(layout.n_tiles):
                avg = tile_average_response(cir, q, layout)
                for v in range(layout.tile_width):
                    bin_idx = layout.tile_starts[q] + v
                    want = (
                        code_entry(1, v, m, layout.tile_width, layout.n_blocks)
                        * np.exp(2j * np.pi * 0.04 * m * layout.block_len / n)
                        * gain
                        * avg
                        * np.exp(-2j * np.pi * bin_idx * 9 / n)
                    )
                    assert obs.grid[m, q, v] == pytest.approx(want, abs=1e-12)

    def test_duplicate_codes_rejected(self):
        layout = small_layout()
        flat = np.array([1.0 + 0j])
        users = [UserTruth(1, 0, 0.0, flat), UserTruth(1, 3, 0.0, flat)]
        with pytest.raises(ValidationError):
            synthesize_model_mode(users, layout, 0.0, np.random.default_rng(0))

    def test_noise_variance(self):
        layout = small_layout()
        obs = synthesize_model_mode([], layout, 0.25, np.random.default_rng(6))
        assert np.mean(np.abs(obs.grid) ** 2) == pytest.approx(0.25, rel=0.2)


class TestWaveformMode:
    def test_synchronized_loopback(self):
        layout = small_layout()
        user = UserTruth(1, 0, 0.0, np.array([1.0 + 0j]))
        obs = synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0))
        cm = code_matrix(1, layout.tile_width, layout.n_blocks)
        for q in range(layout.n_tiles):
            np.testing.assert_allclose(obs.grid[:, q, :], cm.T, atol=1e-10)

    def test_delay_and_channel_phase_ramp(self):
        layout = small_layout()
        rng = np.random.default_rng(7)
        cir = draw_channel(ChannelProfile(4, 3.0), rng)
        user = UserTruth(2, 6, 0.0, cir)
        obs = synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0))
        n = layout.n_subcarriers
        for m in range(layout.n_blocks):
            for q in range(layout.n_tiles):
                for v in range(layout.tile_width):
                    bin_idx = layout.tile_starts[q] + v
                    want = (
                        code_entry(2, v, m, layout.tile_width, layout.n_blocks)
                        * channel_freq_response(cir, bin_idx, n)
                        * np.exp(-2j * np.pi * bin_idx * 6 / n)
                    )
                    assert obs.grid[m, q, v] == pytest.approx(want, abs=1e-10)

    def test_single_bin_cfo_identity(self):
        # one loaded subcarrier: its own bin comes back scaled by exactly the
        # attenuation factor, and energy leaks into the other bins
        layout = small_layout()
        eps = 0.08
        grids = np.zeros((layout.n_blocks, layout.n_subcarriers), dtype=complex)
        grids[:, 5] = 1.0
        slot = modulate_slot(grids, layout)
        received = apply_channel_and_cfo(slot, [1.0], 0, eps, layout)
        spectra = demodulate_slot(received, layout)
        want_mag = abs(cfo_attenuation(eps, layout.n_subcarriers))
        for m in range(layout.n_blocks):
            assert abs(spectra[m, 5]) == pytest.approx(want_mag, abs=1e-10)
        leakage = np.sum(np.abs(spectra[:, np.arange(64) != 5]) ** 2)
        assert leakage > 1e-6

    def test_matches_model_mode_when_aligned_and_flat(self):
        layout = small_layout()
        user = UserTruth(2, 0, 0.0, np.array([1.0 + 0j]))
        wave = synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0))
        model = synthesize_model_mode([user], layout, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(wave.grid, model.grid, atol=1e-10)

    def test_tile_power_accounting(self):
        # aligned, offset-free: waveform tile power exceeds the flat-tile power
        # by exactly the within-tile variance of the channel response
        layout = small_layout()
        rng = np.random.default_rng(9)
        cir = draw_channel(ChannelProfile(5, 4.0), rng)
        user = UserTruth(1, 0, 0.0, cir)
        wave = synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0))
        p_wave = float(np.sum(np.abs(wave.grid) ** 2))
        m, v = layout.n_blocks, layout.tile_width
        p_flat = m * v * sum(
            abs(tile_average_response(cir, q, layout)) ** 2 for q in range(layout.n_tiles)
        )
        spread = 0.0
        for q in range(layout.n_tiles):
            bins = np.arange(layout.tile_starts[q], layout.tile_starts[q] + v)
            h = channel_freq_response(cir, bins, layout.n_subcarriers)
            spread += m * float(np.sum(np.abs(h - np.mean(h)) ** 2))
        assert p_wave == pytest.approx(p_flat + spread, rel=1e-9)
        assert p_wave >= p_flat

    def test_delay_overflowing_prefix_rejected(self):
        layout = small_layout()
        user = UserTruth(0, 15, 0.0, np.ones(4, dtype=complex))
        with pytest.raises(ValidationError):
            synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0))

    def test_extract_tiles_positions(self):
        layout = small_layout()
        spectra = np.arange(4 * 64, dtype=float).reshape(4, 64).astype(complex)
        tiles = extract_tiles(spectra, layout)
        assert tiles[2, 1, 3] == spectra[2, layout.tile_starts[1] + 3]


def test_observation_shape_guard():
    with pytest.raises(ValidationError):
        TileObservations(small_layout(), np.zeros((2, 2, 2), dtype=complex))
