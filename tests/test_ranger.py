"""Receiver pipeline checks: snapshot shaping, order selection, phase recovery."""

import numpy as np
import pytest

from rangesim.airmodel import (
    ChannelProfile,
    TileLayout,
    TileObservations,
    UserTruth,
    draw_channel,
    effective_offsets,
    synthesize_model_mode,
)
from rangesim.cxmath import HermitianSpectrum, forward_backward, hermitian_evd
from rangesim.errors import ConfigError, DimensionError, RankDeficiencyError, ValidationError
from rangesim.ranger import (
    RangerConfig,
    detect_codes,
    esprit_phases,
    estimate_num_codes,
    freq_snapshots,
    map_cfo,
    map_timing,
    range_subchannel,
    sample_corr,
    tile_snapshots,
)


def reference_layout():
    return TileLayout.uniform(1024, 4, 16, 4, cp_ranging=256, cp_data=32)


def wrap_half(x):
    """Reduce to [-1/2, 1/2)."""
    return x - np.floor(x + 0.5)


def steering(n, freq):
    return np.exp(2j * np.pi * freq * np.arange(n))


def random_users(rng, layout, k, max_delay=204, max_cfo=0.1, taps=12):
    profile = ChannelProfile(taps, 12.0)
    codes = rng.choice(layout.max_codes, size=k, replace=False)
    return [
        UserTruth(
            code=int(c),
            delay=int(rng.integers(0, max_delay + 1)),
            cfo=float(rng.uniform(-max_cfo, max_cfo)),
            cir=draw_channel(profile, rng),
        )
        for c in codes
    ]


class TestSnapshots:
    def test_single_user_block_series_structure(self):
        layout = reference_layout()
        rng = np.random.default_rng(0)
        user = random_users(rng, layout, 1)[0]
        obs = synthesize_model_mode([user], layout, 0.0, rng)
        xi, eta = effective_offsets(user, layout)
        snaps = freq_snapshots(obs)
        for q in range(layout.n_tiles):
            for v in range(layout.tile_width):
                amp = obs.grid[0, q, v]  # block 0 fixes the per-snapshot amplitude
                want = amp * steering(layout.n_blocks, xi)
                np.testing.assert_allclose(snaps[q * layout.tile_width + v], want, atol=1e-10)
                # and the amplitude itself carries the tile-position ramp
                assert snaps[q * layout.tile_width + v][0] == obs.grid[0, q, v]
        _ = eta

    def test_zero_grid(self):
        layout = reference_layout()
        obs = TileObservations(layout, np.zeros((4, 16, 4), dtype=complex))
        assert not np.any(freq_snapshots(obs))
        assert not np.any(tile_snapshots(obs))

    def test_round_trip_is_a_bijection(self):
        layout = reference_layout()
        rng = np.random.default_rng(1)
        grid = rng.standard_normal((4, 16, 4)) + 1j * rng.standard_normal((4, 16, 4))
        obs = TileObservations(layout, grid)
        back_f = freq_snapshots(obs).reshape(16, 4, 4).transpose(2, 0, 1)
        np.testing.assert_array_equal(back_f, grid)
        back_t = tile_snapshots(obs).reshape(4, 16, 4)
        np.testing.assert_array_equal(back_t, grid)

    def test_tile_series_matches_grid_rows(self):
        layout = reference_layout()
        rng = np.random.default_rng(2)
        grid = rng.standard_normal((4, 16, 4)) + 1j * rng.standard_normal((4, 16, 4))
        snaps = tile_snapshots(TileObservations(layout, grid))
        np.testing.assert_array_equal(snaps[2 * 16 + 5], grid[2, 5, :])


class TestSampleCorr:
    def test_single_snapshot_outer_product(self):
        y = np.array([1.0 + 1j, 2.0, -1j])
        np.testing.assert_allclose(sample_corr([y]), np.outer(y, y.conj()), atol=1e-15)

    def test_orthonormal_basis_gives_scaled_identity(self):
        np.testing.assert_allclose(sample_corr(np.eye(4)), np.eye(4) / 4, atol=1e-15)

    def test_matches_accumulation_oracle(self):
        rng = np.random.default_rng(3)
        snaps = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        acc = np.zeros((4, 4), dtype=complex)
        for row in snaps:
            acc += np.outer(row, row.conj())
        np.testing.assert_allclose(sample_corr(snaps), acc / 10, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sample_corr(np.zeros((0, 4)))


def spectrum_from(values, vectors=None):
    values = np.asarray(values, dtype=float)
    if vectors is None:
        vectors = np.eye(values.size, dtype=complex)
    return HermitianSpectrum(values, vectors)


class TestEstimateNumCodes:
    def test_equal_eigenvalues_mean_noise_only(self):
        assert estimate_num_codes(spectrum_from([2.0, 2.0, 2.0, 2.0]), 64, 3) == 0

    def test_two_dominant_eigenvalues(self):
        assert estimate_num_codes(spectrum_from([100.0, 100.0, 1.0, 1.0]), 64, 3) == 2

    def test_against_direct_scoring(self):
        # independent evaluation of the description-length objective
        def direct(lams, s, cap):
            lams = np.maximum(np.asarray(lams, float), 1e-18)
            n = lams.size
            best, best_score = 0, np.inf
            for k in range(cap + 1):
                tail = lams[k:]
                gm = np.exp(np.mean(np.log(tail)))
                am = np.mean(tail)
                score = 0.5 * k * (2 * n - k) * np.log(s) - s * (n - k) * np.log(gm / am)
                if score < best_score:
                    best, best_score = k, score
            return best

        rng = np.random.default_rng(4)
        for _ in range(50):
            lams = np.sort(rng.uniform(0.01, 50.0, size=4))[::-1]
            assert estimate_num_codes(spectrum_from(lams), 64, 3) == direct(lams, 64, 3)

    def test_scale_invariance_of_argmin(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lams = np.sort(rng.uniform(0.1, 30.0, size=4))[::-1]
            base = estimate_num_codes(spectrum_from(lams), 64, 3)
            for c in (1e-6, 1e3, 1e6):
                assert estimate_num_codes(spectrum_from(c * lams), 64, 3) == base

    def test_high_snr_model_order(self):
        layout = reference_layout()
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            users = random_users(rng, layout, 3, max_cfo=0.05)
            obs = synthesize_model_mode(users, layout, 1e-3, rng)  # 30 dB
            spec = hermitian_evd(forward_backward(sample_corr(freq_snapshots(obs))))
            if estimate_num_codes(spec, 64, 3) == 3:
                hits += 1
        assert hits >= 99

    def test_cap_validated(self):
        with pytest.raises(ValidationError):
            estimate_num_codes(spectrum_from([1.0, 1.0]), 16, 2)


class TestEspritPhases:
    def make_spectrum(self, snaps):
        return hermitian_evd(forward_backward(sample_corr(snaps)))

    def test_single_exponential_exact(self):
        rng = np.random.default_rng(6)
        for xi in (0.2, -0.41, 0.49):
            amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            snaps = amps[:, None] * steering(4, xi)[None, :]
            got = esprit_phases(self.make_spectrum(snaps), 1)
            assert abs(got[0] - xi) < 1e-9

    def test_two_sources_noiseless(self):
        rng = np.random.default_rng(7)
        a1 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a2 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        snaps = a1[:, None] * steering(4, 0.1) + a2[:, None] * steering(4, 0.4)
        got = np.sort(esprit_phases(self.make_spectrum(snaps), 2))
        np.testing.assert_allclose(got, [0.1, 0.4], atol=1e-7)

    def test_invariant_to_subspace_remixing(self):
        rng = np.random.default_rng(8)
        a1 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a2 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        snaps = a1[:, None] * steering(4, -0.3) + a2[:, None] * steering(4, 0.25)
        spec = self.make_spectrum(snaps)
        base = np.sort(esprit_phases(spec, 2))
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        remixed_vecs = spec.eigenvectors.copy()
        remixed_vecs[:, :2] = remixed_vecs[:, :2] @ q
        remixed = HermitianSpectrum(spec.eigenvalues, remixed_vecs)
        np.testing.assert_allclose(np.sort(esprit_phases(remixed, 2)), base, atol=1e-7)

    def test_rank_deficiency_propagates(self):
        # second "eigenvector" lives entirely on the last row, so the upper
        # split loses a dimension: the overestimated count is unsolvable
        vectors = np.zeros((4, 4), dtype=complex)
        vectors[0, 0] = 1.0
        vectors[3, 1] = 1.0
        vectors[1, 2] = 1.0
        vectors[2, 3] = 1.0
        spec = HermitianSpectrum(np.array([4.0, 3.0, 0.0, 0.0]), vectors)
        with pytest.raises(RankDeficiencyError):
            esprit_phases(spec, 2)

    def test_source_count_bounds(self):
        spec = spectrum_from([1.0, 0.5, 0.1])
        with pytest.raises(DimensionError):
            esprit_phases(spec, 0)
        with pytest.raises(DimensionError):
            esprit_phases(spec, 3)


class TestMapCfo:
    def test_zero(self):
        est = map_cfo(0.0, reference_layout())
        assert (est.code_raw, est.cfo, est.code) == (0, 0.0, 0)

    def test_wrapped_negative_branch(self):
        layout = reference_layout()
        xi = wrap_half(2 / 3 + 0.05 * layout.block_len / 1024)  # -0.2708333...
        est = map_cfo(float(xi), layout)
        assert est.code_raw == -1
        assert est.cfo == pytest.approx(0.05, abs=1e-12)
        assert est.code == 2

    def test_positive_branch(self):
        layout = reference_layout()
        est = map_cfo(1 / 3 + 0.05 * layout.block_len / 1024, layout)
        assert est.code_raw == 1
        assert est.cfo == pytest.approx(0.05, abs=1e-12)
        assert est.code == 1


class TestMapTiming:
    def test_zero(self):
        est = map_timing(0.0, reference_layout(), 0)
        assert (est.code_raw, est.timing, est.code) == (0, 0.0, 0)

    def test_wrapped_negative_branch(self):
        layout = reference_layout()
        est = map_timing(float(wrap_half(2 / 3)), layout, 204)  # code 2, zero delay
        assert est.code_raw == -1
        assert est.timing == pytest.approx(0.0, abs=1e-9)
        assert est.code == 2

    def test_positive_branch(self):
        layout = reference_layout()
        est = map_timing(2 / 3 - 204 / 1024, layout, 204)
        assert est.code_raw == 2
        assert est.timing == pytest.approx(204.0, abs=1e-9)
        assert est.code == 2

    def test_excessive_max_delay_rejected(self):
        with pytest.raises(ConfigError):
            map_timing(0.1, reference_layout(), 342)


class TestDetectCodes:
    def freq(self, code, cfo=0.01):
        return map_cfo(code / 3 + cfo * 1280 / 1024, reference_layout())

    def timing(self, code, delay=10):
        return map_timing(code / 3 - delay / 1024, reference_layout(), 204)

    def test_full_agreement(self):
        detected, per_code, coll = detect_codes(
            [self.freq(0), self.freq(2)], [self.timing(0), self.timing(2)]
        )
        assert detected == {0, 2}
        assert set(per_code) == {0, 2}
        assert coll == 0

    def test_partial_agreement(self):
        detected, _, _ = detect_codes(
            [self.freq(0), self.freq(1)], [self.timing(0), self.timing(2)]
        )
        assert detected == {0}

    def test_permutation_symmetry(self):
        f = [self.freq(0), self.freq(1), self.freq(2)]
        t = [self.timing(2), self.timing(0), self.timing(1)]
        d1, p1, _ = detect_codes(f, t)
        d2, p2, _ = detect_codes(f[::-1], t[::-1])
        assert d1 == d2 == {0, 1, 2}
        assert p1 == p2

    def test_collision_keeps_first_and_counts(self):
        first = self.freq(1, cfo=0.01)
        second = self.freq(1, cfo=0.03)
        detected, per_code, coll = detect_codes([first, second], [self.timing(1)])
        assert detected == {1}
        assert per_code[1][0] == pytest.approx(first.cfo)
        assert coll == 1


class TestRangeSubchannel:
    def test_noise_only_report_is_well_formed(self):
        layout = reference_layout()
        rng = np.random.default_rng(9)
        obs = synthesize_model_mode([], layout, 1.0, rng)
        report = range_subchannel(obs, RangerConfig(max_delay=204))
        assert 0 <= report.num_codes <= 3
        assert len(report.freq_estimates) == report.num_codes
        assert set(report.per_code) <= report.detected

    def test_zero_grid_reports_nothing(self):
        layout = reference_layout()
        obs = TileObservations(layout, np.zeros((4, 16, 4), dtype=complex))
        report = range_subchannel(obs, RangerConfig(max_delay=204))
        assert report.num_codes == 0
        assert report.detected == set()

    def test_non_finite_grid_is_rejected(self):
        # a NaN grid must not read as "no users"
        layout = reference_layout()
        grid = np.ones((4, 16, 4), dtype=complex)
        grid[1, 3, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            range_subchannel(TileObservations(layout, grid), RangerConfig(max_delay=204))

    def test_single_user_noiseless(self):
        layout = reference_layout()
        rng = np.random.default_rng(10)
        user = random_users(rng, layout, 1, max_cfo=0.05)[0]
        obs = synthesize_model_mode([user], layout, 0.0, rng)
        report = range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=1))
        assert report.detected == {user.code}
        cfo_hat, timing_hat = report.per_code[user.code]
        assert cfo_hat == pytest.approx(user.cfo, abs=1e-6)
        assert timing_hat == pytest.approx(user.delay, abs=1e-3)

    def test_noiseless_exactness_many_draws(self):
        layout = reference_layout()
        for trial in range(30):
            rng = np.random.default_rng(2000 + trial)
            k = int(rng.integers(1, 4))
            users = random_users(rng, layout, k, max_cfo=0.1)
            obs = synthesize_model_mode(users, layout, 0.0, rng)
            report = range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=k))
            assert report.detected == {u.code for u in users}
            want_xi = np.sort([wrap_half(effective_offsets(u, layout)[0]) for u in users])
            got_xi = np.sort([e.effective_cfo for e in report.freq_estimates])
            np.testing.assert_allclose(got_xi, want_xi, atol=1e-6)
            want_eta = np.sort([wrap_half(effective_offsets(u, layout)[1]) for u in users])
            got_eta = np.sort([e.effective_timing for e in report.timing_estimates])
            np.testing.assert_allclose(got_eta, want_eta, atol=1e-6)
            for u in users:
                cfo_hat, timing_hat = report.per_code[u.code]
                assert cfo_hat == pytest.approx(u.cfo, abs=1e-4)
                assert timing_hat == pytest.approx(u.delay, abs=1e-4 * 1024)

    def test_waveform_noiseless_single_user(self):
        # leakage from a user's own bins carries the same block-to-block
        # rotation as the direct path, so the frequency stage stays exact in
        # waveform mode; the timing stage sees the leakage as a model error
        # worth a few samples, still well inside the tolerable window
        layout = reference_layout()
        from rangesim.airmodel import synthesize_waveform_mode

        for trial in range(5):
            rng = np.random.default_rng(3000 + trial)
            user = random_users(rng, layout, 1, max_cfo=0.1)[0]
            obs = synthesize_waveform_mode([user], layout, 0.0, rng)
            report = range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=1))
            assert report.detected == {user.code}
            cfo_hat, timing_hat = report.per_code[user.code]
            assert cfo_hat == pytest.approx(user.cfo, abs=1e-9)
            assert timing_hat == pytest.approx(user.delay, abs=8.0)

    def test_global_phase_invariance(self):
        layout = reference_layout()
        rng = np.random.default_rng(11)
        users = random_users(rng, layout, 2, max_cfo=0.05)
        obs = synthesize_model_mode(users, layout, 0.01, rng)
        base = range_subchannel(obs, RangerConfig(max_delay=204))
        rotated = TileObservations(layout, obs.grid * np.exp(1j * 0.7))
        other = range_subchannel(rotated, RangerConfig(max_delay=204))
        assert other.detected == base.detected
        assert other.num_codes == base.num_codes
        got = np.sort([e.effective_cfo for e in other.freq_estimates])
        want = np.sort([e.effective_cfo for e in base.freq_estimates])
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_known_count_validated(self):
        layout = reference_layout()
        obs = TileObservations(layout, np.zeros((4, 16, 4), dtype=complex))
        with pytest.raises(ConfigError):
            range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=4))


class TestWrapConsistency:
    def test_cfo_round_trip_grid(self):
        layout = reference_layout()
        for code in range(3):
            for cfo in np.linspace(-0.1, 0.1, 41):
                xi = code / 3 + cfo * layout.block_len / 1024
                est = map_cfo(float(wrap_half(xi)), layout)
                assert est.code == code
                assert est.cfo == pytest.approx(cfo, abs=1e-12)

    def test_timing_round_trip_grid(self):
        layout = reference_layout()
        for code in range(3):
            for delay in range(0, 205, 17):
                eta = code / 3 - delay / 1024
                est = map_timing(float(wrap_half(eta)), layout, 204)
                assert est.code == code
                assert est.timing == pytest.approx(delay, abs=1e-9)
