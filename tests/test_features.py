import numpy as np
import pytest

from envasr import features as ft


def tone(freq, seconds=1.0, amp=0.4):
    t = np.arange(int(seconds * ft.SAMPLE_RATE)) / ft.SAMPLE_RATE
    return amp * np.sin(2 * np.pi * freq * t)


class TestLfbe:
    def test_silence_hits_log_floor(self):
        frames = ft.compute_lfbe(np.zeros(16000))
        np.testing.assert_allclose(frames, np.log(1e-10))

    def test_one_second_gives_98_frames(self):
        frames = ft.compute_lfbe(np.zeros(16000))
        assert frames.shape == (98, 64)  # (16000 - 400) / 160 + 1

    def test_tone_argmax_is_nearest_mel_center(self):
        frames = ft.compute_lfbe(tone(1000.0))
        # independent re-derivation of the mel centers
        def mel(f):
            return 2595.0 * np.log10(1.0 + f / 700.0)
        def imel(m):
            return 700.0 * (10 ** (m / 2595.0) - 1.0)
        centers = imel(np.linspace(mel(0.0), mel(8000.0), 66))[1:-1]
        expected = int(np.abs(centers - 1000.0).argmin())
        assert (frames.argmax(axis=1) == expected).all()

    def test_scaling_adds_log4_above_floor(self):
        w = tone(700.0, seconds=0.5, amp=0.2)
        a = ft.compute_lfbe(w)
        b = ft.compute_lfbe(2 * w)
        above = a > np.log(1e-10) + 1e-9
        assert above.any()
        np.testing.assert_allclose((b - a)[above], np.log(4.0), atol=1e-9)

    # 400 + 160 * (f - 1) samples make f frames: 127-129, 257 and 498 frames
    # end just before, at and after a block edge, one frame into the third
    # block and inside the fourth
    @pytest.mark.parametrize("n", [400, 401, 559, 560, 16000, 16161,
                                   20560, 20720, 20880, 41360, 80080])
    def test_frames_equal_index_gather_byte_for_byte(self, n):
        # framing by strided view, in blocks of LFBE_BLOCK frames, must give
        # the features an explicit (frame, sample) index gather gives
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        count = (n - ft.FRAME_LENGTH) // ft.FRAME_SHIFT + 1
        idx = np.arange(ft.FRAME_LENGTH)[None, :] + ft.FRAME_SHIFT * np.arange(count)[:, None]
        spec = np.fft.rfft(x[idx] * np.hanning(ft.FRAME_LENGTH), n=ft.N_FFT, axis=1)
        energies = (spec.real**2 + spec.imag**2) @ ft.mel_filterbank()
        want = np.log(np.maximum(energies, ft.LOG_FLOOR))
        got = ft.compute_lfbe(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            ft.compute_lfbe(np.zeros(399))

    def test_wave_invariants(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                ft.compute_lfbe(np.full(100, bad))
        # a non-finite sample is named even beside an out-of-range one
        with pytest.raises(ValueError, match="non-finite"):
            ft.compute_lfbe(np.array([0.0, 2.0, np.nan, 0.5] * 100))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            ft.compute_lfbe(np.full(100, 2.0))


class TestStacking:
    def test_nine_frames_three_patches(self, rng):
        patches = ft.stack_frames(rng.standard_normal((9, 64)))
        assert patches.shape == (3, 192)

    def test_three_frames_concatenated(self, rng):
        f = rng.standard_normal((3, 64))
        patches = ft.stack_frames(f)
        np.testing.assert_array_equal(patches[0], f.reshape(-1))

    def test_remainder_dropped(self, rng):
        patches = ft.stack_frames(rng.standard_normal((4, 64)))
        assert patches.shape == (1, 192)

    def test_unstack_roundtrip(self, rng):
        f = rng.standard_normal((11, 64))
        recovered = ft.stack_frames(f).reshape(-1, 64)
        np.testing.assert_array_equal(recovered, f[:9])

    def test_too_few_frames(self, rng):
        with pytest.raises(ValueError, match="at least 3"):
            ft.stack_frames(rng.standard_normal((2, 64)))


class TestWhitener:
    def test_two_point_stats(self):
        w = ft.fit_whitener(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(w.mean, [1.0, 1.0])
        np.testing.assert_array_equal(w.std, [1.0, 1.0])

    def test_constant_column_floored(self):
        rows = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        w = ft.fit_whitener(rows)
        assert w.std[0] == 1e-6

    def test_self_whitening_recenters(self, rng):
        # balanced +/- one-sigma rows stay inside the clip range exactly
        mean = rng.standard_normal(6)
        std = rng.uniform(0.5, 2.0, 6)
        signs = np.ones((40, 6))
        signs[20:] = -1.0
        for c in range(6):
            rng.shuffle(signs[:, c])
        rows = mean + signs * std
        out = ft.whiten_clip(rows, ft.fit_whitener(rows))
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-6

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            ft.fit_whitener(np.ones((1, 3)))


class TestWhitenClip:
    def setup_method(self):
        self.w = ft.Whitener(mean=np.array([1.0, -2.0]), std=np.array([2.0, 0.5]))

    def test_mean_maps_to_zero(self):
        out = ft.whiten_clip(np.array([[1.0, -2.0]]), self.w)
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_two_sigma_clipped_to_bound(self):
        x = np.array([[1.0 + 2 * 2.0, -2.0 + 2 * 0.5]])
        np.testing.assert_array_equal(ft.whiten_clip(x, self.w),
                                      [[1.2, 1.2]])

    def test_half_sigma_passes_through(self):
        x = np.array([[1.0 + 0.5 * 2.0, -2.0 - 0.5 * 0.5]])
        np.testing.assert_allclose(ft.whiten_clip(x, self.w),
                                   [[0.5, -0.5]])

    def test_always_within_bounds(self, rng):
        x = rng.standard_normal((50, 2)) * 100
        out = ft.whiten_clip(x, self.w)
        assert out.min() >= -1.2 and out.max() <= 1.2

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            ft.whiten_clip(rng.standard_normal((3, 5)), self.w)


class TestVideoPatches:
    def test_256_clip_patch_count(self, rng):
        patches, grid = ft.extract_video_patches(rng.random((6, 256, 256, 3)))
        assert patches.shape == (512, 2304)
        assert grid == (2, 16, 16)

    def test_single_patch_is_flattened_input(self, rng):
        frames = rng.random((3, 16, 16, 3))
        patches, _ = ft.extract_video_patches(frames)
        assert patches.shape == (1, 2304)
        np.testing.assert_array_equal(patches[0], frames.reshape(-1))

    def test_frame_count_must_divide(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            ft.extract_video_patches(rng.random((4, 256, 256, 3)))

    def test_partition_covers_every_voxel(self, rng):
        frames = rng.random((3, 32, 32, 3))
        patches, _ = ft.extract_video_patches(frames)
        assert patches.shape == (4, 2304)
        np.testing.assert_array_equal(np.sort(patches.reshape(-1)),
                                      np.sort(frames.reshape(-1)))
        np.testing.assert_allclose(patches.sum(), frames.sum())


class TestWavIO:
    def test_roundtrip(self, tmp_path, rng):
        w = np.clip(rng.standard_normal(8000) * 0.2, -1, 1)
        ft.write_wav(tmp_path / "x.wav", w)
        back = ft.decode_wav((tmp_path / "x.wav").read_bytes())
        assert back.shape == w.shape
        np.testing.assert_allclose(back, w, atol=0.51 / 32768)

    def test_resampling_declared_rate(self, tmp_path):
        w = tone(400.0, seconds=0.25, amp=0.3)[::2]  # 2000 samples at 8 kHz
        ft.write_wav(tmp_path / "x.wav", w, sample_rate=8000)
        back = ft.decode_wav((tmp_path / "x.wav").read_bytes())
        assert abs(back.size - 4000) <= 2  # same 0.25 s at 16 kHz
