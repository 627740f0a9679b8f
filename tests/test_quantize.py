import numpy as np
import pytest

from envasr import quantize as vq
from envasr.rng import substream

from oracles import lloyd_direct, nearest_center_exhaustive


def blobs(rng, n_per=60, sep=20.0, dim=5):
    a = rng.standard_normal((n_per, dim))
    b = rng.standard_normal((n_per, dim)) + sep
    return np.vstack([a, b]), a.mean(axis=0), b.mean(axis=0)


class TestTrainKmeans:
    def test_k_equals_n_zero_distortion(self, rng):
        x = rng.standard_normal((6, 3)) * 10
        cb = vq.train_kmeans(x, k=6, seed=0)
        ids = vq.assign_tokens(cb, x)
        d = ((x - cb.centers[ids]) ** 2).sum()
        assert d == 0.0
        np.testing.assert_allclose(np.sort(cb.centers, axis=0), np.sort(x, axis=0))

    def test_two_blobs_recover_means(self, rng):
        x, mean_a, mean_b = blobs(rng)
        cb = vq.train_kmeans(x, k=2, seed=3)
        tol = 3.0 / np.sqrt(60)  # 3 sigma / sqrt(n) per coordinate
        found = cb.centers[np.argsort(cb.centers[:, 0])]
        wanted = np.vstack([mean_a, mean_b])[np.argsort([mean_a[0], mean_b[0]])]
        assert np.abs(found - wanted).max() < tol

    def test_distortion_trace_monotone(self, rng):
        for seed in range(5):
            x = rng.standard_normal((80, 4))
            _, _, trace = vq.lloyd(x, 7, max_iters=30, rng=substream(seed, "t"))
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_deterministic_given_seed(self, rng):
        x = rng.standard_normal((40, 3))
        a = vq.train_kmeans(x, k=5, seed=11)
        b = vq.train_kmeans(x, k=5, seed=11)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_needs_enough_vectors(self, rng):
        with pytest.raises(ValueError, match="at least"):
            vq.train_kmeans(rng.standard_normal((3, 2)), k=4)


def lloyd_cases():
    rng = np.random.default_rng(7)
    distinct = rng.standard_normal((5, 3))
    return {
        "random-f64": (rng.standard_normal((500, 192)), 32),
        "video-f32": ((rng.random((64, 2304)) * 255.0).astype(np.float32), 16),
        # 5 distinct rows, 8 centers: duplicate centers leave clusters empty
        "duplicates": (np.repeat(distinct, 4, axis=0), 8),
        "k-equals-n": (rng.standard_normal((12, 4)), 12),
    }


class TestLloydMatchesOracle:
    """`lloyd`, computing each row's squared norm once per fit, returns the
    bytes that recomputing them in every distance pass returns."""

    @pytest.mark.parametrize("case", list(lloyd_cases()))
    def test_byte_identical(self, case):
        x, k = lloyd_cases()[case]
        centers, assign, trace = vq.lloyd(x, k, max_iters=25, rng=substream(3, case))
        want_centers, want_assign, want_trace = lloyd_direct(x, k, max_iters=25,
                                                             rng=substream(3, case))
        assert centers.tobytes() == want_centers.tobytes()
        assert assign.tobytes() == want_assign.tobytes()
        assert trace == want_trace
        if case == "duplicates":
            assert len(np.unique(assign)) < k  # the re-seed branch ran


class TestAssignTokens:
    def make_codebook(self, offset=0):
        centers = np.zeros((8, 2))
        centers[:, 0] = np.arange(8) * 100.0
        centers[2] = [0.0, 0.0]
        centers[7] = [2.0, 0.0]
        # other centers far away so 2 and 7 are the two nearest
        centers[[0, 1, 3, 4, 5, 6], 1] = 1000.0
        modality = "audio" if offset == 0 else "video"
        return vq.Codebook(centers, modality, offset)

    def test_exact_center_hit(self, rng):
        centers = rng.standard_normal((9, 4))
        cb = vq.Codebook(centers, "video", vocab_offset=3)
        ids = vq.assign_tokens(cb, centers[5][None, :])
        assert ids.tolist() == [5 + 3]

    def test_tie_breaks_to_lowest_index(self):
        cb = self.make_codebook(offset=4)
        ids = vq.assign_tokens(cb, np.array([[1.0, 0.0]]))
        assert ids.tolist() == [2 + 4]

    def test_matches_exhaustive_search(self, rng):
        centers = rng.standard_normal((12, 6))
        cb = vq.Codebook(centers, "audio", 0)
        x = rng.standard_normal((50, 6))
        np.testing.assert_array_equal(vq.assign_tokens(cb, x),
                                      nearest_center_exhaustive(x, centers))

    def test_centers_map_to_identity(self, rng):
        centers = rng.standard_normal((10, 3))
        cb = vq.Codebook(centers, "video", vocab_offset=6)
        ids = vq.assign_tokens(cb, centers)
        np.testing.assert_array_equal(ids, np.arange(10) + 6)

    def test_dim_mismatch(self, rng):
        cb = vq.Codebook(rng.standard_normal((4, 3)), "audio", 0)
        with pytest.raises(ValueError, match="vectors"):
            vq.assign_tokens(cb, rng.standard_normal((5, 2)))


class TestUnifiedVocab:
    def test_max_assignable_id(self, rng):
        cb_a = vq.Codebook(rng.standard_normal((8, 2)), "audio", 0)
        cb_v = vq.Codebook(rng.standard_normal((16, 2)), "video", 8)
        top = vq.assign_tokens(cb_v, cb_v.centers[-1][None, :])[0]
        assert top == cb_a.k + cb_v.k - 1

    def test_ranges_disjoint_and_contiguous(self, rng):
        cb_a = vq.Codebook(rng.standard_normal((8, 3)), "audio", 0)
        cb_v = vq.Codebook(rng.standard_normal((16, 3)), "video", 8)
        a_ids = vq.assign_tokens(cb_a, rng.standard_normal((30, 3)))
        v_ids = vq.assign_tokens(cb_v, rng.standard_normal((30, 3)))
        assert a_ids.max() < 8 <= v_ids.min() and v_ids.max() < 24


class TestPersistence:
    def test_roundtrip(self, tmp_path, rng):
        cb = vq.Codebook(rng.standard_normal((16, 192)).astype(np.float32),
                         "video", 64, key="9f" * 32)
        vq.save_codebook(tmp_path / "v.cb", cb)
        back = vq.load_codebook(tmp_path / "v.cb")
        assert (back.modality, back.vocab_offset, back.key) == ("video", 64, "9f" * 32)
        np.testing.assert_array_equal(back.centers.astype(np.float32),
                                      cb.centers.astype(np.float32))

    def test_reassignment_identical_after_reload(self, tmp_path, rng):
        x = rng.standard_normal((60, 5))
        cb = vq.train_kmeans(x, 6, seed=2)
        vq.save_codebook(tmp_path / "a.cb", cb)
        back = vq.load_codebook(tmp_path / "a.cb")
        np.testing.assert_array_equal(vq.assign_tokens(cb, x),
                                      vq.assign_tokens(back, x))


class TestSampleRows:
    def test_cap_respected_and_deterministic(self, rng):
        rows = rng.standard_normal((500, 3))
        a = vq.sample_rows([rows], 100, substream(4, "s"))
        b = vq.sample_rows([rows], 100, substream(4, "s"))
        assert a.shape == (100, 3)
        np.testing.assert_array_equal(a, b)
        picked = [int(np.flatnonzero((rows == row).all(axis=1))[0]) for row in a]
        assert len(set(picked)) == 100 and picked == sorted(picked)
        # the draw is over the concatenated rows, however they are split
        parts = [rows[:123], rows[123:].astype(np.float32)]
        split = vq.sample_rows(parts, 100, substream(4, "s"))
        assert split.dtype == np.float64
        np.testing.assert_array_equal(split, np.concatenate(parts)[picked])

    def test_small_input_passthrough(self, rng):
        rows = rng.standard_normal((5, 2))
        gen = substream(0, "s")
        state = gen.bit_generator.state
        out = vq.sample_rows([rows[:2], rows[2:]], 100, gen)
        np.testing.assert_array_equal(out, rows)
        assert out.dtype == np.float64 and out is not rows
        assert gen.bit_generator.state == state
        single = vq.sample_rows([rows], 100, gen)
        np.testing.assert_array_equal(single, rows)
        assert single is not rows and not np.shares_memory(single, rows)
