import math

import numpy as np
import pytest

from envasr.masking import MaskSchedule, mask_params_at, sample_segmented_mask
from envasr.rng import substream

from oracles import expected_coverage


class TestScheduleParams:
    def setup_method(self):
        self.sched = MaskSchedule()

    def test_step_zero_exact(self):
        assert mask_params_at(self.sched, 0) == (1, 0.15)

    def test_stage_boundary_resets_probability(self):
        width, prob = mask_params_at(self.sched, 10000)
        assert width == 3
        assert prob == pytest.approx(0.15, abs=1e-12)

    def test_end_of_final_stage(self):
        width, prob = mask_params_at(self.sched, 59999)
        assert width == 11
        assert abs(prob - 0.45) < 0.005
        assert prob == pytest.approx(0.447, abs=5e-4)

    def test_width_step_function(self):
        widths = {mask_params_at(self.sched, s)[0] for s in range(0, 70000, 500)}
        assert widths == {1, 3, 5, 7, 9, 11}
        for stage in range(6):
            s = stage * 10000
            assert mask_params_at(self.sched, s)[0] == min(1 + 2 * stage, 11)
            if s > 0:
                assert mask_params_at(self.sched, s - 1)[0] == min(2 * stage - 1, 11)

    def test_width_constant_after_50000(self):
        for s in (50000, 60000, 123456, 10**7):
            assert mask_params_at(self.sched, s)[0] == 11

    def test_prob_strictly_increasing_within_stage(self):
        probs = [mask_params_at(self.sched, s)[1] for s in range(20000, 30000, 250)]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        assert all(0.15 <= p < 0.45 for p in probs)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            mask_params_at(self.sched, -1)

    @pytest.mark.parametrize("stage", range(8))
    def test_stage_width_and_probability_ramp(self, stage):
        start, end = stage * 10000, stage * 10000 + 9999
        width = (1, 3, 5, 7, 9, 11, 11, 11)[stage]
        assert mask_params_at(self.sched, start) == (width, 0.15)
        w, prob = mask_params_at(self.sched, end)
        assert w == width
        assert prob == pytest.approx(0.447, abs=5e-4) and prob < 0.45

    @pytest.mark.parametrize("stage_steps", [1, 4, 100, 10000])
    def test_curriculum_depends_only_on_step_over_stage_steps(self, stage_steps):
        # p = 0.15 + 0.30 * (1 - 100 ** -(t / stage_steps)) at every quarter-stage
        sched = MaskSchedule(stage_steps=stage_steps)
        for stage in range(8):
            for quarter in range(4):
                t, rem = divmod(quarter * stage_steps, 4)
                if rem:
                    continue
                width, prob = mask_params_at(sched, stage * stage_steps + t)
                assert width == min(1 + 2 * stage, 11), (stage, quarter)
                want = 0.15 + 0.30 * (1 - 100.0 ** (-quarter / 4))
                assert prob == pytest.approx(want, abs=1e-12), (stage, quarter)

    def test_schedule_invariants(self):
        with pytest.raises(ValueError, match="stage_steps"):
            MaskSchedule(stage_steps=0)


class TestSampleMask:
    def test_prob_zero_all_false(self):
        mask, _ = sample_segmented_mask([50], 3, 0.0, substream(0, "m"))
        assert not mask.any()

    def test_prob_one_all_true(self):
        for width in (1, 5, 11):
            mask, _ = sample_segmented_mask([50], width, 1.0, substream(0, "m"))
            assert mask.all()

    def test_masked_fraction_binomial_bound(self):
        mask, _ = sample_segmented_mask([10000], 1, 0.15, substream(7, "m"))
        frac = mask.mean()
        assert abs(frac - 0.15) < 3 * math.sqrt(0.15 * 0.85 / 10000)

    def test_deterministic_given_seed(self):
        a, _ = sample_segmented_mask([200], 5, 0.3, substream(3, "m"))
        b, _ = sample_segmented_mask([200], 5, 0.3, substream(3, "m"))
        np.testing.assert_array_equal(a, b)

    def test_even_width_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            sample_segmented_mask([10], 4, 0.2, substream(0, "m"))

    def test_every_masked_position_near_a_center(self):
        for seed in range(10):
            mask, drawn = sample_segmented_mask([64], 7, 0.2, substream(seed, "m"))
            centers = np.flatnonzero(drawn)
            for pos in np.flatnonzero(mask):
                assert centers.size and np.abs(centers - pos).min() <= 3

    def test_spans_clipped_at_bounds(self):
        mask, _ = sample_segmented_mask([5], 11, 1.0, substream(0, "m"))
        assert mask.shape == (5,) and mask.all()


class TestSegmentedMask:
    def test_spans_do_not_cross_the_seam(self):
        for seed in range(30):
            mask, drawn = sample_segmented_mask([6, 6], 5, 0.3, substream(seed, "m"))
            centers = np.flatnonzero(drawn)
            for pos in np.flatnonzero(mask):
                lo, hi = (0, 6) if pos < 6 else (6, 12)
                own = centers[(centers >= lo) & (centers < hi)]
                assert own.size and np.abs(own - pos).min() <= 2

    def test_center_at_segment_edge_stays_inside(self):
        # force a center on the last slot of segment one
        for seed in range(200):
            mask, centers = sample_segmented_mask([4, 4], 3, 0.3, substream(seed, "e"))
            if centers[3] and not centers[4:].any():
                assert mask[3] and not mask[4]
                return
        pytest.fail("no draw exercised the seam")

    def test_total_length(self):
        mask, _ = sample_segmented_mask([3, 5, 2], 1, 1.0, substream(0, "m"))
        assert mask.shape == (10,) and mask.all()


class TestExpectedCoverage:
    def test_zero_prob(self):
        assert expected_coverage(0.0, 7) == 0.0

    def test_width_one_is_prob(self):
        assert expected_coverage(0.37, 1) == pytest.approx(0.37)

    def test_final_stage_value(self):
        assert expected_coverage(0.45, 11) == pytest.approx(1 - 0.55**11)
        assert expected_coverage(0.45, 11) == pytest.approx(0.99861, abs=5e-6)

    @pytest.mark.parametrize("prob,width", [(0.15, 1), (0.3, 5), (0.45, 11)])
    def test_empirical_interior_rate(self, prob, width):
        # one fixed interior position, 10^4 independent draws
        trials = 10000
        seq_len = 64
        pos = seq_len // 2
        rng = substream(99, "coverage", width)
        hits = sum(bool(sample_segmented_mask([seq_len], width, prob, rng)[0][pos])
                   for _ in range(trials))
        expect = expected_coverage(prob, width)
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert abs(hits / trials - expect) < 3 * sigma
