"""SpecAugment on its own: what it masks, and what it leaves alone."""

import numpy as np
import pytest

from envasr.asr.augment import SpecAugmentPolicy, specaugment


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masks_stay_within_their_widths_on_a_copy_in_the_input_dtype(dtype):
    features = np.random.default_rng(0).uniform(1.0, 2.0, (40, 24)).astype(dtype)
    before = features.copy()
    policy = SpecAugmentPolicy(freq_masks=2, freq_width=5, time_masks=2, time_width=7)
    masked = 0
    for seed in range(40):
        out = specaugment(features, policy, np.random.default_rng(seed))
        assert out.dtype == dtype
        zero = out == 0
        bands, spans = zero.all(axis=0), zero.all(axis=1)
        # every zero lies in a masked band or span; every other entry is kept
        np.testing.assert_array_equal(zero, bands[None, :] | spans[:, None])
        np.testing.assert_array_equal(out[~zero], features[~zero])
        assert bands.sum() <= 2 * 5 and spans.sum() <= 2 * 7
        masked += int(zero.any())
        again = specaugment(features, policy, np.random.default_rng(seed))
        np.testing.assert_array_equal(out, again)
    assert masked > 30
    np.testing.assert_array_equal(features, before)
