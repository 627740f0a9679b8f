"""SpecAugment-style masking of feature matrices (training-time only)."""

from dataclasses import dataclass

import numpy as np


@dataclass
class SpecAugmentPolicy:
    """The ``augment.*`` config section: how many masks of each kind a
    training example gets, and the widest each may be."""

    freq_masks: int = 2
    freq_width: int = 12
    time_masks: int = 2
    time_width: int = 10

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"augment.{name} must be non-negative, got {value}")


def specaugment(features: np.ndarray, policy: SpecAugmentPolicy,
                rng: np.random.Generator) -> np.ndarray:
    """Zero up to n random frequency bands and time spans of a copy of a
    (T, D) matrix, in its dtype."""
    x = np.array(features)
    t, d = x.shape
    if policy.freq_width > d:
        raise ValueError(f"frequency mask width {policy.freq_width} exceeds {d} dims")
    if policy.time_width > t:
        raise ValueError(f"time mask width {policy.time_width} exceeds {t} frames")
    for _ in range(policy.freq_masks):
        f = int(rng.integers(0, policy.freq_width + 1))
        f0 = int(rng.integers(0, d - f + 1))
        x[:, f0 : f0 + f] = 0.0
    for _ in range(policy.time_masks):
        w = int(rng.integers(0, policy.time_width + 1))
        t0 = int(rng.integers(0, t - w + 1))
        x[t0 : t0 + w, :] = 0.0
    return x
