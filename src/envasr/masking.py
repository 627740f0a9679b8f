"""Progressive masking curriculum for pretraining.

Training starts with single-position masks at center probability 0.15.
Every `stage_steps` optimization steps the span width grows by 2 (odd widths
1 -> 11) and the probability resets to 0.15, then saturates toward 0.45
within the stage: p(t) = P_INIT + (P_FINAL - P_INIT) * (1 - exp(-lam*t/S)).
With lam = ln(100) each stage ends within 1% of the target probability.
These widths and probabilities are the recipe's constants; only
`stage_steps` is a config key.

`sample_segmented_mask` draws a mask at a (width, probability) pair as two
boolean arrays over a sequence of segments: the masked positions and the
span centers they grew from.
"""

import math
from dataclasses import dataclass

import numpy as np

RAMP_RATE = math.log(100.0)  # lam above
P_INIT, P_FINAL = 0.15, 0.45
WIDTH_INIT, WIDTH_FINAL, WIDTH_STEP = 1, 11, 2


@dataclass
class MaskSchedule:
    """The ``schedule.*`` config section: steps per curriculum stage."""

    stage_steps: int = 10000

    def __post_init__(self):
        if self.stage_steps < 1:
            raise ValueError("schedule.stage_steps must be positive, "
                             f"got {self.stage_steps}")


def mask_params_at(sched: MaskSchedule, step: int):
    """(span width, center probability) in effect at an optimization step."""
    if step < 0:
        raise ValueError("step must be non-negative")
    stage = step // sched.stage_steps
    width = min(WIDTH_INIT + WIDTH_STEP * stage, WIDTH_FINAL)
    t = step - stage * sched.stage_steps
    ramp = 1.0 - math.exp(-RAMP_RATE * t / sched.stage_steps)
    prob = P_INIT + (P_FINAL - P_INIT) * ramp
    return width, prob


def _mark_spans(mask: np.ndarray, centers: np.ndarray, width: int, lo: int, hi: int):
    half = width // 2
    for c in np.flatnonzero(centers) + lo:
        mask[max(lo, c - half) : min(hi, c + half + 1)] = True


def sample_segmented_mask(segment_lengths, width: int, prob: float,
                          rng: np.random.Generator):
    """(mask, centers), boolean over a concatenated sequence: independent
    Bernoulli span centers, each masking a span of `width` clipped to its own
    segment, so no span crosses a boundary."""
    if width % 2 == 0:
        raise ValueError("mask width must be odd")
    total = int(sum(segment_lengths))
    if total < 1:
        raise ValueError("empty sequence")
    centers = rng.random(total) < prob
    mask = np.zeros(total, dtype=bool)
    lo = 0
    for n in segment_lengths:
        hi = lo + int(n)
        _mark_spans(mask, centers[lo:hi], width, lo, hi)
        lo = hi
    return mask, centers
