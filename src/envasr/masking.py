"""Progressive masking curriculum for pretraining.

Training starts with single-position masks at center probability 0.15.
Every `stage_steps` optimization steps the span width grows by 2 (odd widths
1 -> 11) and the probability resets to 0.15, then saturates toward 0.45
within the stage: p(t) = p_init + (p_final - p_init) * (1 - exp(-lam*t/S)).
With lam = ln(100) each stage ends within 1% of the target probability.

`sample_segmented_mask` draws a mask at a (width, probability) pair as two
boolean arrays over a sequence of segments: the masked positions and the
span centers they grew from.
"""

import math
from dataclasses import dataclass

import numpy as np

RAMP_RATE = math.log(100.0)  # lam above


@dataclass
class MaskSchedule:
    """The ``schedule.*`` config section."""

    p_init: float = 0.15
    p_final: float = 0.45
    width_init: int = 1
    width_final: int = 11
    width_step: int = 2
    stage_steps: int = 10000

    def __post_init__(self):
        if self.width_init % 2 == 0 or self.width_final % 2 == 0:
            raise ValueError("schedule.width_init and schedule.width_final must be odd, "
                             f"got {self.width_init} and {self.width_final}")
        if self.width_step % 2 != 0 or self.width_step <= 0:
            raise ValueError("schedule.width_step must be a positive even increment, "
                             f"got {self.width_step}")
        if not (0.0 <= self.p_init <= self.p_final <= 1.0):
            raise ValueError("need 0 <= schedule.p_init <= schedule.p_final <= 1, "
                             f"got {self.p_init} and {self.p_final}")
        if self.stage_steps < 1:
            raise ValueError("schedule.stage_steps must be positive, "
                             f"got {self.stage_steps}")


def mask_params_at(sched: MaskSchedule, step: int):
    """(span width, center probability) in effect at an optimization step."""
    if step < 0:
        raise ValueError("step must be non-negative")
    stage = step // sched.stage_steps
    width = min(sched.width_init + sched.width_step * stage, sched.width_final)
    t = step - stage * sched.stage_steps
    ramp = 1.0 - math.exp(-RAMP_RATE * t / sched.stage_steps)
    prob = sched.p_init + (sched.p_final - sched.p_init) * ramp
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
