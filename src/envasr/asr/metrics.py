"""Word error rate via Levenshtein alignment with unit costs."""

from dataclasses import dataclass

import numpy as np


@dataclass
class EditCounts:
    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0

    @property
    def total(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    def __add__(self, other: "EditCounts") -> "EditCounts":
        return EditCounts(self.substitutions + other.substitutions,
                          self.insertions + other.insertions,
                          self.deletions + other.deletions)


def align_counts(reference, hypothesis) -> EditCounts:
    """Minimum-edit alignment counts. Ties resolve match/sub, then deletion,
    then insertion, so counts are deterministic.

    The DP table is filled a row at a time: the diagonal and up moves are
    elementwise, and the left moves along the row are a running minimum,
    cost[i, j] = j + min over k <= j of (best[k] - k)."""
    ref = list(reference)
    hyp = list(hypothesis)
    n, m = len(ref), len(hyp)
    ids = {}
    ref_ids = np.array([ids.setdefault(w, len(ids)) for w in ref], dtype=np.int64)
    hyp_ids = np.array([ids.setdefault(w, len(ids)) for w in hyp], dtype=np.int64)
    cols = np.arange(m + 1)
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[0] = cols
    for i in range(1, n + 1):
        best = np.empty(m + 1, dtype=np.int64)
        best[0] = i
        np.minimum(cost[i - 1, :-1] + (hyp_ids != ref_ids[i - 1]), cost[i - 1, 1:] + 1,
                   out=best[1:])
        cost[i] = np.minimum.accumulate(best - cols) + cols
    counts = EditCounts()
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i, j] == cost[i - 1, j - 1] + (
                0 if ref[i - 1] == hyp[j - 1] else 1):
            if ref[i - 1] != hyp[j - 1]:
                counts.substitutions += 1
            i, j = i - 1, j - 1
        elif i > 0 and cost[i, j] == cost[i - 1, j] + 1:
            counts.deletions += 1
            i -= 1
        else:
            counts.insertions += 1
            j -= 1
    return counts


def wer(reference, hypothesis) -> float:
    """Word-level edit distance divided by reference length."""
    ref = list(reference)
    if not ref:
        raise ValueError("wer needs a non-empty reference")
    return align_counts(ref, hypothesis).total / len(ref)


def corpus_wer(pairs):
    """Pooled corpus-level WER: total edits over total reference words.

    Returns (rate, EditCounts, reference word count).
    """
    totals = EditCounts()
    ref_words = 0
    for reference, hypothesis in pairs:
        ref = list(reference)
        if not ref:
            raise ValueError("wer needs a non-empty reference")
        totals = totals + align_counts(ref, hypothesis)
        ref_words += len(ref)
    if ref_words == 0:
        raise ValueError("empty evaluation set")
    return totals.total / ref_words, totals, ref_words


def format_wer_report(rate: float, counts: EditCounts) -> str:
    return (f"wer {rate:.4f} subs {counts.substitutions} "
            f"ins {counts.insertions} dels {counts.deletions}")
