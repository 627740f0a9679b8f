import numpy as np
import pytest

from envasr.asr.metrics import (EditCounts, align_counts, corpus_wer,
                                format_wer_report, wer)

from oracles import align_counts_loop, edit_distance_dp

# printed reference/hypothesis pair from the qualitative examples
LONG_REF = "should i buy from the princess starfrost set royale high".split()
LONG_HYP = "should i buy from the princess stare froset in we're all rawhide".split()


class TestWer:
    def test_identical_sequences(self):
        assert wer(["x", "y", "z"], ["x", "y", "z"]) == 0.0

    def test_single_substitution(self):
        assert wer("a b c".split(), "a x c".split()) == pytest.approx(1 / 3)

    def test_matches_dp_oracle_on_printed_pair(self):
        distance = edit_distance_dp(LONG_REF, LONG_HYP)
        assert wer(LONG_REF, LONG_HYP) == pytest.approx(distance / len(LONG_REF))
        assert wer(LONG_REF, LONG_HYP) == pytest.approx(0.6)  # regression pin

    def test_200_random_pairs_match_oracle(self, rng):
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(200):
            ref = [vocab[i] for i in rng.integers(0, 12, rng.integers(1, 15))]
            hyp = [vocab[i] for i in rng.integers(0, 12, rng.integers(0, 15))]
            assert wer(ref, hyp) == pytest.approx(
                edit_distance_dp(ref, hyp) / len(ref))

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            wer([], ["a"])

    def test_self_wer_zero_property(self, rng):
        for _ in range(20):
            seq = [str(i) for i in rng.integers(0, 5, rng.integers(1, 10))]
            assert wer(seq, seq) == 0.0

    def test_upper_bound_property(self, rng):
        for _ in range(50):
            ref = [str(i) for i in rng.integers(0, 4, rng.integers(1, 8))]
            hyp = [str(i) for i in rng.integers(0, 4, rng.integers(0, 8))]
            assert wer(ref, hyp) <= (len(ref) + len(hyp)) / len(ref)


class TestAlignCounts:
    def test_counts_sum_to_distance(self, rng):
        for _ in range(50):
            ref = [str(i) for i in rng.integers(0, 5, rng.integers(1, 10))]
            hyp = [str(i) for i in rng.integers(0, 5, rng.integers(0, 10))]
            counts = align_counts(ref, hyp)
            assert counts.total == edit_distance_dp(ref, hyp)

    def test_counts_equal_cell_by_cell_dp(self, rng):
        # two- and three-word alphabets make ties between moves common
        pairs = [([], []), (["a"], []), ([], ["a", "b"]), ("a b".split(), "b a".split())]
        for _ in range(300):
            k = int(rng.integers(2, 4))
            ref = [str(i) for i in rng.integers(0, k, rng.integers(0, 12))]
            hyp = [str(i) for i in rng.integers(0, k, rng.integers(0, 12))]
            pairs.append((ref, hyp))
        for _ in range(20):  # long hypotheses, as an undertrained model emits
            ref = [str(i) for i in rng.integers(0, 8, rng.integers(1, 30))]
            hyp = [str(i) for i in rng.integers(0, 8, rng.integers(0, 200))]
            pairs.append((ref, hyp))
        for ref, hyp in pairs:
            assert align_counts(ref, hyp) == align_counts_loop(ref, hyp), (ref, hyp)

    def test_pure_deletions(self):
        counts = align_counts("a b c d".split(), ["a"])
        assert (counts.substitutions, counts.insertions, counts.deletions) == (0, 0, 3)

    def test_pure_insertions(self):
        counts = align_counts(["a"], "a b c".split())
        assert (counts.substitutions, counts.insertions, counts.deletions) == (0, 2, 0)


class TestCorpusWer:
    def test_pooled_not_averaged(self):
        # per-utterance rates 1/1 and 0/3 average to 0.5; pooled is 1/4
        pairs = [(["x"], ["y"]), (["a", "b", "c"], ["a", "b", "c"])]
        rate, counts, ref_words = corpus_wer(pairs)
        assert rate == pytest.approx(0.25)
        assert counts.total == 1 and ref_words == 4
        per_utt_mean = np.mean([wer(r, h) for r, h in pairs])
        assert rate != pytest.approx(per_utt_mean)

    def test_report_format(self):
        report = format_wer_report(0.25, EditCounts(1, 2, 3))
        assert report == "wer 0.2500 subs 1 ins 2 dels 3"

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            corpus_wer([])
