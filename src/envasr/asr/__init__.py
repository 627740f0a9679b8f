from .augment import SpecAugmentPolicy, specaugment
from .conformer import (AsrModel, ConformerConfig, Utterance, asr_step, build_models,
                        subsample_length)
from .metrics import EditCounts, align_counts, corpus_wer, format_wer_report, wer
from .transducer import greedy_decode, rnnt_alphas, rnnt_betas, rnnt_loss

__all__ = [
    "AsrModel", "ConformerConfig", "Utterance", "asr_step",
    "build_models", "subsample_length", "SpecAugmentPolicy", "specaugment",
    "EditCounts", "align_counts", "corpus_wer", "format_wer_report", "wer",
    "greedy_decode", "rnnt_alphas", "rnnt_betas", "rnnt_loss",
]
