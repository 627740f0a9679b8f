"""Benchmark-owned synthetic corpora.

Utterances are built from the program's own synthesizers
(``envasr.pipeline.corpus.synth_wave`` and ``synth_clip``), so they look
exactly like ``envasr gen-corpus`` output, but two things differ:

* the symbols, lengths and noise environments of the utterances are fixed
  per corpus name; the seed draws only the recording noise and the clip
  pixels. A different ``--seed`` then changes what the program computes on
  but not how much, so run-to-run spread measures the machine, not the draw
  of lengths;
* lengths can exceed gen-corpus's 10-symbol cap (the long corpus of
  ``asr-long``).

Every corpus draws from its own named substream of the workload seed, so a
held-out corpus never shares utterances with the training corpus.
"""

from envasr.features import SAMPLE_RATE
from envasr.pipeline.corpus import (ENV_KINDS, SYMBOLS, SyntheticCorpus,
                                    SyntheticUtterance, synth_clip, synth_wave,
                                    write_corpus)
from envasr.rng import substream

# 3..10 symbols, each length twice, ordered so that every group of four
# consecutive utterances (one batch of 4) holds 26 symbols.
SHORT_LENGTHS = (3, 10, 4, 9, 5, 8, 6, 7) * 2

# 40..60 symbols (4-6 s of audio), short and long alternating.
LONG_LENGTHS = (40, 60, 41, 59, 43, 57, 44, 56, 45, 55, 47, 53, 48, 52, 49, 51)


def make_corpus(seed: int, name: str, lengths) -> SyntheticCorpus:
    utts = []
    for i, n_sym in enumerate(lengths):
        script = substream(0, name, i)
        label_ids = script.integers(0, len(SYMBOLS), n_sym)
        env_id = i % len(ENV_KINDS)
        rng = substream(seed, name, i)
        utts.append(SyntheticUtterance(
            name=f"utt{i:04d}", label_ids=label_ids, env_id=env_id,
            wave=synth_wave(label_ids, env_id, rng), clip=synth_clip(env_id, rng)))
    return SyntheticCorpus(utts, seed)


def write(seed: int, name: str, lengths, out_dir):
    """Write one corpus; returns (manifest path, audio seconds per utterance)."""
    corpus = make_corpus(seed, name, lengths)
    manifest = write_corpus(corpus, out_dir)
    return manifest, [u.wave.size / SAMPLE_RATE for u in corpus.utterances]
