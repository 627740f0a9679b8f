"""Synthetic desk-scale corpus: tone utterances plus color-coded clips.

Each utterance is 3..10 symbols from an 8-symbol vocabulary; a symbol is a
100 ms pure tone at a distinct frequency. An environment id in {0..3} picks
an additive noise type (none, white, mains hum, crackle) for the audio and
the base color of a 3-frame 32x32 video clip (solid color with light pixel
noise so the video codebook has structure). Everything is a deterministic
function of the corpus seed.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..features import SAMPLE_RATE, write_wav
from ..rng import substream
from ..serialize import write_array

SYMBOLS = ("a", "b", "c", "d", "e", "f", "g", "h")
SYMBOL_HZ = (400.0, 600.0, 800.0, 1000.0, 1300.0, 1700.0, 2200.0, 2800.0)
TONE_SECONDS = 0.1
TONE_AMPLITUDE = 0.25
MIN_SYMBOLS, MAX_SYMBOLS = 3, 10

ENV_KINDS = ("clean", "white", "hum", "crackle")
ENV_COLORS = ((0.12, 0.12, 0.12), (0.85, 0.15, 0.15),
              (0.15, 0.85, 0.15), (0.15, 0.15, 0.85))
CLIP_FRAMES = 3
CLIP_SIZE = 32
CLIP_NOISE = 0.04


@dataclass
class SyntheticUtterance:
    name: str
    label_ids: np.ndarray
    env_id: int
    wave: np.ndarray
    clip: np.ndarray

    @property
    def label_names(self) -> list:
        return [SYMBOLS[i] for i in self.label_ids]


@dataclass
class SyntheticCorpus:
    utterances: list
    seed: int


def labels_to_ids(names) -> np.ndarray:
    return np.array([SYMBOLS.index(n) for n in names], dtype=np.int64)


def synth_wave(label_ids, env_id: int, rng: np.random.Generator) -> np.ndarray:
    n_tone = int(TONE_SECONDS * SAMPLE_RATE)
    t = np.arange(n_tone) / SAMPLE_RATE
    wave = np.concatenate([
        TONE_AMPLITUDE * np.sin(2.0 * np.pi * SYMBOL_HZ[int(i)] * t)
        for i in label_ids
    ])
    kind = ENV_KINDS[env_id]
    if kind == "white":
        wave = wave + 0.02 * rng.standard_normal(wave.size)
    elif kind == "hum":
        phase = rng.uniform(0.0, 2.0 * np.pi)
        tt = np.arange(wave.size) / SAMPLE_RATE
        wave = wave + 0.06 * np.sin(2.0 * np.pi * 50.0 * tt + phase)
    elif kind == "crackle":
        hits = rng.random(wave.size) < 0.002
        wave = wave + hits * rng.uniform(-0.5, 0.5, wave.size)
    return np.clip(wave, -1.0, 1.0)


def synth_clip(env_id: int, rng: np.random.Generator) -> np.ndarray:
    base = np.array(ENV_COLORS[env_id])
    clip = np.broadcast_to(base, (CLIP_FRAMES, CLIP_SIZE, CLIP_SIZE, 3)).copy()
    clip += CLIP_NOISE * rng.standard_normal(clip.shape)
    return np.clip(clip, 0.0, 1.0)


def generate_synthetic_corpus(n_utterances: int, seed: int) -> SyntheticCorpus:
    if n_utterances < 1:
        raise ValueError("need at least one utterance")
    utts = []
    for i in range(n_utterances):
        rng = substream(seed, "corpus", i)
        n_sym = int(rng.integers(MIN_SYMBOLS, MAX_SYMBOLS + 1))
        label_ids = rng.integers(0, len(SYMBOLS), n_sym)
        env_id = int(rng.integers(0, len(ENV_KINDS)))
        utts.append(SyntheticUtterance(
            name=f"utt{i:04d}",
            label_ids=label_ids,
            env_id=env_id,
            wave=synth_wave(label_ids, env_id, rng),
            clip=synth_clip(env_id, rng),
        ))
    return SyntheticCorpus(utts, seed)


def write_corpus(corpus: SyntheticCorpus, out_dir) -> Path:
    """Write each utterance's WAV and clip (a `serialize.write_array` file)
    and the tab-separated manifest; returns its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for utt in corpus.utterances:
        write_wav(out / f"{utt.name}.wav", utt.wave)
        write_array(out / f"{utt.name}.clip", utt.clip)
        lines.append(f"{utt.name}.wav\t{' '.join(utt.label_names)}")
    manifest = out / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def load_manifest(manifest_path):
    """[(wav path, clip path or None, label names), ...], paths resolved.

    Each non-blank line is an existing WAV's path relative to the manifest's
    directory, unpadded, a tab, then its labels: one or more of `SYMBOLS`.
    The WAV's file stem names the utterance, and no two lines may share one.
    Any other line fails as ``<manifest>: line <n>: <reason>``."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ValueError(f"manifest not found: {manifest_path}")
    root = manifest_path.parent
    entries = []
    lines_of = {}  # utterance name -> the line that named it
    for lineno, line in enumerate(manifest_path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        audio, tab, labels = line.partition("\t")
        names = labels.split()
        unknown = [name for name in names if name not in SYMBOLS]
        wav = root / audio
        reason = (f"no tab between the WAV path and the labels in {line!r}" if not tab
                  else "no WAV path before the tab" if not audio.strip()
                  else f"spaces around the WAV path {audio!r}" if audio != audio.strip()
                  else "no labels after the tab" if not names
                  else f"unknown label token {unknown[0]!r}" if unknown
                  else f"no WAV file {audio!r}" if not wav.is_file()
                  else f"utterance name {wav.stem!r} repeats line {lines_of[wav.stem]}"
                  if wav.stem in lines_of else "")
        if reason:
            raise ValueError(f"{manifest_path}: line {lineno}: {reason}")
        lines_of[wav.stem] = lineno
        clip = wav.with_suffix(".clip")
        entries.append((wav, clip if clip.is_file() else None, names))
    return entries
