"""Shared data plumbing between the runners: feature extraction and the
per-corpus features file, whitener and codebook persistence, batch assembly,
and the on-disk environment-embedding cache."""

import hashlib
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import features
from ..env_encoder import EnvEncoder, MultimodalBatch, extract_env_embeddings
from ..features import (Whitener, compute_lfbe, decode_wav, extract_video_patches,
                        fit_whitener, stack_frames)
from ..quantize import (Codebook, assign_tokens, load_codebook, sample_rows, save_codebook,
                        train_kmeans)
from ..rng import derive_seed, substream
from ..serialize import (header_field, read_array, read_raw_array, read_tensors,
                         write_array, write_tensors)
from .corpus import labels_to_ids, load_manifest


@dataclass
class LoadedUtterance:
    name: str
    label_names: list
    label_ids: np.ndarray
    raw_patches: np.ndarray             # unwhitened (T, 192)
    video_patches: np.ndarray | None
    video_grid: tuple | None


def _extract(path, make):
    """`make()`, any ValueError of which is re-raised as one line naming
    `path`."""
    try:
        return make()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_FEATURES_MAGIC = "envasr-features 1"
_StoredFeatures = namedtuple("_StoredFeatures", "patches key")
# what the stored patches depend on besides the WAV bytes
_FRONT_END = ("FRONT_END_VERSION", "SAMPLE_RATE", "FRAME_LENGTH", "FRAME_SHIFT", "N_FFT",
              "N_MELS", "LOG_FLOOR", "STACK")


class Corpus(list):
    """The `LoadedUtterance`s of a manifest, in its order. After a miss of
    its features file, `store_features` writes that file, once."""

    def __init__(self, utts, missed=None):
        super().__init__(utts)
        self._missed = missed   # (path, key) of the features file to write, or None

    def store_features(self) -> None:
        """Write the features file `load_corpus` missed; a no-op after a hit
        or when it was called without a cache_dir."""
        if self._missed is not None:
            path, key = self._missed
            path.parent.mkdir(parents=True, exist_ok=True)
            write_tensors(path, _FEATURES_MAGIC, [f"key {key}"],
                          [(str(i), u.raw_patches) for i, u in enumerate(self)])
            self._missed = None


def _features_key(wavs) -> str:
    """SHA-256 of the front end's signature, then of each WAV's length and
    bytes, `wavs` in manifest order."""
    digest = hashlib.sha256(" ".join(f"{name}={getattr(features, name)}"
                                     for name in _FRONT_END).encode("utf-8"))
    for data in wavs:
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def _load_features(path, count) -> _StoredFeatures:
    """The `count` patch arrays and the key of a features file."""
    return read_tensors(path, _FEATURES_MAGIC, [str(i) for i in range(count)],
                        lambda lines, arrays: _StoredFeatures(arrays, header_field(lines, "key")))


def load_corpus(manifest_path, cache_dir=None) -> Corpus:
    """Read every utterance of a manifest into memory as patch sequences; a
    WAV or clip that does not read, or that the front end rejects, fails with
    one line naming its file.

    With a `cache_dir`, the audio patches come from the features file
    `<cache_dir>/features/<key>.bin` while it reads and holds its key, the
    SHA-256 of the front end's constants and of the WAVs' bytes; otherwise
    they are computed, and `Corpus.store_features` writes the file."""
    entries = load_manifest(manifest_path)
    if not entries:
        raise ValueError(f"manifest is empty: {manifest_path}")
    wavs = [wav_path.read_bytes() for wav_path, _, _ in entries]
    stored = missed = None
    if cache_dir is not None:
        key = _features_key(wavs)
        path = Path(cache_dir) / "features" / f"{key}.bin"
        stored = _stored(lambda p: _load_features(p, len(entries)), path, key)
        if stored is None:
            missed = (path, key)
    utts = []
    for i, (wav_path, clip_path, labels) in enumerate(entries):
        if stored is not None:
            patches = stored.patches[i]
        else:
            patches = _extract(wav_path, lambda: stack_frames(compute_lfbe(decode_wav(wavs[i]))))
        wavs[i] = None  # the load holds each WAV's bytes only until they are decoded
        video_patches = video_grid = None
        if clip_path is not None:
            video_patches, video_grid = _extract(
                clip_path, lambda: extract_video_patches(read_raw_array(clip_path)))
        utts.append(LoadedUtterance(
            name=wav_path.stem,
            label_names=labels,
            label_ids=labels_to_ids(labels),
            raw_patches=patches,
            video_patches=video_patches,
            video_grid=video_grid,
        ))
    return Corpus(utts, missed)


# whitener persistence -------------------------------------------------------


_WHITENER_MAGIC = "envasr-whitener 1"


def save_whitener(path, whitener: Whitener) -> None:
    """Header line ``key``, arrays ``mean`` and ``std``."""
    write_tensors(path, _WHITENER_MAGIC, [f"key {whitener.key}"],
                  [("mean", whitener.mean), ("std", whitener.std)])


def load_whitener(path) -> Whitener:
    return read_tensors(path, _WHITENER_MAGIC, ("mean", "std"),
                        lambda lines, arrays: Whitener(*arrays, key=header_field(lines, "key")))


def _stored(load, path, key):
    """`load(path)`, or None when the file is missing, unreadable or holds
    another key than `key`."""
    try:
        stored = load(path)
    except (FileNotFoundError, ValueError):
        return None
    return stored if stored.key == key else None


def ensure_whitener(codebook_dir, utts) -> Whitener:
    """The whitener of these utterances, keyed by the SHA-256 of their patch
    bytes: the stored one while it holds that key, else a refit, which
    replaces it."""
    digest = hashlib.sha256()
    for u in utts:
        digest.update(u.raw_patches)
    key = digest.hexdigest()
    path = Path(codebook_dir) / "whitener.bin"
    whitener = _stored(load_whitener, path, key)
    if whitener is None:
        whitener = fit_whitener(np.concatenate([u.raw_patches for u in utts], axis=0))
        whitener.key = key
        path.parent.mkdir(parents=True, exist_ok=True)
        save_whitener(path, whitener)
    return whitener


# codebooks -------------------------------------------------------------------


def ensure_codebooks(cfg, utts, audio, whitener_key: str):
    """The audio codebook of the corpus `utts`, whose audio patches whitened
    by the whitener keyed `whitener_key` are `audio` (one array per
    utterance), and its video codebook, or None when no utterance has a clip:
    such a corpus needs no video.cb. Each file is keyed by what it is fitted
    from, the tokenize config and the seed: audio.cb by the SHA-256 of those
    and the whitener key, video.cb by the SHA-256 of those and of the video
    patch bytes. A stored file is used while it holds its key; any other is
    refitted on (a capped sample of) the modality's patch rows and replaced.
    A modality with fewer patch rows than its codebook size fails before
    k-means runs."""
    tok = cfg.tokenize
    config = f"{tok!r} seed={cfg.seed}"
    video = [u.video_patches for u in utts if u.video_patches is not None]
    # modality -> (patch rows per utterance, codebook size, vocab offset, key)
    fits = {"audio": (audio, tok.k_audio, 0, _sha256(f"{whitener_key} {config}"))}
    if video:
        digest = hashlib.sha256()
        for part in video:
            digest.update(part)
        fits["video"] = (video, tok.k_video, tok.k_audio,
                         _sha256(f"video {digest.hexdigest()} {config}"))
    cb_dir = cfg.codebook_path()
    codebooks = {modality: _stored(load_codebook, cb_dir / f"{modality}.cb", fit[3])
                 for modality, fit in fits.items()}
    stale = [modality for modality, cb in codebooks.items() if cb is None]
    for modality in stale:
        parts, k = fits[modality][:2]
        n = sum(part.shape[0] for part in parts)
        if n < k:
            raise ValueError(f"corpus has {n} {modality} patch rows, "
                             f"fewer than tokenize.k_{modality} = {k}")
    for modality in stale:
        parts, k, offset, key = fits[modality]
        rows = sample_rows(parts, tok.sample_cap, substream(cfg.seed, f"sample-{modality}"))
        cb = train_kmeans(rows, k, max_iters=tok.max_iters,
                          seed=derive_seed(cfg.seed, f"kmeans-{modality}"),
                          modality=modality, vocab_offset=offset)
        cb.key = key
        cb_dir.mkdir(parents=True, exist_ok=True)
        save_codebook(cb_dir / f"{modality}.cb", cb)
        codebooks[modality] = cb
    return codebooks["audio"], codebooks.get("video")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# batches and caches -----------------------------------------------------------


def make_pretrain_batch(utt: LoadedUtterance, audio: np.ndarray,
                        cb_audio: Codebook, cb_video: Codebook) -> MultimodalBatch:
    """Inputs and quantized labels of `utt`, whose whitened audio patches are
    `audio`; video tokens first to match the layout."""
    audio_ids = assign_tokens(cb_audio, audio)
    if utt.video_patches is not None:
        video_ids = assign_tokens(cb_video, utt.video_patches)
        labels = np.concatenate([video_ids, audio_ids])
    else:
        labels = audio_ids
    return MultimodalBatch(audio_patches=audio, video_patches=utt.video_patches,
                           video_grid=utt.video_grid, labels=labels)


def cached_env_embeddings(cache_dir, utt_name: str, model: EnvEncoder,
                          audio_patches: np.ndarray, model_hash: str) -> np.ndarray:
    """The float32 env embeddings of `audio_patches`, from the extract-once
    cache entry `<utt_name>.env`, an array file reused only while it reads
    and its key holds `model_hash` (the env model's `parameter_hash`) and the
    hash of these patch bytes; otherwise it is rewritten."""
    path = Path(cache_dir) / f"{utt_name}.env"
    key = f"{model_hash} {hashlib.sha256(np.ascontiguousarray(audio_patches)).hexdigest()}"
    entry = _stored(read_array, path, key)
    if entry is not None:
        return entry.array
    vectors = extract_env_embeddings(model, audio_patches).astype(np.float32)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_array(path, vectors, key)
    return vectors
