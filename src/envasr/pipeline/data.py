"""Shared data plumbing between the runners: feature extraction, whitener and
codebook persistence, batch assembly, and the on-disk environment-embedding
cache."""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..env_encoder import EnvEncoder, MultimodalBatch, extract_env_embeddings
from ..features import (Whitener, compute_lfbe, extract_video_patches, fit_whitener,
                        read_wav, stack_frames)
from ..quantize import (Codebook, assign_tokens, load_codebook, sample_rows, save_codebook,
                        train_kmeans)
from ..rng import derive_seed, substream
from ..serialize import (header_field, read_array, read_raw_array, read_tensors, write_array,
                         write_tensors)
from .corpus import labels_to_ids, load_manifest


@dataclass
class LoadedUtterance:
    name: str
    label_names: list
    label_ids: np.ndarray
    raw_patches: np.ndarray             # unwhitened (T, 192)
    video_patches: np.ndarray | None
    video_grid: tuple | None


def _extract(path, read, features):
    """`features(read(path))`, any ValueError of which is re-raised as one
    line naming `path`."""
    try:
        return features(read(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_corpus(manifest_path) -> list:
    """Read every utterance of a manifest into memory as patch sequences; a
    WAV or clip that does not read, or that the front end rejects, fails with
    one line naming its file."""
    utts = []
    for wav_path, clip_path, labels in load_manifest(manifest_path):
        patches = _extract(wav_path, read_wav, lambda x: stack_frames(compute_lfbe(x)))
        video_patches = video_grid = None
        if clip_path is not None:
            video_patches, video_grid = _extract(clip_path, read_raw_array,
                                                 extract_video_patches)
        utts.append(LoadedUtterance(
            name=wav_path.stem,
            label_names=labels,
            label_ids=labels_to_ids(labels),
            raw_patches=patches,
            video_patches=video_patches,
            video_grid=video_grid,
        ))
    if not utts:
        raise ValueError(f"manifest is empty: {manifest_path}")
    return utts


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
