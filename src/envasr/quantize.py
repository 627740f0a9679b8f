"""Per-modality k-means codebooks and the unified discrete vocabulary.

Audio and video patches are quantized by separate codebooks whose id ranges
are disjoint and contiguous: audio ids start at 0, video ids at K_audio.
Training is Lloyd's algorithm with k-means++ seeding; empty clusters are
re-seeded to the point currently farthest from its assigned center. Each
row's squared norm is computed once per fit and reused by every distance
pass of the seeding and the Lloyd iterations; `assign_tokens` computes them
once per call.
"""

from dataclasses import dataclass

import numpy as np

from .rng import substream
from .serialize import header_field, read_tensors, write_tensors

MODALITIES = ("audio", "video")
_MAGIC = "envasr-codebook 1"


@dataclass
class Codebook:
    centers: np.ndarray          # (K, D)
    modality: str
    vocab_offset: int
    key: str = ""                # what it was trained from; see pipeline.data

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[0] < 1:
            raise ValueError("codebook centers must be a (K, D) matrix with K >= 1")
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("codebook centers must be finite")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.vocab_offset < 0:
            raise ValueError("vocab_offset must be non-negative")
        if self.modality == "audio" and self.vocab_offset != 0:
            raise ValueError("audio codebook must sit at vocab offset 0")

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def _squared_distances(x: np.ndarray, x_norms: np.ndarray,
                       centers: np.ndarray) -> np.ndarray:
    """(N, K) squared Euclidean distances of the rows `x`, whose squared
    norms are `x_norms`, to `centers`, clamped at zero."""
    d2 = (
        x_norms[:, None]
        - 2.0 * (x @ centers.T)
        + (centers * centers).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(x: np.ndarray, x_norms: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    best = _squared_distances(x, x_norms, centers[:1]).ravel()
    for j in range(1, k):
        total = best.sum()
        if total <= 0.0:
            pick = rng.integers(n)
        else:
            pick = rng.choice(n, p=best / total)
        centers[j] = x[pick]
        best = np.minimum(best, _squared_distances(x, x_norms, centers[j : j + 1]).ravel())
    return centers


def lloyd(x: np.ndarray, k: int, max_iters: int, rng: np.random.Generator):
    """Lloyd iterations. Returns (centers, assignments, distortion trace).

    The trace starts at the distortion of the k-means++ initialization and
    appends one value per iteration; it is non-increasing.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < k:
        raise ValueError(f"k-means needs at least k={k} vectors, got {n}")
    x_norms = (x * x).sum(axis=1)
    centers = _kmeans_pp_init(x, x_norms, k, rng)
    d2 = _squared_distances(x, x_norms, centers)
    assign = d2.argmin(axis=1)
    trace = [float(d2[np.arange(n), assign].mean())]
    for _ in range(max_iters):
        current = d2[np.arange(n), assign].copy()
        for j in range(k):
            members = assign == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
            else:
                # re-seed the empty cluster to the farthest point
                far = int(current.argmax())
                centers[j] = x[far]
                current[far] = 0.0
        d2 = _squared_distances(x, x_norms, centers)
        new_assign = d2.argmin(axis=1)
        trace.append(float(d2[np.arange(n), new_assign].mean()))
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
    return centers, assign, trace


def train_kmeans(vectors: np.ndarray, k: int, max_iters: int = 50, seed: int = 0,
                 modality: str = "audio", vocab_offset: int = 0) -> Codebook:
    rng = substream(seed, f"kmeans-{modality}")
    centers, _, _ = lloyd(np.asarray(vectors, dtype=np.float64), k, max_iters, rng)
    return Codebook(centers, modality, vocab_offset)


def assign_tokens(cb: Codebook, vectors: np.ndarray) -> np.ndarray:
    """The unified-vocabulary id of each vector: its nearest center by
    squared Euclidean distance, ties picking the lowest id."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cb.dim:
        raise ValueError(f"expected (N, {cb.dim}) vectors, got {x.shape}")
    d2 = _squared_distances(x, (x * x).sum(axis=1), cb.centers)
    return d2.argmin(axis=1) + cb.vocab_offset


def sample_rows(parts, cap: int, rng: np.random.Generator) -> np.ndarray:
    """A new float64 array of at most `cap` of the n rows of the (n_i, d)
    arrays `parts`, concatenated: all of them when n <= cap (drawing nothing
    from `rng`), else `cap` distinct rows drawn uniformly, kept in their input
    order."""
    rows = np.concatenate(parts, axis=0, dtype=np.float64)
    if rows.shape[0] == 0:
        raise ValueError("no vectors to sample")
    if rows.shape[0] > cap:
        rows = rows[np.sort(rng.choice(rows.shape[0], cap, replace=False))]
    return rows


def save_codebook(path, cb: Codebook) -> None:
    """Header lines ``modality``, ``vocab_offset`` and ``key``, array ``centers``."""
    header = [f"modality {cb.modality}", f"vocab_offset {cb.vocab_offset}", f"key {cb.key}"]
    write_tensors(path, _MAGIC, header, [("centers", cb.centers)])


def load_codebook(path) -> Codebook:
    def parse(lines, arrays):
        modality = header_field(lines, "modality")
        offset = int(header_field(lines, "vocab_offset"))
        return Codebook(*arrays, modality, offset, key=header_field(lines, "key"))

    return read_tensors(path, _MAGIC, ("centers",), parse)
