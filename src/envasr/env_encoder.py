"""Multimodal masked-prediction encoder producing environment embeddings.

Raw audio/video patches are projected to the model dimension by per-modality
stems (a bias-free linear map matching the patch size, then instance
normalization over the sequence, which would cancel a bias), tagged with
modality and position embeddings, concatenated (video block first, then
audio), and encoded by a stack of pre-norm transformer blocks with
unrestricted attention, whose key projections have no bias either (the
softmax cancels it), and a GELU feed-forward layer 4 x model_dim wide. A
single linear head over the unified audio+video token vocabulary scores
masked positions.

Masked positions have their embedded vector replaced by a learned
per-modality mask embedding; the loss is cross-entropy at masked positions
only. Once pretrained, the final block output over an audio-only sequence,
a plain (T, model_dim) array from `extract_env_embeddings`, is the frozen
embedding sequence consumed by the ASR stage.

A training step packs its utterances rather than padding them. Each
modality's patches of every utterance go through its stem at once: one
matmul, then one instance norm that takes statistics per utterance. Mask
replacement and position/modality embeddings follow once per modality, and
one row gather interleaves the two modality blocks into the packed order,
each utterance's video rows then its audio rows, as one (sum of lengths,
model_dim) sequence. Every later op but attention is row-wise, so the
encoder stack, final norm and head run once over the packed rows, and
attention takes the utterance lengths and attends within each utterance
only. The loss is the mean over utterances of each one's masked
cross-entropy, as if each had its own graph.

The loss reads only the masked rows, so the training step's last block
computes only those: its keys and values still come from every row of each
utterance, but its queries, residual, feed-forward layer, the final norm,
the head and the cross-entropy run on the masked rows alone, gathered once
from the block's input and its normed input. Every op after the attention
is row-wise, and attention computes each query row from that row and all of
its utterance's keys and values, so those rows are exactly what the
all-rows graph computes, and the rows left out had gradient zero. Only the
rounding moves: a weight gradient's sum over rows now has fewer terms, so
BLAS groups it differently. At a mask rate of about 0.16, the first
curriculum stage's, that skips most of the last block. `masked_accuracy`
shares that pass, `masked_logits`; only extraction runs every row.
"""

import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .features import AUDIO_PATCH_DIM, VIDEO_PATCH_DIM
from .masking import MaskSchedule, mask_params_at, sample_segmented_mask
from .optim import AdamHyper, ParameterSet, init_param, minimize_mean
from .rng import substream

AUDIO, VIDEO = 0, 1  # modality table rows


@dataclass
class EnvEncoderConfig:
    model_dim: int = 32
    num_blocks: int = 2
    heads: int = 4
    vocab_size: int = 24
    audio_patch_dim: int = AUDIO_PATCH_DIM
    video_patch_dim: int = VIDEO_PATCH_DIM
    max_audio_positions: int = 512
    max_video_steps: int = 64
    max_grid_rows: int = 16
    max_grid_cols: int = 16
    dtype: str = "f64"
    schedule: MaskSchedule = field(default_factory=MaskSchedule)

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be at least 1")
        if self.dtype not in ("f32", "f64"):
            raise ValueError("dtype must be f32 or f64")


@dataclass
class MultimodalBatch:
    """One training example: video patches (optional) followed by audio.

    `labels` holds one quantized token id per patch in sequence order
    (video block first). `mask` marks the positions hidden from the model.
    """

    audio_patches: np.ndarray
    video_patches: np.ndarray | None = None
    video_grid: tuple | None = None
    labels: np.ndarray | None = None
    mask: np.ndarray | None = None

    @property
    def seq_len(self) -> int:
        n_v = 0 if self.video_patches is None else self.video_patches.shape[0]
        return n_v + self.audio_patches.shape[0]

    @property
    def segment_lengths(self) -> list:
        segs = []
        if self.video_patches is not None:
            segs.append(self.video_patches.shape[0])
        segs.append(self.audio_patches.shape[0])
        return segs


@dataclass
class PackedBatch:
    """A step's utterances, each with labels and mask, packed end to end."""

    items: list

    @property
    def lengths(self) -> list:
        return [b.seq_len for b in self.items]

    @property
    def seq_len(self) -> int:
        return sum(self.lengths)


class EnvEncoder:
    """The pretraining model. All parameters live in a ParameterSet."""

    def __init__(self, config: EnvEncoderConfig, seed: int | None = 0):
        """Parameters drawn from `seed`'s init substream; with seed None, all
        zeros, a layout for `restore_params` to fill."""
        self.config = config
        self.np_dtype = np.float32 if config.dtype == "f32" else np.float64
        rng = None if seed is None else substream(seed, "env-init")
        d = config.model_dim
        arrays = {}
        add = partial(init_param, arrays, dtype=self.np_dtype)
        add(rng, "stem.audio.w", (config.audio_patch_dim, d))
        add(rng, "stem.audio.norm.g", (d,), one=True)
        add(rng, "stem.audio.norm.b", (d,), zero=True)
        add(rng, "stem.video.w", (config.video_patch_dim, d))
        add(rng, "stem.video.norm.g", (d,), one=True)
        add(rng, "stem.video.norm.b", (d,), zero=True)
        add(rng, "embed.modality", (2, d), table=True)
        add(rng, "embed.mask", (2, d), table=True)
        add(rng, "embed.audio_pos", (config.max_audio_positions, d), table=True)
        add(rng, "embed.video_time", (config.max_video_steps, d), table=True)
        add(rng, "embed.video_space", (config.max_grid_rows * config.max_grid_cols, d),
            table=True)
        for i in range(config.num_blocks):
            pre = f"block{i}"
            add(rng, f"{pre}.attn.norm.g", (d,), one=True)
            add(rng, f"{pre}.attn.norm.b", (d,), zero=True)
            for mat in ("q", "k", "v", "o"):
                add(rng, f"{pre}.attn.w{mat}", (d, d))
                if mat != "k":
                    add(rng, f"{pre}.attn.b{mat}", (d,), zero=True)
            add(rng, f"{pre}.ff.norm.g", (d,), one=True)
            add(rng, f"{pre}.ff.norm.b", (d,), zero=True)
            add(rng, f"{pre}.ff.w1", (d, 4 * d))
            add(rng, f"{pre}.ff.b1", (4 * d,), zero=True)
            add(rng, f"{pre}.ff.w2", (4 * d, d))
            add(rng, f"{pre}.ff.b2", (d,), zero=True)
        add(rng, "final_norm.g", (d,), one=True)
        add(rng, "final_norm.b", (d,), zero=True)
        # small head init keeps fresh-model predictions near uniform
        add(rng, "head.w", (d, config.vocab_size), table=True)
        add(rng, "head.b", (config.vocab_size,), zero=True)
        self.params = ParameterSet(arrays)

    def _const(self, arr) -> Tensor:
        return Tensor(np.asarray(arr, dtype=self.np_dtype))

    def _stem(self, patches: list, modality: str) -> Tensor:
        """One modality's patches of every utterance through its stem: one
        matmul, then an instance norm per utterance over its rows."""
        p = self.params
        h = ad.matmul(self._const(np.concatenate(patches)), p[f"stem.{modality}.w"])
        return ad.instance_norm(h, p[f"stem.{modality}.norm.g"], p[f"stem.{modality}.norm.b"],
                                [x.shape[0] for x in patches])

    def _mask_content(self, content: Tensor, flags: np.ndarray, modality: int) -> Tensor:
        """Swap masked rows of the projected content for the modality's mask
        embedding. Position and modality embeddings are added afterwards, so
        masked slots keep their identity."""
        if not flags.any():
            return content
        fill = ad.narrow(self.params["embed.mask"], 0, modality, 1)
        col = flags.astype(self.np_dtype)[:, None]
        return ad.add(ad.mul(content, self._const(1.0 - col)),
                      ad.mul(fill, self._const(col)))

    def embed(self, items) -> Tensor:
        """Patch projection + mask replacement (of the rows each item's `mask`
        flags; None masks none) + modality/position embeddings of every
        utterance in `items`, packed end to end (each one's video
        block, if any, then its audio block). Each modality runs once over all
        utterances; one row gather then restores the packed order."""
        cfg = self.config
        p = self.params
        patches = {"video": [], "audio": []}
        positions = {"embed.video_time": [], "embed.video_space": [], "embed.audio_pos": []}
        flags, from_video = [], []
        for b in items:
            n_v = 0 if b.video_patches is None else b.video_patches.shape[0]
            n_a = b.audio_patches.shape[0]
            if b.mask is not None:
                flags.append(np.asarray(b.mask, dtype=bool))
                if flags[-1].shape[0] != b.seq_len:
                    raise ValueError("mask length does not match sequence length")
            else:
                flags.append(np.zeros(b.seq_len, dtype=bool))
            if b.video_patches is not None:
                if b.video_patches.shape[1] != cfg.video_patch_dim:
                    raise ValueError("video patch dimension does not match config")
                if b.video_grid is None:
                    raise ValueError("video patches need their (time, rows, cols) grid")
                t, r, c = b.video_grid
                if t * r * c != n_v:
                    raise ValueError("video grid does not match patch count")
                if t > cfg.max_video_steps or r > cfg.max_grid_rows or c > cfg.max_grid_cols:
                    raise ValueError("video grid exceeds configured position tables")
                patches["video"].append(b.video_patches)
                positions["embed.video_time"].append(np.repeat(np.arange(t), r * c))
                positions["embed.video_space"].append(
                    np.tile(np.arange(r)[:, None] * cfg.max_grid_cols + np.arange(c)[None, :],
                            (t, 1, 1)).reshape(-1))
            if b.audio_patches.shape[1] != cfg.audio_patch_dim:
                raise ValueError("audio patch dimension does not match config")
            if n_a > cfg.max_audio_positions:
                raise ValueError("audio sequence exceeds configured position table")
            patches["audio"].append(b.audio_patches)
            positions["embed.audio_pos"].append(np.arange(n_a))
            from_video.append(np.arange(b.seq_len) < n_v)
        flags, from_video = np.concatenate(flags), np.concatenate(from_video)

        def block(kind, modality, rows, tables):
            h = self._stem(patches[kind], kind)
            h = self._mask_content(h, flags[rows], modality)
            h = ad.add(h, ad.narrow(p["embed.modality"], 0, modality, 1))
            for name in tables:
                h = ad.add(h, ad.embedding(p[name], np.concatenate(positions[name])))
            return h

        h = block("audio", AUDIO, ~from_video, ["embed.audio_pos"])
        if not from_video.any():
            return h
        h = ad.concat([block("video", VIDEO, from_video,
                             ["embed.video_time", "embed.video_space"]), h], axis=0)
        # packed row -> row of the stacked [all video; all audio] blocks
        n_v = int(from_video.sum())
        order = np.where(from_video, np.cumsum(from_video) - 1, n_v + np.cumsum(~from_video) - 1)
        return h if np.array_equal(order, np.arange(order.size)) else ad.embedding(h, order)

    def _block(self, i: int, x: Tensor, lengths=None, rows=None, row_lengths=None) -> Tensor:
        """Pre-norm transformer block `i` over the rows `x`; every row attends
        to every row of its segment (`lengths`, as in `ad.attention`). With
        `rows`, only those rows come out, `row_lengths` of them per segment:
        keys and values still come from every row, while the queries, the
        residual and the feed-forward layer see only the selected rows."""
        p = self.params
        pre = f"block{i}"
        h = ad.layer_norm(x, p[f"{pre}.attn.norm.g"], p[f"{pre}.attn.norm.b"])
        queries = h
        if rows is not None:
            x, queries = ad.embedding(x, rows), ad.embedding(h, rows)
        x = ad.add(x, ad.mha(p, f"{pre}.attn", queries, h, self.config.heads,
                             lengths if rows is None else row_lengths, lengths))
        h = ad.layer_norm(x, p[f"{pre}.ff.norm.g"], p[f"{pre}.ff.norm.b"])
        h = ad.gelu(ad.matmul(h, p[f"{pre}.ff.w1"], p[f"{pre}.ff.b1"]))
        return ad.add(x, ad.matmul(h, p[f"{pre}.ff.w2"], p[f"{pre}.ff.b2"]))

    def _final_norm(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.params["final_norm.g"], self.params["final_norm.b"])

    def encoder_forward(self, embedded: Tensor, lengths=None) -> Tensor:
        """Pre-norm transformer stack over every row, then the final norm, as
        extraction runs it; every row attends to every row of its segment
        (`lengths`, as in `ad.attention`)."""
        x = embedded
        for i in range(self.config.num_blocks):
            x = self._block(i, x, lengths)
        return self._final_norm(x)

    def mlm_logits(self, encoded: Tensor) -> Tensor:
        return ad.matmul(encoded, self.params["head.w"], self.params["head.b"])

    def masked_logits(self, packed: PackedBatch):
        """(head logits at the masked rows of `packed`'s utterances, in packed
        order, those rows' labels, masked rows per utterance), from one packed
        forward pass whose last block computes only the masked rows."""
        x = self.embed(packed.items)
        masks = [np.asarray(b.mask, dtype=bool).reshape(-1) for b in packed.items]
        counts = [int(m.sum()) for m in masks]
        if 0 in counts:
            raise ValueError(f"forward_loss: utterance {counts.index(0)} of {len(counts)} "
                             f"has no masked position")
        rows = np.flatnonzero(np.concatenate(masks))
        labels = np.concatenate([b.labels for b in packed.items])
        if labels.shape != (packed.seq_len,):
            raise ValueError("labels do not match the sequence length")
        last = self.config.num_blocks - 1
        for i in range(last):
            x = self._block(i, x, packed.lengths)
        x = self._block(last, x, packed.lengths, rows, counts)
        return self.mlm_logits(self._final_norm(x)), labels[rows], counts

    def forward_loss(self, batch: MultimodalBatch | PackedBatch) -> Tensor:
        """The mean over the batch's utterances of each one's cross-entropy
        over the unified vocabulary at its masked positions."""
        packed = batch if isinstance(batch, PackedBatch) else PackedBatch([batch])
        logits, labels, counts = self.masked_logits(packed)
        return ad.cross_entropy(logits, labels, lengths=counts)


def draw_batch_mask(batch: MultimodalBatch, width: int, prob: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Sample a non-empty segment-respecting mask (redraws the rare empty one)."""
    while True:
        mask, _ = sample_segmented_mask(batch.segment_lengths, width, prob, rng)
        if mask.any():
            return mask


def pretrain_step(model: EnvEncoder, batches: list, hyper: AdamHyper, step: int,
                  seed: int = 0):
    """One optimization step over a list of batches: masks are drawn in batch
    order, then one packed forward and backward. Returns (loss, ppl)."""
    width, prob = mask_params_at(model.config.schedule, step)
    rng = substream(seed, "mask", step)
    packed = PackedBatch([replace(b, mask=draw_batch_mask(b, width, prob, rng))
                          for b in batches])
    loss = minimize_mean(model.params, [model.forward_loss(packed)], hyper)
    return loss, math.exp(loss)


def extract_env_embeddings(model: EnvEncoder, audio_patches: np.ndarray) -> np.ndarray:
    """The (T, model_dim) env embeddings of (T, patch_dim) whitened audio
    patches: a frozen audio-only forward pass (no video positions, no
    gradients)."""
    audio_patches = np.asarray(audio_patches)
    if audio_patches.ndim != 2 or audio_patches.shape[0] == 0:
        raise ValueError("need a non-empty (T, patch_dim) audio sequence")
    batch = MultimodalBatch(audio_patches=audio_patches)
    with ad.no_grad():
        encoded = model.encoder_forward(model.embed([batch]))
    return encoded.data.copy()


def masked_accuracy(model: EnvEncoder, batches, seed: int = 0) -> float:
    """Fraction of masked tokens predicted correctly under fixed eval masks
    of span width 1 and probability 0.3 (utterance i's drawn from
    `substream(seed, "eval-mask", i)`), from one packed no-grad
    `masked_logits` pass over all utterances."""
    masked = PackedBatch([replace(b, mask=draw_batch_mask(b, 1, 0.3,
                                                          substream(seed, "eval-mask", i)))
                          for i, b in enumerate(batches)])
    with ad.no_grad():
        logits, labels, _ = model.masked_logits(masked)
    return int((logits.data.argmax(axis=1) == labels).sum()) / labels.size


def parameter_hash(params: ParameterSet) -> str:
    """SHA-256 over all parameter bytes in name order (freeze checks)."""
    digest = hashlib.sha256()
    for name, p in params.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()
