"""Conformer transducer encoder with deep-fusion attention over frozen
environment embeddings.

Each block runs: half-step feed-forward, self-attention, a fusion sublayer,
the convolution module (pointwise-GLU, depthwise conv, instance norm, swish,
pointwise), a second half-step feed-forward, and a final layer norm, with
residual connections throughout. Neither the attention key projections nor
the depthwise conv has a bias: the softmax over keys and the instance norm
after the conv would cancel it. The fusion sublayer either cross-attends to
the projected environment embeddings or, in the parity baseline, runs plain
self-attention with identically shaped weights, so the two variants have
exactly the same parameter count. The environment embeddings themselves are
constants: gradients stop at the shared env adapter, which the baseline keeps
(unused and frozen) only for that count.

A batch is packed rather than padded. Each utterance is SpecAugmented and
subsampled alone (the strided conv's windows must not cross utterances),
and one concat joins the subsampled rows. Every block then runs once over
the packed rows: feed-forward and pointwise layers are row-wise; the
attention, the depthwise conv, the conv module's instance norm and the
fusion cross-attention (whose keys are the packed env rows, segmented by
their own lengths) take the segment lengths and act within each utterance.
The prediction network runs once over all label sequences, restarting its
recurrence at each. The joint network and the RNN-T lattice differ in shape
per utterance, so they run on `narrow` slices of the packed rows, and the
step's loss is the mean of the per-utterance losses. A batch of one makes no
concat or narrow, so it builds the per-utterance graph exactly.
"""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..features import AUDIO_PATCH_DIM
from ..optim import AdamHyper, ParameterSet, init_param, minimize_mean
from ..rng import substream
from .augment import SpecAugmentPolicy, specaugment

CROSS = "cross_attention"
BASELINE = "self_attention_baseline"
SUBSAMPLE_KERNEL = 3   # feature patches per window of the subsampling conv
SUBSAMPLE_STRIDE = 2


@dataclass
class ConformerConfig:
    model_dim: int = 64
    num_blocks: int = 2
    heads: int = 4
    conv_kernel: int = 7
    fusion_mode: str = CROSS
    env_dim: int = 32
    feature_dim: int = AUDIO_PATCH_DIM
    vocab_size: int = 8          # label symbols; blank is appended internally
    dtype: str = "f64"

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")
        if self.fusion_mode not in (CROSS, BASELINE):
            raise ValueError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.conv_kernel % 2 == 0:
            raise ValueError("conv_kernel must be odd")
        if self.dtype not in ("f32", "f64"):
            raise ValueError("dtype must be f32 or f64")


def subsample_length(t: int) -> int:
    if t < SUBSAMPLE_KERNEL:
        raise ValueError(f"need at least {SUBSAMPLE_KERNEL} frames to subsample, got {t}")
    return (t - SUBSAMPLE_KERNEL) // SUBSAMPLE_STRIDE + 1


@dataclass
class Utterance:
    """One ASR example: whitened feature patches, label ids, and (for the
    fusion model) the frozen (L, env_dim) environment embeddings."""

    features: np.ndarray
    labels: np.ndarray
    env: np.ndarray | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)


class AsrModel:
    """Conformer transducer: subsampling stem (a conv over
    `SUBSAMPLE_KERNEL` feature patches at stride `SUBSAMPLE_STRIDE`), fusion
    blocks, prediction network, and joint network, all `model_dim` wide.
    Blank id is `vocab_size` (last logit)."""

    def __init__(self, config: ConformerConfig, seed: int | None = 0):
        """Parameters drawn from `seed`'s init substream; with seed None, all
        zeros, a layout for `restore_params` to fill."""
        self.config = config
        self.np_dtype = np.float32 if config.dtype == "f32" else np.float64
        self.blank_id = config.vocab_size
        rng = None if seed is None else substream(seed, "asr-init")
        d = config.model_dim
        arrays = {}
        add = partial(init_param, arrays, dtype=self.np_dtype)
        add(rng, "subsample.w", (SUBSAMPLE_KERNEL, config.feature_dim, d))
        add(rng, "subsample.b", (d,), zero=True)
        add(rng, "env_adapter.w", (config.env_dim, d))
        add(rng, "env_adapter.b", (d,), zero=True)
        for i in range(config.num_blocks):
            pre = f"block{i}"
            for ff in ("ff1", "ff2"):
                add(rng, f"{pre}.{ff}.norm.g", (d,), one=True)
                add(rng, f"{pre}.{ff}.norm.b", (d,), zero=True)
                add(rng, f"{pre}.{ff}.w1", (d, 4 * d))
                add(rng, f"{pre}.{ff}.b1", (4 * d,), zero=True)
                add(rng, f"{pre}.{ff}.w2", (4 * d, d))
                add(rng, f"{pre}.{ff}.b2", (d,), zero=True)
            for sub in ("attn", "fusion"):
                add(rng, f"{pre}.{sub}.norm.g", (d,), one=True)
                add(rng, f"{pre}.{sub}.norm.b", (d,), zero=True)
                for mat in ("q", "k", "v", "o"):
                    add(rng, f"{pre}.{sub}.w{mat}", (d, d))
                    if mat != "k":
                        add(rng, f"{pre}.{sub}.b{mat}", (d,), zero=True)
            add(rng, f"{pre}.conv.norm.g", (d,), one=True)
            add(rng, f"{pre}.conv.norm.b", (d,), zero=True)
            add(rng, f"{pre}.conv.pw1.w", (d, 2 * d))
            add(rng, f"{pre}.conv.pw1.b", (2 * d,), zero=True)
            add(rng, f"{pre}.conv.dw.w", (config.conv_kernel, d))
            add(rng, f"{pre}.conv.inorm.g", (d,), one=True)
            add(rng, f"{pre}.conv.inorm.b", (d,), zero=True)
            add(rng, f"{pre}.conv.pw2.w", (d, d))
            add(rng, f"{pre}.conv.pw2.b", (d,), zero=True)
            add(rng, f"{pre}.out_norm.g", (d,), one=True)
            add(rng, f"{pre}.out_norm.b", (d,), zero=True)
        v1 = config.vocab_size + 1
        add(rng, "pred.embed", (v1, d), table=True)  # row V = start
        add(rng, "pred.w_in", (d, d))
        add(rng, "pred.w_rec", (d, d))
        add(rng, "pred.b", (d,), zero=True)
        add(rng, "joint.w_enc", (d, d))
        add(rng, "joint.w_pred", (d, d))
        add(rng, "joint.b", (d,), zero=True)
        add(rng, "joint.w_out", (d, v1))
        add(rng, "joint.b_out", (v1,), zero=True)
        self.params = ParameterSet(arrays)
        if config.fusion_mode == BASELINE:
            for name in ("env_adapter.w", "env_adapter.b"):
                self.params[name].requires_grad = False

    def _const(self, arr) -> Tensor:
        return Tensor(np.asarray(arr, dtype=self.np_dtype))

    # encoder ---------------------------------------------------------------

    def subsample(self, features) -> Tensor:
        """Strided 1-D convolution projecting feature patches to model_dim."""
        x = features if isinstance(features, Tensor) else self._const(features)
        return ad.conv1d(x, self.params["subsample.w"], self.params["subsample.b"],
                         stride=SUBSAMPLE_STRIDE)

    def project_env(self, env: np.ndarray) -> Tensor:
        """Shared adapter env_dim -> model_dim; env itself stays frozen."""
        return ad.matmul(self._const(env), self.params["env_adapter.w"],
                         self.params["env_adapter.b"])

    def _ff(self, x: Tensor, prefix: str) -> Tensor:
        p = self.params
        h = ad.layer_norm(x, p[f"{prefix}.norm.g"], p[f"{prefix}.norm.b"])
        h = ad.swish(ad.matmul(h, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        return ad.matmul(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def _conv_module(self, x: Tensor, prefix: str, lengths=None) -> Tensor:
        p = self.params
        h = ad.layer_norm(x, p[f"{prefix}.norm.g"], p[f"{prefix}.norm.b"])
        h = ad.glu(ad.matmul(h, p[f"{prefix}.pw1.w"], p[f"{prefix}.pw1.b"]))
        h = ad.depthwise_conv1d(h, p[f"{prefix}.dw.w"], lengths)
        h = ad.swish(ad.instance_norm(h, p[f"{prefix}.inorm.g"], p[f"{prefix}.inorm.b"],
                                      lengths))
        return ad.matmul(h, p[f"{prefix}.pw2.w"], p[f"{prefix}.pw2.b"])

    def block(self, i: int, x: Tensor, env_proj: Tensor | None, lengths=None,
              env_lengths=None) -> Tensor:
        """Block `i` over rows `x`: with `lengths`, a packed batch of
        segments (as in `ad.attention`), whose fusion keys are `env_proj`'s
        segments of `env_lengths` rows."""
        p = self.params
        pre = f"block{i}"
        heads = self.config.heads
        x = ad.scaled_add(x, self._ff(x, f"{pre}.ff1"), 0.5)
        h = ad.layer_norm(x, p[f"{pre}.attn.norm.g"], p[f"{pre}.attn.norm.b"])
        x = ad.add(x, ad.mha(p, f"{pre}.attn", h, h, heads, lengths))
        h = ad.layer_norm(x, p[f"{pre}.fusion.norm.g"], p[f"{pre}.fusion.norm.b"])
        if self.config.fusion_mode == CROSS:
            fused = ad.mha(p, f"{pre}.fusion", h, env_proj, heads, lengths, env_lengths)
        else:
            fused = ad.mha(p, f"{pre}.fusion", h, h, heads, lengths)
        x = ad.add(x, fused)
        x = ad.add(x, self._conv_module(x, f"{pre}.conv", lengths))
        x = ad.scaled_add(x, self._ff(x, f"{pre}.ff2"), 0.5)
        return ad.layer_norm(x, p[f"{pre}.out_norm.g"], p[f"{pre}.out_norm.b"])

    def encoded_lengths(self, features) -> list:
        """Encoder rows of each utterance's (T, feature_dim) features."""
        return [subsample_length(f.shape[0]) for f in features]

    def encode(self, features, envs=None) -> Tensor:
        """Encoder rows of the utterances in `features`, packed end to end:
        (sum of `encoded_lengths`, model_dim). `envs` holds each one's env
        embeddings (None for the parity baseline). Each utterance is
        subsampled alone; the blocks run once over the packed rows."""
        cross = self.config.fusion_mode == CROSS
        if cross and (envs is None or any(e is None for e in envs)):
            raise ValueError("cross-attention model needs env embeddings")
        parts = [self.subsample(f) for f in features]
        x = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
        lengths = [part.data.shape[0] for part in parts]
        env_proj = env_lengths = None
        if cross:
            env_lengths = [e.shape[0] for e in envs]
            env_proj = self.project_env(np.concatenate(envs))
        for i in range(self.config.num_blocks):
            x = self.block(i, x, env_proj, lengths, env_lengths)
        return x

    # prediction and joint networks ------------------------------------------

    def predict_states(self, labels) -> Tensor:
        """Label-context states g_0..g_U of each label sequence in `labels`
        (g_0 from the start symbol), packed end to end: one embedding and
        input projection over all tokens, then the recurrence, restarting at
        each sequence."""
        p = self.params
        tokens = [np.concatenate([[self.blank_id], np.asarray(u, dtype=np.int64)])
                  for u in labels]
        x = ad.matmul(ad.embedding(p["pred.embed"], np.concatenate(tokens)), p["pred.w_in"],
                      p["pred.b"])
        return ad.rnn_tanh(x, p["pred.w_rec"], [t.size for t in tokens])

    def joint_log_probs(self, enc: Tensor, pred: Tensor) -> Tensor:
        """(T, U+1, V+1) log-probabilities from the tanh joint network."""
        p = self.params
        h = ad.joint_tanh(ad.matmul(enc, p["joint.w_enc"]),
                          ad.matmul(pred, p["joint.w_pred"]), p["joint.b"])
        logits = ad.matmul(h, p["joint.w_out"], p["joint.b_out"])
        return ad.log_softmax(ad.reshape(
            logits, (enc.data.shape[0], pred.data.shape[0], self.config.vocab_size + 1)))

    def losses(self, batch) -> list:
        """The transducer loss of each `Utterance` in `batch`, from one packed
        encoder and prediction-network pass; the joint and the lattice run
        per utterance on `narrow` slices of the packed rows."""
        from .transducer import rnnt_loss

        def rows(x, lo, n):  # a batch of one uses the whole tensor
            return x if n == x.data.shape[0] else ad.narrow(x, 0, lo, n)

        features = [u.features for u in batch]
        enc = self.encode(features, [u.env for u in batch])
        pred = self.predict_states([u.labels for u in batch])
        out = []
        t0 = u0 = 0
        for u, t in zip(batch, self.encoded_lengths(features)):
            u1 = u.labels.size + 1
            lattice = self.joint_log_probs(rows(enc, t0, t), rows(pred, u0, u1))
            out.append(rnnt_loss(lattice, u.labels))
            t0, u0 = t0 + t, u0 + u1
        return out

    # numpy fast paths used by greedy decoding --------------------------------

    def pred_start_np(self) -> np.ndarray:
        p = self.params
        return np.tanh(p["pred.embed"].data[self.blank_id] @ p["pred.w_in"].data
                       + p["pred.b"].data)

    def pred_step_np(self, state: np.ndarray, label: int) -> np.ndarray:
        p = self.params
        return np.tanh(p["pred.embed"].data[label] @ p["pred.w_in"].data
                       + state @ p["pred.w_rec"].data + p["pred.b"].data)

    def joint_enc_np(self, enc_t: np.ndarray) -> np.ndarray:
        return enc_t @ self.params["joint.w_enc"].data

    def joint_pred_np(self, state: np.ndarray) -> np.ndarray:
        return state @ self.params["joint.w_pred"].data

    def joint_logits_np(self, enc_proj: np.ndarray, pred_proj: np.ndarray) -> np.ndarray:
        """Joint logits from one frame's `joint_enc_np` and one state's
        `joint_pred_np` projection."""
        p = self.params
        h = np.tanh(enc_proj + pred_proj + p["joint.b"].data)
        return h @ p["joint.w_out"].data + p["joint.b_out"].data


def asr_step(model: AsrModel, examples: list, items: list, policy: SpecAugmentPolicy,
             hyper: AdamHyper, step: int, seed: int = 0) -> float:
    """One optimization step on `examples[i]` for i in `items`, each
    SpecAugmented from its own substream: one packed forward and backward of
    the mean loss, then Adam. Returns the mean loss."""
    batch = [replace(examples[i], features=specaugment(
        examples[i].features, policy, substream(seed, "specaug", step, i))) for i in items]
    return minimize_mean(model.params, model.losses(batch), hyper)


def build_models(config: ConformerConfig, seed: int = 0):
    """The fusion model and its parameter-parity baseline, sharing init."""
    fusion = AsrModel(replace(config, fusion_mode=CROSS), seed=seed)
    baseline = AsrModel(replace(config, fusion_mode=BASELINE), seed=seed)
    return fusion, baseline
