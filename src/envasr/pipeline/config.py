"""Run configuration: ``key = value`` lines with section prefixes.

The format is diff-friendly text: one ``section.key = value`` per line,
``#`` comments, blank lines allowed, a later line overriding an earlier one.
Each section is one dataclass whose fields are the section's keys:
``optimizer`` is `AdamHyper`, ``schedule`` is `MaskSchedule`, ``augment`` is
`SpecAugmentPolicy`, and ``paths``, ``tokenize``, ``pretrain`` and ``asr``
are defined below; unprefixed keys are `RunConfig`'s own fields. A field's
default is the key's default and its dataclass's ``__post_init__`` holds the
key's checks, so building a config checks it. Unknown keys are rejected.
Paper-scale settings ship as checked-in config files under ``configs/``.
"""

import os
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from ..asr.augment import SpecAugmentPolicy
from ..asr.conformer import BASELINE, CROSS, ConformerConfig
from ..env_encoder import EnvEncoderConfig
from ..masking import MaskSchedule
from ..optim import AdamHyper


def _require_positive(prefix: str, obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if value <= 0:
            raise ValueError(f"{prefix}{name} must be positive, got {value}")


def _require_heads_divide(prefix: str, obj) -> None:
    if obj.model_dim % obj.heads:
        raise ValueError(f"{prefix}heads = {obj.heads} does not divide "
                         f"{prefix}model_dim = {obj.model_dim}")


@dataclass
class PathsConfig:
    """Where a run reads and writes; an empty path means the default that
    `RunConfig`'s path methods give. ``data_dir`` must exist at load."""

    data_dir: str = ""
    out_dir: str = "runs"
    codebook_dir: str = ""
    pretrain_checkpoint: str = ""
    asr_checkpoint: str = ""
    train_manifest: str = ""
    eval_manifest: str = ""


@dataclass
class TokenizeConfig:
    """Codebook sizes and the k-means budget; each codebook is fitted on at
    most ``sample_cap`` patch rows, so the cap may not be below either size."""

    k_audio: int = 64
    k_video: int = 128
    max_iters: int = 25
    sample_cap: int = 200000

    def __post_init__(self):
        _require_positive("tokenize.", self, vars(self))
        for name in ("k_audio", "k_video"):
            k = getattr(self, name)
            if self.sample_cap < k:
                raise ValueError(f"tokenize.sample_cap = {self.sample_cap} is below "
                                 f"tokenize.{name} = {k}")


@dataclass
class PretrainConfig:
    """The environment encoder's shape; its vocabulary is the two codebooks
    and it trains in float32."""

    model_dim: int = 32
    num_blocks: int = 2
    heads: int = 4

    def __post_init__(self):
        _require_positive("pretrain.", self, vars(self))
        _require_heads_divide("pretrain.", self)


@dataclass
class AsrConfig:
    """The conformer transducer's shape and early-stop WER (negative: never);
    its fusion layers attend to `pretrain.model_dim`-wide embeddings."""

    model_dim: int = 64
    num_blocks: int = 2
    heads: int = 4
    conv_kernel: int = 7
    fusion_mode: str = CROSS
    dtype: str = "f32"
    early_stop_wer: float = -1.0

    def __post_init__(self):
        _require_positive("asr.", self, ("model_dim", "num_blocks", "heads",
                                         "conv_kernel"))
        _require_heads_divide("asr.", self)
        if self.conv_kernel % 2 == 0:
            raise ValueError(f"asr.conv_kernel must be odd, got {self.conv_kernel}")
        if self.fusion_mode not in (CROSS, BASELINE):
            raise ValueError(f"unknown asr.fusion_mode {self.fusion_mode!r}")
        if self.dtype not in ("f32", "f64"):
            raise ValueError(f"asr.dtype must be f32 or f64, got {self.dtype!r}")


@dataclass
class RunConfig:
    seed: int = 0
    batch_size: int = 1
    max_steps: int = 1000
    checkpoint_every: int = 1000
    eval_every: int = 500
    patience: int = 0
    optimizer: AdamHyper = field(default_factory=AdamHyper)
    paths: PathsConfig = field(default_factory=PathsConfig)
    tokenize: TokenizeConfig = field(default_factory=TokenizeConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    schedule: MaskSchedule = field(default_factory=MaskSchedule)
    asr: AsrConfig = field(default_factory=AsrConfig)
    augment: SpecAugmentPolicy = field(default_factory=SpecAugmentPolicy)

    def __post_init__(self):
        _require_positive("", self, ("batch_size", "max_steps", "checkpoint_every",
                                     "eval_every"))
        for name in ("seed", "patience"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    # resolved paths -------------------------------------------------------

    def out_path(self) -> Path:
        return Path(self.paths.out_dir)

    def codebook_path(self) -> Path:
        return Path(self.paths.codebook_dir) if self.paths.codebook_dir \
            else self.out_path() / "codebooks"

    def pretrain_ckpt_path(self) -> Path:
        return Path(self.paths.pretrain_checkpoint) if self.paths.pretrain_checkpoint \
            else self.out_path() / "pretrain.ckpt"

    def asr_ckpt_path(self) -> Path:
        return Path(self.paths.asr_checkpoint) if self.paths.asr_checkpoint \
            else self.out_path() / "asr.ckpt"

    def train_manifest_path(self) -> Path:
        return Path(self.paths.train_manifest) if self.paths.train_manifest \
            else Path(self.paths.data_dir) / "manifest.tsv"

    def eval_manifest_path(self) -> Path:
        return Path(self.paths.eval_manifest) if self.paths.eval_manifest \
            else self.train_manifest_path()


def _items(cfg: RunConfig):
    """(key, dataclass field, value) for every config key of `cfg`."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            for g in fields(value):
                yield f"{f.name}.{g.name}", g, getattr(value, g.name)
        else:
            yield f.name, f, value


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)
             if is_dataclass(f.default_factory)}
_TYPES = {key: f.type for key, f, _ in _items(RunConfig())}


def parse_config_lines(lines, check_paths: bool = True) -> RunConfig:
    top, sections = {}, {section: {} for section in _SECTIONS}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _TYPES:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            value = _TYPES[key](raw)
        except ValueError as exc:
            raise ValueError(f"bad value for {key}: {raw!r}") from exc
        section, _, name = key.rpartition(".")
        (sections[section] if section else top)[name] = value
    cfg = RunConfig(**top, **{section: _SECTIONS[section](**kw)
                              for section, kw in sections.items()})
    if check_paths:
        if not cfg.paths.data_dir:
            raise ValueError("paths.data_dir is required")
        if not os.path.isdir(cfg.paths.data_dir):
            raise ValueError(f"paths.data_dir does not exist: {cfg.paths.data_dir}")
    return cfg


def load_config(path, check_paths: bool = True) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_lines(fh.read().splitlines(), check_paths=check_paths)


def config_lines(cfg: RunConfig) -> list:
    """Canonical serialization (sorted keys, str-formatted values)."""
    return [f"{key} = {value}"
            for key, _, value in sorted(_items(cfg), key=lambda item: item[0])]


# model-config adapters ------------------------------------------------------


def env_encoder_config(cfg: RunConfig) -> EnvEncoderConfig:
    return EnvEncoderConfig(model_dim=cfg.pretrain.model_dim,
                            num_blocks=cfg.pretrain.num_blocks, heads=cfg.pretrain.heads,
                            vocab_size=cfg.tokenize.k_audio + cfg.tokenize.k_video,
                            dtype="f32", schedule=cfg.schedule)


def conformer_config(cfg: RunConfig, vocab_size: int) -> ConformerConfig:
    return ConformerConfig(model_dim=cfg.asr.model_dim, num_blocks=cfg.asr.num_blocks,
                           heads=cfg.asr.heads, conv_kernel=cfg.asr.conv_kernel,
                           fusion_mode=cfg.asr.fusion_mode,
                           env_dim=cfg.pretrain.model_dim, vocab_size=vocab_size,
                           dtype=cfg.asr.dtype)
