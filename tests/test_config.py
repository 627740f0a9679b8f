"""The run configuration's contract: its key set, the canonical lines of the
shipped presets, and one rejected value for each check."""

import re
from pathlib import Path

import pytest

from envasr.pipeline import RunConfig, config_lines, load_config, parse_config_lines

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

KEYS = [
    "asr.conv_kernel", "asr.dtype", "asr.early_stop_wer", "asr.fusion_mode",
    "asr.heads", "asr.model_dim", "asr.num_blocks",
    "augment.freq_masks", "augment.freq_width", "augment.time_masks",
    "augment.time_width",
    "batch_size", "checkpoint_every", "eval_every", "max_steps",
    "optimizer.lr",
    "paths.asr_checkpoint", "paths.codebook_dir", "paths.data_dir",
    "paths.eval_manifest", "paths.out_dir", "paths.pretrain_checkpoint",
    "paths.train_manifest",
    "patience",
    "pretrain.heads", "pretrain.model_dim", "pretrain.num_blocks",
    "schedule.stage_steps",
    "seed",
    "tokenize.k_audio", "tokenize.k_video", "tokenize.max_iters",
    "tokenize.sample_cap",
]


def test_key_set():
    keys = [line.split(" = ", 1)[0] for line in config_lines(RunConfig())]
    assert keys == sorted(keys) == KEYS
    assert len(KEYS) == 33


@pytest.mark.parametrize("preset", ["toy", "full-pretrain", "full-asr"])
def test_shipped_presets_canonical_lines(preset):
    cfg = load_config(ROOT / "configs" / f"{preset}.cfg", check_paths=False)
    golden = (GOLDEN / f"{preset}.config_lines.txt").read_text(encoding="utf-8")
    assert config_lines(cfg) == golden.splitlines()


# a valid value other than the default for every key, as config_lines prints it
NON_DEFAULT = {
    "asr.conv_kernel": "5", "asr.dtype": "f64", "asr.early_stop_wer": "0.25",
    "asr.fusion_mode": "self_attention_baseline", "asr.heads": "2",
    "asr.model_dim": "48", "asr.num_blocks": "3",
    "augment.freq_masks": "1", "augment.freq_width": "8", "augment.time_masks": "3",
    "augment.time_width": "4",
    "batch_size": "2", "checkpoint_every": "7", "eval_every": "5", "max_steps": "9",
    "optimizer.lr": "0.002",
    "paths.asr_checkpoint": "a.ckpt", "paths.codebook_dir": "cb",
    "paths.data_dir": "corpus", "paths.eval_manifest": "e.tsv",
    "paths.out_dir": "out", "paths.pretrain_checkpoint": "p.ckpt",
    "paths.train_manifest": "t.tsv",
    "patience": "3",
    "pretrain.heads": "2", "pretrain.model_dim": "16", "pretrain.num_blocks": "1",
    "schedule.stage_steps": "100",
    "seed": "5",
    "tokenize.k_audio": "16", "tokenize.k_video": "32", "tokenize.max_iters": "10",
    "tokenize.sample_cap": "500",
}


def test_every_key_sets_its_own_value():
    lines = [f"{k} = {v}" for k, v in NON_DEFAULT.items()]
    defaults = config_lines(RunConfig())
    assert sorted(NON_DEFAULT) == KEYS and not set(lines) & set(defaults)
    assert config_lines(parse_config_lines(lines, check_paths=False)) == lines


# one bad value per check; each line alone is rejected while parsing
REJECTED = [
    ("batch_size", "0"),
    ("max_steps", "0"),
    ("checkpoint_every", "-1"),
    ("eval_every", "0"),
    ("seed", "-1"),
    ("patience", "-1"),
    ("tokenize.k_audio", "0"),
    ("tokenize.k_video", "0"),
    ("tokenize.max_iters", "0"),
    ("tokenize.sample_cap", "0"),
    ("pretrain.model_dim", "0"),
    ("pretrain.num_blocks", "0"),
    ("pretrain.heads", "0"),
    ("pretrain.heads", "5"),
    ("asr.model_dim", "0"),
    ("asr.num_blocks", "0"),
    ("asr.heads", "-4"),
    ("asr.heads", "3"),
    ("asr.conv_kernel", "0"),
    ("asr.conv_kernel", "8"),
    ("asr.fusion_mode", "late_fusion"),
    ("asr.dtype", "bf16"),
    ("optimizer.lr", "0"),
    ("optimizer.lr", "-0.001"),
    ("schedule.stage_steps", "0"),
    ("augment.freq_masks", "-1"),
    ("augment.freq_width", "-1"),
    ("augment.time_masks", "-1"),
    ("augment.time_width", "-1"),
    ("batch_size", "two"),
    ("optimizer.lr", "fast"),
]


@pytest.mark.parametrize("key,value", REJECTED)
def test_bad_value_rejected(key, value):
    with pytest.raises(ValueError):
        parse_config_lines([f"{key} = {value}"], check_paths=False)


@pytest.mark.parametrize("key,value", REJECTED)
def test_rejection_is_one_line_naming_the_key(key, value):
    with pytest.raises(ValueError, match=re.escape(key)) as info:
        parse_config_lines([f"{key} = {value}"], check_paths=False)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("lines,msg", [
    (["asr.heads = 3"], "asr.heads = 3 does not divide asr.model_dim = 64"),
    (["asr.model_dim = 30"], "asr.heads = 4 does not divide asr.model_dim = 30"),
    (["pretrain.heads = 5"], "pretrain.heads = 5 does not divide pretrain.model_dim = 32"),
    (["asr.conv_kernel = 8"], "asr.conv_kernel must be odd, got 8"),
])
def test_model_shape_rejected_at_load(lines, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        parse_config_lines(lines, check_paths=False)


# each of these loaded, and tokenize failed only when k-means trained
@pytest.mark.parametrize("cap,msg", [
    (4, "tokenize.sample_cap = 4 is below tokenize.k_audio = 8"),
    (12, "tokenize.sample_cap = 12 is below tokenize.k_video = 16"),
], ids=["k_audio", "k_video"])
def test_sample_cap_below_a_codebook_size_rejected_at_load(cap, msg):
    lines = (ROOT / "configs" / "toy.cfg").read_text().splitlines()
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        parse_config_lines(lines + [f"tokenize.sample_cap = {cap}"], check_paths=False)


# each of these parsed once and made the loss NaN within two steps
@pytest.mark.parametrize("key", ["optimizer.lr"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_optimizer_value_rejected_before_step_0(key, value):
    msg = f"^{re.escape(key)} must be positive and finite, got {float(value)}$"
    with pytest.raises(ValueError, match=msg):
        parse_config_lines([f"{key} = {value}"], check_paths=False)


# keys the recipe fixed as constants, each at the value configs once set it to
REMOVED = [
    ("optimizer.beta1", "0.9"), ("optimizer.beta2", "0.99"), ("optimizer.eps", "1e-08"),
    ("pretrain.dtype", "f32"),
    ("schedule.p_init", "0.15"), ("schedule.p_final", "0.45"),
    ("schedule.width_init", "1"), ("schedule.width_final", "11"),
    ("schedule.width_step", "2"),
]


@pytest.mark.parametrize("key,value", REMOVED)
def test_removed_key_rejected_at_load(key, value):
    assert key not in KEYS
    with pytest.raises(ValueError, match=f"^line 1: unknown key {re.escape(repr(key))}$"):
        parse_config_lines([f"{key} = {value}"], check_paths=False)


def test_preset_with_the_removed_keys_rejected_at_the_first():
    lines = (ROOT / "configs" / "full-pretrain.cfg").read_text().splitlines()
    old = lines + [f"{k} = {v}" for k, v in REMOVED]
    with pytest.raises(ValueError, match=f"^line {len(lines) + 1}: unknown key "
                                         "'optimizer.beta1'$"):
        parse_config_lines(old, check_paths=False)


@pytest.mark.parametrize("lines", [
    [],                                       # paths.data_dir missing
    ["paths.data_dir = /nonexistent/corpus"],
])
def test_bad_data_dir_rejected(lines):
    with pytest.raises(ValueError, match="paths.data_dir"):
        parse_config_lines(lines)


@pytest.mark.parametrize("line", ["seed 3", "optimizer.momentum = 0.9"])
def test_bad_line_rejected(line):
    with pytest.raises(ValueError, match="line 1"):
        parse_config_lines([line], check_paths=False)


def test_later_line_wins():
    cfg = parse_config_lines(["seed = 3", "seed = 4"], check_paths=False)
    assert cfg.seed == 4
