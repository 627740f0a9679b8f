"""Stage-driver behavior on small runs (full-strength runs live in the
acceptance suite)."""

import os
import re
import shutil
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from envasr import autodiff as ad
from envasr.asr.conformer import AsrModel, ConformerConfig, Utterance
from envasr.asr.transducer import greedy_decode
from envasr.env_encoder import EnvEncoder, extract_env_embeddings, parameter_hash
from envasr.features import fit_whitener, whiten_clip, write_wav
from envasr.optim import ParameterSet, adam_step
from envasr.pipeline import (config_lines, conformer_config,
                             env_encoder_config, generate_synthetic_corpus,
                             load_checkpoint, parse_config_lines, restore_params,
                             run_asr_training, run_eval, run_pretraining,
                             run_tokenize, save_checkpoint, write_corpus)
from envasr.pipeline.corpus import (SYMBOLS, SyntheticCorpus, SyntheticUtterance,
                                    synth_clip, synth_wave)
from envasr.pipeline import data
from envasr.pipeline.data import ensure_whitener, load_corpus, load_whitener
from envasr.pipeline import runner
from envasr.pipeline.runner import _load_model
from envasr.quantize import load_codebook
from envasr.serialize import read_array, read_raw_array, write_array

from test_pipeline import TOY_CFG, write_old_whitener


@pytest.fixture(scope="module")
def corpus16(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus16")
    write_corpus(generate_synthetic_corpus(16, seed=11), root)
    return root


def toy_cfg(data, out, **kw):
    """A config from `key = value` lines; `kw` maps config keys to overrides."""
    values = {"paths.data_dir": data, "paths.out_dir": out, "tokenize.k_audio": 8,
              "tokenize.k_video": 16, "max_steps": 12, "checkpoint_every": 12,
              "eval_every": 6, "seed": 0, "augment.time_masks": 1,
              "augment.time_width": 6, "augment.freq_masks": 1, **kw}
    return parse_config_lines([f"{k} = {v}" for k, v in values.items()],
                              check_paths=False)


class TestTokenize:
    def test_codebook_files_written(self, tmp_path, corpus16):
        cfg = toy_cfg(corpus16, tmp_path / "out",
                      **{"tokenize.k_audio": 64, "tokenize.k_video": 32})
        summary = run_tokenize(cfg)
        assert summary["vocab_size"] == 96
        cb = load_codebook(summary["audio_codebook"])
        assert cb.centers.shape == (64, 192)
        tokens = (cfg.codebook_path() / "tokens_audio.tsv").read_text().splitlines()
        assert len(tokens) == 16

    def test_retokenize_reproduces_ids(self, tmp_path, corpus16):
        cfg = toy_cfg(corpus16, tmp_path / "out")
        first = run_tokenize(cfg)
        ids_before = (cfg.codebook_path() / "tokens_audio.tsv").read_text()
        second = run_tokenize(cfg)  # reloads the saved codebooks
        ids_after = (cfg.codebook_path() / "tokens_audio.tsv").read_text()
        assert ids_before == ids_after
        assert first["vocab_size"] == second["vocab_size"] == 24

    def test_corpus_without_clips_drops_stale_video_tokens(self, tmp_path, corpus16):
        cb_dir = tmp_path / "cb"
        run_tokenize(toy_cfg(corpus16, tmp_path / "out", **{"paths.codebook_dir": cb_dir}))
        assert (cb_dir / "tokens_video.tsv").is_file()
        audio_only = tmp_path / "audio_only"
        shutil.copytree(corpus16, audio_only)
        for clip in audio_only.rglob("*.clip"):
            clip.unlink()
        # codebooks come from disk, so this corpus needs no video to tokenize
        run_tokenize(toy_cfg(audio_only, tmp_path / "out", **{"paths.codebook_dir": cb_dir}))
        assert (cb_dir / "tokens_audio.tsv").is_file()
        assert not (cb_dir / "tokens_video.tsv").exists()


    def test_corpus_without_clips_fits_only_the_audio_codebook(self, tmp_path, corpus16):
        audio_only = tmp_path / "audio_only"
        shutil.copytree(corpus16, audio_only)
        for clip in audio_only.rglob("*.clip"):
            clip.unlink()
        cfg = toy_cfg(audio_only, tmp_path / "out")
        summary = run_tokenize(cfg)
        assert (summary["vocab_size"], summary["video_codebook"]) == (24, None)
        assert sorted(p.name for p in cfg.codebook_path().iterdir()) == [
            "audio.cb", "features", "tokens_audio.tsv", "whitener.bin"]


class TestPretrainingRunner:
    def test_log_grammar_and_reruns_identical(self, tmp_path, corpus16, capsys):
        logs = []
        for run in range(2):
            cfg = toy_cfg(corpus16, tmp_path / f"out{run}",
                          **{"paths.codebook_dir": tmp_path / f"out{run}" / "cb"})
            run_pretraining(cfg)
            logs.append((cfg.out_path() / "pretrain.log").read_text())
        assert logs[0] == logs[1]
        first = logs[0].splitlines()[0]
        assert first.startswith("step=0 loss=") and "mask_w=1" in first
        assert "mask_p=0.150000" in first

    def test_rerun_checkpoints_identical(self, tmp_path, corpus16, capsys):
        cfg = toy_cfg(corpus16, tmp_path / "ck")
        blobs = []
        for _ in range(2):  # same config rerun end to end
            summary = run_pretraining(cfg)
            blobs.append(open(summary["checkpoint"], "rb").read())
        assert blobs[0] == blobs[1]

    def test_resume_at_stage_boundary_draws_wider_masks(self, tmp_path, corpus16,
                                                        capsys):
        cfg = toy_cfg(corpus16, tmp_path / "res", max_steps=10001,
                      checkpoint_every=100000)
        # train 2 steps, then rewrite the checkpoint at schedule step 10000
        cfg_short = toy_cfg(corpus16, tmp_path / "res", max_steps=2,
                            checkpoint_every=2)
        out = run_pretraining(cfg_short)
        model = out["model"]
        keys = load_checkpoint(cfg.pretrain_ckpt_path()).keys
        save_checkpoint(cfg.pretrain_ckpt_path(), model.params, 10000, [], keys=keys)
        capsys.readouterr()
        run_pretraining(cfg, resume=str(cfg.pretrain_ckpt_path()))
        log = (cfg.out_path() / "pretrain.log").read_text().splitlines()
        assert log[-1].startswith("step=10000 ") and "mask_w=3" in log[-1]
        assert len(log) == 3  # steps 0 and 1 of the first run, then the resumed step

    def test_resume_continues_log_and_checkpoint_exactly(self, tmp_path, corpus16,
                                                         capsys):
        cfg = toy_cfg(corpus16, tmp_path / "resume", max_steps=30)
        log_path, ckpt_path = cfg.out_path() / "pretrain.log", cfg.pretrain_ckpt_path()
        step12 = tmp_path / "step12.ckpt"
        run_pretraining(replace(cfg, max_steps=12))
        shutil.copy(ckpt_path, step12)
        run_pretraining(cfg, resume=str(step12))
        resumed = log_path.read_bytes(), ckpt_path.read_bytes()
        run_pretraining(cfg)
        assert (log_path.read_bytes(), ckpt_path.read_bytes()) == resumed
        # over the full log, a resume first drops the lines of steps 12..29
        run_pretraining(cfg, resume=str(step12))
        assert (log_path.read_bytes(), ckpt_path.read_bytes()) == resumed
        # resuming a finished run makes no step and keeps its log
        assert run_pretraining(cfg, resume=str(ckpt_path))["steps_run"] == 0
        assert log_path.read_bytes() == resumed[0]

    def test_resume_at_every_eval_keeps_the_patience_count(self, tmp_path, corpus16,
                                                           capsys):
        cfg = parse_config_lines(TOY_CFG.read_text().splitlines() + [
            f"paths.data_dir = {corpus16}", f"paths.out_dir = {tmp_path / 'out'}",
            "patience = 2", "eval_every = 3", "checkpoint_every = 3", "max_steps = 60"])
        log_path, ckpt_path = cfg.out_path() / "pretrain.log", cfg.pretrain_ckpt_path()
        assert run_pretraining(cfg)["steps_run"] == 33  # stops after step 32
        straight = log_path.read_bytes(), ckpt_path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for k in range(3, 31, 3):
            run_pretraining(replace(cfg, max_steps=k))
            shutil.copy(ckpt_path, cut)
            assert run_pretraining(cfg, resume=str(cut))["steps_run"] == 33 - k, k
            assert (log_path.read_bytes(), ckpt_path.read_bytes()) == straight, k
        # resuming the early stop makes no step and keeps the log
        assert run_pretraining(cfg, resume=str(ckpt_path))["steps_run"] == 0
        assert (log_path.read_bytes(), ckpt_path.read_bytes()) == straight

    def test_patience_stops_early_and_checkpoints_the_stop(self, tmp_path, corpus16,
                                                           capsys):
        cfg = toy_cfg(corpus16, tmp_path / "patience", max_steps=40,
                      checkpoint_every=40, eval_every=3, patience=2)
        summary = run_pretraining(cfg)
        log = (cfg.out_path() / "pretrain.log").read_text().splitlines()
        assert log[-1] == "# early stop: no improvement in 2 evals"
        stop = int(re.match(r"step=(\d+) ", log[-2]).group(1))
        assert summary["steps_run"] == stop + 1 < cfg.max_steps
        assert load_checkpoint(summary["checkpoint"]).step == summary["steps_run"]

    def test_resume_rejects_checkpoint_with_unknown_parameter(self, tmp_path, corpus16):
        # checkpoints written while attention keys had a bias hold block*.attn.bk
        cfg = toy_cfg(corpus16, tmp_path / "old")
        env_cfg = env_encoder_config(cfg)
        arrays = {name: p.data for name, p in EnvEncoder(env_cfg, seed=0).params.items()}
        arrays["block0.attn.bk"] = np.zeros(env_cfg.model_dim, dtype=arrays["head.b"].dtype)
        save_checkpoint(tmp_path / "old.ckpt", ParameterSet(arrays), 5, config_lines(cfg))
        with pytest.raises(ValueError) as err:
            run_pretraining(cfg, resume=str(tmp_path / "old.ckpt"))
        assert str(err.value) == ("checkpoint holds parameters unknown to the model: "
                                  "block0.attn.bk")
        assert not (cfg.out_path() / "pretrain.log").exists()

    def test_config_snapshot_with_a_removed_key(self, tmp_path, corpus16, capsys):
        """A checkpoint whose snapshot holds a key since removed (``stage``,
        ``optimizer.beta1``) cannot build a model, so ASR training on it fails
        naming it; a resume reads no snapshot and continues as from a current
        checkpoint."""
        cfg = toy_cfg(corpus16, tmp_path / "out", max_steps=2, checkpoint_every=2)
        run_pretraining(cfg)
        ckpt = cfg.pretrain_ckpt_path()
        stored = load_checkpoint(ckpt)
        model = EnvEncoder(env_encoder_config(cfg), seed=None)
        restore_params(model.params, stored)
        olds = []
        for i, removed in enumerate(["stage = pretrain", "optimizer.beta1 = 0.9"]):
            old = tmp_path / f"old{i}.ckpt"
            snapshot = sorted(config_lines(cfg) + [removed])
            save_checkpoint(old, model.params, stored.step, snapshot, stored.loop, stored.keys)
            asr = replace(cfg, paths=replace(cfg.paths, pretrain_checkpoint=str(old)))
            with pytest.raises(ValueError) as err:
                run_asr_training(asr)
            key = removed.split(" = ")[0]
            assert str(err.value) == (f"checkpoint {old} holds a config snapshot that does "
                                      f"not load (line {snapshot.index(removed) + 1}: "
                                      f"unknown key {key!r}); re-run the stage that wrote it")
            olds.append(old)
        run = replace(cfg, max_steps=4, paths=replace(cfg.paths,
                                                      out_dir=str(tmp_path / "resumed")))
        resumed = []
        for start in olds + [ckpt]:
            shutil.rmtree(run.out_path(), ignore_errors=True)
            assert run_pretraining(run, resume=str(start))["steps_run"] == 2
            resumed.append(run.pretrain_ckpt_path().read_bytes())
        assert resumed[0] == resumed[1] == resumed[2]

    def test_batch_size_groups_utterances(self, tmp_path, corpus16, capsys):
        cfg = toy_cfg(corpus16, tmp_path / "bs", batch_size=4, max_steps=3,
                      checkpoint_every=3)
        summary = run_pretraining(cfg)
        assert summary["steps_run"] == 3


class TestTrainLoop:
    """The cadence both stages share, with stand-in step and eval functions."""

    def run(self, tmp_path, monkeypatch, stop_at=None):
        saves, items, evals = [], [], []
        monkeypatch.setattr(runner, "save_checkpoint",
                            lambda path, params, step, lines, loop, keys:
                            saves.append(step))

        def step_fn(step, batch):
            items.append(batch)
            return 0.5, f"step={step} loss=0.5"

        def eval_fn(step, loss):
            evals.append(step)
            return [f"# eval step={step}"], "done" if step == stop_at else None

        cfg = parse_config_lines([f"paths.out_dir = {tmp_path}", "batch_size = 3",
                                  "max_steps = 11", "checkpoint_every = 4",
                                  "eval_every = 2"], check_paths=False)
        summary = runner._train_loop(cfg, "t.log", 5, step_fn, eval_fn, None,
                                     tmp_path / "t.ckpt")
        log = (tmp_path / "t.log").read_text().splitlines()
        return summary, saves, items, evals, log

    def test_batches_evals_and_checkpoints(self, tmp_path, monkeypatch, capsys):
        summary, saves, items, evals, log = self.run(tmp_path, monkeypatch)
        assert items[:3] == [[0, 1, 2], [3, 4, 0], [1, 2, 3]]
        assert evals == [1, 3, 5, 7, 9, 10]  # every 2 steps and after the last
        assert saves == [4, 8, 11]           # every 4 steps and after the last
        assert summary["steps_run"] == 11 and summary["final_loss"] == 0.5
        assert log[-2:] == ["step=10 loss=0.5", "# eval step=10"]
        assert capsys.readouterr().out.splitlines() == log

    def test_early_stop_on_a_checkpoint_step_saves_once(self, tmp_path, monkeypatch,
                                                        capsys):
        summary, saves, _, _, log = self.run(tmp_path, monkeypatch, stop_at=7)
        assert saves == [4, 8]
        assert summary["steps_run"] == 8
        assert log[-3:] == ["step=7 loss=0.5", "# eval step=7", "# early stop: done"]


class TestAsrRunner:
    def make_pretrained(self, tmp_path, corpus16, capsys):
        cfg = toy_cfg(corpus16, tmp_path / "shared", max_steps=30,
                      checkpoint_every=30)
        run_pretraining(cfg)
        capsys.readouterr()
        return cfg

    @pytest.mark.parametrize("dtype, np_dtype", [("f32", np.float32), ("f64", np.float64)])
    def test_whitened_features_take_the_model_dtype(self, corpus16, dtype, np_dtype):
        """The stages keep whitened rows in the dtype the ASR model casts them
        to, so an f64 model still reads them unrounded."""
        utts = load_corpus(corpus16 / "manifest.tsv")
        whitener = fit_whitener(np.concatenate([u.raw_patches for u in utts]))
        for u, ex in zip(utts, runner._asr_examples(utts, whitener, dtype)[2]):
            assert ex.features.dtype == np_dtype
            np.testing.assert_array_equal(
                ex.features, whiten_clip(u.raw_patches, whitener).astype(np_dtype))

    def test_cross_mode_needs_pretrain_checkpoint(self, tmp_path, corpus16):
        cfg = toy_cfg(corpus16, tmp_path / "nockpt")
        with pytest.raises(ValueError, match="pretraining checkpoint"):
            run_asr_training(cfg)

    def test_baseline_runs_without_checkpoint(self, tmp_path, corpus16, capsys):
        cfg = toy_cfg(corpus16, tmp_path / "base", max_steps=4,
                      checkpoint_every=4, eval_every=4,
                      **{"asr.fusion_mode": "self_attention_baseline"})
        summary = run_asr_training(cfg)
        assert summary["steps_run"] == 4
        assert summary["env_hash_before"] is None

    def test_baseline_step_leaves_env_adapter_frozen(self, tmp_path, corpus16, capsys):
        cfg = toy_cfg(corpus16, tmp_path / "base", max_steps=1, checkpoint_every=1,
                      eval_every=1, **{"asr.fusion_mode": "self_attention_baseline"})
        params = run_asr_training(cfg)["model"].params
        init = AsrModel(conformer_config(cfg, vocab_size=len(SYMBOLS)), seed=cfg.seed)
        assert params.t == 1
        for name, p in params.items():
            views = params.views(name)
            if name.startswith("env_adapter."):
                np.testing.assert_array_equal(p.data, init.params[name].data)
                assert not views.m.any() and not views.v.any()
            else:
                assert not np.array_equal(p.data, init.params[name].data), name
        for name, p in params.items():
            if p.requires_grad and name != "joint.b_out":
                p.grad = np.zeros_like(p.data)
        with pytest.raises(ValueError, match="missing gradient for joint.b_out$"):
            adam_step(params, 1e-3)

    def test_failed_eval_write_keeps_previous_outputs(self, tmp_path, corpus16,
                                                      monkeypatch, capsys):
        cfg = toy_cfg(corpus16, tmp_path / "base", max_steps=1, checkpoint_every=1,
                      eval_every=1, **{"asr.fusion_mode": "self_attention_baseline"})
        run_asr_training(cfg)
        previous = {"hypotheses.txt": b"older hypotheses\n",
                    "wer_report.txt": b"wer 1.0000 from an older run\n"}
        for name, data in previous.items():
            (cfg.out_path() / name).write_bytes(data)
        before = sorted(os.listdir(cfg.out_path()))

        def fail_replace(src, dst):
            raise OSError("injected failure before the rename")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError, match="injected"):
            run_eval(cfg)
        monkeypatch.undo()
        for name, data in previous.items():
            assert (cfg.out_path() / name).read_bytes() == data
        assert sorted(os.listdir(cfg.out_path())) == before

    def test_freeze_contract_and_logs(self, tmp_path, corpus16, capsys):
        cfg = self.make_pretrained(tmp_path, corpus16, capsys)
        cfg.max_steps = 6
        cfg.checkpoint_every = 6
        cfg.eval_every = 3
        summary = run_asr_training(cfg)
        assert summary["env_hash_before"] == summary["env_hash_after"]
        log = (cfg.out_path() / "train_asr.log").read_text().splitlines()
        assert log[0].startswith("step=0 loss=")
        assert any(l.startswith("# eval") and "wer" in l for l in log)

    def test_eval_reports_pooled_wer(self, tmp_path, corpus16, capsys):
        cfg = self.make_pretrained(tmp_path, corpus16, capsys)
        cfg.max_steps = 4
        cfg.checkpoint_every = 4
        cfg.eval_every = 4
        run_asr_training(cfg)
        capsys.readouterr()
        result = run_eval(cfg)
        out = capsys.readouterr().out
        assert result["report"].startswith("wer ")
        assert all(k in result["report"] for k in ("subs", "ins", "dels"))
        assert result["report"] in out
        hyp_lines = open(result["hypotheses"]).read().splitlines()
        assert len(hyp_lines) == 16
        # deterministic rerun
        again = run_eval(cfg)
        assert again["report"] == result["report"]

    def test_augment_widths_checked_before_step_0(self, tmp_path, corpus16, capsys):
        cfg = self.make_pretrained(tmp_path, corpus16, capsys)
        frames, name = min((u.raw_patches.shape[0], u.name)
                           for u in load_corpus(cfg.train_manifest_path()))
        cfg.augment.time_width = frames + 1
        msg = f"augment.time_width = {frames + 1} exceeds the {frames} frames " \
              f"of utterance {name}$"
        with pytest.raises(ValueError, match=msg):
            run_asr_training(cfg)
        cfg.augment.time_width = 1
        cfg.augment.freq_width = 193
        with pytest.raises(ValueError, match="augment.freq_width = 193 exceeds "
                                             "the 192 feature dims"):
            run_asr_training(cfg)
        log = cfg.out_path() / "train_asr.log"
        assert not log.exists() or "step=" not in log.read_text()

    def test_eval_missing_checkpoint(self, tmp_path, corpus16):
        cfg = toy_cfg(corpus16, tmp_path / "noeval")
        with pytest.raises(ValueError, match="checkpoint not found"):
            run_eval(cfg)


class TestShortUtterances:
    """An utterance with fewer audio patches than the subsampling conv's
    kernel is rejected, naming it, before ASR training's step 0 and before
    eval decodes anything."""

    MSG = "^utterance short has 1 audio patches, fewer than the 3 the subsampling conv needs$"

    @pytest.fixture
    def with_short(self, tmp_path, corpus16):
        """corpus16 plus `short`, a 1,120-sample WAV: 5 LFBE frames, 1 patch."""
        data = tmp_path / "with_short"
        shutil.copytree(corpus16, data)
        write_wav(data / "short.wav", np.random.default_rng(0).uniform(-0.1, 0.1, 1120))
        with open(data / "manifest.tsv", "a", encoding="utf-8") as fh:
            fh.write("short.wav\ta b\n")
        return data

    def test_train_asr_rejects_it_before_step_0(self, tmp_path, with_short, capsys):
        # no time masks, so the augment width checks let it through
        cfg = toy_cfg(with_short, tmp_path / "out", **{
            "asr.fusion_mode": "self_attention_baseline", "augment.time_masks": 0,
            "augment.time_width": 0})
        with pytest.raises(ValueError, match=self.MSG):
            run_asr_training(cfg)
        assert not (cfg.out_path() / "train_asr.log").exists()

    def test_eval_rejects_it_before_decoding(self, tmp_path, corpus16, with_short, capsys):
        cfg = toy_cfg(corpus16, tmp_path / "out", max_steps=1, checkpoint_every=1,
                      eval_every=1, **{"asr.fusion_mode": "self_attention_baseline",
                                       "paths.eval_manifest": with_short / "manifest.tsv"})
        run_asr_training(cfg)
        with pytest.raises(ValueError, match=self.MSG):
            run_eval(cfg)
        assert not (cfg.out_path() / "hypotheses.txt").exists()


class TestPositionTables:
    """Utterances that outgrow the env encoder's position tables are rejected
    before any artifact, model or log exists."""

    def write_one(self, root, n_symbols, clip_steps=1):
        """One utterance of `n_symbols` 100 ms tones; its clip repeats the
        3-frame synthetic clip `clip_steps` times (one video step each)."""
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 8, n_symbols)
        clip = np.concatenate([synth_clip(1, rng)] * clip_steps)
        utt = SyntheticUtterance("long", labels, 1, synth_wave(labels, 1, rng), clip)
        write_corpus(SyntheticCorpus([utt], seed=0), root)
        return root

    def save_untrained_env(self, cfg):
        cfg.out_path().mkdir()
        utts = load_corpus(cfg.train_manifest_path())
        whitener = ensure_whitener(cfg.codebook_path(), utts)
        save_checkpoint(cfg.pretrain_ckpt_path(),
                        EnvEncoder(env_encoder_config(cfg)).params, 0,
                        config_lines(cfg), keys={"whitener": whitener.key})

    def test_long_audio_rejected_before_step_0(self, tmp_path, capsys):
        data = self.write_one(tmp_path / "data", n_symbols=160)
        cfg = toy_cfg(data, tmp_path / "out")
        msg = "^utterance long has 532 audio patches, more than max_audio_positions = 512$"
        with pytest.raises(ValueError, match=msg):
            run_pretraining(cfg)
        assert not cfg.out_path().exists()
        # the ASR stage checks against the pretraining checkpoint's tables
        self.save_untrained_env(cfg)
        with pytest.raises(ValueError, match=msg):
            run_asr_training(cfg)
        assert not (cfg.out_path() / "train_asr.log").exists()
        assert not (cfg.out_path() / "env_cache").exists()
        # so does eval, on the eval manifest (here the same utterance)
        whitener = load_whitener(cfg.codebook_path() / "whitener.bin")
        save_checkpoint(cfg.asr_ckpt_path(),
                        AsrModel(conformer_config(cfg, vocab_size=len(SYMBOLS))).params, 0,
                        config_lines(cfg), keys={"whitener": whitener.key})
        with pytest.raises(ValueError, match=msg):
            run_eval(cfg)
        assert not (cfg.out_path() / "hypotheses.txt").exists()
        assert not (cfg.out_path() / "env_cache").exists()

    def test_long_video_rejected_by_pretraining_only(self, tmp_path, capsys):
        data = self.write_one(tmp_path / "data", n_symbols=4, clip_steps=65)
        cfg = toy_cfg(data, tmp_path / "out", max_steps=1, checkpoint_every=1,
                      eval_every=1, **{"augment.time_width": 2})
        with pytest.raises(ValueError, match="^utterance long has 65 video steps, "
                                             "more than max_video_steps = 64$"):
            run_pretraining(cfg)
        assert not cfg.out_path().exists()
        # env extraction for the ASR stage reads audio only
        self.save_untrained_env(cfg)
        assert run_asr_training(cfg)["steps_run"] == 1


class TestFeaturesFileInStages:
    """The stages keep each corpus's features file in codebook_dir, and write
    it only once the stage's input checks on that corpus have passed."""

    def test_training_and_eval_corpora_both_hit_on_their_second_load(
            self, tmp_path, corpus16, capsys, monkeypatch):
        heldout = write_corpus(generate_synthetic_corpus(4, seed=99), tmp_path / "heldout")
        cfg = toy_cfg(corpus16, tmp_path / "out", max_steps=2, checkpoint_every=2,
                      eval_every=2, **{"asr.fusion_mode": "self_attention_baseline",
                                       "paths.eval_manifest": heldout})

        def no_front_end(samples):
            raise AssertionError("the front end ran on a stored corpus")

        runs = []
        for _ in range(2):
            run_asr_training(cfg)
            run_eval(cfg)
            runs.append([(cfg.out_path() / name).read_bytes() for name in
                         ("train_asr.log", "asr.ckpt", "hypotheses.txt", "wer_report.txt")])
            assert len(list((cfg.codebook_path() / "features").iterdir())) == 2
            monkeypatch.setattr(data, "compute_lfbe", no_front_end)  # the second pass hits
        assert runs[0] == runs[1]

    def test_runs_rejected_by_the_position_tables_store_no_features(self, tmp_path,
                                                                    corpus16, capsys):
        long = TestPositionTables().write_one(tmp_path / "long", n_symbols=160)
        msg = "^utterance long has 532 audio patches, more than max_audio_positions = 512$"
        rejected = toy_cfg(long, tmp_path / "rejected")
        with pytest.raises(ValueError, match=msg):
            run_pretraining(rejected)
        assert not rejected.codebook_path().exists()
        # a long held-out corpus, evaluated after training on corpus16
        cfg = toy_cfg(corpus16, tmp_path / "out", max_steps=1, checkpoint_every=1,
                      eval_every=1, **{"paths.eval_manifest": long / "manifest.tsv"})
        run_pretraining(cfg)
        run_asr_training(cfg)
        stored = sorted((cfg.codebook_path() / "features").iterdir())
        assert len(stored) == 1
        with pytest.raises(ValueError, match=msg):
            run_eval(cfg)
        assert sorted((cfg.codebook_path() / "features").iterdir()) == stored


class TestDeterminism:
    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_asr_log_bitwise_identical(self, tmp_path, corpus16, capsys, batch_size):
        logs = []
        for run in range(2):
            cfg = toy_cfg(corpus16, tmp_path / f"det{run}", max_steps=5,
                          checkpoint_every=5, eval_every=5, batch_size=batch_size,
                          **{"asr.fusion_mode": "self_attention_baseline"})
            run_asr_training(cfg)
            logs.append((cfg.out_path() / "train_asr.log").read_text())
        assert logs[0] == logs[1]


class TestEnvCacheAcrossRuns:
    """One out_dir, a cross-attention model trained on one corpus, then
    evaluated on another whose utterance names are the same."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("envcache")
        for name, seed in (("a", 11), ("b", 99)):
            write_corpus(generate_synthetic_corpus(8, seed=seed), root / name)
        cfg = toy_cfg(root / "a", root / "out", max_steps=2, checkpoint_every=2,
                      eval_every=2)
        run_pretraining(cfg)
        run_asr_training(cfg)
        return root, cfg

    def test_eval_on_second_corpus_recomputes_embeddings(self, trained, capsys):
        root, cfg = trained
        cfg = replace(cfg, paths=replace(cfg.paths,
                                         eval_manifest=str(root / "b" / "manifest.tsv")))
        run_eval(cfg)
        utts = load_corpus(cfg.eval_manifest_path())
        whitener = load_whitener(cfg.codebook_path() / "whitener.bin")
        env_model, _ = _load_model(cfg.pretrain_ckpt_path())
        for u in utts:
            cached = read_raw_array(cfg.out_path() / "env_cache" / f"{u.name}.env")
            fresh = extract_env_embeddings(
                env_model, whiten_clip(u.raw_patches, whitener))
            np.testing.assert_array_equal(cached, fresh.astype(np.float32))

    def test_eval_rejects_pretraining_checkpoint_of_other_width(self, trained,
                                                                 tmp_path):
        _, cfg = trained
        narrow = replace(cfg, pretrain=replace(cfg.pretrain, model_dim=16))
        path = tmp_path / "narrow.ckpt"
        save_checkpoint(path, EnvEncoder(env_encoder_config(narrow)).params, 0,
                        config_lines(narrow))
        cfg = replace(cfg, paths=replace(cfg.paths, pretrain_checkpoint=str(path)))
        msg = (f"^pretraining checkpoint {re.escape(str(path))} has model_dim 16, "
               f"but the ASR model's pretrain.model_dim is 32$")
        with pytest.raises(ValueError, match=msg):
            run_eval(cfg)


class TestEnvStoreInCodebookDir:
    """Cross-attention ASR training and eval keep each corpus's env
    embeddings in `<codebook_dir>/env/<corpus_id>/`: a run that shares the
    corpus, the whitener and the pretraining checkpoint with an earlier run
    extracts nothing, whatever its out_dir, and writes the same bytes."""

    @pytest.fixture(scope="class")
    def stage1(self, tmp_path_factory):
        """Corpora a (gen-corpus seed 11) and b (seed 99) of 8 utterances
        with the same names, and the codebook_dir and pretraining checkpoint
        of a 2-step pretraining on a."""
        root = tmp_path_factory.mktemp("envstore")
        for name, seed in (("a", 11), ("b", 99)):
            write_corpus(generate_synthetic_corpus(8, seed=seed), root / name)
        run_pretraining(toy_cfg(root / "a", root / "stage1", max_steps=2,
                                checkpoint_every=2, eval_every=2))
        return root

    def cfg(self, stage1, tmp_path, out="out", **kw):
        """ASR training on a and eval on b into `tmp_path / out`, on a copy of
        stage 1's codebook_dir and checkpoint, made by the first call."""
        if not (tmp_path / "cb").exists():
            shutil.copytree(stage1 / "stage1" / "codebooks", tmp_path / "cb")
            shutil.copy(stage1 / "stage1" / "pretrain.ckpt", tmp_path / "pretrain.ckpt")
        return toy_cfg(stage1 / "a", tmp_path / out, max_steps=2, checkpoint_every=2,
                       eval_every=2, **{"paths.codebook_dir": tmp_path / "cb",
                                        "paths.pretrain_checkpoint": tmp_path / "pretrain.ckpt",
                                        "paths.eval_manifest": stage1 / "b" / "manifest.tsv",
                                        **kw})

    @pytest.fixture
    def extractions(self, monkeypatch):
        """The number of utterances the env model has run on, as a list."""
        calls = []

        def counted(model, audio):
            calls.append(1)
            return extract_env_embeddings(model, audio)

        monkeypatch.setattr(data, "extract_env_embeddings", counted)
        return calls

    @staticmethod
    def outputs(out_dir, *names):
        """name -> bytes of the files `names` of `out_dir` and of its env
        records."""
        files = {name: (out_dir / name).read_bytes() for name in names}
        files.update((f"env_cache/{p.name}", p.read_bytes())
                     for p in (out_dir / "env_cache").iterdir())
        return files

    def train_and_eval(self, cfg):
        run_asr_training(cfg)
        trained = self.outputs(cfg.out_path(), "train_asr.log", "asr.ckpt")
        run_eval(cfg)
        return trained, self.outputs(cfg.out_path(), "hypotheses.txt", "wer_report.txt")

    @staticmethod
    def entries(cfg, manifest):
        return sorted(data.store_path(cfg.codebook_path(), "corpus_env", manifest).iterdir())

    def test_runs_into_fresh_out_dirs_extract_nothing(self, stage1, tmp_path, capsys,
                                                      monkeypatch):
        cfg = self.cfg(stage1, tmp_path)
        first = self.train_and_eval(cfg)
        assert len(first[0]) == len(first[1]) == 2 + 8

        def no_extraction(model, audio):
            raise AssertionError("env embeddings extracted again")

        monkeypatch.setattr(data, "extract_env_embeddings", no_extraction)
        shutil.rmtree(cfg.out_path())
        assert self.train_and_eval(cfg) == first
        other = self.cfg(stage1, tmp_path, "other",
                         **{"paths.asr_checkpoint": cfg.asr_ckpt_path()})
        run_eval(other)
        assert self.outputs(other.out_path(), "hypotheses.txt", "wer_report.txt") == first[1]

    def test_corpora_with_equal_names_keep_their_own_entries(self, stage1, tmp_path,
                                                             capsys, extractions):
        cfg = self.cfg(stage1, tmp_path)
        first = self.train_and_eval(cfg)
        assert len(extractions) == 16
        assert self.train_and_eval(cfg) == first
        assert len(extractions) == 16
        for manifest in (cfg.train_manifest_path(), cfg.eval_manifest_path()):
            assert [p.name for p in self.entries(cfg, manifest)] == [
                f"utt{i:04d}.env" for i in range(8)]

    def test_repretrained_env_model_replaces_every_entry(self, stage1, tmp_path, capsys,
                                                         extractions):
        cfg = self.cfg(stage1, tmp_path)
        run_asr_training(cfg)
        run_pretraining(replace(cfg, max_steps=3))
        env_model, _ = _load_model(cfg.pretrain_ckpt_path())
        new_hash = parameter_hash(env_model.params)
        assert run_asr_training(cfg)["env_hash_before"] == new_hash
        assert len(extractions) == 16
        entries = self.entries(cfg, cfg.train_manifest_path())
        assert len(entries) == 8
        for path in entries:
            assert read_array(path).key.split(" ")[0] == new_hash
            assert path.read_bytes() == (cfg.out_path() / "env_cache" / path.name).read_bytes()

    def test_damaged_entry_is_recomputed(self, stage1, tmp_path, capsys, extractions):
        cfg = self.cfg(stage1, tmp_path)
        trained = self.train_and_eval(cfg)[0]
        entry = self.entries(cfg, cfg.train_manifest_path())[3]
        good = entry.read_bytes()
        entry.write_bytes(good[:-4])
        run_asr_training(cfg)
        assert len(extractions) == 16 + 1
        assert entry.read_bytes() == good
        assert self.outputs(cfg.out_path(), "train_asr.log", "asr.ckpt") == trained

    def test_rejected_runs_write_no_entry(self, stage1, tmp_path, capsys):
        narrow = self.cfg(stage1, tmp_path, **{"pretrain.model_dim": 16})
        with pytest.raises(ValueError, match="has model_dim 32"):
            run_asr_training(narrow)
        assert not (narrow.codebook_path() / "env").exists()
        long = TestPositionTables().write_one(tmp_path / "long", n_symbols=160)
        cfg = self.cfg(stage1, tmp_path, **{"paths.eval_manifest": long / "manifest.tsv"})
        run_asr_training(cfg)
        stored = sorted((cfg.codebook_path() / "env").rglob("*"))
        assert len(stored) == 1 + 8
        with pytest.raises(ValueError, match="more than max_audio_positions"):
            run_eval(cfg)
        assert sorted((cfg.codebook_path() / "env").rglob("*")) == stored

    def test_asr_stages_read_no_clip(self, stage1, tmp_path, capsys, monkeypatch):
        def no_clips(path):
            raise AssertionError(f"read clip {path}")

        monkeypatch.setattr(data, "read_raw_array", no_clips)
        cfg = self.cfg(stage1, tmp_path)
        assert run_asr_training(cfg)["steps_run"] == 2
        assert run_eval(cfg)["reference_words"] > 0


class TestWarmCodebookDir:
    """Every stage run again on a warm codebook_dir takes each stored kind
    from the store: it fits, extracts and computes nothing, and every store
    file keeps its bytes."""

    def test_second_runs_fit_nothing(self, tmp_path, corpus16, capsys, monkeypatch):
        heldout = write_corpus(generate_synthetic_corpus(4, seed=99), tmp_path / "heldout")
        cfg = toy_cfg(corpus16, tmp_path / "out", max_steps=2, checkpoint_every=2,
                      eval_every=2, **{"paths.eval_manifest": heldout})
        cb_dir = cfg.codebook_path()

        def run_stages():
            run_tokenize(cfg)
            run_pretraining(cfg)
            run_asr_training(cfg)
            run_eval(cfg)
            return {p: p.read_bytes() for p in sorted(cb_dir.rglob("*")) if p.is_file()}

        first = run_stages()
        stored = [data.store_path(cb_dir, kind)
                  for kind in ("whitener", "audio_codebook", "video_codebook")]
        for manifest in (cfg.train_manifest_path(), heldout):
            stored.append(data.store_path(cb_dir, "corpus_features", manifest))
            stored += sorted(data.store_path(cb_dir, "corpus_env", manifest).iterdir())
        assert set(stored) <= first.keys() and len(stored) == 3 + 2 + 16 + 4

        def refuse(*args, **kwargs):
            raise AssertionError("a warm codebook_dir computed a stored value")

        for name in ("fit_whitener", "train_kmeans", "compute_lfbe", "extract_env_embeddings"):
            monkeypatch.setattr(data, name, refuse)
        assert run_stages() == first


class TestDerivedFileKeys:
    """A stale whitener or codebook pair is refitted by the stages that read
    the training corpus, and a checkpoint trained on other ones is rejected
    with one line naming it and the file."""

    def test_retokenize_with_more_audio_centers_refits_the_codebooks(self, tmp_path,
                                                                     corpus16):
        lines = TOY_CFG.read_text().splitlines() + [
            f"paths.data_dir = {corpus16}", f"paths.out_dir = {tmp_path / 'out'}"]
        assert run_tokenize(parse_config_lines(lines))["vocab_size"] == 24
        summary = run_tokenize(parse_config_lines(lines + ["tokenize.k_audio = 64"]))
        assert summary["vocab_size"] == 80
        assert load_codebook(summary["audio_codebook"]).centers.shape == (64, 192)
        assert load_codebook(summary["video_codebook"]).vocab_offset == 64

    def mismatch(self, ckpt, path, kind):
        return (f"checkpoint {ckpt} was not trained with {path} (another {kind} key); "
                f"re-run the stage that wrote it")

    def test_resume_after_a_codebook_refit_is_rejected(self, tmp_path, corpus16, capsys):
        cfg = toy_cfg(corpus16, tmp_path / "out", max_steps=2, checkpoint_every=2)
        run_pretraining(cfg)
        ckpt = tmp_path / "step2.ckpt"
        shutil.copy(cfg.pretrain_ckpt_path(), ckpt)
        # the vocabulary stays 8 + 16, so only the codebook key tells them apart
        refit = replace(cfg, max_steps=4, tokenize=replace(cfg.tokenize, max_iters=3))
        with pytest.raises(ValueError) as err:
            run_pretraining(refit, resume=str(ckpt))
        assert str(err.value) == self.mismatch(ckpt, cfg.codebook_path() / "audio.cb",
                                               "audio_codebook")

    def test_other_clips_refit_the_video_codebook_and_reject_a_resume(self, tmp_path,
                                                                      corpus16, capsys):
        """Corpus B is corpus A with every clip x replaced by clip(1 - x, 0, 1):
        the same audio, other video. Its video codebook is refitted, and a
        checkpoint trained on A's is rejected."""
        cfg = toy_cfg(corpus16, tmp_path / "out", max_steps=2, checkpoint_every=2)
        run_pretraining(cfg)
        audio, video = cfg.codebook_path() / "audio.cb", cfg.codebook_path() / "video.cb"
        before = audio.read_bytes(), video.read_bytes()
        other = tmp_path / "other"
        shutil.copytree(corpus16, other)
        for clip in other.rglob("*.clip"):
            write_array(clip, np.clip(1.0 - read_raw_array(clip), 0.0, 1.0))
        ckpt = cfg.pretrain_ckpt_path()
        with pytest.raises(ValueError) as err:
            run_pretraining(replace(cfg, paths=replace(cfg.paths, data_dir=str(other))),
                            resume=str(ckpt))
        assert str(err.value) == self.mismatch(ckpt, video, "video_codebook")
        fresh = toy_cfg(other, tmp_path / "fresh")
        run_tokenize(fresh)
        assert audio.read_bytes() == before[0]
        assert video.read_bytes() == (fresh.codebook_path() / "video.cb").read_bytes()
        assert video.read_bytes() != before[1]

    def test_asr_training_rejects_env_checkpoint_of_another_whitener(self, tmp_path,
                                                                     corpus16, capsys):
        cfg = toy_cfg(corpus16, tmp_path / "out", max_steps=2, checkpoint_every=2)
        run_pretraining(cfg)
        other = tmp_path / "other"
        write_corpus(generate_synthetic_corpus(4, seed=5), other)
        cfg = replace(cfg, paths=replace(cfg.paths, data_dir=str(other)))
        with pytest.raises(ValueError) as err:
            run_asr_training(cfg)
        assert str(err.value) == self.mismatch(cfg.pretrain_ckpt_path(),
                                               cfg.codebook_path() / "whitener.bin",
                                               "whitener")
        assert not (cfg.out_path() / "train_asr.log").exists()

    def test_eval_rejects_a_refitted_or_old_format_whitener(self, tmp_path, corpus16,
                                                            capsys):
        cfg = toy_cfg(corpus16, tmp_path / "out", max_steps=2, checkpoint_every=2,
                      eval_every=2, **{"asr.fusion_mode": "self_attention_baseline"})
        run_asr_training(cfg)
        path = cfg.codebook_path() / "whitener.bin"
        whitener = load_whitener(path)
        # another corpus trains in the same codebook_dir
        other = write_corpus(generate_synthetic_corpus(4, seed=5), tmp_path / "other")
        ensure_whitener(cfg.codebook_path(), load_corpus(other))
        with pytest.raises(ValueError) as err:
            run_eval(cfg)
        assert str(err.value) == self.mismatch(cfg.asr_ckpt_path(), path, "whitener")
        write_old_whitener(path, whitener)
        with pytest.raises(ValueError) as err:
            run_eval(cfg)
        assert str(err.value) == f"corrupt whitener {path}: bad magic line"
        assert not (cfg.out_path() / "hypotheses.txt").exists()


class TestPackedDecode:
    """`_decode_corpus` encodes consecutive utterances in packed no-grad
    passes of at most `ENCODE_ROWS` rows; decoding each utterance's encoder
    rows alone is its oracle."""

    FRAMES = [9, 3, 31, 12, 20, 5]  # 4, 1, 15, 5, 9 and 2 encoder rows

    def corpus(self, dtype, mode):
        rng = np.random.default_rng(5)
        model = AsrModel(ConformerConfig(model_dim=8, num_blocks=2, heads=2, conv_kernel=3,
                                         env_dim=4, feature_dim=6, vocab_size=len(SYMBOLS),
                                         dtype=dtype, fusion_mode=mode), seed=3)
        examples = [Utterance(rng.standard_normal((n, 6)), [],
                              rng.standard_normal((n // 3 + 1, 4)))
                    for n in self.FRAMES]
        utts = [SimpleNamespace(label_names=["a"]) for _ in examples]
        return model, utts, examples

    @pytest.mark.parametrize("cap,passes", [(4096, 1), (10, 5), (1, 6)])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("mode", ["cross_attention", "self_attention_baseline"])
    def test_hypotheses_equal_per_utterance_decoding(self, monkeypatch, cap, passes,
                                                     dtype, mode):
        model, utts, examples = self.corpus(dtype, mode)
        want = []
        for ex in examples:
            with ad.no_grad():
                enc = model.encode([ex.features], [ex.env]).data
            want.append(" ".join(SYMBOLS[k] for k in greedy_decode(model, enc)))
        calls = []
        encode = model.encode
        monkeypatch.setattr(model, "encode", lambda f, e: calls.append(len(f)) or encode(f, e))
        monkeypatch.setattr(runner, "ENCODE_ROWS", cap)
        pairs, hyps = runner._decode_corpus(model, utts, examples)
        assert hyps == want
        assert any(hyps)
        assert [hyp for _, hyp in pairs] == [h.split() for h in hyps]
        assert len(calls) == passes and sum(calls) == len(examples)
