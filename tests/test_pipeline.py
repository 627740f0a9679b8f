import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from envasr import features
from envasr.asr.conformer import AsrModel, ConformerConfig
from envasr.env_encoder import (EnvEncoder, EnvEncoderConfig, extract_env_embeddings,
                                parameter_hash)
from envasr.features import compute_lfbe, decode_wav, whiten_clip, write_wav
from envasr.optim import ParameterSet, adam_step
from envasr.pipeline import (config_lines, generate_synthetic_corpus,
                             load_config, load_checkpoint, load_manifest,
                             parse_config_lines, restore_params, run_tokenize,
                             save_checkpoint, write_corpus)
from envasr.pipeline import data
from envasr.pipeline.corpus import (SYMBOL_HZ, SYMBOLS, SyntheticCorpus, SyntheticUtterance,
                                    synth_clip, synth_wave)
from envasr.pipeline.data import (cached_env_embeddings, ensure_codebooks,
                                  ensure_whitener, load_corpus, load_whitener,
                                  save_whitener)
from envasr.features import SAMPLE_RATE, Whitener, fit_whitener
from envasr.quantize import Codebook, load_codebook, save_codebook
from envasr.serialize import ARRAY_MAGIC, read_array, read_raw_array, write_array


TOY_CFG = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"


def fail_replace(src, dst):
    raise OSError("injected failure before the rename")


def write_old_whitener(path, w):
    """`w` as whitener files were written before the container format."""
    d = w.mean.size
    path.write_bytes(f"whitener 2\nmean {d} f64 0\nstd {d} f64 {8 * d}\n".encode()
                     + w.mean.astype("<f8").tobytes() + w.std.astype("<f8").tobytes())


def write_old_codebook(path, cb):
    """`cb` as codebook files were written before the container format."""
    (k, dim), offset = cb.centers.shape, cb.vocab_offset
    path.write_bytes(f"{cb.modality} {k} {dim} {offset} 0\ncenters {k}x{dim} f64 0\n"
                     .encode() + cb.centers.astype("<f8").tobytes())


def tokenize_cfg(out, k_audio=4):
    return parse_config_lines([f"paths.out_dir = {out}", f"tokenize.k_audio = {k_audio}",
                               "tokenize.k_video = 4", "tokenize.max_iters = 2"],
                              check_paths=False)


def fit_codebooks(cfg, utts, whitener):
    audio = [whiten_clip(u.raw_patches, whitener) for u in utts]
    return ensure_codebooks(cfg, utts, audio, whitener.key)


def lookup(cache_dir, name, model, audio):
    return cached_env_embeddings(cache_dir, name, model, audio,
                                 parameter_hash(model.params))


class TestConfig:
    def test_roundtrip_preserves_all_fields(self, tmp_path, corpus_dir):
        cfg = parse_config_lines([
            f"paths.data_dir = {corpus_dir}", "seed = 42", "optimizer.lr = 1e-3",
            "tokenize.k_audio = 8", "tokenize.k_video = 16",
            "asr.fusion_mode = self_attention_baseline",
            f"paths.out_dir = {tmp_path / 'out'}"])
        (tmp_path / "run.cfg").write_text("\n".join(config_lines(cfg)) + "\n")
        assert load_config(tmp_path / "run.cfg") == cfg

    def test_missing_lr_defaults_to_3e4(self, corpus_dir):
        cfg = parse_config_lines([f"paths.data_dir = {corpus_dir}"])
        assert cfg.optimizer.lr == pytest.approx(3e-4)

    def test_negative_batch_size_rejected(self, corpus_dir):
        with pytest.raises(ValueError, match="batch_size"):
            parse_config_lines([f"paths.data_dir = {corpus_dir}",
                                "batch_size = -2"])

    def test_unknown_key_rejected(self, corpus_dir):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_lines([f"paths.data_dir = {corpus_dir}",
                                "optimizer.momentum = 0.9"])

    def test_missing_data_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="data_dir"):
            parse_config_lines([f"paths.data_dir = {tmp_path}/nonexistent"])

    def test_comments_and_blank_lines(self, corpus_dir):
        cfg = parse_config_lines([
            "# a run", "", f"paths.data_dir = {corpus_dir}  # corpus",
            "seed = 5",
        ])
        assert cfg.seed == 5


def micro_env_model(seed=0, dtype="f32"):
    cfg = EnvEncoderConfig(model_dim=8, num_blocks=1, heads=2, vocab_size=6,
                           audio_patch_dim=6, video_patch_dim=12,
                           max_audio_positions=8, max_video_steps=2,
                           max_grid_rows=2, max_grid_cols=2, dtype=dtype)
    return EnvEncoder(cfg, seed=seed)


def train_one_step(params, rng):
    """One Adam step of every trained parameter on random gradients."""
    for _, p in params.items():
        if p.requires_grad:
            p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
    adam_step(params, 1e-3)


def save_trained(path, rng):
    """A micro env model after one Adam step on random gradients, saved at
    step 1 to `path`."""
    model = micro_env_model()
    train_one_step(model.params, rng)
    save_checkpoint(path, model.params, 1, [])
    return model


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path, rng):
        for dtype in ("f32", "f64"):
            model = micro_env_model(dtype=dtype)
            train_one_step(model.params, rng)
            lines = ["seed = 3", "optimizer.lr = 0.0003"]
            p1, p2 = tmp_path / f"a.{dtype}.ckpt", tmp_path / f"b.{dtype}.ckpt"
            save_checkpoint(p1, model.params, 17, lines, "0x1.8p-1 2")
            ckpt = load_checkpoint(p1)
            assert (ckpt.step, ckpt.t, ckpt.loop) == (17, 1, "0x1.8p-1 2")
            assert ckpt.flat[0].dtype == np.dtype("<f4" if dtype == "f32" else "<f8")
            fresh = micro_env_model(seed=9, dtype=dtype)
            restore_params(fresh.params, ckpt)
            save_checkpoint(p2, fresh.params, ckpt.step, ckpt.config_lines, ckpt.loop)
            assert p1.read_bytes() == p2.read_bytes(), dtype

    def test_payload_is_the_flat_buffers(self, tmp_path, rng):
        model = save_trained(tmp_path / "c.ckpt", rng)
        flat = model.params.flat
        payload = np.concatenate([flat.data, flat.m, flat.v]).astype("<f4").tobytes()
        raw = (tmp_path / "c.ckpt").read_bytes()
        assert raw.endswith(b"\n" + payload)
        count, n = len(model.params.names()), flat.data.size
        head = raw[:-len(payload)].decode().splitlines()
        assert head[:8] == ["envasr-checkpoint 3", f"header {6 + count}", "step 1",
                            "adam_t 1", "loop", "keys", "config 0", f"params {count}"]
        assert head[8 + count:] == ["tensors 3 f32", f"data {n}", f"m {n}", f"v {n}"]

    def test_save_makes_no_copy_of_the_buffers(self, tmp_path):
        import tracemalloc
        model = EnvEncoder(EnvEncoderConfig(model_dim=64, num_blocks=2, heads=2), seed=0)
        path = tmp_path / "c.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, model.params, 1, ["seed = 0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 1_000_000
        assert peak < path.stat().st_size / 10

    def test_restore_recovers_values_and_state(self, tmp_path, rng):
        model = save_trained(tmp_path / "c.ckpt", rng)
        other = micro_env_model(seed=5)
        restore_params(other.params, load_checkpoint(tmp_path / "c.ckpt"))
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, other.params[name].data)
            np.testing.assert_array_equal(model.params.views(name).m,
                                          other.params.views(name).m)
        assert other.params.t == 1

    def test_restore_writes_into_flat_buffers(self, tmp_path, rng):
        model = save_trained(tmp_path / "c.ckpt", rng)
        other = micro_env_model(seed=5)
        flat = other.params.flat
        restore_params(other.params, load_checkpoint(tmp_path / "c.ckpt"))
        np.testing.assert_array_equal(flat.data, model.params.flat.data)
        np.testing.assert_array_equal(flat.m, model.params.flat.m)
        np.testing.assert_array_equal(flat.v, model.params.flat.v)
        assert other.params.flat is flat
        for name, p in other.params.items():
            assert np.shares_memory(p.data, flat.data), name

    def test_mismatched_config_shape_error(self, tmp_path):
        model = micro_env_model()
        save_checkpoint(tmp_path / "c.ckpt", model.params, 0, [])
        bigger = EnvEncoder(EnvEncoderConfig(model_dim=16, num_blocks=1, heads=2,
                                             vocab_size=6, audio_patch_dim=6,
                                             video_patch_dim=12), seed=0)
        with pytest.raises(ValueError, match="shape mismatch"):
            restore_params(bigger.params, load_checkpoint(tmp_path / "c.ckpt"))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, micro_env_model().params, 1, ["seed = 3"])
        good = path.read_bytes()
        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError, match="injected"):
            save_checkpoint(path, micro_env_model(seed=5).params, 2, ["seed = 3"])
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]
        assert path.read_bytes() == good
        ckpt = load_checkpoint(path)
        fresh = micro_env_model(seed=9)
        restore_params(fresh.params, ckpt)
        save_checkpoint(tmp_path / "again.ckpt", fresh.params, ckpt.step,
                        ckpt.config_lines)
        assert (tmp_path / "again.ckpt").read_bytes() == good

    def test_restore_into_baseline_restores_every_moment_and_t(self, tmp_path, rng):
        cfg = ConformerConfig(model_dim=8, num_blocks=1, heads=2, conv_kernel=3,
                              env_dim=4, feature_dim=6, vocab_size=3,
                              fusion_mode="self_attention_baseline")
        model = AsrModel(cfg, seed=0)
        assert not model.params["env_adapter.w"].requires_grad
        for _ in range(2):
            train_one_step(model.params, rng)
        save_checkpoint(tmp_path / "c.ckpt", model.params, 2, [])
        fresh = AsrModel(cfg, seed=None)
        for buf in fresh.params.flat:
            buf[...] = 7.0
        restore_params(fresh.params, load_checkpoint(tmp_path / "c.ckpt"))
        assert fresh.params.t == 2
        for name in ("data", "m", "v"):
            np.testing.assert_array_equal(getattr(fresh.params.flat, name),
                                          getattr(model.params.flat, name))
        assert not fresh.params.views("env_adapter.w").m.any()

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_formats_rejected_naming_the_format(self, tmp_path, version):
        path = tmp_path / "old.ckpt"
        path.write_bytes(f"envasr-checkpoint {version}\nstep 3\n".encode())
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path} is checkpoint format {version}, which is no "
                                  f"longer read; re-run the stage that wrote it")

    @pytest.mark.parametrize("data_n, cut, extra", [(0, 4, 0), (1, 0, 4), (-1, 0, -4)])
    def test_payload_length_must_match_table(self, tmp_path, rng, data_n, cut, extra):
        """A truncated payload, or a tensor table whose sizes disagree with
        the payload, is rejected."""
        path = tmp_path / "c.ckpt"
        n = save_trained(path, rng).params.flat.data.size
        raw = path.read_bytes().replace(f"\ndata {n}\n".encode(),
                                        f"\ndata {n + data_n}\n".encode(), 1)
        path.write_bytes(raw[:len(raw) - cut])
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"corrupt checkpoint {path}: the payload holds "
                                  f"{12 * n - cut} bytes, its tensor table needs "
                                  f"{12 * n + extra}")

    @pytest.mark.parametrize("head_b, extra", [("7", 1), ("5", -1)])
    def test_parameter_layout_must_match_arrays(self, tmp_path, rng, head_b, extra):
        path = tmp_path / "c.ckpt"
        n = save_trained(path, rng).params.flat.data.size
        path.write_bytes(path.read_bytes().replace(b"\nhead.b 6\n",
                                                   f"\nhead.b {head_b}\n".encode(), 1))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"corrupt checkpoint {path}: its arrays are not data, "
                                  f"m and v of the {n + extra} values its parameter "
                                  f"layout needs")

    def test_layout_out_of_name_order_rejected(self, tmp_path, rng):
        path = tmp_path / "c.ckpt"
        save_trained(path, rng)
        raw = path.read_bytes()
        swapped = raw.replace(b"\nhead.b 6\nhead.w 8x6\n", b"\nhead.w 8x6\nhead.b 6\n", 1)
        assert swapped != raw
        path.write_bytes(swapped)
        msg = "^corrupt checkpoint: its layout table is not in name order$"
        with pytest.raises(ValueError, match=msg):
            restore_params(micro_env_model().params, load_checkpoint(path))

    def test_unknown_dtype_token_rejected(self, tmp_path, rng):
        path = tmp_path / "c.ckpt"
        save_trained(path, rng)
        path.write_bytes(path.read_bytes().replace(b" f32\n", b" f16\n", 1))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"corrupt checkpoint {path}: unknown dtype token 'f16'"

    def test_diff_reports_header_differences(self, tmp_path, capsys):
        import checkpoint_diff
        params = micro_env_model().params
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(a, params, 1, ["seed = 3", "max_steps = 5"],
                        keys={"whitener": "aa"})
        params.t = 4
        save_checkpoint(b, params, 2, ["seed = 4", "max_steps = 5"], "inf 1",
                        keys={"whitener": "bb", "codebooks": "cc"})
        assert checkpoint_diff.main([a, b]) == 0  # header fields alone
        out = capsys.readouterr().out.splitlines()
        n = len(params.names())
        assert out[:6] == ["header        step: 1 in A, 2 in B",
                           "header        adam_t: 0 in A, 4 in B",
                           "header        loop: '' in A, 'inf 1' in B",
                           "header        key whitener: 'aa' in A, 'bb' in B",
                           "header        config seed: '3' in A, '4' in B",
                           "header        key codebooks: None in A, 'cc' in B"]
        assert out[-1] == (f"{3 * n} identical, 0 differ, 0 only in A, 0 only in B, "
                           f"6 header fields differ")
        c, d = str(tmp_path / "c.ckpt"), str(tmp_path / "d.ckpt")
        params["head.b"].data[0] += 1.0
        save_checkpoint(c, params, 1, ["seed = 3", "max_steps = 5"], keys={"whitener": "aa"})
        assert checkpoint_diff.main([a, c]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"{3 * n - 1} identical, 1 differ, largest rel inf (p.head.b), 0 only in A, "
            f"0 only in B, 1 header fields differ")
        fewer = ParameterSet({name: p.data for name, p in params.items() if name != "head.b"})
        save_checkpoint(d, fewer, 1, ["seed = 3", "max_steps = 5"], keys={"whitener": "aa"})
        assert checkpoint_diff.main([a, d]) == 1
        assert capsys.readouterr().out.splitlines()[-4:-1] == [
            "only in A     m.head.b", "only in A     p.head.b", "only in A     v.head.b"]

    def test_corrupt_manifest_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_checkpoint(path)


class TestSyntheticCorpus:
    def test_same_seed_identical(self):
        a = generate_synthetic_corpus(6, seed=3)
        b = generate_synthetic_corpus(6, seed=3)
        for ua, ub in zip(a.utterances, b.utterances):
            np.testing.assert_array_equal(ua.wave, ub.wave)
            np.testing.assert_array_equal(ua.clip, ub.clip)
            assert ua.label_ids.tolist() == ub.label_ids.tolist()
            assert ua.env_id == ub.env_id

    def test_label_and_duration_invariants(self):
        corpus = generate_synthetic_corpus(20, seed=1)
        for utt in corpus.utterances:
            assert 3 <= utt.label_ids.size <= 10
            assert utt.wave.size == utt.label_ids.size * 1600
            assert utt.clip.shape == (3, 32, 32, 3)
            assert 0 <= utt.env_id < 4

    def test_tone_frequencies_recoverable_by_dft(self):
        corpus = generate_synthetic_corpus(4, seed=2)
        for utt in corpus.utterances:
            if utt.env_id != 0:  # check the clean ones for exact recovery
                continue
            for j, label in enumerate(utt.label_ids):
                seg = utt.wave[j * 1600 : (j + 1) * 1600]
                spectrum = np.abs(np.fft.rfft(seg))
                peak_hz = spectrum.argmax() * SAMPLE_RATE / seg.size
                nearest = int(np.abs(np.array(SYMBOL_HZ) - peak_hz).argmin())
                assert nearest == label

    def test_write_corpus_files(self, tmp_path):
        manifest = write_corpus(generate_synthetic_corpus(16, seed=4), tmp_path / "c")
        lines = manifest.read_text().splitlines()
        assert len(lines) == 16
        entries = load_manifest(manifest)
        assert len(entries) == 16
        for wav, clip, labels in entries:
            assert wav.is_file() and clip is not None and clip.is_file()
            assert all(l in SYMBOLS for l in labels)

    @pytest.mark.parametrize("line,reason", [
        ("utt0000.wav a z b", "no tab between the WAV path and the labels in "
                              "'utt0000.wav a z b'"),
        ("utt0000.wav\t ", "no labels after the tab"),
        ("utt0000.wav\ta z b", "unknown label token 'z'"),
        ("\ta b", "no WAV path before the tab"),
        (" utt0000.wav \ta b", "spaces around the WAV path ' utt0000.wav '"),
        ("utt0009.wav\ta b", "no WAV file 'utt0009.wav'"),
    ], ids=["no-tab", "no-labels", "unknown-label", "no-path", "spaced-path", "missing-wav"])
    def test_bad_manifest_line_names_the_manifest_and_line(self, tmp_path, line, reason):
        manifest = write_corpus(generate_synthetic_corpus(2, seed=5), tmp_path)
        good = manifest.read_text().splitlines()
        manifest.write_text("\n".join([good[0], "", line, good[1]]) + "\n")
        with pytest.raises(ValueError) as err:
            load_manifest(manifest)
        assert str(err.value) == f"{manifest}: line 3: {reason}"

    def test_repeated_utterance_name_rejected(self, tmp_path):
        """Two WAVs with one file stem would write two token lines of one
        name and share one env-cache entry."""
        for sub, seed in (("a", 5), ("b", 6)):
            write_corpus(generate_synthetic_corpus(1, seed=seed), tmp_path / sub)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a/utt0000.wav\ta b\nb/utt0000.wav\tc\n")
        with pytest.raises(ValueError) as err:
            load_manifest(manifest)
        assert str(err.value) == f"{manifest}: line 2: utterance name 'utt0000' repeats line 1"

    def test_written_wave_reloads(self, tmp_path):
        corpus = generate_synthetic_corpus(2, seed=5)
        manifest = write_corpus(corpus, tmp_path / "c")
        wav, _, _ = load_manifest(manifest)[0]
        samples = decode_wav(wav.read_bytes())
        np.testing.assert_allclose(samples, corpus.utterances[0].wave,
                                   atol=1.0 / 32768)


class TestContainers:
    def test_array_roundtrip(self, tmp_path, rng):
        arr = rng.standard_normal((3, 4, 5))
        write_array(tmp_path / "a.arr", arr, key="ab cd")
        back = read_array(tmp_path / "a.arr")
        assert back.key == "ab cd" and back.array.dtype == np.float32
        np.testing.assert_array_equal(back.array, arr.astype(np.float32))
        write_array(tmp_path / "a.arr", arr)
        assert read_array(tmp_path / "a.arr").key == ""

    @pytest.mark.parametrize("write,read", [
        (write_array, read_raw_array),
        (lambda p, a: save_whitener(p, Whitener(a[0], a[1] + 2.0)),
         lambda p: load_whitener(p).std),
        (lambda p, a: save_codebook(p, Codebook(a, "audio", 0)),
         lambda p: load_codebook(p).centers),
    ])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, rng,
                                               write, read):
        path = tmp_path / "artifact"
        write(path, rng.standard_normal((2, 3)))
        good = path.read_bytes()
        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError, match="injected"):
            write(path, rng.standard_normal((2, 3)))
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
        assert path.read_bytes() == good
        read(path)

    @pytest.mark.parametrize("write,read,field,edit,message", [
        (lambda p, a: save_whitener(p, Whitener(a[0], a[1], key="ab")), load_whitener,
         b"\nkey ab\n", b"\nkex ab\n", "whitener {}: expected 'key ...', got 'kex ab'"),
        (lambda p, a: save_whitener(p, Whitener(a[0], a[1], key="ab")), load_whitener,
         b"\nmean 3\n", b"\nmeam 3\n", "whitener {}: its arrays are meam, std, not mean, std"),
        (lambda p, a: save_codebook(p, Codebook(a, "video", 4)), load_codebook,
         b"\nmodality video\n", b"\nmodalty video\n",
         "codebook {}: expected 'modality ...', got 'modalty video'"),
    ], ids=["whitener-header", "whitener-arrays", "codebook-header"])
    def test_malformed_container_names_the_file(self, tmp_path, rng, write, read, field,
                                                edit, message):
        path = tmp_path / "artifact"
        write(path, rng.standard_normal((2, 3)))
        raw = path.read_bytes()
        assert field in raw
        path.write_bytes(raw.replace(field, edit, 1))
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value) == "corrupt " + message.format(path)

    def test_array_file_of_the_old_format_rejected(self, tmp_path):
        """An array file as clips and env-cache entries were written before
        the container: a ``ndim d0 ... dn`` line, then the float32 payload."""
        (tmp_path / "old.arr").write_bytes(b"2 3 2\n" + bytes(24))
        with pytest.raises(ValueError) as err:
            read_raw_array(tmp_path / "old.arr")
        assert str(err.value) == f"not an {ARRAY_MAGIC} file"

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "a.arr"
        write_array(path, rng.standard_normal((3, 2)))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError) as err:
            read_raw_array(path)
        assert str(err.value) == "the payload holds 32 bytes, its tensor table needs 24"


class TestDataPlumbing:
    def test_load_corpus_shapes(self, corpus_dir):
        utts = load_corpus(corpus_dir / "manifest.tsv")
        assert len(utts) == 8
        for u in utts:
            assert u.raw_patches.shape[1] == 192
            assert u.video_patches.shape == (4, 2304)
            assert u.video_grid == (1, 2, 2)
            assert u.label_ids.size == len(u.label_names)

    @pytest.mark.parametrize("suffix,write,message", [
        (".wav", lambda p: write_wav(p, np.zeros(100)),
         "{}: waveform too short: 100 < 400 samples"),
        (".clip", lambda p: write_array(p, np.zeros((4, 16, 16, 3))),
         "{}: frame count 4 not divisible by 3"),
        (".wav", lambda p: p.write_bytes(b"not a wav file, just text"),
         "{}: not a WAV file: file does not start with RIFF id"),
        (".wav", lambda p: p.write_bytes(b""), "{}: the file ends inside its WAV header"),
        (".wav", lambda p: p.write_bytes(p.read_bytes()[:30]),
         "{}: the file ends inside its WAV header"),
        (".wav", lambda p: (write_wav(p, np.zeros(1000)),
                            p.write_bytes(p.read_bytes()[:-1001])),
         "{}: the file holds 999 of the 2000 sample bytes its WAV header declares"),
        (".clip", lambda p: p.write_bytes(b"3 32 32 3\n" + bytes(4 * 9216)),
         f"{{}}: not an {ARRAY_MAGIC} file"),
        (".clip", lambda p: p.write_bytes(p.read_bytes().replace(b"3x32x32x3", b"3x32x\xe2x3")),
         "{}: 'utf-8' codec can't decode byte 0xe2 in position 11: invalid continuation byte"),
        (".clip", lambda p: p.write_bytes(p.read_bytes()[:-4]),
         "{}: the payload holds 36860 bytes, its tensor table needs 36864"),
    ], ids=["wav", "clip", "wav-garbage", "wav-empty", "wav-cut-header", "wav-cut-samples",
            "clip-old-format", "clip-header-non-utf8", "clip-cut"])
    def test_load_corpus_names_the_bad_input_file(self, tmp_path, suffix, write, message):
        corpus = generate_synthetic_corpus(2, seed=5)
        manifest = write_corpus(corpus, tmp_path)
        path = tmp_path / f"{corpus.utterances[1].name}{suffix}"
        write(path)
        with pytest.raises(ValueError) as err:
            load_corpus(manifest)
        assert str(err.value) == message.format(path)

    def test_whitener_roundtrip(self, tmp_path, rng):
        w = Whitener(rng.standard_normal(5), rng.uniform(0.5, 2.0, 5))
        save_whitener(tmp_path / "w.bin", w)
        back = load_whitener(tmp_path / "w.bin")
        np.testing.assert_allclose(back.mean, w.mean, atol=1e-7)
        np.testing.assert_allclose(back.std, w.std, atol=1e-7)

    def test_ensure_whitener_is_stable(self, tmp_path, corpus_dir):
        utts = load_corpus(corpus_dir / "manifest.tsv")
        a = ensure_whitener(tmp_path / "cb", utts)
        b = ensure_whitener(tmp_path / "cb", utts)  # second call loads the file
        np.testing.assert_array_equal(a.mean.astype(np.float32),
                                      b.mean.astype(np.float32))

    def test_whitener_refitted_for_another_corpus(self, tmp_path, corpus_dir):
        other = write_corpus(generate_synthetic_corpus(4, seed=5), tmp_path / "b")
        utts_a, utts_b = load_corpus(corpus_dir / "manifest.tsv"), load_corpus(other)
        a = ensure_whitener(tmp_path / "cb", utts_a)
        b = ensure_whitener(tmp_path / "cb", utts_b)
        want = fit_whitener(np.concatenate([u.raw_patches for u in utts_b]))
        for w in (b, load_whitener(tmp_path / "cb" / "whitener.bin")):
            np.testing.assert_array_equal(w.mean, want.mean)
            np.testing.assert_array_equal(w.std, want.std)
            assert w.key == b.key != a.key

    def test_old_format_files_are_refitted(self, tmp_path, corpus_dir):
        utts = load_corpus(corpus_dir / "manifest.tsv")
        cfg = tokenize_cfg(tmp_path)
        whitener = ensure_whitener(cfg.codebook_path(), utts)
        codebooks = fit_codebooks(cfg, utts, whitener)
        path = cfg.codebook_path() / "whitener.bin"
        write_old_whitener(path, whitener)
        for cb in codebooks:
            write_old_codebook(cfg.codebook_path() / f"{cb.modality}.cb", cb)
        assert ensure_whitener(cfg.codebook_path(), utts).key == whitener.key
        assert path.read_bytes().startswith(b"envasr-whitener 1\n")
        for cb, again in zip(codebooks, fit_codebooks(cfg, utts, whitener)):
            np.testing.assert_array_equal(again.centers, cb.centers)
            assert again.key == cb.key
            raw = (cfg.codebook_path() / f"{cb.modality}.cb").read_bytes()
            assert raw.startswith(b"envasr-codebook 1\n")

    def test_mixed_codebook_pair_is_refitted(self, tmp_path, corpus_dir):
        """A new audio.cb beside an old video.cb, as a rewrite cut short
        between the two files leaves them: the video codebook is trained
        again, and the audio one is kept."""
        utts = load_corpus(corpus_dir / "manifest.tsv")
        small, big = tokenize_cfg(tmp_path), tokenize_cfg(tmp_path, k_audio=6)
        whitener = ensure_whitener(small.codebook_path(), utts)
        fit_codebooks(small, utts, whitener)
        video = small.codebook_path() / "video.cb"
        old_video = video.read_bytes()
        want = fit_codebooks(big, utts, whitener)
        video.write_bytes(old_video)
        cb_audio, cb_video = fit_codebooks(big, utts, whitener)
        assert (cb_audio.k, cb_video.vocab_offset) == (6, 6)
        assert (cb_audio.key, cb_video.key) == (want[0].key, want[1].key)
        np.testing.assert_array_equal(cb_video.centers, want[1].centers)
        assert video.read_bytes() != old_video

    @pytest.mark.parametrize("override, message", [
        ("tokenize.k_audio = 12",
         "corpus has 9 audio patch rows, fewer than tokenize.k_audio = 12"),
        ("", "corpus has 4 video patch rows, fewer than tokenize.k_video = 16"),
    ], ids=["audio", "video"])
    def test_corpus_too_small_for_its_codebooks_names_the_key(self, tmp_path, override,
                                                              message):
        write_corpus(generate_synthetic_corpus(1, seed=11), tmp_path / "data")
        lines = TOY_CFG.read_text().splitlines() + [
            f"paths.data_dir = {tmp_path / 'data'}", f"paths.out_dir = {tmp_path / 'out'}",
            override]
        cfg = parse_config_lines(lines)
        with pytest.raises(ValueError) as err:
            run_tokenize(cfg)
        assert str(err.value) == message
        assert not (cfg.codebook_path() / "audio.cb").exists()  # no k-means ran

    def test_env_cache_bitwise_stable(self, tmp_path, rng):
        model = micro_env_model()
        audio = rng.standard_normal((5, 6)).astype(np.float32)
        a = lookup(tmp_path / "cache", "u0", model, audio)
        b = lookup(tmp_path / "cache", "u0", model, audio)
        np.testing.assert_array_equal(a, b)

    def test_env_cache_rewrites_entry_for_other_patches_or_model(self, tmp_path, rng):
        cache = tmp_path / "cache"
        first = rng.standard_normal((5, 6))
        lookup(cache, "u0", micro_env_model(), first)
        other = rng.standard_normal((7, 6))  # same name, another utterance
        env = lookup(cache, "u0", micro_env_model(), other)
        assert env.shape == (7, 8)
        retrained = micro_env_model(seed=1)  # same patches, other weights
        env = lookup(cache, "u0", retrained, other)
        want = extract_env_embeddings(retrained, other).astype(np.float32)
        np.testing.assert_array_equal(env, want)
        np.testing.assert_array_equal(read_raw_array(cache / "u0.env"), want)

    def test_env_cache_entry_reads_as_its_embeddings(self, tmp_path, rng):
        """The reader contract of perfbench's env-cache check: `read_raw_array`
        of `<name>.env` returns the embeddings, one row per audio patch, and
        the entry is the cache's only file."""
        cache = tmp_path / "cache"
        audio = rng.standard_normal((5, 6))
        want = lookup(cache, "u0", micro_env_model(), audio)
        np.testing.assert_array_equal(read_raw_array(cache / "u0.env"), want)
        assert read_raw_array(cache / "u0.env").shape[0] == audio.shape[0]
        assert [p.name for p in cache.iterdir()] == ["u0.env"]

    @pytest.mark.parametrize("damage", ["trailing bytes", "truncated", "bad header",
                                        "no entry", "unreadable key"])
    def test_env_cache_recomputes_an_unreadable_entry(self, tmp_path, rng, damage):
        cache, model = tmp_path / "cache", micro_env_model()
        audio = rng.standard_normal((5, 6)).astype(np.float32)
        want = lookup(cache, "u0", model, audio)
        entry = cache / "u0.env"
        good = entry.read_bytes()
        if damage == "trailing bytes":
            entry.write_bytes(good + bytes(8))
        elif damage == "truncated":
            entry.write_bytes(good[:-4])
        elif damage == "bad header":
            entry.write_bytes(b"x" + good)
        elif damage == "no entry":
            entry.unlink()
        else:
            entry.write_bytes(good.replace(b"\nkey ", b"\nkey \xff\xfe", 1))
        np.testing.assert_array_equal(lookup(cache, "u0", model, audio), want)
        assert entry.read_bytes() == good  # rewritten
        np.testing.assert_array_equal(lookup(cache, "u0", model, audio), want)


def write_long_corpus(root):
    """Two utterances of 64 and 5 tones: 638 and 48 LFBE frames, the first
    spanning several front-end blocks."""
    rng = np.random.default_rng(0)
    utts = []
    for i, n_symbols in enumerate((64, 5)):
        labels = rng.integers(0, len(SYMBOLS), n_symbols)
        utts.append(SyntheticUtterance(f"long{i}", labels, 1, synth_wave(labels, 1, rng),
                                       synth_clip(1, rng)))
    return write_corpus(SyntheticCorpus(utts, seed=0), root)


class TestFeaturesFile:
    """`load_corpus` with a cache_dir reads a corpus's patches from its
    features file, the computed ones byte for byte, and recomputes them when
    the file is missing, does not read, or holds another key."""

    @pytest.fixture
    def front_end_calls(self, monkeypatch):
        """The number of utterances the front end has run on, as a list."""
        calls = []

        def counted(samples):
            calls.append(1)
            return compute_lfbe(samples)

        monkeypatch.setattr(data, "compute_lfbe", counted)
        return calls

    @staticmethod
    def stored_files(cb_dir):
        return sorted((cb_dir / "features").iterdir())

    @pytest.mark.parametrize("long", [False, True], ids=["gen-corpus", "multi-block"])
    def test_warm_load_equals_cold_load(self, tmp_path, corpus_dir, front_end_calls, long):
        manifest = write_long_corpus(tmp_path / "c") if long else corpus_dir / "manifest.tsv"
        cold = load_corpus(manifest, tmp_path / "cb")
        assert not (tmp_path / "cb").exists()  # only the stage writes the file
        cold.store_features()
        ran = len(front_end_calls)
        warm = load_corpus(manifest, tmp_path / "cb")
        assert len(front_end_calls) == ran == len(cold)  # the warm load ran no front end
        if long:
            assert cold[0].raw_patches.shape[0] * features.STACK >= 600
        for c, w, plain in zip(cold, warm, load_corpus(manifest)):
            assert w.raw_patches.dtype == np.float64
            assert w.raw_patches.shape == c.raw_patches.shape == plain.raw_patches.shape
            assert w.raw_patches.tobytes() == c.raw_patches.tobytes() \
                == plain.raw_patches.tobytes()
            assert (w.name, w.label_names, w.video_grid) == (c.name, c.label_names,
                                                             c.video_grid)
            np.testing.assert_array_equal(w.video_patches, c.video_patches)
        (path,) = self.stored_files(tmp_path / "cb")
        assert path.read_bytes().startswith(f"envasr-features 1\nheader 1\n"
                                            f"key {path.stem}\n".encode())

    def test_changed_sample_misses_and_is_stored_anew(self, tmp_path, front_end_calls):
        manifest = write_corpus(generate_synthetic_corpus(3, seed=5), tmp_path / "c")
        cb_dir = tmp_path / "cb"
        before = load_corpus(manifest, cb_dir)
        before.store_features()
        wav = tmp_path / "c" / "utt0001.wav"
        samples = decode_wav(wav.read_bytes())
        samples[800] = -samples[800] if samples[800] else 0.5
        write_wav(wav, samples)
        after = load_corpus(manifest, cb_dir)
        assert len(front_end_calls) == 6
        assert after[1].raw_patches.tobytes() != before[1].raw_patches.tobytes()
        after.store_features()
        assert len(self.stored_files(cb_dir)) == 2
        again = load_corpus(manifest, cb_dir)
        assert len(front_end_calls) == 6
        for a, b in zip(after, again):
            assert a.raw_patches.tobytes() == b.raw_patches.tobytes()

    @pytest.mark.parametrize("damage", ["truncated", "other-key", "not-a-container"])
    def test_bad_file_is_recomputed_and_replaced(self, tmp_path, corpus_dir, front_end_calls,
                                                 damage):
        manifest = corpus_dir / "manifest.tsv"
        cb_dir = tmp_path / "cb"
        load_corpus(manifest, cb_dir).store_features()
        (path,) = self.stored_files(cb_dir)
        good = path.read_bytes()
        path.write_bytes(good[:-8] if damage == "truncated"
                         else good.replace(f"key {path.stem}".encode(), b"key " + b"0" * 64)
                         if damage == "other-key" else b"not a features file\n")
        utts = load_corpus(manifest, cb_dir)
        assert len(front_end_calls) == 16
        utts.store_features()
        assert self.stored_files(cb_dir) == [path] and path.read_bytes() == good

    def test_new_front_end_version_misses(self, tmp_path, corpus_dir, front_end_calls,
                                          monkeypatch):
        manifest = corpus_dir / "manifest.tsv"
        cb_dir = tmp_path / "cb"
        load_corpus(manifest, cb_dir).store_features()
        monkeypatch.setattr(features, "FRONT_END_VERSION", features.FRONT_END_VERSION + 1)
        load_corpus(manifest, cb_dir).store_features()
        assert len(front_end_calls) == 16
        assert len(self.stored_files(cb_dir)) == 2


class TestArtifactHashListings:
    def test_compare_counts_identical_files_per_case(self, tmp_path, capsys):
        import artifact_hashes
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("11  toy/x.ckpt\n22  toy/y.log\n33  long/z.cb\n")
        b.write_text("11  toy/x.ckpt\n99  toy/y.log\n33  long/z.cb\n44  long/w.tsv\n")
        assert artifact_hashes.main(["--compare", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "long  1/2 identical", "toy   1/2 identical", "all   2/4 identical",
            f"only in {b}: long/w.tsv", "differs: toy/y.log"]
        assert artifact_hashes.main(["--compare", str(a), str(a)]) == 0

    def test_compare_runs_without_envasr_on_the_path(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("11  toy/x.ckpt\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        script = Path(__file__).resolve().parent / "artifact_hashes.py"
        done = subprocess.run([sys.executable, str(script), "--compare", str(a), str(a)],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == ["toy  1/1 identical", "all  1/1 identical"]
