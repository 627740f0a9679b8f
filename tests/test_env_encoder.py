import hashlib
from dataclasses import replace

import numpy as np
import pytest

from envasr import autodiff as ad
from envasr.autodiff import Tensor
from envasr.env_encoder import (EnvEncoder, EnvEncoderConfig, MultimodalBatch,
                                PackedBatch, draw_batch_mask, extract_env_embeddings,
                                masked_accuracy, parameter_hash, pretrain_step)
from envasr.masking import MaskSchedule, mask_params_at
from envasr.optim import AdamHyper

from oracles import (check_gradients, embed_per_utterance,
                     masked_predictions_per_utterance, pretrain_losses_all_rows,
                     pretrain_losses_per_utterance, pretrain_step_per_utterance)


def toy_config(**kw):
    base = dict(model_dim=16, num_blocks=2, heads=4, vocab_size=24,
                audio_patch_dim=12, video_patch_dim=20,
                max_audio_positions=32, max_video_steps=8,
                max_grid_rows=4, max_grid_cols=4)
    base.update(kw)
    return EnvEncoderConfig(**base)


def toy_batch(rng, cfg, n_audio=5, grid=(2, 2, 2), mask=None):
    n_video = grid[0] * grid[1] * grid[2]
    return MultimodalBatch(
        audio_patches=rng.standard_normal((n_audio, cfg.audio_patch_dim)),
        video_patches=rng.standard_normal((n_video, cfg.video_patch_dim)),
        video_grid=grid,
        labels=rng.integers(0, cfg.vocab_size, n_video + n_audio),
        mask=mask,
    )


class TestEmbedding:
    def test_sequence_length_is_video_plus_audio(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        batch = toy_batch(rng, cfg, n_audio=5, grid=(2, 2, 2))
        out = model.embed([batch])
        assert out.data.shape == (13, cfg.model_dim)  # 8 video + 5 audio

    def test_modality_embedding_separates_identical_patches(self, rng):
        cfg = toy_config(audio_patch_dim=10, video_patch_dim=10)
        model = EnvEncoder(cfg, seed=0)
        patch = rng.standard_normal((1, 10))
        as_audio = model.embed([MultimodalBatch(audio_patches=patch)]).data[0]
        as_video = model.embed([MultimodalBatch(audio_patches=patch.copy(),
                                                video_patches=patch.copy(),
                                                video_grid=(1, 1, 1))]).data[0]
        assert np.abs(as_audio - as_video).max() > 1e-6

    def test_position_embedding_separates_identical_patches(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        patch = rng.standard_normal(cfg.audio_patch_dim)
        audio = np.tile(patch, (4, 1))
        out = model.embed([MultimodalBatch(audio_patches=audio)]).data
        assert np.abs(out[0] - out[3]).max() > 1e-6

    def test_masked_rows_keep_position_identity(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        audio = np.tile(rng.standard_normal(cfg.audio_patch_dim), (4, 1))
        mask = np.array([True, False, False, True])
        out = model.embed([MultimodalBatch(audio_patches=audio,
                                           labels=np.zeros(4, np.int64), mask=mask)]).data
        # both masked, but different positions -> different rows
        assert np.abs(out[0] - out[3]).max() > 1e-6

    def test_dim_mismatch_rejected(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        with pytest.raises(ValueError, match="audio patch dimension"):
            model.embed([MultimodalBatch(audio_patches=rng.standard_normal((3, 7)))])


class TestEncoderForward:
    def test_output_shape_for_any_length(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        for length in (1, 2, 9):
            out = model.encoder_forward(Tensor(rng.standard_normal((length, 16))))
            assert out.data.shape == (length, 16)

    def test_permutation_equivariance(self, rng):
        model = EnvEncoder(toy_config(), seed=0)
        x = rng.standard_normal((7, 16))
        perm = rng.permutation(7)
        out = model.encoder_forward(Tensor(x)).data
        out_perm = model.encoder_forward(Tensor(x[perm])).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)


class TestMlmLoss:
    def test_fresh_model_loss_near_log_vocab(self, rng):
        losses = []
        for seed in range(5):
            cfg = toy_config(model_dim=32, vocab_size=24)
            model = EnvEncoder(cfg, seed=seed)
            batch = toy_batch(rng, cfg, n_audio=12)
            batch.mask = np.zeros(batch.seq_len, bool)
            batch.mask[::2] = True
            losses.append(float(model.forward_loss(batch).data))
        mean = np.mean(losses)
        assert abs(mean - np.log(24)) / np.log(24) < 0.15

    def test_forced_one_hot_logits(self, rng):
        labels = rng.integers(0, 24, 10)
        mask = rng.random(10) < 0.5
        mask[0] = True
        logits = np.zeros((10, 24))
        logits[np.arange(10), labels] = 25.0
        loss = ad.cross_entropy(Tensor(logits[mask]), labels[mask])
        assert float(loss.data) < 1e-3

    def test_loss_ignores_unmasked_positions(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=1)
        mask = np.array([True, False] * 6 + [True])
        batch = toy_batch(rng, cfg, n_audio=5, mask=mask)
        base = float(model.forward_loss(batch).data)
        flipped = batch.labels.copy()
        unmasked = np.flatnonzero(~mask)
        flipped[unmasked] = (flipped[unmasked] + 1) % cfg.vocab_size
        batch.labels = flipped
        assert float(model.forward_loss(batch).data) == pytest.approx(base, abs=1e-12)

    def test_loss_depends_on_masked_labels(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=1)
        mask = np.array([True, False] * 6 + [True])
        batch = toy_batch(rng, cfg, n_audio=5, mask=mask)
        base = float(model.forward_loss(batch).data)
        masked = np.flatnonzero(mask)
        batch.labels[masked[0]] = (batch.labels[masked[0]] + 1) % cfg.vocab_size
        assert float(model.forward_loss(batch).data) != pytest.approx(base, abs=1e-9)

    def test_requires_masked_positions(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        batch = toy_batch(rng, cfg, mask=np.zeros(13, bool))
        with pytest.raises(ValueError, match="masked position"):
            model.forward_loss(batch)


class TestPretrainStep:
    def test_loss_decreases_on_fixed_batch(self, rng):
        cfg = toy_config(model_dim=32)
        model = EnvEncoder(cfg, seed=0)
        batch = toy_batch(rng, cfg, n_audio=8)
        hyper = AdamHyper(lr=1e-3)
        losses = [pretrain_step(model, [batch], hyper, step, seed=3)[0]
                  for step in range(100)]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_same_seed_same_loss_sequence(self, rng):
        cfg = toy_config()
        batch = toy_batch(rng, cfg)
        runs = []
        for _ in range(2):
            model = EnvEncoder(cfg, seed=4)
            hyper = AdamHyper()
            runs.append([pretrain_step(model, [batch], hyper, s, seed=9)[0]
                         for s in range(5)])
        assert runs[0] == runs[1]

    def test_perplexity_is_exp_loss(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        loss, ppl = pretrain_step(model, [toy_batch(rng, cfg)], AdamHyper(), 0, 1)
        assert ppl == pytest.approx(np.exp(loss))

    def test_mask_width_changes_across_stage_boundary(self):
        sched = MaskSchedule()
        assert mask_params_at(sched, 9999)[0] == 1
        assert mask_params_at(sched, 10000)[0] == 3


def mixed_batches(rng, cfg):
    """Four utterances of different lengths, one of them audio-only."""
    return [toy_batch(rng, cfg, n_audio=5, grid=(2, 2, 2)),
            toy_batch(rng, cfg, n_audio=9, grid=(1, 2, 2)),
            MultimodalBatch(audio_patches=rng.standard_normal((3, cfg.audio_patch_dim)),
                            labels=rng.integers(0, cfg.vocab_size, 3)),
            toy_batch(rng, cfg, n_audio=1, grid=(1, 1, 1))]


def with_masks(batches, seed=0):
    rng = np.random.default_rng(seed)
    return [replace(b, mask=draw_batch_mask(b, 1, 0.4, rng)) for b in batches]


def gradients(model, loss):
    for _, p in model.params.items():
        p.grad = None
    loss.backward()
    return {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for name, p in model.params.items()}


class TestPackedStep:
    """One packed graph per step against the per-utterance oracle."""

    def test_loss_and_gradients_match_per_utterance_graphs(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=2)
        batches = with_masks(mixed_batches(rng, cfg))
        packed = model.forward_loss(PackedBatch(batches))
        losses = pretrain_losses_per_utterance(model, batches)
        oracle = ad.mul(sum(losses[1:], losses[0]), 1.0 / len(losses))
        assert float(packed.data) == pytest.approx(float(oracle.data), rel=1e-10, abs=0)
        got, want = gradients(model, packed), gradients(model, oracle)
        scale = max(np.abs(g).max() for g in want.values())
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10,
                                       atol=1e-10 * scale, err_msg=name)

    @pytest.mark.parametrize("masks", ["drawn", "one row each", "every row"])
    def test_loss_and_gradients_match_all_rows_graphs(self, rng, masks):
        """The last block computes only the masked rows: in f64 that is the
        all-rows graph's loss and gradients up to rounding."""
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=2)
        batches = with_masks(mixed_batches(rng, cfg))
        if masks != "drawn":
            for b in batches:
                b.mask = np.full(b.seq_len, masks == "every row")
                b.mask[rng.integers(b.seq_len)] = True
        packed = model.forward_loss(PackedBatch(batches))
        losses = pretrain_losses_all_rows(model, batches)
        oracle = ad.mul(sum(losses[1:], losses[0]), 1.0 / len(losses))
        assert float(packed.data) == pytest.approx(float(oracle.data), rel=1e-10, abs=0)
        got, want = gradients(model, packed), gradients(model, oracle)
        scale = max(np.abs(g).max() for g in want.values())
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10,
                                       atol=1e-10 * scale, err_msg=name)

    def test_other_utterances_losses_ignore_a_perturbed_one(self, rng, monkeypatch):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        batches = with_masks(mixed_batches(rng, cfg))
        mlm_logits, seen = model.mlm_logits, []

        def recording(encoded):
            seen.append(mlm_logits(encoded))
            return seen[-1]

        monkeypatch.setattr(model, "mlm_logits", recording)

        def per_utterance_losses(items):
            model.forward_loss(PackedBatch(items))
            logits, losses, lo = seen.pop().data, [], 0
            for b in items:
                rows = np.flatnonzero(b.mask)
                losses.append(ad.cross_entropy(Tensor(logits[lo : lo + rows.size]),
                                               b.labels[rows]).data)
                lo += rows.size
            assert lo == logits.shape[0]
            return losses

        before = per_utterance_losses(batches)
        changed = list(batches)
        noise = rng.standard_normal(batches[1].video_patches.shape)
        changed[1] = replace(batches[1], video_patches=batches[1].video_patches + noise)
        after = per_utterance_losses(changed)
        for i, (a, b) in enumerate(zip(after, before)):
            if i == 1:
                assert abs(a - b) > 1e-6
            else:
                assert a.tobytes() == b.tobytes(), i

    def test_forward_loss_names_an_utterance_without_masked_rows(self, rng):
        cfg = toy_config()
        batches = with_masks(mixed_batches(rng, cfg))
        batches[2].mask = np.zeros(batches[2].seq_len, bool)
        with pytest.raises(ValueError, match="^forward_loss: utterance 2 of 4 has no "
                                             "masked position$"):
            EnvEncoder(cfg, seed=0).forward_loss(PackedBatch(batches))

    def test_step_draws_masks_like_the_per_utterance_step(self, rng):
        cfg = toy_config()
        batches = mixed_batches(rng, cfg)
        for step in (0, 1, 7):
            packed = pretrain_step(EnvEncoder(cfg, seed=3), batches, AdamHyper(), step, 5)
            oracle = pretrain_step_per_utterance(EnvEncoder(cfg, seed=3), batches,
                                                 AdamHyper(), step, 5)
            assert packed[0] == pytest.approx(oracle[0], rel=1e-10, abs=0)

    def test_batch_of_one_is_bit_identical_in_f32(self, rng):
        cfg = toy_config(dtype="f32")
        batch = toy_batch(rng, cfg)
        models = [EnvEncoder(cfg, seed=1), EnvEncoder(cfg, seed=1)]
        for step in range(3):
            a = pretrain_step(models[0], [batch], AdamHyper(), step, 4)
            b = pretrain_step_per_utterance(models[1], [batch], AdamHyper(), step, 4)
            assert a == b
        assert parameter_hash(models[0].params) == parameter_hash(models[1].params)

    def test_segments_are_independent(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        batches = with_masks(mixed_batches(rng, cfg))
        packed = PackedBatch(batches)

        def encode(items):
            return model.encoder_forward(model.embed(items), packed.lengths).data

        before = encode(batches)
        changed = list(batches)
        noise = rng.standard_normal(batches[1].audio_patches.shape)
        changed[1] = replace(batches[1], audio_patches=batches[1].audio_patches + noise)
        after = encode(changed)
        bounds = np.cumsum([0] + packed.lengths)
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if i == 1:
                assert np.abs(after[lo:hi] - before[lo:hi]).max() > 1e-3
            else:
                np.testing.assert_array_equal(after[lo:hi], before[lo:hi])

    def test_packed_batch_counts_every_position(self, rng):
        batches = mixed_batches(rng, toy_config())
        packed = PackedBatch(batches)
        assert packed.lengths == [13, 13, 3, 2]
        assert packed.seq_len == 31

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_embed_of_one_utterance_is_bit_identical(self, dtype, rng):
        cfg = toy_config(dtype=dtype)
        model = EnvEncoder(cfg, seed=1)
        for batch in with_masks(mixed_batches(rng, cfg)):
            np.testing.assert_array_equal(model.embed([batch]).data,
                                          embed_per_utterance(model, batch).data)

    def test_embed_matches_per_utterance_oracle(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=1)
        masked = with_masks(mixed_batches(rng, cfg))
        for batches in (masked, [replace(b, mask=None) for b in masked]):
            want = np.concatenate([embed_per_utterance(model, b).data for b in batches])
            np.testing.assert_allclose(model.embed(batches).data, want,
                                       rtol=0, atol=1e-12)


class TestExtraction:
    def test_shape_and_freezing(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        audio = rng.standard_normal((9, cfg.audio_patch_dim))
        env = extract_env_embeddings(model, audio)
        assert env.shape == (9, cfg.model_dim)

    def test_bitwise_repeatable(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        audio = rng.standard_normal((6, cfg.audio_patch_dim))
        a = extract_env_embeddings(model, audio)
        b = extract_env_embeddings(model, audio)
        np.testing.assert_array_equal(a, b)

    def test_audio_only_no_video_required(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        env = extract_env_embeddings(model, rng.standard_normal((4, cfg.audio_patch_dim)))
        assert env.shape[0] == 4

    def test_does_not_mutate_parameters(self, rng):
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        before = parameter_hash(model.params)
        extract_env_embeddings(model, rng.standard_normal((5, cfg.audio_patch_dim)))
        assert parameter_hash(model.params) == before

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_parameter_hash_digest_is_the_bytes_digest(self, dtype):
        """`parameter_hash` hashes each array in place, and its digest is the
        one of every parameter's name and `tobytes()`, in name order."""
        params = EnvEncoder(toy_config(dtype=dtype), seed=0).params
        digest = hashlib.sha256()
        for name, p in params.items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(p.data).tobytes())
        assert parameter_hash(params) == digest.hexdigest()

    def test_empty_audio_rejected(self, rng):
        model = EnvEncoder(toy_config(), seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            extract_env_embeddings(model, np.zeros((0, 12)))


class TestMicroGradcheck:
    def test_end_to_end_parameter_gradients(self, rng):
        cfg = EnvEncoderConfig(model_dim=8, num_blocks=1, heads=2, vocab_size=6,
                               audio_patch_dim=6, video_patch_dim=12,
                               max_audio_positions=8, max_video_steps=4,
                               max_grid_rows=2, max_grid_cols=2)
        model = EnvEncoder(cfg, seed=1)
        batch = MultimodalBatch(
            audio_patches=rng.standard_normal((2, 6)),
            video_patches=rng.standard_normal((2, 12)),
            video_grid=(1, 2, 1),
            labels=rng.integers(0, 6, 4),
            mask=np.array([True, False, False, True]),
        )
        worst = check_gradients(lambda: model.forward_loss(batch),
                                [p for _, p in model.params.items()], rtol=1e-3)
        assert worst < 1e-3


class TestMaskedAccuracy:
    def test_perfect_on_memorized_head(self, rng):
        # a model whose head bias encodes the (constant) labels scores 100%
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=0)
        batch = toy_batch(rng, cfg)
        batch.labels = np.full(batch.seq_len, 7, dtype=np.int64)
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        model.params["head.b"].data[7] = 10.0
        assert masked_accuracy(model, [batch], seed=0) == 1.0

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_packed_predictions_match_per_utterance_oracle(self, rng, monkeypatch, seed):
        """One packed pass whose head sees only the masked rows predicts what
        the all-rows graphs of the oracle predict at those rows."""
        cfg = toy_config()
        model = EnvEncoder(cfg, seed=5)
        batches = mixed_batches(rng, cfg)
        seen = []
        mlm_logits = model.mlm_logits

        def recording(encoded):
            seen.append(mlm_logits(encoded))
            return seen[-1]

        monkeypatch.setattr(model, "mlm_logits", recording)
        acc = masked_accuracy(model, batches, seed=seed)
        assert len(seen) == 1  # one packed pass
        pred, labels, flags = masked_predictions_per_utterance(model, batches, seed=seed)
        np.testing.assert_array_equal(seen[0].data.argmax(axis=1), pred[flags])
        assert acc == (pred[flags] == labels[flags]).sum() / flags.sum()
