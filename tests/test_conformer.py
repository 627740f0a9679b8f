import numpy as np
import pytest

from envasr import autodiff as ad
from envasr.autodiff import Tensor
from envasr.asr.augment import SpecAugmentPolicy
from envasr.asr.conformer import (BASELINE, CROSS, AsrModel, ConformerConfig,
                                  Utterance, asr_step, build_models, subsample_length)
from envasr.optim import AdamHyper, adam_step, count_parameters

from oracles import (asr_loss_unfused, asr_losses_per_utterance, asr_step_per_utterance,
                     check_gradients, sum_)


def micro_config(**kw):
    base = dict(model_dim=8, num_blocks=1, heads=2, conv_kernel=3,
                env_dim=4, feature_dim=6, vocab_size=3)
    base.update(kw)
    return ConformerConfig(**base)


def toy_env(rng, length=4, dim=4):
    return rng.standard_normal((length, dim))


def one_loss(model, feats, labels, env):
    """The transducer loss of one utterance, a batch of one."""
    return model.losses([Utterance(feats, labels, env)])[0]


class TestSubsample:
    def test_length_formula(self):
        assert subsample_length(99) == 49
        assert subsample_length(3) == 1

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 3"):
            subsample_length(2)

    def test_model_output_lengths(self, rng):
        model = AsrModel(micro_config(), seed=0)
        for t, expect in [(99, 49), (3, 1), (10, 4)]:
            out = model.subsample(rng.standard_normal((t, 6)))
            assert out.data.shape == (expect, 8)

    def test_model_rejects_short_input(self, rng):
        model = AsrModel(micro_config(), seed=0)
        with pytest.raises(ValueError, match="shorter than kernel"):
            model.subsample(rng.standard_normal((2, 6)))


class TestConformerBlock:
    def test_shape_preserved(self, rng):
        model = AsrModel(micro_config(), seed=0)
        env_proj = model.project_env(toy_env(rng))
        for t in (1, 4, 9):
            x = Tensor(rng.standard_normal((t, 8)))
            out = model.block(0, x, env_proj)
            assert out.data.shape == (t, 8)

    def test_zeroed_projections_leave_normalized_identity(self, rng):
        model = AsrModel(micro_config(), seed=0)
        p = model.params
        for name in list(p.names()):
            # zero every sublayer's output projection so residuals carry x
            if any(name.endswith(s) for s in
                   (".ff1.w2", ".ff1.b2", ".ff2.w2", ".ff2.b2",
                    ".attn.wo", ".attn.bo", ".fusion.wo", ".fusion.bo",
                    ".conv.pw2.w", ".conv.pw2.b")):
                p[name].data[:] = 0.0
        x = rng.standard_normal((5, 8))
        out = model.block(0, Tensor(x), model.project_env(toy_env(rng)))
        expected = ad.layer_norm(Tensor(x), p["block0.out_norm.g"],
                                 p["block0.out_norm.b"])
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_micro_gradcheck(self, rng):
        model = AsrModel(micro_config(), seed=3)
        env = toy_env(rng)
        feats = rng.standard_normal((7, 6))
        labels = np.array([0, 2])
        worst = check_gradients(lambda: one_loss(model, feats, labels, env),
                                [p for _, p in model.params.items()], rtol=1e-3)
        assert worst < 1e-3


class TestFusionAttention:
    """The per-block fusion sublayer: `ad.mha` on the `block<i>.fusion.*`
    weights, keys and values from the projected env (cross) or from its own
    input (parity baseline)."""

    def fuse(self, model, x, kv):
        return ad.mha(model.params, "block0.fusion", x, kv, model.config.heads)

    def test_single_env_vector_gives_identical_rows(self, rng):
        model = AsrModel(micro_config(), seed=0)
        x = Tensor(rng.standard_normal((5, 8)))
        env = Tensor(rng.standard_normal((1, 8)))
        out = self.fuse(model, x, env).data
        for row in out[1:]:
            np.testing.assert_allclose(row, out[0], atol=1e-12)

    def test_parameter_parity_between_modes(self):
        def fusion_count(mode):
            params = AsrModel(micro_config(fusion_mode=mode), seed=0).params
            return sum(p.data.size for name, p in params.items()
                       if name.startswith("block0.fusion."))

        assert fusion_count(CROSS) == fusion_count(BASELINE) == 2 * 8 + 4 * 8 * 8 + 3 * 8

    def test_env_gradient_slot_stays_empty(self, rng):
        model = AsrModel(micro_config(), seed=1)
        env = toy_env(rng)
        frozen = Tensor(env)  # what the adapter consumes
        env_proj = ad.add(ad.matmul(frozen, model.params["env_adapter.w"]),
                          model.params["env_adapter.b"])
        x = Tensor(rng.standard_normal((4, 8)))
        out = model.block(0, x, env_proj)
        sum_(ad.mul(out, out)).backward()
        assert frozen.grad is None
        assert model.params["env_adapter.w"].grad is not None

    def test_packed_model_missing_gradient_rejected(self, rng):
        model = AsrModel(micro_config(), seed=0)
        params = model.params
        before = params.flat.data.copy()
        for name, p in params.items():
            if name != "pred.b":
                p.grad = rng.standard_normal(p.data.shape)
        with pytest.raises(ValueError, match="missing gradient for pred.b$"):
            adam_step(params, 1e-3)
        np.testing.assert_array_equal(params.flat.data, before)
        assert params.t == 0

    def test_cross_mode_requires_env(self, rng):
        model = AsrModel(micro_config(), seed=0)
        with pytest.raises(ValueError, match="needs env"):
            one_loss(model, rng.standard_normal((7, 6)), np.array([1]), None)

    def test_output_reads_env_content(self, rng):
        model = AsrModel(micro_config(), seed=2)
        feats = rng.standard_normal((7, 6))
        env = toy_env(rng, length=5)
        flat = np.tile(env.mean(axis=0), (5, 1))
        with ad.no_grad():
            a = model.encode([feats], [env]).data
            b = model.encode([feats], [flat]).data
        assert np.linalg.norm(a - b) > 1e-6


class TestBuildModels:
    def test_exact_parameter_parity(self):
        fusion, baseline = build_models(ConformerConfig(), seed=0)
        assert count_parameters(fusion.params) == count_parameters(baseline.params)

    def test_zeroed_fusion_outputs_identical(self, rng):
        fusion, baseline = build_models(micro_config(), seed=5)
        for model in (fusion, baseline):
            model.params["block0.fusion.wo"].data[:] = 0.0
            model.params["block0.fusion.bo"].data[:] = 0.0
        feats = rng.standard_normal((9, 6))
        env = toy_env(rng)
        with ad.no_grad():
            a = fusion.encode([feats], [env]).data
            b = baseline.encode([feats], None).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_toy_count_matches_layer_inventory(self):
        cfg = ConformerConfig()  # dim 64, 2 blocks, kernel 7, vocab 8
        fusion, _ = build_models(cfg, seed=0)
        d, k, feat, v1 = 64, 7, 192, 9
        stem = 3 * feat * d + d
        adapter = cfg.env_dim * d + d
        ff = 2 * d + (d * 4 * d + 4 * d) + (4 * d * d + d)
        attn = 2 * d + 4 * d * d + 3 * d  # no key bias
        conv = 2 * d + (d * 2 * d + 2 * d) + k * d + 2 * d + (d * d + d)  # no dw bias
        block = 2 * ff + 2 * attn + conv + 2 * d
        pred = v1 * d + 2 * d * d + d
        joint = 2 * d * d + d + d * v1 + v1
        expected = stem + adapter + cfg.num_blocks * block + pred + joint
        assert count_parameters(fusion.params) == expected

    def test_shared_parts_share_init(self):
        fusion, baseline = build_models(micro_config(), seed=9)
        for name, p in fusion.params.items():
            np.testing.assert_array_equal(p.data, baseline.params[name].data)

    def test_baseline_runs_without_env(self, rng):
        _, baseline = build_models(micro_config(), seed=0)
        out = baseline.encode([rng.standard_normal((8, 6))], None)
        assert out.data.shape == (3, 8)

    def test_cross_needs_env(self, rng):
        fusion, _ = build_models(micro_config(), seed=0)
        with pytest.raises(ValueError, match="needs env"):
            fusion.encode([rng.standard_normal((8, 6))], None)


class TestFreezeContract:
    def test_env_model_unchanged_by_asr_steps(self, rng):
        from envasr.env_encoder import EnvEncoder, EnvEncoderConfig, parameter_hash
        from envasr.env_encoder import extract_env_embeddings
        env_cfg = EnvEncoderConfig(model_dim=4, num_blocks=1, heads=2, vocab_size=6,
                                   audio_patch_dim=6, video_patch_dim=12,
                                   max_audio_positions=16, max_video_steps=2,
                                   max_grid_rows=2, max_grid_cols=2)
        env_model = EnvEncoder(env_cfg, seed=0)
        audio = rng.standard_normal((10, 6))
        env = extract_env_embeddings(env_model, audio)
        before = parameter_hash(env_model.params)

        asr = AsrModel(micro_config(env_dim=4), seed=1)
        labels = np.array([1, 0, 2])
        for _ in range(5):
            one_loss(asr, rng.standard_normal((9, 6)), labels, env).backward()
            adam_step(asr.params, 1e-3)
        assert parameter_hash(env_model.params) == before


def loss_and_grads(model, loss_fn):
    """Loss value and a copy of every trainable parameter's gradient (zeros
    where the graph does not reach the parameter)."""
    for _, p in model.params.items():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for name, p in model.params.items() if p.requires_grad}
    return float(loss.data), grads


class TestFusedPredictionAndJoint:
    """`predict_states` and `joint_log_probs` (one `rnn_tanh` and one
    `joint_tanh` node) against the per-label loop and the joint chain."""

    # (labels U, feature frames): T = 4 and 81 encoder frames; the last is
    # the shape of an asr-long utterance
    SHAPES = [(0, 9), (1, 9), (50, 163)]

    def utterance(self, rng, u, frames, model):
        feats = rng.standard_normal((frames, model.config.feature_dim))
        labels = rng.integers(0, model.config.vocab_size, u)
        return feats, labels, toy_env(rng, length=5, dim=model.config.env_dim)

    def compare(self, model, feats, labels, env):
        loss, grads = loss_and_grads(model, lambda: one_loss(model, feats, labels, env))
        ref, ref_grads = loss_and_grads(
            model, lambda: asr_loss_unfused(model, feats, labels, env))
        scale = max(np.abs(g).max() for g in ref_grads.values())
        return loss, ref, grads, ref_grads, scale

    @pytest.mark.parametrize("u,frames", SHAPES)
    def test_f64_loss_and_gradients_match_unfused(self, u, frames, rng):
        model = AsrModel(ConformerConfig(vocab_size=8, dtype="f64"), seed=1)
        loss, ref, grads, ref_grads, scale = self.compare(
            model, *self.utterance(rng, u, frames, model))
        assert abs(loss - ref) <= 1e-10 * abs(ref)
        assert sorted(grads) == sorted(ref_grads)
        for name, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=1e-10,
                                       atol=1e-10 * scale, err_msg=name)

    @pytest.mark.parametrize("u,frames", SHAPES)
    def test_f32_agrees_within_rounding(self, u, frames, rng):
        model = AsrModel(ConformerConfig(vocab_size=8, dtype="f32"), seed=1)
        loss, ref, grads, ref_grads, scale = self.compare(
            model, *self.utterance(rng, u, frames, model))
        assert abs(loss - ref) <= 1e-5 * abs(ref)
        for name, g in grads.items():
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, ref_grads[name], rtol=1e-4,
                                       atol=1e-5 * scale, err_msg=name)

    def test_graph_size_does_not_grow_with_labels(self, rng):
        model = AsrModel(micro_config(), seed=0)
        sizes = {len(ad._toposort(model.predict_states([rng.integers(0, 3, u)])))
                 for u in (0, 1, 5, 40)}
        assert len(sizes) == 1

    def test_decoding_fast_paths_match_training_nodes(self, rng):
        """Greedy decoding's numpy steps give the rows the trained graph
        computes, so decoding runs the model that was trained."""
        model = AsrModel(ConformerConfig(vocab_size=8, dtype="f64"), seed=2)
        feats, labels, env = self.utterance(rng, 12, 31, model)
        with ad.no_grad():
            enc = model.encode([feats], [env])
            pred = model.predict_states([labels])
            log_probs = model.joint_log_probs(enc, pred).data
        states = [model.pred_start_np()]
        for k in labels:
            states.append(model.pred_step_np(states[-1], int(k)))
        np.testing.assert_allclose(states, pred.data, rtol=0, atol=1e-12)
        for ti in range(enc.data.shape[0]):
            for ui in range(pred.data.shape[0]):
                logits = model.joint_logits_np(model.joint_enc_np(enc.data[ti]),
                                               model.joint_pred_np(pred.data[ui]))
                lp = logits - logits.max()
                lp -= np.log(np.exp(lp).sum())
                np.testing.assert_allclose(lp, log_probs[ti, ui], rtol=0, atol=1e-12)



def mixed_batch(rng, model, shapes=((9, 2, 5), (3, 1, 1), (31, 6, 7), (12, 0, 3))):
    """Utterances of (feature frames, labels, env rows): 4, 1, 15 and 5
    encoder rows, one without labels."""
    cfg = model.config
    return [Utterance(rng.standard_normal((frames, cfg.feature_dim)),
                      rng.integers(0, cfg.vocab_size, u),
                      toy_env(rng, length=env_rows, dim=cfg.env_dim))
            for frames, u, env_rows in shapes]


def mean_loss_and_grads(model, losses_fn):
    """The mean loss over `losses_fn()` and its gradients, as `minimize_mean`
    builds it."""
    def mean():
        losses = losses_fn()
        return ad.mul(sum(losses[1:], losses[0]), 1.0 / len(losses))

    return loss_and_grads(model, mean)


class TestPackedAsr:
    """`AsrModel.losses` packs a batch into one encoder and prediction pass;
    each utterance alone is its oracle."""

    @pytest.mark.parametrize("mode", [CROSS, BASELINE])
    def test_f64_loss_and_gradients_match_per_utterance(self, rng, mode):
        model = AsrModel(micro_config(fusion_mode=mode, model_dim=16, num_blocks=2,
                                      conv_kernel=5), seed=4)
        batch = mixed_batch(rng, model)
        loss, grads = mean_loss_and_grads(model, lambda: model.losses(batch))
        ref, ref_grads = mean_loss_and_grads(
            model, lambda: asr_losses_per_utterance(model, batch))
        assert abs(loss - ref) <= 1e-10 * abs(ref)
        scale = max(np.abs(g).max() for g in ref_grads.values())
        assert sorted(grads) == sorted(ref_grads)
        for name, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=1e-10,
                                       atol=1e-10 * scale, err_msg=name)

    def test_f64_step_matches_per_utterance_step(self, rng):
        cfg = micro_config(model_dim=16, num_blocks=2, conv_kernel=5)
        packed, oracle = AsrModel(cfg, seed=6), AsrModel(cfg, seed=6)
        batch = mixed_batch(rng, packed, ((9, 2, 5), (12, 1, 1), (31, 6, 7), (15, 3, 3)))
        policy = SpecAugmentPolicy(freq_masks=1, freq_width=2, time_masks=1, time_width=3)
        for step in range(3):
            items = [(step + j) % 4 for j in range(3)]
            loss = asr_step(packed, batch, items, policy, AdamHyper(), step, seed=2)
            ref = asr_step_per_utterance(oracle, batch, items, policy, AdamHyper(), step,
                                         seed=2)
            assert abs(loss - ref) <= 1e-10 * abs(ref)
        assert packed.params.t == oracle.params.t == 3
        np.testing.assert_allclose(packed.params.flat.data, oracle.params.flat.data,
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("mode", [CROSS, BASELINE])
    def test_other_utterances_rows_ignore_a_perturbation(self, rng, dtype, mode):
        model = AsrModel(micro_config(dtype=dtype, fusion_mode=mode), seed=1)
        batch = mixed_batch(rng, model)
        lengths = model.encoded_lengths([u.features for u in batch])
        bounds = np.cumsum([0] + lengths)
        for changed in range(len(batch)):
            feats = [u.features.copy() for u in batch]
            feats[changed] += 0.1 * rng.standard_normal(feats[changed].shape)
            with ad.no_grad():
                before = model.encode([u.features for u in batch], [u.env for u in batch]).data
                after = model.encode(feats, [u.env for u in batch]).data
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                if i == changed:
                    assert not np.array_equal(before[lo:hi], after[lo:hi])
                else:
                    np.testing.assert_array_equal(before[lo:hi], after[lo:hi])

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_packed_rows_match_per_utterance_encode(self, rng, dtype):
        model = AsrModel(micro_config(dtype=dtype), seed=2)
        batch = mixed_batch(rng, model)
        with ad.no_grad():
            packed = model.encode([u.features for u in batch], [u.env for u in batch]).data
            alone = np.concatenate([model.encode([u.features], [u.env]).data for u in batch])
        tol = 1e-5 if dtype == "f32" else 1e-12
        np.testing.assert_allclose(packed, alone, rtol=0, atol=tol)

    def test_batch_of_one_builds_no_concat_or_narrow(self, rng):
        model = AsrModel(micro_config(num_blocks=2), seed=0)
        loss, = model.losses(mixed_batch(rng, model)[:1])
        ops = [node._backward.__qualname__.split(".")[0] for node in ad._toposort(loss)
               if node._backward is not None]
        assert "concat" not in ops and "narrow" not in ops
        assert ops.count("glu") == 2  # one per conv module

    def test_packed_prediction_states_restart_per_sequence(self, rng):
        model = AsrModel(micro_config(), seed=3)
        labels = [rng.integers(0, 3, u) for u in (0, 4, 1)]
        with ad.no_grad():
            packed = model.predict_states(labels).data
            alone = [model.predict_states([u]).data for u in labels]
        # the input projection is one matmul over all tokens, so rows may
        # differ from a lone sequence's in the last bit
        np.testing.assert_allclose(packed, np.concatenate(alone), rtol=0, atol=1e-15)

    def test_checkpoint_layout_draws_nothing(self, monkeypatch):
        from envasr.env_encoder import EnvEncoder, EnvEncoderConfig

        def no_draws(*args):
            raise AssertionError("a layout-only model drew an init")

        for module in ("envasr.asr.conformer", "envasr.env_encoder"):
            monkeypatch.setattr(f"{module}.substream", no_draws)
        for model in (AsrModel(micro_config(), seed=None),
                      EnvEncoder(EnvEncoderConfig(), seed=None)):
            assert not model.params.flat.data.any()
