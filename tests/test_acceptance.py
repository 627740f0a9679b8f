"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The overfit runs (criteria 5 and 6) train real models and take a
few minutes of CPU between them.
"""

import math
import time

import numpy as np
import pytest

from envasr import autodiff as ad
from envasr.autodiff import Tensor
from envasr.asr.conformer import AsrModel, ConformerConfig, Utterance, build_models
from envasr.asr.metrics import wer
from envasr.asr.transducer import greedy_decode, rnnt_alphas, rnnt_betas, rnnt_loss
from envasr.env_encoder import (EnvEncoder, EnvEncoderConfig, MultimodalBatch,
                                parameter_hash)
from envasr.masking import MaskSchedule, mask_params_at, sample_segmented_mask
from envasr.optim import count_parameters
from envasr.pipeline import (generate_synthetic_corpus, load_checkpoint,
                             parse_config_lines, restore_params, run_asr_training,
                             run_pretraining, save_checkpoint, write_corpus)
from envasr.pipeline.corpus import SYMBOLS
from envasr.quantize import assign_tokens, lloyd, train_kmeans
from envasr.rng import substream

from oracles import (check_gradients, edit_distance_dp, expected_coverage,
                     nearest_center_exhaustive, sigmoid, softmax, standardize, sum_,
                     tanh, transducer_loglik_enumerate)


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


@pytest.fixture(scope="module")
def corpus8(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_corpus8")
    write_corpus(generate_synthetic_corpus(8, seed=7), root)
    return root


@pytest.fixture(scope="module")
def corpus16(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_corpus16")
    write_corpus(generate_synthetic_corpus(16, seed=11), root)
    return root


def config(values: dict):
    """A config from `key = value` lines, one per item of `values`."""
    return parse_config_lines([f"{k} = {v}" for k, v in values.items()],
                              check_paths=False)


def pretrain_cfg(data, out, **kw):
    return config({"paths.data_dir": data, "paths.out_dir": out,
                   "tokenize.k_audio": 8, "tokenize.k_video": 16,
                   "pretrain.model_dim": 32, "pretrain.num_blocks": 2,
                   "pretrain.heads": 4, "optimizer.lr": 1e-3, "seed": 0,
                   "max_steps": 2000, "checkpoint_every": 2000, "eval_every": 200,
                   **kw})


def asr_cfg(data, out, **kw):
    return config({"paths.data_dir": data, "paths.out_dir": out,
                   "tokenize.k_audio": 8, "tokenize.k_video": 16,
                   "pretrain.model_dim": 32, "pretrain.num_blocks": 2,
                   "pretrain.heads": 4, "optimizer.lr": 1e-3, "seed": 0,
                   "asr.model_dim": 64, "asr.num_blocks": 2, "asr.heads": 4,
                   "asr.conv_kernel": 7, "max_steps": 5000,
                   "checkpoint_every": 5000, "eval_every": 250,
                   "asr.early_stop_wer": 0.0, "augment.freq_masks": 1,
                   "augment.freq_width": 12, "augment.time_masks": 1,
                   "augment.time_width": 6, **kw})


@pytest.fixture(scope="module")
def trained_stage_one(corpus16, tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_stage1")
    cfg = pretrain_cfg(corpus16, out, max_steps=400, checkpoint_every=400)
    summary = run_pretraining(cfg)
    return cfg, summary


class TestCriterion1Gradchecks:
    def test_gradcheck_suite(self, rng, capsys):
        t0 = time.time()
        worst = 0.0

        # individual differentiable operations
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        targets = rng.integers(0, 4, 3)
        worst = max(worst, check_gradients(
            lambda: ad.cross_entropy(ad.matmul(x, w), targets), [x, w], rtol=1e-3))

        q = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        mix = Tensor(rng.standard_normal((3, 4)))
        worst = max(worst, check_gradients(
            lambda: sum_(ad.mul(ad.attention(q, k, v, 2), mix)),
            [q, k, v], rtol=1e-3))

        g = Tensor(rng.standard_normal(6), requires_grad=True)
        b = Tensor(rng.standard_normal(6), requires_grad=True)
        xs = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        mix2 = Tensor(rng.standard_normal((4, 6)))
        worst = max(worst, check_gradients(
            lambda: sum_(ad.mul(ad.layer_norm(xs, g, b), mix2)),
            [xs, g, b], rtol=1e-3))
        gc = Tensor(rng.standard_normal(4), requires_grad=True)
        bc = Tensor(rng.standard_normal(4), requires_grad=True)
        xc = Tensor(rng.standard_normal((4, 6)).T.copy(), requires_grad=True)  # (time, chans)
        mix3 = Tensor(rng.standard_normal((4, 6)).T.copy())
        worst = max(worst, check_gradients(
            lambda: sum_(ad.mul(ad.instance_norm(xc, gc, bc), mix3)),
            [xc, gc, bc], rtol=1e-3))

        xv = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        wv = Tensor(rng.standard_normal((3, 3, 5)), requires_grad=True)
        bv = Tensor(rng.standard_normal(5), requires_grad=True)
        mix4 = Tensor(rng.standard_normal((3, 5)))
        worst = max(worst, check_gradients(
            lambda: sum_(ad.mul(ad.conv1d(xv, wv, bv, stride=2), mix4)),
            [xv, wv, bv], rtol=1e-3))
        wd = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        mix5 = Tensor(rng.standard_normal((8, 3)))
        worst = max(worst, check_gradients(
            lambda: sum_(ad.mul(ad.depthwise_conv1d(xv, wd), mix5)),
            [xv, wd], rtol=1e-3))

        for op in (tanh, sigmoid, ad.gelu, ad.swish,
                   softmax, ad.log_softmax, standardize):
            xe = Tensor(rng.uniform(0.2, 1.5, (3, 4)), requires_grad=True)
            mixe = Tensor(rng.standard_normal((3, 4)))
            worst = max(worst, check_gradients(
                lambda op=op, xe=xe, mixe=mixe: sum_(ad.mul(op(xe), mixe)),
                [xe], rtol=1e-3))

        # composed micro pretraining model (dim 8, 1 block)
        env_cfg = EnvEncoderConfig(model_dim=8, num_blocks=1, heads=2,
                                   vocab_size=6, audio_patch_dim=6,
                                   video_patch_dim=12, max_audio_positions=8,
                                   max_video_steps=4, max_grid_rows=2,
                                   max_grid_cols=2)
        env_model = EnvEncoder(env_cfg, seed=1)
        batch = MultimodalBatch(
            audio_patches=rng.standard_normal((2, 6)),
            video_patches=rng.standard_normal((2, 12)), video_grid=(1, 2, 1),
            labels=rng.integers(0, 6, 4),
            mask=np.array([True, False, False, True]))
        worst = max(worst, check_gradients(
            lambda: env_model.forward_loss(batch),
            [p for _, p in env_model.params.items()], rtol=1e-3))

        # composed micro conformer transducer block
        asr = AsrModel(ConformerConfig(model_dim=8, num_blocks=1, heads=2,
                                       conv_kernel=3, env_dim=4, feature_dim=6,
                                       vocab_size=3), seed=2)
        env = rng.standard_normal((3, 4))
        feats = rng.standard_normal((7, 6))
        labels = np.array([0, 2])
        worst = max(worst, check_gradients(
            lambda: asr.losses([Utterance(feats, labels, env)])[0],
            [p for _, p in asr.params.items()], rtol=1e-3))

        elapsed = time.time() - t0
        with capsys.disabled():
            report(1, "gradcheck suite", worst < 1e-3 and elapsed < 60.0,
                   f"worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2Transducer:
    def test_oracle_equivalence(self, rng, capsys):
        worst_loss = 0.0
        worst_agree = 0.0
        draws = 0
        for t in range(1, 5):
            for u in range(0, 4):
                for v in range(1, 4):
                    for _ in range(3):
                        logits = rng.standard_normal((t, u + 1, v + 1))
                        lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
                        labels = rng.integers(0, v, u)
                        oracle, _ = transducer_loglik_enumerate(lp, labels)
                        loss = float(rnnt_loss(Tensor(lp), labels).data)
                        worst_loss = max(worst_loss, abs(loss + oracle))
                        _, ll_f = rnnt_alphas(lp, labels)
                        _, ll_b = rnnt_betas(lp, labels)
                        worst_agree = max(worst_agree, abs(ll_f - ll_b))
                        draws += 1
        ok = draws >= 100 and worst_loss < 1e-8 and worst_agree < 1e-8
        with capsys.disabled():
            report(2, "transducer oracle equivalence", ok,
                   f"{draws} draws, |loss err| {worst_loss:.1e}, "
                   f"|fwd-bwd| {worst_agree:.1e}")


class TestCriterion3Kmeans:
    def test_kmeans_properties(self, rng, capsys):
        # k = N gives zero distortion
        x = rng.standard_normal((6, 3)) * 10
        cb = train_kmeans(x, k=6, seed=0)
        ids = assign_tokens(cb, x)
        zero_distortion = float(((x - cb.centers[ids]) ** 2).sum()) == 0.0

        # assignments match exhaustive search on 50 random vectors
        centers = rng.standard_normal((12, 6))
        from envasr.quantize import Codebook
        cb2 = Codebook(centers, "audio", 0)
        vecs = rng.standard_normal((50, 6))
        matches = np.array_equal(assign_tokens(cb2, vecs),
                                 nearest_center_exhaustive(vecs, centers))

        # distortion trace non-increasing on every tested run
        monotone = True
        for seed in range(8):
            data = rng.standard_normal((90, 4))
            _, _, trace = lloyd(data, 7, max_iters=40, rng=substream(seed, "acc"))
            monotone &= all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

        with capsys.disabled():
            report(3, "k-means contract", zero_distortion and matches and monotone,
                   f"zero-distortion {zero_distortion}, exhaustive {matches}, "
                   f"monotone {monotone}")


class TestCriterion4MaskSchedule:
    def test_schedule_contract(self, capsys):
        sched = MaskSchedule()
        exact_start = mask_params_at(sched, 0) == (1, 0.15)

        widths_ok = True
        seen = set()
        for step in list(range(0, 61000, 250)) + [9999, 10000, 19999, 20000,
                                                  49999, 50000, 10**6]:
            w, _ = mask_params_at(sched, step)
            seen.add(w)
            widths_ok &= w == min(1 + 2 * (step // 10000), 11)
        widths_ok &= seen == {1, 3, 5, 7, 9, 11}

        end_probs_ok = all(
            abs(mask_params_at(sched, stage * 10000 + 9999)[1] - 0.45) < 0.005
            for stage in range(6))

        mc_ok = True
        details = []
        for prob, width in ((0.15, 1), (0.3, 5), (0.45, 11)):
            trials, seq_len = 10000, 64
            pos = seq_len // 2
            gen = substream(99, "acc-coverage", width)
            hits = sum(bool(sample_segmented_mask([seq_len], width, prob, gen)[0][pos])
                       for _ in range(trials))
            expect = expected_coverage(prob, width)
            sigma = math.sqrt(expect * (1 - expect) / trials)
            dev = abs(hits / trials - expect)
            mc_ok &= dev < 3 * sigma
            details.append(f"(p={prob},w={width}) dev {dev:.4f} < {3*sigma:.4f}")

        with capsys.disabled():
            report(4, "mask schedule",
                   exact_start and widths_ok and end_probs_ok and mc_ok,
                   "; ".join(details))


class TestCriterion5PretrainOverfit:
    def test_masked_accuracy_target(self, corpus8, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("acc5")
        cfg = pretrain_cfg(corpus8, out)
        t0 = time.time()
        summary = run_pretraining(cfg)
        elapsed = time.time() - t0
        with capsys.disabled():
            report(5, "pretraining overfit",
                   summary["masked_accuracy"] >= 0.95 and elapsed < 600
                   and summary["steps_run"] <= 2000,
                   f"masked accuracy {summary['masked_accuracy']:.4f} after "
                   f"{summary['steps_run']} steps in {elapsed:.0f}s")


class TestCriterion6AsrOverfit:
    def test_wer_zero_and_exact_decode(self, corpus16, trained_stage_one,
                                       tmp_path_factory, capsys, monkeypatch):
        stage1_cfg, _ = trained_stage_one
        cfg = asr_cfg(corpus16, stage1_cfg.out_path())
        t0 = time.time()
        summary = run_asr_training(cfg)
        elapsed = time.time() - t0
        wer_zero = summary["final_wer"] == 0.0 and summary["steps_run"] <= 5000

        # greedy decode of the trained model reproduces every transcript, on
        # the env embeddings training stored: none is extracted again
        from envasr.pipeline import data
        from envasr.pipeline.data import (cached_env_embeddings, ensure_whitener,
                                          load_corpus, store_path)
        from envasr.features import whiten_clip
        from envasr.serialize import DTYPE_TOKENS
        model = summary["model"]
        utts = load_corpus(cfg.train_manifest_path())
        whitener = ensure_whitener(cfg.codebook_path(), utts)
        store = store_path(cfg.codebook_path(), "corpus_env", cfg.train_manifest_path())

        def no_extraction(model, audio):
            raise AssertionError("env embeddings extracted; training stored none for this check")

        monkeypatch.setattr(data, "extract_env_embeddings", no_extraction)
        exact = True
        env_model = None
        for u in utts:
            # in the model's dtype, as training whitened them
            feats = whiten_clip(u.raw_patches, whitener).astype(DTYPE_TOKENS[model.config.dtype])
            if env_model is None:
                from envasr.pipeline.runner import _load_model
                env_model, _ = _load_model(cfg.pretrain_ckpt_path())
                model_hash = parameter_hash(env_model.params)
            env = cached_env_embeddings(store, u.name, env_model, feats, model_hash).array
            with ad.no_grad():
                enc = model.encode([feats], [env]).data
            hyp = [SYMBOLS[i] for i in greedy_decode(model, enc)]
            exact &= hyp == u.label_names
        with capsys.disabled():
            report(6, "asr overfit", wer_zero and exact and elapsed < 1200,
                   f"wer {summary['final_wer']} after {summary['steps_run']} "
                   f"steps in {elapsed:.0f}s, exact transcripts {exact}")


class TestCriterion7ParameterParity:
    def test_exact_parity(self, capsys):
        results = []
        for cfg in (ConformerConfig(),
                    ConformerConfig(model_dim=32, num_blocks=3, heads=2,
                                    conv_kernel=5, env_dim=16)):
            fusion, baseline = build_models(cfg, seed=0)
            results.append(count_parameters(fusion.params)
                           == count_parameters(baseline.params))
        fusion, baseline = build_models(ConformerConfig(), seed=0)
        with capsys.disabled():
            report(7, "parameter parity", all(results),
                   f"fusion {count_parameters(fusion.params)} == "
                   f"baseline {count_parameters(baseline.params)}")


class TestCriterion8FreezeContract:
    def test_hash_unchanged_after_100_steps(self, corpus16, trained_stage_one,
                                            capsys):
        stage1_cfg, _ = trained_stage_one
        cfg = asr_cfg(corpus16, stage1_cfg.out_path(), max_steps=100,
                      checkpoint_every=100, eval_every=100,
                      **{"asr.early_stop_wer": -1.0})
        summary = run_asr_training(cfg)
        ok = (summary["env_hash_before"] is not None
              and summary["env_hash_before"] == summary["env_hash_after"]
              and summary["steps_run"] == 100)
        with capsys.disabled():
            report(8, "freeze contract", ok,
                   f"hash {summary['env_hash_before'][:12]}... unchanged over "
                   f"{summary['steps_run']} steps")


class TestCriterion9Determinism:
    def test_logs_and_checkpoints(self, corpus16, tmp_path_factory, capsys):
        out = tmp_path_factory.mktemp("acc9")
        pre = pretrain_cfg(corpus16, out / "pre", max_steps=10,
                           checkpoint_every=10, eval_every=10)
        pre_logs = []
        for _ in range(2):
            run_pretraining(pre)
            pre_logs.append((pre.out_path() / "pretrain.log").read_text())

        asr = asr_cfg(corpus16, out / "asr", max_steps=10, checkpoint_every=10,
                      eval_every=10, **{"asr.early_stop_wer": -1.0,
                                        "asr.fusion_mode": "self_attention_baseline"})
        asr_logs = []
        for _ in range(2):
            run_asr_training(asr)
            asr_logs.append((asr.out_path() / "train_asr.log").read_text())

        # checkpoint round trip is bit-exact
        from envasr.pipeline.config import env_encoder_config
        model = EnvEncoder(env_encoder_config(pre), seed=pre.seed)
        p1 = out / "rt1.ckpt"
        p2 = out / "rt2.ckpt"
        save_checkpoint(p1, model.params, 5, ["seed = 0"])
        ckpt = load_checkpoint(p1)
        clone = EnvEncoder(env_encoder_config(pre), seed=99)
        restore_params(clone.params, ckpt)
        save_checkpoint(p2, clone.params, ckpt.step, ckpt.config_lines)
        round_trip = p1.read_bytes() == p2.read_bytes()

        ten_steps = (len(pre_logs[0].splitlines()) == 10
                     and len([l for l in asr_logs[0].splitlines()
                              if l.startswith("step=")]) == 10)
        ok = (pre_logs[0] == pre_logs[1] and asr_logs[0] == asr_logs[1]
              and round_trip and ten_steps)
        with capsys.disabled():
            report(9, "determinism", ok,
                   f"pretrain logs equal {pre_logs[0] == pre_logs[1]}, "
                   f"asr logs equal {asr_logs[0] == asr_logs[1]}, "
                   f"checkpoint round trip {round_trip}")


class TestCriterion10Wer:
    def test_wer_oracle(self, rng, capsys):
        ok = True
        vocab = [f"tok{i}" for i in range(15)]
        for _ in range(200):
            ref = [vocab[i] for i in rng.integers(0, 15, rng.integers(1, 14))]
            hyp = [vocab[i] for i in rng.integers(0, 15, rng.integers(0, 14))]
            ok &= wer(ref, hyp) == pytest.approx(
                edit_distance_dp(ref, hyp) / len(ref))

        ref = "should i buy from the princess starfrost set royale high".split()
        hyp = ("should i buy from the princess stare froset in we're all "
               "rawhide").split()
        printed_ok = wer(ref, hyp) == pytest.approx(
            edit_distance_dp(ref, hyp) / len(ref)) and \
            wer(ref, hyp) == pytest.approx(0.6)
        with capsys.disabled():
            report(10, "wer oracle", ok and printed_ok,
                   f"200 random pairs + printed example (wer {wer(ref, hyp):.2f})")
