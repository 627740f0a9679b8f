import numpy as np
import pytest

from envasr import autodiff as ad
from envasr.autodiff import Tensor
from envasr.asr.conformer import AsrModel, ConformerConfig
from envasr.asr.transducer import (MAX_SYMBOLS_PER_FRAME, greedy_decode, rnnt_alphas,
                                   rnnt_betas, rnnt_grad, rnnt_loss)

from oracles import (check_gradients, make_lattice, transducer_alphas_loop,
                     transducer_betas_loop, transducer_grad_loop,
                     transducer_loglik_enumerate)


def random_log_probs(rng, t, u, v):
    logits = rng.standard_normal((t, u + 1, v + 1))
    return logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))


class TestLossValues:
    def test_single_frame_no_labels(self, rng):
        lp = random_log_probs(rng, 1, 0, 2)
        loss = rnnt_loss(Tensor(lp), np.zeros(0, np.int64))
        np.testing.assert_allclose(float(loss.data), -lp[0, 0, -1], atol=1e-12)

    def test_two_frames_one_label_both_paths(self, rng):
        lp = random_log_probs(rng, 2, 1, 2)
        labels = np.array([1])
        blank = 2
        # enumerate the 2 alignments by hand
        p1 = lp[0, 0, 1] + lp[0, 1, blank] + lp[1, 1, blank]   # emit then advance
        p2 = lp[0, 0, blank] + lp[1, 0, 1] + lp[1, 1, blank]   # advance then emit
        expected = -np.logaddexp(p1, p2)
        loss = rnnt_loss(Tensor(lp), labels)
        np.testing.assert_allclose(float(loss.data), expected, atol=1e-8)
        oracle, n_paths = transducer_loglik_enumerate(lp, labels)
        assert n_paths == 2
        np.testing.assert_allclose(float(loss.data), -oracle, atol=1e-8)

    def test_brute_force_sweep(self, rng):
        draws = 0
        for t in range(1, 5):
            for u in range(0, 4):
                for v in range(1, 4):
                    for _ in range(3):
                        lp = random_log_probs(rng, t, u, v)
                        labels = rng.integers(0, v, u)
                        oracle, _ = transducer_loglik_enumerate(lp, labels)
                        loss = float(rnnt_loss(Tensor(lp), labels).data)
                        assert abs(loss + oracle) < 1e-8
                        draws += 1
        assert draws >= 100

    def test_forward_backward_agree(self, rng):
        for _ in range(25):
            t, u, v = rng.integers(1, 6), rng.integers(0, 5), rng.integers(1, 5)
            lp = random_log_probs(rng, t, u, v)
            labels = rng.integers(0, v, u)
            _, ll_f = rnnt_alphas(lp, labels)
            _, ll_b = rnnt_betas(lp, labels)
            assert abs(ll_f - ll_b) < 1e-8


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t,u", [(1, 0), (1, 3), (4, 0), (85, 51), (300, 80)])
def test_vectorized_dp_matches_loop_oracle(rng, t, u, dtype):
    lp = random_log_probs(rng, t, u, 30).astype(dtype)
    labels = rng.integers(0, 30, u)
    alpha, loglik = rnnt_alphas(lp, labels)
    beta, ll_b = rnnt_betas(lp, labels)
    grad = rnnt_grad(lp, labels, alpha, beta, loglik)
    alpha_o, loglik_o = transducer_alphas_loop(lp, labels)
    beta_o, _ = transducer_betas_loop(lp, labels)
    grad_o = transducer_grad_loop(lp, labels, alpha_o, beta_o, loglik_o)
    assert grad.dtype == grad_o.dtype == dtype
    for got, want in ((alpha, alpha_o), (beta, beta_o), (loglik, loglik_o),
                      (ll_b, loglik_o), (grad, grad_o)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


class TestLossGradients:
    def test_gradcheck_wrt_joint_logits(self, rng):
        logits = Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True)
        labels = np.array([0, 2])
        worst = check_gradients(lambda: rnnt_loss(ad.log_softmax(logits), labels),
                                [logits], rtol=1e-4)
        assert worst < 1e-4

    def test_gradcheck_through_joint_network(self, rng):
        model = AsrModel(ConformerConfig(model_dim=8, num_blocks=1, heads=2,
                                         conv_kernel=3, env_dim=4, feature_dim=6,
                                         vocab_size=3), seed=0)
        enc = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        pred = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        labels = np.array([1, 2])
        worst = check_gradients(
            lambda: rnnt_loss(model.joint_log_probs(enc, pred), labels),
            [enc, pred], rtol=1e-4)
        assert worst < 1e-4


class TestLattice:
    def test_normalization_invariant_enforced(self, rng):
        bad = rng.standard_normal((2, 2, 3))  # not log-normalized
        with pytest.raises(ValueError, match="normalized"):
            make_lattice(bad, [0])

    def test_alpha_beta_terminal_identity(self, rng):
        lp = random_log_probs(rng, 4, 2, 3)
        lat = make_lattice(lp, [0, 1])
        final = lat.alpha[-1, -1] + lp[-1, -1, -1]
        np.testing.assert_allclose(final, lat.beta[0, 0], atol=1e-8)
        np.testing.assert_allclose(final, lat.loglik, atol=1e-12)

    def test_non_finite_rejected(self):
        lp = np.full((2, 2, 3), -np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            rnnt_loss(Tensor(lp), np.array([0]))

    def test_label_range_checked(self, rng):
        lp = random_log_probs(rng, 2, 1, 2)
        with pytest.raises(ValueError, match="labels"):
            rnnt_loss(Tensor(lp), np.array([2]))  # blank id is not a label


def encoded(model, feats, env):
    """One utterance's encoder rows, as decoding takes them."""
    with ad.no_grad():
        return model.encode([feats], [env]).data


class TestGreedyDecode:
    def make_model(self):
        return AsrModel(ConformerConfig(model_dim=8, num_blocks=1, heads=2,
                                        conv_kernel=3, env_dim=4, feature_dim=6,
                                        vocab_size=3), seed=0)

    def test_always_blank_gives_empty(self, rng):
        model = self.make_model()
        model.params["joint.w_out"].data[:] = 0.0
        model.params["joint.b_out"].data[:] = 0.0
        model.params["joint.b_out"].data[model.blank_id] = 10.0
        env = rng.standard_normal((3, 4))
        assert greedy_decode(model, encoded(model, rng.standard_normal((9, 6)), env)) == []

    def test_deterministic(self, rng):
        model = self.make_model()
        env = rng.standard_normal((3, 4))
        feats = rng.standard_normal((9, 6))
        assert (greedy_decode(model, encoded(model, feats, env))
                == greedy_decode(model, encoded(model, feats, env)))

    def test_per_frame_cap(self, rng):
        model = self.make_model()
        # force a non-blank argmax forever; the cap must bound the output
        model.params["joint.w_out"].data[:] = 0.0
        model.params["joint.b_out"].data[:] = 0.0
        model.params["joint.b_out"].data[1] = 10.0
        env = rng.standard_normal((3, 4))
        out = greedy_decode(model, encoded(model, rng.standard_normal((9, 6)), env))
        assert len(out) == MAX_SYMBOLS_PER_FRAME * 4  # 4 encoder frames from 9 inputs
