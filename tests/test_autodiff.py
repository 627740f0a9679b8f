import numpy as np
import pytest

from envasr import autodiff as ad
from envasr import optim
from envasr.asr.augment import SpecAugmentPolicy
from envasr.asr.conformer import AsrModel, ConformerConfig, Utterance, asr_step
from envasr.autodiff import Tensor, debug_checks, no_grad
from envasr.env_encoder import EnvEncoder, EnvEncoderConfig, MultimodalBatch, pretrain_step
from envasr.optim import AdamHyper, ParameterSet

from oracles import (attention_composite, check_gradients, cross_entropy_logsumexp,
                     gelu_composite, glu_chain, instance_norm_chain, joint_tanh_direct,
                     layer_norm_chain, log_softmax_max, matmul_add, matmul_triple_loop,
                     scaled_add_chain, sigmoid, softmax, softmax_direct, standardize, sub,
                     sum_, swish_chain, tanh, toposort_dfs, transpose)


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def value_and_grads(fn, arrays, mix):
    """fn's output on fresh leaves of `arrays`, then each leaf's gradient of
    sum(output * mix)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    sum_(ad.mul(out, Tensor(mix))).backward()
    return [out.data] + [leaf.grad for leaf in leaves]


# One training step's shapes in the two benchmark workloads: (rows, model
# width, feed-forward width) and the lattice. asr-long is batch 1 with about
# 82 encoder rows of width 64 and a lattice over 51 label rows and 9 symbols;
# pretrain-mid packs 4 utterances of about 25 rows each at width 128.
WORKLOAD_SHAPES = {"asr-long": (82, 64, 256), "pretrain-mid": (98, 128, 512)}
LATTICES = [(82, 51, 9), (12, 6, 9)]


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestMatmul:
    def test_identity(self, rng):
        a = rng.standard_normal((2, 5))
        out = ad.matmul(t(np.eye(2)), t(a))
        np.testing.assert_allclose(out.data, a)

    def test_against_triple_loop(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0, 6.0], [7.0, 8.0]]
        out = ad.matmul(t(a), t(b))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_array_equal(out.data, matmul_triple_loop(a, b))

    def test_random_against_oracle(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 6))
        np.testing.assert_allclose(ad.matmul(t(a), t(b)).data,
                                   matmul_triple_loop(a, b), atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            ad.matmul(t(rng.standard_normal((2, 3))), t(rng.standard_normal((2, 3))))


class TestSoftmax:
    def test_uniform(self):
        out = softmax(t([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal(7)
        np.testing.assert_allclose(softmax(t(x)).data,
                                   softmax(t(x + 11.5)).data, atol=1e-12)

    def test_dominant_entry_matches_direct(self):
        x = np.array([10.0, 0.0, 0.0])
        np.testing.assert_allclose(softmax(t(x)).data, softmax_direct(x),
                                   rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((5, 9)) * 30
        sums = softmax(t(x), axis=-1).data.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_empty_axis(self):
        with pytest.raises(ValueError, match="empty"):
            softmax(t(np.zeros((2, 0))))


class TestLayerNorm:
    def test_constant_vector(self):
        x = t(np.full((4,), 3.7))
        out = ad.layer_norm(x, t(np.ones(4)), t(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_mean_and_variance(self, rng):
        x = rng.standard_normal((6, 16))
        out = ad.layer_norm(t(x), t(np.ones(16)), t(np.zeros(16)), eps=1e-12).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6

    def test_gradcheck(self, rng):
        x = t(rng.standard_normal((3, 5)), grad=True)
        g = t(rng.standard_normal(5), grad=True)
        b = t(rng.standard_normal(5), grad=True)
        w = rng.standard_normal((3, 5))
        check_gradients(lambda: sum_(ad.mul(ad.layer_norm(x, g, b), Tensor(w))),
                        [x, g, b], rtol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_node_is_bit_identical_to_chain(self, dtype, rng):
        x0, w = rng.standard_normal((2, 9, 24)) * 3.0 + 1.0
        g0, b0 = rng.standard_normal((2, 24))
        fused = norm_value_and_grads(ad.layer_norm, x0, g0, b0, w, dtype)
        chain = norm_value_and_grads(layer_norm_chain, x0, g0, b0, w, dtype)
        for a, c in zip(fused, chain):
            np.testing.assert_array_equal(a, c)


def norm_value_and_grads(norm, x0, g0, b0, w, dtype, **kw):
    """Output and (x, gamma, beta) gradients of sum(norm(x, gamma, beta) * w)."""
    x, g, b = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x0, g0, b0))
    y = norm(x, g, b, **kw)
    sum_(ad.mul(y, Tensor(w, dtype=dtype))).backward()
    return y.data, x.grad, g.grad, b.grad


def instance_norm_segments_chain(x, g, b, lengths):
    """Segmented ``instance_norm`` as one chain per segment, concatenated."""
    bounds = np.cumsum([0] + list(lengths))
    return ad.concat([instance_norm_chain(ad.narrow(x, 0, lo, hi - lo), g, b)
                      for lo, hi in zip(bounds[:-1], bounds[1:])])


class TestInstanceNorm:
    """Per-channel normalization over the time axis of a (time, channels)
    tensor, optionally per segment."""

    def test_constant_channel(self):
        x = t(np.full((6, 2), 5.0))
        out = ad.instance_norm(x, t(np.ones(2)), t(np.zeros(2)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_no_cross_sample_statistics(self, rng):
        samples = [rng.standard_normal((8, 3)) for _ in range(8)]
        g, b = t(np.ones(3)), t(np.zeros(3))
        alone = ad.instance_norm(t(samples[0]), g, b).data
        for s in samples:  # other samples in the "batch" change nothing
            _ = ad.instance_norm(t(s), g, b)
        again = ad.instance_norm(t(samples[0]), g, b).data
        np.testing.assert_array_equal(alone, again)

    def test_gradcheck(self, rng):
        x = t(rng.standard_normal((2, 7)).T.copy(), grad=True)
        g = t(rng.standard_normal(2), grad=True)
        b = t(rng.standard_normal(2), grad=True)
        w = rng.standard_normal((2, 7)).T.copy()
        check_gradients(lambda: sum_(ad.mul(ad.instance_norm(x, g, b), Tensor(w))),
                        [x, g, b], rtol=1e-4)

    def test_channel_offset_cancels(self, rng):
        # the norm subtracts each channel's mean, so a bias before it is dead
        x, c = rng.standard_normal((3, 7)).T, rng.standard_normal(3)
        g, b = t(rng.standard_normal(3)), t(rng.standard_normal(3))
        np.testing.assert_allclose(ad.instance_norm(t(x + c[None, :]), g, b).data,
                                   ad.instance_norm(t(x), g, b).data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_segment_is_bit_identical_to_chain(self, dtype, rng):
        x0, w = rng.standard_normal((2, 11, 16)) * 3.0 + 1.0
        g0, b0 = rng.standard_normal((2, 16))
        fused = norm_value_and_grads(ad.instance_norm, x0, g0, b0, w, dtype, lengths=[11])
        chain = norm_value_and_grads(instance_norm_chain, x0, g0, b0, w, dtype)
        for a, c in zip(fused, chain):
            np.testing.assert_array_equal(a, c)

    def test_segments_match_chain_per_segment(self, rng):
        lengths = [5, 1, 9, 3]
        x0, w = rng.standard_normal((2, sum(lengths), 6)) * 2.0 - 0.5
        g0, b0 = rng.standard_normal((2, 6))
        fused = norm_value_and_grads(ad.instance_norm, x0, g0, b0, w, np.float64,
                                     lengths=lengths)
        chain = norm_value_and_grads(instance_norm_segments_chain, x0, g0, b0, w,
                                     np.float64, lengths=lengths)
        for a, c in zip(fused, chain):
            np.testing.assert_allclose(a, c, rtol=0, atol=1e-12)

    def test_segmented_gradcheck(self, rng):
        lengths = [4, 1, 3]
        x = t(rng.standard_normal((8, 3)), grad=True)
        g = t(rng.standard_normal(3), grad=True)
        b = t(rng.standard_normal(3), grad=True)
        w = rng.standard_normal((8, 3))
        check_gradients(
            lambda: sum_(ad.mul(ad.instance_norm(x, g, b, lengths), Tensor(w))),
            [x, g, b], rtol=1e-4)

    @pytest.mark.parametrize("lengths", [[4, 3], [8, 0], [], [9, -1]])
    def test_bad_lengths_fail_in_one_line(self, lengths, rng):
        x = t(rng.standard_normal((8, 3)))
        with pytest.raises(ValueError, match="instance_norm: segment lengths") as err:
            ad.instance_norm(x, t(np.ones(3)), t(np.zeros(3)), lengths)
        assert "\n" not in str(err.value)


class TestConstantOperands:
    """Backward closures skip gradients of operands that do not require them;
    the gradients they do compute are unchanged."""

    def count_matmuls(self, monkeypatch, loss):
        calls = []
        real = np.matmul

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        loss.backward()
        monkeypatch.setattr(np, "matmul", real)
        return len(calls)

    def test_conv1d_with_constant_input_makes_only_weight_matmuls(self, monkeypatch, rng):
        x0, w0 = rng.standard_normal((9, 4)), rng.standard_normal((3, 4, 5))
        b0 = rng.standard_normal(5)
        grads, counts = [], []
        for x_grad in (True, False):
            x, w, b = t(x0, grad=x_grad), t(w0, grad=True), t(b0, grad=True)
            loss = sum_(ad.conv1d(x, w, b, stride=2))
            counts.append(self.count_matmuls(monkeypatch, loss))
            grads.append((w.grad, b.grad))
            assert (x.grad is not None) == x_grad
        assert counts == [6, 3]
        for a, c in zip(*grads):
            np.testing.assert_array_equal(a, c)

    def test_matmul_with_constant_operand_makes_one_matmul(self, monkeypatch, rng):
        a0, b0 = rng.standard_normal((5, 4)), rng.standard_normal((4, 3))
        a, b = t(a0), t(b0, grad=True)
        assert self.count_matmuls(monkeypatch, sum_(ad.matmul(a, b))) == 1
        a2, b2 = t(a0, grad=True), t(b0, grad=True)
        sum_(ad.matmul(a2, b2)).backward()
        assert a.grad is None
        np.testing.assert_array_equal(b.grad, b2.grad)

    def test_mul_with_constant_operand(self, rng):
        a0, b0 = rng.standard_normal((5, 4)), rng.standard_normal(4)
        a, b = t(a0), t(b0, grad=True)
        sum_(ad.mul(a, b)).backward()
        a2, b2 = t(a0, grad=True), t(b0, grad=True)
        sum_(ad.mul(a2, b2)).backward()
        assert a.grad is None
        np.testing.assert_array_equal(b.grad, b2.grad)


class TestAttention:
    def test_single_key(self, rng):
        q = t(rng.standard_normal((5, 6)))
        k = t(rng.standard_normal((1, 6)))
        v = t(rng.standard_normal((1, 6)))
        out = ad.attention(q, k, v, heads=2)
        for row in out.data:
            np.testing.assert_allclose(row, v.data[0], atol=1e-12)

    def test_identical_keys_give_mean_of_values(self, rng):
        q = t(rng.standard_normal((3, 4)))
        k = t(np.tile(rng.standard_normal(4), (6, 1)))
        v = t(rng.standard_normal((6, 4)))
        out = ad.attention(q, k, v, heads=2)
        for row in out.data:
            np.testing.assert_allclose(row, v.data.mean(axis=0), atol=1e-10)

    @pytest.mark.parametrize("lengths", [[8], [3, 1, 4]])
    def test_key_offset_per_segment_cancels(self, rng, lengths):
        # one row c added to every key of a segment adds q . c to each of a
        # query's scores, which the softmax cancels: a key bias is dead
        q, k, v = (t(rng.standard_normal((8, 6))) for _ in range(3))
        c = np.repeat(rng.standard_normal((len(lengths), 6)), lengths, axis=0)
        np.testing.assert_allclose(ad.attention(q, t(k.data + c), v, 3, lengths).data,
                                   ad.attention(q, k, v, 3, lengths).data, rtol=0, atol=1e-12)

    def test_gradcheck_3x4(self, rng):
        q = t(rng.standard_normal((3, 4)), grad=True)
        k = t(rng.standard_normal((3, 4)), grad=True)
        v = t(rng.standard_normal((3, 4)), grad=True)
        w = rng.standard_normal((3, 4))
        check_gradients(
            lambda: sum_(ad.mul(ad.attention(q, k, v, 2), Tensor(w))),
            [q, k, v], rtol=1e-4)

    def test_head_divisibility(self, rng):
        x = t(rng.standard_normal((2, 6)))
        with pytest.raises(ValueError, match="divisible"):
            ad.attention(x, x, x, heads=4)

    def test_mha_with_identity_projections_is_attention(self, rng):
        params = {f"l.{kind}{m}": t(np.eye(4) if kind == "w" else np.zeros(4))
                  for kind in "wb" for m in "qkvo" if kind + m != "bk"}
        x = t(rng.standard_normal((3, 4)))
        kv = t(rng.standard_normal((5, 4)))
        out = ad.mha(params, "l", x, kv, heads=2)
        np.testing.assert_allclose(out.data, ad.attention(x, kv, kv, 2).data, atol=1e-12)


class TestFusedAttention:
    """`ad.attention` is one node; the reshape/transpose/matmul/mul/softmax
    chain in `attention_composite` is its oracle."""

    @staticmethod
    def run(attend, q0, k0, v0, wo0):
        wo = Tensor(wo0.copy(), requires_grad=True)
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0))
        if k0 is q0:  # self-attention on one tensor: its three gradients add up
            k = v = q
        out = ad.matmul(attend(q, k, v), wo)
        sum_(ad.mul(out, out)).backward()
        return [out.data, q.grad, k.grad, v.grad, wo.grad]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tq,tk,d,heads", [(7, 7, 8, 2), (5, 3, 12, 4), (1, 1, 4, 1),
                                               (6, "shared", 8, 2), (82, 79, 64, 4),
                                               (82, "shared", 64, 4), (25, "shared", 128, 4)])
    def test_one_segment_matches_composite_bit_for_bit(self, rng, dtype, tq, tk, d, heads):
        # the same numpy ops on the same memory layouts, so toy (batch 1)
        # artifacts stay byte-identical to the composite chain's
        q, wo = rng.standard_normal((tq, d)).astype(dtype), rng.standard_normal((d, d))
        if tk == "shared":
            k = v = q
        else:
            k, v = (rng.standard_normal((tk, d)).astype(dtype) for _ in range(2))
        fused = self.run(lambda *a: ad.attention(*a, heads), q, k, v, wo.astype(dtype))
        chain = self.run(lambda *a: attention_composite(*a, heads), q, k, v,
                         wo.astype(dtype))
        assert_same_bytes(fused, chain)

    def test_segments_match_separate_calls(self, rng):
        lengths = [3, 1, 4]
        x = rng.standard_normal((8, 6))
        q, k, v = (Tensor(x * s, requires_grad=True) for s in (1.0, 0.5, 2.0))
        out = ad.attention(q, k, v, 3, lengths)
        lo = 0
        for n in lengths:
            rows = [Tensor(t.data[lo:lo + n]) for t in (q, k, v)]
            np.testing.assert_allclose(out.data[lo:lo + n],
                                       attention_composite(*rows, 3).data,
                                       rtol=0, atol=1e-12)
            lo += n

    def test_gradcheck_three_segments_one_of_length_1(self, rng):
        q, k, v = (t(rng.standard_normal((8, 6)), grad=True) for _ in range(3))
        w = rng.standard_normal((8, 6))
        check_gradients(
            lambda: sum_(ad.mul(ad.attention(q, k, v, 3, [3, 1, 4]), Tensor(w))),
            [q, k, v], rtol=1e-4)

    def test_key_segments_match_separate_calls(self, rng):
        # cross-attention: 8 query rows in segments [3, 1, 4] over 7 key rows
        # in segments [2, 4, 1]; each segment is bit-identical to its own call
        q, k, v = (rng.standard_normal((n, 6)) for n in (8, 7, 7))
        mix = rng.standard_normal((8, 6))
        packed = value_and_grads(lambda *a: ad.attention(*a, 3, [3, 1, 4], [2, 4, 1]),
                                 [q, k, v], mix)
        for (qlo, qhi), (klo, khi) in zip([(0, 3), (3, 4), (4, 8)], [(0, 2), (2, 6), (6, 7)]):
            alone = value_and_grads(lambda *a: ad.attention(*a, 3),
                                    [q[qlo:qhi], k[klo:khi], v[klo:khi]], mix[qlo:qhi])
            np.testing.assert_array_equal(packed[0][qlo:qhi], alone[0])
            np.testing.assert_array_equal(packed[1][qlo:qhi], alone[1])
            np.testing.assert_array_equal(packed[2][klo:khi], alone[2])
            np.testing.assert_array_equal(packed[3][klo:khi], alone[3])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_key_segment_is_bit_identical_to_unsegmented(self, rng, dtype):
        q, k, v = (rng.standard_normal((n, 8)).astype(dtype) for n in (5, 3, 3))
        mix = rng.standard_normal((5, 8)).astype(dtype)
        segmented = value_and_grads(lambda *a: ad.attention(*a, 2, [5], [3]), [q, k, v], mix)
        plain = value_and_grads(lambda *a: ad.attention(*a, 2), [q, k, v], mix)
        for got, want in zip(segmented, plain):
            np.testing.assert_array_equal(got, want)

    def test_gradcheck_key_segments_one_of_length_1(self, rng):
        q = t(rng.standard_normal((6, 4)), grad=True)
        k, v = (t(rng.standard_normal((5, 4)), grad=True) for _ in range(2))
        w = rng.standard_normal((6, 4))
        check_gradients(
            lambda: sum_(ad.mul(ad.attention(q, k, v, 2, [1, 3, 2], [2, 1, 2]), Tensor(w))),
            [q, k, v], rtol=1e-4)

    def test_key_segment_count_must_match(self, rng):
        q, kv = t(rng.standard_normal((5, 4))), t(rng.standard_normal((4, 4)))
        with pytest.raises(ValueError, match="2 query segments but 3 key segments"):
            ad.attention(q, kv, kv, 2, [2, 3], [1, 1, 2])

    def test_debug_checks_name_the_op(self):
        x = t(np.ones((3, 4)))
        nan = t(np.array([[0.5, np.nan, 0.1, 0.2]] * 3))
        with debug_checks():
            with pytest.raises(FloatingPointError, match="'attention'"):
                ad.attention(nan, x, x, 2, [2, 1])

    @pytest.mark.parametrize("lengths,tk,message", [
        ([], 5, r"segment lengths \[\] must be positive and sum to the 5 rows"),
        ([5, 0], 5, r"segment lengths \[5, 0\] must be positive"),
        ([6, -1], 5, r"segment lengths \[6, -1\] must be positive"),
        ([2, 2], 5, r"segment lengths \[2, 2\] must be positive and sum to the 5 rows"),
        ([2, 3], 4, r"attention keys: segment lengths \[2, 3\] must be positive and sum "
                    r"to the 4 rows"),
    ])
    def test_bad_lengths_rejected(self, rng, lengths, tk, message):
        q = t(rng.standard_normal((5, 4)))
        kv = t(rng.standard_normal((tk, 4)))
        with pytest.raises(ValueError, match=message):
            ad.attention(q, kv, kv, 2, lengths)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = t(np.zeros((3, 11)))
        out = ad.cross_entropy(logits, [0, 5, 10])
        np.testing.assert_allclose(out.data, np.log(11), atol=1e-12)

    def test_near_one_hot(self):
        logits = np.zeros((4, 6))
        targets = [1, 2, 3, 0]
        for i, c in enumerate(targets):
            logits[i, c] = 20.0
        assert float(ad.cross_entropy(t(logits), targets).data) < 1e-3

    def test_random_4x7_matches_logsumexp(self, rng):
        logits = rng.standard_normal((4, 7))
        targets = rng.integers(0, 7, 4)
        out = ad.cross_entropy(t(logits), targets)
        np.testing.assert_allclose(out.data,
                                   cross_entropy_logsumexp(logits, targets),
                                   atol=1e-12)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="n > 0"):
            ad.cross_entropy(t(np.zeros((0, 3))), [])

    def test_segments_average_per_segment_means(self, rng):
        logits = rng.standard_normal((6, 4))
        targets = rng.integers(0, 4, 6)
        lengths = [3, 1, 2]
        want, lo = 0.0, 0
        for n in lengths:
            seg = slice(lo, lo + n)
            want += cross_entropy_logsumexp(logits[seg], targets[seg]) / len(lengths)
            lo += n
        x = t(logits, grad=True)
        out = ad.cross_entropy(x, targets, lengths=lengths)
        np.testing.assert_allclose(out.data, want, atol=1e-12)
        check_gradients(lambda: ad.cross_entropy(x, targets, lengths), [x])

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError, match=r"segment lengths \[3, 0\] must be positive"):
            ad.cross_entropy(t(np.zeros((3, 3))), [0, 1, 2], lengths=[3, 0])

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError, match=r"segment lengths \[1, 1\] must be positive "
                                             r"and sum to the 3 rows"):
            ad.cross_entropy(t(np.zeros((3, 3))), [0, 1, 2], lengths=[1, 1])


class TestBackward:
    def test_square(self):
        x = t(3.0, grad=True)
        ad.mul(x, x).backward()
        np.testing.assert_allclose(x.grad, 6.0)

    def test_constant_graph_gives_zero_grad(self):
        x = t(2.0, grad=True)
        y = t(4.0, grad=True)
        ad.mul(y, y).backward()
        assert x.grad is None  # parameter untouched by the graph
        np.testing.assert_allclose(y.grad, 8.0)

    def test_accumulation_across_uses(self):
        x = t(2.0, grad=True)
        ad.add(ad.mul(x, x), x).backward()  # d(x^2 + x) = 2x + 1
        np.testing.assert_allclose(x.grad, 5.0)

    def test_non_scalar_loss_rejected(self, rng):
        x = t(rng.standard_normal(3), grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.mul(x, x).backward()

    def test_two_layer_mlp_gradcheck(self, rng):
        w1 = t(rng.standard_normal((5, 8)) * 0.5, grad=True)
        b1 = t(rng.standard_normal(8) * 0.1, grad=True)
        w2 = t(rng.standard_normal((8, 4)) * 0.5, grad=True)
        b2 = t(rng.standard_normal(4) * 0.1, grad=True)
        x = Tensor(rng.standard_normal((6, 5)))
        targets = rng.integers(0, 4, 6)

        def f():
            h = tanh(ad.add(ad.matmul(x, w1), b1))
            return ad.cross_entropy(ad.add(ad.matmul(h, w2), b2), targets)

        check_gradients(f, [w1, b1, w2, b2], rtol=1e-4)

    def test_graph_freed_after_backward(self):
        x = t(1.5, grad=True)
        y = ad.mul(x, x)
        z = ad.add(y, 1.0)
        z.backward()
        assert y._backward is None and y._parents == ()


class TestElementwiseGradients:
    """Every differentiable primitive against central differences."""

    @pytest.mark.parametrize("op", [
        tanh, sigmoid, ad.gelu, ad.swish, lambda x: standardize(x),
        lambda x: softmax(x, axis=-1), lambda x: ad.log_softmax(x),
    ])
    def test_unary(self, op, rng):
        x = t(rng.uniform(0.3, 2.0, size=(3, 4)), grad=True)
        w = rng.standard_normal((3, 4))
        check_gradients(lambda: sum_(ad.mul(op(x), Tensor(w))), [x], rtol=1e-4)

    @pytest.mark.parametrize("op", [ad.add, sub, ad.mul])
    def test_binary_broadcasting(self, op, rng):
        a = t(rng.uniform(0.5, 2.0, size=(4, 5)), grad=True)
        b = t(rng.uniform(0.5, 2.0, size=(5,)), grad=True)
        w = rng.standard_normal((4, 5))
        check_gradients(lambda: sum_(ad.mul(op(a, b), Tensor(w))), [a, b],
                        rtol=1e-4)

    def test_shape_ops(self, rng):
        x = t(rng.standard_normal((4, 6)), grad=True)
        w = rng.standard_normal((2, 2, 6))

        def f():
            h = ad.reshape(ad.narrow(x, 0, 1, 2), (1, 2, 6))
            h = ad.concat([h, ad.reshape(ad.narrow(x, 0, 2, 2), (1, 2, 6))], axis=0)
            return sum_(ad.mul(transpose(h, (0, 1, 2)), Tensor(w)))

        check_gradients(f, [x], rtol=1e-4)

    def test_embedding_scatter(self, rng):
        table = t(rng.standard_normal((5, 3)), grad=True)
        ids = np.array([1, 1, 4, 0])
        w = rng.standard_normal((4, 3))
        check_gradients(lambda: sum_(ad.mul(ad.embedding(table, ids), Tensor(w))),
                        [table], rtol=1e-4)

    @pytest.mark.parametrize("ids", [[3, 0, 5, 1, 4, 2], [2, 0, 5],
                                     [1, 1, 4, 0, 1, 4], [3, 3]],
                             ids=["permutation", "distinct", "repeated", "one-row"])
    def test_embedding_gradient_equals_scatter_add(self, ids, rng):
        table = t(rng.standard_normal((6, 3)), grad=True)
        grad = rng.standard_normal((len(ids), 3))
        out = ad.embedding(table, ids)
        sum_(ad.mul(out, Tensor(grad))).backward()
        want = np.zeros((6, 3))
        np.add.at(want, np.array(ids), grad)
        np.testing.assert_array_equal(table.grad, want)

    def test_sum_axis(self, rng):
        x = t(rng.standard_normal((3, 4)), grad=True)
        w = Tensor(rng.standard_normal(4))
        check_gradients(lambda: sum_(ad.mul(sum_(x, axis=0), w)),
                        [x], rtol=1e-4)


class TestFusedGelu:
    """The one-node GELU against the composite of elementwise ops."""

    def _value_and_grad(self, op, x0, w, dtype):
        x = Tensor(x0, requires_grad=True, dtype=dtype)
        y = op(x)
        sum_(ad.mul(y, Tensor(w, dtype=dtype))).backward()
        return y.data, x.grad

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 2e-6)])
    def test_matches_composite_oracle(self, dtype, tol, rng):
        x0 = np.concatenate([np.linspace(-10.0, 10.0, 401), [0.0, 1e-4, -1e-4],
                             rng.uniform(-10.0, 10.0, 200)])
        w = rng.standard_normal(x0.shape)
        y, g = self._value_and_grad(ad.gelu, x0, w, dtype)
        y_ref, g_ref = self._value_and_grad(gelu_composite, x0, w, dtype)
        assert y.dtype == g.dtype == dtype
        np.testing.assert_allclose(y, y_ref, rtol=0, atol=tol)
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=tol)

    def test_single_node(self, rng):
        x = t(rng.standard_normal((2, 3)), grad=True)
        y = ad.gelu(x)
        assert y._parents == (x,)

    def test_gradcheck_negative_inputs(self, rng):
        x = t(rng.uniform(-4.0, 4.0, size=(4, 5)), grad=True)
        w = rng.standard_normal((4, 5))
        check_gradients(lambda: sum_(ad.mul(ad.gelu(x), Tensor(w))), [x], rtol=1e-4)

    def test_debug_checks_name_gelu(self):
        with debug_checks():
            with pytest.raises(FloatingPointError, match="'gelu'"):
                ad.gelu(t([1.0, np.nan]))


class TestFusedLayerNodes:
    """Each one-node layer against the chain it replaced (tests/oracles.py):
    the value and every gradient, byte for byte."""

    @staticmethod
    def compare(fused, chain, arrays, mix):
        assert_same_bytes(value_and_grads(fused, arrays, mix),
                          value_and_grads(chain, arrays, mix))

    @staticmethod
    def draw(rng, dtype, *shapes):
        return [(3.0 * rng.standard_normal(s)).astype(dtype) for s in shapes]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_SHAPES))
    def test_matmul_with_bias(self, rng, dtype, workload):
        rows, d, ff = WORKLOAD_SHAPES[workload]
        for din, dout in ((d, ff), (ff, d), (d, 24)):
            self.compare(ad.matmul, matmul_add,
                         self.draw(rng, dtype, (rows, din), (din, dout), (dout,)),
                         *self.draw(rng, dtype, (rows, dout)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_SHAPES))
    def test_swish(self, rng, dtype, workload):
        rows, d, ff = WORKLOAD_SHAPES[workload]
        for width in (d, ff):
            x, mix = self.draw(rng, dtype, (rows, width), (rows, width))
            self.compare(ad.swish, swish_chain, [x], mix)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_SHAPES))
    def test_glu(self, rng, dtype, workload):
        rows, d, _ = WORKLOAD_SHAPES[workload]
        x, mix = self.draw(rng, dtype, (rows, 2 * d), (rows, d))
        mix[0, :4] = 0.0  # zero gradients, whose sign must be the chain's too
        x[1, :4] = 0.0
        x[2, d:d + 4] = -200.0  # a gate of 0
        mix[2, :4] = -1.0
        with np.errstate(over="ignore"):
            self.compare(ad.glu, glu_chain, [x], mix)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_SHAPES))
    def test_half_step_residual(self, rng, dtype, workload):
        rows, d, _ = WORKLOAD_SHAPES[workload]
        self.compare(lambda x, f: ad.scaled_add(x, f, 0.5),
                     lambda x, f: scaled_add_chain(x, f, 0.5),
                     self.draw(rng, dtype, (rows, d), (rows, d)),
                     *self.draw(rng, dtype, (rows, d)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_SHAPES))
    def test_layer_norm_statistics(self, rng, dtype, workload):
        rows, d, _ = WORKLOAD_SHAPES[workload]
        x, g, b, mix = self.draw(rng, dtype, (rows, d), (d,), (d,), (rows, d))
        self.compare(ad.layer_norm, layer_norm_chain, [x + 1.0, g, b], mix)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", LATTICES)
    def test_log_softmax_row_max(self, rng, dtype, shape):
        x, mix = self.draw(rng, dtype, shape, shape)
        x[0, 0] = x[0, 0, 3]  # a row whose max is taken twice
        self.compare(ad.log_softmax, log_softmax_max, [x], mix)

    def test_each_is_one_node(self, rng):
        x, w, b = t(rng.standard_normal((3, 4)), grad=True), t(rng.standard_normal((4, 4))), \
            t(rng.standard_normal(4), grad=True)
        assert ad.matmul(x, w, b)._parents == (x, w, b)
        assert ad.matmul(x, w)._parents == (x, w)
        assert ad.swish(x)._parents == ad.glu(x)._parents == (x,)
        assert ad.scaled_add(x, b, 0.5)._parents == (x, b)

    def test_gradchecks(self, rng):
        x = t(rng.standard_normal((3, 6)), grad=True)
        w, b = t(rng.standard_normal((6, 4)), grad=True), t(rng.standard_normal(4), grad=True)
        f = t(rng.standard_normal((3, 4)), grad=True)
        mix3, mix4 = Tensor(rng.standard_normal((3, 3))), Tensor(rng.standard_normal((3, 4)))
        check_gradients(lambda: sum_(ad.mul(ad.matmul(x, w, b), mix4)), [x, w, b])
        check_gradients(lambda: sum_(ad.mul(ad.glu(x), mix3)), [x])
        check_gradients(lambda: sum_(ad.mul(ad.scaled_add(f, ad.matmul(x, w), 0.5), mix4)),
                        [f, x, w])

    def test_bad_operands_fail_in_one_line(self, rng):
        x, w = t(rng.standard_normal((3, 4))), t(rng.standard_normal((4, 5)))
        with pytest.raises(ValueError, match="matmul bias"):
            ad.matmul(x, w, t(np.zeros(4)))
        with pytest.raises(ValueError, match="matmul bias"):
            ad.matmul(x, w, Tensor(np.zeros(5), dtype=np.float32))
        with pytest.raises(ValueError, match="glu needs an even last axis"):
            ad.glu(t(np.zeros((2, 5))))


class TestGradientOwnership:
    """A tensor with two consumers gets, byte for byte, the sum of the
    gradients two copies of it, one per consumer, get: an op may keep an
    array as a gradient only where nothing else holds it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_queries_keys_and_values_from_one_tensor(self, rng, dtype):
        x0, wo = (rng.standard_normal((82, 64)).astype(dtype),
                  rng.standard_normal((64, 64)).astype(dtype))
        # four tensors on one array, so that numpy computes the same products
        x, q, k, v = (Tensor(x0, requires_grad=True) for _ in range(4))
        for q, k, v in ((x, x, x), (q, k, v)):
            out = ad.matmul(ad.attention(q, k, v, 4), Tensor(wo))
            sum_(ad.mul(out, out)).backward()
        # attention hands over the value, key and query gradients in that order
        assert_same_bytes([x.grad], [(v.grad + k.grad) + q.grad])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("residual", ["add", "scaled_add"])
    @pytest.mark.parametrize("branch", ["layer_norm", "matmul"])
    def test_residual_read_by_two_consumers(self, rng, dtype, residual, branch):
        x0, mix = (rng.standard_normal((82, 64)).astype(dtype) for _ in range(2))
        params = [Tensor(a.astype(dtype), requires_grad=True)
                  for a in (rng.standard_normal((64, 64)) / 8, rng.standard_normal(64),
                            rng.standard_normal(64), rng.standard_normal(64))]
        w, b, g, beta = params

        def layer(x_res, x_in):
            h = ad.layer_norm(x_in, g, beta) if branch == "layer_norm" else x_in
            f = ad.matmul(h, w, b)
            y = ad.add(x_res, f) if residual == "add" else ad.scaled_add(x_res, f, 0.5)
            sum_(ad.mul(y, Tensor(mix))).backward()
            return [p.grad.copy() for p in params if p.grad is not None]

        x, x_res, x_in = (Tensor(x0.copy(), requires_grad=True) for _ in range(3))
        shared = layer(x, x)
        for p in params:
            p.grad = None
        split = layer(x_res, x_in)
        assert_same_bytes(shared, split)
        # the residual's gradient comes first, the branch's is added to it
        assert_same_bytes([x.grad], [x_res.grad + x_in.grad])


def parameter_consumers(rng, dtype):
    """Name -> (shape, fn): `fn(p)` is an op output read from a parameter of
    that shape, for every op that hands a parameter its gradient; the other
    operands are fixed."""
    x, w, e, g, k, c3, c4, c5 = (Tensor((3.0 * rng.standard_normal(s)).astype(dtype))
                                 for s in ((7, 4), (4, 3), (4, 3), (2, 3), (3, 4, 5),
                                           (3,), (4,), (5,)))
    return {
        "matmul weight": ((4, 3), lambda p: ad.matmul(x, p)),
        "matmul bias": ((3,), lambda p: ad.matmul(x, w, p)),
        "layer_norm gain": ((4,), lambda p: ad.layer_norm(x, p, c4)),
        "layer_norm shift": ((4,), lambda p: ad.layer_norm(x, c4, p)),
        "instance_norm gain": ((4,), lambda p: ad.instance_norm(x, p, c4, [3, 4])),
        "instance_norm shift": ((4,), lambda p: ad.instance_norm(x, c4, p, [3, 4])),
        "embedding": ((5, 3), lambda p: ad.embedding(p, [4, 0, 2])),
        "embedding repeated ids": ((5, 3), lambda p: ad.embedding(p, [1, 3, 1, 1])),
        "narrow": ((2, 4), lambda p: ad.add(x, ad.narrow(p, 0, 1, 1))),
        "conv1d kernel": ((3, 4, 5), lambda p: ad.conv1d(x, p, c5, stride=2)),
        "conv1d bias": ((5,), lambda p: ad.conv1d(x, k, p)),
        "depthwise kernel": ((3, 4), lambda p: ad.depthwise_conv1d(x, p, [3, 4])),
        "recurrence": ((4, 4), lambda p: ad.rnn_tanh(x, p, [3, 4])),
        "joint bias": ((3,), lambda p: ad.joint_tanh(e, g, p)),
    }


def no_copy_into(monkeypatch, buf):
    """Fail any `np.copyto` into `buf` while the test runs."""
    copyto = np.copyto

    def checked(dst, src, *args, **kwargs):
        assert not np.shares_memory(dst, buf), "a gradient was copied into the flat buffer"
        return copyto(dst, src, *args, **kwargs)

    monkeypatch.setattr(np, "copyto", checked)


class TestGradientsInPlace:
    """Each op that feeds a parameter writes its first gradient straight into
    the parameter's slice of the flat gradient buffer: no temporary is copied
    there, and the bytes are those a plain tensor of the same values gets."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("uses", [1, 2])
    @pytest.mark.parametrize("op", sorted(parameter_consumers(np.random.default_rng(0),
                                                              np.float64)))
    def test_same_bytes_as_a_plain_tensor(self, rng, monkeypatch, dtype, uses, op):
        shape, fn = parameter_consumers(rng, dtype)[op]
        init = rng.standard_normal(shape).astype(dtype)
        params = ParameterSet({"p": init})
        plain = Tensor(init.copy(), requires_grad=True)
        no_copy_into(monkeypatch, params.flat.grad)
        for p in (params["p"], plain):
            # a second consumer adds its gradient to the first one's
            out = fn(p) if uses == 1 else ad.add(fn(p), ad.mul(fn(p), 0.5))
            sum_(ad.mul(out, out)).backward()
        assert params["p"].grad is params["p"]._grad_buf
        assert_same_bytes([params["p"].grad], [plain.grad])

    def test_training_steps_write_every_gradient_in_place(self, rng, monkeypatch):
        asr = AsrModel(ConformerConfig(model_dim=8, num_blocks=1, heads=2, conv_kernel=3,
                                       env_dim=4, feature_dim=6, vocab_size=3), seed=0)
        env = EnvEncoder(EnvEncoderConfig(model_dim=8, num_blocks=2, heads=2, vocab_size=6,
                                          audio_patch_dim=6, video_patch_dim=12,
                                          max_audio_positions=8, max_video_steps=4,
                                          max_grid_rows=2, max_grid_cols=2), seed=0)
        utts = [Utterance(rng.standard_normal((n, 6)), np.array([1, 0, 2]),
                          rng.standard_normal((4, 4))) for n in (11, 13)]
        batches = [MultimodalBatch(audio_patches=rng.standard_normal((4, 6)),
                                   video_patches=rng.standard_normal((2, 12)),
                                   video_grid=(1, 2, 1), labels=rng.integers(0, 6, 6))
                   for _ in range(2)]
        seen = []

        def check(params):
            seen.append(len(params.names()))
            for name, p in params.items():
                assert p.grad is p._grad_buf, name

        adam_step = optim.adam_step
        monkeypatch.setattr(optim, "adam_step",
                            lambda params, *args: (check(params), adam_step(params, *args)))
        for model in (asr, env):
            no_copy_into(monkeypatch, model.params.flat.grad)
        asr_step(asr, utts, [0, 1], SpecAugmentPolicy(1, 2, 1, 2), AdamHyper(), step=0)
        pretrain_step(env, batches, AdamHyper(), step=0)
        assert seen == [len(asr.params.names()), len(env.params.names())]


class TestShortAxisSum:
    """``_sum_last``, log_softmax's sum over the last axis, against
    ``np.add.reduce`` byte for byte: finite values of mixed scale, signed
    zeros, all-zero rows of either sign, and infinities."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", LATTICES + [(7,), (40, 1), (3, 5, 2), (6, 7), (6, 8),
                                                  (2, 3, 12), (6, 15), (6, 16), (4, 33)])
    def test_bytes_match_numpy(self, rng, dtype, shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)
        kind = rng.integers(0, 8, shape)
        x[kind == 0] = 0.0
        x[kind == 1] = -0.0
        x = np.stack([x, np.where(kind < 4, -0.0, 0.0), np.full(shape, -0.0),
                      np.where(kind == 2, -np.inf, x), np.where(kind == 3, np.inf, x)])
        x = x.astype(dtype)
        with np.errstate(invalid="ignore"):
            want = np.add.reduce(x, axis=-1)
            assert_same_bytes([np.asarray(ad._sum_last(x))], [want])
            # a transposed view takes numpy's own path
            y = np.swapaxes(x, 0, -1)
            assert_same_bytes([ad._sum_last(y)], [np.add.reduce(y, axis=-1)])


class TestFusedTransducerLayers:
    """The one-node recurrence and joint hidden layer: values against plain
    numpy, gradients against central differences. Their equivalence with the
    unfused model graph is tested in test_conformer.py."""

    def test_rnn_tanh_values(self, rng):
        x0, w0 = rng.standard_normal((5, 3)), rng.standard_normal((3, 3))
        h, want = ad.rnn_tanh(t(x0), t(w0)).data, []
        prev = np.zeros(3)
        for row in x0:
            prev = np.tanh(row + prev @ w0)
            want.append(prev)
        np.testing.assert_allclose(h, want, rtol=0, atol=1e-15)

    def test_joint_tanh_values(self, rng):
        e0, g0, b0 = (rng.standard_normal(s) for s in ((4, 3), (2, 3), (3,)))
        h = ad.joint_tanh(t(e0), t(g0), t(b0)).data
        want = [np.tanh(e + g + b0) for e in e0 for g in g0]
        np.testing.assert_allclose(h, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(81, 51, 64), (4, 2, 3)])
    def test_joint_tanh_is_bit_identical_to_direct(self, shape, dtype, rng):
        # the one-buffer forward and backward round exactly as the node
        # built from fresh temporaries did
        n_t, n_u, j = shape
        e0, g0, b0 = (rng.standard_normal(s) for s in ((n_t, j), (n_u, j), (j,)))
        mix = Tensor(rng.standard_normal((n_t * n_u, j)), dtype=dtype)
        got = []
        for node in (ad.joint_tanh, joint_tanh_direct):
            e, g, b = (Tensor(a, requires_grad=True, dtype=dtype) for a in (e0, g0, b0))
            h = node(e, g, b)
            sum_(ad.mul(h, mix)).backward()
            got.append([h.data, e.grad, g.grad, b.grad])
        for fast, direct in zip(*got):
            assert fast.dtype == direct.dtype == dtype and fast.shape == direct.shape
            assert fast.tobytes() == direct.tobytes()

    def test_single_nodes(self, rng):
        x, w = t(rng.standard_normal((4, 3)), grad=True), t(np.eye(3), grad=True)
        assert ad.rnn_tanh(x, w)._parents == (x, w)
        e, g, b = (t(rng.standard_normal(s), grad=True) for s in ((4, 3), (2, 3), (3,)))
        assert ad.joint_tanh(e, g, b)._parents == (e, g, b)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_rnn_tanh_gradcheck(self, n, rng):
        x = t(rng.standard_normal((n, 3)), grad=True)
        w_rec = t(0.7 * rng.standard_normal((3, 3)), grad=True)
        w = Tensor(rng.standard_normal((n, 3)))
        check_gradients(lambda: sum_(ad.mul(ad.rnn_tanh(x, w_rec), w)),
                        [x, w_rec], rtol=1e-4)

    def test_joint_tanh_gradcheck(self, rng):
        e, g, b = (t(rng.standard_normal(s), grad=True) for s in ((4, 3), (5, 3), (3,)))
        w = Tensor(rng.standard_normal((20, 3)))
        check_gradients(lambda: sum_(ad.mul(ad.joint_tanh(e, g, b), w)),
                        [e, g, b], rtol=1e-4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rnn_tanh weight"):
            ad.rnn_tanh(t(np.ones((2, 3))), t(np.ones((3, 2))))
        with pytest.raises(ValueError, match="joint_tanh shape mismatch"):
            ad.joint_tanh(t(np.ones((2, 3))), t(np.ones((2, 4))), t(np.ones(3)))

    def test_debug_checks_name_the_ops(self):
        nan = np.array([[0.5, np.nan], [0.1, 0.2]])
        with debug_checks():
            with pytest.raises(FloatingPointError, match="'rnn_tanh'"):
                ad.rnn_tanh(t(nan), t(np.eye(2)))
            with pytest.raises(FloatingPointError, match="'joint_tanh'"):
                ad.joint_tanh(t(nan), t(np.ones((3, 2))), t(np.zeros(2)))


class TestSegmentedConvAndRecurrence:
    """`depthwise_conv1d` and `rnn_tanh` with segment `lengths` treat each
    segment as if it ran alone: zero padding at its own edges, and the
    recurrence restarting at its first row."""

    LENGTHS = [4, 1, 6, 2]

    def conv(self, x, w, lengths=None):
        return ad.depthwise_conv1d(x, w, lengths)

    def rnn(self, x, w, lengths=None):
        return ad.rnn_tanh(x, w, lengths)

    def inputs(self, rng, op, dtype=np.float64):
        x = rng.standard_normal((sum(self.LENGTHS), 3)).astype(dtype)
        w = rng.standard_normal((5, 3) if op == "conv" else (3, 3)).astype(dtype)
        return x, w, rng.standard_normal(x.shape).astype(dtype)

    @pytest.mark.parametrize("op", ["conv", "rnn"])
    def test_segments_are_bit_identical_to_separate_calls(self, rng, op):
        fn = getattr(self, op)
        x, w, mix = self.inputs(rng, op)
        packed = value_and_grads(lambda a, b: fn(a, b, self.LENGTHS), [x, w], mix)
        w_grad = np.zeros_like(w)
        lo = 0
        for n in self.LENGTHS:
            alone = value_and_grads(fn, [x[lo:lo + n], w], mix[lo:lo + n])
            np.testing.assert_array_equal(packed[0][lo:lo + n], alone[0])
            np.testing.assert_array_equal(packed[1][lo:lo + n], alone[1])
            w_grad += alone[2]
            lo += n
        np.testing.assert_allclose(packed[2], w_grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["conv", "rnn"])
    def test_one_segment_is_bit_identical_to_unsegmented(self, rng, op, dtype):
        fn = getattr(self, op)
        x, w, mix = self.inputs(rng, op, dtype)
        segmented = value_and_grads(lambda a, b: fn(a, b, [x.shape[0]]), [x, w], mix)
        for got, want in zip(segmented, value_and_grads(fn, [x, w], mix)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("op", ["conv", "rnn"])
    def test_gradcheck_with_a_segment_of_length_1(self, rng, op):
        fn = getattr(self, op)
        x, w, mix = self.inputs(rng, op)
        x, w = t(x, grad=True), t(0.5 * w, grad=True)
        check_gradients(lambda: sum_(ad.mul(fn(x, w, self.LENGTHS), Tensor(mix))), [x, w],
                        rtol=1e-4)

    @pytest.mark.parametrize("op", ["conv", "rnn"])
    def test_bad_lengths_rejected(self, rng, op):
        x, w, _ = self.inputs(rng, op)
        with pytest.raises(ValueError, match=r"segment lengths \[4, 4\] must be positive "
                                             r"and sum to the 13 rows"):
            getattr(self, op)(t(x), t(w), [4, 4])


class TestToposort:
    """The engine's tape sort visits nodes in the oracle DFS's order."""

    @staticmethod
    def assert_same_order(root):
        got, want = ad._toposort(root), toposort_dfs(root)
        assert len(got) == len(want) == len({id(n) for n in got})
        assert all(a is b for a, b in zip(got, want))
        return len(got)

    def test_diamond_with_shared_subgraph(self, rng):
        x, w = t(rng.standard_normal(3), grad=True), t(rng.standard_normal(3), grad=True)
        shared = tanh(ad.mul(x, w))
        left, right = ad.mul(shared, x), sigmoid(ad.add(shared, w))
        root = sum_(ad.add(ad.mul(left, right), ad.mul(shared, shared)))
        assert self.assert_same_order(root) == 11

    def test_pretrain_step_graph_at_batch_4(self, rng, monkeypatch):
        # a packed step's graph does not grow with the batch, so the depth
        # keeps it above 400 nodes
        cfg = EnvEncoderConfig(model_dim=16, num_blocks=14, heads=4, vocab_size=24,
                               audio_patch_dim=12, video_patch_dim=20,
                               max_audio_positions=32, max_video_steps=8,
                               max_grid_rows=4, max_grid_cols=4)
        batches = [MultimodalBatch(audio_patches=rng.standard_normal((5, 12)),
                                   video_patches=rng.standard_normal((8, 20)),
                                   video_grid=(2, 2, 2),
                                   labels=rng.integers(0, 24, 13)) for _ in range(4)]
        sizes = []
        backward = Tensor.backward

        def checked_backward(self):
            sizes.append(TestToposort.assert_same_order(self))
            backward(self)

        monkeypatch.setattr(Tensor, "backward", checked_backward)
        pretrain_step(EnvEncoder(cfg, seed=0), batches, AdamHyper(), step=0)
        assert len(sizes) == 1 and sizes[0] > 400

    def test_asr_loss_graph(self, rng):
        cfg = ConformerConfig(model_dim=8, num_blocks=4, heads=2, conv_kernel=3,
                              env_dim=4, feature_dim=6, vocab_size=3)
        model = AsrModel(cfg, seed=0)
        loss, = model.losses([Utterance(rng.standard_normal((11, 6)), np.array([1, 0, 2]),
                                         rng.standard_normal((4, 4)))])
        assert self.assert_same_order(loss) > 300


class TestDeterminismAndChecks:
    def test_ops_are_pure(self, rng):
        x = rng.standard_normal((4, 4))
        a = ad.log_softmax(t(x)).data
        b = ad.log_softmax(t(x)).data
        np.testing.assert_array_equal(a, b)

    def test_debug_mode_flags_nonfinite(self):
        with np.errstate(over="ignore"):
            with debug_checks():
                with pytest.raises(FloatingPointError, match="non-finite"):
                    ad.mul(t([1e308]), 10.0)
            # outside debug mode the check is off
            assert np.isposinf(ad.mul(t([1e308]), 10.0).data).all()

    def test_no_grad_suppresses_graph(self):
        x = t(2.0, grad=True)
        with no_grad():
            y = ad.mul(x, x)
        assert y._backward is None and not y.requires_grad

    def test_float32_tensors_supported(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        y = sum_(ad.mul(x, x))
        assert y.data.dtype == np.float32
        y.backward()
        assert x.grad.dtype == np.float32
