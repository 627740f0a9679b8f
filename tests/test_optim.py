import numpy as np
import pytest

from envasr import autodiff as ad
from envasr.autodiff import Tensor
from envasr.optim import (ADAM_CHUNK, AdamHyper, ParameterSet, adam_step,
                          count_parameters, init_param, minimize_mean)
from envasr.pipeline.checkpoint import Checkpoint, restore_params

from oracles import adam_scalar_trajectory, adam_step_per_tensor, sum_


def make_params(values):
    params = ParameterSet()
    for name, v in values.items():
        params.add(name, np.asarray(v, dtype=np.float64))
    return params


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = make_params({"w": [2.0, -1.0, 0.5]})
        params["w"].grad = np.array([0.3, -4.0, 1e-3])
        adam_step(params, lr=0.01, eps=1e-8)
        delta = params["w"].data - np.array([2.0, -1.0, 0.5])
        np.testing.assert_allclose(delta, -0.01 * np.sign([0.3, -4.0, 1e-3]),
                                   rtol=1e-4)

    def test_zero_grad_zero_moments_is_identity(self):
        params = make_params({"w": [1.0, 2.0]})
        params["w"].grad = np.zeros(2)
        adam_step(params, lr=0.5)
        np.testing.assert_array_equal(params["w"].data, [1.0, 2.0])

    def test_lr_zero_is_identity(self, rng):
        params = make_params({"w": rng.standard_normal(4)})
        before = params["w"].data.copy()
        for _ in range(3):
            params["w"].grad = rng.standard_normal(4)
            adam_step(params, lr=0.0)
        np.testing.assert_array_equal(params["w"].data, before)

    def test_three_step_trajectory_matches_scalar_oracle(self):
        lr, b1, b2, eps = 3e-4, 0.9, 0.99, 1e-8
        grads = [0.7, -1.3, 0.25]
        params = make_params({"x": [2.0]})
        seen = []
        for g in grads:
            params["x"].grad = np.array([g])
            adam_step(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
            seen.append(float(params["x"].data[0]))
        expected = adam_scalar_trajectory(2.0, grads, lr, b1, b2, eps)
        np.testing.assert_allclose(seen, expected, atol=1e-12)

    def test_missing_grad_rejected(self):
        params = make_params({"a": [1.0], "b": [2.0]})
        params["a"].grad = np.array([0.1])
        with pytest.raises(ValueError, match="missing gradient"):
            adam_step(params, lr=0.1)

    def test_grads_cleared_after_step(self):
        params = make_params({"w": [1.0]})
        params["w"].grad = np.array([1.0])
        adam_step(params, lr=0.1)
        assert params["w"].grad is None


class TestAdamMatchesPerTensorOracle:
    """The chunked flat-buffer update against the per-tensor one, bit for bit."""

    # 286,022 elements: `a.w` alone spans three chunks, and `b.frozen` sits
    # between live parameters in name order.
    SHAPES = {"a.w": (300, 500), "b.frozen": (70_000,), "c.b": (7,),
              "d.w": (3, 5), "e.t": (2, 33_000)}
    ADAM_T = {"a.w": 2, "b.frozen": 0, "c.b": 2, "d.w": 5, "e.t": 9}

    def two_sets(self, dtype, rng):
        values = {n: rng.standard_normal(s).astype(dtype) for n, s in self.SHAPES.items()}
        tensors = {}
        for name, shape in self.SHAPES.items():
            tensors[f"p.{name}"] = values[name] + 1.0
            tensors[f"m.{name}"] = 0.1 * rng.standard_normal(shape)
            tensors[f"v.{name}"] = 0.01 * rng.random(shape)
        ckpt = Checkpoint(0, 0, [], tensors, dict(self.ADAM_T))
        packed, oracle = ParameterSet(), ParameterSet()
        for params in (packed, oracle):
            for name, v in values.items():
                params.add(name, v.copy())
            params["b.frozen"].requires_grad = False
        packed.pack()
        for params in (packed, oracle):
            restore_params(params, ckpt)
        return packed, oracle

    @staticmethod
    def backward(params, weights):
        terms = []
        for name, (w1, w2) in weights.items():
            p = params[name]
            terms.append(sum_(ad.mul(p, Tensor(w1))))
            terms.append(sum_(ad.mul(ad.mul(p, p), Tensor(w2))))  # second use: +=
        sum(terms[1:], terms[0]).backward()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_five_steps_bit_identical(self, dtype, rng):
        assert sum(np.prod(s) for s in self.SHAPES.values()) > 2 * ADAM_CHUNK
        packed, oracle = self.two_sets(dtype, rng)
        frozen = packed["b.frozen"].data.copy()
        live = [n for n in self.SHAPES if n != "b.frozen"]
        for step in range(5):
            if step % 2:
                for name in live:
                    g = rng.standard_normal(self.SHAPES[name]).astype(dtype)
                    packed[name].grad, oracle[name].grad = g.copy(), g
            else:
                weights = {n: tuple(rng.standard_normal(self.SHAPES[n]).astype(dtype)
                                    for _ in range(2)) for n in live}
                for params in (packed, oracle):
                    self.backward(params, weights)
                assert np.shares_memory(packed["a.w"].grad, packed._flat.grad)
                g = rng.standard_normal(7).astype(dtype)
                packed["c.b"].grad, oracle["c.b"].grad = g.copy(), g
            adam_step(packed, 1e-2, 0.9, 0.99, 1e-8)
            adam_step_per_tensor(oracle, 1e-2, 0.9, 0.99, 1e-8)
            for name in self.SHAPES:
                got, want = packed.state(name), oracle.state(name)
                assert np.array_equal(packed[name].data, oracle[name].data), (step, name)
                assert np.array_equal(got.m, want.m) and np.array_equal(got.v, want.v)
                assert got.t == want.t == self.ADAM_T[name] + (step + 1) * (name in live)
                assert packed[name].data.dtype == got.m.dtype == dtype
        np.testing.assert_array_equal(packed["b.frozen"].data, frozen)


class TestMinimizeMean:
    def test_two_losses_update_like_backward_on_their_mean(self, rng):
        start, a, b = rng.standard_normal((3, 4))
        hyper = AdamHyper(lr=0.01)

        def losses(params):
            w = params["w"]
            return [sum_(ad.mul(w, Tensor(a))), sum_(ad.mul(ad.mul(w, w), Tensor(b)))]

        helper = make_params({"w": start.copy()})
        loss = minimize_mean(helper, losses(helper), hyper)

        by_hand = make_params({"w": start.copy()})
        first, second = losses(by_hand)
        mean = ad.mul(ad.add(first, second), 0.5)
        mean.backward()
        adam_step(by_hand, hyper.lr, hyper.beta1, hyper.beta2, hyper.eps)

        assert loss == float(mean.data)
        np.testing.assert_array_equal(helper["w"].data, by_hand["w"].data)
        for moment in ("m", "v", "t"):
            np.testing.assert_array_equal(getattr(helper.state("w"), moment),
                                          getattr(by_hand.state("w"), moment))
        assert helper["w"].grad is None


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        params = ParameterSet()
        params.add("w", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            params.add("w", np.zeros(2))

    def test_iteration_sorted_by_name(self):
        params = make_params({"b": [1.0], "a": [2.0], "c": [3.0]})
        assert [name for name, _ in params.items()] == ["a", "b", "c"]

    def test_pack_makes_views_of_flat_buffers(self, rng):
        params = make_params({"b": rng.standard_normal(3), "a": rng.standard_normal((2, 2))})
        before = {name: p.data.copy() for name, p in params.items()}
        params.pack()
        flat = params._flat
        assert flat.data.size == 7
        np.testing.assert_array_equal(flat.data, np.concatenate(
            [before["a"].ravel(), before["b"]]))
        for name, p in params.items():
            st = params.state(name)
            np.testing.assert_array_equal(p.data, before[name])
            for arr, buf in ((p.data, flat.data), (st.m, flat.m), (st.v, flat.v),
                             (p._grad_buf, flat.grad)):
                assert arr.shape == p.data.shape and np.shares_memory(arr, buf)
        views = [p.data for _, p in params.items()]
        params.pack()  # a second pack does nothing
        assert [p.data for _, p in params.items()] == views
        assert params._flat is flat

    def test_add_after_pack_rejected(self):
        params = make_params({"w": [1.0]})
        params.pack()
        with pytest.raises(ValueError, match="cannot add b: the parameter set is packed"):
            params.add("b", np.zeros(2))

    def test_mixed_dtypes_rejected(self):
        params = make_params({"w": [1.0]})
        params.add("h", np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="mixed dtypes: float32, float64"):
            params.pack()

    def test_adam_step_packs_hand_built_set(self):
        params = make_params({"w": [1.0, 2.0]})
        params["w"].grad = np.array([0.5, -0.5])
        adam_step(params, lr=0.1)
        assert np.shares_memory(params["w"].data, params._flat.data)

    def test_moments_match_parameter_shape(self, rng):
        params = make_params({"w": rng.standard_normal((3, 4))})
        st = params.state("w")
        assert st.m.shape == (3, 4) and st.v.shape == (3, 4) and st.t == 0


class TestInitParam:
    @pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5)])
    def test_weight_scaled_by_fan_in(self, shape):
        params = ParameterSet()
        w = init_param(params, np.random.default_rng(3), "w", shape, np.float64)
        fan_in = int(np.prod(shape[:-1]))
        want = np.random.default_rng(3).standard_normal(shape) / np.sqrt(fan_in)
        np.testing.assert_array_equal(w.data, want)
        assert params["w"] is w and w.requires_grad

    def test_zero_and_one_draw_nothing(self):
        params = ParameterSet()
        rng = np.random.default_rng(5)
        init_param(params, rng, "b", (3,), np.float32, zero=True)
        init_param(params, rng, "g", (3,), np.float32, one=True)
        table = init_param(params, rng, "t", (2, 3), np.float32, table=True)
        np.testing.assert_array_equal(params["b"].data, np.zeros(3, np.float32))
        np.testing.assert_array_equal(params["g"].data, np.ones(3, np.float32))
        want = (0.02 * np.random.default_rng(5).standard_normal((2, 3)))
        np.testing.assert_array_equal(table.data, want.astype(np.float32))
        assert table.data.dtype == np.float32


class TestCountParameters:
    def test_affine_map(self):
        params = make_params({"w": np.zeros((3, 5)), "b": np.zeros(5)})
        assert count_parameters(params) == 20

    def test_empty(self):
        assert count_parameters(ParameterSet()) == 0

    def test_counts_tensor_entries(self, rng):
        params = ParameterSet()
        params.add("a", Tensor(rng.standard_normal((2, 3, 4))))
        assert count_parameters(params) == 24
