import numpy as np
import pytest

from envasr import autodiff as ad
from envasr.autodiff import Tensor
from envasr.optim import (ADAM_CHUNK, EPS, AdamHyper, ParameterSet, adam_step,
                          count_parameters, init_param, minimize_mean)

from oracles import adam_scalar_trajectory, adam_step_per_tensor, sum_


def make_params(values):
    return ParameterSet({name: np.asarray(v, dtype=np.float64)
                         for name, v in values.items()})


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = make_params({"w": [2.0, -1.0, 0.5]})
        params["w"].grad = np.array([0.3, -4.0, 1e-3])
        adam_step(params, lr=0.01)
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
            adam_step(params, lr=lr)
            seen.append(float(params["x"].data[0]))
        expected = adam_scalar_trajectory(2.0, grads, lr, b1, b2, eps)
        np.testing.assert_allclose(seen, expected, atol=1e-12)

    @pytest.mark.parametrize("g", [1e-9, 1e-8, 1e-7, -1e-6])
    def test_eps_sets_the_first_step_for_small_gradients(self, g):
        # step 1 moves by lr * g / (|g| + eps): eps = 1e-8 damps gradients near it
        params = make_params({"x": [0.0]})
        params["x"].grad = np.array([g])
        adam_step(params, lr=0.5)
        assert EPS == 1e-8
        np.testing.assert_allclose(params["x"].data, [-0.5 * g / (abs(g) + 1e-8)],
                                   rtol=1e-12)

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
    START_T = 4

    def two_sets(self, dtype, rng):
        """The set under test, its flat buffers and Adam step written as at
        step `START_T`, and the oracle's tensors and moments with the same
        values."""
        values = {n: rng.standard_normal(s).astype(dtype) for n, s in self.SHAPES.items()}
        packed = ParameterSet(values)
        packed["b.frozen"].requires_grad = False
        packed.t = self.START_T
        oracle, moments = {}, {}
        for name, shape in self.SHAPES.items():
            views = packed.views(name)
            views.data[...] = values[name] + 1.0
            views.m[...] = 0.1 * rng.standard_normal(shape)
            views.v[...] = 0.01 * rng.random(shape)
            oracle[name] = Tensor(views.data.copy(), requires_grad=name != "b.frozen")
            if name != "b.frozen":
                moments[name] = (views.m.copy(), views.v.copy(), self.START_T)
        return packed, oracle, moments

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
        packed, oracle, moments = self.two_sets(dtype, rng)
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
                g = rng.standard_normal(7).astype(dtype)
                packed["c.b"].grad, oracle["c.b"].grad = g.copy(), g
            adam_step(packed, 1e-2)
            adam_step_per_tensor(oracle, moments, 1e-2, 0.9, 0.99, 1e-8)
            assert packed.t == self.START_T + step + 1
            for name in live:
                got, (m, v, t) = packed.views(name), moments[name]
                assert np.array_equal(packed[name].data, oracle[name].data), (step, name)
                assert np.array_equal(got.m, m) and np.array_equal(got.v, v)
                assert t == packed.t
                assert packed[name].data.dtype == got.m.dtype == dtype
        np.testing.assert_array_equal(packed["b.frozen"].data, frozen)
        assert "b.frozen" not in moments


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
        adam_step(by_hand, hyper.lr)

        assert loss == float(mean.data)
        np.testing.assert_array_equal(helper["w"].data, by_hand["w"].data)
        for moment in ("m", "v"):
            np.testing.assert_array_equal(getattr(helper.views("w"), moment),
                                          getattr(by_hand.views("w"), moment))
        assert helper.t == by_hand.t == 1
        assert helper["w"].grad is None


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        arrays = {}
        init_param(arrays, None, "w", (2,), np.float64, zero=True)
        with pytest.raises(ValueError, match="duplicate"):
            init_param(arrays, None, "w", (2,), np.float64, zero=True)

    def test_iteration_sorted_by_name(self):
        params = make_params({"b": [1.0], "a": [2.0], "c": [3.0]})
        assert [name for name, _ in params.items()] == ["a", "b", "c"]

    def test_construction_makes_views_of_flat_buffers(self, rng):
        before = {"b": rng.standard_normal(3), "a": rng.standard_normal((2, 2))}
        params = ParameterSet(before)
        flat = params.flat
        assert flat.data.size == 7 and params.t == 0
        np.testing.assert_array_equal(flat.data, np.concatenate(
            [before["a"].ravel(), before["b"]]))
        for name, p in params.items():
            views = params.views(name)
            np.testing.assert_array_equal(p.data, before[name])
            assert p.requires_grad and not np.shares_memory(p.data, before[name])
            for arr, buf in ((p.data, flat.data), (views.m, flat.m), (views.v, flat.v),
                             (p._grad_buf, flat.grad)):
                assert arr.shape == p.data.shape and np.shares_memory(arr, buf)

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ValueError, match="cannot mix dtypes: float32, float64"):
            ParameterSet({"w": np.ones(1), "h": np.zeros(2, dtype=np.float32)})

    def test_adam_step_updates_flat_buffers_in_place(self):
        params = make_params({"w": [1.0, 2.0]})
        data = params["w"].data
        params["w"].grad = np.array([0.5, -0.5])
        adam_step(params, lr=0.1)
        assert params["w"].data is data and params.t == 1
        np.testing.assert_allclose(params.flat.data, [0.9, 2.1])

    def test_moments_match_parameter_shape(self, rng):
        params = make_params({"w": rng.standard_normal((3, 4))})
        views = params.views("w")
        assert views.m.shape == (3, 4) and views.v.shape == (3, 4) and params.t == 0


class TestInitParam:
    @pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5)])
    def test_weight_scaled_by_fan_in(self, shape):
        arrays = {}
        w = init_param(arrays, np.random.default_rng(3), "w", shape, np.float64)
        fan_in = int(np.prod(shape[:-1]))
        want = np.random.default_rng(3).standard_normal(shape) / np.sqrt(fan_in)
        np.testing.assert_array_equal(w, want)
        assert arrays["w"] is w

    def test_zero_and_one_draw_nothing(self):
        arrays = {}
        rng = np.random.default_rng(5)
        init_param(arrays, rng, "b", (3,), np.float32, zero=True)
        init_param(arrays, rng, "g", (3,), np.float32, one=True)
        table = init_param(arrays, rng, "t", (2, 3), np.float32, table=True)
        np.testing.assert_array_equal(arrays["b"], np.zeros(3, np.float32))
        np.testing.assert_array_equal(arrays["g"], np.ones(3, np.float32))
        want = (0.02 * np.random.default_rng(5).standard_normal((2, 3)))
        np.testing.assert_array_equal(table, want.astype(np.float32))
        assert table.dtype == np.float32


class TestCountParameters:
    def test_affine_map(self):
        params = make_params({"w": np.zeros((3, 5)), "b": np.zeros(5)})
        assert count_parameters(params) == 20

    def test_empty(self):
        assert count_parameters(ParameterSet({})) == 0

    def test_counts_tensor_entries(self, rng):
        params = ParameterSet({"a": rng.standard_normal((2, 3, 4))})
        assert count_parameters(params) == 24
