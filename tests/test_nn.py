"""Tests for the small MLP core: forward, analytic gradients, SGD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.errors import ShapeError
from fedsim.nn import (MLP, backward_batch, channel, forward_batch, fusion_head,
                       linear_head, param_count, sgd_step)
from oracles import finite_difference_grad


def make_linear(in_dim, out_dim, weights, bias=None):
    """Single linear layer with explicitly chosen parameters."""
    m = linear_head(in_dim, out_dim, seed=0)
    w = np.asarray(weights, dtype=np.float64)
    b = np.zeros(out_dim) if bias is None else np.asarray(bias, dtype=np.float64)
    m.params = np.concatenate([w.ravel(), b.ravel()])
    return m


class TestForward:
    def test_identity_linear_layer(self):
        m = make_linear(2, 2, np.eye(2))
        assert np.array_equal(forward_batch(m, np.array([[1.0, 2.0]]))[0][0], [1.0, 2.0])

    def test_zero_weights_give_zero_output(self):
        m = make_linear(3, 2, np.zeros((2, 3)))
        assert np.array_equal(forward_batch(m, np.array([[5.0, -1.0, 2.0]]))[0][0], [0.0, 0.0])

    def test_seed42_golden_embedding(self):
        # frozen from an independent matrix-arithmetic recomputation
        m = channel(6, 5, 3, seed=42)
        x = np.zeros(6)
        x[0] = 1.0
        expected = [-0.5643470120154681, -0.2763683257826499, 0.2784595991096142]
        np.testing.assert_allclose(forward_batch(m, x[None])[0][0], expected, rtol=0, atol=0)

    def test_forward_is_pure(self):
        m = channel(4, 8, 3, seed=3)
        x = np.array([0.1, -0.2, 0.3, 0.4])
        assert np.array_equal(forward_batch(m, x[None])[0][0], forward_batch(m, x[None])[0][0])

    def test_dimension_mismatch_raises(self):
        m = channel(4, 8, 3, seed=3)
        with pytest.raises(ShapeError):
            forward_batch(m, np.zeros(5)[None])[0][0]

    def test_batch_matches_single(self):
        m = channel(4, 8, 3, seed=9)
        xs = np.random.default_rng(0).standard_normal((5, 4))
        ys, _ = forward_batch(m, xs)
        for i in range(5):
            # batched and row-at-a-time matmuls may round differently
            np.testing.assert_allclose(ys[i], forward_batch(m, xs[i][None])[0][0],
                                       rtol=0, atol=1e-12)

    def test_param_count_matches_layout(self):
        m = channel(6, 5, 3, seed=0)
        assert m.params.size == param_count((6, 5, 3)) == 6 * 5 + 5 + 5 * 3 + 3


class TestBackward:
    def test_linear_layer_weight_gradient(self):
        # y = Wx, loss = y[0], x = (1, 0): dW[0,0] = 1, dW[0,1] = 0
        m = make_linear(2, 2, np.zeros((2, 2)))
        x = np.array([1.0, 0.0])
        y, cache = forward_batch(m, x[None])
        dy = np.array([[1.0, 0.0]])
        dparams, _ = backward_batch(m, cache, dy)
        dw = dparams[: 4].reshape(2, 2)
        assert dw[0, 0] == 1.0 and dw[0, 1] == 0.0
        assert dw[1, 0] == 0.0 and dw[1, 1] == 0.0

    def test_zero_upstream_gives_zero_gradient(self):
        m = channel(3, 4, 2, seed=5)
        x = np.array([0.3, -0.5, 1.0])
        _, cache = forward_batch(m, x[None])
        dparams, dx = backward_batch(m, cache, np.zeros((1, 2)))
        assert not dparams.any() and not dx.any()

    @pytest.mark.parametrize("builder,dims", [
        (channel, (3, 4, 2)),
        (linear_head, (3, 4)),
        (fusion_head, (4, 2)),
    ])
    def test_finite_difference_seed7(self, builder, dims):
        m = builder(*dims, seed=7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(dims[0])
        direction = rng.standard_normal(m.out_dim)

        def loss_fn(params):
            probe = MLP(m.sizes, m.out_act, params.copy())
            return float(forward_batch(probe, x[None])[0][0] @ direction)

        _, cache = forward_batch(m, x[None])
        dparams, _ = backward_batch(m, cache, direction[None])
        fd = finite_difference_grad(loss_fn, m.params)
        np.testing.assert_allclose(dparams, fd, rtol=1e-4, atol=1e-7)

    def test_gradient_check_many_seeds(self):
        # analytic backward vs central differences on 100 seeded cases
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = channel(3, 5, 2, seed=seed)
            x = rng.standard_normal(3)
            d = rng.standard_normal(2)

            def loss_fn(params):
                probe = MLP(m.sizes, m.out_act, params.copy())
                return float(forward_batch(probe, x[None])[0][0] @ d)

            _, cache = forward_batch(m, x[None])
            dparams, _ = backward_batch(m, cache, d[None])
            fd = finite_difference_grad(loss_fn, m.params)
            np.testing.assert_allclose(dparams, fd, rtol=1e-4, atol=1e-6)

    def test_input_gradient_matches_finite_difference(self):
        m = channel(4, 6, 3, seed=11)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4)
        d = rng.standard_normal(3)
        _, cache = forward_batch(m, x[None])
        _, dx = backward_batch(m, cache, d[None])
        step = 1e-5
        fd = np.zeros(4)
        for i in range(4):
            hi, lo = x.copy(), x.copy()
            hi[i] += step
            lo[i] -= step
            fd[i] = (forward_batch(m, hi[None])[0][0] @ d
                     - forward_batch(m, lo[None])[0][0] @ d) / (2 * step)
        np.testing.assert_allclose(dx[0], fd, rtol=1e-4, atol=1e-7)


class TestSgdStep:
    def test_zero_gradient_fixpoint(self):
        out = sgd_step(np.array([1.0, 1.0]), np.zeros(2), 0.1)
        assert np.array_equal(out, [1.0, 1.0])

    def test_direct_arithmetic(self):
        out = sgd_step(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 0.5)
        assert np.array_equal(out, [0.5, 0.5])

    def test_geometric_decay_on_quadratic(self):
        # f(w) = w^2/2, grad = w, lr = 0.1: w_10 = 0.9^10
        w = np.array([1.0])
        for _ in range(10):
            w = sgd_step(w, w, 0.1)
        np.testing.assert_allclose(w[0], 0.9 ** 10, rtol=1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            sgd_step(np.zeros(3), np.zeros(2), 0.1)

    @given(st.floats(0.0, 2.0), st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_lr_and_grads(self, lr, scale):
        params = np.array([1.0, -2.0, 0.5])
        grads = np.array([0.3, 0.1, -0.7])
        a = sgd_step(params, grads, lr)
        b = params - lr * grads
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        c = sgd_step(params, scale * grads, 1.0)
        np.testing.assert_allclose(c, params - scale * grads, rtol=0, atol=1e-12)


class TestInit:
    def test_init_deterministic(self):
        a = channel(4, 8, 3, seed=1)
        b = channel(4, 8, 3, seed=1)
        assert np.array_equal(a.params, b.params)

    def test_init_within_fan_in_bounds(self):
        m = channel(9, 4, 2, seed=0)
        (w1, _), _ = list(m.layers())
        assert np.all(np.abs(w1) <= 1.0 / 3.0)

    def test_params_finite(self):
        m = channel(16, 32, 8, seed=123)
        assert np.all(np.isfinite(m.params))


class TestLayerViews:
    def test_views_follow_rebinding(self):
        m = channel(3, 4, 2, seed=0)
        x = np.ones((1, 3))
        before, _ = forward_batch(m, x)
        m.params = np.zeros_like(m.params)
        after, _ = forward_batch(m, x)
        assert np.array_equal(after, np.zeros((1, 2)))
        assert not np.array_equal(before, after)

    def test_views_see_in_place_updates(self):
        m = make_linear(2, 2, np.eye(2))
        x = np.array([[1.0, 2.0]])
        forward_batch(m, x)
        m.params *= 2.0
        assert np.array_equal(forward_batch(m, x)[0], [[2.0, 4.0]])
        (w, b), = m.layers()
        assert np.shares_memory(w, m.params) and np.shares_memory(b, m.params)
