import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from patrolsim.neuralnet import (BN_EPS, BN_MOMENTUM, Adam, BatchNorm, Dense,
                                 Dropout, LeakyReLU, Network, Sigmoid, Tanh,
                                 bce_grad, bce_loss)

FD_H = 1e-5


def finite_diff_input_grad(layer, x, training=False, rng_seed=None):
    """Central differences of sum(forward(x)) w.r.t. x."""
    def run(xp):
        if rng_seed is not None:
            return layer.forward(xp, training, np.random.default_rng(rng_seed)).sum()
        return layer.forward(xp, training).sum()

    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += FD_H
        xm[idx] -= FD_H
        grad[idx] = (run(xp) - run(xm)) / (2 * FD_H)
    return grad


def finite_diff_param_grad(layer, x, param, training=True):
    def run():
        return layer.forward(x, training).sum()

    grad = np.zeros_like(param)
    for idx in np.ndindex(*param.shape):
        orig = param[idx]
        param[idx] = orig + FD_H
        up = run()
        param[idx] = orig - FD_H
        down = run()
        param[idx] = orig
        grad[idx] = (up - down) / (2 * FD_H)
    return grad


def max_rel_error(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))


def same_bits(a, b):
    """Equal dtype, shape and bits: NaN payloads and signed zeros too."""
    a, b = np.asarray(a), np.asarray(b)
    uint = np.dtype(f"u{a.itemsize}")
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(uint), b.view(uint)))


def float_elements(dtype):
    """Floats of `dtype`: any finite value, or one of the specials (signed
    zeros, infinities, NaNs, subnormal, tiny and huge magnitudes)."""
    info = np.finfo(dtype)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                info.smallest_subnormal, -info.smallest_subnormal,
                info.tiny, -info.tiny, info.max, -info.max]
    return st.one_of(st.sampled_from(specials),
                     st.floats(allow_nan=False, allow_infinity=False,
                               width=info.bits))


class TestDense:
    def test_identity_weights(self):
        layer = Dense(2, 2)
        layer.w[...] = np.eye(2)
        layer.b[...] = 0.0
        x = np.array([[3.0, 4.0]])
        assert np.allclose(layer.forward(x, False), x)

    def test_scalar_affine(self):
        layer = Dense(1, 1)
        layer.w[...] = [[2.0]]
        layer.b[...] = [1.0]
        assert layer.forward(np.array([[5.0]]), False) == pytest.approx(11.0)

    def test_shape_mismatch_fatal(self):
        layer = Dense(3, 2)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 4)), False)

    def test_dtype_mismatch_fatal(self):
        # A float64 input would silently promote a float32 layer's matmul.
        with pytest.raises(ValueError, match="dtype"):
            Dense(3, 2, dtype=np.float32).forward(np.zeros((1, 3)), False)
        with pytest.raises(ValueError, match="dtype"):
            Dense(3, 2).forward(np.zeros((1, 3), np.float32), False)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_sets_parameters_and_gradients(self, dtype):
        layer = Dense(3, 2, np.random.default_rng(0), dtype)
        out = layer.forward(np.ones((4, 3), dtype), True)
        grad_in = layer.backward(np.ones_like(out))
        for a in layer.params + layer.grads + [out, grad_in]:
            assert a.dtype == dtype

    def test_float32_weights_are_the_float64_draw_rounded(self):
        w64 = Dense(5, 4, np.random.default_rng(3)).w
        w32 = Dense(5, 4, np.random.default_rng(3), np.float32).w
        assert np.array_equal(w32, w64.astype(np.float32))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            layer = Dense(4, 3, rng)
            x = rng.standard_normal((5, 4))
            out = layer.forward(x, True)
            grad_in = layer.backward(np.ones_like(out))
            assert max_rel_error(grad_in, finite_diff_input_grad(layer, x, True)) < 1e-5
            assert max_rel_error(layer.grads[0],
                                 finite_diff_param_grad(layer, x, layer.w)) < 1e-5
            assert max_rel_error(layer.grads[1],
                                 finite_diff_param_grad(layer, x, layer.b)) < 1e-5


def oracle_leaky_relu_forward(x, slope):
    """LeakyReLU as a select, the form the layer's outputs must match."""
    return np.where(x >= 0, x, slope * x)


def oracle_leaky_relu_backward(x, grad_out, slope):
    return np.where(x >= 0, grad_out, slope * grad_out)


class TestActivations:
    def test_leaky_relu_values(self):
        layer = LeakyReLU(0.2)
        out = layer.forward(np.array([[-1.0, 2.0]]), False)
        assert np.allclose(out, [[-0.2, 2.0]])

    def test_leaky_relu_slope_validation(self):
        with pytest.raises(ValueError):
            LeakyReLU(1.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_leaky_relu_is_bitwise_the_where_form(self, dtype, data):
        info = np.finfo(dtype)
        elements = float_elements(dtype)
        shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
        x = data.draw(arrays(dtype, shape, elements=elements))
        grad_out = data.draw(arrays(dtype, shape, elements=elements))
        # The whole open interval (0, 1) in float64. A float32 slope below
        # the smallest float32 subnormal rounds to 0, where 0 * inf is an
        # invalid operation in either form, so it is not drawn there.
        slope = data.draw(st.floats(float(info.smallest_subnormal), 1.0,
                                    exclude_max=True))
        layer = LeakyReLU(slope)
        grad_before = grad_out.copy()

        out = layer.forward(x, True)
        grad_in = layer.backward(grad_out)

        bits = np.dtype(f"u{info.bits // 8}")
        want_out = oracle_leaky_relu_forward(x, slope)
        want_grad = oracle_leaky_relu_backward(x, grad_out, slope)
        assert out.dtype == grad_in.dtype == dtype
        assert np.array_equal(out.view(bits), want_out.view(bits))
        assert np.array_equal(grad_in.view(bits), want_grad.view(bits))
        assert np.array_equal(grad_out.view(bits), grad_before.view(bits))

    @pytest.mark.parametrize("training", [True, False])
    def test_leaky_relu_caches_one_byte_per_activation(self, training):
        # A cached float multiplier costs 4-8 bytes per activation, which
        # showed as a higher peak RSS on a debias run. Backward after an
        # inference-mode forward (the gradient checks) still needs the mask.
        layer = LeakyReLU(0.2)
        x = np.random.default_rng(0).standard_normal((16, 8)).astype(
            np.float32)
        layer.forward(x, training)
        cached = [v for v in vars(layer).values() if isinstance(v, np.ndarray)]
        assert [(a.dtype, a.shape, a.base) for a in cached] == [
            (np.dtype(bool), x.shape, None)]
        assert layer.params == [] and layer.grads == []

    def test_sigmoid_tanh_at_zero(self):
        assert Sigmoid().forward(np.zeros((1, 1)), False) == pytest.approx(0.5)
        assert Tanh().forward(np.zeros((1, 1)), False) == pytest.approx(0.0)

    @pytest.mark.parametrize("layer_factory", [
        lambda: LeakyReLU(0.2), Tanh, Sigmoid])
    def test_gradients(self, layer_factory):
        rng = np.random.default_rng(1)
        for _ in range(50):
            layer = layer_factory()
            x = rng.standard_normal((4, 3)) * 2
            # Keep LeakyReLU away from its kink where FD is invalid.
            x[np.abs(x) < 1e-3] = 0.5
            out = layer.forward(x, False)
            grad_in = layer.backward(np.ones_like(out))
            assert max_rel_error(grad_in, finite_diff_input_grad(layer, x)) < 1e-4

    def test_sigmoid_extreme_inputs_finite(self):
        out = Sigmoid().forward(np.array([[-1000.0, 1000.0]]), False)
        assert np.all(np.isfinite(out))
        assert 0.0 <= out[0, 0] < 1e-100
        assert out[0, 1] == pytest.approx(1.0)

    def test_float32_sigmoid_extremes_finite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = Sigmoid().forward(np.array([[-100.0, 100.0]], np.float32),
                                    False)
        assert out.dtype == np.float32
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out[0, 0] < 1e-30 and out[0, 1] == 1.0


def oracle_dropout(x, grad_out, rate, training, rng):
    """Dropout forward and backward with a float mask, the form the layer's
    outputs must match bit for bit."""
    if not training or rate == 0.0:
        return x, grad_out
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype)
    mask /= keep
    return x * mask, grad_out * mask


class TestDropout:
    def test_inference_identity(self):
        layer = Dropout(0.3)
        x = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(layer.forward(x, False), x)

    def test_inference_gradient_identity(self):
        layer = Dropout(0.3)
        x = np.ones((2, 2))
        layer.forward(x, False)
        g = np.full((2, 2), 0.7)
        assert np.array_equal(layer.backward(g), g)

    def test_training_requires_rng(self):
        with pytest.raises(ValueError):
            Dropout(0.3).forward(np.ones((2, 2)), True)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_inverted_dropout_expectation(self):
        layer = Dropout(0.3)
        rng = np.random.default_rng(2)
        n = 10_000
        acc = np.zeros(8)
        for _ in range(n):
            acc += layer.forward(np.ones((1, 8)), True, rng)[0]
        mean = acc / n
        # Per-unit variance of inverted dropout: rate/(1-rate).
        se = np.sqrt(0.3 / 0.7 / n)
        assert np.all(np.abs(mean - 1.0) < 3 * se)

    def test_training_gradient_matches_mask(self):
        layer = Dropout(0.5)
        rng = np.random.default_rng(3)
        x = np.ones((4, 4))
        out = layer.forward(x, True, rng)
        mask, scale = layer._cache
        grad = layer.backward(np.ones_like(out))
        # The cached mask is bool; times the cached scale it is the float
        # mask the gradient must equal.
        assert np.array_equal(grad, mask * scale)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_is_bitwise_the_float_mask_form(self, dtype, data):
        elements = float_elements(dtype)
        shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
        x = data.draw(arrays(dtype, shape, elements=elements))
        grad_out = data.draw(arrays(dtype, shape, elements=elements))
        rate = data.draw(st.one_of(st.sampled_from([0.0, 0.3, 0.5]),
                                   st.floats(0.0, 1.0, exclude_max=True)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        training = data.draw(st.booleans())
        x_before, grad_before = x.copy(), grad_out.copy()
        layer = Dropout(rate)

        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        # inf * 0 and overflow warn in either form.
        with np.errstate(invalid="ignore", over="ignore"):
            out = layer.forward(x, training, rng)
            grad_in = layer.backward(grad_out)
            want_out, want_grad = oracle_dropout(x, grad_out, rate, training,
                                                 ref_rng)
        assert same_bits(out, want_out)
        assert same_bits(grad_in, want_grad)
        # The same draws, and the inputs left as they were.
        assert rng.random() == ref_rng.random()
        assert same_bits(x, x_before) and same_bits(grad_out, grad_before)

    def test_caches_a_bool_mask_and_one_scale(self):
        layer = Dropout(0.3)
        x = np.ones((16, 8), np.float32)
        layer.forward(x, True, np.random.default_rng(4))
        mask, scale = layer._cache
        assert mask.dtype == bool and mask.shape == x.shape
        assert scale == np.float32(1.0) / np.float32(0.7)
        assert np.asarray(scale).dtype == np.float32

    def test_float32_mask_keeps_the_input_dtype(self):
        x = np.ones((4, 4), np.float32)
        out = Dropout(0.5).forward(x, True, np.random.default_rng(3))
        ref = Dropout(0.5).forward(x.astype(np.float64), True,
                                   np.random.default_rng(3))
        assert out.dtype == np.float32
        assert np.array_equal(out, ref.astype(np.float32))


def oracle_batchnorm_forward(x, gamma, beta, running_mean, running_var,
                             training):
    """BatchNorm forward as plain expressions: (output, x_hat, inv_std,
    running mean, running var), the reference the layer must match bit for
    bit."""
    if training:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        running_mean = (1 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
        running_var = (1 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = (x - mean) * inv_std
    return gamma * x_hat + beta, x_hat, inv_std, running_mean, running_var


def oracle_batchnorm_backward(grad_out, x_hat, inv_std, gamma):
    """(input gradient, gamma gradient, beta gradient)."""
    n = grad_out.shape[0]
    dx_hat = grad_out * gamma
    grad_in = inv_std / n * (
        n * dx_hat
        - dx_hat.sum(axis=0)
        - x_hat * (dx_hat * x_hat).sum(axis=0)
    )
    return grad_in, (grad_out * x_hat).sum(axis=0), grad_out.sum(axis=0)


class TestBatchNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_is_bitwise_the_expression_form(self, dtype, data):
        width = data.draw(st.integers(1, 5))
        values = st.floats(-1e4, 1e4, width=np.finfo(dtype).bits)

        def draw(shape, elements=values):
            return data.draw(arrays(dtype, shape, elements=elements))

        layer = BatchNorm(width, dtype)
        layer.gamma[...] = draw(width)
        layer.beta[...] = draw(width)
        state = [layer.gamma.copy(), layer.beta.copy(),
                 layer.running_mean.copy(), layer.running_var.copy()]
        # A few training batches, then an inference batch on the running
        # statistics they left.
        for training in (True, True, False):
            n = data.draw(st.integers(2 if training else 1, 8))
            x = draw((n, width))
            grad_out = draw((n, width))
            out = layer.forward(x, training)
            want, x_hat, inv_std, *running = oracle_batchnorm_forward(
                x, *state, training)
            state[2:] = running
            assert same_bits(out, want)
            assert same_bits(layer.running_mean, state[2])
            assert same_bits(layer.running_var, state[3])
            if training:
                grad_in = layer.backward(grad_out)
                want_grads = oracle_batchnorm_backward(grad_out, x_hat,
                                                       inv_std, state[0])
                for got, want in zip([grad_in] + layer.grads, want_grads):
                    assert same_bits(got, want)

    def test_dtype_mismatch_fatal(self):
        with pytest.raises(ValueError, match="dtype mismatch"):
            BatchNorm(2, np.float32).forward(np.ones((4, 2)), True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_sets_parameters_and_running_stats(self, dtype):
        layer = BatchNorm(3, dtype)
        out = layer.forward(np.arange(12, dtype=dtype).reshape(4, 3), True)
        grad_in = layer.backward(np.ones_like(out))
        for a in (layer.params + layer.grads + [layer.running_mean,
                                                layer.running_var,
                                                out, grad_in]):
            assert a.dtype == dtype

    def test_standardized_input_passthrough(self):
        layer = BatchNorm(3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = layer.forward(x, True)
        assert np.max(np.abs(out - x)) < 1e-4  # eps shifts variance slightly

    def test_training_batch_statistics(self):
        layer = BatchNorm(4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((64, 4)) * 3 + 7
        out = layer.forward(x, True)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-8)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_constant_column_returns_zero(self):
        layer = BatchNorm(2)
        x = np.full((8, 2), 3.5)
        out = layer.forward(x, True)
        assert np.allclose(out, 0.0)

    def test_batch_of_one_fatal(self):
        with pytest.raises(ValueError):
            BatchNorm(2).forward(np.ones((1, 2)), True)

    def test_inference_uses_running_stats(self):
        layer = BatchNorm(2)
        rng = np.random.default_rng(6)
        for _ in range(200):
            layer.forward(rng.standard_normal((32, 2)) * 2 + 5, True)
        out = layer.forward(np.array([[5.0, 5.0]]), False)
        assert np.all(np.abs(out) < 0.2)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            layer = BatchNorm(4)
            layer.gamma[...] = rng.uniform(0.5, 1.5, 4)
            layer.beta[...] = rng.standard_normal(4)
            x = rng.standard_normal((8, 4))
            g = rng.standard_normal((8, 4))

            layer.forward(x, True)
            grad_in = layer.backward(g)

            def loss(xp):
                fresh = BatchNorm(4)
                fresh.gamma[...] = layer.gamma
                fresh.beta[...] = layer.beta
                return float((fresh.forward(xp, True) * g).sum())

            fd = np.zeros_like(x)
            for idx in np.ndindex(*x.shape):
                xp, xm = x.copy(), x.copy()
                xp[idx] += FD_H
                xm[idx] -= FD_H
                fd[idx] = (loss(xp) - loss(xm)) / (2 * FD_H)
            assert max_rel_error(grad_in, fd) < 1e-4


class TestBceLoss:
    def test_half_predictions(self):
        p = np.full((4, 1), 0.5)
        t = np.array([[0.0], [1.0], [0.0], [1.0]])
        loss = bce_loss(p, t)
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_perfect_predictions(self):
        t = np.array([[0.0], [1.0]])
        loss = bce_loss(t.copy(), t)
        assert loss <= 1.7e-6

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.uniform(0.05, 0.95, (6, 1))
            t = rng.integers(0, 2, (6, 1)).astype(float)
            grad = bce_grad(p, t)
            fd = np.zeros_like(p)
            for idx in np.ndindex(*p.shape):
                pp, pm = p.copy(), p.copy()
                pp[idx] += 1e-6
                pm[idx] -= 1e-6
                fd[idx] = (bce_loss(pp, t) - bce_loss(pm, t)) / 2e-6
            assert max_rel_error(grad, fd) < 1e-6


def oracle_adam_step(opt, grads):
    """Adam update written as one expression per moment and per parameter,
    the reference that the in-place `Adam.step` must match bit for bit."""
    opt.t += 1
    b1t = 1.0 - opt.beta1 ** opt.t
    b2t = 1.0 - opt.beta2 ** opt.t
    for p, g, m, v in zip(opt.params, grads, opt.m, opt.v):
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        p -= opt.lr * (m / b1t) / (np.sqrt(v / b2t) + opt.eps)


class TestAdam:
    @pytest.mark.parametrize("hyper", [{}, {"lr": 1e-2, "beta1": 0.9}])
    def test_matches_oracle_bitwise(self, hyper):
        rng = np.random.default_rng(12)
        shapes = [(3,), (4, 5), (256, 512)]
        params = [rng.standard_normal(s) for s in shapes]
        opt = Adam(params, **hyper)
        ref = Adam([p.copy() for p in params], **hyper)
        for _ in range(6):
            # Gradients spanning many magnitudes, zeros included.
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-8, 3, s)
                     * (rng.random(s) < 0.9) for s in shapes]
            # `step` consumes its gradients: each side gets its own copy.
            opt.step([g.copy() for g in grads])
            oracle_adam_step(ref, grads)
            for got, want in zip(opt.params + opt.m + opt.v,
                                 ref.params + ref.m + ref.v):
                assert np.array_equal(got, want)

    def test_step_consumes_its_gradient_list(self):
        opt = Adam([np.zeros(3), np.zeros(2)])
        grads = [np.ones(3), np.ones(2)]
        opt.step(grads)
        assert grads == [None, None]
        with pytest.raises(ValueError, match="1 gradients for 2 parameters"):
            opt.step([np.ones(3)])  # one short would shift every pair

    def test_first_step_bias_correction(self):
        p = np.array([1.0])
        opt = Adam([p], lr=2e-4)
        opt.step([np.array([1.0])])
        assert p[0] == pytest.approx(1.0 - 2e-4 * (1.0 / (1.0 + 1e-8)), abs=1e-12)

    def test_zero_grad_no_change(self):
        p = np.array([1.0, -2.0])
        opt = Adam([p])
        for _ in range(5):
            opt.step([np.zeros(2)])
        assert np.array_equal(p, [1.0, -2.0])

    def test_constant_gradient_monotone(self):
        p = np.array([1.0])
        opt = Adam([p], lr=2e-4)
        values = [p[0]]
        for _ in range(3):
            opt.step([np.array([1.0])])
            values.append(p[0])
        steps = -np.diff(values)
        assert np.all(steps > 0)
        assert np.all(np.abs(steps - 2e-4) < 1e-6)


class TestNetwork:
    def test_input_only_backward(self):
        rng = np.random.default_rng(13)
        net = Network([Dense(3, 16, rng), BatchNorm(16), LeakyReLU(0.2),
                       Dropout(0.3), Dense(16, 8, rng), Tanh(),
                       Dense(8, 1, rng), Sigmoid()])
        x = rng.standard_normal((32, 3))
        grad_out = rng.standard_normal((32, 1))

        def forward():
            # A backward consumes the forward caches: each backward gets a
            # forward of its own, with the same dropout draws.
            net.forward(x, training=True, rng=np.random.default_rng(14))

        forward()
        full = net.backward(grad_out)
        assert np.any(full != 0.0)
        before = [g.copy() for g in net.gradients()]
        for g in net.gradients():
            g.fill(7.0)
        forward()
        assert np.array_equal(net.backward(grad_out, param_grads=False), full)
        assert all(np.all(g == 7.0) for g in net.gradients())
        forward()
        assert np.array_equal(net.backward(grad_out), full)
        for got, want in zip(net.gradients(), before):
            assert np.array_equal(got, want)

    def test_inference_deterministic_and_pure(self):
        rng = np.random.default_rng(9)
        net = Network([Dense(3, 8, rng), LeakyReLU(0.2), Dropout(0.3),
                       Dense(8, 1, rng), Sigmoid()])
        x = rng.standard_normal((5, 3))
        out1 = net.forward(x, training=False)
        out2 = net.forward(x, training=False)
        assert np.array_equal(out1, out2)


class TestRelease:
    @pytest.mark.parametrize("make", [lambda: Dense(3, 4),
                                      lambda: BatchNorm(3)])
    @pytest.mark.parametrize("param_grads", [True, False])
    def test_backward_after_inference_forward_raises(self, make,
                                                     param_grads):
        layer = make()
        x = np.random.default_rng(30).standard_normal((5, 3))
        out = layer.forward(x, True)
        layer.forward(x, False)  # drops the training-mode cache
        with pytest.raises(RuntimeError, match="training-mode forward"):
            layer.backward(np.ones_like(out), param_grads)

    @pytest.mark.parametrize("make", [
        lambda: Dense(3, 3), lambda: BatchNorm(3), lambda: LeakyReLU(0.2),
        lambda: Dropout(0.3), Tanh, Sigmoid])
    def test_backward_after_release_raises(self, make):
        layer = make()
        x = np.random.default_rng(33).standard_normal((5, 3))
        out = layer.forward(x, True, np.random.default_rng(34))
        layer.release()
        with pytest.raises(RuntimeError, match="forward first"):
            layer.backward(np.ones_like(out))
        with pytest.raises(RuntimeError, match="forward first"):
            make().backward(np.ones_like(out))  # no forward at all

    @pytest.mark.parametrize("make", [
        lambda: Dense(3, 3), lambda: BatchNorm(3), lambda: LeakyReLU(0.2),
        lambda: Dropout(0.3), Tanh, Sigmoid])
    def test_layer_backward_takes_its_cache(self, make):
        # Each layer's own backward empties its cache, without a Network
        # around it: one training-mode forward serves one backward.
        layer = make()
        x = np.random.default_rng(37).standard_normal((5, 3))
        out = layer.forward(x, True, np.random.default_rng(38))
        layer.backward(np.ones_like(out))
        with pytest.raises(RuntimeError, match="forward first"):
            layer.backward(np.ones_like(out))
        assert layer._cache is None

    def test_backward_consumes_the_caches(self):
        rng = np.random.default_rng(36)
        net = Network([Dense(3, 8, rng), BatchNorm(8), LeakyReLU(0.2),
                       Dropout(0.3), Dense(8, 2, rng), Tanh()])
        net.forward(rng.standard_normal((6, 3)), True, rng)
        net.backward(rng.standard_normal((6, 2)))
        assert all(layer._cache is None for layer in net.layers)
        assert [g.shape for g in net.gradients()] == [
            (3, 8), (8,), (8,), (8,), (8, 2), (2,)]
        with pytest.raises(RuntimeError, match="forward first"):
            net.backward(np.ones((6, 2)))

    def test_release_drops_gradients_and_caches(self):
        rng = np.random.default_rng(31)
        net = Network([Dense(3, 8, rng), BatchNorm(8), LeakyReLU(0.2),
                       Dropout(0.3), Dense(8, 2, rng)])
        x = rng.standard_normal((6, 3))
        grad_out = rng.standard_normal((6, 2))
        net.forward(x, True, np.random.default_rng(32))
        want = net.backward(grad_out)
        want_grads = [g.copy() for g in net.gradients()]
        net.release()
        assert net.gradients() == []
        assert all(layer._cache is None for layer in net.layers)
        with pytest.raises(RuntimeError, match="training-mode forward"):
            net.backward(grad_out)
        # A training-mode forward makes the network trainable again.
        net.forward(x, True, np.random.default_rng(32))
        assert np.array_equal(net.backward(grad_out), want)
        assert len(net.gradients()) == len(want_grads)
        for got, grad in zip(net.gradients(), want_grads):
            assert np.array_equal(got, grad)
