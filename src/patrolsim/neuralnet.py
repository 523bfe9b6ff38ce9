"""Minimal dense-network engine with explicit backpropagation.

Layers: fully-connected, batch normalization, LeakyReLU, dropout, tanh,
sigmoid; binary cross-entropy head; Adam optimizer. `Dense` and `BatchNorm`
take the dtype of their parameters, float64 by default: float64 is the
reference the finite-difference gradient checks run in, and the GAN trains
in float32. Gradients and Adam moments follow their parameter's dtype, and
`Dense` and `BatchNorm` reject an input of another dtype, so one stray
float64 array cannot silently promote a float32 network back to float64.

Memory: each layer has one forward-cache slot, `_cache`, holding what its
backward reads. A forward fills it and the backward takes it, so a cache
ends when the backward that reads it returns, and a second backward needs
a new forward. `Dense` and `BatchNorm` cache only in a training-mode
forward; the activations and dropout cache in either mode. A backward with
nothing to take raises `RuntimeError`. A backward assigns its layer's
parameter gradients, and `release` drops them with the cache. `Adam.step`
consumes its gradient list: each gradient becomes the denominator buffer
once read, and its entry is set to None. The kernels skip the temporaries
of the plain expressions and still round to the same bits: batch norm
takes the mean once and scales in place, dense adds its bias in place, and
dropout caches a bool mask and one scale.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
BCE_CLAMP = 1e-7


class Layer:
    """Base layer: forward puts in `_cache` whatever backward reads, and
    backward takes it."""

    params: list[np.ndarray]
    grads: list[np.ndarray]
    # What a backward needs first: any forward, or (Dense, BatchNorm) a
    # training-mode one.
    _needs = "a forward"

    def __init__(self):
        self.params = []
        self.release()

    def forward(self, x: np.ndarray, training: bool, rng=None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        """Gradient w.r.t. the input, from the forward cache it takes. With
        `param_grads` False the parameter gradients are not computed and
        `grads` keeps its values."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the parameter gradients and the forward cache."""
        self.grads = []
        self._cache = None

    def _take(self):
        """The forward cache, emptying the slot; an empty slot (released,
        taken, or never filled) raises."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{type(self).__name__} backward needs "
                               f"{self._needs} first")
        return cache


class Dense(Layer):
    _needs = "a training-mode forward"

    def __init__(self, n_in: int, n_out: int,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        super().__init__()
        # Glorot-uniform weights (drawn in float64, then rounded), zero biases.
        limit = np.sqrt(6.0 / (n_in + n_out))
        if rng is None:
            rng = np.random.default_rng(0)
        self.w = rng.uniform(-limit, limit, size=(n_in, n_out)).astype(
            dtype, copy=False)
        self.b = np.zeros(n_out, dtype)
        self.params = [self.w, self.b]

    def forward(self, x, training, rng=None):
        if x.shape[1] != self.w.shape[0]:
            raise ValueError(f"dense shape mismatch: {x.shape} vs {self.w.shape}")
        if x.dtype != self.w.dtype:
            raise ValueError(f"dense dtype mismatch: {x.dtype} input vs "
                             f"{self.w.dtype} weights")
        self._cache = x if training else None
        y = x @ self.w
        y += self.b
        return y

    def backward(self, grad_out, param_grads=True):
        x = self._take()
        if param_grads:
            self.grads = [x.T @ grad_out, grad_out.sum(axis=0)]
        return grad_out @ self.w.T


class BatchNorm(Layer):
    """Like `Dense`, rejects an input of another dtype than its parameters:
    forward and backward compute in place in that dtype."""

    _needs = "a training-mode forward"

    def __init__(self, width: int, dtype=np.float64):
        super().__init__()
        self.gamma = np.ones(width, dtype)
        self.beta = np.zeros(width, dtype)
        self.params = [self.gamma, self.beta]
        self.running_mean = np.zeros(width, dtype)
        self.running_var = np.ones(width, dtype)

    def forward(self, x, training, rng=None):
        if x.dtype != self.gamma.dtype:
            raise ValueError(f"batchnorm dtype mismatch: {x.dtype} input vs "
                             f"{self.gamma.dtype} parameters")
        if training:
            if x.shape[0] < 2:
                raise ValueError("batchnorm training needs batch size >= 2")
            mean = x.mean(axis=0)
            x_hat = x - mean
            # Bitwise x.var(axis=0), which squares its own x - mean.
            var = np.square(x_hat).mean(axis=0)
            self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        else:
            var = self.running_var
            x_hat = x - self.running_mean
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat *= inv_std
        # Training keeps x_hat for backward; inference scales it in place.
        self._cache = (x_hat, inv_std) if training else None
        y = self.gamma * x_hat if training else np.multiply(
            self.gamma, x_hat, out=x_hat)
        y += self.beta
        return y

    def backward(self, grad_out, param_grads=True):
        x_hat, inv_std = self._take()
        n = grad_out.shape[0]
        if param_grads:
            self.grads = [(grad_out * x_hat).sum(axis=0), grad_out.sum(axis=0)]
        dx_hat = grad_out * self.gamma
        # Batch-statistics backward (mean and variance both depend on x),
        # in place: inv_std / n * (n * dx_hat - dx_hat.sum(axis=0)
        #                          - x_hat * (dx_hat * x_hat).sum(axis=0)).
        dx_sum = dx_hat.sum(axis=0)
        t = dx_hat * x_hat
        np.multiply(x_hat, t.sum(axis=0), out=t)
        dx_hat *= n
        dx_hat -= dx_sum
        dx_hat -= t
        dx_hat *= inv_std / n
        return dx_hat


class LeakyReLU(Layer):
    """Branch-free: on numpy 2.4.6 a select over a random mask (`np.where`)
    costs about 18 times a `maximum`. The outputs are bitwise those of the
    select form."""

    def __init__(self, slope: float = 0.2):
        super().__init__()
        if not 0.0 < slope < 1.0:
            raise ValueError("leaky relu slope must be in (0, 1)")
        self.slope = slope

    def forward(self, x, training, rng=None):
        # One byte per activation; a cached float multiplier would cost 4-8.
        self._cache = x >= 0
        # For a slope in (0, 1), max(x, slope * x) is x where x >= 0 and
        # slope * x elsewhere, also at -0.0, +-inf and NaN.
        y = self.slope * x
        return np.maximum(x, y, out=y)

    def backward(self, grad_out, param_grads=True):
        # Each multiplier is exactly 1 or the slope, so the product rounds
        # as the selected `grad_out` or `slope * grad_out` does.
        k = self._take().astype(grad_out.dtype)
        np.maximum(k, self.slope, out=k)
        k *= grad_out
        return k


class Dropout(Layer):
    """Inverted dropout: survivors scaled at train time, identity at inference.

    A training-mode forward caches a bool keep mask and the scale 1 / keep
    rounded to the input's dtype. Multiplying by the mask and then by the
    scale is bitwise a multiply by the float mask (0 or the scale), at
    +-0, +-inf and NaN too: x * 1 is x exactly, and x * 0 is a zero or a
    NaN that the positive scale keeps. Scaling first could overflow.
    """

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate

    def forward(self, x, training, rng=None):
        if not training or self.rate == 0.0:
            # Identity: an empty cache, so backward knows a forward ran.
            self._cache = ()
            return x
        if rng is None:
            raise ValueError("dropout in training mode needs an rng")
        keep = 1.0 - self.rate
        mask = rng.random(x.shape) < keep
        # The float mask's nonzero value: one divided by keep in x's dtype.
        scale = np.true_divide(1, keep, dtype=x.dtype)
        self._cache = (mask, scale)
        return self._apply(x, mask, scale)

    def backward(self, grad_out, param_grads=True):
        cache = self._take()
        return self._apply(grad_out, *cache) if cache else grad_out

    @staticmethod
    def _apply(a, mask, scale):
        # The dtype of `a` times the float mask, which has the scale's.
        out = np.multiply(a, mask, dtype=np.result_type(a.dtype, scale.dtype))
        out *= scale
        return out


class Tanh(Layer):
    def forward(self, x, training, rng=None):
        self._cache = y = np.tanh(x)
        return y

    def backward(self, grad_out, param_grads=True):
        y = self._take()
        return grad_out * (1.0 - y ** 2)


class Sigmoid(Layer):
    def forward(self, x, training, rng=None):
        # One exp of a non-positive argument: no overflow in either tail,
        # in float32 as in float64.
        e = np.exp(-np.abs(x))
        self._cache = y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return y

    def backward(self, grad_out, param_grads=True):
        y = self._take()
        return grad_out * y * (1.0 - y)


class Network:
    """A stack of layers trained with a shared Adam state."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def forward(self, x: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training, rng)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite activations in forward pass")
        return x

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        """Backpropagate to the input; see `Layer.backward` for `param_grads`.
        Each layer's backward takes its forward cache, so a second backward
        needs a new forward first."""
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out, param_grads)
        return grad_out

    def release(self) -> None:
        """Drop every layer's gradients and forward caches, keeping the
        parameters and batch-norm running statistics: all that inference
        needs. A backward then needs a training-mode forward first."""
        for layer in self.layers:
            layer.release()

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]


def bce_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. predictions.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the log.
    """
    p = np.clip(predictions, BCE_CLAMP, 1.0 - BCE_CLAMP)
    t = targets
    loss = -np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    grad = np.where((predictions > BCE_CLAMP) & (predictions < 1.0 - BCE_CLAMP),
                    (p - t) / (p * (1.0 - p)) / p.size, 0.0)
    return float(loss), grad


class Adam:
    def __init__(self, params: list[np.ndarray], lr: float = 2e-4,
                 beta1: float = 0.5, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        """One Adam update (Kingma & Ba 2015, Algorithm 1), in place.

        Rounds as `p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)` does, so the
        bias corrections stay divisions of the moments rather than one folded
        scalar. Consumes `grads`, one gradient per parameter, of its shape
        and dtype: once read, each holds the denominator, and its entry is
        set to None, so a gradient the caller holds nowhere else is freed
        before the next parameter's update. One temporary per parameter.
        """
        if len(grads) != len(self.params):
            # A gradient list one short would shift every later pair.
            raise ValueError(f"Adam.step got {len(grads)} gradients for "
                             f"{len(self.params)} parameters")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, (p, m, v) in enumerate(zip(self.params, self.m, self.v)):
            g, grads[i] = grads[i], None
            step = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += step
            np.multiply(g, 1.0 - self.beta2, out=step)
            step *= g
            v *= self.beta2
            v += step
            np.divide(m, b1t, out=step)
            step *= self.lr
            np.divide(v, b2t, out=g)  # g is read: the denominator
            np.sqrt(g, out=g)
            g += self.eps
            step /= g
            p -= step
            del g, step  # freed before the next parameter's temporary
