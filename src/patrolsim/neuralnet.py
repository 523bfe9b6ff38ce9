"""Minimal dense-network engine with explicit backpropagation.

Layers: fully-connected, batch normalization, LeakyReLU, dropout, tanh,
sigmoid; binary cross-entropy head; Adam optimizer. `Dense` and `BatchNorm`
take the dtype of their parameters, float64 by default: float64 is the
reference the finite-difference gradient checks run in, and the GAN trains
in float32. Gradients and Adam moments follow their parameter's dtype, and
`Dense` rejects an input of another dtype, so one stray float64 array cannot
silently promote a float32 network back to float64.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
BCE_CLAMP = 1e-7


class Layer:
    """Base layer: forward caches whatever backward needs."""

    params: list[np.ndarray]
    grads: list[np.ndarray]

    def __init__(self):
        self.params = []
        self.grads = []

    def forward(self, x: np.ndarray, training: bool, rng=None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray,
                 param_grads: bool = True) -> np.ndarray:
        """Gradient w.r.t. the input. With `param_grads` False the
        parameter gradients are not computed and `grads` keeps its values."""
        raise NotImplementedError


class Dense(Layer):
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
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self._x = None

    def forward(self, x, training, rng=None):
        if x.shape[1] != self.w.shape[0]:
            raise ValueError(f"dense shape mismatch: {x.shape} vs {self.w.shape}")
        if x.dtype != self.w.dtype:
            raise ValueError(f"dense dtype mismatch: {x.dtype} input vs "
                             f"{self.w.dtype} weights")
        self._x = x
        return x @ self.w + self.b

    def backward(self, grad_out, param_grads=True):
        if param_grads:
            self.grads[0][...] = self._x.T @ grad_out
            self.grads[1][...] = grad_out.sum(axis=0)
        return grad_out @ self.w.T


class BatchNorm(Layer):
    def __init__(self, width: int, dtype=np.float64):
        super().__init__()
        self.gamma = np.ones(width, dtype)
        self.beta = np.zeros(width, dtype)
        self.params = [self.gamma, self.beta]
        self.grads = [np.zeros_like(self.gamma), np.zeros_like(self.beta)]
        self.running_mean = np.zeros(width, dtype)
        self.running_var = np.ones(width, dtype)
        self._cache = None

    def forward(self, x, training, rng=None):
        if training:
            if x.shape[0] < 2:
                raise ValueError("batchnorm training needs batch size >= 2")
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return self.gamma * x_hat + self.beta

    def backward(self, grad_out, param_grads=True):
        x_hat, inv_std = self._cache
        n = grad_out.shape[0]
        if param_grads:
            self.grads[0][...] = (grad_out * x_hat).sum(axis=0)
            self.grads[1][...] = grad_out.sum(axis=0)
        dx_hat = grad_out * self.gamma
        # Batch-statistics backward (mean and variance both depend on x).
        return inv_std / n * (
            n * dx_hat
            - dx_hat.sum(axis=0)
            - x_hat * (dx_hat * x_hat).sum(axis=0)
        )


class LeakyReLU(Layer):
    def __init__(self, slope: float = 0.2):
        super().__init__()
        if not 0.0 < slope < 1.0:
            raise ValueError("leaky relu slope must be in (0, 1)")
        self.slope = slope
        self._mask = None

    def forward(self, x, training, rng=None):
        self._mask = x >= 0
        return np.where(self._mask, x, self.slope * x)

    def backward(self, grad_out, param_grads=True):
        return np.where(self._mask, grad_out, self.slope * grad_out)


class Dropout(Layer):
    """Inverted dropout: survivors scaled at train time, identity at inference."""

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._mask = None

    def forward(self, x, training, rng=None):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("dropout in training mode needs an rng")
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep).astype(x.dtype)
        self._mask /= keep
        return x * self._mask

    def backward(self, grad_out, param_grads=True):
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Tanh(Layer):
    def forward(self, x, training, rng=None):
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out, param_grads=True):
        return grad_out * (1.0 - self._y ** 2)


class Sigmoid(Layer):
    def forward(self, x, training, rng=None):
        # One exp of a non-positive argument: no overflow in either tail,
        # in float32 as in float64.
        e = np.exp(-np.abs(x))
        self._y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return self._y

    def backward(self, grad_out, param_grads=True):
        return grad_out * self._y * (1.0 - self._y)


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
        """Backpropagate to the input; see `Layer.backward` for `param_grads`."""
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out, param_grads)
        return grad_out

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
        scalar; two temporaries per parameter, freed on return.
        """
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            step = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += step
            np.multiply(g, 1.0 - self.beta2, out=step)
            step *= g
            v *= self.beta2
            v += step
            np.divide(m, b1t, out=step)
            step *= self.lr
            denom = np.divide(v, b2t)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p -= step
