"""Minimal feed-forward substrate: MLPs with analytic gradients, an Adam
optimizer, and a state-independent-variance Gaussian policy head. Each
network keeps its parameters in one flat vector and computes in its dtype:
float32 for a new net, the precision of the paper's stable-baselines
(TensorFlow) nets."""
from __future__ import annotations

import math

import numpy as np


LOG_STD_MIN = math.log(1e-3)
LOG_STD_MAX = math.log(10.0)
LOG_STD_INIT = math.log(0.5)  # a new policy's std is 0.5 on every action
LOG_2PI = math.log(2.0 * math.pi)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Mlp:
    """Fully connected net: tanh on hidden layers, identity on the output.

    All parameters live in one vector, `flat`: layer by layer, the weight
    (in x out, row-major) then the bias. `params` holds views into it in
    that order, each bias as a 1 x out row, which a one-row input adds
    without broadcasting. A new net is float32 and Glorot-uniform
    initialized from `rng`; passing `flat` wraps an existing vector, of any
    float dtype, instead. Inputs have `sizes[0]` columns, and numpy's
    product raises otherwise; they and upstream gradients are cast to the
    vector's dtype.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator | None = None,
                 flat: np.ndarray | None = None):
        self.sizes = list(sizes)
        self.n_layers = len(sizes) - 1
        shapes = [shape for n_in, n_out in zip(sizes[:-1], sizes[1:])
                  for shape in ((n_in, n_out), (1, n_out))]
        size = sum(map(math.prod, shapes))
        fresh = flat is None
        self.flat = np.zeros(size, dtype=np.float32) if fresh else flat
        self.params, offset = [], 0
        for shape in shapes:
            size = math.prod(shape)
            self.params.append(self.flat[offset:offset + size].reshape(shape))
            offset += size
        if fresh:
            for w in self.params[::2]:
                bound = math.sqrt(6.0 / sum(w.shape))
                w[...] = rng.uniform(-bound, bound, size=w.shape)

    def clone(self) -> "Mlp":
        return Mlp(self.sizes, flat=self.flat.copy())

    def forward(self, x) -> np.ndarray:
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x):
        """Forward pass and the list of layer activations, input first, that
        `backward` takes."""
        x = np.asarray(x, dtype=self.flat.dtype)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        acts = [x]
        h = x
        for layer in range(self.n_layers):
            w, b = self.params[2 * layer], self.params[2 * layer + 1]
            # np.dot makes the BLAS call `@` makes, with less dispatch; its
            # product is a fresh array, so the bias and tanh apply in place
            h = np.dot(h, w)
            h += b
            if layer < self.n_layers - 1:
                np.tanh(h, out=h)
            acts.append(h)
        return (h[0] if single else h), acts

    def backward(self, acts, upstream) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of sum(output * upstream) over a batch, given its
        `forward_cache` activations, w.r.t. `flat` (one vector in its
        layout) and the input rows."""
        g = np.asarray(upstream, dtype=self.flat.dtype)
        grads: list[np.ndarray] = [None] * len(self.params)
        for layer in reversed(range(self.n_layers)):
            a_in = acts[layer]
            if layer < self.n_layers - 1:
                # gradient through tanh of this layer's output
                g = g * (1.0 - acts[layer + 1] ** 2)
            w = self.params[2 * layer]
            grads[2 * layer] = (a_in.T @ g).ravel()
            grads[2 * layer + 1] = g.sum(axis=0)
            g = g @ w.T
        return np.concatenate(grads), g


class Adam:
    """Adam over one parameter vector `p`, updated in place by `step`."""

    def __init__(self, p: np.ndarray, lr: float):
        self.p = p
        self.lr = lr
        self.t = 0
        # the first step allocates the moments: allocating them here, at the
        # start of train(), slowed DDPG's updates, as glibc then trimmed and
        # regrew the heap around each update's temporaries
        self._m = self._v = None

    def step(self, g: np.ndarray) -> None:
        p = self.p
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient")
        if self._m is None:
            self._m, self._v = np.zeros_like(p), np.zeros_like(p)
        self.t += 1
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** self.t)
        v_hat = v / (1 - ADAM_BETA2 ** self.t)
        p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class GaussianPolicy:
    """Diagonal Gaussian over actions: MLP mean, learned global log-std.

    One vector, `flat`, holds the mean net's parameters followed by
    `log_std`, float32 for a new policy; passing `flat` wraps an existing
    vector."""

    def __init__(self, obs_dim: int, action_dim: int, hidden: tuple[int, ...],
                 rng: np.random.Generator | None = None,
                 flat: np.ndarray | None = None):
        sizes = [obs_dim, *hidden, action_dim]
        if flat is None:
            flat = np.concatenate([Mlp(sizes, rng).flat,
                                   np.full(action_dim, LOG_STD_INIT,
                                           dtype=np.float32)])
        self.flat = flat
        self.mean_net = Mlp(sizes, flat=flat[:-action_dim])
        self.log_std = flat[-action_dim:]
        self.action_dim = action_dim

    def std(self) -> np.ndarray:
        return np.exp(np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX))

    def sample(self, obs, rng: np.random.Generator):
        """Draw an action; log-prob is of the unclipped draw."""
        mean = self.mean_net.forward(obs)
        std = self.std()
        noise = rng.standard_normal(mean.shape)
        action = mean + std * noise
        z = (action - mean) / std
        per_dim = -0.5 * z ** 2 - np.log(std) - 0.5 * LOG_2PI
        return action, per_dim.sum(axis=-1)

    def log_prob_grads(self, obs: np.ndarray, action: np.ndarray):
        """Per-sample log-probs of float64 (n, dim) rows plus machinery to
        backprop a weighting.

        Returns (log_probs, backward) where backward(coeff), for a float64
        array of n weights, yields the gradient of sum_i coeff_i *
        log pi(a_i | s_i) as one vector in `flat` order.
        """
        mean, cache = self.mean_net.forward_cache(obs)
        std = self.std()
        z = (action - mean) / std
        logp = (-0.5 * z ** 2 - np.log(std) - 0.5 * LOG_2PI).sum(axis=1)

        def backward(coeff):
            c = coeff[:, None]
            # d logp / d mean = z / std ; d logp / d log_std = z^2 - 1
            mean_grad, _ = self.mean_net.backward(cache, c * z / std)
            clipped = (self.log_std < LOG_STD_MIN) | (self.log_std > LOG_STD_MAX)
            g_log_std = (c * (z ** 2 - 1.0)).sum(axis=0)
            g_log_std[clipped] = 0.0
            return np.concatenate([mean_grad, g_log_std], dtype=self.flat.dtype)

        return logp, backward
