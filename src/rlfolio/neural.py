"""Minimal feed-forward substrate: MLPs with analytic gradients, an Adam
optimizer, and a state-independent-variance Gaussian policy head. Each
network keeps its parameters in one flat vector and computes in its dtype:
float32 for a new net, the precision of the paper's stable-baselines
(TensorFlow) nets."""
from __future__ import annotations

import math

import numpy as np

from .errors import GradInvalid, ShapeError

LOG_STD_MIN = math.log(1e-3)
LOG_STD_MAX = math.log(10.0)
LOG_2PI = math.log(2.0 * math.pi)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Mlp:
    """Fully connected net: tanh on hidden layers, identity on the output.

    All parameters live in one vector, `flat`: layer by layer, the weight
    (in x out, row-major) then the bias. `params` holds views into it in
    that order. A new net is float32 and Glorot-uniform initialized;
    passing `flat` wraps an existing vector, of any float dtype, instead.
    Inputs and upstream gradients are cast to the vector's dtype.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator | None = None,
                 flat: np.ndarray | None = None):
        if len(sizes) < 2:
            raise ShapeError("need at least input and output sizes")
        self.sizes = list(sizes)
        self.n_layers = len(sizes) - 1
        shapes = [shape for n_in, n_out in zip(sizes[:-1], sizes[1:])
                  for shape in ((n_in, n_out), (n_out,))]
        size = sum(map(math.prod, shapes))
        fresh = flat is None
        self.flat = np.zeros(size, dtype=np.float32) if fresh else flat
        if self.flat.shape != (size,):
            raise ShapeError(f"flat shape {self.flat.shape}, expected ({size},)")
        self.params, offset = [], 0
        for shape in shapes:
            size = math.prod(shape)
            self.params.append(self.flat[offset:offset + size].reshape(shape))
            offset += size
        if fresh:
            rng = rng or np.random.default_rng(0)
            for w in self.params[::2]:
                bound = math.sqrt(6.0 / sum(w.shape))
                w[...] = rng.uniform(-bound, bound, size=w.shape)

    def clone(self) -> "Mlp":
        return Mlp(self.sizes, flat=self.flat.copy())

    def _check_input(self, x) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=self.flat.dtype)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ShapeError(f"input shape {x.shape}, expected (*, {self.sizes[0]})")
        return x, single

    def forward(self, x) -> np.ndarray:
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x):
        """Forward pass keeping layer activations for `backward`."""
        x, single = self._check_input(x)
        acts = [x]
        h = x
        for layer in range(self.n_layers):
            w, b = self.params[2 * layer], self.params[2 * layer + 1]
            h = h @ w + b
            if layer < self.n_layers - 1:
                h = np.tanh(h)
            acts.append(h)
        out = h[0] if single else h
        return out, (acts, single)

    def backward(self, cache, upstream) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of sum(output * upstream) w.r.t. `flat` (one vector in
        its layout) and the input."""
        acts, single = cache
        g = np.asarray(upstream, dtype=self.flat.dtype)
        if single:
            g = g[None, :]
        if g.shape[-1] != self.sizes[-1]:
            raise ShapeError(f"upstream shape {g.shape}")
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
        return np.concatenate(grads), (g[0] if single else g)


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
        if p.shape != np.shape(g):
            raise ShapeError(f"grad shape {np.shape(g)} vs param {p.shape}")
        if not np.all(np.isfinite(g)):
            raise GradInvalid("non-finite gradient")
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

    def __init__(self, obs_dim: int, action_dim: int,
                 hidden: tuple[int, ...] = (64, 64),
                 rng: np.random.Generator | None = None,
                 log_std_init: float = math.log(0.5),
                 flat: np.ndarray | None = None):
        sizes = [obs_dim, *hidden, action_dim]
        if flat is None:
            flat = np.concatenate([Mlp(sizes, rng).flat,
                                   np.full(action_dim, log_std_init,
                                           dtype=np.float32)])
        self.flat = flat
        self.mean_net = Mlp(sizes, flat=flat[:-action_dim])
        self.log_std = flat[-action_dim:]
        self.action_dim = action_dim

    def clone(self) -> "GaussianPolicy":
        sizes = self.mean_net.sizes
        return GaussianPolicy(sizes[0], self.action_dim, tuple(sizes[1:-1]),
                              flat=self.flat.copy())

    def std(self) -> np.ndarray:
        return np.exp(np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX))

    def sample(self, obs, rng: np.random.Generator):
        """Draw an action; log-prob is of the unclipped draw."""
        mean = self.mean_net.forward(obs)
        std = self.std()
        noise = rng.standard_normal(mean.shape)
        action = mean + std * noise
        return action, self._log_prob(action, mean, std)

    def log_prob(self, obs, action) -> np.ndarray | float:
        mean = self.mean_net.forward(obs)
        return self._log_prob(np.asarray(action, dtype=float), mean, self.std())

    @staticmethod
    def _log_prob(action, mean, std):
        z = (action - mean) / std
        per_dim = -0.5 * z ** 2 - np.log(std) - 0.5 * LOG_2PI
        return per_dim.sum(axis=-1)

    def log_prob_grads(self, obs, action):
        """Per-sample log-probs plus machinery to backprop a weighting.

        Returns (log_probs, backward) where backward(coeff) yields the
        gradient of sum_i coeff_i * log pi(a_i | s_i) as one vector in
        `flat` order.
        """
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        action = np.atleast_2d(np.asarray(action, dtype=float))
        mean, cache = self.mean_net.forward_cache(obs)
        std = self.std()
        z = (action - mean) / std
        logp = (-0.5 * z ** 2 - np.log(std) - 0.5 * LOG_2PI).sum(axis=1)

        def backward(coeff):
            c = np.asarray(coeff, dtype=float)[:, None]
            # d logp / d mean = z / std ; d logp / d log_std = z^2 - 1
            mean_grad, _ = self.mean_net.backward(cache, c * z / std)
            clipped = (self.log_std < LOG_STD_MIN) | (self.log_std > LOG_STD_MAX)
            g_log_std = (c * (z ** 2 - 1.0)).sum(axis=0)
            g_log_std[clipped] = 0.0
            return np.concatenate([mean_grad, g_log_std], dtype=self.flat.dtype)

        return logp, backward
