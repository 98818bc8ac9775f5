"""Shared pieces of the three actor-critic learners."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BufferUnderflow, ShapeError
from ..neural import Adam, GaussianPolicy, Mlp


@dataclass(frozen=True)
class AgentConfig:
    gamma: float = 0.99
    hidden: tuple[int, ...] = (64, 64)
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    total_steps: int = 30_000
    rollout: int = 2048
    # PPO
    epochs: int = 10
    minibatch: int = 64
    clip_epsilon: float = 0.2
    # DDPG
    buffer_capacity: int = 100_000
    batch_size: int = 64
    tau: float = 0.005
    noise_scale: float = 0.1
    warmup_steps: int = 256

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if self.clip_epsilon <= 0:
            raise ValueError("clip_epsilon must be positive")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if min(self.rollout, self.buffer_capacity, self.batch_size,
               self.minibatch) < 1:
            raise ValueError("rollout, buffer_capacity, batch_size and "
                             "minibatch must be >= 1")
        for name in ("total_steps", "epochs", "warmup_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class TransitionStore:
    """Preallocated transition arrays with one row per env step, in the
    column order obs, action, reward, next_obs, done (0.0 or 1.0), log_prob.
    Rows are written as a ring: once full, each write replaces the oldest."""

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        row_shapes = ((obs_dim,), (action_dim,), (), (obs_dim,), (), ())
        self.columns = tuple(np.zeros((capacity, *s)) for s in row_shapes)
        self.capacity = capacity
        self.size = self._next = 0

    def __len__(self) -> int:
        return self.size

    def add(self, *row) -> None:
        """Write one row: obs, action, reward, next_obs, done and, optionally,
        log_prob (else 0.0)."""
        for column, value in zip(self.columns, row):
            column[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def clear(self) -> None:
        self.size = self._next = 0

    def rows(self, idx=None) -> tuple[np.ndarray, ...]:
        """Every column at `idx`; by default every filled row in slot order
        (views, not copies)."""
        idx = slice(0, self.size) if idx is None else idx
        return tuple(column[idx] for column in self.columns)

    def sample(self, n: int, rng: np.random.Generator):
        """`rows` at n slots drawn uniformly with replacement."""
        if self.size < n:
            raise BufferUnderflow(f"buffer has {self.size} < {n}")
        return self.rows(rng.integers(0, self.size, size=n))


class Agent:
    """Common act surface; subclasses implement training."""

    kind: str = "?"

    def __init__(self, obs_dim: int, action_dim: int, config: AgentConfig,
                 seed: int = 0):
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.config = config
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))

    def _check_obs(self, obs) -> np.ndarray:
        obs = np.asarray(obs, dtype=float)
        if obs.shape != (self.obs_dim,):
            raise ShapeError(f"observation shape {obs.shape}, "
                             f"expected ({self.obs_dim},)")
        return obs

    def act(self, obs, mode: str = "deterministic") -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[np.ndarray]:
        """Every network's `flat` vector, in a fixed order; a warm start
        copies them all."""
        raise NotImplementedError

    def train(self, env, total_steps: int | None = None) -> None:
        raise NotImplementedError


class OnPolicyAgent(Agent):
    """Gaussian policy plus state-value critic, trained on rollouts of
    `config.rollout` steps. Subclasses set `init_salt`, which seeds their
    weight-init stream apart from other kinds, and implement
    `update(batch)` over one rollout's `TransitionStore.rows`."""

    init_salt: int

    def __init__(self, obs_dim: int, action_dim: int,
                 config: AgentConfig = AgentConfig(), seed: int = 0):
        super().__init__(obs_dim, action_dim, config, seed)
        init_rng = np.random.default_rng(
            np.random.SeedSequence([seed, self.init_salt]))
        self.policy = GaussianPolicy(obs_dim, action_dim, config.hidden, init_rng)
        self.critic = Mlp([obs_dim, *config.hidden, 1], init_rng)
        self.actor_opt = Adam(lr=config.actor_lr)
        self.critic_opt = Adam(lr=config.critic_lr)

    def parameters(self) -> list[np.ndarray]:
        return [self.policy.flat, self.critic.flat]

    def act(self, obs, mode: str = "deterministic") -> np.ndarray:
        obs = self._check_obs(obs)
        if mode == "stochastic":
            action, _ = self.policy.sample(obs, self.rng)
        else:
            action = self.policy.mean_net.forward(obs)
        return np.minimum(np.maximum(action, -1.0), 1.0)

    def compute_advantages(self, obs: np.ndarray, rewards: np.ndarray,
                           next_obs: np.ndarray, dones: np.ndarray):
        """One-step TD targets r + gamma * V(s') * (1 - done) and advantages
        target - V(s) over a stacked rollout (see `TransitionStore.rows`);
        returns (advantages, targets)."""
        v_s = self.critic.forward(obs)[:, 0]
        v_next = self.critic.forward(next_obs)[:, 0]
        targets = rewards + self.config.gamma * v_next * (1.0 - dones)
        return targets - v_s, targets

    def train(self, env, total_steps: int | None = None) -> None:
        total = self.config.total_steps if total_steps is None else total_steps
        store = TransitionStore(min(self.config.rollout, total),
                                self.obs_dim, self.action_dim)
        obs = env.reset()
        for step in range(1, total + 1):
            action, logp = self.policy.sample(obs, self.rng)
            next_obs, reward, done = env.step(
                np.minimum(np.maximum(action, -1.0), 1.0))
            store.add(obs, action, reward, next_obs, done, logp)
            obs = env.reset() if done else next_obs
            if len(store) == store.capacity or step == total:
                self.update(store.rows())
                store.clear()
