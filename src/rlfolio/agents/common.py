"""Shared pieces of the three actor-critic learners."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from ..neural import Adam, GaussianPolicy, Mlp
from ..settings import check_settings, setting


@dataclass(frozen=True)
class AgentConfig:
    gamma: float = setting(0.99, "(0, 1)")
    hidden: tuple[int, ...] = setting((64, 64), "[1, inf)")
    actor_lr: float = setting(3e-4, "(0, inf)")
    critic_lr: float = setting(1e-3, "(0, inf)")
    total_steps: int = setting(30_000, "[0, inf)")
    rollout: int = setting(2048, "[1, inf)", kinds=("PPO", "A2C"))
    epochs: int = setting(10, "[0, inf)", kinds=("PPO",))
    minibatch: int = setting(64, "[1, inf)", kinds=("PPO",))
    clip_epsilon: float = setting(0.2, "(0, inf)", kinds=("PPO",))
    buffer_capacity: int = setting(100_000, "[1, inf)", kinds=("DDPG",))
    batch_size: int = setting(64, "[1, inf)", kinds=("DDPG",))
    tau: float = setting(0.005, "(0, 1]", kinds=("DDPG",))
    # the action is clipped to [-1, 1], so a few units already saturate it
    noise_scale: float = setting(0.1, "[0, 10]", kinds=("DDPG",))
    warmup_steps: int = setting(256, "[0, inf)", kinds=("DDPG",))

    __post_init__ = check_settings


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
            raise ValueError(f"buffer has {self.size} < {n}")
        return self.rows(rng.integers(0, self.size, size=n))


class Agent:
    """Common act surface; subclasses implement training."""

    kind: str = "?"

    def __init__(self, obs_dim: int, action_dim: int, config: AgentConfig,
                 seed: int = 0):
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.config = config
        self.rng = default_rng(SeedSequence(seed))

    def act(self, obs) -> np.ndarray:
        """The deterministic policy's action; the env bounds it to [-1, 1]
        (`env.resolve_action`)."""
        raise NotImplementedError

    def parameters(self) -> list[np.ndarray]:
        """Every network's `flat` vector, in a fixed order starting with the
        actor's and the critic's; a warm start copies them all."""
        raise NotImplementedError

    def optimizers(self) -> tuple[Adam, Adam]:
        """Fresh Adams over the actor and the critic vector. `train` makes
        them, so a trained agent keeps nothing but its `parameters()`."""
        actor, critic = self.parameters()[:2]
        return (Adam(actor, self.config.actor_lr),
                Adam(critic, self.config.critic_lr))

    def train(self, env) -> None:
        """Train for `config.total_steps` env steps."""
        raise NotImplementedError


class OnPolicyAgent(Agent):
    """Gaussian policy plus state-value critic, trained on rollouts of
    `config.rollout` steps. Subclasses set `init_salt`, which seeds their
    weight-init stream apart from other kinds, and implement
    `update(batch, actor_opt, critic_opt)` over one rollout's
    `TransitionStore.rows`."""

    init_salt: int

    def __init__(self, obs_dim: int, action_dim: int,
                 config: AgentConfig = AgentConfig(), seed: int = 0):
        super().__init__(obs_dim, action_dim, config, seed)
        init_rng = default_rng(SeedSequence([seed, self.init_salt]))
        self.policy = GaussianPolicy(obs_dim, action_dim, config.hidden, init_rng)
        self.critic = Mlp([obs_dim, *config.hidden, 1], init_rng)

    def parameters(self) -> list[np.ndarray]:
        return [self.policy.flat, self.critic.flat]

    def act(self, obs) -> np.ndarray:
        return self.policy.mean_net.forward(obs)

    def compute_advantages(self, obs: np.ndarray, rewards: np.ndarray,
                           next_obs: np.ndarray, dones: np.ndarray):
        """One-step TD targets r + gamma * V(s') * (1 - done) and advantages
        target - V(s) over a stacked rollout (see `TransitionStore.rows`);
        returns (advantages, targets)."""
        v_s = self.critic.forward(obs)[:, 0]
        v_next = self.critic.forward(next_obs)[:, 0]
        targets = rewards + self.config.gamma * v_next * (1.0 - dones)
        return targets - v_s, targets

    def train(self, env) -> None:
        total = self.config.total_steps
        store = TransitionStore(min(self.config.rollout, total),
                                self.obs_dim, self.action_dim)
        opts = self.optimizers()
        obs = env.reset()
        for step in range(1, total + 1):
            action, logp = self.policy.sample(obs, self.rng)
            next_obs, reward, done = env.step(action)
            store.add(obs, action, reward, next_obs, done, logp)
            obs = env.reset() if done else next_obs
            if len(store) == store.capacity or step == total:
                self.update(store.rows(), *opts)
                store.clear()
