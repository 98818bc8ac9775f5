"""Shared pieces of the three actor-critic learners."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BufferUnderflow, ShapeError
from ..neural import Adam, GaussianPolicy, Mlp


@dataclass(frozen=True)
class Transition:
    state_vec: np.ndarray
    action: np.ndarray
    reward: float
    next_state_vec: np.ndarray
    done: bool
    log_prob: float = 0.0


class ReplayBuffer:
    """Ring buffer with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: list[Transition] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._data)

    def push(self, tr: Transition) -> None:
        if len(self._data) < self.capacity:
            self._data.append(tr)
        else:
            self._data[self._next] = tr
        self._next = (self._next + 1) % self.capacity

    def sample(self, n: int, rng: np.random.Generator) -> list[Transition]:
        if len(self._data) < n:
            raise BufferUnderflow(f"buffer has {len(self._data)} < {n}")
        idx = rng.integers(0, len(self._data), size=n)
        return [self._data[i] for i in idx]


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
        if min(self.buffer_capacity, self.batch_size, self.minibatch) < 1:
            raise ValueError(
                "buffer_capacity, batch_size and minibatch must be >= 1")


def advantage(r: float, gamma: float, v_s: float, v_next: float,
              done: bool) -> float:
    """One-step TD advantage: r + gamma * V(s') * (1 - done) - V(s)."""
    return r + gamma * v_next * (0.0 if done else 1.0) - v_s


def stack_rollout(rollout: list[Transition]):
    obs = np.stack([tr.state_vec for tr in rollout])
    actions = np.stack([tr.action for tr in rollout])
    rewards = np.array([tr.reward for tr in rollout])
    next_obs = np.stack([tr.next_state_vec for tr in rollout])
    dones = np.array([tr.done for tr in rollout], dtype=float)
    log_probs = np.array([tr.log_prob for tr in rollout])
    return obs, actions, rewards, next_obs, dones, log_probs


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
        raise NotImplementedError

    def train(self, env, total_steps: int | None = None) -> None:
        raise NotImplementedError


class OnPolicyAgent(Agent):
    """Gaussian policy plus state-value critic, trained on rollouts of
    `config.rollout` steps. Subclasses set `init_salt`, which seeds their
    weight-init stream apart from other kinds, and implement
    `update(rollout)`."""

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
        return self.policy.params + self.critic.params

    def act(self, obs, mode: str = "deterministic") -> np.ndarray:
        obs = self._check_obs(obs)
        if mode == "stochastic":
            action, _ = self.policy.sample(obs, self.rng)
        else:
            action = self.policy.mean_net.forward(obs)
        return np.clip(action, -1.0, 1.0)

    def compute_advantages(self, obs: np.ndarray, rewards: np.ndarray,
                           next_obs: np.ndarray, dones: np.ndarray):
        """One-step TD advantages and their targets over a stacked rollout
        (see `stack_rollout`)."""
        v_s = self.critic.forward(obs)[:, 0]
        v_next = self.critic.forward(next_obs)[:, 0]
        targets = rewards + self.config.gamma * v_next * (1.0 - dones)
        return targets - v_s, targets

    def train(self, env, total_steps: int | None = None) -> None:
        total = self.config.total_steps if total_steps is None else total_steps
        steps = 0
        obs = env.reset()
        rollout: list[Transition] = []
        while steps < total:
            action, logp = self.policy.sample(obs, self.rng)
            next_obs, reward, done = env.step(np.clip(action, -1.0, 1.0))
            rollout.append(Transition(obs, action, reward, next_obs, done,
                                      float(logp)))
            steps += 1
            obs = env.reset() if done else next_obs
            if len(rollout) >= self.config.rollout or steps >= total:
                self.update(rollout)
                rollout = []
