"""Deep deterministic policy gradient with replay and target networks."""
from __future__ import annotations

import numpy as np
from numpy.random import SeedSequence, default_rng

from ..neural import Adam, Mlp
from .common import Agent, AgentConfig, TransitionStore


def soft_update(target: Mlp, online: Mlp, tau: float) -> None:
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat


class DDPGAgent(Agent):
    kind = "DDPG"

    def __init__(self, obs_dim: int, action_dim: int,
                 config: AgentConfig = AgentConfig(), seed: int = 0):
        super().__init__(obs_dim, action_dim, config, seed)
        init_rng = default_rng(SeedSequence([seed, 3]))
        # actor output passes through tanh to stay inside [-1, 1]
        self.actor = Mlp([obs_dim, *config.hidden, action_dim], init_rng)
        self.critic = Mlp([obs_dim + action_dim, *config.hidden, 1], init_rng)
        self.target_actor = self.actor.clone()
        self.target_critic = self.critic.clone()

    def parameters(self) -> list[np.ndarray]:
        return [self.actor.flat, self.critic.flat,
                self.target_actor.flat, self.target_critic.flat]

    def act(self, obs) -> np.ndarray:
        action = self.actor.forward(obs)  # a fresh array
        return np.tanh(action, out=action)

    def targets(self, rewards, next_obs, dones) -> np.ndarray:
        """TD targets y = r + gamma * Q'(s', mu'(s')) with terminal masking."""
        a_next = np.tanh(self.target_actor.forward(next_obs))
        q_next = self.target_critic.forward(
            np.concatenate([next_obs, a_next], axis=1))[:, 0]
        return rewards + self.config.gamma * q_next * (1.0 - dones)

    def update(self, batch, actor_opt: Adam, critic_opt: Adam) -> None:
        """One critic, actor and target step on `TransitionStore.rows`."""
        obs, actions, rewards, next_obs, dones, _ = batch
        n = len(obs)

        y = self.targets(rewards, next_obs, dones)
        q, cache = self.critic.forward_cache(np.concatenate([obs, actions], axis=1))
        critic_loss = float(((q[:, 0] - y) ** 2).mean())
        if not np.isfinite(critic_loss):
            raise FloatingPointError("non-finite critic loss")
        critic_grad, _ = self.critic.backward(cache, (2.0 / n) * (q - y[:, None]))
        critic_opt.step(critic_grad)

        # actor ascends Q(s, mu(s)): critic input-gradient w.r.t. the action
        # slice, chained through tanh, then through the actor net
        raw, actor_cache = self.actor.forward_cache(obs)
        a_pi = np.tanh(raw)
        _, q_cache = self.critic.forward_cache(np.concatenate([obs, a_pi], axis=1))
        _, dinput = self.critic.backward(q_cache, np.full((n, 1), 1.0 / n))
        da = dinput[:, self.obs_dim:] * (1.0 - a_pi ** 2)
        actor_grad, _ = self.actor.backward(actor_cache, da)
        actor_opt.step(-actor_grad)

        soft_update(self.target_actor, self.actor, self.config.tau)
        soft_update(self.target_critic, self.critic, self.config.tau)

    def train(self, env) -> None:
        cfg = self.config
        store = TransitionStore(min(cfg.buffer_capacity, cfg.total_steps),
                                self.obs_dim, self.action_dim)
        opts = self.optimizers()
        obs = env.reset()
        for _ in range(cfg.total_steps):
            # exploration: Gaussian noise on the policy's action, clipped
            noise = cfg.noise_scale * self.rng.standard_normal(self.action_dim)
            action = np.minimum(np.maximum(self.act(obs) + noise, -1.0), 1.0)
            next_obs, reward, done = env.step(action)
            store.add(obs, action, reward, next_obs, done)
            obs = env.reset() if done else next_obs
            if len(store) >= max(cfg.warmup_steps, cfg.batch_size):
                self.update(store.sample(cfg.batch_size, self.rng), *opts)
