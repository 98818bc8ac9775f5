"""Proximal policy optimization with the clipped surrogate objective."""
from __future__ import annotations

import numpy as np

from ..errors import GradInvalid
from ..neural import Adam
from .common import OnPolicyAgent


def ppo_clip_objective(ratio, adv, epsilon: float):
    """min(ratio * adv, clip(ratio, 1-eps, 1+eps) * adv), elementwise."""
    return np.minimum(ratio * adv,
                      np.clip(ratio, 1.0 - epsilon, 1.0 + epsilon) * adv)


class PPOAgent(OnPolicyAgent):
    kind = "PPO"
    init_salt = 2

    def update(self, batch, actor_opt: Adam, critic_opt: Adam) -> None:
        """Clipped-surrogate epochs over a rollout gathered by the current
        (now frozen as "old") policy; advantages are normalized per batch."""
        cfg = self.config
        obs, actions, rewards, next_obs, dones, old_logp = batch
        n = len(obs)
        if cfg.epochs == 0 or n == 0:
            return
        adv, targets = self.compute_advantages(obs, rewards, next_obs, dones)
        adv_n = (adv - adv.mean()) / (adv.std() + 1e-8)

        eps = cfg.clip_epsilon
        for _ in range(cfg.epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, cfg.minibatch):
                idx = order[start:start + cfg.minibatch]
                logp, backward = self.policy.log_prob_grads(obs[idx], actions[idx])
                ratio = np.exp(logp - old_logp[idx])
                a = adv_n[idx]
                unclipped = ratio * a
                surrogate = ppo_clip_objective(ratio, a, eps)
                # gradient flows only through samples where the unclipped
                # branch attains the min
                coeff = np.where(surrogate == unclipped, unclipped, 0.0)
                m = len(idx)
                actor_grad = -backward(coeff) / m
                objective = float(surrogate.mean())
                if not np.isfinite(objective):
                    raise GradInvalid("non-finite surrogate")
                actor_opt.step(actor_grad)

                v, cache = self.critic.forward_cache(obs[idx])
                critic_grad, _ = self.critic.backward(
                    cache, (2.0 / m) * (v - targets[idx][:, None]))
                critic_opt.step(critic_grad)
