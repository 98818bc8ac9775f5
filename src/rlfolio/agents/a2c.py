"""Advantage actor-critic with synchronous batch updates."""
from __future__ import annotations

import numpy as np

from ..neural import Adam
from .common import OnPolicyAgent


class A2CAgent(OnPolicyAgent):
    kind = "A2C"
    init_salt = 1

    def update(self, batch, actor_opt: Adam, critic_opt: Adam) -> None:
        """One synchronized gradient step on actor and critic."""
        obs, actions, rewards, next_obs, dones, _ = batch
        n = len(obs)
        adv, targets = self.compute_advantages(obs, rewards, next_obs, dones)

        logp, backward = self.policy.log_prob_grads(obs, actions)
        # ascend E[log pi * A]; Adam minimizes, so negate
        actor_grad = -backward(adv) / n

        v, cache = self.critic.forward_cache(obs)
        critic_grad, _ = self.critic.backward(
            cache, (2.0 / n) * (v - targets[:, None]))

        actor_loss = -float((logp * adv).mean())
        critic_loss = float(((v[:, 0] - targets) ** 2).mean())
        if not np.isfinite(actor_loss) or not np.isfinite(critic_loss):
            raise FloatingPointError("non-finite loss")
        actor_opt.step(actor_grad)
        critic_opt.step(critic_grad)
