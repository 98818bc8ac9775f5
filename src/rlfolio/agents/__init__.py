"""The three actor-critic learners behind a single train/act interface."""
from __future__ import annotations

from .a2c import A2CAgent
from .common import Agent, AgentConfig, TransitionStore
from .ddpg import DDPGAgent
from .ppo import PPOAgent, ppo_clip_objective

_CLASSES = {cls.kind: cls for cls in (PPOAgent, A2CAgent, DDPGAgent)}
AGENT_KINDS = tuple(_CLASSES)


def train_agent(kind: str, env, config: AgentConfig, seed: int,
                warm_start: Agent | None = None) -> Agent:
    """Train one agent on an environment window, deterministically per seed.

    `warm_start` copies parameters from a previously trained agent of the
    same kind (walk-forward continuation), DDPG's target networks included.
    That is all a trained agent holds: its optimizers live only inside
    `train`.
    """
    agent = _CLASSES[kind](env.obs_dim, env.action_dim, config, seed)
    if warm_start is not None:
        if warm_start.kind != agent.kind:
            raise ValueError("warm start kind mismatch")
        for dst, src in zip(agent.parameters(), warm_start.parameters()):
            dst[...] = src
    if config.total_steps > 0:
        agent.train(env)
    return agent


__all__ = [
    "Agent", "AgentConfig", "A2CAgent", "DDPGAgent", "PPOAgent",
    "TransitionStore", "AGENT_KINDS", "ppo_clip_objective", "train_agent",
]
