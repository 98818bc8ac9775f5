from dataclasses import replace

import numpy as np
import pytest

from rlfolio.agents import AGENT_KINDS, make_agent, train_agent
from rlfolio.agents.a2c import A2CAgent
from rlfolio.agents.common import (AgentConfig, ReplayBuffer, Transition,
                                   advantage, stack_rollout)
from rlfolio.agents.ddpg import DDPGAgent, soft_update
from rlfolio.agents.ppo import PPOAgent, ppo_clip_objective
from rlfolio.errors import BufferUnderflow
from rlfolio.neural import Mlp, flatten_params, unflatten_params

import oracles
from helpers import TwoArmedBandit


def make_transitions(rng, obs_dim, action_dim, n):
    out = []
    for _ in range(n):
        out.append(Transition(
            state_vec=rng.normal(size=obs_dim),
            action=rng.normal(size=action_dim),
            reward=float(rng.normal()),
            next_state_vec=rng.normal(size=obs_dim),
            done=bool(rng.random() < 0.1),
            log_prob=float(rng.normal())))
    return out


class TestAdvantage:
    def test_hand_examples(self):
        # r=1, gamma=0.9, V(s)=2, V(s')=3, not done: 1 + 2.7 - 2 = 1.7
        assert advantage(1.0, 0.9, 2.0, 3.0, False) == pytest.approx(1.7)
        # terminal: bootstrap term drops
        assert advantage(1.0, 0.9, 2.0, 3.0, True) == pytest.approx(-1.0)
        assert advantage(0.0, 0.99, 0.0, 0.0, False) == 0.0


class TestPPOClip:
    def test_hand_examples(self):
        eps = 0.2
        # inside the band: unclipped
        assert ppo_clip_objective(1.0, 2.0, eps) == pytest.approx(2.0)
        # ratio above band, positive adv: clipped at 1.2
        assert ppo_clip_objective(1.5, 2.0, eps) == pytest.approx(2.4)
        # ratio below band, negative adv: clipped at 0.8
        assert ppo_clip_objective(0.5, -2.0, eps) == pytest.approx(-1.6)
        # ratio above band, negative adv: min keeps the unclipped branch
        assert ppo_clip_objective(1.5, -2.0, eps) == pytest.approx(-3.0)

    def test_pessimism(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = float(rng.uniform(0.2, 2.0))
            a = float(rng.normal())
            obj = ppo_clip_objective(r, a, 0.2)
            assert obj <= r * a + 1e-12
            clipped = min(max(r, 0.8), 1.2) * a
            assert obj <= clipped + 1e-12

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            ppo_clip_objective(1.0, 1.0, 0.0)


class TestReplayBuffer:
    def test_ring_eviction(self):
        buf = ReplayBuffer(3)
        trs = make_transitions(np.random.default_rng(0), 2, 1, 5)
        for tr in trs:
            buf.push(tr)
        assert len(buf) == 3
        rewards = {tr.reward for tr in buf._data}
        assert rewards == {t.reward for t in trs[2:]}

    def test_underflow(self):
        buf = ReplayBuffer(10)
        with pytest.raises(BufferUnderflow):
            buf.sample(1, np.random.default_rng(0))


class TestDDPGTargets:
    def test_tau_one_copies(self):
        rng = np.random.default_rng(1)
        a = Mlp([3, 4, 2], rng)
        b = Mlp([3, 4, 2], rng)
        soft_update(a, b, 1.0)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa, pb)

    def test_tau_zero_freezes(self):
        rng = np.random.default_rng(2)
        a = Mlp([3, 4, 2], rng)
        b = Mlp([3, 4, 2], rng)
        before = [p.copy() for p in a.params]
        soft_update(a, b, 0.0)
        for pa, pb in zip(a.params, before):
            np.testing.assert_array_equal(pa, pb)

    def test_convex_blend(self):
        rng = np.random.default_rng(3)
        a = Mlp([2, 3, 1], rng)
        b = Mlp([2, 3, 1], rng)
        expect = [0.9 * pa + 0.1 * pb for pa, pb in zip(a.params, b.params)]
        soft_update(a, b, 0.1)
        for pa, pe in zip(a.params, expect):
            np.testing.assert_allclose(pa, pe, atol=1e-15)

    def test_td_target_formula(self):
        agent = DDPGAgent(3, 2, AgentConfig(gamma=0.9), seed=0)
        next_obs = np.random.default_rng(4).normal(size=(5, 3))
        rewards = np.arange(5.0)
        dones = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
        a_next = np.tanh(agent.target_actor.forward(next_obs))
        q_next = agent.target_critic.forward(
            np.concatenate([next_obs, a_next], axis=1))[:, 0]
        expected = rewards + 0.9 * q_next * (1 - dones)
        np.testing.assert_allclose(
            agent.targets(rewards, next_obs, dones), expected)
        # terminal rows bootstrap nothing
        assert agent.targets(rewards, next_obs, dones)[1] == 1.0


class TestGradientChecks:
    def test_a2c_actor_gradient(self):
        cfg = AgentConfig(hidden=(6,))
        agent = A2CAgent(3, 2, cfg, seed=5)
        rng = np.random.default_rng(6)
        rollout = make_transitions(rng, 3, 2, 8)
        obs, actions, rewards, next_obs, dones, _ = stack_rollout(rollout)
        adv, _ = agent.compute_advantages(obs, rewards, next_obs, dones)

        def neg_objective(flat):
            probe = agent.policy.clone()
            unflatten_params(flat, probe.params)
            return -float((probe.log_prob(obs, actions) * adv).mean())

        _, backward = agent.policy.log_prob_grads(obs, actions)
        grads = [-g / len(rollout) for g in backward(adv)]
        fd = oracles.finite_difference(neg_objective,
                                       flatten_params(agent.policy.params))
        np.testing.assert_allclose(flatten_params(grads), fd, atol=1e-6)

    def test_ddpg_actor_gradient(self):
        cfg = AgentConfig(hidden=(5,))
        agent = DDPGAgent(3, 2, cfg, seed=7)
        rng = np.random.default_rng(8)
        obs = rng.normal(size=(6, 3))

        def neg_q(flat):
            probe = agent.actor.clone()
            unflatten_params(flat, probe.params)
            a = np.tanh(probe.forward(obs))
            q = agent.critic.forward(np.concatenate([obs, a], axis=1))[:, 0]
            return -float(q.mean())

        n = len(obs)
        raw, actor_cache = agent.actor.forward_cache(obs)
        a_pi = np.tanh(raw)
        _, q_cache = agent.critic.forward_cache(
            np.concatenate([obs, a_pi], axis=1))
        _, dinput = agent.critic.backward(q_cache, np.full((n, 1), 1.0 / n))
        da = dinput[:, 3:] * (1.0 - a_pi ** 2)
        actor_grads, _ = agent.actor.backward(actor_cache, da)
        grads = [-g for g in actor_grads]
        fd = oracles.finite_difference(neg_q, flatten_params(agent.actor.params))
        np.testing.assert_allclose(flatten_params(grads), fd, atol=1e-6)


class TestPPOUpdate:
    def test_zero_epochs_noop(self):
        agent = PPOAgent(2, 1, AgentConfig(hidden=(4,)), seed=0)
        before = flatten_params(agent.parameters()).copy()
        rollout = make_transitions(np.random.default_rng(0), 2, 1, 10)
        agent.update(rollout, epochs=0)
        np.testing.assert_array_equal(flatten_params(agent.parameters()),
                                      before)

    def test_first_minibatch_ratio_one(self):
        # with old log-probs recomputed from the current policy, every
        # first-epoch ratio is exactly 1 before any step is taken
        agent = PPOAgent(2, 1, AgentConfig(hidden=(4,)), seed=1)
        rng = np.random.default_rng(2)
        rollout = []
        for _ in range(6):
            s = rng.normal(size=2)
            a, lp = agent.policy.sample(s, rng)
            rollout.append(Transition(s, a, 0.1, rng.normal(size=2), False,
                                      float(lp)))
        obs = np.stack([t.state_vec for t in rollout])
        acts = np.stack([t.action for t in rollout])
        old = np.array([t.log_prob for t in rollout])
        logp, _ = agent.policy.log_prob_grads(obs, acts)
        np.testing.assert_allclose(np.exp(logp - old), 1.0, atol=1e-12)


class TestDeterminism:
    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_same_seed_same_params(self, kind):
        cfg = AgentConfig(hidden=(8,), rollout=32, warmup_steps=16,
                          batch_size=8)
        runs = []
        for _ in range(2):
            env = TwoArmedBandit()
            agent = make_agent(kind, env.obs_dim, env.action_dim, cfg, seed=11)
            agent.train(env, total_steps=64)
            runs.append(flatten_params(agent.parameters()).copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_different_seed_diverges(self, kind):
        cfg = AgentConfig(hidden=(8,), rollout=32, warmup_steps=16,
                          batch_size=8)
        outs = []
        for seed in (1, 2):
            env = TwoArmedBandit()
            agent = make_agent(kind, env.obs_dim, env.action_dim, cfg, seed=seed)
            agent.train(env, total_steps=64)
            outs.append(flatten_params(agent.parameters()).copy())
        assert not np.array_equal(outs[0], outs[1])


class TestTrainAgent:
    CFG = AgentConfig(hidden=(8,), total_steps=64, rollout=32,
                      warmup_steps=16, batch_size=8)

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_warm_start_copies_donor(self, kind):
        env = TwoArmedBandit()
        donor = train_agent(kind, env, self.CFG, seed=1)
        cold = make_agent(kind, env.obs_dim, env.action_dim, self.CFG, seed=2)
        warm = train_agent(kind, env, replace(self.CFG, total_steps=0),
                           seed=2, warm_start=donor)
        expected = flatten_params(donor.parameters())
        assert not np.array_equal(flatten_params(cold.parameters()), expected)
        np.testing.assert_array_equal(flatten_params(warm.parameters()),
                                      expected)
        if kind == "DDPG":
            for net in ("target_actor", "target_critic"):
                np.testing.assert_array_equal(
                    flatten_params(getattr(warm, net).params),
                    flatten_params(getattr(donor, net).params))

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_warm_start_from_other_kind_rejected(self, kind):
        env = TwoArmedBandit()
        other = AGENT_KINDS[(AGENT_KINDS.index(kind) + 1) % len(AGENT_KINDS)]
        donor = make_agent(other, env.obs_dim, env.action_dim, self.CFG)
        with pytest.raises(ValueError):
            train_agent(kind, env, replace(self.CFG, total_steps=0), seed=0,
                        warm_start=donor)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_agent("XYZ", 1, 1)


class TestBanditLearning:
    """Each learner should discover the positive arm of a trivial bandit."""

    def bandit_accuracy(self, agent, env, n=200):
        rng = np.random.default_rng(123)
        hits = 0
        for _ in range(n):
            obs = env.reset()
            action = agent.act(obs, mode="deterministic")
            hits += action[0] > 0
        return hits / n

    def test_a2c(self):
        env = TwoArmedBandit()
        cfg = AgentConfig(hidden=(16,), actor_lr=3e-3, critic_lr=3e-3,
                          rollout=64)
        agent = A2CAgent(env.obs_dim, env.action_dim, cfg, seed=0)
        agent.train(env, total_steps=4000)
        assert self.bandit_accuracy(agent, env) >= 0.95

    def test_ppo(self):
        env = TwoArmedBandit()
        cfg = AgentConfig(hidden=(16,), actor_lr=3e-3, critic_lr=3e-3,
                          rollout=64, epochs=4, minibatch=32)
        agent = PPOAgent(env.obs_dim, env.action_dim, cfg, seed=0)
        agent.train(env, total_steps=2000)
        assert self.bandit_accuracy(agent, env) >= 0.95

    def test_ddpg(self):
        env = TwoArmedBandit()
        cfg = AgentConfig(hidden=(16,), actor_lr=3e-3, critic_lr=3e-3,
                          warmup_steps=64, batch_size=32, noise_scale=0.3)
        agent = DDPGAgent(env.obs_dim, env.action_dim, cfg, seed=0)
        agent.train(env, total_steps=1500)
        assert self.bandit_accuracy(agent, env) >= 0.95
