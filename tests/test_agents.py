import gc
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rlfolio.agents import AGENT_KINDS, train_agent
from rlfolio.agents.a2c import A2CAgent
from rlfolio.agents.common import AgentConfig, TransitionStore
from rlfolio.agents.ddpg import DDPGAgent, soft_update
from rlfolio.agents.ppo import PPOAgent, ppo_clip_objective
from rlfolio.errors import UserError
from rlfolio.neural import Adam, GaussianPolicy, Mlp

import oracles
from helpers import TwoArmedBandit, advantage, float64_twin

# each kind's class, as `train_agent` looks it up
CLASSES = {cls.kind: cls for cls in (PPOAgent, A2CAgent, DDPGAgent)}


def make_batch(rng, obs_dim, action_dim, n):
    """Random (obs, action, reward, next_obs, done, log_prob) arrays."""
    return (rng.normal(size=(n, obs_dim)), rng.normal(size=(n, action_dim)),
            rng.normal(size=n), rng.normal(size=(n, obs_dim)),
            (rng.random(n) < 0.1).astype(float), rng.normal(size=n))


def flat(agent):
    return np.concatenate(agent.parameters())


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
        # checked once, where the PPO settings are declared
        with pytest.raises(UserError, match=re.escape(
                "clip_epsilon must be in (0, inf), got 0.0")):
            AgentConfig(clip_epsilon=0.0)


class TestTransitionStore:
    def test_ring_eviction(self):
        store = TransitionStore(3, 2, 1)
        batch = make_batch(np.random.default_rng(0), 2, 1, 5)
        for row in zip(*batch):
            store.add(*row)
        assert len(store) == 3
        # slots 0 and 1 were overwritten by the fourth and fifth rows
        for got, want in zip(store.rows(), batch):
            np.testing.assert_array_equal(got, want[[3, 4, 2]])

    def test_underflow(self):
        store = TransitionStore(10, 2, 1)
        with pytest.raises(ValueError, match="buffer has 0 < 1"):
            store.sample(1, np.random.default_rng(0))

    def test_sample_draws_filled_slots(self):
        store = TransitionStore(8, 2, 1)
        batch = make_batch(np.random.default_rng(1), 2, 1, 5)
        for row in zip(*batch):
            store.add(*row)
        idx = np.random.default_rng(2).integers(0, 5, size=4)
        got = store.sample(4, np.random.default_rng(2))
        for g, want in zip(got, batch):
            np.testing.assert_array_equal(g, want[idx])

    def test_clear_refills_from_first_slot(self):
        store = TransitionStore(4, 2, 1)
        first, second = (make_batch(np.random.default_rng(s), 2, 1, 3)
                         for s in (3, 4))
        for row in zip(*first):
            store.add(*row)
        store.clear()
        for row in zip(*second):
            store.add(*row)
        assert len(store) == 3
        for got, want in zip(store.rows(), second):
            np.testing.assert_array_equal(got, want)


class TestDDPGTargets:
    def test_tau_one_copies(self):
        rng = np.random.default_rng(1)
        a = Mlp([3, 4, 2], rng)
        b = Mlp([3, 4, 2], rng)
        soft_update(a, b, 1.0)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_tau_zero_freezes(self):
        rng = np.random.default_rng(2)
        a = Mlp([3, 4, 2], rng)
        b = Mlp([3, 4, 2], rng)
        before = a.flat.copy()
        soft_update(a, b, 0.0)
        np.testing.assert_array_equal(a.flat, before)

    def test_convex_blend(self):
        rng = np.random.default_rng(3)
        a = Mlp([2, 3, 1], rng)
        b = Mlp([2, 3, 1], rng)
        expect = 0.9 * a.flat + 0.1 * b.flat
        soft_update(a, b, 0.1)
        np.testing.assert_allclose(a.flat, expect, atol=1e-15)
        # the per-layer views see the blended vector
        np.testing.assert_array_equal(a.params[0].ravel(),
                                      a.flat[:a.params[0].size])

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
        agent = float64_twin(A2CAgent(3, 2, cfg, seed=5))
        rng = np.random.default_rng(6)
        obs, actions, rewards, next_obs, dones, _ = make_batch(rng, 3, 2, 8)
        adv, _ = agent.compute_advantages(obs, rewards, next_obs, dones)

        def neg_objective(vec):
            probe = GaussianPolicy(3, 2, cfg.hidden, flat=vec)
            logp, _ = probe.log_prob_grads(obs, actions)
            return -float((logp * adv).mean())

        _, backward = agent.policy.log_prob_grads(obs, actions)
        grad = -backward(adv) / len(obs)
        fd = oracles.finite_difference(neg_objective, agent.policy.flat.copy())
        np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_ddpg_actor_gradient(self):
        cfg = AgentConfig(hidden=(5,))
        agent = float64_twin(DDPGAgent(3, 2, cfg, seed=7))
        rng = np.random.default_rng(8)
        obs = rng.normal(size=(6, 3))

        def neg_q(vec):
            probe = agent.actor.clone()
            probe.flat[:] = vec
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
        actor_grad, _ = agent.actor.backward(actor_cache, da)
        fd = oracles.finite_difference(neg_q, agent.actor.flat.copy())
        np.testing.assert_allclose(-actor_grad, fd, atol=1e-6)


class TestPPOUpdate:
    def test_zero_epochs_noop(self):
        agent = PPOAgent(2, 1, AgentConfig(hidden=(4,), epochs=0), seed=0)
        before = flat(agent)
        agent.update(make_batch(np.random.default_rng(0), 2, 1, 10),
                     *agent.optimizers())
        np.testing.assert_array_equal(flat(agent), before)

    def test_first_minibatch_ratio_one(self):
        # with old log-probs recomputed from the current policy, every
        # first-epoch ratio is exactly 1 before any step is taken
        agent = PPOAgent(2, 1, AgentConfig(hidden=(4,)), seed=1)
        rng = np.random.default_rng(2)
        store = TransitionStore(6, 2, 1)
        for _ in range(6):
            s = rng.normal(size=2)
            a, lp = agent.policy.sample(s, rng)
            store.add(s, a, 0.1, rng.normal(size=2), False, lp)
        obs, acts, _, _, _, old = store.rows()
        logp, _ = agent.policy.log_prob_grads(obs, acts)
        np.testing.assert_allclose(np.exp(logp - old), 1.0, atol=1e-12)


# the message of the check each kind's update runs first
LOSS_CHECKS = {"PPO": "non-finite surrogate", "A2C": "non-finite loss",
               "DDPG": "non-finite critic loss"}


class TestLossChecks:
    """One update over a batch with a NaN reward, `next_obs` or `obs` row
    raises `FloatingPointError`, and no parameter moves.

    PPO's surrogate check cannot be left to `Adam.step`'s gradient check:
    advantage normalization spreads one NaN to every sample's advantage,
    a NaN advantage zeroes the sample's clipped-gradient coefficient
    (NaN == NaN is false), so the actor gradient stays finite and a
    minibatch without the bad row would step the critic."""

    @pytest.mark.parametrize("column", [2, 3, 0],
                             ids=["reward", "next_obs", "obs"])
    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_nan_in_batch_raises_before_any_step(self, kind, column):
        cfg = AgentConfig(hidden=(4,), minibatch=4)
        agent = CLASSES[kind](3, 2, cfg, seed=0)
        batch = make_batch(np.random.default_rng(0), 3, 2, 16)
        batch[column][5] = np.nan
        before = [p.tobytes() for p in agent.parameters()]
        with pytest.raises(FloatingPointError, match=LOSS_CHECKS[kind]):
            agent.update(batch, *agent.optimizers())
        assert [p.tobytes() for p in agent.parameters()] == before


class TestDeterminism:
    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_same_seed_same_params(self, kind):
        cfg = AgentConfig(hidden=(8,), rollout=32, warmup_steps=16,
                          batch_size=8, total_steps=64)
        runs = []
        for _ in range(2):
            env = TwoArmedBandit()
            agent = train_agent(kind, env, cfg, seed=11)
            runs.append(flat(agent))
        np.testing.assert_array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_different_seed_diverges(self, kind):
        cfg = AgentConfig(hidden=(8,), rollout=32, warmup_steps=16,
                          batch_size=8, total_steps=64)
        outs = []
        for seed in (1, 2):
            env = TwoArmedBandit()
            agent = train_agent(kind, env, cfg, seed=seed)
            outs.append(flat(agent))
        assert not np.array_equal(outs[0], outs[1])


class TestTrainAgent:
    CFG = AgentConfig(hidden=(8,), total_steps=64, rollout=32,
                      warmup_steps=16, batch_size=8)

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_warm_start_copies_donor(self, kind):
        env = TwoArmedBandit()
        donor = train_agent(kind, env, self.CFG, seed=1)
        untrained = replace(self.CFG, total_steps=0)
        cold = train_agent(kind, env, untrained, seed=2)
        warm = train_agent(kind, env, untrained, seed=2, warm_start=donor)
        expected = flat(donor)
        assert not np.array_equal(flat(cold), expected)
        np.testing.assert_array_equal(flat(warm), expected)
        if kind == "DDPG":
            for net in ("target_actor", "target_critic"):
                np.testing.assert_array_equal(getattr(warm, net).flat,
                                              getattr(donor, net).flat)

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_warm_start_from_other_kind_rejected(self, kind):
        env = TwoArmedBandit()
        other = AGENT_KINDS[(AGENT_KINDS.index(kind) + 1) % len(AGENT_KINDS)]
        untrained = replace(self.CFG, total_steps=0)
        donor = train_agent(other, env, untrained, seed=0)
        with pytest.raises(ValueError):
            train_agent(kind, env, untrained, seed=0, warm_start=donor)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            train_agent("XYZ", TwoArmedBandit(), self.CFG, seed=0)


class TestFloat32:
    """Agents train float32 networks; float64 stays outside them."""

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_warm_started_training_keeps_float32(self, kind):
        # covers Adam's moments, the soft target update, the warm-start
        # copy and the policy's log-std block
        env = TwoArmedBandit()
        donor = train_agent(kind, env, TestTrainAgent.CFG, seed=1)
        agent = train_agent(kind, env, TestTrainAgent.CFG, seed=2,
                            warm_start=donor)
        assert [p.dtype for p in agent.parameters()] == \
            [np.float32] * len(agent.parameters())

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_update_tracks_float64_twin(self, kind):
        # one update from the same batch and RNG state moves the float32
        # parameters by the float64 twin's move, up to a relative gap.
        # Measured over seeds 0-199 (median / max): PPO 5.3e-6 / 8.9e-6,
        # A2C 1.0e-5 / 1.1e-5, DDPG 1.6e-5 / 2.3e-4; DDPG's tail is Adam's
        # first step, lr * sign(g), flipping on a near-zero gradient entry.
        cfg = AgentConfig(hidden=(16, 16), epochs=2, minibatch=16)
        for seed in range(5):
            agent = CLASSES[kind](10, 3, cfg, seed=seed)
            twin = float64_twin(agent)
            start = flat(twin)
            batch = make_batch(np.random.default_rng(100 + seed), 10, 3, 64)
            agent.update(batch, *agent.optimizers())
            twin.update(batch, *twin.optimizers())
            move32 = flat(agent).astype(np.float64) - start
            move64 = flat(twin) - start
            gap = np.linalg.norm(move32 - move64) / np.linalg.norm(move64)
            assert gap < 1e-3, (seed, gap)


class TestBoundedMemory:
    """A trained agent holds its networks only, so what it keeps does not
    grow with the training budget."""

    CFG = AgentConfig(hidden=(8,), rollout=32, warmup_steps=16, batch_size=8)

    def held_after_training(self, kind, steps, hidden=(8,)):
        """The trained agent and the bytes it keeps alive."""
        config = replace(self.CFG, total_steps=steps, hidden=hidden)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            agent = train_agent(kind, TwoArmedBandit(), config, seed=0)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert agent.kind == kind
        return agent, held

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_held_memory_independent_of_steps(self, kind):
        self.held_after_training(kind, 50)  # warm numpy's allocation caches
        _, short = self.held_after_training(kind, 200)
        _, long = self.held_after_training(kind, 2000)
        assert abs(long - short) < 4096, (short, long)

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_trained_agent_keeps_only_its_parameters(self, kind):
        self.held_after_training(kind, 64, (64, 64))  # warm the caches
        agent, held = self.held_after_training(kind, 64, (64, 64))
        assert not any(isinstance(value, Adam) for value in vars(agent).values())
        params = sum(p.nbytes for p in agent.parameters())
        assert held < 1.25 * params, held / params


class TestBanditLearning:
    """Each learner should discover the positive arm of a trivial bandit.

    The bandit's observation is constant and the deterministic `act`
    answers it the same way every time, so a ">= 95% of 200 queries pick
    the positive arm" accuracy check is one sign test of one answer. The
    training budgets, seeds and configs are those that check ran with."""

    def picks_positive_arm(self, agent, env) -> bool:
        return agent.act(env.reset())[0] > 0

    def test_a2c(self):
        env = TwoArmedBandit()
        cfg = AgentConfig(hidden=(16,), actor_lr=3e-3, critic_lr=3e-3,
                          rollout=64, total_steps=4000)
        agent = A2CAgent(env.obs_dim, env.action_dim, cfg, seed=0)
        agent.train(env)
        assert self.picks_positive_arm(agent, env)

    def test_ppo(self):
        env = TwoArmedBandit()
        cfg = AgentConfig(hidden=(16,), actor_lr=3e-3, critic_lr=3e-3,
                          rollout=64, epochs=4, minibatch=32,
                          total_steps=2000)
        agent = PPOAgent(env.obs_dim, env.action_dim, cfg, seed=0)
        agent.train(env)
        assert self.picks_positive_arm(agent, env)

    def test_ddpg(self):
        env = TwoArmedBandit()
        cfg = AgentConfig(hidden=(16,), actor_lr=3e-3, critic_lr=3e-3,
                          warmup_steps=64, batch_size=32, noise_scale=0.3,
                          total_steps=1500)
        agent = DDPGAgent(env.obs_dim, env.action_dim, cfg, seed=0)
        agent.train(env)
        assert self.picks_positive_arm(agent, env)
