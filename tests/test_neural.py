import math

import numpy as np
import pytest

from rlfolio.neural import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam,
                            GaussianPolicy, Mlp)

import oracles
from helpers import float64_twin


class TestMlpForward:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_matrix_oracle(self, seed):
        """Bit for bit, float32 and float64, on a batch and on each of its
        rows alone, for a small net and the nets of the workloads at D=8
        and D=30."""
        rng = np.random.default_rng(seed)
        for sizes in ([4, 8, 8, 3], [49, 64, 64, 8], [181, 64, 64, 30]):
            float32_net = Mlp(sizes, rng)
            x = rng.normal(size=(7, sizes[0]))
            for net in (float32_net, float64_twin(float32_net)):
                cast = x.astype(net.flat.dtype)
                expected = oracles.mlp_forward_oracle(net.params, cast,
                                                      net.n_layers)
                np.testing.assert_array_equal(net.forward(x), expected)
                for i in range(len(x)):
                    expected = oracles.mlp_forward_oracle(
                        net.params, cast[i:i + 1], net.n_layers)[0]
                    np.testing.assert_array_equal(net.forward(x[i]), expected)

    def test_hand_example_linear(self):
        net = Mlp([2, 1], np.random.default_rng(0))
        net.params[0][:] = [[2.0], [3.0]]
        net.params[1][:] = [0.5]
        assert net.forward([1.0, -1.0]) == pytest.approx([-0.5])

    def test_hand_example_tanh_hidden(self):
        net = Mlp([1, 1, 1], np.random.default_rng(0))
        net.params[0][:] = [[1.0]]
        net.params[1][:] = [0.0]
        net.params[2][:] = [[2.0]]
        net.params[3][:] = [1.0]
        assert net.forward([0.5]) == pytest.approx([2 * math.tanh(0.5) + 1])

    def test_single_and_batch_agree(self):
        net = Mlp([3, 5, 2], np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(4, 3))
        batch = net.forward(x)
        for i in range(4):
            np.testing.assert_allclose(net.forward(x[i]), batch[i])

    def test_clone_independent(self):
        net = Mlp([2, 3, 1], np.random.default_rng(3))
        other = net.clone()
        other.params[0][:] = 0.0
        assert np.any(net.params[0] != 0.0)


class TestMlpBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_param_grads_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        net = float64_twin(Mlp([3, 6, 2], rng))
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(5, 2))

        def loss(vec):
            probe = net.clone()
            probe.flat[:] = vec
            return float((probe.forward(x) * w).sum())

        _, cache = net.forward_cache(x)
        grad, _ = net.backward(cache, w)
        fd = oracles.finite_difference(loss, net.flat.copy())
        np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_input_grad_finite_difference(self):
        rng = np.random.default_rng(11)
        net = float64_twin(Mlp([3, 4, 2], rng))
        x0 = rng.normal(size=3)
        w = rng.normal(size=2)

        def loss(xflat):
            return float((net.forward(xflat) * w).sum())

        # `backward` takes a batch: here one row
        _, cache = net.forward_cache(x0[None])
        _, in_grad = net.backward(cache, w[None])
        fd = oracles.finite_difference(loss, x0.copy())
        np.testing.assert_allclose(in_grad[0], fd, atol=1e-6)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # bias correction makes the first update exactly lr * sign(g)
        p = np.array([1.0, -2.0])
        Adam(p, lr=0.01).step(np.array([0.3, -0.7]))
        np.testing.assert_allclose(p, [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)

    def test_two_steps_hand_computed(self):
        # the textbook update, in the step's own operation order
        lr, g1, g2 = 0.1, 2.0, 1.0
        p = np.array([0.0])
        opt = Adam(p, lr)
        opt.step(np.array([g1]))
        m = (1 - ADAM_BETA1) * g1
        v = (1 - ADAM_BETA2) * g1 * g1
        expect = 0.0 - lr * (m / (1 - ADAM_BETA1 ** 1)) / (
            math.sqrt(v / (1 - ADAM_BETA2 ** 1)) + ADAM_EPS)
        assert p[0] == expect
        opt.step(np.array([g2]))
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g2
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g2 * g2
        expect -= lr * (m / (1 - ADAM_BETA1 ** 2)) / (
            math.sqrt(v / (1 - ADAM_BETA2 ** 2)) + ADAM_EPS)
        assert p[0] == expect

    def test_converges_on_quadratic(self):
        p = np.array([5.0])
        opt = Adam(p, lr=0.1)
        for _ in range(500):
            opt.step(2.0 * p)
        assert abs(p[0]) < 1e-2

    def test_nonfinite_grad_rejected_and_param_untouched(self):
        p = np.array([1.0])
        opt = Adam(p, lr=0.1)
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            opt.step(np.array([np.nan]))
        assert p[0] == 1.0
        assert opt.t == 0


class TestGaussianPolicy:
    def test_sample_statistics(self):
        pol = GaussianPolicy(2, 3, hidden=(8,), rng=np.random.default_rng(0))
        obs = np.array([0.3, -0.2])
        mean = pol.mean_net.forward(obs)
        rng = np.random.default_rng(42)
        draws = np.array([pol.sample(obs, rng)[0] for _ in range(4000)])
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.05)
        np.testing.assert_allclose(draws.std(axis=0), 0.5, atol=0.05)

    def test_log_prob_standard_normal(self):
        pol = GaussianPolicy(1, 1, hidden=(4,), rng=np.random.default_rng(1))
        pol.log_std[:] = 0.0  # std = 1
        obs = np.zeros((1, 1))
        mean = float(pol.mean_net.forward(obs)[0, 0])
        lp, _ = pol.log_prob_grads(obs, np.array([[mean]]))
        assert lp == pytest.approx(-0.5 * math.log(2 * math.pi))
        lp1, _ = pol.log_prob_grads(obs, np.array([[mean + 1.0]]))
        assert lp1 == pytest.approx(-0.5 - 0.5 * math.log(2 * math.pi))

    def test_sample_logprob_consistent(self):
        pol = GaussianPolicy(2, 2, hidden=(6,), rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        obs = np.array([0.1, 0.9])
        action, lp = pol.sample(obs, rng)
        # `sample` and `log_prob_grads` compute the log-prob separately;
        # the latter takes the rows a `TransitionStore` holds, float64 2-D
        logp, _ = pol.log_prob_grads(obs[None], action[None].astype(float))
        assert lp == pytest.approx(logp[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_log_prob_grads_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        pol = float64_twin(GaussianPolicy(3, 2, hidden=(5,), rng=rng))
        obs = rng.normal(size=(6, 3))
        actions = rng.normal(size=(6, 2))
        coeff = rng.normal(size=6)

        def loss(vec):
            probe = GaussianPolicy(3, 2, (5,), flat=vec)
            logp, _ = probe.log_prob_grads(obs, actions)
            return float((logp * coeff).sum())

        _, backward = pol.log_prob_grads(obs, actions)
        fd = oracles.finite_difference(loss, pol.flat.copy())
        np.testing.assert_allclose(backward(coeff), fd, atol=1e-6)

    def test_std_clamped(self):
        pol = GaussianPolicy(1, 1, hidden=(4,), rng=np.random.default_rng(0))
        pol.log_std[:] = 100.0
        assert pol.std()[0] == pytest.approx(10.0)
        pol.log_std[:] = -100.0
        assert pol.std()[0] == pytest.approx(1e-3)

    def test_clamped_log_std_gradient_zero(self):
        pol = GaussianPolicy(1, 1, hidden=(4,), rng=np.random.default_rng(0))
        pol.log_std[:] = -100.0
        _, backward = pol.log_prob_grads(np.zeros((2, 1)), np.zeros((2, 1)))
        grad = backward(np.ones(2))
        assert grad[-1] == 0.0


class TestDtype:
    def test_new_nets_compute_in_float32(self):
        rng = np.random.default_rng(4)
        net = Mlp([3, 5, 2], rng)
        pol = GaussianPolicy(3, 2, hidden=(5,), rng=rng)
        assert net.flat.dtype == pol.flat.dtype == np.float32
        x = rng.normal(size=(4, 3))   # float64 in, float32 out
        y, cache = net.forward_cache(x)
        grad, in_grad = net.backward(cache, np.ones((4, 2)))
        assert y.dtype == grad.dtype == in_grad.dtype == np.float32
        _, backward = pol.log_prob_grads(x, rng.normal(size=(4, 2)))
        assert backward(np.ones(4)).dtype == np.float32

    def test_wrapped_vector_keeps_its_dtype(self):
        net = Mlp([3, 2], flat=np.zeros(8))
        assert net.clone().flat.dtype == np.float64
        y, cache = net.forward_cache(np.ones((1, 3), dtype=np.float32))
        grad, _ = net.backward(cache, np.ones((1, 2), dtype=np.float32))
        assert y.dtype == grad.dtype == np.float64


class TestMlpLayout:
    def test_flatten_roundtrip(self):
        net = Mlp([3, 5, 2], np.random.default_rng(8))
        # layer by layer, weight then bias, row-major
        np.testing.assert_array_equal(
            net.flat, np.concatenate([p.ravel() for p in net.params]))
        other = net.clone()
        other.flat[:] = 0.0
        assert not any(p.any() for p in other.params)
        assert net.flat.any()
        other.flat[:] = net.flat
        for a, b in zip(net.params, other.params):
            np.testing.assert_array_equal(a, b)
