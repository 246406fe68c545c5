import math

import numpy as np
import pytest

from stlmimic.envs import UnicycleEnv
from stlmimic.policy import (
    ControlBox,
    PolicyParams,
    PolicyShape,
    init_policy,
    policy_step,
    rollout,
)

from helpers import finite_diff_check


def zero_params(n=3, h=4, m=2):
    return PolicyParams(
        w_in=np.zeros((h, n)),
        w_rec=np.zeros((h, h)),
        b_h=np.zeros(h),
        w_out=np.zeros((m, h)),
        b_out=np.zeros(m),
    )


BOX = ControlBox((-1.0, 0.0), (1.0, 2.0))


class TestStep:
    def test_zero_weights_give_box_midpoint(self):
        params = zero_params()
        u, h, _ = policy_step(params, np.zeros(3), np.zeros(params.hidden), BOX)
        assert np.allclose(u, [0.0, 1.0])

    def test_saturation_approaches_bounds(self):
        params = zero_params()
        params.b_out = np.array([50.0, -50.0])
        u, _, _ = policy_step(params, np.zeros(3), np.zeros(params.hidden), BOX)
        assert u[0] == pytest.approx(1.0, abs=1e-9)
        assert u[1] == pytest.approx(0.0, abs=1e-9)
        assert BOX.lo[0] < u[0] <= BOX.hi[0] and BOX.lo[1] <= u[1] < BOX.hi[1]

    def test_deterministic(self):
        params = init_policy(PolicyShape(3, 8, 2), seed=5)
        x = np.array([0.3, -0.2, 0.9])
        h = np.full(8, 0.1)
        u1, h1, _ = policy_step(params, x, h, BOX)
        u2, h2, _ = policy_step(params, x, h, BOX)
        assert np.array_equal(u1, u2) and np.array_equal(h1, h2)

    def test_control_always_interior(self):
        rng = np.random.default_rng(7)
        params = init_policy(PolicyShape(3, 8, 2), seed=1)
        h = np.zeros(params.hidden)
        for _ in range(200):
            u, h, _ = policy_step(params, rng.uniform(-5, 5, 3), h, BOX)
            assert np.all(u > BOX.lo) and np.all(u < BOX.hi)

    def test_history_dependence(self):
        # Integrator-style cell: hidden state accumulates past inputs, so
        # the same current input under different histories acts differently.
        params = zero_params(n=1, h=1, m=1)
        params.w_in = np.array([[1.0]])
        params.w_rec = np.array([[1.0]])
        params.w_out = np.array([[1.0]])
        box = ControlBox((-1.0,), (1.0,))
        h = np.zeros(1)
        for x in (0.9, 0.9):  # history A: large past inputs
            u_a, h, _ = policy_step(params, np.array([x]), h, box)
        h2 = np.zeros(1)
        for x in (-0.9, 0.9):  # history B: same final input
            u_b, h2, _ = policy_step(params, np.array([x]), h2, box)
        assert abs(u_a[0] - u_b[0]) > 1e-3

    def test_batch_rows_match_single_steps(self):
        params = init_policy(PolicyShape(3, 6, 2), seed=11)
        rng = np.random.default_rng(12)
        xs = rng.uniform(-1, 1, size=(4, 3))
        hs = rng.uniform(-0.5, 0.5, size=(4, 6))
        u_b, h_b, _ = policy_step(params, xs, hs, BOX)
        for i in range(4):
            u_i, h_i, _ = policy_step(params, xs[i], hs[i], BOX)
            assert np.allclose(u_b[i], u_i, atol=1e-12)
            assert np.allclose(h_b[i], h_i, atol=1e-12)


class TestInit:
    def test_same_seed_identical(self):
        a = init_policy(PolicyShape(3, 16, 2), seed=3)
        b = init_policy(PolicyShape(3, 16, 2), seed=3)
        assert np.array_equal(a.flatten(), b.flatten())

    def test_different_seeds_differ(self):
        a = init_policy(PolicyShape(3, 16, 2), seed=3)
        b = init_policy(PolicyShape(3, 16, 2), seed=4)
        assert not np.array_equal(a.flatten(), b.flatten())

    def test_weights_within_fan_in_bound(self):
        p = init_policy(PolicyShape(4, 9, 2), seed=0)
        assert np.max(np.abs(p.w_in)) <= 1 / math.sqrt(4)
        assert np.max(np.abs(p.w_rec)) <= 1 / math.sqrt(9)
        assert np.max(np.abs(p.w_out)) <= 1 / math.sqrt(9)
        assert np.all(p.b_h == 0) and np.all(p.b_out == 0)


class TestGradients:
    def test_fd_through_three_recurrent_steps(self):
        # the policy's gradient reaches it through a 3-step closed-loop
        # rollout, whose backward pass is hand-written BPTT
        env = UnicycleEnv()
        env.T = 3
        params = init_policy(PolicyShape(3, 4, 2), seed=13)
        x0s = np.array([[0.3, -0.1, 0.2], [0.0, 0.4, 1.1]])
        weights = np.random.default_rng(14).normal(size=(2, 4, 3))

        def f(p):
            return np.sum(rollout(env, p, x0s, np.zeros((2, 4, 0))) * weights)

        def grad(p):
            return rollout(env, p, x0s, np.zeros((2, 4, 0)), vjp=True)[1](weights)

        assert finite_diff_check(f, grad, params, h=1e-5) < 1e-4

    def test_roundtrip_pv(self):
        p = init_policy(PolicyShape(3, 5, 2), seed=1)
        q = p.with_flat(p.flatten())
        assert type(q) is PolicyParams
        assert np.array_equal(q.w_rec, p.w_rec)
        assert np.array_equal(q.b_out, p.b_out)
