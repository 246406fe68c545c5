import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlmimic import stl
from stlmimic.envs import (
    DrivingEnv,
    ExpertFailure,
    Region,
    UnicycleEnv,
    _wrap_angle,
    ego_step,
    make_env,
    preprocess_distances,
    to_dataset,
    unicycle_step,
)
from stlmimic.inference import exact_satisfaction
from stlmimic.params import ParamVector
from stlmimic.policy import NonFiniteState, PolicyParams, PolicyShape, init_policy, rollout

import helpers
from helpers import finite_diff_check


class TestDynamics:
    def test_unicycle_examples(self):
        assert np.allclose(unicycle_step([0, 0, 0], [1, math.pi / 2]), [1, 0, math.pi / 2])
        assert np.allclose(unicycle_step([1, 1, math.pi / 2], [2, 0]), [1, 3, math.pi / 2])
        out = unicycle_step([0, 0, math.pi], [1, -math.pi / 2])
        assert np.allclose(out, [-1, 0, math.pi / 2], atol=1e-12)

    def test_ego_examples(self):
        assert np.allclose(ego_step([0, 2], 1), [2, 3])
        assert np.allclose(ego_step([5, 0], 0), [5, 0])
        assert np.allclose(ego_step([1, 1], -1), [2, 0])

    def test_determinism_bit_exact(self):
        x = np.array([0.123456789, -3.2, 0.77])
        u = np.array([0.9, -0.3])
        a = unicycle_step(x, u)
        b = unicycle_step(x, u)
        assert np.array_equal(a, b)

    def test_batch_rows_match_single_states(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-2, 2, size=(5, 3))
        us = rng.uniform(-1, 1, size=(5, 2))
        batch = unicycle_step(xs, us)
        for i in range(5):
            assert np.allclose(batch[i], unicycle_step(xs[i], us[i]), rtol=0, atol=1e-15)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(env_name=st.sampled_from(["unicycle", "driving"]), batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_step_vjp_matches_central_differences(self, env_name, batch, seed):
        env = make_env(env_name)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-10.0, 10.0, size=(batch, env.n_agent))
        u = rng.uniform(env.control_box.lo, env.control_box.hi, size=(batch, env.control_box.dim))
        g = rng.normal(size=(batch, env.n_agent))

        def grad(p):
            gx, gu = env.step(p.x, p.u, vjp=True)[1](g)
            assert gx.shape == x.shape and gu.shape == u.shape
            return ParamVector(x=gx, u=gu)

        assert finite_diff_check(lambda p: np.sum(env.step(p.x, p.u) * g), grad, ParamVector(x=x, u=u)) < 1e-7


class TestPreprocess:
    def test_distance_examples(self):
        regions = (Region("RegA", 2.0, 1.0, 1.0),)
        out = preprocess_distances(np.array([[1.0, 1.0, 0.0]]), regions)
        assert out[0, 0] == 1.0
        out = preprocess_distances(np.array([[2.0, 1.0, 0.5]]), regions)
        assert out[0, 0] == 0.0

    def test_output_shape(self):
        env = UnicycleEnv()
        raw = np.zeros((21, 3))
        d = env.inference_map(raw)
        assert d.shape == (21, 4)

    def test_distance_map_gradient_matches_fd(self):
        # batches of unicycle states, one of them on region A's center,
        # where the subgradient of its distance is 0
        env = UnicycleEnv()
        rng = np.random.default_rng(12)
        raw = rng.uniform(0.0, 10.0, size=(2, 5, 3))
        raw[1, 2, :2] = env.region_a.cx, env.region_a.cy
        weights = rng.normal(size=(2, 5, 4))

        def grad(p):
            dists, vjp = env.inference_map(p.raw, vjp=True)
            assert np.array_equal(dists, env.inference_map(p.raw))
            return ParamVector(raw=vjp(weights))

        g = grad(ParamVector(raw=raw)).raw
        assert np.all(g[..., 2] == 0.0)  # the heading reaches no distance
        pos = raw[1, 2, :2]
        others = [(r, w) for r, w in zip(env.regions, weights[1, 2]) if r is not env.region_a]
        want = sum(w * (pos - (r.cx, r.cy)) / r.distance(*pos) for r, w in others)
        assert np.allclose(g[1, 2, :2], want, rtol=1e-12, atol=0.0)
        assert finite_diff_check(lambda p: np.sum(env.inference_map(p.raw) * weights), grad, ParamVector(raw=raw)) < 1e-6


class TestSampling:
    def test_unicycle_in_box(self):
        env = UnicycleEnv()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = env.sample_initial(rng)
            assert np.all(x >= env.init_lo) and np.all(x <= env.init_hi)

    def test_driving_zero_velocity(self):
        env = DrivingEnv()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = env.sample_initial(rng)
            assert x[1] == 0.0 and 0.0 <= x[0] <= 5.0

    @pytest.mark.parametrize("env", [UnicycleEnv(), DrivingEnv()], ids=["unicycle", "driving"])
    def test_m_states_equal_m_single_draws(self, env):
        for m, seed in ((1, 0), (2, 1), (33, 2)):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            states = env.sample_initial(rng_a, m)
            assert states.shape == (m, env.n_agent)
            assert np.array_equal(states, np.stack([env.sample_initial(rng_b) for _ in range(m)]))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_seed_reproducible(self):
        env = UnicycleEnv()
        a = env.sample_initial(np.random.default_rng(9))
        b = env.sample_initial(np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestRollout:
    def test_zero_policy_keeps_ego_still(self):
        env = DrivingEnv()
        params = PolicyParams(
            w_in=np.zeros((4, 4)),
            w_rec=np.zeros((4, 4)),
            b_h=np.zeros(4),
            w_out=np.zeros((1, 4)),
            b_out=np.zeros(1),
        )
        env_trajs = np.zeros((1, env.T + 1, 2))
        raw = rollout(env, params, np.array([[0.0, 0.0]]), env_trajs)[0]
        assert np.allclose(raw[:, 0], 0.0) and np.allclose(raw[:, 1], 0.0)

    def test_shape(self):
        env = UnicycleEnv()
        params = init_policy(PolicyShape(3, 8, 2), seed=2)
        x0s = np.stack([env.sample_initial(np.random.default_rng(s)) for s in (1, 2)])
        raw = rollout(env, params, x0s, np.zeros((2, env.T + 1, 0)))
        assert raw.shape == (2, env.T + 1, 3)

    def test_terminal_state_gradient_matches_fd(self):
        env = DrivingEnv()
        params = init_policy(PolicyShape(4, 4, 1), seed=5)
        rng = np.random.default_rng(6)
        env_traj = helpers.lead_profiles(env, rng)[1]  # the lead keeps going
        x0 = np.array([2.0, 0.0])

        def f(p):
            raw = rollout(env, p, x0[None], env_traj[None])
            return raw[0, -1, 0]  # terminal ego position

        def grad(p):
            raw, vjp = rollout(env, p, x0[None], env_traj[None], vjp=True)
            g = np.zeros_like(raw)
            g[0, -1, 0] = 1.0
            return vjp(g)

        assert finite_diff_check(f, grad, params, h=1e-5) < 1e-3

    def test_nonfinite_state_raises(self):
        env = DrivingEnv()

        class Exploding(DrivingEnv):
            def step(self, x, u):
                return np.full(np.shape(x), math.inf)

        params = init_policy(PolicyShape(4, 4, 1), seed=0)
        with pytest.raises(NonFiniteState, match="step 1:"):
            rollout(Exploding(), params, np.array([[0.0, 0.0]]), np.zeros((1, 58, 2)))


class TestRolloutOp:
    """The rollout with its VJP runs the value path's forward, and its
    hand-written backward (BPTT) matches central differences."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        env_name=st.sampled_from(["unicycle", "driving"]),
        horizon=st.integers(2, 8),
        batch=st.integers(1, 4),
        hidden=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_equals_value_path_and_gradient_matches_fd(
        self, env_name, horizon, batch, hidden, seed
    ):
        env = _with(make_env(env_name), {"T": horizon})
        rng = np.random.default_rng(seed)
        params = init_policy(
            PolicyShape(env.n_agent + env.n_env, hidden, env.control_box.dim), rng
        )
        x0s = np.stack([env.sample_initial(rng) for _ in range(batch)])
        if env.n_env:
            env_trajs = helpers.lead_profiles(env, rng)[:batch]
        else:
            env_trajs = np.zeros((batch, horizon + 1, 0))
        weights = rng.normal(size=(batch, horizon + 1, env.n_agent + env.n_env))

        raw, vjp = rollout(env, params, x0s, env_trajs, vjp=True)
        assert np.array_equal(raw, rollout(env, params, x0s, env_trajs))
        assert type(vjp(weights)) is PolicyParams

        def f(p):
            return np.sum(rollout(env, p, x0s, env_trajs) * weights)

        def grad(p):
            return rollout(env, p, x0s, env_trajs, vjp=True)[1](weights)

        assert finite_diff_check(f, grad, params, h=1e-5) < 1e-4


class TestUnicycleExpert:
    def test_dataset_counts_and_labels(self):
        env = UnicycleEnv()
        ds = env.gen_expert(30, np.random.default_rng(10))
        assert len(ds) == 30
        assert (ds.labels == 1).all()
        assert ds.dim_names == ("dA", "dB", "dC", "dO")
        assert ds.horizon == 20

    def test_every_trajectory_satisfies_task(self):
        env = UnicycleEnv()
        ds = env.gen_expert(30, np.random.default_rng(11))
        assert exact_satisfaction(env.task_formula(), ds.X, ds.dim_names).all()

    def test_reaches_c_and_avoids_obstacle(self):
        env = UnicycleEnv()
        ds = env.gen_expert(25, np.random.default_rng(12))
        assert (ds.X[:, :, 2].min(axis=1) <= env.region_c.radius).all()  # gets inside C
        assert (ds.X[:, :, 3].min(axis=1) >= env.obstacle.radius).all()  # clears the obstacle

    def test_deterministic(self):
        env = UnicycleEnv()
        a = env.gen_expert(5, np.random.default_rng(13))
        b = env.gen_expert(5, np.random.default_rng(13))
        assert np.array_equal(a.X, b.X)


class TestDrivingData:
    def test_counts_per_situation(self):
        env = DrivingEnv()
        ds = env.gen_dataset(5, np.random.default_rng(20))
        assert len(ds) == 20
        assert ds.count(1) == 10 and ds.count(-1) == 10
        assert ds.horizon == 57

    def test_positive_pedestrian_stops(self):
        env = DrivingEnv()
        ds = env.gen_dataset(10, np.random.default_rng(21))
        for x, meta in zip(ds.X, ds.metas):
            if meta["situation"] == "pos_ped":
                assert x[20:, 1].min() < 0.01  # veg

    def test_positive_clear_keeps_speed(self):
        env = DrivingEnv()
        ds = env.gen_dataset(10, np.random.default_rng(22))
        for x, meta in zip(ds.X, ds.metas):
            if meta["situation"] == "pos_clear":
                assert x[20:, 1].min() > 1.0  # veg

    def test_other_starts_ahead(self):
        env = DrivingEnv()
        ds = env.gen_dataset(10, np.random.default_rng(23))
        assert (ds.X[:, 0, 2] >= ds.X[:, 0, 0]).all()  # pot >= peg

    def test_lead_brakes_iff_pedestrian(self):
        env = DrivingEnv()
        ds = env.gen_dataset(10, np.random.default_rng(24))
        for x, meta in zip(ds.X, ds.metas):
            vot_late = x[50:, 3]
            if meta["pedestrian"]:
                assert vot_late.max() < 0.01
            else:
                assert vot_late.min() > 1.0

    def test_expert_respects_default_speed_rule(self):
        env = DrivingEnv()
        ds = env.gen_dataset(10, np.random.default_rng(25))
        rule = stl.parse("G[0,57]((veg <= 10) & (veg > -1))", ds.dim_names)
        positives = ds.X[ds.labels > 0]
        assert len(positives) == 20
        assert exact_satisfaction(rule, positives, ds.dim_names).all()

    def test_make_env(self):
        assert make_env("unicycle").name == "unicycle"
        assert make_env("driving").init_pos == (0.0, 5.0)
        with pytest.raises(ValueError, match="^unknown environment 'humanoid'"):
            make_env("humanoid")


# --- reference experts -----------------------------------------------------
# The scripted experts as they were written: one trajectory at a time, one
# scalar draw per noise value, one scalar step per time step. The experts
# now draw each trajectory's noise in one call and integrate a dataset's
# trajectories together; the data and the generator's state afterwards must
# be the same. Each reference carries its own loops and calls no generator
# code of the class it extends, so it cannot compare that code with itself.


class ScalarDrawDriving(DrivingEnv):
    def _profile(self, rng, cruise, p, brake_start, brake):
        p, v = float(p), 0.0
        rows = [[p, v]]
        for t in range(self.T):
            if brake_start is not None and t >= brake_start:
                a = -min(brake, v)
            elif v < cruise:
                a = min(self.accel + rng.uniform(-0.05, 0.05), cruise - v)
            else:
                a = rng.uniform(-0.05, 0.05)
            p += v
            v = max(v + a, 0.0)
            rows.append([p, v])
        return np.array(rows)

    def _lead_profile(self, rng, pedestrian, p0):
        cruise = self.cruise + rng.uniform(-0.25, 0.25)
        t_dec = self.decel_onset + int(rng.integers(-2, 3))
        return self._profile(rng, cruise, p0, t_dec if pedestrian else None, self.other_brake)

    def _situation(self, rng, kind):
        t_dec = self.decel_onset + int(rng.integers(-2, 3))
        if kind == "pos_ped":
            label, ped = 1, True
            brake = t_dec + self.react_delay + int(rng.integers(0, 3))
        elif kind == "pos_clear":
            label, ped, brake = 1, False, None
        elif kind == "neg_stop":
            label, ped = -1, False
            brake = self.wrong_stop_onset + int(rng.integers(0, 5))
        else:  # neg_go
            label, ped, brake = -1, True, None
        cruise = self.cruise + rng.uniform(-0.25, 0.25)
        ego = self._profile(rng, cruise, rng.uniform(*self.init_pos), brake, self.ego_brake)
        other = self._lead_profile(rng, ped, ego[0, 0] + rng.uniform(*self.gap))
        return np.concatenate([ego, other], axis=1), label, {"situation": kind, "pedestrian": ped}

    def gen_dataset(self, n_per_situation, rng):
        kinds = [(k, i) for k in ("pos_ped", "pos_clear", "neg_stop", "neg_go") for i in range(n_per_situation)]
        raws, labels, metas = zip(*(self._situation(rng, kind) for kind, _ in kinds))
        ids = [f"drv-{kind}-{i:05d}" for kind, i in kinds]
        return to_dataset(self, np.array(raws), labels, ids, metas)


class ScalarDrawUnicycle(UnicycleEnv):
    def __init__(self):
        self.attempts = 0

    def _scalar_steer(self, x, target, rng):
        px, py, th = x
        dx, dy = target[0] - px, target[1] - py
        d_obs = self.obstacle.distance(px, py)
        if d_obs < self.obstacle_margin:
            push = (self.obstacle_margin - d_obs) / self.obstacle_margin
            ox = (px - self.obstacle.cx) / max(d_obs, 1e-6)
            oy = (py - self.obstacle.cy) / max(d_obs, 1e-6)
            dx += 2.5 * push * ox
            dy += 2.5 * push * oy
        desired = math.atan2(dy, dx)
        err = _wrap_angle(desired - th)
        w_lo, w_hi = self.control_box.lo[1], self.control_box.hi[1]
        w = float(np.clip(err + rng.normal(0, 0.02), w_lo, w_hi))
        dist = math.hypot(target[0] - px, target[1] - py)
        v = min(dist, 1.0) * (0.25 + 0.75 * max(0.0, math.cos(err)))
        v = float(np.clip(v + rng.normal(0, 0.03), 0.0, 1.0))
        return np.array([v, w])

    def _scalar_rollout(self, rng):
        self.attempts += 1
        x = self.sample_initial(rng)
        first = (
            self.region_a
            if self.region_a.distance(x[0], x[1]) < self.region_b.distance(x[0], x[1])
            else self.region_b
        )
        ang = rng.uniform(0, 2 * math.pi)
        rad = rng.uniform(0, 0.3) * first.radius
        tgt1 = (first.cx + rad * math.cos(ang), first.cy + rad * math.sin(ang))
        tgt2 = (self.region_c.cx, self.region_c.cy)
        states = [x.copy()]
        reached_first = False
        for _ in range(self.T):
            if not reached_first and first.distance(x[0], x[1]) <= 0.7 * first.radius:
                reached_first = True
            u = self._scalar_steer(x, tgt2 if reached_first else tgt1, rng)
            x = unicycle_step(x, u)
            states.append(x.copy())
        return np.array(states)

    def gen_expert(self, n, rng):
        task = self.task_formula()
        out = []
        for i in range(n):
            for _ in range(10):
                raw = self._scalar_rollout(rng)
                if exact_satisfaction(task, self.inference_map(raw)[None], self.inference_names)[0]:
                    break
            else:
                raise ExpertFailure(f"unicycle expert failed 10 attempts at sample {i}")
            out.append(raw)
        ids = [f"uni-{i:05d}" for i in range(n)]
        return to_dataset(self, np.array(out), [1] * n, ids, [{"source": "expert"}] * n)


def _with(env, attrs):
    """`env` with each of `attrs` set on the instance."""
    for key, value in attrs.items():
        setattr(env, key, value)
    return env


def _same_data_and_generator_state(a, b, rng_a, rng_b):
    assert np.array_equal(a.X, b.X)
    assert (a.ids, a.metas) == (b.ids, b.metas)
    assert np.array_equal(a.labels, b.labels)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestExpertsMatchScalarDraws:
    @pytest.mark.parametrize(
        "attrs",
        [
            {},
            {"decel_onset": 57},  # the lead never brakes within the horizon
            {"decel_onset": 70},
            {"decel_onset": 0},  # braking from the first steps: few or no draws
            {"wrong_stop_onset": 0},
            {"T": 15},
            {"decel_onset": -5},  # braking before the first step: no draws at all
        ],
        ids=["defaults", "onset-at-T", "onset-past-T", "onset-0", "wrong-stop-0", "T15", "onset-before-0"],
    )
    def test_driving_situations(self, attrs):
        for seed in (0, 1):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            a = _with(DrivingEnv(), attrs).gen_dataset(6, rng_a)
            b = _with(ScalarDrawDriving(), attrs).gen_dataset(6, rng_b)
            assert {m["situation"] for m in a.metas} == set(DrivingEnv.SITUATIONS)
            _same_data_and_generator_state(a, b, rng_a, rng_b)

    def test_unicycle_expert_with_retries(self):
        # at T=16 and this seed, two demonstrations fail the vetting once
        for attrs, seed, n in (({}, 7, 30), ({"T": 16}, 16, 20)):
            ref = _with(ScalarDrawUnicycle(), attrs)
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            a = _with(UnicycleEnv(), attrs).gen_expert(n, rng_a)
            b = ref.gen_expert(n, rng_b)
            _same_data_and_generator_state(a, b, rng_a, rng_b)
        assert ref.attempts == n + 2

    def test_unicycle_expert_fails_after_ten_rejected_candidates(self):
        # region C out of reach: every candidate fails the vetting; 3 does
        # not divide 10, so a round of 3 candidates would draw past the 10th
        far_c = Region("RegC", 40.0, 40.0, 0.7)
        ref = _with(ScalarDrawUnicycle(), {"region_c": far_c})
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        for env, rng in ((_with(UnicycleEnv(), {"region_c": far_c}), rng_a), (ref, rng_b)):
            with pytest.raises(ExpertFailure, match="at sample 0$"):
                env.gen_expert(3, rng)
        assert ref.attempts == 10
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
