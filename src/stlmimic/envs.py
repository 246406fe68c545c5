"""Case-study environments: known agent dynamics, initial-state sampling,
scripted behaviors standing in for the unknown environment distribution,
and expert dataset generation.

Every setting of an environment, its horizon `T` included, is a class
attribute; instances are stateless, and stepping and sampling are pure
given their inputs. The dynamics run on plain arrays over batches. Asked
for a vector-Jacobian product (VJP), each environment's `step` and its
inference map (unicycle distances, the driving identity) also return a
map from an adjoint of their output to adjoints of their inputs;
`policy.rollout` runs the closed loop and backpropagates through it.

The scripted experts draw their random values one trajectory at a time, in
a fixed order, and then advance all of a batch's trajectories together: the
driving speed profiles through one array integrator, the unicycle candidates
through one `step` per time step, each candidate's controls still steered by
scalar code. A dataset and the generator state after it are what drawing and
integrating one trajectory at a time gives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import stl
from .dataio import Dataset
from .inference import SignalNorm, exact_satisfaction
from .policy import ControlBox


class ExpertFailure(RuntimeError):
    """A scripted expert kept violating its own task; inputs are off."""


@dataclass(frozen=True)
class Region:
    name: str
    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"region {self.name}: radius must be positive")

    def distance(self, x: float, y: float) -> float:
        return math.hypot(x - self.cx, y - self.cy)


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def unicycle_step(x, u, vjp: bool = False):
    """(px, py, heading) advanced by controls (speed, turn rate); x is
    (..., 3) and u is (..., 2). With vjp, (next, grad), where grad maps an
    adjoint g of the next state to the adjoints (g_x, g_u) of x and u; it
    reads the cosine and sine of the heading that this forward took."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    v, c, s = u[..., 0], np.cos(x[..., 2]), np.sin(x[..., 2])
    out = np.empty(x.shape)
    np.multiply(v, c, out=out[..., 0])
    np.multiply(v, s, out=out[..., 1])
    out[..., 2] = u[..., 1]
    out += x
    if not vjp:
        return out

    def grad(g):
        g_x = g.copy()
        g_x[..., 2] += g[..., 0] * (-v * s) + g[..., 1] * (v * c)
        g_u = np.empty_like(u)
        g_u[..., 0] = g[..., 0] * c + g[..., 1] * s
        g_u[..., 1] = g[..., 2]
        return g_x, g_u

    return out, grad


def ego_step(x, a):
    """Double integrator: position += velocity; velocity += acceleration.
    x is (..., 2) and a broadcasts against x[..., 0]."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 0] += x[..., 1]
    out[..., 1] += a
    return out


def to_dataset(env, raw, labels, ids, metas) -> Dataset:
    """Raw trajectories (N, T+1, n_a + n_e) of `env` as a Dataset over its
    inference signals, mapped as one batch. The environment's own n_e
    columns stay last, as the dataset's environment columns; each row's
    meta gains the environment's name."""
    names = env.inference_names
    split = len(names) - env.n_env
    return Dataset(
        np.asarray(env.inference_map(raw)), labels, list(ids), [{"env": env.name, **m} for m in metas],
        names[:split], names[split:],
    )


def preprocess_distances(raw, regions, vjp: bool = False):
    """Euclidean distances from the (px, py) columns of raw (..., >=2) to
    each region center; returns (..., len(regions)). With vjp, also the map
    from an adjoint of the distances to one of raw."""
    raw = np.asarray(raw, dtype=float)
    diffs = raw[..., None, :2] - np.array([[r.cx, r.cy] for r in regions])  # (..., R, 2)
    dists = np.sqrt(np.sum(diffs * diffs, axis=-1))
    if not vjp:
        return dists

    def grad(g):
        # At a center the slope is taken as 0, a subgradient of the norm.
        slope = g * np.divide(1.0, dists, out=np.zeros_like(dists), where=dists > 0.0)
        g_raw = np.zeros(raw.shape)
        g_raw[..., :2] = (slope[..., None] * diffs).sum(axis=-2)
        return g_raw

    return dists, grad


class UnicycleEnv:
    """Reach region A or B, then region C, avoiding a round obstacle.

    The dataset view of a trajectory is the distance signal
    (dA, dB, dC, dO); the environment itself is static.
    """

    name = "unicycle"
    T = 20  # the horizon: a trajectory has T + 1 states
    # the corners of the box that initial states (px, py, theta) are drawn from
    init_lo = (0.5, 0.5, 0.0)
    init_hi = (2.0, 2.0, math.pi / 2)
    region_a = Region("RegA", 1.0, 9.0, 1.0)
    region_b = Region("RegB", 7.0, 2.0, 0.86)
    region_c = Region("RegC", 9.0, 9.0, 0.7)
    obstacle = Region("Obs", 5.0, 8.0, 1.0)
    control_box = ControlBox((0.0, -math.pi / 4), (1.0, math.pi / 4))
    obstacle_margin = 1.5  # the expert's repulsion kicks in inside this range
    n_agent = 3
    n_env = 0
    agent_names = ("px", "py", "theta")
    env_names = ()
    inference_names = ("dA", "dB", "dC", "dO")
    # fixed bounds for the policy's input normalization
    state_norm = SignalNorm(mid=(5.0, 5.0, 0.0), halfrange=(5.0, 5.0, 2.0 * math.pi))

    @property
    def regions(self):
        return (self.region_a, self.region_b, self.region_c, self.obstacle)

    def step(self, x, u, vjp: bool = False):
        return unicycle_step(x, u, vjp)

    def sample_initial(self, rng: np.random.Generator, m: int | None = None) -> np.ndarray:
        """One initial state (3,), or m of them (m, 3) from one draw: the
        same values, and the same generator state, as m single draws."""
        return rng.uniform(self.init_lo, self.init_hi, None if m is None else (m, 3))

    def inference_map(self, raw, vjp: bool = False):
        return preprocess_distances(raw, self.regions, vjp)

    def task_formula(self) -> stl.Formula:
        """Lenient exact-semantics description of the scripted task; used
        to vet generated expert data."""
        ra, rb = self.region_a.radius, self.region_b.radius
        rc, ro = self.region_c.radius, self.obstacle.radius
        text = (
            f"(F[0,16](dA <= {ra}) | F[0,16](dB <= {rb}))"
            f" & F[8,{self.T}](dC <= {rc})"
            f" & G[0,{self.T}](dO >= {ro})"
        )
        return stl.parse(text, self.inference_names)

    # -- scripted expert ------------------------------------------------

    def _steer(self, x, target, noise):
        """Controls toward target; noise is this step's (turn, speed) draw."""
        px, py, th = x
        dx, dy = target[0] - px, target[1] - py
        # repulsive component near the obstacle
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
        w = min(w_hi, max(w_lo, err + noise[0]))
        dist = math.hypot(target[0] - px, target[1] - py)
        v = min(dist, 1.0) * (0.25 + 0.75 * max(0.0, math.cos(err)))
        v = min(1.0, max(0.0, v + noise[1]))
        return np.array([v, w])

    def _expert_rollouts(self, k: int, rng) -> np.ndarray:
        """k scripted candidates (k, T+1, 3). Each draws, one after the
        other, its initial state, its target jitter and its noise; then one
        step per time step advances all k."""
        xs = np.empty((k, self.T + 1, 3))
        plans = []
        for j in range(k):
            xs[j, 0] = x = self.sample_initial(rng)
            first = (
                self.region_a
                if self.region_a.distance(x[0], x[1]) < self.region_b.distance(x[0], x[1])
                else self.region_b
            )
            # aim slightly inside the region, jittered per trajectory
            ang = rng.uniform(0, 2 * math.pi)
            rad = rng.uniform(0, 0.3) * first.radius
            tgt1 = (first.cx + rad * math.cos(ang), first.cy + rad * math.sin(ang))
            # one (turn, speed) noise row per step, drawn in one call
            noise = rng.normal(0.0, (0.02, 0.03), size=(self.T, 2)).tolist()
            plans.append((first, tgt1, noise))
        tgt2 = (self.region_c.cx, self.region_c.cy)
        reached = [False] * k
        us = np.empty((k, 2))
        for t in range(self.T):
            for j, (x, (first, tgt1, noise)) in enumerate(zip(xs[:, t].tolist(), plans)):
                reached[j] = reached[j] or first.distance(x[0], x[1]) <= 0.7 * first.radius
                # scalar steering: np.arctan2 and np.hypot differ from the
                # math versions in the last bit, which would change the data
                us[j] = self._steer(x, tgt2 if reached[j] else tgt1, noise[t])
            xs[:, t + 1] = self.step(xs[:, t], us)
        return xs

    def gen_expert(self, n: int, rng: np.random.Generator) -> Dataset:
        """Positive demonstrations, each vetted against task_formula under
        exact semantics; a sample whose 10 candidates all fail raises
        ExpertFailure. Candidates come in rounds that stop at the n-th
        demonstration and at a sample's 10th failure, so the generator
        draws exactly the candidates that trying one at a time would."""
        task = self.task_formula()
        out, failures = [], 0
        while len(out) < n:
            raws = self._expert_rollouts(min(n - len(out), 10 - failures), rng)
            for raw, ok in zip(raws, exact_satisfaction(task, self.inference_map(raws), self.inference_names)):
                if ok:
                    out.append(raw)
                    failures = 0
                    continue
                failures += 1
                if failures == 10:
                    raise ExpertFailure(f"unicycle expert failed 10 attempts at sample {len(out)}")
        ids = [f"uni-{i:05d}" for i in range(n)]
        return to_dataset(self, np.array(out), [1] * n, ids, [{"source": "expert"}] * n)


class DrivingEnv:
    """Ego follows a lead vehicle toward an unmarked crosswalk; the lead
    brakes iff a (hidden) pedestrian crosses. Ego must infer the situation
    from the lead's motion: stop when it stops, keep moving otherwise."""

    name = "driving"
    T = 57  # the horizon: a trajectory has T + 1 states
    init_pos = (0.0, 5.0)  # the range that ego's initial position is drawn from
    cruise = 5.0  # nominal cruise speed; deliberately above the
    # retrofit speed limit of 4 used in the unseen-scenario study
    accel = 0.5
    other_brake = 1.25
    ego_brake = 1.0
    decel_onset = 35  # lead starts braking here when a pedestrian crosses
    react_delay = 2
    wrong_stop_onset = 28
    gap = (6.0, 10.0)
    control_box = ControlBox((-3.0,), (3.0,))
    n_agent = 2
    n_env = 2
    agent_names = ("peg", "veg")
    env_names = ("pot", "vot")
    inference_names = agent_names + env_names
    state_norm = SignalNorm(mid=(150.0, 5.5, 150.0, 5.5), halfrange=(150.0, 6.5, 150.0, 6.5))

    def step(self, x, u, vjp: bool = False):
        """The ego vehicle advanced by accelerations u (..., 1); with vjp,
        (next, grad) as for the unicycle's step."""
        out = ego_step(x, u[..., 0])
        if not vjp:
            return out

        def grad(g):
            g_x = g.copy()
            g_x[..., 1] += g[..., 0]
            return g_x, g[..., 1:]

        return out, grad

    def sample_initial(self, rng: np.random.Generator, m: int | None = None) -> np.ndarray:
        """One initial state (2,) at rest, or m of them (m, 2) from one
        draw: the same values, and the same generator state, as m single
        draws."""
        pos = rng.uniform(*self.init_pos, size=m)
        return np.stack([pos, np.zeros_like(pos)], axis=-1)

    def inference_map(self, raw, vjp: bool = False):
        """The identity on raw states, and with vjp its VJP."""
        raw = np.asarray(raw, dtype=float)
        return (raw, lambda g: g) if vjp else raw

    # -- scripted profiles ----------------------------------------------

    def _speed_profiles(self, out, cruise, brake, n_free, noise) -> None:
        """Fill the (position, velocity) rows out[..., 1:, :] of profiles
        that start at rest at out[..., 0, 0]: accelerate to cruise and hold
        it, with noise[..., t] in step t's acceleration, until step n_free;
        then brake by up to `brake` per step. cruise, brake and n_free
        broadcast against out[..., 0, 0]; noise is (..., T). The where,
        minimum and maximum below are the scalar script's branches, min and
        max, with the same float operations."""
        boost = self.accel + noise
        p, v = out[..., 0, 0], out[..., 0, 1]
        for t in range(self.T):
            free = np.where(v < cruise, np.minimum(boost[..., t], cruise - v), noise[..., t])
            a = np.where(t < n_free, free, -np.minimum(brake, v))
            p, v = p + v, np.maximum(v + a, 0.0)
            out[..., t + 1, 0], out[..., t + 1, 1] = p, v

    def _draw_noise(self, rng, brake_start, row) -> int:
        """Draw the acceleration noise of the steps before braking into
        row, one value each, and return their count; brake_start None
        means no braking within the horizon."""
        n_free = self.T if brake_start is None else min(max(brake_start, 0), self.T)
        row[:n_free] = rng.uniform(-0.05, 0.05, size=n_free)
        return n_free

    # situation: (label, whether a pedestrian crosses)
    SITUATIONS = {
        "pos_ped": (1, True),  # lead stops, ego stops behind it
        "pos_clear": (1, False),  # nobody stops
        "neg_stop": (-1, False),  # ego stops for no reason
        "neg_go": (-1, True),  # ego ignores the stopping lead
    }

    def gen_dataset(self, n_per_situation: int, rng: np.random.Generator) -> Dataset:
        """n_per_situation trajectories of each situation, in SITUATIONS
        order. Each draws, one after the other, its ego's braking step,
        cruise speed, start and noise, then the gap and its lead's cruise
        speed, braking step and noise; then every ego and lead profile is
        integrated together, in one block."""
        m, T = 4 * n_per_situation, self.T
        raw = np.zeros((m, T + 1, 4))
        # (trajectory, ego/lead, step, position/velocity) view of raw
        profiles = raw.reshape(m, T + 1, 2, 2).swapaxes(1, 2)
        cruise = np.empty((m, 2))
        n_free = np.empty((m, 2), dtype=int)
        noise = np.zeros((m, 2, T))
        specs = []
        for j, (kind, i) in enumerate(itertools.product(self.SITUATIONS, range(n_per_situation))):
            label, ped = self.SITUATIONS[kind]
            t_dec = self.decel_onset + int(rng.integers(-2, 3))
            brake = None
            if kind == "pos_ped":
                brake = t_dec + self.react_delay + int(rng.integers(0, 3))
            elif kind == "neg_stop":
                brake = self.wrong_stop_onset + int(rng.integers(0, 5))
            cruise[j, 0] = self.cruise + rng.uniform(-0.25, 0.25)
            profiles[j, 0, 0, 0] = rng.uniform(*self.init_pos)
            n_free[j, 0] = self._draw_noise(rng, brake, noise[j, 0])
            profiles[j, 1, 0, 0] = profiles[j, 0, 0, 0] + rng.uniform(*self.gap)
            cruise[j, 1] = self.cruise + rng.uniform(-0.25, 0.25)
            lead_dec = self.decel_onset + int(rng.integers(-2, 3))
            n_free[j, 1] = self._draw_noise(rng, lead_dec if ped else None, noise[j, 1])
            specs.append((label, f"drv-{kind}-{i:05d}", {"situation": kind, "pedestrian": ped}))
        self._speed_profiles(profiles, cruise, np.array([self.ego_brake, self.other_brake]), n_free, noise)
        return to_dataset(self, raw, *zip(*specs))  # labels, ids, metas


def make_env(name: str):
    envs = {"unicycle": UnicycleEnv, "driving": DrivingEnv}
    if name not in envs:
        raise ValueError(f"unknown environment {name!r}; choices: {sorted(envs)}")
    return envs[name]()
