"""Recurrent control policy with outputs squashed into the control box,
and its batched closed loop with an environment.

A single Elman-style cell: h' = tanh(W_in x + W_rec h + b); the output
head maps h' through tanh onto the box interior, so control constraints
hold for every parameter setting. The step runs on plain arrays.

`rollout` runs one batched policy step and one environment `step` per
time step; its forward is the same array code that generates data. Asked
for a vector-Jacobian product (VJP), it also returns a closure that
backpropagates through time (BPTT) into the policy parameters, over the
steps its forward kept, through the VJP that the environment's `step`
returns when asked. Per time step the loop does only what the recurrence
needs. The cell inputs are kept time-major in one buffer whose
environment columns are normalized once, before the loop, so a step
normalizes only the agent's state. With a VJP the forward also keeps
each step's hidden state, head output and step VJP, and the backward
pass takes the cell's and the squash's slopes for all steps at once.

The weights are one `PolicyParams` (a `params.ParamVector`) whose
`group_shapes` is the layout Adam steps and checkpoints store.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dataio import InconsistentHorizon
from .params import ParamVector


class NonFiniteState(ArithmeticError):
    """Rollout produced NaN or infinity."""


@dataclass(frozen=True)
class ControlBox:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not all(
            l < h for l, h in zip(self.lo, self.hi)
        ):
            raise ValueError(f"invalid control box {self.lo} .. {self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    # The squash's constants, computed once per box and shared by every
    # step, so they are read-only.
    @functools.cached_property
    def half(self) -> np.ndarray:
        """Half the box's width per control."""
        return _read_only(0.5 * (np.asarray(self.hi) - np.asarray(self.lo)))

    @functools.cached_property
    def center(self) -> np.ndarray:
        return _read_only(np.asarray(self.lo) + self.half)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PolicyShape:
    state_dim: int
    hidden: int
    control_dim: int

    @classmethod
    def for_env(cls, env, hidden: int) -> "PolicyShape":
        """The policy that drives `env`: its whole state in, its controls out."""
        return cls(env.n_agent + env.n_env, hidden, env.control_box.dim)


@dataclass
class PolicyParams(ParamVector):
    """The cell's and the head's weights, in the order they flatten."""

    w_in: np.ndarray
    w_rec: np.ndarray
    b_h: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @staticmethod
    def group_shapes(shape: PolicyShape) -> dict[str, tuple]:
        n, h, m = shape.state_dim, shape.hidden, shape.control_dim
        return {"w_in": (h, n), "w_rec": (h, h), "b_h": (h,), "w_out": (m, h), "b_out": (m,)}

    @property
    def hidden(self) -> int:
        return self.w_rec.shape[0]


def init_policy(shape: PolicyShape, seed) -> PolicyParams:
    """Uniform weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases."""
    rng = np.random.default_rng(seed)
    n, h, m = shape.state_dim, shape.hidden, shape.control_dim

    def u(fan_in, size):
        a = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-a, a, size=size)

    return PolicyParams(
        w_in=u(n, (h, n)),
        w_rec=u(h, (h, h)),
        b_h=np.zeros(h),
        w_out=u(h, (m, h)),
        b_out=np.zeros(m),
    )


def policy_step(params: PolicyParams, x, h, box: ControlBox):
    """One control step for a state x of shape (n,) or a batch (N, n),
    with hidden state h of shape (H,) or (N, H); returns (u, h', s), where
    s = tanh(y) is the head's output before it is scaled into the box."""
    h_new = np.tanh(x @ params.w_in.T + h @ params.w_rec.T + params.b_h)
    s = np.tanh(h_new @ params.w_out.T + params.b_out)
    # lo + (hi - lo) * (s + 1) / 2, strictly inside the box
    return s * box.half + box.center, h_new, s


def rollout(env, params: PolicyParams, x0s, env_trajs, vjp: bool = False):
    """Closed-loop raw trajectories (N, T+1, n_a + n_e) from N initial
    agent states (N, n_a) and N environment trajectories (N, T+1, n_e);
    one batched policy step per time step. With vjp, (trajectories, grad),
    where grad maps an adjoint of the trajectories to a PolicyParams of
    gradients by BPTT: per time step the VJP that the forward's `env.step`
    returned, whose control adjoint goes through the squash's slope into
    the cell and the head."""
    x = np.asarray(x0s, dtype=float)
    env_trajs = np.asarray(env_trajs, dtype=float)
    if env_trajs.shape[1] != env.T + 1:
        raise InconsistentHorizon(
            f"environment trajectories have {env_trajs.shape[1]} rows, need {env.T + 1}"
        )
    n, n_a = x.shape
    out = np.empty((n, env.T + 1, n_a + env_trajs.shape[2]))
    out[:, :, n_a:] = env_trajs
    out[:, 0, :n_a] = x
    mid, halfrange = np.asarray(env.state_norm.mid), np.asarray(env.state_norm.halfrange)
    xins = np.empty((env.T, n, out.shape[2]))  # the cell inputs
    xins[:, :, n_a:] = (env_trajs[:, :-1].swapaxes(0, 1) - mid[n_a:]) / halfrange[n_a:]
    mid, halfrange = mid[:n_a], halfrange[:n_a]  # the agent's columns, normalized per step
    h = np.zeros(params.hidden)
    if vjp:  # what the backward pass reads, time-major
        hs = np.zeros((env.T + 1, n, params.hidden))
        ss = np.empty((env.T, n, env.control_box.dim))
        step_vjps = [None] * env.T
    for t, (xin, x_norm) in enumerate(zip(xins, xins[:, :, :n_a])):
        np.subtract(x, mid, out=x_norm)
        x_norm /= halfrange
        u, h, s = policy_step(params, xin, h, env.control_box)
        if vjp:
            x, step_vjps[t] = env.step(x, u, vjp=True)
            hs[t + 1], ss[t] = h, s
        else:
            x = env.step(x, u)
        if not np.isfinite(x).all():
            finite = np.isfinite(x).all(axis=1)
            raise NonFiniteState(f"state diverged at step {t + 1}: {x[np.argmin(finite)]}")
        out[:, t + 1, :n_a] = x
    if not vjp:
        return out

    def grad(g):
        slopes = env.control_box.half * (1.0 - ss * ss)  # du/dy of the squash
        dtanhs = 1.0 - hs[1:] * hs[1:]  # the cell's slope
        gys = np.empty_like(ss)  # adjoints of the head's pre-activations
        gas = np.empty_like(dtanhs)  # and of the cell's
        gx, gh = g[:, env.T, :n_a], np.zeros((n, params.hidden))
        for t in range(env.T - 1, -1, -1):
            gx, gu = step_vjps[t](gx)
            gys[t] = gy = gu * slopes[t]
            gas[t] = ga = (gh + gy @ params.w_out) * dtanhs[t]
            gxin, gh = ga @ params.w_in, ga @ params.w_rec
            # x_t reaches x_{t+1} through the step, and the cell through the normalisation
            gx += gxin[:, :n_a] / halfrange
            gx += g[:, t, :n_a]
        # the parameters' gradients, summed over steps and batch rows
        ga, gy = gas.reshape(-1, params.hidden), gys.reshape(-1, ss.shape[2])
        return PolicyParams(
            w_in=ga.T @ xins.reshape(-1, xins.shape[2]),
            w_rec=ga.T @ hs[:-1].reshape(-1, params.hidden),
            b_h=ga.sum(axis=0),
            w_out=gy.T @ hs[1:].reshape(-1, params.hidden),
            b_out=gy.sum(axis=0),
        )

    return out, grad
