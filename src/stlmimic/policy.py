"""Recurrent control policy with outputs squashed into the control box.

A single Elman-style cell: h' = tanh(W_in x + W_rec h + b); the output
head maps h' through tanh onto the box interior, so control constraints
hold for every parameter setting. The step runs on plain arrays.
Training differentiates whole rollouts through `envs.rollout`, whose
backward pass uses the step's partials below (`cell_vjp`,
`squash_slope`, `param_grads`).

The weights are one `PolicyParams` (a `params.ParamVector`) whose
`group_shapes` is the layout Adam steps and checkpoints store.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .params import ParamVector


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


def zero_hidden(params: PolicyParams) -> np.ndarray:
    return np.zeros(params.hidden)


def policy_step(params: PolicyParams, x, h, box: ControlBox):
    """One control step for a state x of shape (n,) or a batch (N, n),
    with hidden state h of shape (H,) or (N, H); returns (u, h', s), where
    s = tanh(y) is the head's output before it is scaled into the box."""
    h_new = np.tanh(x @ params.w_in.T + h @ params.w_rec.T + params.b_h)
    s = np.tanh(h_new @ params.w_out.T + params.b_out)
    # lo + (hi - lo) * (s + 1) / 2, strictly inside the box
    return s * box.half + box.center, h_new, s


def squash_slope(s, box: ControlBox):
    """du/dy of the box squash at head outputs s = tanh(y)."""
    return box.half * (1.0 - s * s)


def cell_vjp(params: PolicyParams, dtanh, gy, gh):
    """Backward of one step's cell and head, for batches: from the adjoints
    gy of the head's pre-activation y and gh of h' to (gx, gh_prev, ga),
    the adjoints of the step's input x, of its previous hidden state and
    of the cell's pre-activation. dtanh is the cell's slope 1 - h'^2, which
    a caller takes for all steps at once."""
    ga = (gh + gy @ params.w_out) * dtanh
    return ga @ params.w_in, ga @ params.w_rec, ga


def param_grads(xs, hs, gys, gas) -> dict:
    """Gradients of the five parameter groups, summed over steps and batch
    rows: xs (..., n) are the cell inputs, hs (T+1, ..., H) the hidden
    states from h_0 on, gys (..., m) and gas (..., H) the per-step
    adjoints of the head's and the cell's pre-activations."""
    n, hidden, m = xs.shape[-1], hs.shape[-1], gys.shape[-1]
    ga = gas.reshape(-1, hidden)
    gy = gys.reshape(-1, m)
    return {
        "w_in": ga.T @ xs.reshape(-1, n),
        "w_rec": ga.T @ hs[:-1].reshape(-1, hidden),
        "b_h": ga.sum(axis=0),
        "w_out": gy.T @ hs[1:].reshape(-1, hidden),
        "b_out": gy.sum(axis=0),
    }
