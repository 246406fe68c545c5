"""Bit-exact oracle for the policy path, for the test suite.

The package's policy step is written for speed: the rollout normalizes the
environment columns once and keeps its cell inputs time-major, the control
box's constants are computed once, the steps and their VJPs fill their
results in place, the cell's slope is taken for all steps at once, and the
classifier's VJP can skip the parameter gradients. Here is the plain form of
each of those functions: every step normalizes its whole state with
`SignalNorm.apply`, builds the box's arrays, and stacks its results, and the
classifier's VJP computes everything. Both forms do the same floating-point
operations on the same values, so the package must match these functions
bit for bit, not merely to a tolerance. The oracle imports no gradient code
from the package: its BPTT sums the parameters' gradients with its own
`param_grads`. `policy_objective` composes them as
`train.policy_objective` composes the package's layers. An injected rule is
scored at t=0 by `stl.smooth_robustness` with this module's soft extrema,
and `combined_smooth` conjoins it with the network's scores through this
module's smooth minimum.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from stlmimic import stl
from stlmimic.inference import GATE_L, OUT_L, SIGMA_W, InferenceParams, sigmoid
from stlmimic.policy import NonFiniteState, PolicyParams

# --- soft extrema ----------------------------------------------------------------


def _soft_extremum(a, tau, axis, sign, vjp):
    a = np.asarray(a, dtype=float)
    m = a.max(axis=axis, keepdims=True) if sign > 0 else a.min(axis=axis, keepdims=True)
    w = a - m
    if sign < 0:
        np.negative(w, out=w)
    w /= tau
    np.exp(w, out=w)
    z = w.sum(axis=axis)
    if not vjp:
        w *= a
        return w.sum(axis=axis) / z
    s = (w * a).sum(axis=axis) / z

    def grad(g):
        dev = (a - np.expand_dims(s, axis)) / tau
        partial = (w / np.expand_dims(z, axis)) * (1.0 + dev if sign > 0 else 1.0 - dev)
        return np.expand_dims(g, axis) * partial

    return s, grad


def smax(a, tau, axis, vjp=False):
    return _soft_extremum(a, tau, axis, +1, vjp)


def smin(a, tau, axis, vjp=False):
    return _soft_extremum(a, tau, axis, -1, vjp)


# --- the classifier ----------------------------------------------------------------


def predicate_traces(X, params, shape):
    X = np.asarray(X, dtype=float)
    traces = np.transpose(X @ params.pred_w.T - params.pred_b, (0, 2, 1))

    def grad(g):
        g_traces = np.transpose(g, (0, 2, 1))
        flat_g = g_traces.reshape(-1, shape.n_pred)
        pred = {"pred_w": flat_g.T @ X.reshape(-1, X.shape[2]), "pred_b": -flat_g.sum(axis=0)}
        return pred, g_traces @ params.pred_w

    return traces, grad


def windowed_extrema(traces, win_lo, win_hi, tau):
    L = GATE_L
    ts = np.arange(float(traces.shape[2]))
    m1 = sigmoid((ts - win_lo[:, None] + 0.5) / SIGMA_W)
    m2 = sigmoid((win_hi[:, None] - ts + 0.5) / SIGMA_W)
    masks = m1 * m2
    ev_m, al_m = masks[0::2], masks[1::2]
    ev, ev_grad = smax(traces * ev_m + (ev_m - 1.0) * L, tau, 2, True)
    al, al_grad = smin(traces * al_m + (1.0 - al_m) * L, tau, 2, True)

    def grad(g_ev, g_al):
        g_ev, g_al = ev_grad(g_ev), al_grad(g_al)
        g_masks = np.empty_like(masks)
        g_masks[0::2] = (g_ev * (traces + L)).sum(axis=0)
        g_masks[1::2] = (g_al * (traces - L)).sum(axis=0)
        return g_ev * ev_m + g_al * al_m, {
            "win_lo": -(g_masks * m2 * m1 * (1.0 - m1)).sum(axis=1) / SIGMA_W,
            "win_hi": (g_masks * m1 * m2 * (1.0 - m2)).sum(axis=1) / SIGMA_W,
        }

    return (ev, al), grad


def smooth_gates(atoms, params, shape, tau):
    ev, al = atoms
    s_gate = sigmoid(params.gate)
    gate_off = (1.0 - s_gate) * GATE_L
    conj_terms = np.concatenate(
        [ev[:, None, :] + gate_off[:, 0::2], al[:, None, :] + gate_off[:, 1::2]], axis=2
    )
    conjs, conjs_grad = smin(conj_terms, tau, 2, True)
    s_out = sigmoid(params.out_gate)
    out_off = (1.0 - s_out) * OUT_L
    scores, scores_grad = smax(conjs - out_off, tau, 1, True)

    def grad(g):
        g_conjs = scores_grad(g)
        g_terms = conjs_grad(g_conjs)
        n_pred = ev.shape[1]
        g_off = np.empty_like(gate_off)
        g_off[:, 0::2], g_off[:, 1::2] = np.split(g_terms.sum(axis=0), 2, axis=1)
        atoms_adjoint = (g_terms[:, :, :n_pred].sum(axis=1), g_terms[:, :, n_pred:].sum(axis=1))
        return atoms_adjoint, {
            "gate": -GATE_L * g_off * s_gate * (1.0 - s_gate),
            "out_gate": OUT_L * g_conjs.sum(axis=0) * s_out * (1.0 - s_out),
        }

    return scores, grad


def smooth_robustness(X, params, shape):
    """Scores and their VJP to (an InferenceParams of gradients, the
    gradient with respect to X), at the shape's temperature."""
    traces, traces_grad = predicate_traces(X, params, shape)
    atoms, atoms_grad = windowed_extrema(traces, params.win_lo, params.win_hi, shape.tau)
    scores, gates_grad = smooth_gates(atoms, params, shape, shape.tau)

    def grad(g):
        g_atoms, g_gates = gates_grad(g)
        g_traces, g_windows = atoms_grad(*g_atoms)
        g_preds, gX = traces_grad(g_traces)
        return InferenceParams(**g_preds, **g_windows, **g_gates), gX

    return scores, grad


def combined_smooth(X, params, shape, rule):
    if rule is None:
        return smooth_robustness(X, params, shape)
    net, net_grad = smooth_robustness(X, params, shape)
    with mock.patch.object(stl, "smax", smax), mock.patch.object(stl, "smin", smin):
        at_0, rule_grad = stl.smooth_robustness(X, rule, shape.tau)
    scores, scores_grad = smin(np.stack([net, at_0]), shape.tau, 0, True)

    def grad(g):
        g_net, g_rule = scores_grad(g)
        g_params, gX = net_grad(g_net)
        return g_params, gX + rule_grad(g_rule)

    return scores, grad


# --- the environments' steps and the policy ------------------------------------------


def unicycle_step(x, u):
    th, v = x[..., 2], u[..., 0]
    return x + np.stack([v * np.cos(th), v * np.sin(th), u[..., 1]], axis=-1)


def unicycle_step_vjp(x, u, g):
    th, v = x[..., 2], u[..., 0]
    c, s = np.cos(th), np.sin(th)
    g_th = g[..., 0] * (-v * s) + g[..., 1] * (v * c) + g[..., 2]
    g_u = np.stack([g[..., 0] * c + g[..., 1] * s, g[..., 2]], axis=-1)
    return np.stack([g[..., 0], g[..., 1], g_th], axis=-1), g_u


def driving_step(x, u):
    return x + np.stack([x[..., 1], u[..., 0]], axis=-1)


def driving_step_vjp(x, u, g):
    return np.stack([g[..., 0], g[..., 0] + g[..., 1]], axis=-1), g[..., 1:]


STEPS = {"unicycle": (unicycle_step, unicycle_step_vjp), "driving": (driving_step, driving_step_vjp)}


def policy_step(params, x, h, box):
    h_new = np.tanh(x @ params.w_in.T + h @ params.w_rec.T + params.b_h)
    s = np.tanh(h_new @ params.w_out.T + params.b_out)
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    half = 0.5 * (hi - lo)
    return s * half + (lo + half), h_new, s


def squash_slope(s, box):
    return 0.5 * (np.asarray(box.hi) - np.asarray(box.lo)) * (1.0 - s * s)


def cell_vjp(params, h_new, gy, gh):
    ga = (gh + gy @ params.w_out) * (1.0 - h_new * h_new)
    return ga @ params.w_in, ga @ params.w_rec, ga


def param_grads(xins, hs, gys, gas):
    """The five parameter groups' gradients, summed over steps and batch
    rows, from the cell inputs, the hidden states from h_0 on, and the
    adjoints of the head's and the cell's pre-activations."""
    ga = gas.reshape(-1, hs.shape[-1])
    gy = gys.reshape(-1, gys.shape[-1])
    return PolicyParams(
        w_in=ga.T @ xins.reshape(-1, xins.shape[-1]),
        w_rec=ga.T @ hs[:-1].reshape(-1, hs.shape[-1]),
        b_h=ga.sum(axis=0),
        w_out=gy.T @ hs[1:].reshape(-1, hs.shape[-1]),
        b_out=gy.sum(axis=0),
    )


def rollout(env, params, x0s, env_trajs):
    """`policy.rollout(..., vjp=True)`: (trajectories, grad)."""
    step, step_vjp = STEPS[env.name]
    x = np.asarray(x0s, dtype=float)
    env_trajs = np.asarray(env_trajs, dtype=float)
    n, n_a = x.shape
    out = np.empty((n, env.T + 1, n_a + env_trajs.shape[2]))
    out[:, :, n_a:] = env_trajs
    out[:, 0, :n_a] = x
    h = np.zeros(params.hidden)
    xins = np.empty((env.T, n, out.shape[2]))
    hs = np.zeros((env.T + 1, n, params.hidden))
    ss = np.empty((env.T, n, env.control_box.dim))
    us = np.empty_like(ss)
    for t in range(env.T):
        xin = env.state_norm.apply(out[:, t])
        u, h, s = policy_step(params, xin, h, env.control_box)
        x = step(x, u)
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise NonFiniteState(f"state diverged at step {t + 1}: {x[np.argmin(finite)]}")
        out[:, t + 1, :n_a] = x
        xins[t], hs[t + 1], ss[t], us[t] = xin, h, s, u

    def grad(g):
        slopes = squash_slope(ss, env.control_box)
        halfrange = np.asarray(env.state_norm.halfrange)[:n_a]
        gys = np.empty_like(ss)
        gas = np.empty_like(hs[1:])
        gx, gh = g[:, env.T, :n_a], np.zeros((n, params.hidden))
        for t in range(env.T - 1, -1, -1):
            gx, gu = step_vjp(out[:, t, :n_a], us[t], gx)
            gys[t] = gy = gu * slopes[t]
            gxin, gh, gas[t] = cell_vjp(params, hs[t + 1], gy, gh)
            gx = gx + gxin[:, :n_a] / halfrange + g[:, t, :n_a]
        return param_grads(xins, hs, gys, gas)

    return out, grad


def policy_objective(policy, inf_params, env, samples, shape, norm, rule_n=None):
    """`train.policy_objective`: (objective, grad)."""
    x0s, env_trajs = samples
    raw, raw_grad = rollout(env, policy, x0s, env_trajs)
    mapped, map_grad = env.inference_map(raw, vjp=True)
    X, norm_grad = norm.apply(mapped, vjp=True)
    scores, scores_grad = combined_smooth(X, inf_params, shape, rule_n)

    def grad(g):
        _, gX = scores_grad(np.full(scores.shape, g / scores.size))
        return raw_grad(map_grad(norm_grad(gX)))

    return np.sum(scores) / scores.size, grad
