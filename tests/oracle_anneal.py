"""Bit-exact oracle for the classifier fit, for the test suite.

The package scores its annealing starts and each polish gate's two rails
as stacks of vectors, and its layers take a leading stack axis. Here is the
sequential form it replaced, one vector per objective call: the forward
layers `predicate_traces`, `windowed_extrema` and `smooth_gates`, the
loss `_loss_of_scores`, the memoised `annealing_objective` and
`train_inference`, each as it was before stacks. Both do the same
floating-point operations on the same values for each vector, and accept
in the same order, so the package's fit must return the same bits: the
classifier, the margin and the loss. The oracle takes from the package
only what stacks did not touch: the soft extrema, the starting points,
the bounds, the refinement and the constants.
"""

from __future__ import annotations

import math

import numpy as np

from stlmimic import stl, train
from stlmimic.inference import GATE_L, OUT_L, SIGMA_W, InferenceParams, init_inference, param_bounds, sigmoid
from stlmimic.params import layout
from stlmimic.stl import smax, smin
from stlmimic.train import EmptyDataset, NoNegativeData

# --- the forward layers ----------------------------------------------------------


def predicate_traces(X_norm, params, shape):
    X = np.asarray(X_norm, dtype=float)
    if X.shape[1] != shape.horizon + 1:
        raise stl.HorizonExceeded(f"need {shape.horizon + 1} samples, got {X.shape[1]}")
    traces = params.pred_w @ X.transpose(0, 2, 1)
    traces -= params.pred_b[:, None]
    return traces


def windowed_extrema(traces, win_lo, win_hi, tau):
    L = GATE_L
    ts = np.arange(float(traces.shape[2]))
    m1 = sigmoid((ts - win_lo[:, None] + 0.5) / SIGMA_W)
    m2 = sigmoid((win_hi[:, None] - ts + 0.5) / SIGMA_W)
    masks = m1 * m2  # (2P, T+1)
    ev_m, al_m = masks[0::2], masks[1::2]
    ev = smax(traces * ev_m + (ev_m - 1.0) * L, tau, 2)
    al = smin(traces * al_m + (1.0 - al_m) * L, tau, 2)
    return ev, al


def smooth_gates(atoms, params, shape):
    tau = shape.tau
    ev, al = atoms
    s_gate = sigmoid(params.gate)
    gate_off = (1.0 - s_gate) * GATE_L  # (n_conj, n_atoms)
    conj_terms = np.concatenate(
        [ev[:, None, :] + gate_off[:, 0::2], al[:, None, :] + gate_off[:, 1::2]], axis=2
    )
    conjs = smin(conj_terms, tau, 2)  # (N, n_conj)
    s_out = sigmoid(params.out_gate)
    out_off = (1.0 - s_out) * OUT_L  # (n_conj,)
    return smax(conjs - out_off, tau, 1)


def _loss_of_scores(vals, labels, params, margin):
    slack = margin - labels * vals
    hinge = np.sum(np.maximum(slack, 0.0)) / slack.size
    s_gate, s_out = sigmoid(params.gate), sigmoid(params.out_gate)
    return hinge + train.BETA1 * (np.sum(s_gate) + np.sum(s_out)) - train.BETA2 * margin


# --- the fit -----------------------------------------------------------------------


def annealing_objective(X_norm, labels, template, shape):
    n_atom_params = shape.n_atom_params
    n_pred_params = shape.n_pred * (shape.dim + 1)
    # the predicate each atom entry belongs to: pred_w rows, pred_b, then
    # win_lo and win_hi, where atoms 2k and 2k+1 are predicate k's
    preds = np.arange(shape.n_pred)
    owner = np.concatenate([np.repeat(preds, shape.dim), preds, np.tile(np.repeat(preds, 2), 2)])
    memo_key = traces = ev = al = None

    def objective(fullvec) -> float:
        nonlocal memo_key, traces, ev, al
        params = template.with_flat(fullvec[:-1])
        key = fullvec[:n_atom_params]
        diff = None if memo_key is None else key != memo_key
        moved = None if diff is None else set(owner[diff].tolist())
        if moved is None or len(moved) > 1:
            traces = predicate_traces(X_norm, params, shape)
            ev, al = windowed_extrema(traces, params.win_lo, params.win_hi, shape.tau)
        elif moved:
            (k,) = moved
            if diff[:n_pred_params].any():
                traces = predicate_traces(X_norm, params, shape)
            pair = slice(2 * k, 2 * k + 2)
            ev_k, al_k = windowed_extrema(traces[:, k : k + 1], params.win_lo[pair], params.win_hi[pair], shape.tau)
            ev[:, k], al[:, k] = ev_k[:, 0], al_k[:, 0]
        memo_key = key.copy()
        vals = smooth_gates((ev, al), params, shape)
        return float(_loss_of_scores(vals, labels, params, float(fullvec[-1])))

    return objective


def train_inference(dataset, shape, cfg, rng, *, norm, warm_start=None):
    """(params, margin, loss), as the package's `train.train_inference`."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    labels = dataset.labels.astype(float)
    if np.all(labels == 1) or np.all(labels == -1):
        raise NoNegativeData("dataset has a single label; bootstrap negatives first")
    X = norm.apply(dataset.X)

    lo_p, hi_p = param_bounds(shape, train.PRED_BOUND, train.GATE_BOUND)
    lo = np.concatenate([lo_p, [train.MARGIN_LO]])
    hi = np.concatenate([hi_p, [train.MARGIN_HI]])
    template = init_inference(shape, rng)

    objective = annealing_objective(X, labels, template, shape)

    current = None
    for start in [template] + [init_inference(shape, rng) for _ in range(cfg.n_starts - 1)]:
        cand = np.clip(np.append(start.flatten(), 0.1), lo, hi)
        cand_loss = objective(cand)
        if current is None or cand_loss < cur_loss:
            current, cur_loss = cand, cand_loss
    if warm_start is not None:
        warm = np.clip(np.asarray(warm_start, dtype=float), lo, hi)
        warm_loss = objective(warm)
        if warm_loss < cur_loss:
            current, cur_loss = warm, warm_loss
    best, best_loss = current.copy(), cur_loss

    span = hi - lo
    temp = train.INITIAL_TEMP * (train.REHEAT if warm_start is not None else 1.0)
    for start in range(0, cfg.max_proposals, cfg.epoch_len):
        for _ in range(min(cfg.epoch_len, cfg.max_proposals - start)):
            u = rng.uniform(size=current.size)
            step = 0.1 * span * temp * np.tan(math.pi * (u - 0.5))
            if rng.random() < 0.5:
                # axis move: keep one heavy-tailed coordinate only
                keep = rng.integers(current.size)
                mask = np.zeros(current.size)
                mask[keep] = 1.0
                step = step * mask
            cand = np.clip(current + step, lo, hi)
            cand_loss = objective(cand)
            d = cand_loss - cur_loss
            if d <= 0.0 or rng.random() < math.exp(-d / max(temp, 1e-12)):
                current, cur_loss = cand, cand_loss
                if cand_loss < best_loss:
                    best, best_loss = cand.copy(), cand_loss
        refined = train._refine(best, X, labels, template, shape, cfg, (lo, hi), rng)
        refined_loss = objective(refined)
        if refined_loss < best_loss:
            best, best_loss = refined, refined_loss
            current, cur_loss = refined.copy(), refined_loss
        temp *= train.TEMP_DECAY

    spans = layout(InferenceParams.group_shapes(shape))
    for _ in range(2):
        for i in range(spans["gate"].start, spans["out_gate"].stop):
            trial = best.copy()
            for cand in (-train.GATE_BOUND, train.GATE_BOUND):
                if best[i] == cand:
                    continue
                trial[i] = cand
                trial_loss = objective(trial)
                if trial_loss <= best_loss:
                    best, best_loss = trial.copy(), trial_loss

    return template.with_flat(best[:-1]), float(best[-1]), best_loss
