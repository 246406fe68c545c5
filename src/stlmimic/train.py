"""Training: classifier fitting by dual annealing (global Cauchy-move
search with periodic gradient refinement), policy fitting by Adam ascent
through unrolled dynamics, and the adversarial alternation that grows the
dataset with policy-generated negatives.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import stl, tape
from .dataio import Dataset, InconsistentHorizon
from .envs import rollout
from .inference import (
    InferenceParams,
    NetworkShape,
    SignalNorm,
    combined_smooth,
    exact_mcr,
    extract_formula,
    init_inference,
    normalize_formula,
    param_bounds,
    simplify,
    smooth_robustness,
)
from .policy import PolicyParams, PolicyShape, init_policy
from .tape import Node, backward

log = logging.getLogger(__name__)


class EmptyDataset(ValueError):
    pass


class NoNegativeData(ValueError):
    """Single-label dataset: the caller must bootstrap negatives first."""


@dataclass
class InferenceTrainConfig:
    margin_lo: float = 0.01
    margin_hi: float = 1.0
    beta1: float = 0.05  # weight of the gate-sparsity regularizer
    beta2: float = 0.1  # reward for a large margin
    initial_temp: float = 1.0
    temp_decay: float = 0.95  # geometric cooling per epoch
    epoch_len: int = 50  # proposals per epoch; refinement runs between epochs
    refine_steps: int = 20
    refine_lr: float = 0.05
    refine_batch: int = 32
    max_proposals: int = 2000
    n_starts: int = 24
    pred_bound: float = 3.0
    gate_bound: float = 6.0
    tau_eval: float = 0.01


@dataclass
class PolicyTrainConfig:
    batch_m: int = 32
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    steps: int = 2000
    hidden: int = 32


@dataclass
class GanConfig:
    n_generate: int = 50
    max_iterations: int = 8
    stop_mcr: float = 0.05
    reheat: float = 0.5  # annealing temperature scale on warm-started rounds


# --- misclassification rate ---------------------------------------------------


def mcr(classifier, dataset: Dataset, *, shape=None, norm=None, tau=None, rule=None) -> float:
    """Fraction of the dataset on the wrong side of the classifier.

    A Formula is scored with exact semantics; InferenceParams with the
    sign of the smooth robustness (optionally conjoined with `rule`).
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot score an empty dataset")
    labels = dataset.labels()
    if stl.is_formula(classifier):
        return exact_mcr(classifier, dataset.to_array(), dataset.dim_names, labels)
    if isinstance(classifier, InferenceParams):
        if shape is None or norm is None:
            raise ValueError("shape and norm are required to score parameters")
        X = norm.apply(dataset.to_array())
        vals = combined_smooth(X, classifier, shape, rule, tau)
        return float(np.mean((vals >= 0.0) != (labels > 0)))
    raise TypeError(f"cannot score {type(classifier).__name__}")


# --- inference loss -------------------------------------------------------------


def inference_loss(X_norm, labels, params: InferenceParams, shape: NetworkShape, margin, cfg):
    """Hinge-with-margin classification loss plus gate regularization,
    minus a reward for a large margin. The parameters and the margin may
    be tape nodes."""
    vals = smooth_robustness(X_norm, params, shape)
    hinge = tape.mean(tape.relu(margin - labels * vals))
    reg = tape.sum(tape.sigmoid(params.gate)) + tape.sum(tape.sigmoid(params.out_gate))
    return hinge + cfg.beta1 * reg - cfg.beta2 * margin


# --- inference training (dual annealing) ----------------------------------------


def train_inference(
    dataset: Dataset,
    shape: NetworkShape,
    cfg: InferenceTrainConfig,
    rng: np.random.Generator,
    *,
    norm: SignalNorm,
    warm_start: np.ndarray | None = None,
    temp_scale: float = 1.0,
):
    """Fit classifier parameters plus the learnable margin.

    Global search uses Cauchy-distributed proposal moves with geometric
    cooling and Metropolis acceptance; after every epoch the incumbent is
    polished with minibatch gradient descent. Deterministic per rng.
    Returns (params, margin, info).
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    labels = dataset.labels().astype(float)
    if np.all(labels == 1) or np.all(labels == -1):
        raise NoNegativeData("dataset has a single label; bootstrap negatives first")
    X = norm.apply(dataset.to_array())

    lo_p, hi_p = param_bounds(shape, cfg.pred_bound, cfg.gate_bound)
    lo = np.concatenate([lo_p, [cfg.margin_lo]])
    hi = np.concatenate([hi_p, [cfg.margin_hi]])
    template = init_inference(shape, rng).to_pv()

    def unpack(fullvec):
        return InferenceParams.from_pv(template.with_flat(fullvec[:-1])), float(fullvec[-1])

    def objective(fullvec) -> float:
        params, margin = unpack(fullvec)
        return float(inference_loss(X, labels, params, shape, margin, cfg))

    # multi-start: keep the best of several random initializations; a warm
    # start competes against them rather than replacing them, so stale
    # incumbents cannot pin the search after the dataset shifts
    current = np.clip(np.concatenate([template.flatten(), [0.1]]), lo, hi)
    cur_loss = objective(current)
    for _ in range(cfg.n_starts - 1):
        cand = np.clip(
            np.concatenate([init_inference(shape, rng).to_pv().flatten(), [0.1]]),
            lo,
            hi,
        )
        cand_loss = objective(cand)
        if cand_loss < cur_loss:
            current, cur_loss = cand, cand_loss
    if warm_start is not None:
        warm = np.clip(np.asarray(warm_start, dtype=float), lo, hi)
        warm_loss = objective(warm)
        if warm_loss < cur_loss:
            current, cur_loss = warm, warm_loss
    best, best_loss = current.copy(), cur_loss

    span = hi - lo
    temp = cfg.initial_temp * temp_scale
    proposals = 0
    while proposals < cfg.max_proposals:
        for _ in range(min(cfg.epoch_len, cfg.max_proposals - proposals)):
            proposals += 1
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
        refined = _refine(best, X, labels, template, shape, cfg, (lo, hi), rng)
        refined_loss = objective(refined)
        if refined_loss < best_loss:
            best, best_loss = refined, refined_loss
            current, cur_loss = refined.copy(), refined_loss
        temp *= cfg.temp_decay

    # Discrete polish: drive every gate logit to a rail whenever that does
    # not hurt the loss. Half-open gates can hide discrimination that the
    # thresholded extraction cannot see; railed gates keep the smooth and
    # extracted semantics aligned.
    g0 = shape.n_pred * shape.dim + shape.n_pred + 2 * shape.n_atoms
    g1 = g0 + shape.n_conj * shape.n_atoms + shape.n_conj
    for _ in range(2):
        for i in range(g0, g1):
            trial = best.copy()
            for cand in (-cfg.gate_bound, cfg.gate_bound):
                trial[i] = cand
                trial_loss = objective(trial)
                if trial_loss <= best_loss:
                    best, best_loss = trial.copy(), trial_loss

    params, margin = unpack(best)
    info = {
        "proposals": proposals,
        "loss": best_loss,
        "flat": best,
    }
    return params, margin, info


def _refine(fullvec, X, labels, template, shape, cfg, bounds, rng):
    """Minibatch gradient descent from the incumbent, projected to bounds."""
    lo, hi = bounds
    vec = fullvec.copy()
    n = len(X)
    batch = min(cfg.refine_batch, n)
    for _ in range(cfg.refine_steps):
        idx = rng.choice(n, size=batch, replace=False)
        pv = template.with_flat(vec[:-1])
        leaves = pv.leaves()
        margin = Node(vec[-1])
        loss = inference_loss(
            X[idx], labels[idx], InferenceParams.from_leaves(leaves), shape, margin, cfg
        )
        backward(loss)
        grad = np.concatenate([pv.grads(leaves).flatten(), [margin.grad]])
        vec = np.clip(vec - cfg.refine_lr * grad, lo, hi)
    return vec


# --- policy training -------------------------------------------------------------


class Adam:
    def __init__(self, n: int, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, x: np.ndarray, grad: np.ndarray, maximize: bool = False) -> np.ndarray:
        self.t += 1
        g = grad if not maximize else -grad
        self.m = self.b1 * self.m + (1 - self.b1) * g
        self.v = self.b2 * self.v + (1 - self.b2) * g * g
        mh = self.m / (1 - self.b1**self.t)
        vh = self.v / (1 - self.b2**self.t)
        return x - self.lr * mh / (np.sqrt(vh) + self.eps)


def policy_objective(policy, inf_params, env, samples, shape, norm, rule=None, tau=None):
    """Mean smooth robustness of closed-loop rollouts of the policy from
    `samples` (initial states, environment trajectories), optionally
    conjoined with a rule in raw units. Differentiable in whatever is a
    tape node inside `policy`; the classifier is held as plain arrays, so
    its parameters cannot drift here."""
    x0s, env_trajs = samples
    raw = rollout(env, policy, x0s, env_trajs)
    X = norm.apply(env.inference_map(raw))
    rule_n = normalize_formula(rule, norm) if rule is not None else None
    return tape.mean(combined_smooth(X, inf_params, shape, rule_n, tau))


def _draw_samples(env, env_pool, m, rng):
    """m initial states (m, n_a) and m environment trajectories
    (m, T+1, n_e), drawn one pair at a time; all zeros without a pool."""
    x0s = np.zeros((m, env.n_agent))
    env_trajs = np.zeros((m, env.T + 1, env.n_env))
    for i in range(m):
        x0s[i] = env.sample_initial(rng)
        if env_pool:
            env_trajs[i] = env_pool[int(rng.integers(len(env_pool)))]
    return x0s, env_trajs


def train_policy(
    policy0: PolicyParams,
    inf_params: InferenceParams,
    env,
    env_pool,
    cfg: PolicyTrainConfig,
    rng: np.random.Generator,
    *,
    shape: NetworkShape,
    norm: SignalNorm,
    rule=None,
    tau=None,
) -> PolicyParams:
    """Ascend the rollout objective with Adam; initial states and
    environment trajectories are re-drawn fresh at every step.

    `env_pool` holds the environment trajectories of the original dataset
    (empty list for static environments)."""
    pv = policy0.to_pv()
    flat = pv.flatten()
    opt = Adam(flat.size, cfg.lr, cfg.betas)
    for _ in range(cfg.steps):
        samples = _draw_samples(env, env_pool, cfg.batch_m, rng)
        leaves = pv.with_flat(flat).leaves()
        obj = policy_objective(
            PolicyParams.from_leaves(leaves), inf_params, env, samples, shape, norm, rule, tau
        )
        backward(obj)
        grad = pv.grads(leaves).flatten()
        flat = opt.step(flat, grad, maximize=True)
    return PolicyParams.from_pv(pv.with_flat(flat))


# --- adversarial alternation ------------------------------------------------------


@dataclass
class GanResult:
    inference: InferenceParams
    margin: float
    policy: PolicyParams
    formula: stl.Formula
    dataset: Dataset  # what the adopted classifier was trained on
    full_dataset: Dataset  # including any rollouts appended afterwards
    metrics: list[dict]
    norm: SignalNorm
    saturated: bool


GENERATED_SOURCE = "policy_rollout"


def original_env_pool(dataset: Dataset, env) -> list:
    """Environment trajectories of the non-generated rows only."""
    if env.n_env == 0:
        return []
    if dataset.horizon != env.T:
        raise InconsistentHorizon(
            f"dataset horizon {dataset.horizon} != environment horizon {env.T}"
        )
    return [
        t.env for t in dataset if t.meta.get("source") != GENERATED_SOURCE
    ]


def _generate_negatives(env, policy, env_pool, n, rng, tag, start_idx):
    raws = rollout(env, policy, *_draw_samples(env, env_pool, n, rng))
    return [
        env.raw_to_traj(
            raw,
            -1,
            f"gen-{tag}-{start_idx + i:05d}",
            {"source": GENERATED_SOURCE, "round": tag},
        )
        for i, raw in enumerate(raws)
    ]


def gan_loop(
    dataset0: Dataset,
    env,
    shape: NetworkShape,
    inf_cfg: InferenceTrainConfig,
    pol_cfg: PolicyTrainConfig,
    gan_cfg: GanConfig,
    rng: np.random.Generator,
    checkpoint_cb=None,
    resume: dict | None = None,
) -> GanResult:
    """Alternate classifier and policy training, appending policy rollouts
    as fresh negatives after every round.

    If the dataset is positive-only, rollouts of the randomly initialized
    policy seed the negatives. Stops early once the freshly trained
    classifier can no longer separate (smooth MCR above the threshold);
    the last separating round is what the result reports. No environment
    interaction happens here beyond re-sampling stored trajectories.

    `checkpoint_cb(state: dict)` is invoked at the top of every iteration
    with everything needed to resume; `resume` accepts such a state.
    """
    if len(dataset0) == 0:
        raise EmptyDataset("need at least one demonstration")
    # Environment trajectories are drawn from the original dataset only, so
    # generated agent behavior never contaminates the environment model.
    env_pool = [t.env for t in dataset0] if env.n_env > 0 else []
    norm = SignalNorm.from_arrays([t.full() for t in dataset0])
    names = dataset0.dim_names

    if resume is None:
        policy = init_policy(
            PolicyShape(env.n_agent + env.n_env, pol_cfg.hidden, env.control_box.dim),
            seed=int(rng.integers(2**31)),
        )
        dataset = dataset0
        if dataset.count(-1) == 0:
            log.info("positive-only dataset: bootstrapping %d negatives from a random policy", gan_cfg.n_generate)
            boot = _generate_negatives(
                env, policy, env_pool, gan_cfg.n_generate, rng, "boot", 0
            )
            dataset = dataset.extended(boot)
        start_iter = 1
        warm = None
    else:
        policy = PolicyParams.from_pv(resume["policy"])
        dataset = resume["dataset"]
        start_iter = resume["iteration"]
        warm = resume["warm_start"]
        rng.bit_generator.state = resume["rng_state"]

    adopted = None
    metrics: list[dict] = list(resume.get("metrics") or []) if resume else []
    saturated = False

    for it in range(start_iter, gan_cfg.max_iterations + 1):
        t0 = time.perf_counter()
        if checkpoint_cb is not None:
            checkpoint_cb(
                {
                    "iteration": it,
                    "rng_state": rng.bit_generator.state,
                    "policy": policy.to_pv(),
                    "dataset": dataset,
                    "warm_start": warm,
                    "metrics": list(metrics),
                }
            )
        seed_inf = int(rng.integers(2**63))
        seed_pol = int(rng.integers(2**63))
        seed_gen = int(rng.integers(2**63))

        inf_params, margin, info = train_inference(
            dataset,
            shape,
            inf_cfg,
            np.random.default_rng(seed_inf),
            norm=norm,
            warm_start=warm,
            temp_scale=1.0 if it == start_iter and warm is None else gan_cfg.reheat,
        )
        mcr_smooth = mcr(
            inf_params, dataset, shape=shape, norm=norm, tau=inf_cfg.tau_eval
        )
        formula = extract_formula(inf_params, shape, norm, names)
        formula = simplify(formula, dataset.to_array(), names, dataset.labels())
        mcr_exact_val = mcr(formula, dataset)
        log.info(
            "iteration %d: smooth MCR %.4f, exact MCR %.4f, loss %.4f",
            it,
            mcr_smooth,
            mcr_exact_val,
            info["loss"],
        )

        if it > start_iter and mcr_smooth > gan_cfg.stop_mcr:
            # The policy's rollouts have become indistinguishable from the
            # demonstrations; keep the last round that still separated.
            log.info("stopping: classifier saturated (MCR %.3f)", mcr_smooth)
            saturated = True
            break

        warm = info["flat"]
        policy = train_policy(
            policy,
            inf_params,
            env,
            env_pool,
            pol_cfg,
            np.random.default_rng(seed_pol),
            shape=shape,
            norm=norm,
        )

        gen_rng = np.random.default_rng(seed_gen)
        generated = _generate_negatives(
            env, policy, env_pool, gan_cfg.n_generate, gen_rng, f"it{it}", 0
        )
        gen_X = norm.apply(Dataset(generated).to_array())
        mean_rob = float(
            np.mean(smooth_robustness(gen_X, inf_params, shape, inf_cfg.tau_eval))
        )

        adopted = GanResult(
            inference=inf_params,
            margin=margin,
            policy=policy,
            formula=formula,
            dataset=dataset,
            full_dataset=dataset,
            metrics=[],
            norm=norm,
            saturated=False,
        )
        metrics.append(
            {
                "iteration": it,
                "mcr_smooth": mcr_smooth,
                "mcr_exact": mcr_exact_val,
                "mean_policy_robustness": mean_rob,
                "loss": info["loss"],
                "wall_time_s": time.perf_counter() - t0,
                "dataset_size": len(dataset),
            }
        )
        if it < gan_cfg.max_iterations:
            # these rollouts feed the next round's classifier
            dataset = dataset.extended(generated)

    if adopted is None:
        raise RuntimeError("classifier failed to separate on the first round")
    adopted.metrics = metrics
    adopted.full_dataset = dataset
    adopted.saturated = saturated
    return adopted
