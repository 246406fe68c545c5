"""Training: classifier fitting by dual annealing (global Cauchy-move
search with periodic gradient refinement), policy fitting by Adam ascent
through unrolled dynamics, and the adversarial alternation that grows the
dataset with policy-generated negatives.

Both gradients are composed from the layers' vector-Jacobian products
(the `vjp=True` form of each layer, see `inference`, `envs` and
`policy`), all on plain arrays: refinement takes the loss back through
the classifier to its parameters and margin; a policy step takes the
mean score back through the classifier, the signal normalization, the
inference map and the closed-loop rollout to the policy weights.

The annealing objective scores one vector, or a stack of them through the
layers' stacked forward form (see `inference`) with the same bits per
row. `train_inference` scores its starts as stacks whose traces take at
most `START_CHUNK_BYTES`, and each polish gate's two rails as one stack;
it accepts them one by one in the sequential order.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import stl
from .dataio import Dataset, require, require_counts
from .envs import to_dataset
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
    predicate_traces,
    sigmoid,
    simplify,
    smooth_gates,
    smooth_robustness,
    windowed_extrema,
)
from .params import layout
from .policy import PolicyParams, PolicyShape, init_policy, rollout

log = logging.getLogger(__name__)


class EmptyDataset(ValueError):
    pass


class NoNegativeData(ValueError):
    """Single-label dataset: the caller must bootstrap negatives first."""


# the annealing schedule of `train_inference`
INITIAL_TEMP = 1.0
TEMP_DECAY = 0.95  # geometric cooling per epoch
REHEAT = 0.5  # the initial temperature's scale on a warm-started fit

# the classifier fit's fixed hyperparameters
MARGIN_LO, MARGIN_HI = 0.01, 1.0  # the bounds of the learnable margin
BETA1 = 0.05  # weight of the gate-sparsity regularizer
BETA2 = 0.1  # reward for a large margin
REFINE_LR = 0.05  # step size of the minibatch refinement
PRED_BOUND = 3.0  # bound on every predicate weight and offset
GATE_BOUND = 6.0  # bound on every gate logit, and the polish's rails
TAU_EVAL = 0.01  # the temperature at which a round's smooth MCR is read
# the most bytes of predicate traces, 8 * rows * N * n_pred * (T+1), that
# one stack of starts holds: past it, the stack's temporaries cost more than
# its fewer calls save. It stacks 6 to 8 default unicycle starts at N = 30
# to 40, and scores default driving starts at N = 40 one at a time.
START_CHUNK_BYTES = 2**18

POLICY_LR = 1e-3  # Adam's step size in `train_policy`
ADAM_BETAS = (0.9, 0.999)  # Adam's decay rates of its moment estimates
ADAM_EPS = 1e-8  # Adam's guard on the second moment's root


@dataclass
class InferenceTrainConfig:
    epoch_len: int = 50  # proposals per epoch; refinement runs between epochs
    refine_steps: int = 20
    refine_batch: int = 32
    max_proposals: int = 2000
    n_starts: int = 24

    def __post_init__(self):
        require_counts(self, "epoch_len", "refine_batch", "n_starts")
        require(self, "at least 0", lambda v: v >= 0, "max_proposals", "refine_steps")


@dataclass
class PolicyTrainConfig:
    batch_m: int = 32
    steps: int = 2000
    hidden: int = 32

    def __post_init__(self):
        require_counts(self, "batch_m", "hidden")
        require(self, "at least 0", lambda v: v >= 0, "steps")


@dataclass
class GanConfig:
    n_generate: int = 50
    max_iterations: int = 8
    stop_mcr: float = 0.05

    def __post_init__(self):
        require_counts(self, "n_generate", "max_iterations")


# --- misclassification rate ---------------------------------------------------


def mcr(params: InferenceParams, dataset: Dataset, *, shape: NetworkShape, norm: SignalNorm) -> float:
    """Fraction of the dataset on the wrong side of the classifier: the
    sign of its smooth robustness at `TAU_EVAL`. A formula's exact MCR is
    `inference.exact_mcr`."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot score an empty dataset")
    vals = smooth_robustness(norm.apply(dataset.X), params, shape, TAU_EVAL)
    return float(np.mean((vals >= 0.0) != (dataset.labels > 0)))


# --- inference loss -------------------------------------------------------------


def inference_loss(X_norm, labels, params: InferenceParams, shape: NetworkShape, margin):
    """Hinge-with-margin classification loss plus gate regularization
    (weighted by BETA1), minus a reward for a large margin (BETA2), as
    (loss, grad), where grad(g) is (an InferenceParams of parameter
    gradients, the margin's gradient) for an adjoint g of the loss."""
    scores, scores_grad = smooth_robustness(X_norm, params, shape, vjp=True)
    loss, loss_grad = _loss_of_scores(scores, labels, params, margin, vjp=True)

    def grad(g):
        g_scores, g_gates, g_margin = loss_grad(g)
        g_params, _ = scores_grad(g_scores)
        g_params.gate += g_gates["gate"]
        g_params.out_gate += g_gates["out_gate"]
        return g_params, g_margin

    return loss, grad


def _loss_of_scores(vals, labels, params: InferenceParams, margin, vjp=False, sigmoids=None):
    """`inference_loss` given the classifier scores `vals`; `sigmoids`, if
    given, are the gates' (`sigmoid(gate)`, `sigmoid(out_gate)`). With vjp,
    (loss, grad), where grad(g) is (the adjoint of `vals`, a dict of the
    regularizer's gate gradients, the margin's gradient). Without it, a
    stack of K classifiers (the groups, `vals` and `margin` with a leading
    axis K) gives K losses."""
    stack = np.shape(vals)[:-1]
    slack = np.reshape(margin, stack + (1,)) - labels * vals
    hinge = np.maximum(slack, 0.0).sum(axis=-1) / slack.shape[-1]
    s_gate, s_out = sigmoids or (sigmoid(params.gate), sigmoid(params.out_gate))
    reg = s_gate.reshape(stack + (-1,)).sum(axis=-1) + s_out.sum(axis=-1)
    loss = hinge + BETA1 * reg - BETA2 * margin
    if not vjp:
        return loss

    def grad(g):
        # The hinge's subgradient at its kink is taken as 0.
        g_slack = (g / slack.size) * (slack > 0.0)
        g_reg = g * BETA1
        gates = {"gate": g_reg * s_gate * (1.0 - s_gate), "out_gate": g_reg * s_out * (1.0 - s_out)}
        return -labels * g_slack, gates, float(np.sum(g_slack)) - g * BETA2

    return loss, grad


def annealing_objective(X_norm, labels, template: InferenceParams, shape: NetworkShape):
    """The value of `inference_loss` at a flat (classifier, margin) vector laid
    out like `template` plus a trailing margin, as a float; at a (K, n) stack
    of such vectors, the K values as an array. The parameters are views of
    the vectors.

    The atom layer reads only the leading predicate and window entries. A
    one-entry memo keeps the previous vector's predicate traces and atoms.
    A vector whose atom entries equal the memo's reuses its atoms, so moves
    of the gates or the margin alone skip the atom layer. One whose atom
    entries differ from the memo's only in predicate k's entries and its
    two atoms' windows recomputes only predicate k's two atoms (and the
    traces, if the predicate moved). Any other vector recomputes every
    atom. A stack whose rows all have the same atom entries, byte for byte,
    is scored as its first row is, through the memo, and its rows share
    those atoms; any other stack computes every row's atoms at once and
    leaves its last row's in the memo. Each value is bit-identical to
    `inference_loss`.
    """
    n_atom_params = shape.n_atom_params
    n_pred_params = shape.n_pred * (shape.dim + 1)
    shapes = InferenceParams.group_shapes(shape)
    spans = layout(shapes)
    # the predicate each atom entry belongs to: pred_w rows, pred_b, then
    # win_lo and win_hi, where atoms 2k and 2k+1 are predicate k's
    preds = np.arange(shape.n_pred)
    owner = np.concatenate([np.repeat(preds, shape.dim), preds, np.tile(np.repeat(preds, 2), 2)])
    memo_key = memo_bytes = traces = ev = al = None

    def params_of(vecs) -> InferenceParams:
        # as `template.with_flat`, for one vector or a stack of them
        lead = vecs.shape[:-1]
        return InferenceParams(**{k: vecs[..., span].reshape(lead + shapes[k]) for k, span in spans.items()})

    def memo_atoms(vec, params=None):
        # one vector's atoms through the memo; `params` are its own, if the
        # caller has them
        nonlocal memo_key, memo_bytes, traces, ev, al
        key = vec[:n_atom_params]
        if key.tobytes() == memo_bytes:
            return ev, al
        params = params_of(vec[:-1]) if params is None else params
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
        memo_bytes = memo_key.tobytes()
        return ev, al

    def objective(fullvec):
        nonlocal memo_key, memo_bytes, traces, ev, al
        params = params_of(fullvec[..., :-1])
        if fullvec.ndim == 1:
            atoms = memo_atoms(fullvec, params)
        elif fullvec[:, :n_atom_params].tobytes() == fullvec[0, :n_atom_params].tobytes() * len(fullvec):
            atoms = tuple(a[None] for a in memo_atoms(fullvec[0]))
        else:
            stacked = predicate_traces(X_norm, params, shape)
            atoms = windowed_extrema(stacked, params.win_lo, params.win_hi, shape.tau)
            memo_key, traces = fullvec[-1, :n_atom_params].copy(), stacked[-1]
            memo_bytes = memo_key.tobytes()
            ev, al = (a[-1] for a in atoms)
        # the gates' sigmoids, read by both the gated layer and the regularizer
        sigmoids = sigmoid(params.gate), sigmoid(params.out_gate)
        vals = smooth_gates(atoms, params, shape, sigmoids=sigmoids)
        loss = _loss_of_scores(vals, labels, params, fullvec[..., -1], sigmoids=sigmoids)
        return float(loss) if fullvec.ndim == 1 else loss

    return objective


# --- inference training (dual annealing) ----------------------------------------


def train_inference(
    dataset: Dataset,
    shape: NetworkShape,
    cfg: InferenceTrainConfig,
    rng: np.random.Generator,
    *,
    norm: SignalNorm,
    warm_start: np.ndarray | None = None,
):
    """Fit classifier parameters plus the learnable margin.

    Global search uses Cauchy-distributed proposal moves with geometric
    cooling and Metropolis acceptance; after every epoch the incumbent is
    polished with minibatch gradient descent. The temperature starts at
    `INITIAL_TEMP` (1.0), or `REHEAT` (0.5) times that on a warm-started
    fit, and is multiplied by `TEMP_DECAY` (0.95) after each epoch.
    Deterministic per rng. Returns (params, margin, loss).
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    labels = dataset.labels.astype(float)
    if np.all(labels == 1) or np.all(labels == -1):
        raise NoNegativeData("dataset has a single label; bootstrap negatives first")
    X = norm.apply(dataset.X)

    lo_p, hi_p = param_bounds(shape, PRED_BOUND, GATE_BOUND)
    lo = np.concatenate([lo_p, [MARGIN_LO]])
    hi = np.concatenate([hi_p, [MARGIN_HI]])
    template = init_inference(shape, rng)

    objective = annealing_objective(X, labels, template, shape)

    # multi-start: keep the best of several random initializations; a warm
    # start competes against them rather than replacing them, so stale
    # incumbents cannot pin the search after the dataset shifts. They are
    # scored as stacks whose traces stay within START_CHUNK_BYTES.
    starts = [template] + [init_inference(shape, rng) for _ in range(cfg.n_starts - 1)]
    cands = np.clip([np.append(start.flatten(), 0.1) for start in starts], lo, hi)
    if warm_start is not None:
        cands = np.vstack([cands, np.clip(np.asarray(warm_start, dtype=float), lo, hi)])
    rows = max(1, START_CHUNK_BYTES // (X.itemsize * len(X) * shape.n_pred * (shape.horizon + 1)))
    losses = np.concatenate([objective(cands[i : i + rows]) for i in range(0, len(cands), rows)])
    first = int(np.argmin(losses))  # the first of least loss: a later one must be strictly less
    current, cur_loss = cands[first], float(losses[first])
    best, best_loss = current.copy(), cur_loss

    span = hi - lo
    temp = INITIAL_TEMP * (REHEAT if warm_start is not None else 1.0)
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
        refined = _refine(best, X, labels, template, shape, cfg, (lo, hi), rng)
        refined_loss = objective(refined)
        if refined_loss < best_loss:
            best, best_loss = refined, refined_loss
            current, cur_loss = refined.copy(), refined_loss
        temp *= TEMP_DECAY

    # Discrete polish: drive every gate logit to a rail whenever that does
    # not hurt the loss. Half-open gates can hide discrimination that the
    # thresholded extraction cannot see; railed gates keep the smooth and
    # extracted semantics aligned. A gate already on a rail is not tried
    # there again: that trial is the incumbent, whose loss is best_loss.
    # The rails are scored as one stack and accepted in turn; a gate that
    # moves from the upper rail to the lower has the incumbent scored again.
    spans = layout(InferenceParams.group_shapes(shape))
    for _ in range(2):
        for i in range(spans["gate"].start, spans["out_gate"].stop):
            incumbent = best
            rails = [rail for rail in (-GATE_BOUND, GATE_BOUND) if best[i] != rail]
            trials = np.repeat(best[None], len(rails), axis=0)
            trials[:, i] = rails
            for trial, trial_loss in zip(trials, objective(trials)):
                if trial_loss <= best_loss:
                    best, best_loss = trial, float(trial_loss)
            if rails == [-GATE_BOUND] and best is not incumbent:
                trial_loss = objective(incumbent)
                if trial_loss <= best_loss:
                    best, best_loss = incumbent, trial_loss

    return template.with_flat(best[:-1]), float(best[-1]), best_loss


def _refine(fullvec, X, labels, template, shape, cfg, bounds, rng):
    """Minibatch gradient descent from the incumbent, projected to bounds."""
    lo, hi = bounds
    vec = fullvec.copy()
    n = len(X)
    batch = min(cfg.refine_batch, n)
    for _ in range(cfg.refine_steps):
        idx = rng.choice(n, size=batch, replace=False)
        params = template.with_flat(vec[:-1])
        _, loss_grad = inference_loss(X[idx], labels[idx], params, shape, vec[-1])
        g_params, g_margin = loss_grad(1.0)
        vec = np.clip(vec - REFINE_LR * np.append(g_params.flatten(), g_margin), lo, hi)
    return vec


# --- policy training -------------------------------------------------------------


class Adam:
    def __init__(self, n: int, lr: float):
        self.lr = lr
        self.b1, self.b2 = ADAM_BETAS
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * g
        self.v = self.b2 * self.v + (1 - self.b2) * g * g
        mh = self.m / (1 - self.b1**self.t)
        vh = self.v / (1 - self.b2**self.t)
        return x - self.lr * mh / (np.sqrt(vh) + ADAM_EPS)


def policy_objective(policy, inf_params, env, samples, shape, norm, rule_n=None):
    """Mean smooth robustness of closed-loop rollouts of the policy from
    `samples` (initial states, environment trajectories), optionally
    conjoined with a rule already in normalized units (`normalize_formula`),
    as (objective, grad), where grad(g) is a PolicyParams of the policy's
    gradients for an adjoint g; the classifier's own gradient is not
    computed, so it cannot drift here."""
    x0s, env_trajs = samples
    raw, raw_grad = rollout(env, policy, x0s, env_trajs, vjp=True)
    mapped, map_grad = env.inference_map(raw, vjp=True)
    X, norm_grad = norm.apply(mapped, vjp=True)
    scores, scores_grad = combined_smooth(X, inf_params, shape, rule_n)

    def grad(g):
        _, gX = scores_grad(np.full(scores.shape, g / scores.size), with_params=False)
        return raw_grad(map_grad(norm_grad(gX)))

    return np.sum(scores) / scores.size, grad


def draw_samples(env, env_pool, m, rng):
    """m initial states (m, n_a) from one `sample_initial` draw, then m
    environment trajectories (m, T+1, n_e): empty for a static environment,
    else rows of the pool `original_env_pool` gives, at indices from one
    `rng.integers` draw."""
    x0s = env.sample_initial(rng, m)
    if env.n_env == 0:
        return x0s, np.zeros((m, env.T + 1, 0))
    return x0s, env_pool[rng.integers(len(env_pool), size=m)]


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
) -> PolicyParams:
    """Ascend the rollout objective with Adam; initial states and
    environment trajectories are re-drawn fresh at every step.

    `env_pool` holds the environment trajectories of the original dataset
    (N, T+1, n_e), as `original_env_pool` gives them; empty for static
    environments. The rule, if any, is normalized once for all steps."""
    rule_n = normalize_formula(rule, norm) if rule is not None else None
    flat = policy0.flatten()
    opt = Adam(flat.size, POLICY_LR)
    for _ in range(cfg.steps):
        samples = draw_samples(env, env_pool, cfg.batch_m, rng)
        _, objective_grad = policy_objective(policy0.with_flat(flat), inf_params, env, samples, shape, norm, rule_n)
        flat = opt.step(flat, -objective_grad(1.0).flatten())  # ascent
    return policy0.with_flat(flat)  # flat is this call's own array


# --- adversarial alternation ------------------------------------------------------


@dataclass(frozen=True)
class AdoptedRound:
    """A round whose classifier, formula and dataset the run keeps: round 1
    whatever its MCR, then each later round whose classifier's smooth MCR
    is at most `stop_mcr`."""
    inference: InferenceParams
    margin: float
    formula: stl.Formula
    dataset: Dataset


@dataclass(frozen=True)
class LoopState:
    """The adversarial loop at the top of round `iteration`. A boundary
    snapshot records all of it but the adopted round's formula and dataset:
    the RNG state, the policy, the dataset grown so far, the metrics of the
    rounds run, the adopted round's classifier and margin, and the signal
    normalization of the demonstrations. `adopted` is None until round 1
    ends, which is adopted whatever its MCR. `saturated` is set on the state
    at the top of the later round whose classifier's smooth MCR was above
    `stop_mcr`, where the loop stopped."""

    iteration: int
    rng_state: dict
    policy: PolicyParams
    dataset: Dataset
    metrics: tuple[dict, ...]
    adopted: AdoptedRound | None
    norm: SignalNorm
    saturated: bool = False

    @property
    def warm_start(self) -> np.ndarray | None:
        """The adopted classifier flattened, with its margin appended."""
        if self.adopted is None:
            return None
        return np.append(self.adopted.inference.flatten(), self.adopted.margin)


GENERATED_SOURCE = "policy_rollout"


def original_env_pool(dataset: Dataset, env):
    """Environment trajectories (N, T+1, n_e) of the demonstration rows (not
    policy rollouts), an EmptyDataset if there are none; [] for a static environment."""
    if env.n_env == 0:
        return []
    demonstrations = np.array([m.get("source") != GENERATED_SOURCE for m in dataset.metas], dtype=bool)
    pool = dataset.X[demonstrations, :, len(dataset.agent_names) :]
    if len(pool) == 0:
        raise EmptyDataset("no demonstration rows to draw environment trajectories from")
    return pool


def _generate_negatives(env, policy, env_pool, n, rng, tag) -> Dataset:
    raws = rollout(env, policy, *draw_samples(env, env_pool, n, rng))
    ids = [f"gen-{tag}-{i:05d}" for i in range(n)]
    return to_dataset(env, raws, [-1] * n, ids, [{"source": GENERATED_SOURCE, "round": tag}] * n)


def initial_state(dataset0: Dataset, env, pol_cfg: PolicyTrainConfig, gan_cfg: GanConfig, rng) -> LoopState:
    """The state at the top of round 1: a randomly initialized policy, the
    signal normalization of the demonstrations and, if the dataset is
    positive-only, that policy's rollouts as negatives."""
    policy = init_policy(PolicyShape.for_env(env, pol_cfg.hidden), seed=int(rng.integers(2**31)))
    dataset = dataset0
    if dataset.count(-1) == 0:
        log.info("positive-only dataset: bootstrapping %d negatives from a random policy", gan_cfg.n_generate)
        boot = _generate_negatives(env, policy, original_env_pool(dataset, env), gan_cfg.n_generate, rng, "boot")
        dataset = dataset.extended(boot)
    return LoopState(1, rng.bit_generator.state, policy, dataset, (), None, SignalNorm.from_arrays(dataset0.X))


def gan_loop(
    dataset0: Dataset,
    env,
    shape: NetworkShape,
    inf_cfg: InferenceTrainConfig,
    pol_cfg: PolicyTrainConfig,
    gan_cfg: GanConfig,
    rng: np.random.Generator,
    checkpoint_cb=None,
    resume: LoopState | None = None,
) -> LoopState:
    """Alternate classifier and policy training, appending policy rollouts
    as fresh negatives after every round, and return the final state.

    Runs from `resume`, else from `initial_state`. Every round's classifier
    is adopted but one whose smooth MCR is above `stop_mcr` after round 1;
    that round stops the loop early, and the final state is then the one at
    the top of that round, marked `saturated`, whose `adopted` is the round
    before. Otherwise it is the state after the last round. No
    environment interaction happens here beyond re-sampling stored
    trajectories.

    `checkpoint_cb(state: LoopState)` is invoked at the top of every round;
    `resume` accepts such a state and continues exactly as the run that
    made it would have.
    """
    if len(dataset0) == 0:
        raise EmptyDataset("need at least one demonstration")
    # Environment trajectories are drawn from the original dataset only, so
    # generated agent behavior never contaminates the environment model.
    env_pool = original_env_pool(dataset0, env)
    names = dataset0.dim_names
    state = resume or initial_state(dataset0, env, pol_cfg, gan_cfg, rng)
    rng.bit_generator.state = state.rng_state
    norm = state.norm

    for it in range(state.iteration, gan_cfg.max_iterations + 1):
        t0 = time.perf_counter()
        if checkpoint_cb is not None:
            checkpoint_cb(state)
        seed_inf = int(rng.integers(2**63))
        seed_pol = int(rng.integers(2**63))
        seed_gen = int(rng.integers(2**63))

        dataset = state.dataset
        inf_params, margin, loss = train_inference(
            dataset, shape, inf_cfg, np.random.default_rng(seed_inf), norm=norm, warm_start=state.warm_start
        )
        mcr_smooth = mcr(inf_params, dataset, shape=shape, norm=norm)
        formula = extract_formula(inf_params, shape, norm, names)
        formula = simplify(formula, dataset.X, names, dataset.labels)
        mcr_exact_val = exact_mcr(formula, dataset.X, names, dataset.labels)
        log.info("iteration %d: smooth MCR %.4f, exact MCR %.4f, loss %.4f", it, mcr_smooth, mcr_exact_val, loss)

        if state.adopted is not None and mcr_smooth > gan_cfg.stop_mcr:
            # The policy's rollouts have become indistinguishable from the
            # demonstrations; keep the last round that still separated.
            log.info("stopping: classifier saturated (MCR %.3f)", mcr_smooth)
            return replace(state, saturated=True)

        policy = train_policy(
            state.policy, inf_params, env, env_pool, pol_cfg, np.random.default_rng(seed_pol), shape=shape, norm=norm
        )

        gen_rng = np.random.default_rng(seed_gen)
        generated = _generate_negatives(env, policy, env_pool, gan_cfg.n_generate, gen_rng, f"it{it}")
        gen_X = norm.apply(generated.X)
        mean_rob = float(np.mean(smooth_robustness(gen_X, inf_params, shape, TAU_EVAL)))

        row = {
            "iteration": it,
            "mcr_smooth": mcr_smooth,
            "mcr_exact": mcr_exact_val,
            "mean_policy_robustness": mean_rob,
            "loss": loss,
            "wall_time_s": time.perf_counter() - t0,
            "dataset_size": len(dataset),
        }
        state = replace(
            state, iteration=it + 1, rng_state=rng.bit_generator.state, policy=policy,
            # these rollouts feed the next round's classifier
            dataset=dataset.extended(generated) if it < gan_cfg.max_iterations else dataset,
            metrics=state.metrics + (row,), adopted=AdoptedRound(inf_params, margin, formula, dataset),
        )
    return state
