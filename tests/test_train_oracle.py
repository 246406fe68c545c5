"""The classifier fit against its sequential form in `oracle_anneal`, bit
for bit: the fit's classifier, margin and loss, over both environments,
several shapes and seeds, warm and cold starts, one start, no proposals,
starts scored in one stack or one at a time, and a polish that moves a
gate off the upper rail; and the annealing objective's stacks against the
same vectors scored one at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlmimic import train
from stlmimic.envs import make_env
from stlmimic.inference import InferenceParams, NetworkShape, SignalNorm, init_inference, param_bounds
from stlmimic.policy import PolicyShape, init_policy
from stlmimic.train import InferenceTrainConfig, train_inference

import oracle_anneal
from test_train import replay_polish, scored_rows, toy_dataset


def _dataset(env_name: str, seed: int):
    """A small labelled dataset: driving's four situations, or unicycle
    demonstrations with a random policy's rollouts as negatives."""
    rng = np.random.default_rng(seed)
    env = make_env(env_name)
    if env_name == "driving":
        return env, env.gen_dataset(2, rng)
    policy = init_policy(PolicyShape.for_env(env, 8), seed=seed)
    return env, env.gen_expert(6, rng).extended(train._generate_negatives(env, policy, [], 6, rng, "neg"))


def _fit_both(ds, shape, cfg, seed, warm_start=None):
    norm = SignalNorm.from_arrays(ds.X)
    got = train_inference(ds, shape, cfg, np.random.default_rng(seed), norm=norm, warm_start=warm_start)
    want = oracle_anneal.train_inference(ds, shape, cfg, np.random.default_rng(seed), norm=norm, warm_start=warm_start)
    return got, want


def _assert_same_fit(got, want):
    (params, margin, loss), (want_params, want_margin, want_loss) = got, want
    assert np.array_equal(params.flatten(), want_params.flatten())
    assert margin == want_margin and loss == want_loss
    assert type(loss) is float


# (environment, n_pred, n_conj, seed, warm-started, n_starts, max_proposals)
FITS = [
    ("driving", 8, 2, 1, False, 24, 50),
    ("unicycle", 6, 2, 2, True, 24, 50),
    ("driving", 1, 1, 3, True, 2, 10),
    ("unicycle", 1, 1, 4, False, 1, 20),
    ("driving", 3, 1, 5, False, 1, 0),
    ("unicycle", 2, 3, 6, True, 5, 0),
]


@pytest.mark.parametrize("chunk", [None, 1, 10**9])
@pytest.mark.parametrize("env_name, n_pred, n_conj, seed, warm, n_starts, max_proposals", FITS)
def test_fit_matches_the_sequential_oracle(
    monkeypatch, env_name, n_pred, n_conj, seed, warm, n_starts, max_proposals, chunk
):
    """At the default start-chunk budget, with every start scored alone, and
    with all of them in one stack."""
    if chunk is not None:
        monkeypatch.setattr(train, "START_CHUNK_BYTES", chunk)
    env, ds = _dataset(env_name, seed)
    shape = NetworkShape(n_pred=n_pred, n_conj=n_conj, horizon=env.T, dim=ds.X.shape[2], tau=0.1)
    cfg = InferenceTrainConfig(max_proposals=max_proposals, refine_steps=2, refine_batch=4, n_starts=n_starts)
    warm_start = np.append(init_inference(shape, np.random.default_rng(seed + 100)).flatten(), 0.3) if warm else None
    _assert_same_fit(*_fit_both(ds, shape, cfg, seed, warm_start))


def test_polish_rescores_the_incumbent_after_an_upper_rail_gate_flips(monkeypatch):
    """A warm start with every gate on a rail whose flips leave the loss's
    bits alone: the polish moves a gate from +GATE_BOUND to -GATE_BOUND at
    an equal loss, scores the old incumbent again, and takes it back. The
    fit matches the oracle, and the polish scores exactly the sequential
    loop's rows."""
    monkeypatch.setattr(train, "BETA1", 0.0)
    ds = toy_dataset()
    shape = NetworkShape(n_pred=2, n_conj=1, horizon=3, dim=1, tau=0.01)
    g = train.GATE_BOUND
    # predicate 1 is the constant 3, far above predicate 0 on every signal,
    # so that its atoms' gates do not move the smooth minimum's bits
    warm = InferenceParams(
        pred_w=np.array([[1.0], [0.0]]), pred_b=np.array([0.0, -3.0]), win_lo=np.zeros(4),
        win_hi=np.full(4, 3.0), gate=np.array([[g, -g, -g, g]]), out_gate=np.array([g]),
    )
    warm_start = np.append(warm.flatten(), 0.3)
    cfg = InferenceTrainConfig(max_proposals=0, n_starts=1)
    _assert_same_fit(*_fit_both(ds, shape, cfg, 7, warm_start))

    calls, refines = scored_rows(monkeypatch)
    params, margin, loss = train_inference(
        ds, shape, cfg, np.random.default_rng(7), norm=SignalNorm.from_arrays(ds.X), warm_start=warm_start
    )
    assert refines == []
    assert np.array_equal(calls[1][0], warm_start)
    best, best_loss, _, rescored = replay_polish(calls, 2, shape)
    assert rescored > 0
    assert np.array_equal(np.append(params.flatten(), margin), best) and loss == best_loss


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_stack_scores_each_row_as_one_vector_does(data):
    """Stacks whose rows share their atom entries (moves of the gates and the
    margin), with one another or also with the vector scored last, and
    stacks whose rows do not: each loss is the one the oracle's
    sequential objective gives that row alone, bit for bit. Single vectors
    scored after a stack, in any order, get the oracle's values too: its
    first row, a fresh vector, and moves of one predicate entry and of one
    window entry from its last row."""
    draw = data.draw
    shape = NetworkShape(
        n_pred=draw(st.integers(1, 3)), n_conj=draw(st.integers(1, 3)),
        horizon=draw(st.integers(1, 6)), dim=draw(st.integers(1, 3)), tau=0.1,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    X = rng.normal(size=(n, shape.horizon + 1, shape.dim))
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    template = init_inference(shape, rng)
    lo, hi = param_bounds(shape, train.PRED_BOUND, train.GATE_BOUND)
    lo, hi = np.append(lo, train.MARGIN_LO), np.append(hi, train.MARGIN_HI)

    def vector():
        return rng.uniform(lo, hi)

    objective = train.annealing_objective(X, labels, template, shape)
    last = vector()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 4))
        rows = draw(st.sampled_from(["distinct", "shared", "shared with the last vector scored"]))
        if rows == "distinct":
            stack = np.array([vector() for _ in range(k)])
        else:
            stack = np.repeat((vector() if rows == "shared" else last)[None], k, axis=0)
            stack[:, shape.n_atom_params :] = [vector()[shape.n_atom_params :] for _ in range(k)]
        losses = objective(stack)
        assert losses.shape == (k,)
        for row, loss in zip(stack, losses):
            assert loss == oracle_anneal.annealing_objective(X, labels, template, shape)(row.copy())
        # a move of one predicate entry, and one of a window, from the last row
        n_pred_params = shape.n_pred * (shape.dim + 1)
        singles = [stack[0], vector()]
        for entries in (range(n_pred_params), range(n_pred_params, shape.n_atom_params)):
            singles.append(stack[-1].copy())
            i = draw(st.sampled_from(entries))
            singles[-1][i] = rng.uniform(lo[i], hi[i])
        for last in (singles[j] for j in draw(st.permutations(range(4)))):
            value = objective(last.copy())
            assert type(value) is float
            assert value == oracle_anneal.annealing_objective(X, labels, template, shape)(last.copy())
