"""The policy path against its plain form in `oracle_policy`, bit for bit:
the rollout, its BPTT gradient, the classifier's scores and VJP, and the
policy objective with its gradient, over seeded random horizons, batch and
hidden sizes, on both environments, with and without an injected rule."""

import numpy as np
import pytest

from stlmimic import stl, train
from stlmimic.envs import make_env
from stlmimic.inference import NetworkShape, SignalNorm, init_inference, normalize_formula, smooth_robustness
from stlmimic.policy import PolicyShape, init_policy, rollout

import helpers
import oracle_policy

# Per environment, a rule with a window to T, and one whose windows end at
# T // 2, so that t=0 reads its predicates over fewer steps than X holds.
RULES = {
    "unicycle": (
        "G[0,{T}](dO >= 1.5) | F[{t1},{t2}](dA - 0.5*dB <= 3)",
        "F[0,{h}](dA <= 1) & G[1,{h}](dO >= 1.5)",
    ),
    "driving": (
        "G[0,{T}](veg <= 6) & F[{t1},{t2}](pot - peg >= 2)",
        "G[0,{h}](veg <= 6) | F[1,{h}](pot - peg >= 2)",
    ),
}


def _case(env_name: str, seed: int):
    """A random horizon, batch, policy, classifier and signal normalization,
    and the environment's rules in raw units."""
    rng = np.random.default_rng(seed)
    env = make_env(env_name)
    env.T = T = int(rng.integers(2, type(env).T + 1))
    n, hidden = int(rng.integers(1, 41)), int(rng.integers(1, 41))
    policy = init_policy(PolicyShape.for_env(env, hidden), rng)
    policy = policy.with_flat(policy.flatten() * rng.uniform(0.5, 3.0))
    x0s = env.sample_initial(rng, n)
    if env.n_env:
        env_trajs = helpers.lead_profiles(env, rng, -(-n // 4))[:n]
    else:
        env_trajs = np.zeros((n, T + 1, 0))
    dim = len(env.inference_names)
    shape = NetworkShape(int(rng.integers(1, 9)), int(rng.integers(1, 4)), T, dim, float(rng.uniform(0.05, 1.0)))
    inf = init_inference(shape, rng)
    norm = SignalNorm.from_arrays(env.inference_map(rollout(env, policy, x0s, env_trajs)))
    t1 = int(rng.integers(0, T + 1))
    t2 = int(rng.integers(t1, T + 1))
    rules = [stl.parse(text.format(T=T, t1=t1, t2=t2, h=T // 2), env.inference_names) for text in RULES[env_name]]
    return rng, env, policy, (x0s, env_trajs), shape, inf, norm, rules


def _same(a, b) -> bool:
    return np.array_equal(a.flatten(), b.flatten())


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("env_name", ["unicycle", "driving"])
def test_rollout_and_its_gradient_match_the_oracle(env_name, seed):
    rng, env, policy, samples, *_ = _case(env_name, seed)
    raw, grad = rollout(env, policy, *samples, vjp=True)
    want, want_grad = oracle_policy.rollout(env, policy, *samples)
    assert np.array_equal(raw, want)
    assert np.array_equal(rollout(env, policy, *samples), want)
    g = rng.normal(size=raw.shape)
    assert _same(grad(g), want_grad(g))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("env_name", ["unicycle", "driving"])
def test_classifier_scores_and_gradients_match_the_oracle(env_name, seed):
    rng, env, policy, samples, shape, inf, norm, _ = _case(env_name, seed)
    X = norm.apply(env.inference_map(rollout(env, policy, *samples)))
    scores, grad = smooth_robustness(X, inf, shape, vjp=True)
    want, want_grad = oracle_policy.smooth_robustness(X, inf, shape)
    assert np.array_equal(scores, want)
    g = rng.normal(size=scores.shape)
    (g_params, gX), (want_params, want_gX) = grad(g), want_grad(g)
    assert _same(g_params, want_params) and np.array_equal(gX, want_gX)
    no_params, signal_only = grad(g, with_params=False)
    assert no_params is None and np.array_equal(signal_only, want_gX)


@pytest.mark.parametrize("which_rule", [None, 0, 1], ids=["net", "rule", "early_rule"])
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("env_name", ["unicycle", "driving"])
def test_policy_objective_and_its_gradient_match_the_oracle(env_name, seed, which_rule):
    _, env, policy, samples, shape, inf, norm, rules = _case(env_name, seed)
    rule = None if which_rule is None else normalize_formula(rules[which_rule], norm)
    value, grad = train.policy_objective(policy, inf, env, samples, shape, norm, rule)
    want, want_grad = oracle_policy.policy_objective(policy, inf, env, samples, shape, norm, rule)
    assert value == want
    assert _same(grad(1.0), want_grad(1.0))
