import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlmimic import stl, train
from stlmimic.dataio import Dataset
from stlmimic.envs import DrivingEnv, UnicycleEnv
from stlmimic.inference import (
    InferenceParams,
    NetworkShape,
    SignalNorm,
    exact_mcr,
    init_inference,
    normalize_formula,
    param_bounds,
    smooth_robustness,
)
from stlmimic.params import layout
from stlmimic.policy import PolicyShape, init_policy, rollout
from stlmimic.train import (
    Adam,
    EmptyDataset,
    GanConfig,
    InferenceTrainConfig,
    NoNegativeData,
    PolicyTrainConfig,
    gan_loop,
    inference_loss,
    mcr,
    original_env_pool,
    policy_objective,
    train_inference,
    train_policy,
)

import helpers
from helpers import finite_diff_check


def one_dim_dataset(X, labels):
    """A dataset over the one signal x0 with states X (N, T+1)."""
    X = np.asarray(X, dtype=float)
    return Dataset(X[:, :, None], labels, [f"t{i}" for i in range(len(X))], [{} for _ in X], ("x0",))


def const_dataset(values, labels, T=3):
    """One constant x0 trajectory per value."""
    return one_dim_dataset(np.repeat(np.asarray(values, dtype=float)[:, None], T + 1, axis=1), labels)


def toy_dataset(rng=None, n=8, T=3):
    """Positives sit at x0 >= 1, negatives at x0 <= -1."""
    rng = rng or np.random.default_rng(0)
    values, labels = [], []
    for i in range(n):
        pos = i % 2 == 0
        values.append(rng.uniform(1.0, 2.0) if pos else rng.uniform(-2.0, -1.0))
        labels.append(1 if pos else -1)
    return const_dataset(values, labels, T)


def atom_layer_widths(monkeypatch):
    """The number of predicates whose atoms each atom-layer computation in
    `train` computes, in call order: every predicate for a full one."""
    widths = []
    extrema = train.windowed_extrema
    monkeypatch.setattr(
        train, "windowed_extrema", lambda traces, *a: widths.append(traces.shape[1]) or extrema(traces, *a)
    )
    return widths


def scored_rows(monkeypatch):
    """The (vector, loss) of each row that `train_inference`'s objective
    scores, one per vector whether it came alone or in a stack, in order,
    and the number of rows scored before each refine."""
    calls, refines = [], []
    make_objective, refine = train.annealing_objective, train._refine

    def recording(*args):
        objective = make_objective(*args)

        def scored(vecs):
            losses = objective(vecs)
            calls.extend(zip(np.atleast_2d(vecs).copy(), np.atleast_1d(losses)))
            return losses

        return scored

    monkeypatch.setattr(train, "annealing_objective", recording)
    monkeypatch.setattr(train, "_refine", lambda *a: refines.append(len(calls)) or refine(*a))
    return calls, refines


def replay_polish(calls, first, shape):
    """Replay the polish over the rows scored from index `first` on against
    the sequential loop, whose incumbent is the first row of least loss
    before it: each row must be the incumbent with one gate on a rail it
    does not hold, taken when its loss is at most the incumbent's, and a
    gate taken from +GATE_BOUND to -GATE_BOUND has the old incumbent scored
    next. Returns (best, best_loss, rows scored, old incumbents scored)."""
    annealed, polish = calls[:first], iter(calls[first:])
    best, best_loss = annealed[int(np.argmin([loss for _, loss in annealed]))]
    spans = layout(InferenceParams.group_shapes(shape))
    scored = rescored = 0
    for _ in range(2):
        for i in range(spans["gate"].start, spans["out_gate"].stop):
            incumbent = best
            for rail in (-train.GATE_BOUND, train.GATE_BOUND):
                if best[i] == rail:
                    continue
                vec, loss = next(polish)
                want = best.copy()
                want[i] = rail
                assert np.array_equal(vec, want)
                scored += 1
                rescored += np.array_equal(vec, incumbent)
                if loss <= best_loss:
                    best, best_loss = vec, loss
    assert next(polish, None) is None
    return best, best_loss, scored, rescored


def formula_mcr(f, ds):
    return exact_mcr(f, ds.X, ds.dim_names, ds.labels)


class TestMcr:
    def test_formula_examples(self):
        f = stl.parse("x0 >= 0", ("x0",))
        ds = const_dataset([1.0, 2.0, -1.0, -2.0], [1, 1, -1, -1])
        assert formula_mcr(f, ds) == 0.0
        ds_one_wrong = const_dataset([1.0, 2.0, -1.0, 0.5], [1, 1, -1, -1])
        assert formula_mcr(f, ds_one_wrong) == 0.25

    def test_true_satisfies_everything(self):
        ds = const_dataset([1, 2, 3, -1], [1, 1, 1, -1])
        assert formula_mcr(stl.TrueFormula(), ds) == 0.25

    def test_empty_dataset(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = helpers.encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        with pytest.raises(EmptyDataset):
            mcr(params, const_dataset([], []), shape=shape, norm=norm)
        with pytest.raises(ValueError):
            exact_mcr(stl.TrueFormula(), np.zeros((0, 4, 1)), ("x0",), [])

    def test_matches_exhaustive_enumeration(self):
        # Tiny datasets, every (satisfies, label) combination enumerated by hand.
        rng = np.random.default_rng(3)
        f = stl.parse("F[0,2](x0 >= 0.5)", ("x0",))
        for _ in range(20):
            n = int(rng.integers(1, 9))
            rows, labels = [], []
            for i in range(n):
                rows.append(rng.uniform(-2, 2, size=4))
                labels.append(1 if rng.random() < 0.5 else -1)
            ds = one_dim_dataset(rows, labels)
            expected = sum(1 for x, label in zip(rows, labels) if (x[0:3].max() >= 0.5) != (label == 1)) / n
            assert formula_mcr(f, ds) == pytest.approx(expected, abs=1e-12)

    def test_smooth_agrees_with_hand_gates(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = helpers.encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        ds = toy_dataset()
        assert mcr(params, ds, shape=shape, norm=norm) == 0.0

    def test_reads_at_the_evaluation_temperature(self):
        # the signal's exact robustness is -0.1; at the shape's temperature
        # 1.0 it scores positive, at TAU_EVAL negative, as its label says
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=1.0)
        norm = SignalNorm.identity(1)
        params = helpers.encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        ds = one_dim_dataset([[-0.1, 2.0, 2.0, 2.0]], [-1])
        assert smooth_robustness(ds.X, params, shape)[0] > 0.0
        assert mcr(params, ds, shape=shape, norm=norm) == 0.0


class TestInferenceLoss:
    @pytest.fixture(autouse=True)
    def _no_gate_penalty(self, monkeypatch):
        monkeypatch.setattr(train, "BETA1", 0.0)

    def _loss_for(self, value, label, margin):
        # Single degenerate network whose output is ~value on this signal.
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = helpers.encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        X = np.full((1, 4, 1), float(value))
        return inference_loss(X, np.array([float(label)]), params, shape, margin)[0]

    def test_positive_sample_inside_margin(self):
        # value 0.5, label +1, margin 0.1 -> hinge 0; -BETA2 * margin = -0.01
        out = self._loss_for(0.5, +1, margin=0.1)
        assert out == pytest.approx(-0.01, abs=2e-3)

    def test_negative_sample_violating(self, monkeypatch):
        # value 0.5, label -1 -> hinge = 0.1 + 0.5 = 0.6 (minus margin bonus)
        monkeypatch.setattr(train, "BETA2", 0.0)
        out = self._loss_for(0.5, -1, margin=0.1)
        assert out == pytest.approx(0.6, abs=2e-3)

    def test_two_samples_average(self, monkeypatch):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = helpers.encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        monkeypatch.setattr(train, "BETA2", 0.0)
        X = np.stack([np.full((4, 1), 0.5), np.full((4, 1), 0.5)])
        both = inference_loss(X, np.array([1.0, -1.0]), params, shape, 0.1)[0]
        only_neg = inference_loss(X[1:], np.array([-1.0]), params, shape, 0.1)[0]
        assert both == pytest.approx(only_neg / 2, abs=2e-3)


class TestTrainInference:
    CFG = InferenceTrainConfig(max_proposals=240, epoch_len=40, refine_steps=10, refine_batch=8)

    def test_separable_toy_reaches_zero_mcr(self):
        ds = toy_dataset()
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.1)
        norm = SignalNorm.from_arrays(ds.X)
        params, margin, loss = train_inference(
            ds, shape, self.CFG, np.random.default_rng(7), norm=norm
        )
        assert mcr(params, ds, shape=shape, norm=norm) == 0.0
        assert train.MARGIN_LO <= margin <= train.MARGIN_HI

    def test_same_seed_identical(self):
        ds = toy_dataset()
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.1)
        norm = SignalNorm.from_arrays(ds.X)
        outs = []
        for _ in range(2):
            p, m, loss = train_inference(ds, shape, self.CFG, np.random.default_rng(11), norm=norm)
            outs.append(np.concatenate([p.flatten(), [m]]))
        assert np.array_equal(outs[0], outs[1])

    def test_loss_not_worse_than_start(self):
        ds = toy_dataset()
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=3, dim=1, tau=0.1)
        norm = SignalNorm.from_arrays(ds.X)
        rng = np.random.default_rng(13)
        start = np.concatenate([init_inference(shape, rng).flatten(), [0.1]])
        p, m, loss = train_inference(
            ds, shape, self.CFG, np.random.default_rng(13), norm=norm, warm_start=start
        )
        start_loss, _ = inference_loss(
            norm.apply(ds.X), ds.labels.astype(float),
            init_inference(shape, np.random.default_rng(13)).with_flat(start[:-1]), shape, 0.1
        )
        assert loss <= start_loss + 1e-12

    def test_memoised_objective_replays_inference_loss_bit_for_bit(self, monkeypatch):
        env = DrivingEnv()
        ds = env.gen_dataset(2, np.random.default_rng(5))
        shape = NetworkShape(n_pred=3, n_conj=2, horizon=env.T, dim=4, tau=0.1)
        norm = SignalNorm.from_arrays(ds.X)
        X, labels = norm.apply(ds.X), ds.labels.astype(float)
        rng = np.random.default_rng(19)
        template = init_inference(shape, rng)
        assert shape.n_atom_params == sum(
            getattr(template, k).size for k in ("pred_w", "pred_b", "win_lo", "win_hi")
        )
        n_gate = template.gate.size + template.out_gate.size
        win = slice(template.pred_w.size + template.pred_b.size, shape.n_atom_params)

        v0 = np.concatenate([template.flatten(), [0.1]])
        full = v0 + rng.normal(0.0, 0.3, v0.size)
        gates = full.copy()
        gates[shape.n_atom_params : shape.n_atom_params + n_gate] += rng.normal(0.0, 1.0, n_gate)
        window = gates.copy()
        window[win] += 0.7
        margin = window.copy()
        margin[-1] = 0.4
        replay = [v0, full, gates, window, margin, margin, full, gates, v0]

        widths = atom_layer_widths(monkeypatch)
        objective = train.annealing_objective(X, labels, template, shape)
        for vec in replay:
            params = template.with_flat(vec[:-1])
            want = float(inference_loss(X, labels, params, shape, float(vec[-1]))[0])
            assert objective(vec.copy()) == want
        # every atom recomputed for v0, full, window, full and v0, each of which
        # moves more than one predicate; reused for the rest
        assert widths == [shape.n_pred] * 5

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_memo_replays_inference_loss_over_random_moves(self, data):
        """Chains of one-entry moves in every group, moves of every entry,
        repeats and returns to the vector before last: each value is
        inference_loss's, bit for bit. A move within one predicate's entries
        and its two atoms' windows recomputes that predicate's atoms alone,
        a move of more predicates all of them, and any other reuses them."""
        draw = data.draw
        shape = NetworkShape(
            n_pred=draw(st.integers(1, 3)), n_conj=draw(st.integers(1, 2)),
            horizon=draw(st.integers(1, 5)), dim=draw(st.integers(1, 3)), tau=0.1,
        )
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(2, 6))
        X = rng.normal(size=(n, shape.horizon + 1, shape.dim))
        labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        template = init_inference(shape, rng)
        lo, hi = param_bounds(shape, train.PRED_BOUND, train.GATE_BOUND)
        lo, hi = np.append(lo, train.MARGIN_LO), np.append(hi, train.MARGIN_HI)
        spans = {**layout(InferenceParams.group_shapes(shape)), "margin": slice(lo.size - 1, lo.size)}
        # the predicate that each atom entry belongs to, read through the layout
        pair = np.arange(shape.n_atoms) // 2
        owner = InferenceParams(
            pred_w=np.repeat(np.arange(shape.n_pred)[:, None], shape.dim, axis=1), pred_b=np.arange(shape.n_pred),
            win_lo=pair, win_hi=pair, gate=template.gate, out_gate=template.out_gate,
        ).flatten()[: shape.n_atom_params]

        vecs = [np.clip(np.append(template.flatten(), 0.1), lo, hi)]
        moves = draw(st.lists(st.sampled_from(list(spans) + ["every", "repeat", "back"]), max_size=12))
        for move in moves:
            vec = vecs[-2 if move == "back" and len(vecs) > 1 else -1].copy()
            if move == "every":
                vec = np.clip(vec + rng.normal(0.0, 0.25, vec.size) * (hi - lo), lo, hi)
            elif move in spans:
                i = draw(st.integers(spans[move].start, spans[move].stop - 1))
                vec[i] = rng.uniform(lo[i], hi[i])
            vecs.append(vec)

        want_widths, prev = [], None
        with pytest.MonkeyPatch.context() as mp:
            widths = atom_layer_widths(mp)
            objective = train.annealing_objective(X, labels, template, shape)
            for vec in vecs:
                params = template.with_flat(vec[:-1])
                assert objective(vec.copy()) == float(inference_loss(X, labels, params, shape, float(vec[-1]))[0])
                atom_entries = slice(0, shape.n_atom_params)
                moved = None if prev is None else set(owner[vec[atom_entries] != prev[atom_entries]].tolist())
                if moved is None or len(moved) > 1:
                    want_widths.append(shape.n_pred)
                elif moved:
                    want_widths.append(1)
                prev = vec
        assert widths == want_widths

    def test_polish_never_scores_the_incumbent(self, monkeypatch):
        ds = toy_dataset()
        shape = NetworkShape(n_pred=2, n_conj=2, horizon=3, dim=1, tau=0.1)
        norm = SignalNorm.from_arrays(ds.X)
        calls, refines = scored_rows(monkeypatch)
        params, margin, fit_loss = train_inference(ds, shape, self.CFG, np.random.default_rng(7), norm=norm)

        # the last refined vector is scored right after its refine; the polish follows
        best, best_loss, scored, _ = replay_polish(calls, refines[-1] + 1, shape)
        assert np.array_equal(np.append(params.flatten(), margin), best) and fit_loss == best_loss
        assert scored < 2 * 2 * shape.n_conj * (shape.n_atoms + 1)  # two rails of each gate, twice

    @pytest.mark.parametrize("max_proposals", [0, 240, 250])
    def test_each_epoch_draws_epoch_len_proposals_then_refines(self, monkeypatch, max_proposals):
        """After the starts are scored, each epoch scores up to epoch_len
        proposals, max_proposals in all, then refines and scores the result."""
        ds = toy_dataset()
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.1)
        calls, refines = scored_rows(monkeypatch)
        cfg = dataclasses.replace(self.CFG, max_proposals=max_proposals)
        train_inference(ds, shape, cfg, np.random.default_rng(7), norm=SignalNorm.from_arrays(ds.X))
        epochs = [min(cfg.epoch_len, max_proposals - s) for s in range(0, max_proposals, cfg.epoch_len)]
        assert refines == [cfg.n_starts + sum(epochs[: k + 1]) + k for k in range(len(epochs))]

    def test_result_is_not_a_view_of_the_flat_vector(self):
        """The loss returned is the annealing objective's at the returned
        classifier and margin, and the classifier shares no memory with the
        warm start it was given."""
        ds = toy_dataset()
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.1)
        norm = SignalNorm.from_arrays(ds.X)
        warm = np.append(init_inference(shape, np.random.default_rng(3)).flatten(), 0.5)
        template = init_inference(shape, np.random.default_rng(7))
        params, margin, loss = train_inference(
            ds, shape, self.CFG, np.random.default_rng(7), norm=norm, warm_start=warm
        )
        objective = train.annealing_objective(norm.apply(ds.X), ds.labels.astype(float), template, shape)
        assert objective(np.append(params.flatten(), margin)) == loss
        assert not any(np.shares_memory(a, warm) for a in vars(params).values())

    def test_warm_start_alone_reheats(self, monkeypatch):
        """A fit's initial temperature is INITIAL_TEMP, times REHEAT when it
        is warm-started: a warm-started fit at (1.0, 0.5) is bit for bit one
        at (0.5, 1.0) and not one at (1.0, 1.0); a cold fit ignores REHEAT.
        Each epoch cools by TEMP_DECAY."""
        ds = toy_dataset()
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=3, dim=1, tau=0.1)
        norm = SignalNorm.from_arrays(ds.X)
        warm = np.append(init_inference(shape, np.random.default_rng(3)).flatten(), 0.5)

        def fit(initial_temp, reheat, warm_start):
            monkeypatch.setattr(train, "INITIAL_TEMP", initial_temp)
            monkeypatch.setattr(train, "REHEAT", reheat)
            p, m, loss = train_inference(ds, shape, self.CFG, np.random.default_rng(7), norm=norm, warm_start=warm_start)
            return np.append(p.flatten(), [m, loss])

        # the schedule training has always used
        assert (train.INITIAL_TEMP, train.TEMP_DECAY, train.REHEAT) == (1.0, 0.95, 0.5)
        assert np.array_equal(fit(1.0, 0.5, warm), fit(0.5, 1.0, warm))
        assert not np.array_equal(fit(1.0, 0.5, warm), fit(1.0, 1.0, warm))
        cold = fit(1.0, 0.5, None)
        assert np.array_equal(cold, fit(1.0, 1.0, None))
        assert not np.array_equal(cold, fit(0.5, 1.0, None))
        monkeypatch.setattr(train, "TEMP_DECAY", 0.5)
        assert not np.array_equal(cold, fit(1.0, 0.5, None))

    def test_single_label_rejected(self):
        ds = const_dataset([1.0, 2.0], [1, 1])
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.1)
        norm = SignalNorm.from_arrays(ds.X)
        with pytest.raises(NoNegativeData):
            train_inference(ds, shape, self.CFG, np.random.default_rng(0), norm=norm)


class TestPolicyObjective:
    def _setup(self):
        env = DrivingEnv()
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=57, dim=4, tau=0.1)
        norm = SignalNorm(
            mid=(100.0, 5.0, 100.0, 5.0), halfrange=(100.0, 6.0, 100.0, 6.0)
        )
        # reward ego velocity above 2 over the back half of the horizon
        params = helpers.encode_dnf(
            [[("G", 30, 57, (0.0, 1.0, 0.0, 0.0), 2.0)]], shape, norm
        )
        return env, shape, norm, params

    def test_single_sample_equals_rollout_value(self):
        env, shape, norm, inf = self._setup()
        rng = np.random.default_rng(17)
        policy = init_policy(PolicyShape(4, 4, 1), seed=1)
        env_traj = helpers.lead_profiles(env, rng)[1]  # the lead keeps going
        x0s, env_trajs = np.array([[1.0, 0.0]]), env_traj[None]
        v1, _ = policy_objective(policy, inf, env, (x0s, env_trajs), shape, norm)
        v2, _ = policy_objective(
            policy, inf, env, (np.repeat(x0s, 2, 0), np.repeat(env_trajs, 2, 0)), shape, norm
        )
        assert v2 == pytest.approx(v1, abs=1e-12)  # duplicating leaves the mean alone

    def test_value_path_is_plain_and_matches_the_vjp_path_bit_for_bit(self):
        """The layers that keep a value path return a plain value equal to
        their VJP path's. Both objectives have only the VJP path; their
        values equal, bit for bit, those composed from the value layers."""
        env, shape, norm, inf = self._setup()
        rng = np.random.default_rng(43)
        policy = init_policy(PolicyShape(4, 5, 1), seed=3)
        samples = (
            np.array([[0.5, 0.0], [2.0, 0.0], [1.0, 0.0]]),
            helpers.lead_profiles(env, rng)[[0, 1, 3]],  # braking, going, braking
        )
        rule = stl.parse("G[0,57](veg <= 6)", env.inference_names)
        raw = rollout(env, policy, *samples)
        X = norm.apply(raw)
        labels = np.array([1.0, -1.0, 1.0])
        calls = [
            lambda vjp: rollout(env, policy, *samples, vjp=vjp),
            lambda vjp: smooth_robustness(X, inf, shape, vjp=vjp),
        ]
        for call in calls:
            plain = call(False)
            value, grad = call(True)
            assert isinstance(plain, (np.ndarray, np.floating)) and callable(grad)
            assert np.array_equal(value, plain)

        rule_n = normalize_formula(rule, norm)
        rule_scores = stl.smooth_robustness(X, rule_n, shape.tau)[0]
        scores = stl.smin(np.stack([smooth_robustness(X, inf, shape), rule_scores]), shape.tau, 0)
        value, grad = policy_objective(policy, inf, env, samples, shape, norm, rule_n)
        assert value == np.sum(scores) / scores.size and callable(grad)
        value, grad = inference_loss(X, labels, inf, shape, 0.2)
        assert value == train._loss_of_scores(smooth_robustness(X, inf, shape), labels, inf, 0.2)
        assert callable(grad)

    def test_gradient_matches_fd(self):
        # Both environments, each with and without an injected rule, as
        # `adjust --retrain` trains it. On these rollouts both rules score
        # below their classifier, so the rule is the binding term of the
        # smooth minimum.
        env, shape, norm, inf = self._setup()
        rng = np.random.default_rng(19)
        env_traj = helpers.lead_profiles(env, rng)[0]  # the lead brakes
        uni = UnicycleEnv()
        uni_shape = NetworkShape(n_pred=1, n_conj=1, horizon=20, dim=4, tau=0.1)
        uni_norm = SignalNorm(mid=(5.0, 5.0, 5.0, 5.0), halfrange=(5.0, 5.0, 5.0, 5.0))
        uni_inf = helpers.encode_dnf(
            [[("G", 0, 20, (0.0, 0.0, 1.0, 0.0), 0.0)]], uni_shape, uni_norm
        )
        driving = (
            env, shape, norm, inf, PolicyShape(4, 3, 1),
            (np.array([[0.5, 0.0], [2.0, 0.0]]), np.stack([env_traj, env_traj])),
        )
        unicycle = (
            uni, uni_shape, uni_norm, uni_inf, PolicyShape(3, 3, 2),
            (np.array([[1.0, 1.5, 0.3], [1.8, 0.7, 1.2]]), np.zeros((2, 21, 0))),
        )
        drv_rule = stl.parse("G[0,57](veg <= 6) & F[20,40](peg - pot <= -3)", env.inference_names)
        uni_rule = stl.parse("G[0,20](dO >= 1.5)", uni.inference_names)
        cases = [
            (*driving, None),
            (*driving, normalize_formula(drv_rule, norm)),
            (*unicycle, None),
            (*unicycle, normalize_formula(uni_rule, uni_norm)),
        ]
        for env_i, shape_i, norm_i, inf_i, pshape, samples, rule in cases:

            def f(policy):
                return policy_objective(policy, inf_i, env_i, samples, shape_i, norm_i, rule)[0]

            def grad(policy):
                return policy_objective(policy, inf_i, env_i, samples, shape_i, norm_i, rule)[1](1.0)

            assert finite_diff_check(f, grad, init_policy(pshape, seed=2), h=1e-5) < 1e-3


class TestDrawSamples:
    @pytest.mark.parametrize("env", [UnicycleEnv(), DrivingEnv()], ids=["unicycle", "driving"])
    def test_without_a_pool_equals_drawing_one_row_at_a_time(self, env):
        """The samples and the generator state are those of one
        `sample_initial(rng, m)` call and, on an environment with a pool,
        one `rng.integers(len(pool), size=m)` call that picks the pool rows
        `original_env_pool` gives."""
        rng = np.random.default_rng(1)
        pool = original_env_pool(env.gen_dataset(2, rng) if env.n_env else env.gen_expert(2, rng), env)
        assert len(pool) == (8 if env.n_env else 0)
        for m, seed in itertools.product((1, 2, 32, 50), range(3)):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            x0s, env_trajs = train.draw_samples(env, pool, m, rng_a)
            rows = env.sample_initial(rng_b, m)
            trajs = pool[rng_b.integers(len(pool), size=m)] if env.n_env else np.zeros((m, env.T + 1, 0))
            assert np.array_equal(x0s, rows) and x0s.shape == (m, env.n_agent)
            assert np.array_equal(env_trajs, trajs) and env_trajs.shape == (m, env.T + 1, env.n_env)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_a_dynamic_pool_needs_demonstration_rows(self):
        """The pool of a driving dataset holds only its demonstration rows;
        one of policy rollouts alone is refused, not drawn as a lead car
        frozen at 0."""
        env = DrivingEnv()
        ds = env.gen_dataset(1, np.random.default_rng(2))
        policy = init_policy(PolicyShape.for_env(env, 4), seed=1)
        rollouts = train._generate_negatives(env, policy, original_env_pool(ds, env), 3, np.random.default_rng(3), "t")
        both = ds.extended(rollouts)
        assert np.array_equal(original_env_pool(both, env), ds.X[:, :, env.n_agent :])
        with pytest.raises(EmptyDataset, match="no demonstration rows"):
            original_env_pool(rollouts, env)


class TestTrainPolicy:
    def test_objective_improves_on_toy_task(self):
        env = DrivingEnv()
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=57, dim=4, tau=0.1)
        norm = SignalNorm(mid=(100.0, 5.0, 100.0, 5.0), halfrange=(100.0, 6.0, 100.0, 6.0))
        inf = helpers.encode_dnf([[("G", 30, 57, (0.0, 1.0, 0.0, 0.0), 2.0)]], shape, norm)
        rng = np.random.default_rng(23)
        pool = helpers.lead_profiles(env, rng, 2)[2:6]  # four leads that keep going
        policy0 = init_policy(PolicyShape(4, 6, 1), seed=3)
        cfg = PolicyTrainConfig(batch_m=4, steps=40, hidden=6)
        trained = train_policy(
            policy0, inf, env, pool, cfg, np.random.default_rng(29), shape=shape, norm=norm
        )
        val_rng = np.random.default_rng(31)
        samples = (
            np.stack([env.sample_initial(val_rng) for _ in range(6)]),
            np.stack([pool[i % len(pool)] for i in range(6)]),
        )
        before, _ = policy_objective(policy0, inf, env, samples, shape, norm)
        after, _ = policy_objective(trained, inf, env, samples, shape, norm)
        assert after > before

    def test_zero_steps_identity(self):
        env = DrivingEnv()
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=57, dim=4, tau=0.1)
        norm = SignalNorm.identity(4)
        inf = helpers.encode_dnf([[("G", 0, 57, (0.0, 1.0, 0.0, 0.0), 0.0)]], shape, norm)
        policy0 = init_policy(PolicyShape(4, 4, 1), seed=5)
        cfg = PolicyTrainConfig(batch_m=2, steps=0, hidden=4)
        out = train_policy(
            policy0, inf, env, [], cfg, np.random.default_rng(0), shape=shape, norm=norm
        )
        assert np.array_equal(out.flatten(), policy0.flatten())

    def test_adam_runs_at_the_fixed_rate_and_betas(self, monkeypatch):
        made = []
        monkeypatch.setattr(train, "Adam", lambda *a, **kw: made.append(Adam(*a, **kw)) or made[-1])
        env = DrivingEnv()
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=57, dim=4, tau=0.1)
        inf = helpers.encode_dnf([[("G", 0, 57, (0.0, 1.0, 0.0, 0.0), 0.0)]], shape, SignalNorm.identity(4))
        pool = helpers.lead_profiles(env, np.random.default_rng(3))[:1]
        policy0 = init_policy(PolicyShape(4, 4, 1), seed=5)
        cfg = PolicyTrainConfig(batch_m=2, steps=1, hidden=4)
        train_policy(policy0, inf, env, pool, cfg, np.random.default_rng(0), shape=shape, norm=SignalNorm.identity(4))
        assert [(opt.lr, opt.b1, opt.b2) for opt in made] == [(1e-3, 0.9, 0.999)]
        assert (train.POLICY_LR, train.ADAM_BETAS, train.ADAM_EPS) == (1e-3, (0.9, 0.999), 1e-8)

    def test_same_seed_identical_and_inference_frozen(self):
        env = DrivingEnv()
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=57, dim=4, tau=0.1)
        norm = SignalNorm(mid=(100.0, 5.0, 100.0, 5.0), halfrange=(100.0, 6.0, 100.0, 6.0))
        inf = helpers.encode_dnf([[("G", 30, 57, (0.0, 1.0, 0.0, 0.0), 2.0)]], shape, norm)
        frozen = inf.flatten()
        rng = np.random.default_rng(37)
        pool = helpers.lead_profiles(env, rng)[1:2]
        policy0 = init_policy(PolicyShape(4, 4, 1), seed=7)
        cfg = PolicyTrainConfig(batch_m=2, steps=10, hidden=4)
        outs = []
        for _ in range(2):
            out = train_policy(
                policy0, inf, env, pool, cfg, np.random.default_rng(41), shape=shape, norm=norm
            )
            outs.append(out.flatten())
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(inf.flatten(), frozen)


TINY_INF = InferenceTrainConfig(max_proposals=150, epoch_len=50, refine_steps=8, refine_batch=10)
TINY_POL = PolicyTrainConfig(batch_m=4, steps=25, hidden=6)
TINY_GAN = GanConfig(n_generate=6, max_iterations=2, stop_mcr=1.0)


def assert_same_result(a, b):
    """Two final loop states agree in everything but their wall times."""
    assert np.array_equal(a.adopted.inference.flatten(), b.adopted.inference.flatten())
    assert a.adopted.margin == b.adopted.margin
    assert np.array_equal(a.policy.flatten(), b.policy.flatten())
    assert stl.print_formula(a.adopted.formula) == stl.print_formula(b.adopted.formula)
    assert a.saturated == b.saturated
    timeless = [[{k: v for k, v in row.items() if k != "wall_time_s"} for row in r.metrics] for r in (a, b)]
    assert timeless[0] == timeless[1]
    assert a.adopted.dataset.ids == b.adopted.dataset.ids
    assert a.dataset.ids == b.dataset.ids
    assert a.norm == b.norm
    assert (a.iteration, a.rng_state) == (b.iteration, b.rng_state)


class TestGanLoop:
    def test_bootstrap_and_growth(self):
        env = UnicycleEnv()
        ds0 = env.gen_expert(10, np.random.default_rng(43))
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=20, dim=4, tau=0.1)
        state = gan_loop(
            ds0, env, shape, TINY_INF, TINY_POL, TINY_GAN, np.random.default_rng(47)
        )
        # bootstrap adds n_generate negatives before the first round
        assert state.metrics[0]["dataset_size"] == 10 + 6
        # each non-final round appends another n_generate
        assert state.metrics[1]["dataset_size"] == 10 + 2 * 6
        assert len(state.dataset) == len(state.adopted.dataset) == 10 + 2 * 6
        assert state.dataset.count(-1) == 12
        assert len(state.metrics) == 2
        assert isinstance(state.adopted.formula, stl.Formula)
        # the state after the last round, the normalization of the demonstrations alone
        assert (state.iteration, state.saturated) == (3, False)
        assert state.norm == SignalNorm.from_arrays(ds0.X)

    def test_metrics_reproducible(self):
        env = UnicycleEnv()
        ds0 = env.gen_expert(8, np.random.default_rng(53))
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=20, dim=4, tau=0.1)
        runs = []
        for _ in range(2):
            r = gan_loop(
                ds0, env, shape, TINY_INF, TINY_POL, TINY_GAN, np.random.default_rng(59)
            )
            runs.append(r)
        a, b = runs
        for ra, rb in zip(a.metrics, b.metrics):
            for key in ("mcr_smooth", "mcr_exact", "mean_policy_robustness", "loss"):
                assert ra[key] == rb[key]
        assert stl.print_formula(a.adopted.formula) == stl.print_formula(b.adopted.formula)
        assert np.array_equal(a.policy.flatten(), b.policy.flatten())

    def test_resume_matches_uninterrupted(self):
        env = UnicycleEnv()
        ds0 = env.gen_expert(8, np.random.default_rng(61))
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=20, dim=4, tau=0.1)
        # at stop_mcr -1 every round after the first saturates
        for stop_mcr in (1.0, -1.0):
            gan = GanConfig(n_generate=6, max_iterations=2, stop_mcr=stop_mcr)
            states = []
            full = gan_loop(
                ds0, env, shape, TINY_INF, TINY_POL, gan, np.random.default_rng(67), checkpoint_cb=states.append
            )
            assert [s.iteration for s in states] == [1, 2]
            assert full.saturated == (stop_mcr < 0)
            for snap in states:
                # the generator's state is overwritten by the snapshot's
                resumed = gan_loop(ds0, env, shape, TINY_INF, TINY_POL, gan, np.random.default_rng(1234), resume=snap)
                assert_same_result(resumed, full)

    def test_resumed_run_adopts_the_rounds_an_uninterrupted_one_does(self):
        # a run resumed after an adopted round still checks that round's
        # successor for saturation, and so stops where the uninterrupted run does
        env = UnicycleEnv()
        ds0 = env.gen_expert(12, np.random.default_rng(61))
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=20, dim=4, tau=0.1)
        gan = GanConfig(n_generate=6, max_iterations=4, stop_mcr=-1.0)
        states = []
        full = gan_loop(ds0, env, shape, TINY_INF, TINY_POL, gan, np.random.default_rng(67), checkpoint_cb=states.append)
        snap = next(s for s in states if s.iteration == 2)
        resumed = gan_loop(ds0, env, shape, TINY_INF, TINY_POL, gan, np.random.default_rng(0), resume=snap)
        assert len(full.metrics) == len(resumed.metrics) == 1
        assert full.saturated and resumed.saturated
        assert_same_result(resumed, full)
        # the snapshot warm-starts from the one adopted round
        assert np.array_equal(snap.warm_start, np.append(full.adopted.inference.flatten(), full.adopted.margin))
        # the saturated state is the one at the top of the failed round
        assert (full.iteration, full.rng_state, full.dataset.ids) == (2, snap.rng_state, snap.dataset.ids)

    def test_only_a_round_before_any_adoption_anneals_unreheated(self, monkeypatch):
        env = UnicycleEnv()
        ds0 = env.gen_expert(8, np.random.default_rng(61))
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=20, dim=4, tau=0.1)
        # a fit reheats exactly when it is warm-started (test_warm_start_alone_reheats)
        gan = GanConfig(n_generate=6, max_iterations=2, stop_mcr=1.0)
        warm = []
        fit = train.train_inference
        monkeypatch.setattr(
            train, "train_inference", lambda *a, **kw: warm.append(kw["warm_start"] is not None) or fit(*a, **kw)
        )
        states = []
        gan_loop(ds0, env, shape, TINY_INF, TINY_POL, gan, np.random.default_rng(67), checkpoint_cb=states.append)
        assert warm == [False, True]
        for snap, rest in zip(states, ([False, True], [True])):
            warm.clear()
            gan_loop(ds0, env, shape, TINY_INF, TINY_POL, gan, np.random.default_rng(0), resume=snap)
            assert warm == rest

    def test_empty_dataset_rejected(self):
        env = UnicycleEnv()
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=20, dim=4, tau=0.1)
        with pytest.raises(EmptyDataset):
            gan_loop(
                Dataset(np.zeros((0, 21, 4)), [], [], [], env.inference_names),
                env, shape, TINY_INF, TINY_POL, TINY_GAN, np.random.default_rng(0),
            )


class TestAdam:
    def test_descends_quadratic(self):
        opt = Adam(2, lr=0.1)
        x = np.array([3.0, -2.0])
        for _ in range(300):
            x = opt.step(x, 2 * x)
        assert np.all(np.abs(x) < 1e-2)

    def test_ascends_when_maximizing(self):
        """`train_policy` ascends by stepping along the negated gradient:
        each step mirrors, bit for bit, the descent step along the gradient."""
        up, down = Adam(1, lr=0.1), Adam(1, lr=0.1)
        x_up, x_down = np.array([0.0]), np.array([0.0])
        for k in range(50):
            g = np.array([1.0 + 0.1 * k])
            x_up, x_down = up.step(x_up, -g), down.step(x_down, g)
            assert np.array_equal(x_up, -x_down)
        assert x_up[0] > 1.0
