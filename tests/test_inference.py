import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlmimic import stl
from stlmimic.inference import (
    GATE_L,
    InferenceParams,
    NetworkShape,
    SignalNorm,
    _deletions,
    _factor_shared,
    combined_smooth,
    exact_mcr,
    exact_satisfaction,
    extract_formula,
    init_inference,
    normalize_formula,
    simplify,
    smooth_robustness,
)
from stlmimic.stl import (
    And,
    Eventually,
    Not,
    Or,
    Pred,
    TimeInterval,
    parse,
    print_formula,
    robustness,
)
from stlmimic.params import ParamVector
from stlmimic.train import inference_loss

import oracle_stl
from helpers import EQ12_DNF, encode_dnf, finite_diff_check

CASE1_NAMES = ("dA", "dB", "dC", "dO")
EQ12_TEXT = "(F[2,14](dA < 1.5) | F[4,12](dB < 0.86)) & F[12,20](dC < 0.69)"
# how it prints: a negated atom counts robustness 0 as satisfied, so `<=`
EQ12_PRINTED = "(F[2,14](dA <= 1.5) | F[4,12](dB <= 0.86)) & F[12,20](dC <= 0.69)"


def case1_shape(tau=0.01):
    return NetworkShape(n_pred=6, n_conj=2, horizon=20, dim=4, tau=tau)


def random_walk_signals(rng, n, T, d, lo=0.0, hi=10.0):
    out = []
    for _ in range(n):
        x = rng.uniform(lo, hi, size=d)
        rows = [x.copy()]
        for _ in range(T):
            x = np.clip(x + rng.uniform(-1.2, 1.2, size=d), lo, hi)
            rows.append(x.copy())
        out.append(np.array(rows))
    return out


class TestInitInference:
    @staticmethod
    def reference(shape, rng):
        """init_inference with its signed one-hot drawn by rng.choice."""
        T, n_atoms = shape.horizon, shape.n_atoms
        lo = rng.uniform(0, 0.6 * T, size=n_atoms)
        hi = np.minimum(lo + rng.uniform(0.25 * T, T, size=n_atoms), T)
        pred_w = rng.uniform(-1, 1, size=(shape.n_pred, shape.dim))
        for k in range(shape.n_pred // 2):
            row = np.zeros(shape.dim)
            row[int(rng.integers(shape.dim))] = rng.choice([-1.0, 1.0])
            pred_w[k] = row + rng.normal(0, 0.05, size=shape.dim)
        return InferenceParams(
            pred_w=pred_w,
            pred_b=rng.uniform(-0.5, 0.5, size=shape.n_pred),
            win_lo=lo,
            win_hi=hi,
            gate=rng.uniform(-2.0, 1.0, size=(shape.n_conj, n_atoms)),
            out_gate=rng.uniform(0.0, 1.5, size=shape.n_conj),
        )

    @pytest.mark.parametrize(
        "n_pred, n_conj, horizon, dim", [(1, 1, 3, 1), (2, 1, 10, 2), (5, 2, 7, 3), (6, 2, 20, 4), (8, 3, 57, 4)]
    )
    def test_draws_as_rng_choice_did(self, n_pred, n_conj, horizon, dim):
        # the same parameters, and the generator left in the same state
        shape = NetworkShape(n_pred=n_pred, n_conj=n_conj, horizon=horizon, dim=dim)
        for seed in range(200):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = init_inference(shape, rng), self.reference(shape, ref_rng)
            for name, value in vars(want).items():
                assert np.array_equal(getattr(got, name), value), (seed, name)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


class TestSmoothRobustness:
    def test_degenerate_single_always_atom_tracks_constant(self):
        # One conjunction with a single always-atom over [0, T] on the
        # predicate x0 >= 0 applied to a constant signal c.
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=6, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("G", 0, 6, (1.0,), 0.0)]], shape, norm)
        for c in (0.0, 0.4, 2.5):
            X = np.full((1, 7, 1), c)
            val = smooth_robustness(X, params, shape)[0]
            assert val == pytest.approx(c, abs=0.02)

    def test_matches_exact_for_hand_encoded_eq12(self):
        shape = case1_shape(tau=0.01)
        norm = SignalNorm.identity(4)
        params = encode_dnf(EQ12_DNF, shape, norm)
        f = parse(EQ12_TEXT, CASE1_NAMES)
        rng = np.random.default_rng(31)
        checked = 0
        for vals in random_walk_signals(rng, 100, 20, 4):
            r = robustness(vals[None], f)[0]
            smooth = smooth_robustness(vals[None], params, shape)[0]
            assert abs(smooth - r) <= 0.05 * abs(r) + 0.01
            if abs(r) > 0.1:
                checked += 1
                assert (smooth >= 0) == (r >= 0)
        assert checked > 30  # the generator must exercise decisive cases

    def test_positive_homogeneity_at_low_tau(self):
        # Zero-offset predicates: scaling the signal scales the output.
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=5, dim=2, tau=0.001)
        norm = SignalNorm.identity(2)
        params = encode_dnf(
            [[("F", 1, 4, (1.0, 0.0), 0.0), ("G", 0, 5, (0.0, 1.0), 0.0)]], shape, norm
        )
        rng = np.random.default_rng(5)
        vals = rng.uniform(-2, 2, size=(6, 2))
        base = smooth_robustness(vals[None], params, shape)[0]
        for alpha in (0.5, 2.0, 3.0):
            scaled = smooth_robustness(alpha * vals[None], params, shape)[0]
            assert scaled == pytest.approx(alpha * base, abs=0.02 + 0.02 * alpha)

    def test_graph_gradient_matches_finite_differences(self):
        # The classifier score on one signal, and the refine loss (hinge,
        # gate regularizer and learnable margin) on a labelled batch, with
        # respect to the classifier parameters and the margin.
        rng = np.random.default_rng(43)
        shape = NetworkShape(n_pred=2, n_conj=2, horizon=5, dim=2, tau=0.1)
        params = init_inference(shape, rng)
        vals = rng.uniform(-1, 1, size=(1, 6, 2))

        def score(p):
            return smooth_robustness(vals, p, shape)[0]

        def score_grad(p):
            return smooth_robustness(vals, p, shape, vjp=True)[1](np.ones(1))[0]

        assert finite_diff_check(score, score_grad, params, h=1e-5) < 1e-3

        X = rng.uniform(-1, 1, size=(6, 6, 2))
        labels = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
        pv_m = ParamVector(**vars(params), margin=np.array([0.3]))

        def split(p):
            groups = dict(vars(p))
            margin = groups.pop("margin")[0]
            return InferenceParams(**groups), margin

        def loss(p):
            params, margin = split(p)
            return inference_loss(X, labels, params, shape, margin)[0]

        def loss_grad(p):
            params, margin = split(p)
            g_params, g_margin = inference_loss(X, labels, params, shape, margin)[1](1.0)
            return ParamVector(**vars(g_params), margin=np.array([g_margin]))

        assert finite_diff_check(loss, loss_grad, pv_m, h=1e-5) < 1e-3

    def test_gradient_through_signal_rows(self):
        # Policy training differentiates through the signal, not the params.
        rng = np.random.default_rng(47)
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=4, dim=2, tau=0.1)
        params = init_inference(shape, rng)
        pv = ParamVector(sig=rng.uniform(-1, 1, size=(1, 5, 2)))

        def f(p):
            return smooth_robustness(p.sig, params, shape)[0]

        def grad(p):
            return ParamVector(sig=smooth_robustness(p.sig, params, shape, vjp=True)[1](np.ones(1))[1])

        assert finite_diff_check(f, grad, pv, h=1e-5) < 1e-3

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.builds(
            NetworkShape,
            n_pred=st.integers(1, 4),
            n_conj=st.integers(1, 3),
            horizon=st.integers(1, 6),
            dim=st.integers(1, 3),
            tau=st.sampled_from([0.1, 0.3, 1.0]),
        ),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vjp_matches_fd_on_random_shapes(self, shape, n, seed):
        # the classifier's gradient with respect to its parameters and to
        # the signals, for a weighted sum of the scores; the value returned
        # with the VJP is the value-only score bit for bit
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.5, 1.5, size=(n, shape.horizon + 1, shape.dim))
        weights = rng.normal(size=n)
        pv = ParamVector(**vars(init_inference(shape, rng)), sig=X)

        def split(p):
            groups = dict(vars(p))
            return groups.pop("sig"), InferenceParams(**groups)

        def f(p):
            sig, params = split(p)
            return smooth_robustness(sig, params, shape) @ weights

        def grad(p):
            sig, params = split(p)
            scores, vjp = smooth_robustness(sig, params, shape, vjp=True)
            assert np.array_equal(scores, smooth_robustness(sig, params, shape))
            g_params, gX = vjp(weights)
            assert type(g_params) is InferenceParams
            return ParamVector(**vars(g_params), sig=gX)

        assert finite_diff_check(f, grad, pv, h=1e-6) < 1e-4

    def test_horizon_guard(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=10, dim=1, tau=0.1)
        params = init_inference(shape, np.random.default_rng(0))
        with pytest.raises(stl.HorizonExceeded):
            smooth_robustness(np.zeros((1, 5, 1)), params, shape)

    def test_reads_exactly_its_horizon(self):
        # a signal longer than the horizon is refused, not cut to its first
        # T+1 samples, with or without a VJP
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=4, dim=1, tau=0.1)
        params = init_inference(shape, np.random.default_rng(0))
        for vjp in (False, True):
            with pytest.raises(stl.HorizonExceeded, match="need 5 samples, got 6"):
                smooth_robustness(np.zeros((2, 6, 1)), params, shape, vjp=vjp)


class TestClassify:
    def test_sign_convention(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        X = np.array([0.3, -0.3, 0.0])[:, None, None] * np.ones((3, 4, 1))
        scores = smooth_robustness(X, params, shape)
        # a score >= 0 classifies as positive; the boundary counts as
        # positive, matching exact satisfaction
        assert scores[0] > 0.0 and scores[1] < 0.0 and scores[2] >= 0.0


class TestInjectedRule:
    def test_rule_inactive_when_slack(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        rule = parse("G[0,3](x0 < 100)", ("x0",))
        X = np.full((1, 4, 1), 0.5)
        combined, _ = combined_smooth(X, params, shape, rule)
        alone = smooth_robustness(X, params, shape)
        assert combined[0] == pytest.approx(alone[0], abs=1e-6)

    def test_rule_binds_when_violated(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        rule = parse("G[0,3](x0 < 0.2)", ("x0",))
        X = np.full((1, 4, 1), 0.5)
        combined = combined_smooth(X, params, shape, rule)[0][0]
        assert combined == pytest.approx(0.2 - 0.5, abs=0.02)

    def test_smooth_formula_tracks_exact(self):
        rng = np.random.default_rng(53)
        names = ("x0", "x1")
        for _ in range(40):
            f = oracle_stl.random_formula(rng, names, depth=2, max_t=3)
            X = oracle_stl.random_signal(rng, names, stl.horizon(f) + 1)[None]
            exact = robustness(X, f)[0]
            smooth = stl.smooth_robustness(X, f, 0.001)[0][0]
            if abs(exact) < 1e8:  # skip TRUE-dominated sentinels
                assert smooth == pytest.approx(exact, abs=0.02 + 0.02 * abs(exact))


class TestNormalization:
    def test_norm_from_arrays(self):
        arrays = [np.array([[0.0, 2.0], [4.0, 6.0]]), np.array([[2.0, 4.0]])]
        norm = SignalNorm.from_arrays(arrays)
        assert norm.mid == (2.0, 4.0)
        assert norm.halfrange == (2.0, 2.0)
        normalized = norm.apply(arrays[0])
        assert normalized.min() == -1.0 and normalized.max() == 1.0

    def test_constant_dimension_guarded(self):
        norm = SignalNorm.from_arrays([np.ones((5, 1))])
        assert norm.halfrange[0] >= 1e-6

    def test_normalized_formula_has_identical_robustness(self):
        rng = np.random.default_rng(61)
        names = ("a", "b")
        arrays = [rng.uniform(-3, 7, size=(8, 2)) for _ in range(4)]
        norm = SignalNorm.from_arrays(arrays)
        for _ in range(30):
            f = oracle_stl.random_formula(rng, names, depth=2, max_t=3)
            raw = arrays[int(rng.integers(len(arrays)))]
            if stl.horizon(f) >= raw.shape[0]:
                continue
            f_n = normalize_formula(f, norm)
            for t in range(raw.shape[0] - stl.horizon(f)):  # at every start step
                r_raw = robustness(raw[None, t:], f)
                r_norm = robustness(norm.apply(raw)[None, t:], f_n)
                assert r_norm == pytest.approx(r_raw, rel=1e-9, abs=1e-9)


class TestExtraction:
    def test_threshold_rule(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=5, dim=1, tau=0.1)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("F", 0, 5, (1.0,), 0.5)]], shape, norm)
        # logit 2.197 -> sigmoid ~0.9 stays; logit -2.197 -> ~0.1 dropped
        params.gate[0, 0] = 2.197
        params.gate[0, 1] = -2.197
        f = extract_formula(params, shape, norm, ("x0",))
        assert f == Eventually(TimeInterval(0, 5), Pred((1.0,), 0.5, ("x0",)))

    def test_gate_is_on_above_one_half(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=5, dim=1, tau=0.1)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("F", 0, 5, (1.0,), 0.5)]], shape, norm)
        # logit 0.01 -> sigmoid 0.5025 stays; logit -0.01 -> 0.4975 dropped
        params.out_gate[0] = 0.01
        params.gate[0, 0] = 0.01
        params.gate[0, 1] = -0.01
        f = extract_formula(params, shape, norm, ("x0",))
        assert f == Eventually(TimeInterval(0, 5), Pred((1.0,), 0.5, ("x0",)))

    def test_window_rounding(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=20, dim=1, tau=0.1)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("F", 0, 20, (1.0,), 0.0)]], shape, norm)
        params.win_lo[0] = 1.7
        params.win_hi[0] = 13.6
        f = extract_formula(params, shape, norm, ("x0",))
        assert f.interval == TimeInterval(2, 14)

    def test_eq12_extraction_prints_paper_string(self):
        shape = case1_shape()
        norm = SignalNorm.identity(4)
        params = encode_dnf(EQ12_DNF, shape, norm)
        f = extract_formula(params, shape, norm, CASE1_NAMES)
        assert print_formula(f) == EQ12_PRINTED

    def test_denormalization_preserves_sign(self):
        rng = np.random.default_rng(67)
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=6, dim=2, tau=0.01)
        arrays = [rng.uniform(0, 8, size=(7, 2)) for _ in range(6)]
        norm = SignalNorm.from_arrays(arrays)
        params = encode_dnf(
            [[("F", 0, 6, (1.0, 0.0), 3.0), ("G", 0, 6, (0.0, -1.0), -6.5)]],
            shape,
            norm,
        )
        f = extract_formula(params, shape, norm, ("a", "b"))
        for raw in arrays:
            exact = robustness(raw[None], f)[0]
            smooth = smooth_robustness(norm.apply(raw)[None], params, shape)[0]
            if abs(exact) > 0.1:
                assert (smooth >= 0) == (exact >= 0)

    def test_gate_rescaling_invariance(self):
        shape = case1_shape()
        norm = SignalNorm.identity(4)
        a = encode_dnf(EQ12_DNF, shape, norm, big=30.0)
        b = encode_dnf(EQ12_DNF, shape, norm, big=6.0)
        assert extract_formula(a, shape, norm, CASE1_NAMES) == extract_formula(
            b, shape, norm, CASE1_NAMES
        )

    def test_empty_selection_gives_true(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.1)
        norm = SignalNorm.identity(1)
        params = encode_dnf([], shape, norm)
        assert extract_formula(params, shape, norm, ("x0",)) == stl.TrueFormula()


class TestFactorShared:
    """`_factor_shared` pulls the conjuncts every disjunct shares out of a
    top-level Or; the rewrite has the exact satisfaction of its input."""

    A, B, C = "F[0,3](a >= 1)", "G[0,2](a >= 3)", "G[1,4](b <= 2)"

    @pytest.mark.parametrize(
        "text, want",
        [
            (f"({A} & {C}) | ({B} & {C})", f"({A} | {B}) & {C}"),
            (f"({A} & {C}) | ({B} & F[1,4](b <= 2))", None),
            (f"({A} & {C}) | {C}", C),
        ],
        ids=["shared-factor", "no-common-conjunct", "absorption"],
    )
    def test_rewrite_keeps_exact_satisfaction(self, text, want):
        names = ("a", "b")
        f = parse(text, names)
        g = _factor_shared(f)
        if want is None:
            assert g is f
        else:
            assert g == parse(want, names)
        X = np.random.default_rng(5).uniform(-1.0, 5.0, size=(500, 6, 2))
        assert np.array_equal(exact_satisfaction(g, X, names), exact_satisfaction(f, X, names))


class TestSimplify:
    def test_redundant_conjunct_dropped(self):
        # x0 >= 0 separates; x0 >= -10 is vacuous on this data.
        necessary = Pred((1.0,), 0.0, ("x0",))
        redundant = Pred((1.0,), -10.0, ("x0",))
        f = And((necessary, redundant))
        arrays = [np.array([[1.0]]), np.array([[2.0]]), np.array([[-1.0]])]
        labels = [1, 1, -1]
        g = simplify(f, np.stack(arrays), ("x0",), labels)
        assert g == necessary

    def test_already_minimal_unchanged(self):
        f = Pred((1.0,), 0.0, ("x0",))
        arrays = [np.array([[1.0]]), np.array([[-1.0]])]
        g = simplify(f, np.stack(arrays), ("x0",), [1, -1])
        assert g == f

    def test_deletion_candidates_come_in_a_fixed_order(self):
        # simplify accepts the first candidate that does not raise the MCR, so
        # this order is part of its result: an and/or's own operands first,
        # then the deletions within each operand in turn, through !, F and G
        names = ("x", "y")
        f = parse("!(F[0,2](x >= 0) & G[1,3](y >= 1 | x >= 2)) | (x >= 3 & y >= 4 & x >= 5)", names)
        expected = [
            "x >= 3 & y >= 4 & x >= 5",
            "!(F[0,2](x >= 0) & G[1,3](y >= 1 | x >= 2))",
            "!G[1,3](y >= 1 | x >= 2) | x >= 3 & y >= 4 & x >= 5",
            "!F[0,2](x >= 0) | x >= 3 & y >= 4 & x >= 5",
            "!(F[0,2](x >= 0) & G[1,3](x >= 2)) | x >= 3 & y >= 4 & x >= 5",
            "!(F[0,2](x >= 0) & G[1,3](y >= 1)) | x >= 3 & y >= 4 & x >= 5",
            "!(F[0,2](x >= 0) & G[1,3](y >= 1 | x >= 2)) | y >= 4 & x >= 5",
            "!(F[0,2](x >= 0) & G[1,3](y >= 1 | x >= 2)) | x >= 3 & x >= 5",
            "!(F[0,2](x >= 0) & G[1,3](y >= 1 | x >= 2)) | x >= 3 & y >= 4",
        ]
        assert list(_deletions(f)) == [parse(text, names) for text in expected]

    def test_scores_each_atom_once(self, monkeypatch):
        # two conjunctions of two atoms, like a default extraction: each atom
        # and each predicate is scored once, however many candidates hold it
        names = ("x0", "x1")
        atoms = [Eventually(TimeInterval(0, 2), Pred((1.0, -0.5), b, names)) for b in (-1.0, 0.0, 0.5, 1.0)]
        f = Or((And(tuple(atoms[:2])), And(tuple(atoms[2:]))))
        rng = np.random.default_rng(3)
        X, labels = rng.uniform(-2, 2, size=(40, 6, 2)), rng.choice([-1, 1], size=40)
        computed = []
        trace = stl._trace
        monkeypatch.setattr(stl, "_trace", lambda X, g, *rest: computed.append(g) or trace(X, g, *rest))
        simplify(f, X, names, labels)
        scored = [id(g) for g in computed if not isinstance(g, (And, Or))]
        assert sorted(scored) == sorted({id(g) for g in atoms + [a.child for a in atoms]})

    def test_checks_the_formulas_names_once(self, monkeypatch):
        # a candidate drops operands of a checked formula, so only f is
        # checked; a formula read with a cache that holds no mark for it is
        names = ("x0", "x1")
        f = parse("F[0,2](x0 >= 0) & G[0,1](x1 >= 1) | x0 >= 2", names)
        rng = np.random.default_rng(5)
        X, labels = rng.uniform(-2, 2, size=(20, 4, 2)), rng.choice([-1, 1], size=20)
        for call in (lambda: simplify(f, X, ("a", "b"), labels), lambda: exact_satisfaction(f, X, ("a", "b"), {})):
            with pytest.raises(stl.DimensionMismatch):
                call()
        checked = []
        check_names = stl.check_names
        monkeypatch.setattr(stl, "check_names", lambda g, dims: checked.append(g) or check_names(g, dims))
        assert simplify(f, X, names, labels) != f
        assert checked == [f]

    def test_never_increases_mcr(self):
        rng = np.random.default_rng(71)
        names = ("x0", "x1")
        for _ in range(20):
            f = oracle_stl.random_formula(rng, names, depth=2, max_t=2)
            X = np.stack([oracle_stl.random_signal(rng, names, stl.horizon(f) + 1) for _ in range(12)])
            labels = [1 if rng.random() < 0.5 else -1 for _ in range(12)]
            before = exact_mcr(f, X, names, labels)
            after = exact_mcr(simplify(f, X, names, labels), X, names, labels)
            assert after <= before + 1e-12
