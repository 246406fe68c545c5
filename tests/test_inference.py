import numpy as np
import pytest

from stlmimic import stl
from stlmimic.inference import (
    GATE_L,
    InferenceParams,
    NetworkShape,
    SignalNorm,
    classify,
    combined_smooth,
    exact_mcr,
    extract_formula,
    init_inference,
    normalize_formula,
    param_bounds,
    simplify,
    smooth_robustness,
)
from stlmimic.stl import And, Eventually, Not, Or, Pred, Signal, TimeInterval, parse, print_formula
from stlmimic.tape import ParamVector, finite_diff_check
from stlmimic.train import InferenceTrainConfig, inference_loss

import oracle_stl
from helpers import EQ12_DNF, encode_dnf

CASE1_NAMES = ("dA", "dB", "dC", "dO")
EQ12_TEXT = "(F[2,14](dA < 1.5) | F[4,12](dB < 0.86)) & F[12,20](dC < 0.69)"


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
            r = stl.robustness(Signal(vals, CASE1_NAMES), f, 0)
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
        pv = params.to_pv()

        def score(leaves):
            return smooth_robustness(vals, InferenceParams.from_leaves(leaves), shape)[0]

        assert finite_diff_check(score, pv, h=1e-5) < 1e-3

        X = rng.uniform(-1, 1, size=(6, 6, 2))
        labels = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
        cfg = InferenceTrainConfig()
        pv_m = ParamVector({**pv.groups, "margin": np.array([0.3])})

        def loss(leaves):
            p = InferenceParams.from_leaves({k: v for k, v in leaves.items() if k != "margin"})
            return inference_loss(X, labels, p, shape, leaves["margin"][0], cfg)

        assert finite_diff_check(loss, pv_m, h=1e-5) < 1e-3

    def test_gradient_through_signal_rows(self):
        # Policy training differentiates through the signal, not the params.
        rng = np.random.default_rng(47)
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=4, dim=2, tau=0.1)
        params = init_inference(shape, rng)
        vals = rng.uniform(-1, 1, size=(1, 5, 2))
        pv = ParamVector({"sig": vals})

        def f(leaves):
            return smooth_robustness(leaves["sig"], params, shape)[0]

        assert finite_diff_check(f, pv, h=1e-5) < 1e-3

    def test_horizon_guard(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=10, dim=1, tau=0.1)
        params = init_inference(shape, np.random.default_rng(0))
        with pytest.raises(stl.HorizonExceeded):
            smooth_robustness(np.zeros((1, 5, 1)), params, shape)


class TestClassify:
    def test_sign_convention(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        assert classify(np.full((4, 1), 0.3), params, shape) == 1
        assert classify(np.full((4, 1), -0.3), params, shape) == -1
        # the boundary counts as positive, matching exact satisfaction
        sat_zero = smooth_robustness(np.zeros((1, 4, 1)), params, shape)[0]
        assert (1 if sat_zero >= 0 else -1) == 1


class TestInjectedRule:
    def test_rule_inactive_when_slack(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        rule = parse("G[0,3](x0 < 100)", ("x0",))
        X = np.full((1, 4, 1), 0.5)
        combined = combined_smooth(X, params, shape, rule)
        alone = smooth_robustness(X, params, shape)
        assert combined[0] == pytest.approx(alone[0], abs=1e-6)

    def test_rule_binds_when_violated(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=3, dim=1, tau=0.01)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("G", 0, 3, (1.0,), 0.0)]], shape, norm)
        rule = parse("G[0,3](x0 < 0.2)", ("x0",))
        X = np.full((1, 4, 1), 0.5)
        combined = combined_smooth(X, params, shape, rule)[0]
        assert combined == pytest.approx(0.2 - 0.5, abs=0.02)

    def test_smooth_formula_tracks_exact(self):
        rng = np.random.default_rng(53)
        names = ("x0", "x1")
        for _ in range(40):
            f = oracle_stl.random_formula(rng, names, depth=2, max_t=3)
            s = oracle_stl.random_signal(rng, names, stl.horizon(f) + 1)
            exact = stl.robustness(s, f, 0)
            smooth = stl.robustness_trace(s.values[None], f, 0.001)[0, 0]
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
            r_raw = stl.robustness(Signal(raw, names), f, 0)
            r_norm = stl.robustness(Signal(norm.apply(raw), names), f_n, 0)
            assert r_norm == pytest.approx(r_raw, rel=1e-9, abs=1e-9)


class TestExtraction:
    def test_threshold_rule(self):
        shape = NetworkShape(n_pred=1, n_conj=1, horizon=5, dim=1, tau=0.1)
        norm = SignalNorm.identity(1)
        params = encode_dnf([[("F", 0, 5, (1.0,), 0.5)]], shape, norm)
        # logit 2.197 -> sigmoid ~0.9 stays; logit -2.197 -> ~0.1 dropped
        params.gate[0, 0] = 2.197
        params.gate[0, 1] = -2.197
        f = extract_formula(params, shape, norm, ("x0",), gate_threshold=0.5)
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
        assert print_formula(f) == EQ12_TEXT

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
            exact = stl.robustness(Signal(raw, ("a", "b")), f, 0)
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

    def test_never_increases_mcr(self):
        rng = np.random.default_rng(71)
        names = ("x0", "x1")
        for _ in range(20):
            f = oracle_stl.random_formula(rng, names, depth=2, max_t=2)
            sigs = [oracle_stl.random_signal(rng, names, stl.horizon(f) + 1) for _ in range(12)]
            X = np.stack([s.values for s in sigs])
            labels = [1 if rng.random() < 0.5 else -1 for _ in range(12)]
            before = exact_mcr(f, X, names, labels)
            after = exact_mcr(simplify(f, X, names, labels), X, names, labels)
            assert after <= before + 1e-12


class TestBounds:
    def test_bounds_align_with_flatten(self):
        shape = case1_shape()
        lo, hi = param_bounds(shape)
        pv = init_inference(shape, np.random.default_rng(0)).to_pv()
        assert lo.size == pv.size == hi.size
        assert np.all(lo < hi)
